//! The range-lock table: blocking acquisition, two-phase release, and
//! wait-die deadlock prevention.

use std::fmt;
use std::time::{Duration, Instant};

use repdir_core::sync::{Condvar, Mutex};

use crate::range::{compatible, KeyRange, LockMode};

/// Identifies a lock-holding transaction and carries its age.
///
/// The high 56 bits are the transaction's *age* (smaller is older), the low
/// 8 bits its *attempt*. `repdir-txn` hands every new transaction a fresh
/// age and every retry the next attempt of the same age, so a transaction
/// that keeps losing keeps its place in line and eventually becomes the
/// oldest. The lock table reads only the age: a request waits only for
/// holders no older than itself and dies on any older one (wait-die), so
/// waits run from older to younger and no cycle of waits can form.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxnId(pub u64);

impl TxnId {
    const ATTEMPT_BITS: u32 = 8;

    /// The first attempt of the transaction of age `age`.
    pub fn of_age(age: u64) -> TxnId {
        TxnId(age << Self::ATTEMPT_BITS)
    }

    /// The transaction's age: smaller is older. Every attempt of one
    /// transaction has the same age.
    pub fn age(self) -> u64 {
        self.0 >> Self::ATTEMPT_BITS
    }

    /// Which attempt of its transaction this id is, from 0.
    pub fn attempt(self) -> u8 {
        self.0 as u8
    }

    /// The same transaction's next attempt: a fresh id of the same age (the
    /// attempt wraps within its 8 bits).
    pub fn next_attempt(self) -> TxnId {
        TxnId(Self::of_age(self.age()).0 | u64::from(self.attempt().wrapping_add(1)))
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Why a lock could not be granted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockError {
    /// The deadline elapsed while waiting for younger (or same-age)
    /// conflicting holders.
    Timeout,
    /// A conflicting holder is older than the requester, so the requester
    /// dies rather than wait (wait-die): its transaction aborts and retries.
    Deadlock,
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::Timeout => f.write_str("lock wait timed out"),
            LockError::Deadlock => f.write_str("deadlock victim"),
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Clone, Debug)]
struct Granted {
    owner: TxnId,
    mode: LockMode,
    range: KeyRange,
}

#[derive(Default)]
struct State {
    granted: Vec<Granted>,
    stats: LockStats,
}

/// Cumulative counters for observability and the lock benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Locks granted (including immediately compatible ones).
    pub granted: u64,
    /// Acquisitions that had to wait at least once.
    pub waited: u64,
    /// Acquisitions refused with [`LockError::Deadlock`].
    pub deadlocks: u64,
    /// Acquisitions refused with [`LockError::Timeout`].
    pub timeouts: u64,
}

/// A table of range locks over one directory representative, implementing
/// the paper's Figure 7 compatibility with blocking waits, wait-die
/// deadlock prevention, and all-at-once release for strict two-phase
/// locking.
///
/// "As specified, the lock compatibility relation is sufficiently strong to
/// guarantee that the actions of transactions operating on a directory
/// representative are serializable, providing that two phase locking is
/// used" (§3.1). The table enforces compatibility; the transactional
/// representative (`repdir-replica`) enforces the two phases by releasing
/// only at commit/abort via [`release_all`](RangeLockTable::release_all).
///
/// # Examples
///
/// ```
/// use repdir_core::Key;
/// use repdir_rangelock::{KeyRange, LockMode, RangeLockTable, TxnId};
/// use std::time::Duration;
///
/// let table = RangeLockTable::new();
/// let t1 = TxnId(1);
/// table.acquire(t1, LockMode::Modify, KeyRange::point(Key::from("k")),
///               Duration::from_millis(10))?;
/// // A disjoint modify by another transaction is compatible.
/// table.acquire(TxnId(2), LockMode::Modify, KeyRange::point(Key::from("z")),
///               Duration::from_millis(10))?;
/// table.release_all(t1);
/// # Ok::<(), repdir_rangelock::LockError>(())
/// ```
pub struct RangeLockTable {
    state: Mutex<State>,
    released: Condvar,
}

impl Default for RangeLockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeLockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        RangeLockTable {
            state: Mutex::new(State::default()),
            released: Condvar::new(),
        }
    }

    /// Acquires a lock, blocking up to `timeout` for conflicting holders to
    /// release.
    ///
    /// A transaction's own locks never conflict with its new requests
    /// (re-entrancy), so lock "upgrades" (`Lookup` then `Modify` over the
    /// same range) always succeed locally.
    ///
    /// A conflict is decided from the ages of the conflicting holders
    /// alone (wait-die): the request waits only if no holder is older than
    /// it, sleeping until a release at this table or its deadline, and
    /// decides afresh on every wake. Waits therefore run only from older to
    /// younger transactions, here and at every other table, so no cycle of
    /// waits can form, whether its edges sit in one table or in several
    /// representatives' tables that share nothing.
    ///
    /// # Errors
    ///
    /// * [`LockError::Deadlock`] if a conflicting holder is older than
    ///   `owner` — when the request arrives, or when it wakes to find an
    ///   older transaction granted ahead of it.
    /// * [`LockError::Timeout`] if the deadline passes first. Only holders
    ///   of the same age or younger are waited for, so this means a holder
    ///   that kept its locks for the whole `timeout`.
    pub fn acquire(
        &self,
        owner: TxnId,
        mode: LockMode,
        range: KeyRange,
        timeout: Duration,
    ) -> Result<(), LockError> {
        let mut st = self.state.lock();
        let mut waiting_since: Option<Instant> = None;
        loop {
            let oldest = st
                .granted
                .iter()
                .filter(|g| g.owner != owner && !compatible(g.mode, &g.range, mode, &range))
                .map(|g| g.owner.age())
                .min();
            match oldest {
                None => {
                    st.granted.push(Granted { owner, mode, range });
                    st.stats.granted += 1;
                    if waiting_since.is_some() {
                        st.stats.waited += 1;
                    }
                    return Ok(());
                }
                Some(age) if age < owner.age() => {
                    st.stats.deadlocks += 1;
                    return Err(LockError::Deadlock);
                }
                Some(_) => {}
            }
            let start = *waiting_since.get_or_insert_with(Instant::now);
            if self
                .released
                .wait_until(&mut st, start + timeout)
                .timed_out()
            {
                st.stats.timeouts += 1;
                return Err(LockError::Timeout);
            }
        }
    }

    /// Releases every lock held by `owner` and wakes all waiters — the
    /// shrinking phase of strict two-phase locking. Idempotent.
    pub fn release_all(&self, owner: TxnId) {
        let mut st = self.state.lock();
        st.granted.retain(|g| g.owner != owner);
        self.released.notify_all();
    }

    /// Discards every granted lock, waking all blocked acquirers (they
    /// re-evaluate and typically proceed).
    ///
    /// Models a representative crash: locks are volatile state and do not
    /// survive restarts. Callers are responsible for ensuring the protected
    /// state was recovered first.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.granted.clear();
        self.released.notify_all();
    }

    /// Number of locks currently granted.
    pub fn granted_count(&self) -> usize {
        self.state.lock().granted.len()
    }

    /// Ids of transactions currently holding at least one lock.
    pub fn holders(&self) -> Vec<TxnId> {
        let st = self.state.lock();
        let mut ids: Vec<TxnId> = st.granted.iter().map(|g| g.owner).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The locks `owner` currently holds, in grant order (test aid: what an
    /// operation's lock footprint was).
    pub fn held_by(&self, owner: TxnId) -> Vec<(LockMode, KeyRange)> {
        let st = self.state.lock();
        let held = st.granted.iter().filter(|g| g.owner == owner);
        held.map(|g| (g.mode, g.range.clone())).collect()
    }

    /// Cumulative counters since creation.
    pub fn stats(&self) -> LockStats {
        self.state.lock().stats
    }

    /// Verifies no two granted locks from different owners are incompatible.
    /// Test/debug aid; the table upholds this by construction.
    pub fn check_invariants(&self) -> Result<(), String> {
        let st = self.state.lock();
        for (i, a) in st.granted.iter().enumerate() {
            for b in &st.granted[i + 1..] {
                if a.owner != b.owner && !compatible(a.mode, &a.range, b.mode, &b.range) {
                    return Err(format!("incompatible grants coexist: {a:?} and {b:?}"));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Debug for RangeLockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("RangeLockTable")
            .field("granted", &st.granted.len())
            .field("stats", &st.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repdir_core::Key;
    use std::sync::Arc;
    use std::thread;

    fn r(a: &str, b: &str) -> KeyRange {
        KeyRange::new(Key::from(a), Key::from(b))
    }
    const SHORT: Duration = Duration::from_millis(25);
    const LONG: Duration = Duration::from_secs(5);

    #[test]
    fn ids_carry_age_and_attempt() {
        let first = TxnId::of_age(7);
        assert_eq!((first.age(), first.attempt()), (7, 0));
        let retry = first.next_attempt();
        assert_eq!((retry.age(), retry.attempt()), (7, 1));
        assert!(
            first < retry && retry < TxnId::of_age(8),
            "a retry keeps its age"
        );
        let last = TxnId(first.0 | 0xFF);
        assert_eq!(last.next_attempt(), first, "the attempt wraps in its bits");
        // Small raw ids are attempts of age 0: siblings, not elders.
        assert_eq!((TxnId(1).age(), TxnId(2).age()), (0, 0));
    }

    #[test]
    fn compatible_locks_coexist() {
        let t = RangeLockTable::new();
        t.acquire(TxnId(1), LockMode::Lookup, r("a", "m"), SHORT)
            .unwrap();
        t.acquire(TxnId(2), LockMode::Lookup, r("g", "z"), SHORT)
            .unwrap();
        t.acquire(TxnId(3), LockMode::Modify, r("zz", "zzz"), SHORT)
            .unwrap();
        assert_eq!(t.granted_count(), 3);
        t.check_invariants().unwrap();
        assert_eq!(t.holders(), vec![TxnId(1), TxnId(2), TxnId(3)]);
    }

    #[test]
    fn conflicting_modify_times_out() {
        let t = RangeLockTable::new();
        t.acquire(TxnId(1), LockMode::Modify, r("a", "m"), SHORT)
            .unwrap();
        let e = t
            .acquire(TxnId(2), LockMode::Modify, r("g", "z"), SHORT)
            .unwrap_err();
        assert_eq!(e, LockError::Timeout);
        let e = t
            .acquire(TxnId(2), LockMode::Lookup, r("g", "z"), SHORT)
            .unwrap_err();
        assert_eq!(e, LockError::Timeout);
        assert_eq!(t.stats().timeouts, 2);
    }

    /// Two transactions lock two tables that share nothing — the shape a
    /// suite write wave produces across representatives, networked ones
    /// included — in opposite orders. The younger dies at once instead of
    /// closing the cycle, and after its abort the older's wait completes.
    #[test]
    fn wait_die_breaks_cross_table_deadlock() {
        let t1 = Arc::new(RangeLockTable::new());
        let t2 = Arc::new(RangeLockTable::new());
        let (older, younger) = (TxnId::of_age(1), TxnId::of_age(2));
        t1.acquire(older, LockMode::Modify, r("a", "m"), LONG)
            .unwrap();
        t2.acquire(younger, LockMode::Modify, r("a", "m"), LONG)
            .unwrap();

        // The older waits at table 2 for the younger...
        let waiter = thread::spawn({
            let t2 = Arc::clone(&t2);
            move || t2.acquire(older, LockMode::Modify, r("a", "m"), LONG)
        });
        // ...which dies at table 1 rather than wait for the older.
        let start = Instant::now();
        let e = t1.acquire(younger, LockMode::Modify, r("a", "m"), LONG);
        assert_eq!(e, Err(LockError::Deadlock));
        assert!(start.elapsed() < Duration::from_millis(100));

        // Its abort releases table 2; the survivor then completes.
        t1.release_all(younger);
        t2.release_all(younger);
        assert_eq!(waiter.join().unwrap(), Ok(()));
        assert_eq!((t1.stats().deadlocks, t2.stats().timeouts), (1, 0));
        t1.check_invariants().unwrap();
        t2.check_invariants().unwrap();
    }

    /// A waiter decides afresh on every wake: when the younger holder it
    /// waited for releases, an older transaction granted meanwhile on an
    /// overlapping range kills it.
    #[test]
    fn waiter_dies_when_an_older_transaction_is_granted_ahead_of_it() {
        let t = Arc::new(RangeLockTable::new());
        let (oldest, middle, youngest) = (TxnId::of_age(1), TxnId::of_age(2), TxnId::of_age(3));
        t.acquire(youngest, LockMode::Modify, r("a", "a"), LONG)
            .unwrap();
        let waiter = thread::spawn({
            let t = Arc::clone(&t);
            move || t.acquire(middle, LockMode::Modify, r("a", "c"), LONG)
        });
        thread::sleep(Duration::from_millis(30));
        // Granted at once: it does not overlap the holder's lock.
        t.acquire(oldest, LockMode::Modify, r("c", "c"), LONG)
            .unwrap();
        t.release_all(youngest);
        assert_eq!(waiter.join().unwrap(), Err(LockError::Deadlock));
        assert_eq!(t.holders(), vec![oldest]);
    }

    #[test]
    fn reentrant_and_upgrade_by_same_owner() {
        let t = RangeLockTable::new();
        let me = TxnId(9);
        t.acquire(me, LockMode::Lookup, r("a", "z"), SHORT).unwrap();
        // Upgrade over the same range.
        t.acquire(me, LockMode::Modify, r("m", "m"), SHORT).unwrap();
        t.acquire(me, LockMode::Modify, r("a", "z"), SHORT).unwrap();
        assert_eq!(t.granted_count(), 3);
        t.release_all(me);
        assert_eq!(t.granted_count(), 0);
    }

    /// Same-age ids (attempts of one transaction; small raw ids are all age
    /// 0) wait for each other rather than die.
    #[test]
    fn release_wakes_waiter() {
        let t = Arc::new(RangeLockTable::new());
        t.acquire(TxnId(1), LockMode::Modify, r("a", "z"), SHORT)
            .unwrap();
        let t2 = Arc::clone(&t);
        let h = thread::spawn(move || t2.acquire(TxnId(2), LockMode::Modify, r("m", "m"), LONG));
        thread::sleep(Duration::from_millis(20));
        t.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(t.stats().waited, 1);
        assert_eq!(t.holders(), vec![TxnId(2)]);
    }

    /// The cycle an older transaction would close on one table: the
    /// younger's request against the older's lock fails fast with
    /// `Deadlock` rather than wait out its timeout, and the older's request
    /// against the younger's lock waits for its abort.
    #[test]
    fn older_transaction_closing_a_one_table_cycle_wounds_the_younger() {
        let t = Arc::new(RangeLockTable::new());
        t.acquire(TxnId::of_age(1), LockMode::Modify, r("a", "b"), LONG)
            .unwrap();
        t.acquire(TxnId::of_age(2), LockMode::Modify, r("y", "z"), LONG)
            .unwrap();
        let younger = thread::spawn({
            let t = Arc::clone(&t);
            move || t.acquire(TxnId::of_age(2), LockMode::Modify, r("a", "b"), LONG)
        });
        let older = thread::spawn({
            let t = Arc::clone(&t);
            move || t.acquire(TxnId::of_age(1), LockMode::Modify, r("y", "z"), LONG)
        });

        let start = Instant::now();
        assert_eq!(younger.join().unwrap(), Err(LockError::Deadlock));
        assert!(start.elapsed() < Duration::from_secs(1));
        let stats = t.stats();
        assert_eq!((stats.deadlocks, stats.timeouts), (1, 0));

        t.release_all(TxnId::of_age(2));
        assert_eq!(older.join().unwrap(), Ok(()));
        assert_eq!(
            t.held_by(TxnId::of_age(1)),
            vec![
                (LockMode::Modify, r("a", "b")),
                (LockMode::Modify, r("y", "z"))
            ]
        );
    }

    #[test]
    fn deadlock_cycle_of_three() {
        // T1 -> T2 -> T3 -> T1 around three ranges.
        let t = Arc::new(RangeLockTable::new());
        t.acquire(TxnId::of_age(1), LockMode::Modify, r("a", "a"), LONG)
            .unwrap();
        t.acquire(TxnId::of_age(2), LockMode::Modify, r("b", "b"), LONG)
            .unwrap();
        t.acquire(TxnId::of_age(3), LockMode::Modify, r("c", "c"), LONG)
            .unwrap();
        let spawn_wait = |age: u64, range: KeyRange| {
            let tt = Arc::clone(&t);
            thread::spawn(move || tt.acquire(TxnId::of_age(age), LockMode::Modify, range, LONG))
        };
        let h1 = spawn_wait(1, r("b", "b"));
        thread::sleep(Duration::from_millis(30));
        let h2 = spawn_wait(2, r("c", "c"));
        thread::sleep(Duration::from_millis(30));
        // T3 would close the cycle and is the youngest: it must be the
        // victim.
        let res3 = t.acquire(TxnId::of_age(3), LockMode::Modify, r("a", "a"), LONG);
        assert_eq!(res3, Err(LockError::Deadlock));
        t.release_all(TxnId::of_age(3));
        // T2 gets [c..c]; when T2 later releases, T1 gets [b..b]. Unblock
        // them by finishing T2.
        h2.join().unwrap().unwrap();
        t.release_all(TxnId::of_age(2));
        h1.join().unwrap().unwrap();
    }

    #[test]
    fn concurrent_disjoint_writers_proceed_in_parallel() {
        let t = Arc::new(RangeLockTable::new());
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let tt = Arc::clone(&t);
            handles.push(thread::spawn(move || {
                let low = Key::from(format!("{i}0").as_str());
                let high = Key::from(format!("{i}9").as_str());
                let range = KeyRange::new(low, high);
                for _ in 0..50 {
                    tt.acquire(TxnId(i), LockMode::Modify, range.clone(), LONG)
                        .unwrap();
                    tt.check_invariants().unwrap();
                    tt.release_all(TxnId(i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.granted_count(), 0);
        assert_eq!(t.stats().deadlocks, 0);
    }

    #[test]
    fn stats_count_grants() {
        let t = RangeLockTable::new();
        t.acquire(TxnId(1), LockMode::Lookup, r("a", "b"), SHORT)
            .unwrap();
        t.acquire(TxnId(2), LockMode::Lookup, r("a", "b"), SHORT)
            .unwrap();
        assert_eq!(t.stats().granted, 2);
        assert_eq!(t.stats().waited, 0);
    }

    #[test]
    fn release_all_is_idempotent_and_scoped() {
        let t = RangeLockTable::new();
        t.acquire(TxnId(1), LockMode::Modify, r("a", "b"), SHORT)
            .unwrap();
        t.acquire(TxnId(2), LockMode::Modify, r("x", "y"), SHORT)
            .unwrap();
        t.release_all(TxnId(1));
        t.release_all(TxnId(1));
        assert_eq!(t.holders(), vec![TxnId(2)]);
    }

    mod properties {
        use super::*;
        use repdir_core::proptest_mini::prelude::*;
        use repdir_core::UserKey;

        #[derive(Clone, Debug)]
        enum LockOp {
            Acquire {
                owner: u8,
                modify: bool,
                lo: u8,
                hi: u8,
            },
            ReleaseAll {
                owner: u8,
            },
        }

        fn op() -> impl Strategy<Value = LockOp> {
            prop_oneof![
                3 => (0u8..4, any::<bool>(), any::<u8>(), any::<u8>()).prop_map(
                    |(owner, modify, a, b)| LockOp::Acquire {
                        owner,
                        modify,
                        lo: a.min(b) % 32,
                        hi: a.max(b) % 32,
                    }
                ),
                1 => (0u8..4).prop_map(|owner| LockOp::ReleaseAll { owner }),
            ]
        }

        fn range_of(lo: u8, hi: u8) -> KeyRange {
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            KeyRange::new(
                Key::User(UserKey::from_u64(lo as u64)),
                Key::User(UserKey::from_u64(hi as u64)),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The table's grant/deny decisions match an independent model
            /// applying Figure 7 directly, a denial is wait-die's (death iff
            /// a conflicting holder is older), and incompatible grants
            /// never coexist.
            #[test]
            fn table_matches_figure7_model(ops in proptest::collection::vec(op(), 1..60)) {
                let table = RangeLockTable::new();
                let mut model: Vec<(TxnId, LockMode, KeyRange)> = Vec::new();
                for operation in ops {
                    match operation {
                        LockOp::Acquire { owner, modify, lo, hi } => {
                            let owner = TxnId::of_age(owner as u64);
                            let mode = if modify { LockMode::Modify } else { LockMode::Lookup };
                            let range = range_of(lo, hi);
                            let holders: Vec<TxnId> = (model.iter())
                                .filter(|(o, m, r)| *o != owner && !compatible(*m, r, mode, &range))
                                .map(|(o, _, _)| *o)
                                .collect();
                            match table.acquire(owner, mode, range.clone(), Duration::ZERO) {
                                Ok(()) => {
                                    prop_assert!(holders.is_empty(), "table granted what Fig. 7 denies");
                                    model.push((owner, mode, range));
                                }
                                Err(e) => {
                                    prop_assert!(!holders.is_empty(), "table denied what Fig. 7 allows");
                                    let dies = holders.iter().any(|h| h.age() < owner.age());
                                    prop_assert_eq!(e, if dies { LockError::Deadlock } else { LockError::Timeout });
                                }
                            }
                        }
                        LockOp::ReleaseAll { owner } => {
                            let owner = TxnId::of_age(owner as u64);
                            table.release_all(owner);
                            model.retain(|(o, _, _)| *o != owner);
                        }
                    }
                    table.check_invariants().expect("no incompatible grants");
                    prop_assert_eq!(table.granted_count(), model.len());
                }
            }
        }
    }

    #[test]
    fn debug_output_is_informative() {
        let t = RangeLockTable::new();
        t.acquire(TxnId(1), LockMode::Lookup, r("a", "b"), SHORT)
            .unwrap();
        let s = format!("{t:?}");
        assert!(s.contains("granted"));
        assert!(s.contains("stats"));
    }
}
