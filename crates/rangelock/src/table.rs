//! The range-lock table: blocking acquisition, two-phase release, deadlock
//! detection.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::sync::{Condvar, Mutex};
use repdir_obs::{Counter, Histogram};

use crate::range::{compatible, KeyRange, LockMode};

/// Identifies a lock-holding transaction.
///
/// `repdir-txn` assigns these; the lock table only needs identity. Ids are
/// also used as deadlock-victim tie-breakers (the *youngest* — largest id —
/// transaction in a cycle is chosen, a wound-wait-style policy that cannot
/// starve old transactions).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

/// Why a lock could not be granted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LockError {
    /// The deadline elapsed while waiting for conflicting holders.
    Timeout,
    /// Granting the request would close a waits-for cycle, and the requester
    /// was chosen as the victim.
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

/// Lock-table counters mirrored into the process-wide obs registry
/// (`lock.*`). [`LockStats`] stays the per-table exact record; these
/// aggregate across every table in the process.
struct LockObs {
    granted: Counter,
    waited: Counter,
    deadlocks: Counter,
    timeouts: Counter,
    wait_us: Histogram,
}

impl LockObs {
    fn new() -> Self {
        let g = repdir_obs::global();
        LockObs {
            granted: g.counter("lock.granted"),
            waited: g.counter("lock.waited"),
            deadlocks: g.counter("lock.deadlocks"),
            timeouts: g.counter("lock.timeouts"),
            wait_us: g.histogram("lock.wait_us"),
        }
    }
}

/// How often a blocked waiter wakes to re-check its [`DeadlockDomain`]. A
/// victim chosen by another waiter — at this table or another — is not
/// notified, so every waiter polls at this cadence.
const DOMAIN_POLL: Duration = Duration::from_millis(5);

/// The waits-for graph of one or more [`RangeLockTable`]s — the only
/// deadlock detector.
///
/// Every table starts with a private domain, which sees the cycles through
/// its own locks. When one transaction can block at *several* tables at
/// once — a directory suite fanning a write wave out to every
/// representative — two transactions can deadlock with each edge at a
/// different table; tables that [join](RangeLockTable::join_domain) one
/// shared domain see those cycles too. A waiter whose request closes a
/// cycle aborts at once if it is the youngest participant; otherwise it
/// *wounds* the youngest, which observes the wound at its next poll and
/// fails fast with [`LockError::Deadlock`] instead of burning its full lock
/// timeout.
///
/// Edges are keyed by `(transaction, table)` because a fan-out transaction
/// legitimately waits at several tables simultaneously. A wound outlives its
/// first observation (all of the victim's in-flight waiters must abort, not
/// just one) and is cleared when the victim's locks are released.
#[derive(Default)]
pub struct DeadlockDomain {
    state: Mutex<DomainState>,
}

#[derive(Default)]
struct DomainState {
    /// (waiting txn, table id) -> holders blocking it at that table.
    edges: HashMap<(TxnId, u64), Vec<TxnId>>,
    /// Chosen victims; each aborts at its next wound check.
    wounded: HashSet<TxnId>,
}

impl DeadlockDomain {
    /// Creates an empty domain; share it via `Arc` and
    /// [`RangeLockTable::join_domain`].
    pub fn new() -> Self {
        Self::default()
    }

    fn set_waits(&self, table: u64, owner: TxnId, holders: Vec<TxnId>) {
        self.state.lock().edges.insert((owner, table), holders);
    }

    fn clear_waits(&self, table: u64, owner: TxnId) {
        self.state.lock().edges.remove(&(owner, table));
    }

    /// Checks whether `owner` must abort: either it was already wounded, or
    /// its current waits close a cycle in which it is the youngest
    /// participant. A cycle whose youngest participant is someone else
    /// wounds that transaction and lets `owner` keep waiting (the victim's
    /// abort releases the blocking locks).
    fn must_abort(&self, owner: TxnId) -> bool {
        let mut st = self.state.lock();
        if st.wounded.contains(&owner) {
            return true;
        }
        // Union adjacency across all tables.
        let mut adj: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
        for ((waiter, _), holders) in &st.edges {
            adj.entry(*waiter)
                .or_default()
                .extend(holders.iter().copied());
        }
        let edges = |t: TxnId| adj.get(&t).cloned().unwrap_or_default();
        let mut stack = vec![(owner, edges(owner))];
        let mut path = vec![owner];
        while let Some((_, succs)) = stack.last_mut() {
            match succs.pop() {
                Some(next) if next == owner => {
                    // Cycle found; `path` holds every participant.
                    let victim = path.iter().copied().max().unwrap_or(owner);
                    if victim == owner {
                        return true;
                    }
                    if st.wounded.insert(victim) {
                        repdir_obs::global().counter("lock.wounds").inc();
                    }
                    return false;
                }
                Some(next) => {
                    if !path.contains(&next) {
                        path.push(next);
                        stack.push((next, edges(next)));
                    }
                }
                None => {
                    stack.pop();
                    path.pop();
                }
            }
        }
        false
    }

    /// Clears `owner`'s wound — called when its locks are released. Its
    /// edges need no clearing: every exit from a wait drops its own.
    fn forget(&self, owner: TxnId) {
        self.state.lock().wounded.remove(&owner);
    }

    /// Drops every edge registered by `table` — called on table reset
    /// (representative crash: its waiters are woken and re-evaluate).
    fn drop_table(&self, table: u64) {
        self.state.lock().edges.retain(|(_, t), _| *t != table);
    }
}

impl fmt::Debug for DeadlockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("DeadlockDomain")
            .field("edges", &st.edges.len())
            .field("wounded", &st.wounded.len())
            .finish()
    }
}

/// A table of range locks over one directory representative, implementing
/// the paper's Figure 7 compatibility with blocking waits, deadlock
/// detection, and all-at-once release for strict two-phase locking.
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
    /// Distinguishes this table's edges inside a [`DeadlockDomain`].
    id: u64,
    state: Mutex<State>,
    released: Condvar,
    /// Where this table's waiters record their edges: a private domain
    /// until [`join_domain`](RangeLockTable::join_domain) swaps in a shared
    /// one.
    domain: Mutex<Arc<DeadlockDomain>>,
    obs: LockObs,
}

static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(0);

impl Default for RangeLockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeLockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        RangeLockTable {
            id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(State::default()),
            released: Condvar::new(),
            domain: Mutex::new(Arc::new(DeadlockDomain::new())),
            obs: LockObs::new(),
        }
    }

    /// Registers this table in a shared [`DeadlockDomain`], enabling
    /// detection of waits-for cycles that span several tables (one edge per
    /// representative). Replaces the table's private domain, or any
    /// previously joined one.
    pub fn join_domain(&self, domain: &Arc<DeadlockDomain>) {
        *self.domain.lock() = Arc::clone(domain);
    }

    /// Attempts to acquire without blocking. On conflict, returns the
    /// holders that block the request.
    ///
    /// # Errors
    ///
    /// Returns the conflicting transaction ids (deduplicated) if the lock
    /// cannot be granted immediately.
    pub fn try_acquire(
        &self,
        owner: TxnId,
        mode: LockMode,
        range: KeyRange,
    ) -> Result<(), Vec<TxnId>> {
        let mut st = self.state.lock();
        let conflicts = conflicts_of(&st.granted, owner, mode, &range);
        if conflicts.is_empty() {
            self.grant(&mut st, Granted { owner, mode, range });
            Ok(())
        } else {
            Err(conflicts)
        }
    }

    fn grant(&self, st: &mut State, lock: Granted) {
        st.granted.push(lock);
        st.stats.granted += 1;
        self.obs.granted.inc();
    }

    /// Acquires a lock, blocking up to `timeout` for conflicting holders to
    /// release.
    ///
    /// A transaction's own locks never conflict with its new requests
    /// (re-entrancy), so lock "upgrades" (`Lookup` then `Modify` over the
    /// same range) always succeed locally.
    ///
    /// A request that has to wait records its edges — who blocks it — in
    /// the table's [`DeadlockDomain`] and asks whether it must abort, then
    /// sleeps until a release or [`DOMAIN_POLL`] wakes it to look again.
    ///
    /// # Errors
    ///
    /// * [`LockError::Deadlock`] if the request would close a waits-for
    ///   cycle — within this table, or across every table of a joined
    ///   [`DeadlockDomain`] — in which this transaction is the youngest
    ///   participant, or if an older participant's cycle check already
    ///   chose this transaction as the victim.
    /// * [`LockError::Timeout`] if the deadline passes first (also breaks
    ///   cross-representative deadlocks when no domain is shared).
    pub fn acquire(
        &self,
        owner: TxnId,
        mode: LockMode,
        range: KeyRange,
        timeout: Duration,
    ) -> Result<(), LockError> {
        let mut st = self.state.lock();
        let mut conflicts = conflicts_of(&st.granted, owner, mode, &range);
        if conflicts.is_empty() {
            self.grant(&mut st, Granted { owner, mode, range });
            return Ok(());
        }
        // Lock order everywhere is table state, then domain state.
        let domain = Arc::clone(&self.domain.lock());
        let start = Instant::now();
        let deadline = start + timeout;
        loop {
            domain.set_waits(self.id, owner, conflicts);
            if domain.must_abort(owner) {
                domain.clear_waits(self.id, owner);
                st.stats.deadlocks += 1;
                self.obs.deadlocks.inc();
                return Err(LockError::Deadlock);
            }
            let wake = std::cmp::min(deadline, Instant::now() + DOMAIN_POLL);
            if self.released.wait_until(&mut st, wake).timed_out() && Instant::now() >= deadline {
                domain.clear_waits(self.id, owner);
                st.stats.timeouts += 1;
                self.obs.timeouts.inc();
                return Err(LockError::Timeout);
            }
            conflicts = conflicts_of(&st.granted, owner, mode, &range);
            if conflicts.is_empty() {
                domain.clear_waits(self.id, owner);
                self.grant(&mut st, Granted { owner, mode, range });
                st.stats.waited += 1;
                self.obs.waited.inc();
                if repdir_obs::global().timing_armed() {
                    self.obs.wait_us.record(start.elapsed());
                }
                return Ok(());
            }
        }
    }

    /// Releases every lock held by `owner` and wakes all waiters — the
    /// shrinking phase of strict two-phase locking. Idempotent.
    pub fn release_all(&self, owner: TxnId) {
        let mut st = self.state.lock();
        st.granted.retain(|g| g.owner != owner);
        self.domain.lock().forget(owner);
        self.released.notify_all();
    }

    /// Discards every granted lock and this table's wait edges, waking all
    /// blocked acquirers (they re-evaluate and typically proceed).
    ///
    /// Models a representative crash: locks are volatile state and do not
    /// survive restarts. Callers are responsible for ensuring the protected
    /// state was recovered first.
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.granted.clear();
        self.domain.lock().drop_table(self.id);
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

/// Owners whose granted locks are incompatible with the request
/// (deduplicated; the requester's own locks never conflict).
fn conflicts_of(granted: &[Granted], owner: TxnId, mode: LockMode, range: &KeyRange) -> Vec<TxnId> {
    let mut out: Vec<TxnId> = granted
        .iter()
        .filter(|g| g.owner != owner && !compatible(g.mode, &g.range, mode, range))
        .map(|g| g.owner)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
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

    /// Blocks until some waiter has recorded a wait edge in `domain`.
    fn await_waiter(domain: &DeadlockDomain) {
        while domain.state.lock().edges.is_empty() {
            thread::sleep(Duration::from_millis(1));
        }
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

    /// Two transactions deadlock with one edge at each of two tables — the
    /// shape a suite write wave produces across representatives, invisible
    /// to either per-table graph. The shared domain wounds the younger
    /// transaction well before the lock timeout, and after its abort the
    /// survivor's blocked acquire completes.
    #[test]
    fn domain_breaks_cross_table_deadlock() {
        let t1 = Arc::new(RangeLockTable::new());
        let t2 = Arc::new(RangeLockTable::new());
        let domain = Arc::new(DeadlockDomain::new());
        t1.join_domain(&domain);
        t2.join_domain(&domain);

        // txn1 holds the range at table 1, txn2 holds it at table 2.
        t1.acquire(TxnId(1), LockMode::Modify, r("a", "m"), LONG)
            .unwrap();
        t2.acquire(TxnId(2), LockMode::Modify, r("a", "m"), LONG)
            .unwrap();

        // txn2 blocks at table 1 (first cross-table edge)...
        let younger = thread::spawn({
            let t1 = Arc::clone(&t1);
            move || t1.acquire(TxnId(2), LockMode::Modify, r("a", "m"), LONG)
        });
        await_waiter(&domain);
        // ...then txn1 blocks at table 2, closing the cycle.
        let older = thread::spawn({
            let t2 = Arc::clone(&t2);
            move || t2.acquire(TxnId(1), LockMode::Modify, r("a", "m"), LONG)
        });

        // The younger transaction is wounded promptly (well under LONG).
        let start = Instant::now();
        assert_eq!(younger.join().unwrap(), Err(LockError::Deadlock));
        assert!(start.elapsed() < Duration::from_secs(1));

        // Its abort releases table 2; the survivor then completes.
        t1.release_all(TxnId(2));
        t2.release_all(TxnId(2));
        assert_eq!(older.join().unwrap(), Ok(()));
        t1.check_invariants().unwrap();
        t2.check_invariants().unwrap();
    }

    /// A wound persists until release: every in-flight waiter of the victim
    /// aborts, and a fresh transaction id is unaffected.
    #[test]
    fn wound_covers_all_waiters_and_clears_on_release() {
        let t1 = Arc::new(RangeLockTable::new());
        let t2 = Arc::new(RangeLockTable::new());
        let domain = Arc::new(DeadlockDomain::new());
        t1.join_domain(&domain);
        t2.join_domain(&domain);

        t1.acquire(TxnId(1), LockMode::Modify, r("a", "m"), LONG)
            .unwrap();
        t2.acquire(TxnId(2), LockMode::Modify, r("a", "m"), LONG)
            .unwrap();
        // txn2 waits at table 1; txn1 closes the cycle at table 2 from a
        // second thread. txn2 is wounded; while still wounded, its second
        // acquire (same transaction, new thread) must also fail fast.
        let w1 = thread::spawn({
            let t1 = Arc::clone(&t1);
            move || t1.acquire(TxnId(2), LockMode::Modify, r("a", "m"), LONG)
        });
        await_waiter(&domain);
        let older = thread::spawn({
            let t2 = Arc::clone(&t2);
            move || t2.acquire(TxnId(1), LockMode::Modify, r("a", "m"), LONG)
        });
        assert_eq!(w1.join().unwrap(), Err(LockError::Deadlock));
        // Still wounded until its locks are released: a further conflicting
        // wait by txn2 aborts at its first domain check.
        let e = t1.acquire(TxnId(2), LockMode::Modify, r("a", "m"), LONG);
        assert_eq!(e, Err(LockError::Deadlock));

        t1.release_all(TxnId(2));
        t2.release_all(TxnId(2));
        assert_eq!(older.join().unwrap(), Ok(()));
        t1.release_all(TxnId(1));
        t2.release_all(TxnId(1));

        // The id is clean again once released: no stale wound.
        t1.acquire(TxnId(2), LockMode::Modify, r("x", "z"), SHORT)
            .unwrap();
        t1.release_all(TxnId(2));
    }

    #[test]
    fn try_acquire_reports_conflicting_holders() {
        let t = RangeLockTable::new();
        t.try_acquire(TxnId(1), LockMode::Modify, r("a", "c"))
            .unwrap();
        t.try_acquire(TxnId(2), LockMode::Modify, r("d", "f"))
            .unwrap();
        let holders = t
            .try_acquire(TxnId(3), LockMode::Lookup, r("b", "e"))
            .unwrap_err();
        assert_eq!(holders, vec![TxnId(1), TxnId(2)]);
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

    #[test]
    fn deadlock_detected_and_youngest_aborted() {
        // T1 holds [a..b], T2 holds [y..z]; then each requests the other's
        // range. Whichever closes the cycle must see Deadlock, and the
        // victim is the younger (larger-id) transaction, T2.
        let t = Arc::new(RangeLockTable::new());
        t.acquire(TxnId(1), LockMode::Modify, r("a", "b"), LONG)
            .unwrap();
        t.acquire(TxnId(2), LockMode::Modify, r("y", "z"), LONG)
            .unwrap();

        let t1 = Arc::clone(&t);
        let older =
            thread::spawn(move || t1.acquire(TxnId(1), LockMode::Modify, r("y", "z"), LONG));
        thread::sleep(Duration::from_millis(30));
        let res2 = t.acquire(TxnId(2), LockMode::Modify, r("a", "b"), LONG);
        assert_eq!(res2, Err(LockError::Deadlock));
        assert_eq!(t.stats().deadlocks, 1);
        // Victim aborts: its transaction manager calls release_all, letting
        // the older transaction proceed.
        t.release_all(TxnId(2));
        older.join().unwrap().unwrap();
    }

    /// The older transaction closes a one-table cycle: it cannot be the
    /// victim, so it wounds the younger, which must fail fast with
    /// `Deadlock` rather than wait out its timeout — on a table that never
    /// joined a shared domain.
    #[test]
    fn older_transaction_closing_a_one_table_cycle_wounds_the_younger() {
        let t = Arc::new(RangeLockTable::new());
        t.acquire(TxnId(1), LockMode::Modify, r("a", "b"), LONG)
            .unwrap();
        t.acquire(TxnId(2), LockMode::Modify, r("y", "z"), LONG)
            .unwrap();
        let younger = thread::spawn({
            let t = Arc::clone(&t);
            move || t.acquire(TxnId(2), LockMode::Modify, r("a", "b"), LONG)
        });
        let private = Arc::clone(&t.domain.lock());
        await_waiter(&private);
        let older = thread::spawn({
            let t = Arc::clone(&t);
            move || t.acquire(TxnId(1), LockMode::Modify, r("y", "z"), LONG)
        });

        let start = Instant::now();
        assert_eq!(younger.join().unwrap(), Err(LockError::Deadlock));
        assert!(start.elapsed() < Duration::from_secs(1));
        let stats = t.stats();
        assert_eq!((stats.deadlocks, stats.timeouts), (1, 0));

        t.release_all(TxnId(2));
        assert_eq!(older.join().unwrap(), Ok(()));
        assert_eq!(
            t.held_by(TxnId(1)),
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
        t.acquire(TxnId(1), LockMode::Modify, r("a", "a"), LONG)
            .unwrap();
        t.acquire(TxnId(2), LockMode::Modify, r("b", "b"), LONG)
            .unwrap();
        t.acquire(TxnId(3), LockMode::Modify, r("c", "c"), LONG)
            .unwrap();
        let spawn_wait = |id: u64, range: KeyRange| {
            let tt = Arc::clone(&t);
            thread::spawn(move || tt.acquire(TxnId(id), LockMode::Modify, range, LONG))
        };
        let h1 = spawn_wait(1, r("b", "b"));
        thread::sleep(Duration::from_millis(30));
        let h2 = spawn_wait(2, r("c", "c"));
        thread::sleep(Duration::from_millis(30));
        // T3 closes the cycle and is the youngest: it must be the victim.
        let res3 = t.acquire(TxnId(3), LockMode::Modify, r("a", "a"), LONG);
        assert_eq!(res3, Err(LockError::Deadlock));
        t.release_all(TxnId(3));
        // T2 gets [c..c]; when T2 later releases, T1 gets [b..b]. Unblock
        // them by finishing T2.
        h2.join().unwrap().unwrap();
        t.release_all(TxnId(2));
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
            /// applying Figure 7 directly, and incompatible grants never
            /// coexist.
            #[test]
            fn table_matches_figure7_model(ops in proptest::collection::vec(op(), 1..60)) {
                let table = RangeLockTable::new();
                let mut model: Vec<(TxnId, LockMode, KeyRange)> = Vec::new();
                for operation in ops {
                    match operation {
                        LockOp::Acquire { owner, modify, lo, hi } => {
                            let owner = TxnId(owner as u64);
                            let mode = if modify { LockMode::Modify } else { LockMode::Lookup };
                            let range = range_of(lo, hi);
                            let model_ok = model.iter().all(|(o, m, r)| {
                                *o == owner || compatible(*m, r, mode, &range)
                            });
                            match table.try_acquire(owner, mode, range.clone()) {
                                Ok(()) => {
                                    prop_assert!(model_ok, "table granted what Fig. 7 denies");
                                    model.push((owner, mode, range));
                                }
                                Err(holders) => {
                                    prop_assert!(!model_ok, "table denied what Fig. 7 allows");
                                    prop_assert!(!holders.is_empty());
                                    prop_assert!(!holders.contains(&owner));
                                }
                            }
                        }
                        LockOp::ReleaseAll { owner } => {
                            let owner = TxnId(owner as u64);
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
