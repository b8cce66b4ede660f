//! The transaction manager: id allocation and lifecycle.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use repdir_core::sync::Mutex;
use repdir_core::RepError;
use repdir_rangelock::TxnId;

/// Allocates transaction ids and tracks which transactions are active.
///
/// The manager is deliberately independent of any particular representative:
/// in the full system one suite-level transaction spans several
/// representatives, each holding locks in its own
/// [`RangeLockTable`](repdir_rangelock::RangeLockTable) and logging undo in
/// its own `DurableState` under the same id. Every [`begin`](TxnManager::begin)
/// hands out a fresh [age](TxnId::age), in increasing order, and a retry
/// ([`next_attempt`](TxnManager::next_attempt)) keeps its transaction's age,
/// so the lock tables' wait-die policy lets the oldest transaction wait
/// while younger ones die, and a transaction that keeps losing eventually
/// becomes the oldest.
///
/// Only *active* transactions are tracked: a transaction's id is dropped the
/// moment it commits or aborts, so a long-lived manager's footprint is
/// bounded by its concurrency, not its history. A finished transaction and
/// one that never existed look the same.
///
/// # Examples
///
/// ```
/// use repdir_txn::TxnManager;
///
/// let mgr = TxnManager::new();
/// let t = mgr.begin();
/// assert!(mgr.is_active(t));
/// mgr.commit(t)?;
/// assert!(!mgr.is_active(t));
/// # Ok::<(), repdir_core::RepError>(())
/// ```
pub struct TxnManager {
    /// The age the next [`begin`](TxnManager::begin) hands out.
    next_age: AtomicU64,
    active: Mutex<HashSet<TxnId>>,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Creates a manager; the first transaction gets age 1.
    pub fn new() -> Self {
        TxnManager {
            next_age: AtomicU64::new(1),
            active: Mutex::new(HashSet::new()),
        }
    }

    /// Starts a new transaction, younger than every one begun before it,
    /// and returns its first attempt's id.
    pub fn begin(&self) -> TxnId {
        self.start(TxnId::of_age(self.next_age.fetch_add(1, Ordering::Relaxed)))
    }

    /// Starts the next attempt of `id`'s transaction — a fresh id with the
    /// same age, so a retry keeps its place among older and younger
    /// transactions. The caller has finished `id` first.
    pub fn next_attempt(&self, id: TxnId) -> TxnId {
        self.start(id.next_attempt())
    }

    fn start(&self, id: TxnId) -> TxnId {
        self.active.lock().insert(id);
        id
    }

    /// Whether the transaction is currently active (begun and not yet
    /// committed or aborted).
    pub fn is_active(&self, id: TxnId) -> bool {
        self.active.lock().contains(&id)
    }

    /// Commits an active transaction and forgets it. The caller releases
    /// locks afterwards (strict two-phase locking: all locks held to
    /// commit).
    ///
    /// # Errors
    ///
    /// [`RepError::TransactionAborted`] if the transaction is not active.
    pub fn commit(&self, id: TxnId) -> Result<(), RepError> {
        if self.active.lock().remove(&id) {
            Ok(())
        } else {
            Err(RepError::TransactionAborted)
        }
    }

    /// Aborts an active transaction and forgets it. Aborting a non-active
    /// transaction does nothing (abort is idempotent).
    pub fn abort(&self, id: TxnId) {
        self.active.lock().remove(&id);
    }

    /// Number of active transactions.
    pub fn active_count(&self) -> usize {
        self.active.lock().len()
    }
}

impl fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnManager")
            .field("active", &self.active_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mgr = TxnManager::new();
        let a = mgr.begin();
        let b = mgr.begin();
        assert!(a < b);
        assert_eq!(mgr.active_count(), 2);
    }

    #[test]
    fn each_begin_is_younger_and_retries_keep_their_age() {
        let mgr = TxnManager::new();
        let first = mgr.begin();
        let second = mgr.begin();
        assert!(first.age() < second.age());
        mgr.abort(first);
        let retry = mgr.next_attempt(first);
        assert!(mgr.is_active(retry));
        assert_eq!((retry.age(), retry.attempt()), (first.age(), 1));
        assert!(retry.age() < second.age(), "the retry stays the elder");
    }

    #[test]
    fn commit_lifecycle() {
        let mgr = TxnManager::new();
        let t = mgr.begin();
        mgr.commit(t).unwrap();
        assert!(!mgr.is_active(t));
        // Double commit is an error; a committed transaction cannot abort.
        assert_eq!(mgr.commit(t), Err(RepError::TransactionAborted));
        mgr.abort(t);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn abort_is_idempotent_and_final() {
        let mgr = TxnManager::new();
        let t = mgr.begin();
        mgr.abort(t);
        assert!(!mgr.is_active(t));
        mgr.abort(t);
        assert_eq!(mgr.commit(t), Err(RepError::TransactionAborted));
        let unknown = TxnId(999);
        mgr.abort(unknown);
        assert!(!mgr.is_active(unknown));
    }

    #[test]
    fn finished_transactions_are_forgotten() {
        // The record goes when the transaction finishes: however many have
        // run, only the live one is still held.
        let mgr = TxnManager::new();
        let live = mgr.begin();
        for i in 0..100_000u32 {
            let t = mgr.begin();
            if i % 2 == 0 {
                mgr.commit(t).unwrap();
            } else {
                mgr.abort(t);
            }
        }
        assert_eq!(mgr.active_count(), 1);
        assert!(mgr.is_active(live));
        mgr.commit(live).unwrap();
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn concurrent_begins_do_not_collide() {
        use std::sync::Arc;
        let mgr = Arc::new(TxnManager::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| m.begin()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<TxnId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800);
    }

    #[test]
    fn debug_shows_counts() {
        let mgr = TxnManager::new();
        mgr.begin();
        let s = format!("{mgr:?}");
        assert!(s.contains("active"));
    }
}
