//! Transaction ids and their allocator.
//!
//! The paper assumes each representative is held by a transactional storage
//! system (§2, §3.1). A representative keeps its own record of the
//! transactions it serves (`DurableState`'s registry, the lock table's
//! holders); the coordinator side needs only fresh ids, numbered so that
//! wait-die can rank them.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use repdir_core::RepError;
pub use repdir_rangelock::TxnId;

/// Hands out transaction ids, each [`begin`](TxnManager::begin) younger
/// than the last.
///
/// One suite-level transaction spans several representatives, each holding
/// locks in its own `RangeLockTable` and logging undo in its own
/// `DurableState` under the same id. Every `begin` hands out a fresh
/// [age](TxnId::age), in increasing order, and a retry
/// ([`next_attempt`](TxnManager::next_attempt)) keeps its transaction's age,
/// so the lock tables' wait-die policy lets the oldest transaction wait
/// while younger ones die, and a transaction that keeps losing eventually
/// becomes the oldest.
///
/// The manager keeps no record of a transaction: the members register,
/// commit and abort it. [`commit`](TxnManager::commit) and
/// [`abort`](TxnManager::abort) end it at the manager, which costs nothing.
///
/// # Examples
///
/// ```
/// use repdir_replica::txn::TxnManager;
///
/// let mgr = TxnManager::new();
/// let t = mgr.begin();
/// assert!(t.age() < mgr.begin().age());
/// mgr.commit(t)?;
/// # Ok::<(), repdir_core::RepError>(())
/// ```
pub struct TxnManager {
    /// The age the next [`begin`](TxnManager::begin) hands out.
    next_age: AtomicU64,
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
        }
    }

    /// Starts a new transaction, younger than every one begun before it,
    /// and returns its first attempt's id.
    pub fn begin(&self) -> TxnId {
        TxnId::of_age(self.next_age.fetch_add(1, Ordering::Relaxed))
    }

    /// The next attempt of `id`'s transaction: a fresh id with the same
    /// age, so a retry keeps its place among older and younger
    /// transactions. The caller has finished `id` first.
    pub fn next_attempt(&self, id: TxnId) -> TxnId {
        id.next_attempt()
    }

    /// Ends a transaction at the manager. The members commit it and
    /// release its locks (strict two-phase locking: all locks held to
    /// commit).
    ///
    /// # Errors
    ///
    /// None: the manager holds nothing that could refuse. The `Result` is
    /// the shape callers match on.
    pub fn commit(&self, _id: TxnId) -> Result<(), RepError> {
        Ok(())
    }

    /// Ends an aborted transaction at the manager; the members roll it
    /// back.
    pub fn abort(&self, _id: TxnId) {}
}

impl fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnManager")
            .field("next_age", &self.next_age.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_begin_is_younger_and_retries_keep_their_age() {
        let mgr = TxnManager::new();
        let first = mgr.begin();
        let second = mgr.begin();
        assert!(first < second);
        assert!(first.age() < second.age());
        mgr.abort(first);
        let retry = mgr.next_attempt(first);
        assert_eq!((retry.age(), retry.attempt()), (first.age(), 1));
        assert!(retry.age() < second.age(), "the retry stays the elder");
        mgr.commit(retry).unwrap();
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
}
