//! The transaction manager: id allocation, lifecycle, and per-transaction
//! undo logs.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use repdir_core::sync::Mutex;
use repdir_core::RepError;
use repdir_rangelock::TxnId;

use crate::undo::UndoRecord;

/// Allocates transaction ids and tracks each active transaction's undo log.
///
/// The manager is deliberately independent of any particular representative:
/// in the full system one suite-level transaction spans several
/// representatives, each holding locks in its own
/// [`RangeLockTable`](repdir_rangelock::RangeLockTable) and logging undo in
/// the manager under the same id. Ids are allocated monotonically, so the
/// lock tables' youngest-victim deadlock policy is well defined across
/// representatives.
///
/// Only *active* transactions are tracked: a transaction's record is dropped
/// the moment it commits or aborts, so a long-lived manager's footprint is
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
    next: AtomicU64,
    /// Undo log of every active transaction.
    txns: Mutex<HashMap<TxnId, Vec<UndoRecord>>>,
    obs: TxnObs,
}

/// Lifecycle counters mirrored into the process-wide obs registry
/// (`txn.*`), aggregated across every manager in the process.
struct TxnObs {
    begun: repdir_obs::Counter,
    committed: repdir_obs::Counter,
    aborted: repdir_obs::Counter,
}

impl TxnObs {
    fn new() -> Self {
        let g = repdir_obs::global();
        TxnObs {
            begun: g.counter("txn.begun"),
            committed: g.counter("txn.committed"),
            aborted: g.counter("txn.aborted"),
        }
    }
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Creates a manager; the first transaction gets id 1.
    pub fn new() -> Self {
        TxnManager {
            next: AtomicU64::new(1),
            txns: Mutex::new(HashMap::new()),
            obs: TxnObs::new(),
        }
    }

    /// Starts a new transaction and returns its id.
    pub fn begin(&self) -> TxnId {
        let id = TxnId(self.next.fetch_add(1, Ordering::Relaxed));
        self.obs.begun.inc();
        self.txns.lock().insert(id, Vec::new());
        id
    }

    /// Whether the transaction is currently active (begun and not yet
    /// committed or aborted).
    pub fn is_active(&self, id: TxnId) -> bool {
        self.txns.lock().contains_key(&id)
    }

    /// Appends an undo record to an active transaction's log.
    ///
    /// # Errors
    ///
    /// [`RepError::TransactionAborted`] if the transaction is not active
    /// (unknown, committed, or aborted).
    pub fn record_undo(&self, id: TxnId, record: UndoRecord) -> Result<(), RepError> {
        match self.txns.lock().get_mut(&id) {
            Some(undo) => {
                undo.push(record);
                Ok(())
            }
            None => Err(RepError::TransactionAborted),
        }
    }

    /// Commits an active transaction, discarding its undo log and
    /// forgetting it. The caller releases locks afterwards (strict
    /// two-phase locking: all locks held to commit).
    ///
    /// # Errors
    ///
    /// [`RepError::TransactionAborted`] if the transaction is not active.
    pub fn commit(&self, id: TxnId) -> Result<(), RepError> {
        match self.txns.lock().remove(&id) {
            Some(_) => {
                self.obs.committed.inc();
                Ok(())
            }
            None => Err(RepError::TransactionAborted),
        }
    }

    /// Aborts an active transaction and forgets it, returning its undo
    /// records **in reverse order**, ready to be applied one by one.
    /// Aborting a non-active transaction returns an empty log (abort is
    /// idempotent).
    pub fn abort(&self, id: TxnId) -> Vec<UndoRecord> {
        match self.txns.lock().remove(&id) {
            Some(mut undo) => {
                self.obs.aborted.inc();
                undo.reverse();
                undo
            }
            None => Vec::new(),
        }
    }

    /// Number of active transactions — every transaction the manager still
    /// holds a record for.
    pub fn active_count(&self) -> usize {
        self.txns.lock().len()
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
    use repdir_core::UserKey;

    fn rec(key: &str) -> UndoRecord {
        UndoRecord::RemoveEntry {
            key: UserKey::from(key),
        }
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mgr = TxnManager::new();
        let a = mgr.begin();
        let b = mgr.begin();
        assert!(a < b);
        assert_eq!(mgr.active_count(), 2);
    }

    #[test]
    fn commit_lifecycle() {
        let mgr = TxnManager::new();
        let t = mgr.begin();
        mgr.record_undo(t, rec("a")).unwrap();
        mgr.commit(t).unwrap();
        assert!(!mgr.is_active(t));
        // Double commit is an error; committed undo is gone.
        assert_eq!(mgr.commit(t), Err(RepError::TransactionAborted));
        assert!(mgr.abort(t).is_empty());
    }

    #[test]
    fn abort_returns_undo_in_reverse() {
        let mgr = TxnManager::new();
        let t = mgr.begin();
        mgr.record_undo(t, rec("a")).unwrap();
        mgr.record_undo(t, rec("b")).unwrap();
        mgr.record_undo(t, rec("c")).unwrap();
        let undo = mgr.abort(t);
        assert_eq!(undo, vec![rec("c"), rec("b"), rec("a")]);
        assert!(!mgr.is_active(t));
        // Idempotent.
        assert!(mgr.abort(t).is_empty());
    }

    #[test]
    fn record_undo_rejected_after_resolution() {
        let mgr = TxnManager::new();
        let t = mgr.begin();
        mgr.commit(t).unwrap();
        assert_eq!(
            mgr.record_undo(t, rec("x")),
            Err(RepError::TransactionAborted)
        );
        let unknown = TxnId(999);
        assert_eq!(
            mgr.record_undo(unknown, rec("x")),
            Err(RepError::TransactionAborted)
        );
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
