//! Durable representative state: gap-versioned map + write-ahead log +
//! in-memory undo, with crash recovery.

use std::collections::HashMap;
use std::sync::Arc;

use repdir_core::{
    CoalesceOutcome, GapMap, InsertOutcome, Key, LookupReply, NeighborReply, RepError, UserKey,
    Value, Version,
};
use repdir_rangelock::TxnId;

use crate::simdisk::SimDisk;
use crate::state::{apply_undo, undo_for_coalesce, undo_for_insert, Backend, DirState, UndoRecord};
use crate::wal::{replay, Wal, WalError, WalRecord};

/// A representative's state with full transactional durability:
///
/// * mutations apply to the in-memory [`GapMap`] and append redo records to
///   the WAL, the transaction's begin record ahead of its first one;
/// * [`commit`](DurableState::commit) appends a commit record and syncs —
///   the durability point;
/// * [`abort`](DurableState::abort) rolls the memory state back via the
///   undo log and appends an abort record;
/// * a transaction that logged nothing — a reader, or a member outside the
///   write quorum — writes nothing: no begin, no commit, no abort, no sync;
/// * [`checkpoint`](DurableState::checkpoint) truncates the log in front of
///   itself, and a commit that finds the representative quiescent with a
///   log more than twice the size of the checkpoint heading it takes one —
///   so the log is bounded by the state, not by the history;
/// * [`recover`](DurableState::recover) rebuilds the committed state from
///   the durable log after a crash, discarding in-flight transactions.
///
/// This is the "transactional storage system … assumed to hold each
/// representative" of the paper's §2, made concrete.
///
/// # Examples
///
/// ```
/// use repdir_core::{Key, Value, Version};
/// use repdir_storage::{DurableState, SimDisk};
/// use repdir_rangelock::TxnId;
/// use std::sync::Arc;
///
/// let disk = Arc::new(SimDisk::new());
/// let mut st = DurableState::new(Arc::clone(&disk));
/// let t = TxnId(1);
/// st.begin(t);
/// st.insert(t, &Key::from("a"), Version::new(1), Value::from("A"))?;
/// st.commit(t);
///
/// // Crash: everything unsynced is lost; recovery finds the commit.
/// disk.crash(0);
/// let recovered = DurableState::recover(disk)?;
/// assert!(recovered.lookup(&Key::from("a")).is_present());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DurableState {
    state: Box<dyn DirState>,
    wal: Wal,
    undo: HashMap<TxnId, Vec<UndoRecord>>,
    /// Log size at which the next quiescent commit compacts: twice what the
    /// last checkpoint (or recovery) left, never below [`COMPACT_FLOOR`].
    compact_at: usize,
    /// Stale-vote spills logged since the last checkpoint. A checkpoint
    /// retires them, so compaction waits until an explicit one has.
    live_spills: usize,
}

/// Smallest log the commit path bothers to compact.
const COMPACT_FLOOR: usize = 256 << 10;

impl DurableState {
    /// Creates empty state logging to `disk`, backed by the default
    /// [`GapMap`] representation.
    pub fn new(disk: Arc<SimDisk>) -> Self {
        Self::with_backend(disk, Backend::GapMap)
    }

    /// Creates empty state with an explicit representation (e.g. the §5
    /// B-tree).
    pub fn with_backend(disk: Arc<SimDisk>, backend: Backend) -> Self {
        DurableState {
            state: backend.new_state(),
            wal: Wal::new(disk),
            undo: HashMap::new(),
            compact_at: COMPACT_FLOOR,
            live_spills: 0,
        }
    }

    /// Rebuilds committed state from the disk's durable log. Torn tails are
    /// discarded; transactions without a durable commit record are rolled
    /// back by omission.
    ///
    /// # Errors
    ///
    /// [`WalError`] if the durable log is internally inconsistent (not
    /// producible by this crate).
    pub fn recover(disk: Arc<SimDisk>) -> Result<Self, WalError> {
        Self::recover_with_backend(disk, Backend::GapMap)
    }

    /// Recovery into an explicit representation.
    ///
    /// # Errors
    ///
    /// As [`recover`](DurableState::recover).
    pub fn recover_with_backend(disk: Arc<SimDisk>, backend: Backend) -> Result<Self, WalError> {
        let (records, _clean) = crate::wal::decode_log(&disk.read_all());
        let map = replay(&records)?;
        let mut state = backend.new_state();
        state.load(&map);
        Ok(DurableState {
            state,
            compact_at: (2 * disk.retained_len()).max(COMPACT_FLOOR),
            live_spills: crate::wal::stale_votes_after(&records).len(),
            wal: Wal::new(disk),
            undo: HashMap::new(),
        })
    }

    /// A [`GapMap`] copy of the current (including uncommitted) state.
    pub fn map(&self) -> GapMap {
        self.state.to_gapmap()
    }

    /// Version of the leading gap (between `LOW` and the first entry).
    pub fn low_gap(&self) -> Version {
        self.state.low_gap()
    }

    /// Visits entries with byte keys in `[low, high)` in key order as
    /// `(key, version, value, gap_after)` without copying the state; see
    /// [`DirState::visit_range`](crate::DirState::visit_range).
    pub fn visit_range(
        &self,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        visit: &mut dyn FnMut(&UserKey, Version, &Value, Version),
    ) {
        self.state.visit_range(low, high, visit);
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Number of in-flight transactions.
    pub fn active_txns(&self) -> usize {
        self.undo.len()
    }

    /// Registers a transaction. Its begin record is logged lazily, ahead of
    /// its first redo record.
    pub fn begin(&mut self, txn: TxnId) {
        self.undo.entry(txn).or_default();
    }

    /// Whether `txn` is registered: begun here and neither committed nor
    /// aborted since.
    pub fn is_registered(&self, txn: TxnId) -> bool {
        self.undo.contains_key(&txn)
    }

    /// Records `undo` for a mutation just applied on behalf of `txn` and
    /// logs its `redo` record — preceded by the begin record if this is the
    /// transaction's first. One undo record per redo record, so an empty
    /// undo log means nothing was logged.
    fn log_mutation(&mut self, txn: TxnId, undo: UndoRecord, redo: &WalRecord) {
        let log = self.undo.get_mut(&txn).expect("caller checked");
        if log.is_empty() {
            self.wal.append(&WalRecord::Begin { txn: txn.0 });
        }
        log.push(undo);
        self.wal.append(redo);
    }

    /// `DirRepLookup` against current state (reads need no redo records).
    pub fn lookup(&self, key: &Key) -> LookupReply {
        self.state.lookup(key)
    }

    /// `DirRepPredecessor` against current state.
    ///
    /// # Errors
    ///
    /// As [`GapMap::predecessor`].
    pub fn predecessor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        self.state.predecessor(key)
    }

    /// `DirRepSuccessor` against current state.
    ///
    /// # Errors
    ///
    /// As [`GapMap::successor`].
    pub fn successor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        self.state.successor(key)
    }

    /// Transactional `DirRepInsert`: applies, logs redo, records undo.
    ///
    /// # Errors
    ///
    /// [`RepError::TransactionAborted`] for an unregistered transaction, or
    /// the underlying [`GapMap::insert`] error.
    pub fn insert(
        &mut self,
        txn: TxnId,
        key: &Key,
        version: Version,
        value: Value,
    ) -> Result<InsertOutcome, RepError> {
        if !self.is_registered(txn) {
            return Err(RepError::TransactionAborted);
        }
        let outcome = self.state.insert(key, version, value.clone())?;
        let redo = WalRecord::Insert {
            txn: txn.0,
            key: key.clone(),
            version,
            value,
        };
        self.log_mutation(txn, undo_for_insert(key, &outcome), &redo);
        Ok(outcome)
    }

    /// Transactional `DirRepCoalesce`: applies, logs redo, records undo.
    ///
    /// # Errors
    ///
    /// [`RepError::TransactionAborted`] for an unregistered transaction, or
    /// the underlying [`GapMap::coalesce`] error.
    pub fn coalesce(
        &mut self,
        txn: TxnId,
        low: &Key,
        high: &Key,
        version: Version,
    ) -> Result<CoalesceOutcome, RepError> {
        if !self.is_registered(txn) {
            return Err(RepError::TransactionAborted);
        }
        let outcome = self.state.coalesce(low, high, version)?;
        let redo = WalRecord::Coalesce {
            txn: txn.0,
            low: low.clone(),
            high: high.clone(),
            version,
        };
        self.log_mutation(txn, undo_for_coalesce(low, &outcome), &redo);
        Ok(outcome)
    }

    /// Commits: appends the commit record and syncs. After this returns, the
    /// transaction survives any crash. A transaction that logged nothing has
    /// nothing to make durable and touches neither log nor disk; unknown
    /// transactions are a no-op (idempotent commit).
    pub fn commit(&mut self, txn: TxnId) {
        if self.undo.remove(&txn).is_some_and(|log| !log.is_empty()) {
            self.wal.append(&WalRecord::Commit { txn: txn.0 });
            self.wal.sync();
            let compactable = self.undo.is_empty() && self.live_spills == 0;
            if compactable && self.wal.disk().retained_len() >= self.compact_at {
                self.checkpoint().expect("no transaction is in flight");
            }
        }
    }

    /// Aborts: rolls memory back via the undo log (reverse order) and, if
    /// the transaction logged anything, logs an abort record. Idempotent.
    /// Returns whether any state change was rolled back (lets callers skip
    /// cache invalidation for read-only transactions).
    pub fn abort(&mut self, txn: TxnId) -> bool {
        let mut undo = self.undo.remove(&txn).unwrap_or_default();
        let undid = !undo.is_empty();
        while let Some(rec) = undo.pop() {
            apply_undo(self.state.as_mut(), rec);
        }
        if undid {
            self.wal.append(&WalRecord::Abort { txn: txn.0 });
        }
        undid
    }

    /// Writes a checkpoint so recovery need not replay the whole log, then
    /// truncates the log in front of it: once the checkpoint is durable
    /// nothing before it is ever read again, so a representative's log is
    /// bounded by its state plus what it logged since, not by its history.
    /// Checkpoints are taken quiesced: the in-memory state must hold
    /// committed data only, or the snapshot would capture another
    /// transaction's uncommitted writes.
    ///
    /// # Errors
    ///
    /// [`WalError::CheckpointBusy`] if transactions are in flight; the
    /// caller (e.g. the snapshot installer finishing a stream) can retry
    /// once the representative drains.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        if !self.undo.is_empty() {
            return Err(WalError::CheckpointBusy(self.undo.len()));
        }
        let disk = self.wal.disk();
        let history = disk.retained_len() + disk.volatile_len();
        self.wal
            .append(&WalRecord::checkpoint_of(self.state.as_ref()));
        self.wal.sync();
        let disk = self.wal.disk();
        disk.discard_prefix(history);
        self.compact_at = (2 * disk.retained_len()).max(COMPACT_FLOOR);
        self.live_spills = 0;
        Ok(())
    }

    /// Durably spills a stale vote observed against this representative
    /// (see [`WalRecord::StaleVote`]): appended outside any transaction and
    /// synced immediately, so a process restart finds the evidence and the
    /// repair driver resumes its targeted pulls.
    pub fn spill_stale_vote(&mut self, member: u64, key: Key, seen: Version, latest: Version) {
        self.wal.append(&WalRecord::StaleVote {
            member,
            key,
            seen,
            latest,
        });
        self.wal.sync();
        self.live_spills += 1;
    }

    /// The underlying disk (crash injection in tests).
    pub fn disk(&self) -> &Arc<SimDisk> {
        self.wal.disk()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(n: u64) -> Version {
        Version::new(n)
    }
    fn val(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn committed_survives_crash_uncommitted_does_not() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("a"), v(1), val("A")).unwrap();
        st.commit(TxnId(1));
        st.begin(TxnId(2));
        st.insert(TxnId(2), &k("b"), v(1), val("B")).unwrap();
        // "b" visible before the crash...
        assert!(st.lookup(&k("b")).is_present());

        disk.crash(0);
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.lookup(&k("a")).is_present());
        assert!(!rec.lookup(&k("b")).is_present());
    }

    #[test]
    fn abort_rolls_back_memory_and_recovery_agrees() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("a"), v(1), val("A")).unwrap();
        st.insert(TxnId(1), &k("b"), v(1), val("B")).unwrap();
        st.coalesce(TxnId(1), &Key::Low, &Key::High, v(2)).unwrap();
        st.abort(TxnId(1));
        assert!(st.is_empty());
        assert_eq!(st.map().version_of(&k("a")), v(0));

        st.disk().sync();
        let rec = DurableState::recover(Arc::clone(st.disk())).unwrap();
        assert!(rec.is_empty());
    }

    #[test]
    fn interleaved_transactions_roll_independently() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.begin(TxnId(2));
        st.insert(TxnId(1), &k("one"), v(1), val("1")).unwrap();
        st.insert(TxnId(2), &k("two"), v(1), val("2")).unwrap();
        assert_eq!(st.active_txns(), 2);
        st.commit(TxnId(2));
        st.abort(TxnId(1));
        assert!(!st.lookup(&k("one")).is_present());
        assert!(st.lookup(&k("two")).is_present());

        disk.crash(0);
        let rec = DurableState::recover(disk).unwrap();
        assert!(!rec.lookup(&k("one")).is_present());
        assert!(rec.lookup(&k("two")).is_present());
    }

    #[test]
    fn recovery_after_checkpoint_truncates_history() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            let t = TxnId(i as u64 + 1);
            st.begin(t);
            st.insert(t, &k(key), v(1), val(key)).unwrap();
            st.commit(t);
        }
        st.checkpoint().unwrap();
        let t = TxnId(10);
        st.begin(t);
        st.coalesce(t, &k("a"), &k("c"), v(2)).unwrap();
        st.commit(t);

        disk.crash(0);
        // The checkpoint heads the log: the three inserts before it are gone.
        let (records, _) = crate::wal::decode_log(&disk.read_all());
        assert!(matches!(records[0], WalRecord::Checkpoint { .. }));
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.lookup(&k("a")).is_present());
        assert!(
            !rec.lookup(&k("b")).is_present(),
            "coalesced after checkpoint"
        );
        assert!(rec.lookup(&k("c")).is_present());
        assert_eq!(rec.map().version_of(&k("b")), v(2));
    }

    #[test]
    fn torn_commit_record_means_aborted() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("a"), v(1), val("A")).unwrap();
        // Commit appended but crash tears all but 2 bytes of the whole
        // unsynced region — the commit record is unreadable.
        st.commit(TxnId(1));
        // Note: commit() synced. Do a second transaction without sync to
        // exercise the torn path.
        st.begin(TxnId(2));
        st.insert(TxnId(2), &k("b"), v(1), val("B")).unwrap();
        disk.crash(2);
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.lookup(&k("a")).is_present());
        assert!(!rec.lookup(&k("b")).is_present());
    }

    #[test]
    fn a_transaction_that_logged_nothing_writes_nothing() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("a"), v(1), val("A")).unwrap();
        st.commit(TxnId(1));
        let (len, syncs) = (disk.durable_len(), disk.sync_count());
        // A reader that commits, one that aborts, and a member outside the
        // write quorum whose only mutation failed.
        st.begin(TxnId(2));
        assert!(st.lookup(&k("a")).is_present());
        st.commit(TxnId(2));
        st.begin(TxnId(3));
        st.successor(&Key::Low).unwrap();
        assert!(!st.abort(TxnId(3)));
        st.begin(TxnId(4));
        assert!(st.coalesce(TxnId(4), &k("nope"), &Key::High, v(2)).is_err());
        st.commit(TxnId(4));
        assert_eq!(disk.durable_len(), len);
        assert_eq!(disk.volatile_len(), 0);
        assert_eq!(disk.sync_count(), syncs);
        assert_eq!(st.active_txns(), 0);
    }

    #[test]
    fn crash_between_lazy_begin_and_first_redo_recovers_pre_transaction_state() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("a"), v(1), val("A")).unwrap();
        st.commit(TxnId(1));
        st.begin(TxnId(2));
        assert_eq!(disk.volatile_len(), 0, "begin alone logs nothing");
        st.insert(TxnId(2), &k("b"), v(1), val("B")).unwrap();
        // The crash keeps exactly the begin record of the unsynced tail:
        // the redo record behind it never reached the disk.
        let begin = crate::wal::encode_record(&WalRecord::Begin { txn: 2 }).len();
        assert!(disk.volatile_len() > begin);
        disk.crash(begin);
        let (records, clean) = crate::wal::decode_log(&disk.read_all());
        assert!(clean);
        assert_eq!(records.last(), Some(&WalRecord::Begin { txn: 2 }));
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.lookup(&k("a")).is_present());
        assert!(!rec.lookup(&k("b")).is_present());
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn quiescent_commits_keep_the_log_bounded_by_the_state() {
        // 64 keys rewritten 400 times each: ~7 MB of history over ~16 KB of
        // state. The log must stay near the compaction floor throughout,
        // recover to the final state, and never be compacted under a
        // transaction in flight or over a live stale-vote spill.
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        let big = Value::from(vec![7u8; 200]);
        // Written once, so only checkpoints carry it through the history.
        st.begin(TxnId(1));
        st.insert(TxnId(1), &k("cold"), v(1), val("C")).unwrap();
        st.commit(TxnId(1));
        let mut peak = 0;
        for round in 1..=400u64 {
            for i in 0..64u64 {
                let t = TxnId(round * 64 + i);
                st.begin(t);
                st.insert(
                    t,
                    &Key::from(format!("k{i:02}").as_str()),
                    v(round),
                    big.clone(),
                )
                .unwrap();
                st.commit(t);
                peak = peak.max(disk.retained_len());
            }
        }
        assert!(disk.durable_len() > 6 << 20, "{}", disk.durable_len());
        assert!(peak < 2 * COMPACT_FLOOR, "peak {peak}");
        disk.crash(0);
        let rec = DurableState::recover(Arc::clone(&disk)).unwrap();
        assert_eq!(rec.len(), 65);
        assert_eq!(rec.map().version_of(&k("k63")), v(400));
        assert_eq!(rec.lookup(&k("cold")), st.lookup(&k("cold")));
        assert!(rec.lookup(&k("cold")).is_present());

        // A reader in flight, or a spilled vote, holds compaction off.
        let mut st = rec;
        let before = disk.retained_len();
        st.spill_stale_vote(1, k("k00"), v(1), v(2));
        st.begin(TxnId(1));
        for i in 0..4096u64 {
            let t = TxnId(1_000_000 + i);
            st.begin(t);
            st.insert(t, &k("k00"), v(1000 + i), big.clone()).unwrap();
            st.commit(t);
        }
        assert!(disk.retained_len() > before + (512 << 10));
        st.commit(TxnId(1));
        let (records, _) = crate::wal::decode_log(&disk.read_all());
        assert_eq!(crate::wal::stale_votes_after(&records).len(), 1);
    }

    #[test]
    fn operations_require_registered_transaction() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(disk);
        assert_eq!(
            st.insert(TxnId(99), &k("a"), v(1), val("A")),
            Err(RepError::TransactionAborted)
        );
        assert_eq!(
            st.coalesce(TxnId(99), &Key::Low, &Key::High, v(1)),
            Err(RepError::TransactionAborted)
        );
        // Commit/abort of unknown transactions are harmless no-ops.
        st.commit(TxnId(99));
        st.abort(TxnId(99));
    }

    #[test]
    fn checkpoint_with_active_txn_is_a_retryable_error() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(disk);
        st.begin(TxnId(1));
        st.begin(TxnId(2));
        assert_eq!(st.checkpoint(), Err(WalError::CheckpointBusy(2)));
        // Nothing was appended: recovery sees no checkpoint record.
        st.disk().sync();
        let (records, _) = crate::wal::decode_log(&st.disk().read_all());
        assert!(!records
            .iter()
            .any(|r| matches!(r, WalRecord::Checkpoint { .. })));
        // Once the representative drains, the same call succeeds.
        st.commit(TxnId(1));
        st.abort(TxnId(2));
        st.checkpoint().unwrap();
    }

    #[test]
    fn failed_operation_leaves_no_residue() {
        let disk = Arc::new(SimDisk::new());
        let mut st = DurableState::new(Arc::clone(&disk));
        st.begin(TxnId(1));
        // Coalesce with a missing boundary fails: no undo, no wal record.
        assert!(st.coalesce(TxnId(1), &k("nope"), &Key::High, v(1)).is_err());
        st.commit(TxnId(1));
        disk.crash(0);
        let rec = DurableState::recover(disk).unwrap();
        assert!(rec.is_empty());
    }
}
