//! The full transactional directory representative: durable gap-versioned
//! state + Figure-6 range locking + per-transaction undo.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::txn::TxnId;
use repdir_core::suite::StaleVote;
use repdir_core::sync::{Mutex, MutexGuard};
use repdir_core::{
    CoalesceOutcome, GapMap, InsertOutcome, Key, LookupReply, NeighborReply, Op, RepError, RepId,
    RepResult, Reply, UserKey, Value, Version,
};
use repdir_rangelock::{KeyRange, LockError, LockMode, LockStats, RangeLockTable};
use repdir_repair::{
    bucket_high, bucket_low, entry_digest, low_gap_digest, ApplyStats, BucketEntry, BucketView,
    Digest, RepairPlan, SummaryCache,
};
use repdir_storage::{decode_log, stale_votes_after, Backend, DurableState, SimDisk};

/// Transaction ids for internal repair transactions, carved out of the top
/// of the id space so they never collide with coordinator-assigned ids.
/// Each is a fresh age, so repair transactions are the youngest there are:
/// they die on a coordinator's lock instead of holding up its transaction.
fn next_repair_txn() -> TxnId {
    static NEXT_AGE: AtomicU64 = AtomicU64::new(1 << 54);
    TxnId::of_age(NEXT_AGE.fetch_add(1, Ordering::Relaxed))
}

/// A directory representative with the paper's full §3.1 semantics:
///
/// * every operation acquires the range lock prescribed by Fig. 6 —
///   `RepLookup(x, x)` for lookups, `RepLookup(y, x)` / `RepLookup(x, y)`
///   for neighbor queries (where `y` is the key returned), `RepModify(x, x)`
///   for inserts, `RepModify(l, h)` for coalesces;
/// * locks are held until [`commit`](TransactionalRep::commit) /
///   [`abort`](TransactionalRep::abort) (strict two-phase locking);
/// * mutations are durable through the write-ahead log; aborts roll back via
///   undo records; [`crash_and_recover`](TransactionalRep::crash_and_recover)
///   exercises the recovery path.
///
/// # Examples
///
/// ```
/// use repdir_core::{Key, Value, Version};
/// use repdir_replica::TransactionalRep;
/// use repdir_replica::txn::TxnId;
///
/// let rep = TransactionalRep::new(repdir_core::RepId(0));
/// let t = TxnId(1);
/// rep.begin(t)?;
/// rep.insert(t, &Key::from("a"), Version::new(1), &Value::from("A"))?;
/// rep.commit(t)?;
/// # Ok::<(), repdir_core::RepError>(())
/// ```
pub struct TransactionalRep {
    id: RepId,
    state: Mutex<DurableState>,
    locks: RangeLockTable,
    available: AtomicBool,
    summary: SummaryCache,
    /// Fired whenever this representative comes back — healed from an
    /// injected failure or recovered from a crash. The repair layer hooks
    /// this to snap its driver's pacing to the floor (see
    /// `ReplicatedDirectory::spawn_repair_drivers`).
    recovery_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl std::fmt::Debug for TransactionalRep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionalRep")
            .field("id", &self.id)
            .field("available", &self.is_available())
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl TransactionalRep {
    /// Time every lock request here waits before giving up. A request
    /// waits only for younger (or same-age) holders — an older one kills it
    /// at once — so this bounds how long an older transaction waits for a
    /// younger one to finish: long enough for short transactions to drain,
    /// short enough that a holder whose coordinator vanished (a lost
    /// `Abort`) costs its waiters half a second, not forever.
    pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_millis(500);

    /// Creates an empty representative on a fresh simulated disk.
    pub fn new(id: RepId) -> Arc<Self> {
        Self::with_disk(id, Arc::new(SimDisk::new()))
    }

    /// Creates an empty representative logging to the given disk.
    pub fn with_disk(id: RepId, disk: Arc<SimDisk>) -> Arc<Self> {
        Self::with_disk_and_backend(id, disk, Backend::GapMap)
    }

    /// Creates an empty representative with an explicit state
    /// representation — e.g. the paper's §5 B-tree
    /// ([`Backend::GapBTree`]).
    pub fn with_disk_and_backend(id: RepId, disk: Arc<SimDisk>, backend: Backend) -> Arc<Self> {
        Arc::new(TransactionalRep {
            id,
            state: Mutex::new(DurableState::with_backend(disk, backend)),
            locks: RangeLockTable::new(),
            available: AtomicBool::new(true),
            summary: SummaryCache::new(),
            recovery_hook: Mutex::new(None),
        })
    }

    /// Recovers a representative from a disk's durable log.
    ///
    /// # Errors
    ///
    /// [`RepError::Storage`] if the log is unreadable.
    pub fn recover(id: RepId, disk: Arc<SimDisk>) -> Result<Arc<Self>, RepError> {
        let state = DurableState::recover(disk).map_err(|e| RepError::Storage(e.to_string()))?;
        Ok(Arc::new(TransactionalRep {
            id,
            state: Mutex::new(state),
            locks: RangeLockTable::new(),
            available: AtomicBool::new(true),
            summary: SummaryCache::new(),
            recovery_hook: Mutex::new(None),
        }))
    }

    /// This representative's identity.
    pub fn id(&self) -> RepId {
        self.id
    }

    /// Injects or heals a failure: while unavailable every operation
    /// (including pings) fails with [`RepError::Unavailable`]. Healing (a
    /// false→true transition) fires the recovery hook.
    pub fn set_available(&self, available: bool) {
        let was = self.available.swap(available, Ordering::SeqCst);
        if available && !was {
            self.fire_recovery_hook();
        }
    }

    /// Installs (or clears) the hook fired when this representative comes
    /// back up — after [`set_available`](TransactionalRep::set_available)
    /// heals an injected failure or
    /// [`crash_and_recover`](TransactionalRep::crash_and_recover) replays
    /// the log. The hook runs on the caller's thread and must not block.
    pub fn set_recovery_hook(&self, hook: Option<Box<dyn Fn() + Send + Sync>>) {
        *self.recovery_hook.lock() = hook;
    }

    fn fire_recovery_hook(&self) {
        if let Some(hook) = self.recovery_hook.lock().as_ref() {
            hook();
        }
    }

    /// Whether the representative currently serves requests.
    pub fn is_available(&self) -> bool {
        self.available.load(Ordering::SeqCst)
    }

    /// Lock-manager counters (for the concurrency experiments).
    pub fn lock_stats(&self) -> LockStats {
        self.locks.stats()
    }

    /// Transactions currently holding at least one lock here (test aid: a
    /// finished transaction must hold none).
    pub fn lock_holders(&self) -> Vec<TxnId> {
        self.locks.holders()
    }

    /// The range locks `txn` currently holds here, in grant order (test
    /// aid: an operation's lock footprint).
    pub fn locks_held(&self, txn: TxnId) -> Vec<(LockMode, KeyRange)> {
        self.locks.held_by(txn)
    }

    /// A detached copy of current state (test/statistics aid).
    pub fn snapshot(&self) -> GapMap {
        self.state.lock().map()
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Simulates a process crash (all volatile state — locks, undo,
    /// unsynced log tail — vanishes) followed by recovery from the durable
    /// log.
    ///
    /// Call only while quiesced in tests; in-flight transactions on other
    /// threads would observe their locks evaporating.
    ///
    /// # Errors
    ///
    /// [`RepError::Storage`] if the durable log cannot be replayed.
    pub fn crash_and_recover(&self) -> Result<(), RepError> {
        {
            let mut state = self.state.lock();
            let disk = Arc::clone(state.disk());
            disk.crash(0);
            *state = DurableState::recover(disk).map_err(|e| RepError::Storage(e.to_string()))?;
            self.locks.reset();
        }
        // Outside the state guard: summary digests lock summary-then-state,
        // so marking must never happen state-then-summary.
        self.summary.mark_all();
        self.fire_recovery_hook();
        Ok(())
    }

    /// Registers a transaction at this representative.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] while failed.
    pub fn begin(&self, txn: TxnId) -> RepResult<()> {
        self.check_up()?;
        self.state.lock().begin(txn);
        Ok(())
    }

    /// Runs one request of `txn` — an ordered list of operations — against
    /// the locks and the log: each operation takes its Fig. 6 lock as it
    /// runs, and the list stops at its first failing operation, whose error
    /// answers the whole request. The operations behind it do not run, so
    /// no lock is taken for a transaction about to abort. The empty list is
    /// the ping. In process and across the network alike, every data
    /// request a member serves comes through here.
    ///
    /// # Errors
    ///
    /// The first failing operation's error.
    pub fn execute(&self, txn: TxnId, ops: &[Op]) -> RepResult<Vec<Reply>> {
        if ops.is_empty() {
            return self.ping().map(|()| Vec::new());
        }
        let run = |op: &Op| match op {
            Op::Lookup(key) => self.lookup(txn, key).map(Reply::Lookup),
            Op::PredecessorChain(key, n) => self.predecessor_chain(txn, key, *n).map(Reply::Chain),
            Op::SuccessorChain(key, n) => self.successor_chain(txn, key, *n).map(Reply::Chain),
            Op::Insert(key, version, value) => {
                self.insert(txn, key, *version, value).map(Reply::Insert)
            }
            Op::Coalesce(low, high, v) => self.coalesce(txn, low, high, *v).map(Reply::Coalesce),
        };
        ops.iter().map(run).collect()
    }

    /// `DirRepLookup(x)` under a `RepLookup(x, x)` lock.
    ///
    /// # Errors
    ///
    /// Availability, lock ([`RepError::LockTimeout`] /
    /// [`RepError::Deadlock`]), and state errors.
    pub fn lookup(&self, txn: TxnId, key: &Key) -> RepResult<LookupReply> {
        self.check_up()?;
        let range = KeyRange::point(key.clone());
        Ok(self.locked(txn, LockMode::Lookup, range)?.lookup(key))
    }

    /// `DirRepPredecessor(x)` under `RepLookup(y, x)`, `y` being the key
    /// returned. The lock target depends on the answer, so the
    /// representative peeks, locks, and re-validates (the held lock then
    /// pins the range, bounding the loop).
    ///
    /// # Errors
    ///
    /// As [`lookup`](TransactionalRep::lookup), plus
    /// [`RepError::SentinelViolation`] for `LOW`.
    pub fn predecessor(&self, txn: TxnId, key: &Key) -> RepResult<NeighborReply> {
        self.check_up()?;
        loop {
            let peek = self.state.lock().predecessor(key)?;
            let range = KeyRange::new(peek.key.clone(), key.clone());
            let reply = self
                .locked(txn, LockMode::Lookup, range)?
                .predecessor(key)?;
            if reply.key == peek.key {
                return Ok(reply);
            }
            // The neighbor moved between peek and lock; the lock now held
            // freezes the old range, so one more round settles it.
        }
    }

    /// `DirRepSuccessor(x)` under `RepLookup(x, y)`.
    ///
    /// # Errors
    ///
    /// As [`predecessor`](TransactionalRep::predecessor), with `HIGH`
    /// rejected.
    pub fn successor(&self, txn: TxnId, key: &Key) -> RepResult<NeighborReply> {
        self.check_up()?;
        loop {
            let peek = self.state.lock().successor(key)?;
            let range = KeyRange::new(key.clone(), peek.key.clone());
            let reply = self.locked(txn, LockMode::Lookup, range)?.successor(key)?;
            if reply.key == peek.key {
                return Ok(reply);
            }
        }
    }

    /// Up to `limit` successive `DirRepPredecessor` results in one request
    /// (the §4 batching optimization), each acquiring its `RepLookup` range
    /// lock exactly as the single-step operation would.
    ///
    /// # Errors
    ///
    /// As [`predecessor`](TransactionalRep::predecessor).
    pub fn predecessor_chain(
        &self,
        txn: TxnId,
        key: &Key,
        limit: usize,
    ) -> RepResult<Vec<NeighborReply>> {
        // `limit` may come straight off the wire: never size from it.
        let mut out = Vec::with_capacity(limit.min(4096));
        let mut probe = key.clone();
        while out.len() < limit {
            let nb = self.predecessor(txn, &probe)?;
            let done = nb.key == Key::Low;
            probe = nb.key.clone();
            out.push(nb);
            if done {
                break;
            }
        }
        Ok(out)
    }

    /// Up to `limit` successive `DirRepSuccessor` results in one request.
    ///
    /// # Errors
    ///
    /// As [`successor`](TransactionalRep::successor).
    pub fn successor_chain(
        &self,
        txn: TxnId,
        key: &Key,
        limit: usize,
    ) -> RepResult<Vec<NeighborReply>> {
        // `limit` may come straight off the wire: never size from it.
        let mut out = Vec::with_capacity(limit.min(4096));
        let mut probe = key.clone();
        while out.len() < limit {
            let nb = self.successor(txn, &probe)?;
            let done = nb.key == Key::High;
            probe = nb.key.clone();
            out.push(nb);
            if done {
                break;
            }
        }
        Ok(out)
    }

    /// `DirRepInsert(x, v, z)` under `RepModify(x, x)`.
    ///
    /// # Errors
    ///
    /// Availability, lock, and state errors
    /// ([`RepError::SentinelViolation`] for sentinels,
    /// [`RepError::TransactionAborted`] for unregistered transactions).
    pub fn insert(
        &self,
        txn: TxnId,
        key: &Key,
        version: Version,
        value: &Value,
    ) -> RepResult<InsertOutcome> {
        self.check_up()?;
        let outcome = self
            .locked(txn, LockMode::Modify, KeyRange::point(key.clone()))?
            .insert(txn, key, version, value.clone())?;
        if let Key::User(u) = key {
            self.summary.mark(u.as_bytes());
        }
        Ok(outcome)
    }

    /// `DirRepCoalesce(l, h, v)` under `RepModify(l, h)`.
    ///
    /// # Errors
    ///
    /// Availability, lock, and state errors ([`RepError::InvalidRange`],
    /// [`RepError::NoSuchBoundary`]).
    pub fn coalesce(
        &self,
        txn: TxnId,
        low: &Key,
        high: &Key,
        version: Version,
    ) -> RepResult<CoalesceOutcome> {
        self.check_up()?;
        if low >= high {
            return Err(RepError::InvalidRange {
                low: low.clone(),
                high: high.clone(),
            });
        }
        let outcome = self
            .locked(
                txn,
                LockMode::Modify,
                KeyRange::new(low.clone(), high.clone()),
            )?
            .coalesce(txn, low, high, version)?;
        self.summary
            .mark_span(bucket_of_key(low), bucket_of_key(high));
        Ok(outcome)
    }

    /// Commits the transaction's effects at this representative (durable
    /// after the WAL sync) and releases its locks.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] while failed.
    pub fn commit(&self, txn: TxnId) -> RepResult<()> {
        self.check_up()?;
        self.state.lock().commit(txn);
        self.locks.release_all(txn);
        Ok(())
    }

    /// Rolls the transaction back at this representative and releases its
    /// locks. Safe to call regardless of the transaction's state there.
    pub fn abort(&self, txn: TxnId) {
        // Abort proceeds even on an "unavailable" representative: it is the
        // cleanup path for failures.
        let undid = self.state.lock().abort(txn);
        self.locks.release_all(txn);
        if undid {
            // Undo rewrote arbitrary ranges; re-digest lazily.
            self.summary.mark_all();
        }
    }

    /// Pings the representative (quorum collection).
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] while failed.
    pub fn ping(&self) -> RepResult<()> {
        self.check_up()
    }

    /// Digests of one summary-tree level (anti-entropy; serves
    /// `Request::Summary`). Dirty buckets are re-scanned under the state
    /// mutex but without transaction locks — the digest is advisory (it
    /// only decides what to pull; every applied step re-validates under
    /// locks), so racing a concurrent writer at worst costs an extra pull.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] while failed.
    pub fn summary_children(&self, level: u8, path: u8) -> RepResult<Vec<Digest>> {
        self.check_up()?;
        Ok(self.summary.children(level, path, &mut |b| {
            let state = self.state.lock();
            let low = bucket_low(b);
            let high = bucket_high(b);
            let mut hash = 0u64;
            let mut count = 0u64;
            state.visit_range(
                low.as_ref().map(|a| &a[..]),
                high.as_ref().map(|a| &a[..]),
                &mut |key, version, _value, gap_after| {
                    hash ^= entry_digest(key.as_bytes(), version, gap_after);
                    count += 1;
                },
            );
            if b == 0 {
                hash ^= low_gap_digest(state.low_gap());
            }
            Digest { hash, count }
        }))
    }

    /// The open interval around summary buckets `first..=last` bounded by
    /// keys this representative holds: its predecessor of the run's lowest
    /// key (`LOW` for bucket 0) and its lowest key at or above the next
    /// bucket (`HIGH` past bucket 255). A repair pull of that interval
    /// covers every source entry its plan's coalesces can reach. Read under
    /// the state mutex only: [`apply_repair`](TransactionalRep::apply_repair)
    /// re-checks each step against the bounds under locks.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] while failed.
    pub(crate) fn repair_span(&self, first: u8, last: u8) -> RepResult<(Key, Key)> {
        self.check_up()?;
        let state = self.state.lock();
        let after = match bucket_low(first) {
            None => Key::Low,
            Some(low) => state.predecessor(&Key::User(UserKey::new(low)))?.key,
        };
        let before = match bucket_high(last) {
            None => Key::High,
            Some(high) => {
                let edge = Key::User(UserKey::new(high));
                if state.lookup(&edge).is_present() {
                    edge
                } else {
                    state.successor(&edge)?.key
                }
            }
        };
        Ok((after, before))
    }

    /// The view of the open interval `(after, before)` — the version of the
    /// gap just above `after` and the lowest `limit` entries strictly
    /// inside, each with its `gap_after` — read under a
    /// `RepLookup(after, before)` lock on an internal transaction so it
    /// never observes uncommitted data. Serves `Request::PullRange` with
    /// `limit` = [`MAX_PULL_ENTRIES`](repdir_repair::MAX_PULL_ENTRIES), and
    /// with `usize::MAX` is the local side of the same merge. `limit` sizes
    /// nothing.
    ///
    /// # Errors
    ///
    /// Availability and lock errors; [`RepError::InvalidRange`] unless
    /// `after < before`.
    pub fn pull_range(&self, after: &Key, before: &Key, limit: usize) -> RepResult<BucketView> {
        self.check_up()?;
        if after >= before {
            return Err(RepError::InvalidRange {
                low: after.clone(),
                high: before.clone(),
            });
        }
        let txn = next_repair_txn();
        self.state.lock().begin(txn);
        let result = self.pull_range_locked(txn, after, before, limit);
        // Read-only: abort just releases the locks.
        self.abort(txn);
        result
    }

    fn pull_range_locked(
        &self,
        txn: TxnId,
        after: &Key,
        before: &Key,
        limit: usize,
    ) -> RepResult<BucketView> {
        self.acquire(
            txn,
            LockMode::Lookup,
            KeyRange::new(after.clone(), before.clone()),
        )?;
        let state = self.state.lock();
        let lead_gap = state.successor(after)?.gap_version;
        // Strictly-after lower bound: the smallest byte string above a key
        // is the key followed by 0x00.
        let low = match after {
            Key::User(u) => Some([u.as_bytes(), &[0]].concat()),
            _ => None,
        };
        let high = match before {
            Key::User(u) => Some(u.as_bytes()),
            _ => None,
        };
        let mut entries = Vec::new();
        state.visit_range(
            low.as_deref(),
            high,
            &mut |key, version, value, gap_after| {
                if entries.len() < limit {
                    entries.push(BucketEntry {
                        key: key.clone(),
                        version,
                        value: value.clone(),
                        gap_after,
                    });
                }
            },
        );
        Ok(BucketView { lead_gap, entries })
    }

    /// Applies a repair plan inside one internal transaction, installing
    /// entries and gap versions **at their pinned version numbers** — sound
    /// without any quorum by the paper's version rule (versions only grow;
    /// equal versions carry identical data). Every step re-validates under
    /// its range lock and is skipped if concurrent progress already
    /// supersedes it, so versions never move down. A ghost removal or gap
    /// raise coalesces this representative's current neighbours, so it is
    /// skipped (and counted in [`ApplyStats::out_of_span`]) when one of them
    /// lies outside the plan's interval — a concurrent local delete moved
    /// it, and the merged gap is no fact about the keys beyond. The whole
    /// apply commits or rolls back atomically. Returns what actually
    /// changed.
    ///
    /// # Errors
    ///
    /// Availability, lock, and state errors; on error nothing is applied.
    pub fn apply_repair(&self, plan: &RepairPlan) -> RepResult<ApplyStats> {
        self.check_up()?;
        let mut stats = ApplyStats::default();
        if plan.is_empty() {
            return Ok(stats);
        }
        let txn = next_repair_txn();
        self.state.lock().begin(txn);
        match self.apply_repair_steps(txn, plan, &mut stats) {
            Ok(()) => {
                self.commit(txn)?;
                Ok(stats)
            }
            Err(e) => {
                self.abort(txn);
                Err(e)
            }
        }
    }

    fn apply_repair_steps(
        &self,
        txn: TxnId,
        plan: &RepairPlan,
        stats: &mut ApplyStats,
    ) -> RepResult<()> {
        for (key, version, value) in &plan.installs {
            let key = Key::User(key.clone());
            let reply = self.lookup(txn, &key)?;
            let apply = if reply.is_present() {
                // Equal versions are identical already.
                reply.version() < *version
            } else {
                // Ties against a gap go to the entry (same fact, two
                // encodings); a strictly higher gap is a newer delete.
                reply.version() <= *version
            };
            if apply {
                self.insert(txn, &key, *version, value)?;
                stats.installed += 1;
            }
        }
        for (key, covering) in &plan.ghosts {
            let key = Key::User(key.clone());
            let reply = self.lookup(txn, &key)?;
            if !reply.is_present() || reply.version() >= *covering {
                continue;
            }
            let pred = self.predecessor(txn, &key)?;
            let succ = self.successor(txn, &key)?;
            if pred.key < plan.after || succ.key > plan.before {
                stats.out_of_span += 1;
                continue;
            }
            // Removing the ghost coalesces its two adjacent gap segments to
            // `covering`; if either has concurrently moved past it, leave
            // the key to a later round rather than lower a gap version.
            if pred.gap_version > *covering || succ.gap_version > *covering {
                continue;
            }
            self.coalesce(txn, &pred.key, &succ.key, *covering)?;
            stats.ghosts_removed += 1;
        }
        for (anchor, to) in &plan.gap_raises {
            // The anchoring entry may itself have been removed since the
            // plan was computed; its gap is then owned elsewhere.
            if *anchor != Key::Low && !self.lookup(txn, anchor)?.is_present() {
                continue;
            }
            let succ = self.successor(txn, anchor)?;
            if succ.gap_version >= *to {
                continue;
            }
            if succ.key > plan.before {
                stats.out_of_span += 1;
                continue;
            }
            // Empty interior: this only rewrites the gap's version.
            self.coalesce(txn, anchor, &succ.key, *to)?;
            stats.gaps_raised += 1;
        }
        Ok(())
    }

    /// Forces a WAL checkpoint of the committed state, retiring replay
    /// history and spilled stale votes (a repair driver lands one when its
    /// member levels after repairs, so recovery replays the caught-up
    /// image, not the pre-divergence log).
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] while failed; [`RepError::Storage`] if
    /// transactions are in flight ([`repdir_storage::WalError::CheckpointBusy`]).
    pub fn checkpoint(&self) -> RepResult<()> {
        self.check_up()?;
        self.state
            .lock()
            .checkpoint()
            .map_err(|e| RepError::Storage(e.to_string()))
    }

    /// Durably records a stale-vote observation in the WAL sidecar so a
    /// crash between observing staleness and repairing it does not lose
    /// the repair hint.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] while failed.
    pub fn spill_stale_vote(&self, vote: &StaleVote) -> RepResult<()> {
        self.check_up()?;
        self.state.lock().spill_stale_vote(
            vote.member as u64,
            vote.key.clone(),
            vote.seen,
            vote.latest,
        );
        Ok(())
    }

    /// Stale votes spilled since the last checkpoint, decoded from the
    /// on-disk log — used to reseed the driver's queue after recovery.
    pub fn spilled_stale_votes(&self) -> Vec<StaleVote> {
        let data = {
            let state = self.state.lock();
            state.disk().read_all()
        };
        let (records, _) = decode_log(&data);
        stale_votes_after(&records)
            .into_iter()
            .map(|(member, key, seen, latest)| StaleVote {
                member: member as usize,
                key,
                seen,
                latest,
            })
            .collect()
    }

    fn check_up(&self) -> RepResult<()> {
        if self.is_available() {
            Ok(())
        } else {
            Err(RepError::Unavailable)
        }
    }

    fn acquire(&self, txn: TxnId, mode: LockMode, range: KeyRange) -> RepResult<()> {
        self.locks
            .acquire(txn, mode, range, Self::DEFAULT_LOCK_TIMEOUT)
            .map_err(|e| match e {
                LockError::Timeout => RepError::LockTimeout,
                LockError::Deadlock => RepError::Deadlock,
            })
    }

    /// Acquires `range` for `txn` and returns the state to operate on — if
    /// the transaction is registered here. A request can outlive its
    /// transaction (a straggler or a fabric duplicate landing after
    /// `Commit`/`Abort`) or arrive at a member that was down at `Begin`;
    /// nobody will ever call `release_all` for a lock it takes, so what was
    /// just acquired is released and the request refused: reads with
    /// [`RepError::Unavailable`] (the member is unusable for this
    /// transaction and the suite routes around it), writes with
    /// [`RepError::TransactionAborted`]. Checking *after* the acquire is
    /// race-free: commit and abort unregister before they release.
    fn locked(
        &self,
        txn: TxnId,
        mode: LockMode,
        range: KeyRange,
    ) -> RepResult<MutexGuard<'_, DurableState>> {
        self.acquire(txn, mode, range)?;
        let state = self.state.lock();
        if state.is_registered(txn) {
            return Ok(state);
        }
        drop(state);
        self.locks.release_all(txn);
        Err(match mode {
            LockMode::Lookup => RepError::Unavailable,
            LockMode::Modify => RepError::TransactionAborted,
        })
    }
}

/// The summary bucket containing a coalesce boundary (sentinels clamp to
/// the edge buckets).
fn bucket_of_key(key: &Key) -> u8 {
    match key {
        Key::Low => 0,
        Key::User(u) => repdir_repair::bucket_of(u.as_bytes()),
        Key::High => u8::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

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
    fn basic_transactional_round_trip() {
        let rep = TransactionalRep::new(RepId(0));
        let t = TxnId(1);
        rep.begin(t).unwrap();
        rep.insert(t, &k("a"), v(1), &val("A")).unwrap();
        assert!(rep.lookup(t, &k("a")).unwrap().is_present());
        rep.commit(t).unwrap();
        assert_eq!(rep.len(), 1);
        assert!(!rep.is_empty());
        assert_eq!(rep.id(), RepId(0));
    }

    #[test]
    fn abort_rolls_back_and_releases_locks() {
        let rep = TransactionalRep::new(RepId(0));
        let t1 = TxnId(1);
        rep.begin(t1).unwrap();
        rep.insert(t1, &k("a"), v(1), &val("A")).unwrap();
        rep.abort(t1);
        assert_eq!(rep.len(), 0);

        // The lock released by abort is immediately available.
        let t2 = TxnId(2);
        rep.begin(t2).unwrap();
        rep.insert(t2, &k("a"), v(1), &val("A2")).unwrap();
        rep.commit(t2).unwrap();
        assert_eq!(rep.snapshot().lookup(&k("a")).value(), Some(&val("A2")));
    }

    #[test]
    fn conflicting_writers_serialize_via_locks() {
        let rep = TransactionalRep::new(RepId(0));
        let t1 = TxnId(1);
        rep.begin(t1).unwrap();
        rep.insert(t1, &k("x"), v(1), &val("first")).unwrap();

        // A second transaction's conflicting insert must wait; with t1
        // holding the lock past the timeout, it fails.
        let t2 = TxnId(2);
        rep.begin(t2).unwrap();
        let err = rep.insert(t2, &k("x"), v(2), &val("second")).unwrap_err();
        assert_eq!(err, RepError::LockTimeout);
        rep.commit(t1).unwrap();

        // After release it succeeds.
        rep.insert(t2, &k("x"), v(2), &val("second")).unwrap();
        rep.commit(t2).unwrap();
        assert_eq!(rep.snapshot().lookup(&k("x")).version(), v(2));
    }

    #[test]
    fn readers_do_not_block_readers() {
        let rep = TransactionalRep::new(RepId(0));
        let t0 = TxnId(1);
        rep.begin(t0).unwrap();
        rep.insert(t0, &k("a"), v(1), &val("A")).unwrap();
        rep.commit(t0).unwrap();

        let mut handles = Vec::new();
        for i in 2..8u64 {
            let rep = Arc::clone(&rep);
            handles.push(thread::spawn(move || {
                let t = TxnId(i);
                rep.begin(t).unwrap();
                for _ in 0..50 {
                    assert!(rep.lookup(t, &k("a")).unwrap().is_present());
                }
                rep.commit(t).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn neighbor_ops_lock_the_scanned_range() {
        let rep = TransactionalRep::new(RepId(0));
        let setup = TxnId(1);
        rep.begin(setup).unwrap();
        rep.insert(setup, &k("b"), v(1), &val("B")).unwrap();
        rep.insert(setup, &k("f"), v(1), &val("F")).unwrap();
        rep.commit(setup).unwrap();

        let reader = TxnId(2);
        rep.begin(reader).unwrap();
        let nb = rep.predecessor(reader, &k("f")).unwrap();
        assert_eq!(nb.key, k("b"));
        // The reader now holds RepLookup(b, f): an insert of "d" (inside
        // the scanned range) must block; an insert of "z" must not.
        let writer = TxnId(3);
        rep.begin(writer).unwrap();
        assert_eq!(
            rep.insert(writer, &k("d"), v(1), &val("D")).unwrap_err(),
            RepError::LockTimeout
        );
        rep.insert(writer, &k("z"), v(1), &val("Z")).unwrap();
        rep.commit(reader).unwrap();
        rep.commit(writer).unwrap();
    }

    #[test]
    fn unavailable_rep_rejects_operations_but_allows_abort() {
        let rep = TransactionalRep::new(RepId(0));
        let t = TxnId(1);
        rep.begin(t).unwrap();
        rep.insert(t, &k("a"), v(1), &val("A")).unwrap();
        rep.set_available(false);
        assert!(!rep.is_available());
        assert_eq!(rep.ping(), Err(RepError::Unavailable));
        assert_eq!(rep.lookup(t, &k("a")), Err(RepError::Unavailable));
        assert_eq!(rep.begin(TxnId(2)), Err(RepError::Unavailable));
        assert_eq!(rep.commit(t), Err(RepError::Unavailable));
        // Abort still works — it is how coordinators clean up after
        // failures.
        rep.abort(t);
        rep.set_available(true);
        assert_eq!(rep.len(), 0);
    }

    #[test]
    fn requests_for_an_unregistered_transaction_leave_no_lock_behind() {
        // A straggler or fabric duplicate that lands after Commit/Abort, or a
        // request at a member that was down at Begin: whatever lock it takes
        // would never be released, and the key's next writer would burn the
        // lock timeout forever.
        for ending in ["commit", "abort", "no begin"] {
            let rep = TransactionalRep::new(RepId(0));
            let t = TxnId(1);
            match ending {
                "commit" => {
                    rep.begin(t).unwrap();
                    rep.insert(t, &k("m"), v(1), &val("M")).unwrap();
                    rep.commit(t).unwrap();
                }
                "abort" => {
                    rep.begin(t).unwrap();
                    rep.abort(t);
                }
                _ => {}
            }
            // Reads: the member is unusable for this transaction.
            assert_eq!(rep.lookup(t, &k("a")), Err(RepError::Unavailable));
            assert_eq!(rep.predecessor(t, &k("a")), Err(RepError::Unavailable));
            assert_eq!(rep.successor(t, &k("a")), Err(RepError::Unavailable));
            assert_eq!(
                rep.successor_chain(t, &Key::Low, 3),
                Err(RepError::Unavailable)
            );
            assert_eq!(
                rep.predecessor_chain(t, &Key::High, 3),
                Err(RepError::Unavailable)
            );
            // Writes: refused as before, but now without the lock.
            assert_eq!(
                rep.insert(t, &k("a"), v(1), &val("A")),
                Err(RepError::TransactionAborted)
            );
            assert_eq!(
                rep.coalesce(t, &Key::Low, &Key::High, v(9)),
                Err(RepError::TransactionAborted)
            );
            assert_eq!(rep.locks.holders(), vec![], "{ending}");
            assert_eq!(rep.locks.granted_count(), 0, "{ending}");

            // The next transaction's insert of the same key is granted
            // without waiting.
            let waited = rep.lock_stats().waited;
            let next = TxnId(2);
            rep.begin(next).unwrap();
            rep.insert(next, &k("a"), v(1), &val("A")).unwrap();
            rep.commit(next).unwrap();
            assert_eq!(rep.lock_stats().waited, waited, "{ending}");
        }
    }

    #[test]
    fn straggler_racing_commit_never_strands_a_lock() {
        // Commit unregisters before it releases, so a request that acquires
        // on either side of the commit ends with no lock held: granted
        // before, the commit releases it; granted after, the registration
        // check does.
        let rep = TransactionalRep::new(RepId(0));
        for round in 0..200u64 {
            let t = TxnId(10 + round);
            rep.begin(t).unwrap();
            let start = Arc::new(std::sync::Barrier::new(2));
            let straggler = {
                let (rep, start) = (Arc::clone(&rep), Arc::clone(&start));
                thread::spawn(move || {
                    start.wait();
                    let _ = rep.lookup(t, &k("a"));
                })
            };
            start.wait();
            rep.commit(t).unwrap();
            straggler.join().unwrap();
            assert_eq!(rep.locks.holders(), vec![], "round {round}");
        }
    }

    #[test]
    fn crash_loses_uncommitted_keeps_committed() {
        let rep = TransactionalRep::new(RepId(0));
        let t1 = TxnId(1);
        rep.begin(t1).unwrap();
        rep.insert(t1, &k("durable"), v(1), &val("D")).unwrap();
        rep.commit(t1).unwrap();

        let t2 = TxnId(2);
        rep.begin(t2).unwrap();
        rep.insert(t2, &k("volatile"), v(1), &val("V")).unwrap();

        rep.crash_and_recover().unwrap();
        let snap = rep.snapshot();
        assert!(snap.lookup(&k("durable")).is_present());
        assert!(!snap.lookup(&k("volatile")).is_present());

        // The representative serves fresh transactions after recovery.
        let t3 = TxnId(3);
        rep.begin(t3).unwrap();
        rep.insert(t3, &k("after"), v(1), &val("A")).unwrap();
        rep.commit(t3).unwrap();
        assert_eq!(rep.len(), 2);
    }

    #[test]
    fn recover_constructor_reads_existing_disk() {
        let disk = Arc::new(SimDisk::new());
        {
            let rep = TransactionalRep::with_disk(RepId(0), Arc::clone(&disk));
            let t = TxnId(1);
            rep.begin(t).unwrap();
            rep.insert(t, &k("persisted"), v(1), &val("P")).unwrap();
            rep.commit(t).unwrap();
        }
        let rep2 = TransactionalRep::recover(RepId(0), disk).unwrap();
        assert!(rep2.snapshot().lookup(&k("persisted")).is_present());
    }

    #[test]
    fn lock_stats_exposed() {
        let rep = TransactionalRep::new(RepId(0));
        let t = TxnId(1);
        rep.begin(t).unwrap();
        rep.lookup(t, &k("a")).unwrap();
        rep.commit(t).unwrap();
        assert!(rep.lock_stats().granted >= 1);
    }

    #[test]
    fn summary_digests_track_committed_state_only() {
        let a = TransactionalRep::new(RepId(0));
        let b = TransactionalRep::new(RepId(1));
        let digests = |rep: &TransactionalRep| rep.summary_children(0, 0).unwrap();
        assert_eq!(digests(&a), digests(&b));

        let t = TxnId(1);
        a.begin(t).unwrap();
        a.insert(t, &k("apple"), v(1), &val("A")).unwrap();
        a.commit(t).unwrap();
        assert_ne!(digests(&a), digests(&b));

        let t = TxnId(2);
        b.begin(t).unwrap();
        b.insert(t, &k("apple"), v(1), &val("A")).unwrap();
        b.commit(t).unwrap();
        assert_eq!(digests(&a), digests(&b));

        // Aborted work leaves the digests untouched.
        let t = TxnId(3);
        a.begin(t).unwrap();
        a.insert(t, &k("zebra"), v(2), &val("Z")).unwrap();
        a.abort(t);
        assert_eq!(digests(&a), digests(&b));

        // Crash recovery re-digests to the same committed state.
        a.crash_and_recover().unwrap();
        assert_eq!(digests(&a), digests(&b));
    }

    #[test]
    fn pull_range_view_carries_lead_and_after_gaps() {
        let rep = TransactionalRep::new(RepId(0));
        let t = TxnId(1);
        rep.begin(t).unwrap();
        rep.insert(t, &k("b"), v(2), &val("B")).unwrap();
        rep.insert(t, &k("d"), v(4), &val("D")).unwrap();
        rep.commit(t).unwrap();
        let t = TxnId(2);
        rep.begin(t).unwrap();
        rep.coalesce(t, &k("b"), &k("d"), v(7)).unwrap();
        rep.commit(t).unwrap();

        // (LOW, d): the leading gap and "b" with the (b, d) gap above it.
        let view = rep.pull_range(&Key::Low, &k("d"), usize::MAX).unwrap();
        assert_eq!(view.lead_gap, Version::ZERO);
        assert_eq!(view.entries.len(), 1);
        assert_eq!(view.entries[0].version, v(2));
        assert_eq!(view.entries[0].gap_after, v(7));
        // (b, HIGH): the lead gap is the one just above "b"; the ends
        // themselves are never part of the view.
        let view = rep.pull_range(&k("b"), &Key::High, usize::MAX).unwrap();
        assert_eq!(view.lead_gap, v(7));
        assert_eq!(view.entries.len(), 1);
        assert_eq!(view.entries[0].key, UserKey::new(*b"d"));
        // An end that is not a key: the gap containing it.
        let view = rep.pull_range(&k("c"), &k("d"), usize::MAX).unwrap();
        assert_eq!(view.lead_gap, v(7));
        assert!(view.entries.is_empty());
        // A limit keeps the lowest entries, each with the gap above it.
        let view = rep.pull_range(&Key::Low, &Key::High, 1).unwrap();
        assert_eq!(view.entries.len(), 1);
        assert_eq!(view.entries[0].key, UserKey::new(*b"b"));
        assert_eq!(view.entries[0].gap_after, v(7));
        // The repair read released its locks: a write can proceed.
        let t = TxnId(3);
        rep.begin(t).unwrap();
        rep.insert(t, &k("bz"), v(8), &val("BZ")).unwrap();
        rep.commit(t).unwrap();
    }

    #[test]
    fn repair_span_ends_at_keys_the_rep_holds() {
        let rep = seeded(0);
        let t = TxnId(1);
        rep.begin(t).unwrap();
        for key in ["a1", "c1", "d"] {
            rep.insert(t, &k(key), v(1), &val("x")).unwrap();
        }
        rep.commit(t).unwrap();
        assert_eq!(rep.repair_span(b'a', b'a').unwrap(), (Key::Low, k("c1")));
        assert_eq!(rep.repair_span(b'b', b'c').unwrap(), (k("a1"), k("d")));
        // A key exactly at the next bucket's edge is the upper end.
        assert_eq!(rep.repair_span(b'c', b'c').unwrap(), (k("a1"), k("d")));
        assert_eq!(
            rep.repair_span(b'd', u8::MAX).unwrap(),
            (k("c1"), Key::High)
        );
        assert_eq!(rep.repair_span(0, u8::MAX).unwrap(), (Key::Low, Key::High));
    }

    #[test]
    fn pull_range_refuses_an_empty_interval() {
        let rep = seeded(2);
        for (after, before) in [
            (k("k001"), k("k000")),
            (k("k001"), k("k001")),
            (Key::High, Key::Low),
            (Key::Low, Key::Low),
        ] {
            assert!(
                matches!(
                    rep.pull_range(&after, &before, usize::MAX),
                    Err(RepError::InvalidRange { .. })
                ),
                "({after:?}, {before:?})"
            );
        }
        assert_eq!(rep.locks.granted_count(), 0);
    }

    #[test]
    fn apply_repair_converges_a_stale_rep_without_quorum() {
        let fresh = TransactionalRep::new(RepId(0));
        let stale = TransactionalRep::new(RepId(1));
        // Both saw the initial inserts...
        for rep in [&fresh, &stale] {
            let t = TxnId(1);
            rep.begin(t).unwrap();
            rep.insert(t, &k("a"), v(1), &val("A")).unwrap();
            rep.insert(t, &k("b"), v(2), &val("B")).unwrap();
            rep.insert(t, &k("c"), v(3), &val("C")).unwrap();
            rep.commit(t).unwrap();
        }
        // ...but only `fresh` saw the delete of "b" and the update of "c".
        let t = TxnId(2);
        fresh.begin(t).unwrap();
        fresh.coalesce(t, &k("a"), &k("c"), v(9)).unwrap();
        fresh.insert(t, &k("c"), v(10), &val("C2")).unwrap();
        fresh.commit(t).unwrap();
        assert_ne!(fresh.snapshot(), stale.snapshot());

        // Pull every bucket from `fresh`, merge, apply — no quorum involved.
        let pass = || {
            let mut changed = repdir_repair::ApplyStats::default();
            for bucket in 0..=u8::MAX {
                let (after, before) = stale.repair_span(bucket, bucket).unwrap();
                let remote = fresh.pull_range(&after, &before, usize::MAX).unwrap();
                let local = stale.pull_range(&after, &before, usize::MAX).unwrap();
                let plan = repdir_repair::diff_bucket(&after, &before, &local, &remote);
                changed.absorb(stale.apply_repair(&plan).unwrap());
            }
            changed
        };
        let changed = pass();
        assert_eq!(fresh.snapshot(), stale.snapshot());
        assert_eq!(
            fresh.summary_children(0, 0).unwrap(),
            stale.summary_children(0, 0).unwrap()
        );
        assert_eq!(changed.installed, 1); // c@10
        assert_eq!(changed.ghosts_removed, 1); // b
                                               // A second pass is a no-op (idempotence).
        assert_eq!(pass(), repdir_repair::ApplyStats::default());
    }

    #[test]
    fn apply_repair_never_moves_versions_down() {
        let rep = TransactionalRep::new(RepId(0));
        let t = TxnId(1);
        rep.begin(t).unwrap();
        rep.insert(t, &k("c"), v(10), &val("C")).unwrap();
        rep.commit(t).unwrap();
        let before = rep.snapshot();
        // A plan computed against an older view: install below the current
        // version, ghost below the current version, raise below the gap.
        let mut plan = RepairPlan::new(Key::Low, Key::High);
        plan.installs.push((UserKey::new(*b"c"), v(5), val("old")));
        plan.ghosts.push((UserKey::new(*b"c"), v(4)));
        plan.gap_raises.push((Key::Low, Version::ZERO));
        let stats = rep.apply_repair(&plan).unwrap();
        assert_eq!(stats.total(), 0);
        assert_eq!(rep.snapshot(), before);
    }

    #[test]
    fn apply_repair_skips_coalesces_reaching_past_the_interval() {
        let rep = seeded(0);
        let t = TxnId(1);
        rep.begin(t).unwrap();
        for key in ["b", "d"] {
            rep.insert(t, &k(key), v(2), &val("x")).unwrap();
        }
        rep.commit(t).unwrap();
        // Planned over (b, f) while "f" existed; a local delete has since
        // removed it, so both steps would coalesce up to HIGH.
        let mut plan = RepairPlan::new(k("b"), k("f"));
        plan.ghosts.push((UserKey::new(*b"d"), v(4)));
        plan.gap_raises.push((k("d"), v(4)));
        let before = rep.snapshot();
        let stats = rep.apply_repair(&plan).unwrap();
        assert_eq!((stats.total(), stats.out_of_span), (0, 2));
        assert_eq!(rep.snapshot(), before);
    }

    #[test]
    fn recovery_hook_fires_on_heal_and_crash_recovery() {
        let rep = TransactionalRep::new(RepId(0));
        let fired = Arc::new(AtomicU64::new(0));
        let f = Arc::clone(&fired);
        rep.set_recovery_hook(Some(Box::new(move || {
            f.fetch_add(1, Ordering::SeqCst);
        })));
        // Already up: no transition, no fire.
        rep.set_available(true);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        // Going down is not a recovery.
        rep.set_available(false);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        rep.set_available(true);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        rep.crash_and_recover().unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 2);
        // Cleared hook stays silent.
        rep.set_recovery_hook(None);
        rep.set_available(false);
        rep.set_available(true);
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn repair_endpoints_respect_availability() {
        let rep = TransactionalRep::new(RepId(0));
        rep.set_available(false);
        assert_eq!(rep.summary_children(0, 0), Err(RepError::Unavailable));
        assert_eq!(rep.repair_span(0, 0), Err(RepError::Unavailable));
        assert_eq!(
            rep.pull_range(&Key::Low, &Key::High, usize::MAX),
            Err(RepError::Unavailable)
        );
        let plan = RepairPlan::new(Key::Low, Key::High);
        assert_eq!(rep.apply_repair(&plan), Err(RepError::Unavailable));
        assert_eq!(rep.checkpoint(), Err(RepError::Unavailable));
    }

    /// Seeds `n` committed entries `k000..` with versions `1..=n`.
    fn seeded(n: u64) -> Arc<TransactionalRep> {
        let rep = TransactionalRep::new(RepId(0));
        let t = TxnId(1);
        rep.begin(t).unwrap();
        for i in 0..n {
            rep.insert(t, &k(&format!("k{i:03}")), v(i + 1), &val("x"))
                .unwrap();
        }
        rep.commit(t).unwrap();
        rep
    }

    #[test]
    fn pull_range_serves_committed_state_only() {
        let rep = seeded(3);
        let t = TxnId(7);
        rep.begin(t).unwrap();
        rep.insert(t, &k("k999"), v(99), &val("uncommitted"))
            .unwrap();
        // The writer's lock covers the interval: the pull, a repair
        // transaction younger than any writer, dies on it rather than
        // leaking uncommitted data.
        let err = rep
            .pull_range(&k("k998"), &Key::High, usize::MAX)
            .unwrap_err();
        assert_eq!(err, RepError::Deadlock);
        rep.abort(t);
        let view = rep.pull_range(&k("k998"), &Key::High, usize::MAX).unwrap();
        assert!(view.entries.is_empty());
    }

    #[test]
    fn checkpoint_compacts_the_log_and_survives_recovery() {
        let rep = seeded(5);
        rep.checkpoint().unwrap();
        // A transaction in flight makes the checkpoint refuse, not panic.
        let t = TxnId(9);
        rep.begin(t).unwrap();
        rep.insert(t, &k("zz"), v(9), &val("Z")).unwrap();
        match rep.checkpoint() {
            Err(RepError::Storage(msg)) => assert!(msg.contains("1")),
            other => panic!("expected Storage error, got {other:?}"),
        }
        rep.commit(t).unwrap();
        rep.checkpoint().unwrap();
        rep.crash_and_recover().unwrap();
        assert_eq!(rep.len(), 6);
    }

    #[test]
    fn spilled_stale_votes_survive_crash_and_retire_on_checkpoint() {
        let rep = seeded(2);
        let vote = StaleVote {
            member: 1,
            key: k("k001"),
            seen: v(1),
            latest: v(4),
        };
        rep.spill_stale_vote(&vote).unwrap();
        rep.crash_and_recover().unwrap();
        let spilled = rep.spilled_stale_votes();
        assert_eq!(spilled, vec![vote]);
        // A checkpoint marks the spilled votes consumed.
        rep.checkpoint().unwrap();
        assert!(rep.spilled_stale_votes().is_empty());
    }

    #[test]
    fn re_observed_stale_vote_is_spilled_once_and_still_recovered() {
        // Re-reading a key that is stale at this member pushes the same
        // observation every time: the queue drops the repeats before they
        // reach the spill hook, so the WAL takes one record (and one sync),
        // not one per read. A newer observation is spilled again, and
        // recovery restores the vote at its newest `latest`.
        use repdir_core::suite::StaleVoteQueue;
        let rep = seeded(2);
        let queue = StaleVoteQueue::new();
        let spill_rep = Arc::clone(&rep);
        queue.set_spill(Some(Box::new(move |vote: &StaleVote| {
            spill_rep.spill_stale_vote(vote).unwrap();
        })));
        let observed = |latest: u64| StaleVote {
            member: 1,
            key: k("k001"),
            seen: v(1),
            latest: v(latest),
        };
        for _ in 0..5 {
            queue.push(observed(4));
        }
        assert_eq!(rep.spilled_stale_votes(), vec![observed(4)]);
        queue.push(observed(6));
        assert_eq!(rep.spilled_stale_votes(), vec![observed(4), observed(6)]);
        assert_eq!(queue.len(), 1);

        rep.crash_and_recover().unwrap();
        let revived = StaleVoteQueue::new();
        for vote in rep.spilled_stale_votes() {
            revived.restore(vote);
        }
        assert_eq!(revived.drain_member(1), vec![observed(6)]);
    }
}
