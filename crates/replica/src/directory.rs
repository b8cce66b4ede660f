//! A ready-to-use replicated directory: transactions over the members,
//! wait-die retry and the repair plane wrapped around the core suite
//! algorithm, for members in this process or across the network.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use repdir_core::suite::LookupOutcome;
use repdir_core::suite::{
    DirSuite, QuorumPolicy, RandomPolicy, StaleVote, StaleVoteQueue, SuiteConfig,
};
use repdir_core::sync::Mutex;
use repdir_core::{ConfigError, Key, RepClient, RepError, RepId, SuiteError, UserKey, Value};
use repdir_obs::Registry;
use repdir_repair::{DriverHandle, Pacing, RepairDriver, RepairPeer, Repairer};

use crate::client::SessionClient;
use crate::repair::{LocalRepairPeer, RepTarget};
use crate::server::TransactionalRep;
use crate::txn::{TxnId, TxnManager};
use repdir_storage::{Backend, SimDisk};

/// Attempts [`ReplicatedDirectory::run`] makes before it returns the body's
/// retryable error.
const MAX_ATTEMPTS: u32 = 8;

/// How a [`ReplicatedDirectory`] reaches its members: it opens a
/// transaction at every member, one [`RepClient`] each, and finishes it
/// there. [`InProcess`] calls representatives in this process;
/// [`Networked`](crate::Networked) reaches `serve_rep` members by RPC.
pub trait Members: Send + Sync {
    /// One transaction's handle to one member.
    type Client: RepClient;

    /// Registers `txn` at every member and returns one client per member,
    /// in member order. A member that cannot register it keeps its client
    /// and refuses every request of the transaction, so the suite routes
    /// around it even if it heals mid-flight.
    fn open(&self, txn: TxnId) -> Vec<Self::Client>;

    /// Commits `txn` at every member. A member that failed mid-transaction
    /// cannot commit; it never saw the transaction's writes (the suite
    /// routed around it), so skipping it is sound.
    fn commit(&self, txn: TxnId);

    /// Aborts `txn` at every member: its locks release and its mutations
    /// roll back.
    fn abort(&self, txn: TxnId);
}

/// Representatives in this process, each called directly, one after
/// another on the calling thread: a member's commit is a short critical
/// section, far cheaper than a thread to run it on.
pub struct InProcess {
    reps: Vec<Arc<TransactionalRep>>,
    /// The running repair fleet, if any.
    fleet: Mutex<Option<RepairFleet>>,
}

impl Members for InProcess {
    type Client = SessionClient;

    fn open(&self, txn: TxnId) -> Vec<SessionClient> {
        self.reps
            .iter()
            .map(|rep| {
                let _ = rep.begin(txn);
                SessionClient::new(Arc::clone(rep), txn)
            })
            .collect()
    }

    fn commit(&self, txn: TxnId) {
        for rep in &self.reps {
            let _ = rep.commit(txn);
        }
    }

    fn abort(&self, txn: TxnId) {
        for rep in &self.reps {
            rep.abort(txn);
        }
    }
}

impl fmt::Debug for InProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcess")
            .field("reps", &self.reps.len())
            .finish_non_exhaustive()
    }
}

/// One repair driver per member, and the hooks that feed them. Dropping the
/// fleet unhooks the spill and the recovery hooks, then stops every driver,
/// which removes its own vote waker.
struct RepairFleet {
    reps: Vec<Arc<TransactionalRep>>,
    stale_votes: Arc<StaleVoteQueue>,
    handles: Vec<DriverHandle>,
}

impl Drop for RepairFleet {
    fn drop(&mut self) {
        self.stale_votes.set_spill(None);
        for rep in &self.reps {
            rep.set_recovery_hook(None);
        }
        // `handles` drops next: each driver removes its vote waker and joins.
    }
}

/// A complete replicated directory service over transactional
/// representatives, in this process ([`InProcess`], the default) or
/// behind `serve_rep` ([`Networked`](crate::Networked)).
///
/// Each user operation (or multi-operation closure passed to
/// [`run`](ReplicatedDirectory::run)) executes inside a transaction that
/// spans the representatives: Figure-6 range locks are held at every touched
/// representative until commit (strict two-phase locking), mutations are
/// durable through each representative's write-ahead log, and deadlock or
/// lock-timeout victims are retried as the same transaction's next attempt.
///
/// # Examples
///
/// ```
/// use repdir_core::suite::SuiteConfig;
/// use repdir_core::{Key, Value};
/// use repdir_replica::ReplicatedDirectory;
///
/// let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2)?, 7)?;
/// dir.insert(&Key::from("motd"), &Value::from("hello"))?;
/// assert!(dir.lookup(&Key::from("motd"))?.present);
/// dir.delete(&Key::from("motd"))?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ReplicatedDirectory<M: Members = InProcess> {
    members: M,
    config: SuiteConfig,
    txns: TxnManager,
    policy_seed: AtomicU64,
    /// Shared stale-vote sink. Per-transaction suites are ephemeral, so
    /// every suite this directory creates routes its stale votes here —
    /// the evidence outlives the transaction that observed it and feeds
    /// the repair drivers.
    stale_votes: Arc<StaleVoteQueue>,
}

impl ReplicatedDirectory {
    /// Creates a directory with fresh representatives.
    ///
    /// # Errors
    ///
    /// Mirrors [`DirSuite::new`]'s [`ConfigError`]s (cannot occur for a
    /// valid config).
    pub fn new(config: SuiteConfig, seed: u64) -> Result<Self, ConfigError> {
        Self::with_backend(config, seed, Backend::GapMap)
    }

    /// Creates a directory whose representatives use an explicit state
    /// representation — e.g. the paper's §5 B-tree.
    ///
    /// # Errors
    ///
    /// As [`ReplicatedDirectory::new`].
    pub fn with_backend(
        config: SuiteConfig,
        seed: u64,
        backend: Backend,
    ) -> Result<Self, ConfigError> {
        let reps = (0..config.member_count())
            .map(|i| {
                TransactionalRep::with_disk_and_backend(
                    RepId(i as u32),
                    Arc::new(SimDisk::new()),
                    backend,
                )
            })
            .collect();
        Self::with_reps(reps, config, seed)
    }

    /// Wraps existing representatives (e.g. recovered ones).
    ///
    /// # Errors
    ///
    /// [`ConfigError::MemberCountMismatch`] if counts differ.
    pub fn with_reps(
        reps: Vec<Arc<TransactionalRep>>,
        config: SuiteConfig,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let members = InProcess {
            reps,
            fleet: Mutex::new(None),
        };
        Self::with_members(members.reps.len(), members, config, seed)
    }

    /// The representative servers (failure injection, inspection).
    pub fn reps(&self) -> &[Arc<TransactionalRep>] {
        &self.members.reps
    }

    /// Starts one background [`RepairDriver`] per representative: each
    /// drains this directory's stale-vote queue for its member into
    /// bucket-targeted pulls from the other representatives, falling back
    /// to adaptively paced summary sweeps when the queue is dry, and
    /// checkpointing its member once a sweep finds it level after repairs
    /// (which also retires the stale votes spilled to its log). The queue
    /// wakes a driver the moment a read observes its member voting stale,
    /// and each representative's recovery hook snaps its driver's pacing
    /// back to the floor. Idempotent: a second call replaces the fleet.
    pub fn spawn_repair_drivers(&self, pacing: Pacing) {
        self.stop_repair_drivers();
        let reps = &self.members.reps;
        // Reseed the queue from each representative's WAL sidecar: votes
        // spilled before a crash survive it and re-enter the queue here
        // (coalesced, no re-spill, no waker — the fleet below drains them).
        for rep in reps {
            for vote in rep.spilled_stale_votes() {
                self.stale_votes.restore(vote);
            }
        }
        // From now on every pushed vote is spilled to the stale member's
        // WAL before it becomes observable in the queue, so the
        // observe-then-pull window has no durability hole.
        let spill_reps = reps.clone();
        self.stale_votes.set_spill(Some(Box::new(move |vote| {
            if let Some(rep) = spill_reps.get(vote.member) {
                // Best-effort: an unavailable member just misses the hint.
                let _ = rep.spill_stale_vote(vote);
            }
        })));
        let mut handles = Vec::with_capacity(reps.len());
        for (member, rep) in reps.iter().enumerate() {
            let target = Arc::new(RepTarget::new(Arc::clone(rep)));
            let peers: Vec<Box<dyn RepairPeer>> = reps
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != member)
                .map(|(_, peer)| {
                    Box::new(LocalRepairPeer::new(Arc::clone(peer))) as Box<dyn RepairPeer>
                })
                .collect();
            let handle = RepairDriver::new(Repairer::new(target, peers), pacing)
                .with_votes(Arc::clone(&self.stale_votes), member)
                .spawn();
            let recovery_waker = handle.waker();
            rep.set_recovery_hook(Some(Box::new(move || recovery_waker.wake_recovery())));
            handles.push(handle);
        }
        *self.members.fleet.lock() = Some(RepairFleet {
            reps: reps.clone(),
            stale_votes: Arc::clone(&self.stale_votes),
            handles,
        });
    }

    /// The running repair fleet's registries, one per member in member
    /// order (empty with no fleet): each holds its own driver's and
    /// repairer's `repair.*` metrics.
    pub fn repair_registries(&self) -> Vec<Registry> {
        let fleet = self.members.fleet.lock();
        let handles = fleet.iter().flat_map(|fleet| &fleet.handles);
        handles.map(|h| h.registry().clone()).collect()
    }

    /// Stops the repair-driver fleet: unhooks the spill and recovery hooks,
    /// then stops every driver, which removes its vote waker and joins.
    /// Queued stale votes are kept — a later fleet (or
    /// [`take_stale_votes`](ReplicatedDirectory::take_stale_votes)) can
    /// still consume them.
    pub fn stop_repair_drivers(&self) {
        let fleet = self.members.fleet.lock().take();
        drop(fleet);
    }
}

impl<M: Members> ReplicatedDirectory<M> {
    /// A directory over `members`, of which there are `count`.
    pub(crate) fn with_members(
        count: usize,
        members: M,
        config: SuiteConfig,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if count != config.member_count() {
            return Err(ConfigError::MemberCountMismatch {
                clients: count,
                votes: config.member_count(),
            });
        }
        Ok(ReplicatedDirectory {
            members,
            config,
            txns: TxnManager::new(),
            policy_seed: AtomicU64::new(seed),
            stale_votes: Arc::new(StaleVoteQueue::new()),
        })
    }

    /// The suite configuration.
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// The transaction manager that numbers this directory's transactions.
    pub fn txn_manager(&self) -> &TxnManager {
        &self.txns
    }

    /// Begins an explicit transaction with a freshly seeded random quorum
    /// policy. Most callers use [`run`](ReplicatedDirectory::run) instead.
    pub fn begin(&self) -> DirTxn<'_, M> {
        self.begin_as(self.txns.begin(), self.random_policy())
    }

    fn random_policy(&self) -> Box<dyn QuorumPolicy + Send> {
        let seed = self.policy_seed.fetch_add(1, Ordering::Relaxed);
        Box::new(RandomPolicy::new(seed))
    }

    /// Begins a transaction with an explicit quorum policy.
    pub fn begin_with_policy(&self, policy: Box<dyn QuorumPolicy + Send>) -> DirTxn<'_, M> {
        self.begin_as(self.txns.begin(), policy)
    }

    fn begin_as(&self, id: TxnId, policy: Box<dyn QuorumPolicy + Send>) -> DirTxn<'_, M> {
        let clients = self.members.open(id);
        let mut suite = DirSuite::new(clients, self.config.clone(), policy)
            .expect("member count matches config by construction");
        suite.set_stale_vote_sink(Arc::clone(&self.stale_votes));
        DirTxn {
            dir: self,
            id,
            suite,
            finished: false,
        }
    }

    /// Runs `body` in a transaction, committing on success. Deadlock and
    /// lock-timeout victims are aborted and retried with exponential
    /// backoff, up to an attempt limit. A retry is the transaction's next
    /// attempt ([`TxnManager::next_attempt`]): a fresh id with new quorums
    /// but the first attempt's age, so under the lock tables' wait-die
    /// policy it keeps its place behind older transactions and ahead of
    /// younger ones, and one that keeps dying eventually becomes the oldest
    /// and waits instead. A younger transaction facing a long-lived older
    /// holder therefore gives up after the backoff schedule (~0.2–0.4 s).
    /// [`RepError::Unavailable`] is retried the same way. A lookup or a
    /// quorum write never produces it — the members that answer the request
    /// are the quorum, and a lost vote is re-collected inside the call — so
    /// what reaches here is an operation that gathered its quorum and then
    /// lost a member of it: delete's last round (the copies and the
    /// coalesce go to the members its probes gathered), or a walk (scan,
    /// neighbour search, bulk write) whose held session lost more members
    /// than its own re-validation budget absorbs. The fresh attempt collects
    /// its quorums from the survivors.
    ///
    /// # Errors
    ///
    /// The body's error after retries are exhausted, or any non-retryable
    /// [`SuiteError`].
    pub fn run<R>(
        &self,
        mut body: impl FnMut(&mut DirSuite<M::Client>) -> Result<R, SuiteError>,
    ) -> Result<R, SuiteError> {
        let mut attempt = 0;
        let mut id = self.txns.begin();
        loop {
            let mut txn = self.begin_as(id, self.random_policy());
            match body(txn.suite_mut()) {
                Ok(out) => {
                    txn.commit();
                    return Ok(out);
                }
                Err(e) => {
                    txn.abort();
                    attempt += 1;
                    let retryable = matches!(
                        e,
                        SuiteError::Rep(RepError::Deadlock)
                            | SuiteError::Rep(RepError::LockTimeout)
                            | SuiteError::Rep(RepError::Unavailable)
                    );
                    if !retryable || attempt >= MAX_ATTEMPTS {
                        return Err(e);
                    }
                    // Exponential backoff with jitter, capped. The jitter
                    // matters: colliding transactions that backed off for
                    // *identical* durations re-collide in lockstep; drawing
                    // from the directory's seed stream desynchronizes them.
                    let base = 1u64 << attempt.min(6);
                    let mut z = self
                        .policy_seed
                        .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    let jitter = (z ^ (z >> 31)) % base;
                    std::thread::sleep(Duration::from_millis(base + jitter));
                    id = self.txns.next_attempt(id);
                }
            }
        }
    }

    /// Looks a key up in its own transaction.
    ///
    /// # Errors
    ///
    /// As [`DirSuite::lookup`], after retries.
    pub fn lookup(&self, key: &Key) -> Result<LookupOutcome, SuiteError> {
        self.run(|suite| suite.lookup(key))
    }

    /// Inserts in its own transaction.
    ///
    /// # Errors
    ///
    /// As [`DirSuite::insert`], after retries.
    pub fn insert(&self, key: &Key, value: &Value) -> Result<(), SuiteError> {
        self.run(|suite| suite.insert(key, value).map(drop))
    }

    /// Updates in its own transaction.
    ///
    /// # Errors
    ///
    /// As [`DirSuite::update`], after retries.
    pub fn update(&self, key: &Key, value: &Value) -> Result<(), SuiteError> {
        self.run(|suite| suite.update(key, value).map(drop))
    }

    /// Deletes in its own transaction.
    ///
    /// # Errors
    ///
    /// As [`DirSuite::delete`], after retries.
    pub fn delete(&self, key: &Key) -> Result<(), SuiteError> {
        self.run(|suite| suite.delete(key).map(drop))
    }

    /// Inserts a batch of entries in one transaction, paying one write
    /// quorum for the whole batch (see [`DirSuite::insert_many`]). The
    /// transaction makes the batch atomic at this layer: a retryable
    /// mid-batch failure aborts, rolls every applied prefix entry back, and
    /// retries the whole batch under a fresh transaction.
    ///
    /// # Errors
    ///
    /// As [`DirSuite::insert_many`], after retries.
    pub fn insert_many(&self, entries: &[(Key, Value)]) -> Result<(), SuiteError> {
        self.run(|suite| suite.insert_many(entries).map(drop))
    }

    /// Deletes a batch of keys in one transaction, paying one write quorum
    /// for the whole batch (see [`DirSuite::delete_many`]).
    ///
    /// # Errors
    ///
    /// As [`DirSuite::delete_many`], after retries.
    pub fn delete_many(&self, keys: &[Key]) -> Result<(), SuiteError> {
        self.run(|suite| suite.delete_many(keys).map(drop))
    }

    /// Lists every entry in key order, in its own transaction. The suite
    /// walks under a session quorum with batched envelopes (one quorum
    /// collection for the whole scan); the transaction's range locks make
    /// the listing a consistent snapshot.
    ///
    /// # Errors
    ///
    /// As [`DirSuite::scan`], after retries.
    pub fn scan(&self) -> Result<Vec<(UserKey, Value)>, SuiteError> {
        self.run(|suite| suite.scan())
    }

    /// Drains every queued stale vote (for inspection or a hand-rolled
    /// repair loop; the spawned drivers normally consume these).
    pub fn take_stale_votes(&self) -> Vec<StaleVote> {
        self.stale_votes.drain_all()
    }
}

impl<M: Members> fmt::Debug for ReplicatedDirectory<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicatedDirectory")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// An open transaction against a [`ReplicatedDirectory`].
///
/// Dropping an unfinished transaction aborts it (locks release, mutations
/// roll back).
pub struct DirTxn<'a, M: Members = InProcess> {
    dir: &'a ReplicatedDirectory<M>,
    id: TxnId,
    suite: DirSuite<M::Client>,
    finished: bool,
}

impl<M: Members> DirTxn<'_, M> {
    /// The transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The suite to operate through. All operations share this
    /// transaction's locks.
    pub fn suite_mut(&mut self) -> &mut DirSuite<M::Client> {
        &mut self.suite
    }

    /// Inserts a batch of entries under this transaction's locks, one write
    /// quorum for the whole batch.
    ///
    /// # Errors
    ///
    /// As [`DirSuite::insert_many`].
    pub fn insert_many(
        &mut self,
        entries: &[(Key, Value)],
    ) -> Result<repdir_core::BulkWriteOutcome, SuiteError> {
        self.suite.insert_many(entries)
    }

    /// Deletes a batch of keys under this transaction's locks, one write
    /// quorum for the whole batch.
    ///
    /// # Errors
    ///
    /// As [`DirSuite::delete_many`].
    pub fn delete_many(
        &mut self,
        keys: &[Key],
    ) -> Result<repdir_core::BulkWriteOutcome, SuiteError> {
        self.suite.delete_many(keys)
    }

    /// Commits at every member (write-ahead-log sync per member) and
    /// releases locks.
    pub fn commit(mut self) {
        self.finished = true;
        self.dir.members.commit(self.id);
    }

    /// Aborts at every member and releases locks.
    pub fn abort(mut self) {
        self.finished = true;
        self.dir.members.abort(self.id);
    }
}

impl<M: Members> Drop for DirTxn<'_, M> {
    fn drop(&mut self) {
        if !self.finished {
            self.dir.members.abort(self.id);
        }
    }
}

impl<M: Members> fmt::Debug for DirTxn<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DirTxn")
            .field("id", &self.id)
            .field("finished", &self.finished)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repdir_core::suite::FixedPolicy;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn val(s: &str) -> Value {
        Value::from(s)
    }

    fn dir_322(seed: u64) -> ReplicatedDirectory {
        ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), seed).unwrap()
    }

    #[test]
    fn autocommit_crud() {
        let dir = dir_322(1);
        dir.insert(&k("a"), &val("A")).unwrap();
        assert!(dir.lookup(&k("a")).unwrap().present);
        dir.update(&k("a"), &val("A2")).unwrap();
        assert_eq!(dir.lookup(&k("a")).unwrap().value, Some(val("A2")));
        dir.delete(&k("a")).unwrap();
        assert!(!dir.lookup(&k("a")).unwrap().present);
        assert_eq!(
            dir.delete(&k("a")),
            Err(SuiteError::NotFound { key: k("a") })
        );
    }

    #[test]
    fn explicit_transaction_commits_atomically() {
        let dir = dir_322(2);
        let mut txn = dir.begin();
        txn.suite_mut().insert(&k("x"), &val("X")).unwrap();
        txn.suite_mut().insert(&k("y"), &val("Y")).unwrap();
        let id = txn.id();
        txn.commit();
        assert!(dir.reps().iter().all(|rep| rep.locks_held(id).is_empty()));
        assert!(dir.lookup(&k("x")).unwrap().present);
        assert!(dir.lookup(&k("y")).unwrap().present);
    }

    #[test]
    fn dropped_transaction_rolls_back() {
        let dir = dir_322(3);
        {
            let mut txn = dir.begin();
            txn.suite_mut().insert(&k("ghost"), &val("G")).unwrap();
            // dropped without commit
        }
        assert!(!dir.lookup(&k("ghost")).unwrap().present);
        for rep in dir.reps() {
            assert!(rep.is_empty(), "no residue on any representative");
        }
    }

    #[test]
    fn explicit_abort_rolls_back() {
        let dir = dir_322(4);
        dir.insert(&k("keep"), &val("K")).unwrap();
        let mut txn = dir.begin();
        txn.suite_mut().update(&k("keep"), &val("dirty")).unwrap();
        txn.suite_mut().insert(&k("temp"), &val("T")).unwrap();
        txn.abort();
        assert_eq!(dir.lookup(&k("keep")).unwrap().value, Some(val("K")));
        assert!(!dir.lookup(&k("temp")).unwrap().present);
    }

    #[test]
    fn commit_applies_at_every_rep_and_records_obs() {
        // The per-rep commit loop must leave every write-quorum member
        // durably committed; the abort loop must leave none of its writes.
        let dir = dir_322(7);
        let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::new()));
        txn.suite_mut().insert(&k("fan"), &val("F")).unwrap();
        let out = txn.suite_mut().lookup(&k("fan")).unwrap();
        let id = txn.id();
        txn.commit();

        assert!(dir.reps().iter().all(|rep| rep.locks_held(id).is_empty()));
        // Each quorum member saw the write and must have applied it once
        // commit returned.
        for rep_id in out.quorum {
            let rep = &dir.reps()[rep_id.0 as usize];
            assert!(
                rep.snapshot().lookup(&k("fan")).is_present(),
                "rep {rep_id:?} lost the committed entry"
            );
        }

        // The abort loop mirrors it.
        let mut txn = dir.begin();
        txn.suite_mut().insert(&k("doomed"), &val("D")).unwrap();
        txn.abort();
        assert!(!dir.lookup(&k("doomed")).unwrap().present);
    }

    #[test]
    fn bulk_ops_commit_atomically_and_roll_back_on_error() {
        let dir = dir_322(11);
        let entries: Vec<(Key, Value)> = (0..8)
            .map(|i| (Key::from(format!("bulk{i:02}").as_str()), val("v")))
            .collect();
        dir.insert_many(&entries).unwrap();
        for (key, _) in &entries {
            assert!(dir.lookup(key).unwrap().present, "{key:?}");
        }
        // A batch with a mid-batch duplicate fails; the transaction wrapper
        // rolls the applied prefix back, so the directory sees none of it.
        let bad = vec![
            (k("p0"), val("v")),
            (k("p1"), val("v")),
            (k("bulk03"), val("v")),
            (k("p2"), val("v")),
        ];
        let err = dir.insert_many(&bad).unwrap_err();
        assert!(matches!(err, SuiteError::AlreadyExists { .. }), "{err:?}");
        assert!(!dir.lookup(&k("p0")).unwrap().present, "prefix rolled back");
        assert!(!dir.lookup(&k("p1")).unwrap().present, "prefix rolled back");
        // Bulk delete removes the batch in one transaction.
        let keys: Vec<Key> = entries.iter().map(|(key, _)| key.clone()).collect();
        dir.delete_many(&keys).unwrap();
        for key in &keys {
            assert!(!dir.lookup(key).unwrap().present, "{key:?}");
        }
        // DirTxn exposes the same ops under an explicit transaction.
        let mut txn = dir.begin();
        txn.insert_many(&[(k("t0"), val("T")), (k("t1"), val("T"))])
            .unwrap();
        txn.delete_many(&[k("t0")]).unwrap();
        txn.commit();
        assert!(!dir.lookup(&k("t0")).unwrap().present);
        assert!(dir.lookup(&k("t1")).unwrap().present);
    }

    #[test]
    fn run_retries_lock_timeouts() {
        // A transaction that holds a conflicting lock for a while: run()
        // must retry the victim until it succeeds. The holder is younger
        // than the run, so the run waits for it rather than dying.
        let dir = Arc::new(dir_322(5));
        dir.insert(&k("contended"), &val("0")).unwrap();

        let holder = {
            let dir = Arc::clone(&dir);
            std::thread::spawn(move || {
                let younger = TxnId::of_age(1 << 40);
                let mut txn = dir.begin_as(younger, Box::new(FixedPolicy::new()));
                txn.suite_mut()
                    .update(&k("contended"), &val("held"))
                    .unwrap();
                // Hold locks past one lock-timeout period.
                std::thread::sleep(Duration::from_millis(700));
                txn.commit();
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        // This update conflicts at every representative in the fixed quorum;
        // the first attempts time out, a retry eventually wins.
        dir.run(|suite| suite.update(&k("contended"), &val("winner")).map(drop))
            .unwrap();
        holder.join().unwrap();
        let got = dir.lookup(&k("contended")).unwrap().value.unwrap();
        assert_eq!(got, val("winner"), "second writer committed last");
    }

    #[test]
    fn run_outlasts_a_short_older_holder_through_deadlock_retries() {
        // The twin of the test above with the ages swapped: the run is
        // younger than the holder, so every conflicting attempt dies at
        // once, and the backoff between attempts outlasts the short hold.
        let dir = dir_322(5);
        dir.insert(&k("contended"), &val("0")).unwrap();
        let mut attempts = 0;
        std::thread::scope(|scope| {
            let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::new()));
            txn.suite_mut()
                .update(&k("contended"), &val("held"))
                .unwrap();
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(60));
                txn.commit();
            });
            dir.run(|suite| {
                attempts += 1;
                suite.update(&k("contended"), &val("winner")).map(drop)
            })
            .unwrap();
        });
        let stats = dir.reps().iter().map(|rep| rep.lock_stats());
        let (deadlocks, timeouts) =
            stats.fold((0, 0), |(d, t), s| (d + s.deadlocks, t + s.timeouts));
        assert!(attempts > 1 && deadlocks >= 1, "{attempts} attempts");
        assert_eq!(
            timeouts, 0,
            "a younger transaction never waits out a timeout"
        );
        let got = dir.lookup(&k("contended")).unwrap().value.unwrap();
        assert_eq!(got, val("winner"), "second writer committed last");
    }

    #[test]
    fn disjoint_transactions_proceed_concurrently() {
        let dir = Arc::new(dir_322(6));
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let dir = Arc::clone(&dir);
            handles.push(std::thread::spawn(move || {
                for i in 0..10u64 {
                    let key = Key::from(format!("worker{t}-{i}").as_str());
                    dir.insert(&key, &val("v")).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..6u64 {
            for i in 0..10u64 {
                let key = Key::from(format!("worker{t}-{i}").as_str());
                assert!(dir.lookup(&key).unwrap().present, "{key:?}");
            }
        }
    }

    #[test]
    fn survives_one_representative_failure() {
        let dir = dir_322(7);
        dir.insert(&k("a"), &val("A")).unwrap();
        dir.reps()[0].set_available(false);
        assert!(dir.lookup(&k("a")).unwrap().present);
        dir.update(&k("a"), &val("A2")).unwrap();
        dir.delete(&k("a")).unwrap();
        dir.reps()[0].set_available(true);
        assert!(!dir.lookup(&k("a")).unwrap().present);
    }

    #[test]
    fn representative_crash_recovery_preserves_committed_data() {
        let dir = dir_322(8);
        dir.insert(&k("a"), &val("A")).unwrap();
        dir.insert(&k("b"), &val("B")).unwrap();
        for rep in dir.reps() {
            rep.crash_and_recover().unwrap();
        }
        assert!(dir.lookup(&k("a")).unwrap().present);
        assert!(dir.lookup(&k("b")).unwrap().present);
        // And the directory still accepts writes.
        dir.delete(&k("a")).unwrap();
        assert!(!dir.lookup(&k("a")).unwrap().present);
    }

    #[test]
    fn run_retries_member_death_between_collect_and_call() {
        // Lookups and quorum writes have no ping-then-call window (pinned by
        // repdir-core's member_failing_the_carried_request_is_substituted
        // test); delete's coalesce round and a walk whose re-validation budget
        // is spent can still surface Rep(Unavailable). Here the
        // body reproduces that outcome on its first attempt (killing rep 0
        // mid-flight) and run() must classify it retryable: the retry
        // collects a fresh quorum from the survivors and commits.
        let dir = dir_322(10);
        dir.insert(&k("a"), &val("A")).unwrap();
        let mut attempts = 0;
        dir.run(|suite| {
            attempts += 1;
            if attempts == 1 {
                dir.reps()[0].set_available(false);
                return Err(SuiteError::Rep(RepError::Unavailable));
            }
            suite.update(&k("a"), &val("A2")).map(drop)
        })
        .unwrap();
        assert_eq!(attempts, 2, "one death, one successful retry");
        dir.reps()[0].set_available(true);
        assert_eq!(dir.lookup(&k("a")).unwrap().value, Some(val("A2")));
    }

    #[test]
    fn session_clients_are_shareable_across_threads() {
        // `RepClient` requires Send + Sync: concurrent transactions share a
        // representative's clients. The suite itself only needs Send (its
        // quorum policy is Send-only): one coordinator thread owns it.
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<SessionClient>();
        assert_send::<DirSuite<SessionClient>>();
    }

    #[test]
    fn quorum_unavailable_propagates_not_retried_forever() {
        let dir = dir_322(9);
        dir.reps()[0].set_available(false);
        dir.reps()[1].set_available(false);
        let err = dir.lookup(&k("a")).unwrap_err();
        assert!(matches!(err, SuiteError::QuorumUnavailable { .. }));
    }
}
