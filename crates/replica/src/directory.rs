//! A ready-to-use replicated directory: representatives, transactions, and
//! deadlock-retry wrapped around the core suite algorithm.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use repdir_core::suite::LookupOutcome;
use repdir_core::suite::{
    DirSuite, QuorumPolicy, RandomPolicy, RepairHealth, StaleVote, StaleVoteQueue, SuiteConfig,
};
use repdir_core::sync::Mutex;
use repdir_core::{ConfigError, Key, RepError, RepId, SuiteError, UserKey, Value};
use repdir_repair::{DriverHandle, Pacing, RepairDriver, RepairPeer, Repairer};
use repdir_txn::TxnManager;

use crate::client::SessionClient;
use crate::repair::{LocalRepairPeer, RepTarget};
use crate::server::TransactionalRep;
use repdir_storage::{Backend, SimDisk};

/// A complete replicated directory service over transactional
/// representatives.
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
pub struct ReplicatedDirectory {
    reps: Vec<Arc<TransactionalRep>>,
    config: SuiteConfig,
    txns: Arc<TxnManager>,
    policy_seed: AtomicU64,
    max_attempts: u32,
    /// Shared stale-vote sink. Per-transaction suites are ephemeral, so
    /// every suite this directory creates routes its stale votes here —
    /// the evidence outlives the transaction that observed it and feeds
    /// the repair drivers.
    stale_votes: Arc<StaleVoteQueue>,
    /// Per-member "has unhealed buckets" flags, fed by the repair drivers'
    /// health sinks and consulted by every latency-based quorum policy the
    /// directory's suites build — a member known to be behind is ranked
    /// last, not first, however fast it replies.
    repair_health: Arc<RepairHealth>,
    repair_drivers: Mutex<Vec<DriverHandle>>,
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
                    std::sync::Arc::new(SimDisk::new()),
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
        if reps.len() != config.member_count() {
            return Err(ConfigError::MemberCountMismatch {
                clients: reps.len(),
                votes: config.member_count(),
            });
        }
        Ok(ReplicatedDirectory {
            reps,
            config,
            txns: Arc::new(TxnManager::new()),
            policy_seed: AtomicU64::new(seed),
            max_attempts: 8,
            stale_votes: Arc::new(StaleVoteQueue::new()),
            repair_health: Arc::new(RepairHealth::new()),
            repair_drivers: Mutex::new(Vec::new()),
        })
    }

    /// The suite configuration.
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// The representative servers (failure injection, inspection).
    pub fn reps(&self) -> &[Arc<TransactionalRep>] {
        &self.reps
    }

    /// The shared transaction manager.
    pub fn txn_manager(&self) -> &Arc<TxnManager> {
        &self.txns
    }

    /// Begins an explicit transaction with a freshly seeded random quorum
    /// policy. Most callers use [`run`](ReplicatedDirectory::run) instead.
    pub fn begin(&self) -> DirTxn<'_> {
        self.begin_as(self.txns.begin(), self.random_policy())
    }

    fn random_policy(&self) -> Box<dyn QuorumPolicy + Send> {
        let seed = self.policy_seed.fetch_add(1, Ordering::Relaxed);
        Box::new(RandomPolicy::new(seed))
    }

    /// Begins a transaction with an explicit quorum policy.
    pub fn begin_with_policy(&self, policy: Box<dyn QuorumPolicy + Send>) -> DirTxn<'_> {
        self.begin_as(self.txns.begin(), policy)
    }

    fn begin_as(&self, id: repdir_txn::TxnId, policy: Box<dyn QuorumPolicy + Send>) -> DirTxn<'_> {
        let clients: Vec<SessionClient> = self
            .reps
            .iter()
            .map(|rep| {
                // Unavailable representatives cannot register the
                // transaction; they stay unusable for it even if they heal
                // mid-flight (the suite routes around them).
                let _ = rep.begin(id);
                SessionClient::new(Arc::clone(rep), id)
            })
            .collect();
        let mut suite = DirSuite::new(clients, self.config.clone(), policy)
            .expect("rep count matches config by construction");
        suite.set_stale_vote_sink(Arc::clone(&self.stale_votes));
        suite.set_repair_health(Some(Arc::clone(&self.repair_health)));
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
        mut body: impl FnMut(&mut DirSuite<SessionClient>) -> Result<R, SuiteError>,
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
                    if !retryable || attempt >= self.max_attempts {
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

    /// The shared stale-vote queue every transaction's suite reports into.
    pub fn stale_vote_queue(&self) -> &Arc<StaleVoteQueue> {
        &self.stale_votes
    }

    /// The per-member repair-health flags quorum policies consult.
    pub fn repair_health(&self) -> &Arc<RepairHealth> {
        &self.repair_health
    }

    /// Drains every queued stale vote (for inspection or a hand-rolled
    /// repair loop; the spawned drivers normally consume these).
    pub fn take_stale_votes(&self) -> Vec<StaleVote> {
        self.stale_votes.drain_all()
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
        // Reseed the queue from each representative's WAL sidecar: votes
        // spilled before a crash survive it and re-enter the queue here
        // (coalesced, no re-spill, no waker — the fleet below drains them).
        for rep in &self.reps {
            for vote in rep.spilled_stale_votes() {
                self.stale_votes.restore(vote);
            }
        }
        // From now on every pushed vote is spilled to the stale member's
        // WAL before it becomes observable in the queue, so the
        // observe-then-pull window has no durability hole.
        let spill_reps = self.reps.clone();
        self.stale_votes.set_spill(Some(Box::new(move |vote| {
            if let Some(rep) = spill_reps.get(vote.member) {
                // Best-effort: an unavailable member just misses the hint.
                let _ = rep.spill_stale_vote(vote);
            }
        })));
        let mut handles = Vec::with_capacity(self.reps.len());
        for (member, rep) in self.reps.iter().enumerate() {
            let target = Arc::new(RepTarget::new(Arc::clone(rep)));
            let peers: Vec<Box<dyn RepairPeer>> = self
                .reps
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != member)
                .map(|(_, peer)| {
                    Box::new(LocalRepairPeer::new(Arc::clone(peer))) as Box<dyn RepairPeer>
                })
                .collect();
            let queue = Arc::clone(&self.stale_votes);
            let health = Arc::clone(&self.repair_health);
            let driver = RepairDriver::new(Repairer::new(target, peers), pacing)
                .with_vote_source(Box::new(move || queue.drain_member(member)))
                .with_health_sink(Box::new(move |unrepaired| {
                    health.set_unrepaired(member, unrepaired);
                }));
            let handle = driver.spawn();
            let vote_waker = handle.waker();
            self.stale_votes
                .set_waker(member, Some(Box::new(move || vote_waker.wake_votes())));
            let recovery_waker = handle.waker();
            rep.set_recovery_hook(Some(Box::new(move || recovery_waker.wake_recovery())));
            handles.push(handle);
        }
        *self.repair_drivers.lock() = handles;
    }

    /// Stops the repair-driver fleet: unhooks the wakers, then joins every
    /// driver thread. Queued stale votes are kept — a later fleet (or
    /// [`take_stale_votes`](ReplicatedDirectory::take_stale_votes)) can
    /// still consume them.
    pub fn stop_repair_drivers(&self) {
        let handles = std::mem::take(&mut *self.repair_drivers.lock());
        if handles.is_empty() {
            return;
        }
        self.stale_votes.set_spill(None);
        for (member, rep) in self.reps.iter().enumerate() {
            self.stale_votes.set_waker(member, None);
            rep.set_recovery_hook(None);
        }
        drop(handles); // joins each driver thread
    }
}

impl Drop for ReplicatedDirectory {
    fn drop(&mut self) {
        self.stop_repair_drivers();
    }
}

impl fmt::Debug for ReplicatedDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicatedDirectory")
            .field("config", &self.config)
            .field("reps", &self.reps.len())
            .finish_non_exhaustive()
    }
}

/// An open transaction against a [`ReplicatedDirectory`].
///
/// Dropping an unfinished transaction aborts it (locks release, mutations
/// roll back).
pub struct DirTxn<'a> {
    dir: &'a ReplicatedDirectory,
    id: repdir_txn::TxnId,
    suite: DirSuite<SessionClient>,
    finished: bool,
}

impl DirTxn<'_> {
    /// The transaction's id.
    pub fn id(&self) -> repdir_txn::TxnId {
        self.id
    }

    /// The suite to operate through. All operations share this
    /// transaction's locks.
    pub fn suite_mut(&mut self) -> &mut DirSuite<SessionClient> {
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

    /// Commits at every representative (write-ahead-log sync per member)
    /// and releases locks, one representative after another on the calling
    /// thread: a member's commit is a short critical section, far cheaper
    /// than a thread to run it on.
    pub fn commit(mut self) {
        self.finished = true;
        let _span = repdir_obs::global().span("txn.commit");
        for rep in &self.dir.reps {
            // A representative that failed mid-transaction cannot commit;
            // it never saw the transaction's writes (the suite routed
            // around it), so skipping is sound.
            let _ = rep.commit(self.id);
        }
        let _ = self.dir.txns.commit(self.id);
    }

    /// Aborts at every representative and releases locks.
    pub fn abort(mut self) {
        self.finished = true;
        self.rollback();
    }

    fn rollback(&self) {
        let _span = repdir_obs::global().span("txn.abort");
        for rep in &self.dir.reps {
            rep.abort(self.id);
        }
        self.dir.txns.abort(self.id);
    }
}

impl Drop for DirTxn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.rollback();
        }
    }
}

impl fmt::Debug for DirTxn<'_> {
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
        assert!(!dir.txn_manager().is_active(id));
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
        // durably committed, bump the global txn counters, and record the
        // txn.commit span. Counters are process-global and tests run in
        // parallel, so assertions are monotone (>= before + delta).
        let g = repdir_obs::global();
        let committed_before = g.counter("txn.committed").get();
        let aborted_before = g.counter("txn.aborted").get();

        let dir = dir_322(7);
        let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::new()));
        txn.suite_mut().insert(&k("fan"), &val("F")).unwrap();
        let out = txn.suite_mut().lookup(&k("fan")).unwrap();
        let id = txn.id();
        txn.commit();

        assert!(!dir.txn_manager().is_active(id));
        // Each quorum member saw the write and must have applied it once
        // commit returned.
        for rep_id in out.quorum {
            let rep = &dir.reps()[rep_id.0 as usize];
            assert!(
                rep.snapshot().lookup(&k("fan")).is_present(),
                "rep {rep_id:?} lost the committed entry"
            );
        }
        assert!(g.counter("txn.committed").get() > committed_before);
        assert!(g.spans().iter().any(|e| e.name == "txn.commit"));

        // The abort loop mirrors it.
        let mut txn = dir.begin();
        txn.suite_mut().insert(&k("doomed"), &val("D")).unwrap();
        txn.abort();
        assert!(!dir.lookup(&k("doomed")).unwrap().present);
        assert!(g.counter("txn.aborted").get() > aborted_before);
        assert!(g.spans().iter().any(|e| e.name == "txn.abort"));
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
                let younger = repdir_txn::TxnId::of_age(1 << 40);
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
