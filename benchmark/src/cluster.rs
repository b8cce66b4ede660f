//! The stack under test, assembled from the outside, and the benchmark's own
//! remote driver.
//!
//! `ReplicatedDirectory` has no remote mode, so [`RemoteDirectory`] mirrors
//! `ReplicatedDirectory::run` over the network: a fresh transaction id, one
//! `Begin` scatter round to every member, the suite call on a
//! `DirSuite<RemoteSessionClient>`, one `Commit` (or `Abort`) scatter round,
//! and the same retry rule. Its cost is part of every remote latency and is
//! reported by the trace (`driver.*`).

use std::sync::Arc;
use std::time::Duration;

use repdir::core::suite::{DirSuite, LookupOutcome, RandomPolicy, SuiteConfig};
use repdir::core::{Key, RepError, RepId, SuiteError, UserKey, Value};
use repdir::net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir::rangelock::LockStats;
use repdir::replica::codec::{encode_request, Request};
use repdir::replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir::storage::SimDisk;
use repdir::txn::{TxnId, TxnManager};

use crate::stats::SplitMix64;
use crate::trace::{Kind, Tracer};

/// Deadline of a `Begin`/`Commit`/`Abort` round: the per-call deadline the
/// suite's own member calls use.
const ROUND_TIMEOUT: Duration = RemoteSessionClient::DEFAULT_TIMEOUT;

/// Attempts per operation, as `ReplicatedDirectory::run`.
const MAX_ATTEMPTS: u32 = 8;

/// Representative `i`'s fabric node; clients take the low numbers.
fn server_node(i: u32) -> NodeId {
    NodeId(100 + i)
}

/// Totals read from the layers' public accessors; differences between two
/// readings give the per-operation counts of the trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub msgs_sent: u64,
    pub syncs: u64,
    pub wal_bytes: u64,
    pub lock_waits: u64,
    pub lock_timeouts: u64,
    pub lock_deadlocks: u64,
}

impl Counters {
    /// What was counted between the reading `earlier` and this one.
    pub fn since(mut self, earlier: &Counters) -> Counters {
        let mut earlier = *earlier;
        for (now, then) in self.fields().into_iter().zip(earlier.fields()) {
            *now -= *then;
        }
        self
    }

    fn fields(&mut self) -> [&mut u64; 6] {
        [
            &mut self.msgs_sent,
            &mut self.syncs,
            &mut self.wal_bytes,
            &mut self.lock_waits,
            &mut self.lock_timeouts,
            &mut self.lock_deadlocks,
        ]
    }

    /// Storage and lock totals over a set of representatives.
    pub fn of_reps<'a>(
        disks: impl IntoIterator<Item = &'a Arc<SimDisk>>,
        locks: impl IntoIterator<Item = LockStats>,
    ) -> Counters {
        let mut c = Counters::default();
        for disk in disks {
            c.syncs += disk.sync_count();
            c.wal_bytes += disk.durable_len() as u64;
        }
        for stats in locks {
            c.lock_waits += stats.waited;
            c.lock_timeouts += stats.timeouts;
            c.lock_deadlocks += stats.deadlocks;
        }
        c
    }
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, mut other: Counters) {
        for (mine, theirs) in self.fields().into_iter().zip(other.fields()) {
            *mine += *theirs;
        }
    }
}

/// Representatives on simulated disks, each served on the fabric.
pub struct Cluster {
    net: Arc<Network>,
    reps: Vec<Arc<TransactionalRep>>,
    disks: Vec<Arc<SimDisk>>,
    handles: Vec<ServerHandle>,
    config: SuiteConfig,
    txns: Arc<TxnManager>,
    seeds: SplitMix64,
}

impl Cluster {
    /// Builds an `n`-member suite with read quorum `r` and write quorum `w`
    /// on a fabric with the given one-way latency.
    pub fn build(seed: u64, n: u32, r: u32, w: u32, latency: LatencyModel) -> Cluster {
        let net = Arc::new(Network::new(seed));
        let mut cluster = Cluster {
            net,
            reps: Vec::new(),
            disks: Vec::new(),
            handles: Vec::new(),
            config: SuiteConfig::symmetric(n, r, w).expect("benchmark quorums are valid"),
            txns: Arc::new(TxnManager::new()),
            seeds: SplitMix64::new(seed).fork(0xC1),
        };
        cluster.set_latency(latency);
        for i in 0..n {
            let disk = Arc::new(SimDisk::new());
            let rep = TransactionalRep::with_disk(RepId(i), Arc::clone(&disk));
            cluster.handles.push(serve_rep(
                Arc::clone(&cluster.net),
                server_node(i),
                Arc::clone(&rep),
            ));
            cluster.disks.push(disk);
            cluster.reps.push(rep);
        }
        cluster
    }

    pub fn set_latency(&self, latency: LatencyModel) {
        self.net.set_fault_plan(FaultPlan {
            latency,
            ..FaultPlan::default()
        });
    }

    /// A directory client on its own fabric node.
    pub fn client(&self, index: u32) -> RemoteDirectory {
        RemoteDirectory {
            rpc: Arc::new(RpcClient::new(Arc::clone(&self.net), NodeId(index))),
            servers: (0..self.reps.len() as u32).map(server_node).collect(),
            config: self.config.clone(),
            txns: Arc::clone(&self.txns),
            seeds: self.seeds.fork(u64::from(index)),
        }
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::of_reps(&self.disks, self.reps.iter().map(|r| r.lock_stats()));
        c.msgs_sent = self.net.stats().sent;
        c
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // The serving threads notice within their 25 ms poll.
        for handle in &self.handles {
            handle.stop();
        }
    }
}

/// The benchmark's remote directory client (see the module text).
pub struct RemoteDirectory {
    rpc: Arc<RpcClient>,
    servers: Vec<NodeId>,
    config: SuiteConfig,
    txns: Arc<TxnManager>,
    /// Quorum-policy seeds and backoff jitter.
    seeds: SplitMix64,
}

type Suite = DirSuite<RemoteSessionClient>;

impl RemoteDirectory {
    /// One scatter round of `make(txn)` to every member. Replies are not
    /// inspected: a member that cannot register, commit or abort is one the
    /// suite routes around, exactly as in `ReplicatedDirectory`.
    fn round(&self, make: fn(TxnId) -> Request, txn: TxnId) {
        let payload = encode_request(&make(txn));
        let requests = self
            .servers
            .iter()
            .map(|server| (*server, payload.clone()))
            .collect();
        drop(self.rpc.scatter(requests).gather(ROUND_TIMEOUT));
    }

    /// Runs `body` in a transaction, committing on success; deadlock,
    /// lock-timeout and unavailable victims are aborted and retried with
    /// capped exponential backoff.
    pub fn run<R>(
        &mut self,
        tracer: &mut Tracer,
        mut body: impl FnMut(&mut Suite) -> Result<R, SuiteError>,
    ) -> Result<R, SuiteError> {
        let mut attempt = 0;
        loop {
            let t0 = tracer.now();
            let txn = self.txns.begin();
            self.round(Request::Begin, txn);
            let clients = self
                .servers
                .iter()
                .enumerate()
                .map(|(i, server)| {
                    RemoteSessionClient::new(Arc::clone(&self.rpc), *server, RepId(i as u32), txn)
                })
                .collect();
            let policy = Box::new(RandomPolicy::new(self.seeds.next_u64()));
            let mut suite = DirSuite::new(clients, self.config.clone(), policy)
                .expect("one client per configured member");
            let t1 = tracer.now();
            tracer.child(Kind::Begin, t0, t1);
            let result = body(&mut suite);
            let t2 = tracer.now();
            tracer.child(Kind::Call, t1, t2);
            match result {
                Ok(out) => {
                    self.round(Request::Commit, txn);
                    let _ = self.txns.commit(txn);
                    tracer.child(Kind::Commit, t2, tracer.now());
                    return Ok(out);
                }
                Err(e) => {
                    self.round(Request::Abort, txn);
                    let t3 = tracer.now();
                    tracer.child(Kind::Abort, t2, t3);
                    attempt += 1;
                    let retryable = matches!(
                        e,
                        SuiteError::Rep(
                            RepError::Deadlock | RepError::LockTimeout | RepError::Unavailable
                        )
                    );
                    if !retryable || attempt >= MAX_ATTEMPTS {
                        return Err(e);
                    }
                    let base = 1u64 << attempt.min(6);
                    let jitter = self.seeds.below(base);
                    std::thread::sleep(Duration::from_millis(base + jitter));
                    tracer.child(Kind::Backoff, t3, tracer.now());
                }
            }
        }
    }

    pub fn scan(&mut self, tracer: &mut Tracer) -> Result<Vec<(UserKey, Value)>, SuiteError> {
        self.run(tracer, |suite| suite.scan())
    }

    pub fn insert_many(
        &mut self,
        tracer: &mut Tracer,
        entries: &[(Key, Value)],
    ) -> Result<(), SuiteError> {
        self.run(tracer, |suite| suite.insert_many(entries).map(drop))
    }

    pub fn delete_many(&mut self, tracer: &mut Tracer, keys: &[Key]) -> Result<(), SuiteError> {
        self.run(tracer, |suite| suite.delete_many(keys).map(drop))
    }
}

/// The four point operations, over the network here and in process in
/// `workloads`; `t` records the spans of the call.
pub trait Directory {
    fn lookup(&mut self, t: &mut Tracer, key: &Key) -> Result<LookupOutcome, SuiteError>;
    fn insert(&mut self, t: &mut Tracer, key: &Key, v: &Value) -> Result<(), SuiteError>;
    fn update(&mut self, t: &mut Tracer, key: &Key, v: &Value) -> Result<(), SuiteError>;
    fn delete(&mut self, t: &mut Tracer, key: &Key) -> Result<(), SuiteError>;
}

impl Directory for RemoteDirectory {
    fn lookup(&mut self, t: &mut Tracer, key: &Key) -> Result<LookupOutcome, SuiteError> {
        self.run(t, |suite| suite.lookup(key))
    }
    fn insert(&mut self, t: &mut Tracer, key: &Key, v: &Value) -> Result<(), SuiteError> {
        self.run(t, |suite| suite.insert(key, v).map(drop))
    }
    fn update(&mut self, t: &mut Tracer, key: &Key, v: &Value) -> Result<(), SuiteError> {
        self.run(t, |suite| suite.update(key, v).map(drop))
    }
    fn delete(&mut self, t: &mut Tracer, key: &Key) -> Result<(), SuiteError> {
        self.run(t, |suite| suite.delete(key).map(drop))
    }
}
