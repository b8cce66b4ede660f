//! Harness pieces several root test files share: key and value helpers,
//! quorum policies, the one-transaction-per-operation world, and the fused
//! networked suite.

// Each test binary compiles this module and uses only part of it.
#![allow(dead_code)]

use repdir::core::rng::SplitMix64;
use repdir::core::suite::{DirSuite, FixedPolicy, QuorumPolicy, SuiteConfig};
use repdir::core::{
    Completion, Key, Op, QuorumKind, RepClient, RepId, RepResult, Reply, Value, INLINE_VALUE_MAX,
};
use repdir::net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir::rangelock::{KeyRange, LockMode};
use repdir::replica::{
    serve_rep, RemoteSessionClient, ReplicatedDirectory, SessionClient, TransactionalRep,
};
use repdir::txn::TxnId;
use repdir::workload::spec::{Ops, Spec};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub fn k(s: &str) -> Key {
    Key::from(s)
}

pub fn val(s: &str) -> Value {
    Value::from(s)
}

/// A value one byte too large to ride a chain.
pub fn big() -> Value {
    Value::from(vec![b'v'; INLINE_VALUE_MAX + 1])
}

/// Quorums drawn from the members in `order`.
pub fn fixed(order: &[usize]) -> Box<dyn QuorumPolicy + Send> {
    Box::new(FixedPolicy::with_order(order.to_vec()))
}

/// The suite's quorum collections and pings so far.
pub fn waves_and_pings(suite: &DirSuite<impl RepClient + 'static>) -> (u64, u64) {
    let snap = suite.obs().snapshot();
    (
        snap.counter("suite.quorum.waves"),
        suite.ping_counts().iter().sum(),
    )
}

/// One random workload step against the directory and the spec, narrowed
/// so that every write lands.
pub fn step(dir: &ReplicatedDirectory, draws: &Ops, spec: &mut Spec, rng: &mut SplitMix64) {
    let op = spec.narrow(draws.draw(rng));
    let reply = dir.run(|suite| op.run(suite));
    assert_eq!(reply, spec.apply(&op), "{op:?}");
}

/// Forwards to `C`, counting the `Lookup` operations it is sent.
pub struct Counted<C> {
    inner: C,
    pub lookups: AtomicU64,
}

impl<C> Counted<C> {
    pub fn new(inner: C) -> Counted<C> {
        Counted {
            inner,
            lookups: AtomicU64::new(0),
        }
    }

    fn count(&self, ops: &[Op]) {
        let lookups = ops.iter().filter(|op| matches!(op, Op::Lookup(_)));
        self.lookups
            .fetch_add(lookups.count() as u64, Ordering::SeqCst);
    }
}

impl<C: RepClient> RepClient for Counted<C> {
    fn id(&self) -> RepId {
        self.inner.id()
    }

    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        self.count(ops);
        self.inner.execute(ops)
    }

    fn start(&self, ops: &[Op], done: Completion) {
        self.count(ops);
        self.inner.start(ops, done)
    }
}

/// One preference order for read quorums, another for write quorums.
pub struct PerKind {
    pub read: Vec<usize>,
    pub write: Vec<usize>,
}

impl QuorumPolicy for PerKind {
    fn candidates(&mut self, kind: QuorumKind, _n: usize, _hint: Option<&Key>) -> Vec<usize> {
        match kind {
            QuorumKind::Read => self.read.clone(),
            QuorumKind::Write => self.write.clone(),
        }
    }
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates on an LCG).
pub fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (seed >> 33) as usize % (i + 1));
    }
    order
}

pub type Suite = DirSuite<SessionClient>;
pub type Footprint = Vec<(LockMode, KeyRange)>;

/// Transactional representatives driven one transaction per operation.
pub struct World {
    pub reps: Vec<Arc<TransactionalRep>>,
    config: SuiteConfig,
    neighbor_batch: usize,
    bulk_chunk: usize,
    next_txn: u64,
}

impl World {
    pub fn new(config: &SuiteConfig, neighbor_batch: usize, bulk_chunk: usize) -> World {
        let n = config.member_count() as u32;
        World {
            reps: (0..n).map(|i| TransactionalRep::new(RepId(i))).collect(),
            config: config.clone(),
            neighbor_batch,
            bulk_chunk,
            next_txn: 1,
        }
    }

    /// Runs `body` in a fresh transaction whose quorums follow `read` and
    /// `write` and commits it whatever it returns — a bulk delete that
    /// fails has deleted a prefix, and that prefix is what is compared —
    /// returning with the result the locks each representative held for it.
    pub fn transact<R>(
        &mut self,
        read: &[usize],
        write: &[usize],
        body: impl FnOnce(&mut Suite) -> R,
    ) -> (R, Vec<Footprint>) {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let clients = self.reps.iter().map(|rep| {
            rep.begin(txn).unwrap();
            SessionClient::new(Arc::clone(rep), txn)
        });
        let policy = PerKind {
            read: read.to_vec(),
            write: write.to_vec(),
        };
        let mut suite =
            DirSuite::new(clients.collect(), self.config.clone(), Box::new(policy)).unwrap();
        suite.set_neighbor_batch(self.neighbor_batch);
        suite.set_bulk_chunk(self.bulk_chunk);
        let out = body(&mut suite);
        let held = self.reps.iter().map(|rep| rep.locks_held(txn)).collect();
        for rep in &self.reps {
            rep.commit(txn).unwrap();
        }
        (out, held)
    }
}

/// Forwards to a [`RemoteSessionClient`] but, when a shared fuse counts
/// down to zero across requests of at least `ticks_at` operations, slows
/// the victim nodes to well past the RPC timeout — a member loss injected
/// mid-operation, after the session quorums were collected and used.
pub struct FuseClient {
    inner: RemoteSessionClient,
    fuse: Arc<AtomicI64>,
    net: Arc<Network>,
    victims: Vec<NodeId>,
    ticks_at: usize,
}

impl FuseClient {
    /// Ticks the fuse on every request of at least `ticks_at` operations —
    /// 2 for the envelopes, which travel as `Batch` frames, 1 for every
    /// data request — and the one that burns it down slows the victims past
    /// the RPC timeout.
    fn tick(&self, ops: &[Op]) {
        let ticks = ops.len() >= self.ticks_at;
        if ticks && self.fuse.fetch_sub(1, Ordering::SeqCst) == 1 {
            for v in &self.victims {
                self.net
                    .set_node_latency(*v, LatencyModel::fixed(Duration::from_secs(2)));
            }
        }
    }
}

impl RepClient for FuseClient {
    fn id(&self) -> RepId {
        self.inner.id()
    }
    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        self.tick(ops);
        self.inner.execute(ops)
    }
    fn start(&self, ops: &[Op], done: Completion) {
        self.tick(ops);
        self.inner.start(ops, done)
    }
}

pub struct Fixture {
    pub suite: DirSuite<FuseClient>,
    pub fuse: Arc<AtomicI64>,
    _handles: Vec<ServerHandle>,
}

/// Three networked representatives on a fabric seeded `seed`, under a fixed
/// quorum order: the session quorums are always {0, 1}, `victims` are the
/// nodes the fuse slows, and the fuse ticks on requests of at least
/// `ticks_at` operations. It starts disarmed.
pub fn networked_suite(seed: u64, victims: Vec<NodeId>, ticks_at: usize) -> Fixture {
    let net = Arc::new(Network::new(seed));
    net.set_fault_plan(FaultPlan {
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        latency: LatencyModel::fixed(Duration::from_micros(50)),
    });
    // Fuse starts deeply negative: disarmed until a test arms it.
    let fuse = Arc::new(AtomicI64::new(i64::MIN / 2));
    let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
    let mut handles = Vec::new();
    let mut clients = Vec::new();
    for i in 0..3u32 {
        let rep = TransactionalRep::new(RepId(i));
        handles.push(serve_rep(Arc::clone(&net), NodeId(100 + i), rep));
        let mut inner =
            RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), TxnId(1));
        inner.set_timeout(Duration::from_millis(300));
        inner.begin().expect("begin on a healthy fabric");
        clients.push(FuseClient {
            inner,
            fuse: Arc::clone(&fuse),
            net: Arc::clone(&net),
            victims: victims.clone(),
            ticks_at,
        });
    }
    let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
    let suite = DirSuite::new(clients, config, Box::new(FixedPolicy::new())).unwrap();
    Fixture {
        suite,
        fuse,
        _handles: handles,
    }
}
