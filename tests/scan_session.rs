//! Session-quorum scan: equivalence and fault-injection coverage.
//!
//! The session scan changes *how much* coordination a scan pays — one
//! quorum collection for the whole walk, carried by its first chain request,
//! and one envelope per member per `bulk_chunk` entries — never *what* it
//! returns. The property test pins that: over randomized insert/delete/scan
//! interleavings, the session scan, the per-hop baseline
//! (`reference::per_hop_scan`), and a `BTreeMap` model agree
//! entry-for-entry, while the session side pays exactly one collection and
//! no ping per failure-free scan and strictly fewer data RPCs.
//!
//! The fault-injection tests run the networked stack and kill a session
//! member mid-walk: the scan must re-validate exactly once and complete
//! correctly, and a dead majority must surface `QuorumUnavailable` in
//! bounded time rather than hang.

use repdir::baselines::reference::per_hop_scan;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, FixedPolicy, SuiteConfig};
use repdir::core::{
    Completion, Key, Op as RepOp, QuorumKind, RepClient, RepId, RepResult, Reply, SuiteError,
    UserKey, Value,
};
use repdir::net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir::replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir::txn::TxnId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u8),
    Delete(u8),
    Scan,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 12, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 12)),
        any::<u8>().prop_map(|_| Op::Scan),
    ]
}

fn key_of(k: u8) -> Key {
    Key::User(UserKey::from_u64(k as u64))
}

fn value_of(v: u8) -> Value {
    Value::from(vec![v])
}

fn waves_and_pings(suite: &DirSuite<impl RepClient + 'static>) -> (u64, u64) {
    let snap = suite.obs().snapshot();
    (
        snap.counter("suite.quorum.waves"),
        suite.ping_counts().iter().sum(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Session+batched scan ≡ per-hop baseline ≡ `BTreeMap` model, with the
    /// exact coordination price pinned: every failure-free session scan
    /// collects exactly one quorum (carried, so nobody is pinged) and sends
    /// strictly fewer data RPCs than the baseline scan of the same state.
    #[test]
    fn session_scan_matches_baseline_and_model(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
        cfg_choice in 0usize..3,
    ) {
        let (n, r, w) = [(3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
        let config = SuiteConfig::symmetric(n, r, w).expect("legal config");

        // Both suites follow the same seed-derived fixed quorum order, so
        // they hold identical representative states (same write quorums)
        // and their scans read the same members — making the data-RPC
        // comparison exact rather than confounded by quorum choice.
        let rot = (seed % n as u64) as usize;
        let order: Vec<usize> = (0..n as usize).map(|i| (i + rot) % n as usize).collect();
        let mut session = DirSuite::in_process(config.clone(), seed).expect("suite");
        session.set_policy(Box::new(FixedPolicy::with_order(order.clone())));
        let mut baseline = DirSuite::in_process(config, seed).expect("suite");
        baseline.set_policy(Box::new(FixedPolicy::with_order(order)));
        let mut model: BTreeMap<u8, u8> = BTreeMap::new();

        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let a = session.insert(&key_of(k), &value_of(v));
                    let b = baseline.insert(&key_of(k), &value_of(v));
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        prop_assert!(a.is_ok() && b.is_ok());
                        e.insert(v);
                    } else {
                        prop_assert!(a.is_err() && b.is_err());
                    }
                }
                Op::Delete(k) => {
                    let a = session.delete(&key_of(k));
                    let b = baseline.delete(&key_of(k));
                    if model.remove(&k).is_some() {
                        prop_assert!(a.is_ok() && b.is_ok());
                    } else {
                        prop_assert!(a.is_err() && b.is_err());
                    }
                }
                Op::Scan => {
                    let (s_waves0, s_pings0) = waves_and_pings(&session);
                    let s_msgs0: u64 = session.message_counts().iter().sum();
                    let listed = session.scan().expect("session scan");

                    let (s_waves1, s_pings1) = waves_and_pings(&session);
                    prop_assert_eq!(
                        s_waves1 - s_waves0, 1,
                        "failure-free session scan must collect exactly one quorum"
                    );
                    prop_assert_eq!(
                        s_pings1 - s_pings0, 0,
                        "the collection carries the first chain request"
                    );
                    let s_msgs: u64 =
                        session.message_counts().iter().sum::<u64>() - s_msgs0;

                    let b_msgs0: u64 = baseline.message_counts().iter().sum();
                    let (b_waves0, _) = waves_and_pings(&baseline);
                    let from_baseline = per_hop_scan(&mut baseline).expect("baseline scan");
                    let (b_waves1, _) = waves_and_pings(&baseline);
                    let b_msgs: u64 =
                        baseline.message_counts().iter().sum::<u64>() - b_msgs0;

                    prop_assert_eq!(
                        b_waves1 - b_waves0, model.len() as u64 + 1,
                        "baseline collects once per hop"
                    );
                    prop_assert!(
                        s_msgs < b_msgs,
                        "session scan must send fewer data RPCs ({} vs {})",
                        s_msgs, b_msgs
                    );

                    let expect: Vec<(UserKey, Value)> = model
                        .iter()
                        .map(|(mk, mv)| (UserKey::from_u64(*mk as u64), value_of(*mv)))
                        .collect();
                    prop_assert_eq!(&listed, &expect, "session scan vs model");
                    prop_assert_eq!(&from_baseline, &expect, "baseline scan vs model");
                }
            }
        }
        let _ = w;
    }
}

/// Forwards to a [`RemoteSessionClient`] but, when a shared fuse counts
/// down to zero across envelopes, slows the victim nodes to well past
/// the RPC timeout — a member death injected *mid-walk*, after the session
/// quorum was collected and used.
struct FuseClient {
    inner: RemoteSessionClient,
    fuse: Arc<AtomicI64>,
    net: Arc<Network>,
    victims: Vec<NodeId>,
}

impl FuseClient {
    /// Ticks the fuse on every envelope — a request of more than one
    /// operation, which is exactly what travels as a `Batch` frame — and the
    /// one that burns it down slows the victims past the RPC timeout.
    fn tick(&self, ops: &[RepOp]) {
        if ops.len() > 1 && self.fuse.fetch_sub(1, Ordering::SeqCst) == 1 {
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
    fn execute(&self, ops: &[RepOp]) -> RepResult<Vec<Reply>> {
        self.tick(ops);
        self.inner.execute(ops)
    }
    fn start(&self, ops: &[RepOp], done: Completion) {
        self.tick(ops);
        self.inner.start(ops, done)
    }
}

struct Fixture {
    suite: DirSuite<FuseClient>,
    fuse: Arc<AtomicI64>,
    _handles: Vec<ServerHandle>,
}

/// Three networked representatives under a fixed quorum order: the session
/// quorum is always {0, 1}, and `victims` are the nodes the fuse slows.
fn networked_suite(victims: Vec<NodeId>) -> Fixture {
    let net = Arc::new(Network::new(0xFA17));
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

#[test]
fn mid_scan_partitioned_member_revalidates_once_and_completes() {
    let mut fx = networked_suite(vec![NodeId(101)]);
    let keys: Vec<Key> = (0..8u64).map(|i| Key::User(UserKey::from_u64(i))).collect();
    for key in &keys {
        fx.suite.insert(key, &Value::from("v")).unwrap();
    }

    // Chains of two: the collection carries the first (a bare request), and
    // every later wave is one envelope per member — values and the next
    // chain. The third envelope opens the scan's third wave and slows node
    // 101 (member 1, in the session quorum {0, 1}) past the 300ms RPC
    // timeout before its own envelope is sent: a mid-walk loss.
    fx.suite.set_bulk_chunk(2);
    fx.fuse.store(3, Ordering::SeqCst);
    let listed = fx.suite.scan().expect("scan must survive one member loss");
    assert_eq!(
        listed.iter().map(|(u, _)| u.clone()).collect::<Vec<_>>(),
        (0..8u64).map(UserKey::from_u64).collect::<Vec<_>>(),
        "scan completes correctly through the failure"
    );

    let snap = fx.suite.obs().snapshot();
    assert_eq!(
        snap.counter("suite.session.revalidate"),
        1,
        "exactly one re-validation for one mid-scan member loss"
    );
    assert!(snap.counter("suite.session.reuse") > 0);
    assert!(fx.suite.session(QuorumKind::Read).is_none());
}

#[test]
fn dead_majority_mid_scan_fails_fast_with_quorum_unavailable() {
    let mut fx = networked_suite(vec![NodeId(101), NodeId(102)]);
    for i in 0..8u64 {
        fx.suite
            .insert(&Key::User(UserKey::from_u64(i)), &Value::from("v"))
            .unwrap();
    }

    // Nodes 101 and 102 both go dark mid-scan (third envelope, as above):
    // member 0 alone holds one of the two votes a read quorum needs, so
    // re-validation must fail with QuorumUnavailable — bounded by RPC
    // timeouts, not a hang.
    fx.suite.set_bulk_chunk(2);
    fx.fuse.store(3, Ordering::SeqCst);
    let started = Instant::now();
    let err = fx.suite.scan().expect_err("majority is dead");
    assert!(
        matches!(
            err,
            SuiteError::QuorumUnavailable {
                kind: QuorumKind::Read,
                ..
            }
        ),
        "got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "failure must surface within the RPC-timeout budget"
    );
}
