//! Bulk insert/delete on session quorums: equivalence and fault-injection
//! coverage.
//!
//! The bulk ops change *how much* coordination an ingest pays — one read-
//! and one write-quorum collection for the whole batch, batched envelopes
//! instead of per-key round trips — never *what* they do. The property test
//! pins that: over randomized bulk batches, `insert_many`/`delete_many`
//! under session quorums, the per-key baseline (`reference::*_per_key`),
//! and a `BTreeMap` model replaying the sequential loop agree on every
//! outcome, while each successful session batch pays exactly one read and
//! one write collection and no ping: an ingest's collections carry its
//! discovery and write envelopes, a bulk delete's its first window's wave A
//! and its first group's neighbour probes.
//!
//! The fault-injection tests run the networked stack and partition a
//! session member mid-batch: the ingest must re-validate, resume from the
//! first unacknowledged key, and leave every key applied exactly once at
//! its originally assigned version — no lost write, no double-apply.

use repdir::baselines::reference::{delete_per_key, insert_per_key, per_hop_scan};
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, FixedPolicy, SuiteConfig};
use repdir::core::{
    Completion, Key, Op as RepOp, RepClient, RepId, RepResult, Reply, SuiteError, UserKey, Value,
    Version,
};
use repdir::net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir::replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir::txn::TxnId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Debug)]
enum Op {
    InsertMany(Vec<(u8, u8)>),
    DeleteMany(Vec<u8>),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec((any::<u8>(), any::<u8>()), 0..12)
            .prop_map(|kvs| Op::InsertMany(kvs.into_iter().map(|(k, v)| (k % 12, v)).collect())),
        proptest::collection::vec(any::<u8>(), 0..12)
            .prop_map(|ks| Op::DeleteMany(ks.into_iter().map(|k| k % 12).collect())),
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bulk ≡ per-key baseline ≡ sequential-loop model, with the exact
    /// coordination price pinned: every successful nonempty session batch
    /// collects exactly one read and one write quorum.
    #[test]
    fn bulk_ops_match_per_key_baseline_and_model(
        ops in proptest::collection::vec(op_strategy(), 1..8),
        seed in any::<u64>(),
        cfg_choice in 0usize..3,
    ) {
        let (n, r, w) = [(3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
        let config = SuiteConfig::symmetric(n, r, w).expect("legal config");

        // Both suites follow the same seed-derived fixed quorum order, so
        // they hold identical representative states and the comparison is
        // exact rather than confounded by quorum choice.
        let rot = (seed % n as u64) as usize;
        let order: Vec<usize> = (0..n as usize).map(|i| (i + rot) % n as usize).collect();
        let mut session = DirSuite::in_process(config.clone(), seed).expect("suite");
        session.set_policy(Box::new(FixedPolicy::with_order(order.clone())));
        let mut baseline = DirSuite::in_process(config, seed).expect("suite");
        baseline.set_policy(Box::new(FixedPolicy::with_order(order)));
        let mut model: BTreeMap<u8, u8> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::InsertMany(kvs) => {
                    let entries: Vec<(Key, Value)> = kvs
                        .iter()
                        .map(|&(k, v)| (key_of(k), value_of(v)))
                        .collect();
                    let (waves0, pings0) = waves_and_pings(&session);
                    let a = session.insert_many(&entries);
                    let (waves1, pings1) = waves_and_pings(&session);
                    let b = insert_per_key(&mut baseline, &entries);
                    prop_assert_eq!(&a, &b, "bulk insert vs per-key loop");

                    // Replay the sequential loop against the model: the
                    // first offending key errors with the prefix applied.
                    let mut expect_err: Option<Key> = None;
                    for &(k, v) in kvs {
                        if model.contains_key(&k) {
                            expect_err = Some(key_of(k));
                            break;
                        }
                        model.insert(k, v);
                    }
                    match expect_err {
                        Some(key) => {
                            prop_assert_eq!(a, Err(SuiteError::AlreadyExists { key }));
                        }
                        None => {
                            prop_assert!(a.is_ok(), "all-fresh batch must succeed: {:?}", a);
                            if !kvs.is_empty() {
                                prop_assert_eq!(
                                    waves1 - waves0, 2,
                                    "one read + one write collection per batch"
                                );
                                prop_assert_eq!(
                                    pings1 - pings0, 0,
                                    "the collections carry the discovery and write envelopes"
                                );
                            }
                        }
                    }
                }
                Op::DeleteMany(ks) => {
                    let keys: Vec<Key> = ks.iter().map(|&k| key_of(k)).collect();
                    let (waves0, pings0) = waves_and_pings(&session);
                    let a = session.delete_many(&keys);
                    let (waves1, pings1) = waves_and_pings(&session);
                    let b = delete_per_key(&mut baseline, &keys);
                    prop_assert_eq!(&a, &b, "bulk delete vs per-key loop");

                    let mut expect_err: Option<Key> = None;
                    for &k in ks {
                        if model.remove(&k).is_none() {
                            expect_err = Some(key_of(k));
                            break;
                        }
                    }
                    match expect_err {
                        Some(key) => {
                            prop_assert_eq!(a, Err(SuiteError::NotFound { key }));
                        }
                        None => {
                            prop_assert!(a.is_ok(), "all-present batch must succeed: {:?}", a);
                            if !ks.is_empty() {
                                prop_assert_eq!(
                                    waves1 - waves0, 2,
                                    "one read + one write collection per batch"
                                );
                                prop_assert_eq!(
                                    pings1 - pings0, 0,
                                    "the collections ride wave A and the first \
                                     group's neighbour probes"
                                );
                            }
                        }
                    }
                }
            }
        }

        // Final audit: both suites list exactly the model.
        let expect: Vec<(UserKey, Value)> = model
            .iter()
            .map(|(mk, mv)| (UserKey::from_u64(*mk as u64), value_of(*mv)))
            .collect();
        prop_assert_eq!(&session.scan().expect("session scan"), &expect);
        prop_assert_eq!(&per_hop_scan(&mut baseline).expect("baseline scan"), &expect);
    }
}

/// Forwards to a [`RemoteSessionClient`] but, when a shared fuse counts
/// down to zero across envelopes, slows the victim nodes to well past
/// the RPC timeout — a member partition injected *mid-batch*, after the
/// session quorums were collected and envelopes acknowledged.
struct FuseClient {
    inner: RemoteSessionClient,
    fuse: Arc<AtomicI64>,
    net: Arc<Network>,
    victims: Vec<NodeId>,
}

impl FuseClient {
    /// Ticks the fuse on every envelope — a request of more than one
    /// operation, which is exactly what travels as a `Batch` frame. Only a
    /// one-key ingest chunk changed shape (it now goes bare), and these
    /// tests send none: their chunks hold 16 and 64 keys. The envelope that
    /// burns the fuse down slows the victims past the RPC timeout.
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
/// quorums are always {0, 1}, and `victims` are the nodes the fuse slows.
fn networked_suite(victims: Vec<NodeId>) -> Fixture {
    let net = Arc::new(Network::new(0xB07C));
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
fn mid_ingest_partition_resumes_without_lost_or_double_applied_writes() {
    let mut fx = networked_suite(vec![NodeId(101)]);
    let entries: Vec<(Key, Value)> = (0..64u64)
        .map(|i| (Key::User(UserKey::from_u64(i)), Value::from("v")))
        .collect();

    // A 64-key ingest at chunk 16 sends four (discovery, write) envelope
    // pairs per member; the first pair is carried by the collections, the
    // rest ask the sessions those hold. The eighth batch envelope — the
    // second chunk's write to member 1, which sits in both session quorums —
    // slows node 101 past the 300ms RPC timeout: the partition lands after
    // 16 keys were acknowledged and the next 16 had versions assigned.
    fx.suite.set_bulk_chunk(16);
    fx.fuse.store(8, Ordering::SeqCst);
    let out = fx
        .suite
        .insert_many(&entries)
        .expect("ingest must survive one member partition");

    // No write lost, none double-applied: every key is present at exactly
    // the version assigned before the failure. A write re-applied from a
    // fresh discovery would carry version 2.
    assert_eq!(out.versions, vec![Version::new(1); 64]);
    for (key, _) in &entries {
        let got = fx.suite.lookup(key).expect("lookup after heal-around");
        assert!(got.present, "{key:?} lost");
        assert_eq!(got.version, Version::new(1), "{key:?} double-applied");
    }
    let listed = fx.suite.scan().expect("scan");
    assert_eq!(listed.len(), 64, "exactly the batch, nothing else");

    let snap = fx.suite.obs().snapshot();
    assert!(snap.counter("suite.session.revalidate") >= 1);
    assert_eq!(snap.counter("suite.bulk.resumed"), 1);
}

#[test]
fn mid_bulk_delete_partition_resumes_cleanly() {
    let mut fx = networked_suite(vec![NodeId(101)]);
    for i in 0..16u64 {
        fx.suite
            .insert(&Key::User(UserKey::from_u64(i)), &Value::from("v"))
            .unwrap();
    }

    // The batch deletes the first eight keys; node 101 goes dark inside one
    // of the neighbor-search envelope waves, possibly leaving that key
    // half-coalesced at the survivors. The resume must re-drive it, not
    // report it NotFound and not leave a ghost.
    fx.fuse.store(10, Ordering::SeqCst);
    let keys: Vec<Key> = (0..8u64).map(|i| Key::User(UserKey::from_u64(i))).collect();
    fx.suite
        .delete_many(&keys)
        .expect("bulk delete must survive one member partition");

    for key in &keys {
        assert!(!fx.suite.lookup(key).unwrap().present, "{key:?} survived");
    }
    let listed = fx.suite.scan().expect("scan");
    assert_eq!(
        listed.iter().map(|(u, _)| u.clone()).collect::<Vec<_>>(),
        (8..16u64).map(UserKey::from_u64).collect::<Vec<_>>(),
        "exactly the batch was deleted"
    );
    // The partition lands inside a neighbor-search envelope, so the
    // session re-validates at least once; whether the *outer* batch body
    // restarts (suite.bulk.resumed) depends on whether the nested search's
    // own retry absorbs the failure first — both recoveries are correct,
    // and the suite-level fused test pins the outer-resume path.
    let snap = fx.suite.obs().snapshot();
    assert!(snap.counter("suite.session.revalidate") >= 1);
}

#[test]
fn mid_group_partition_re_drives_the_group_and_reports_nothing_undeleted() {
    let mut fx = networked_suite(vec![NodeId(101)]);
    let key = |i: u64| Key::User(UserKey::from_u64(i));
    let entries: Vec<(Key, Value)> = (0..16).map(|i| (key(i), Value::from("v"))).collect();
    fx.suite.insert_many(&entries).unwrap();

    // Every other key goes: a survivor sits between each pair, so the eight
    // keys are one group and share their waves — two envelopes each for A,
    // B and C. The fifth opens wave C at member 0 and slows node 101 before
    // member 1's is sent: member 0 coalesces all eight, member 1 none.
    fx.fuse.store(5, Ordering::SeqCst);
    let keys: Vec<Key> = (0..8).map(|i| key(2 * i)).collect();
    let out = fx
        .suite
        .delete_many(&keys)
        .expect("bulk delete must survive one member partition");

    // The resume drove every key of the half-applied group through the
    // mutation phase again at the re-validated quorum: each reported
    // version belongs to a key that is gone, and nothing else went.
    assert_eq!(out.versions.len(), keys.len());
    for key in &keys {
        assert!(!fx.suite.lookup(key).unwrap().present, "{key:?} survived");
    }
    let listed = fx.suite.scan().expect("scan");
    assert_eq!(
        listed.iter().map(|(u, _)| u.clone()).collect::<Vec<_>>(),
        (0..8u64)
            .map(|i| UserKey::from_u64(2 * i + 1))
            .collect::<Vec<_>>(),
        "exactly the batch was deleted"
    );
    let snap = fx.suite.obs().snapshot();
    assert_eq!(
        snap.counter("suite.session.revalidate"),
        2,
        "once per held session"
    );
    assert_eq!(snap.counter("suite.bulk.resumed"), 1);
}
