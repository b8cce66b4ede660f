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
//! A second property straddles the inline bound: values of 0, 1, 63, 64, 65
//! and 300 bytes in one directory, spread keys, with and without ghosts.
//! The scan lists the model, sends exactly one `Lookup` per value over
//! `INLINE_VALUE_MAX` bytes, and when no value is that large it is its
//! ⌈(entries + ghosts + 1) / chunk⌉ chain waves and nothing more.
//!
//! The fault-injection tests run the networked stack and kill a session
//! member mid-walk: the scan must re-validate exactly once and complete
//! correctly, and a dead majority must surface `QuorumUnavailable` in
//! bounded time rather than hang. Each runs twice: over values too large to
//! ride a chain, whose waves are envelopes of lookups and the next chain,
//! and over small values, whose waves are bare chain requests.

use repdir::baselines::reference::per_hop_scan;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, FixedPolicy, SuiteConfig};
use repdir::core::{
    Completion, Key, LocalRep, Op as RepOp, QuorumKind, RepClient, RepId, RepResult, Reply,
    SuiteError, UserKey, Value, INLINE_VALUE_MAX,
};
use repdir::net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir::replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir::txn::TxnId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
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

/// A [`LocalRep`] that counts the `Lookup` operations it is sent.
struct CountsLookups {
    inner: LocalRep,
    lookups: AtomicU64,
}

impl RepClient for CountsLookups {
    fn id(&self) -> RepId {
        self.inner.id()
    }
    fn execute(&self, ops: &[RepOp]) -> RepResult<Vec<Reply>> {
        let lookups = ops.iter().filter(|op| matches!(op, RepOp::Lookup(_)));
        self.lookups
            .fetch_add(lookups.count() as u64, Ordering::SeqCst);
        self.inner.execute(ops)
    }
}

/// Value sizes on both sides of `INLINE_VALUE_MAX`; the first four ride a
/// chain.
const SIZES: [usize; 6] = [0, 1, 63, 64, 65, 300];

/// The `i`th of `count` distinct keys drawn from `seed`: an odd stride
/// through 2^14 slots, each slot `<< 50` so the keys fall across all 256
/// leading-byte buckets.
fn spread_key(seed: u64, i: u64) -> UserKey {
    let slot = (seed >> 14).wrapping_add(i.wrapping_mul(seed | 1)) & 0x3fff;
    UserKey::from_u64(slot << 50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A scan over values straddling the inline bound lists the model,
    /// sends one `Lookup` per value too large to ride, and costs exactly
    /// its chain waves when no value is.
    #[test]
    fn scan_straddling_the_inline_bound_matches_model(
        seed in any::<u64>(),
        n_pick in 0usize..4,
        ghosts in 0u64..6,
        wide_chunk in any::<bool>(),
        small_only in any::<bool>(),
    ) {
        let n = [63u64, 64, 65, 129][n_pick];
        let chunk = if wide_chunk { 64 } else { 4 };
        let sizes = if small_only { &SIZES[..4] } else { &SIZES[..] };
        let case = format!("seed {seed:#x} N={n} g={ghosts} chunk={chunk} small_only={small_only}");
        let clients = (0..3)
            .map(|i| CountsLookups {
                inner: LocalRep::new(RepId(i)),
                lookups: AtomicU64::new(0),
            })
            .collect();
        let config = SuiteConfig::symmetric(3, 2, 2).expect("legal config");
        let order = |o: [usize; 3]| Box::new(FixedPolicy::with_order(o.to_vec()));
        let mut suite = DirSuite::new(clients, config, order([0, 1, 2])).expect("suite");
        suite.set_bulk_chunk(chunk);

        let mut model = BTreeMap::new();
        let entries: Vec<(Key, Value)> = (0..n)
            .map(|i| {
                let size = sizes[(seed.rotate_left(i as u32) ^ i) as usize % sizes.len()];
                let value = Value::from(vec![i as u8; size]);
                model.insert(spread_key(seed, i), value.clone());
                (Key::User(spread_key(seed, i)), value)
            })
            .collect();
        // Ghosts: written through {0, 1}, deleted through {1, 2}, so member 0
        // of the scan's read quorum {0, 1} still holds them.
        let doomed: Vec<(Key, Value)> = (n..n + ghosts)
            .map(|i| (Key::User(spread_key(seed, i)), Value::from(vec![0; 300])))
            .collect();
        for batch in [&entries, &doomed] {
            if !batch.is_empty() {
                suite.insert_many(batch).expect("insert_many");
            }
        }
        if !doomed.is_empty() {
            suite.set_policy(order([1, 2, 0]));
            let keys: Vec<Key> = doomed.iter().map(|(key, _)| key.clone()).collect();
            suite.delete_many(&keys).expect("delete_many");
            suite.set_policy(order([0, 1, 2]));
        }

        let lookups = |suite: &DirSuite<CountsLookups>| -> u64 {
            (0..3).map(|i| suite.member(i).lookups.load(Ordering::SeqCst)).sum()
        };
        let rounds = suite.obs().counter("suite.rounds");
        let (rounds_before, lookups_before) = (rounds.get(), lookups(&suite));
        let listed = suite.scan().expect("scan");
        let spent = rounds.get() - rounds_before;

        let expect: Vec<(UserKey, Value)> = model.into_iter().collect();
        prop_assert_eq!(&listed, &expect, "{}", case);
        let large = expect.iter().filter(|(_, v)| v.len() > INLINE_VALUE_MAX).count();
        prop_assert_eq!(lookups(&suite) - lookups_before, large as u64, "{}", case);
        let chains = (n + ghosts + 1).div_ceil(chunk as u64);
        if large == 0 {
            prop_assert_eq!(spent, chains, "{}", case);
        } else {
            prop_assert!((chains..=chains + 1).contains(&spent), "{} rounds={}", case, spent);
        }
    }
}

/// Forwards to a [`RemoteSessionClient`] but, when a shared fuse counts
/// down to zero across requests of at least `ticks_at` operations, slows
/// the victim nodes to well past the RPC timeout — a member death injected
/// *mid-walk*, after the session quorum was collected and used.
struct FuseClient {
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
    fn tick(&self, ops: &[RepOp]) {
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
/// quorum is always {0, 1}, `victims` are the nodes the fuse slows, and the
/// fuse ticks on envelopes.
fn networked_suite(victims: Vec<NodeId>) -> Fixture {
    networked_suite_ticking_at(victims, 2)
}

/// [`networked_suite`] whose fuse ticks on requests of at least `ticks_at`
/// operations.
fn networked_suite_ticking_at(victims: Vec<NodeId>, ticks_at: usize) -> Fixture {
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

/// A value one byte too large to ride a chain.
fn big() -> Value {
    Value::from(vec![b'v'; INLINE_VALUE_MAX + 1])
}

#[test]
fn mid_scan_partitioned_member_revalidates_once_and_completes() {
    let mut fx = networked_suite(vec![NodeId(101)]);
    let keys: Vec<Key> = (0..8u64).map(|i| Key::User(UserKey::from_u64(i))).collect();
    for key in &keys {
        fx.suite.insert(key, &big()).unwrap();
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
            .insert(&Key::User(UserKey::from_u64(i)), &big())
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

#[test]
fn mid_scan_partitioned_member_over_small_values_revalidates_once() {
    // Twin of the test above over values that ride the chains: every wave
    // is one bare chain request per member, so the fuse ticks on every data
    // request. The collection sends two; the third opens the second wave
    // and slows node 101 before member 1's request leaves.
    let mut fx = networked_suite_ticking_at(vec![NodeId(101)], 1);
    for i in 0..8u64 {
        fx.suite
            .insert(&Key::User(UserKey::from_u64(i)), &Value::from("v"))
            .unwrap();
    }
    fx.suite.set_bulk_chunk(2);
    fx.fuse.store(3, Ordering::SeqCst);
    let listed = fx.suite.scan().expect("scan must survive one member loss");
    let expect: Vec<(UserKey, Value)> = (0..8u64)
        .map(|i| (UserKey::from_u64(i), Value::from("v")))
        .collect();
    assert_eq!(listed, expect);
    assert!(
        fx.fuse.load(Ordering::SeqCst) <= 0,
        "the fuse burned mid-walk"
    );
    let snap = fx.suite.obs().snapshot();
    assert_eq!(snap.counter("suite.session.revalidate"), 1);
    assert!(fx.suite.session(QuorumKind::Read).is_none());
}

#[test]
fn dead_majority_mid_scan_over_small_values_fails_fast() {
    // Twin of the dead-majority test over values that ride the chains.
    let mut fx = networked_suite_ticking_at(vec![NodeId(101), NodeId(102)], 1);
    for i in 0..8u64 {
        fx.suite
            .insert(&Key::User(UserKey::from_u64(i)), &Value::from("v"))
            .unwrap();
    }
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
    assert!(started.elapsed() < Duration::from_secs(30));
}
