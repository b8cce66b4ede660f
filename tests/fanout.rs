//! Equivalence and stress tests for the suite's scatter-gather fan-out.
//!
//! The wave executor changes *when* member RPCs run, never *what* runs:
//! every wave is the same RPC set a sequential walk would issue, replies
//! merge through order-independent folds (`pick_reply`, vote counting,
//! per-slot chain integration), and counters are bumped by the coordinator
//! before each wave. These tests pin that claim: op-for-op agreement with
//! the sequential spec, exact transcript and counter agreement
//! between remote clients whose completions race on a zero-delay fabric and
//! the same clients serialized (`reference::Inline`), and a multi-thread
//! stress run against one shared fabric.

mod support;

use repdir::baselines::reference::Inline;
use repdir::core::proptest_mini::collection::vec;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, RandomPolicy, SuiteConfig};
use repdir::core::{RepClient, RepId};
use repdir::net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient};
use repdir::replica::RemoteSessionClient;
use repdir::txn::TxnId;
use repdir::workload::spec::{self, Op, Shape, Spec, POINT};
use std::sync::Arc;
use std::time::Duration;
use support::{serve_reps, Served};

/// Replays `ops` through one transaction's remote clients, each wrapped by
/// `wrap`, against fresh representatives served over a zero-delay fabric,
/// returning a debug transcript of every outcome plus the final counters.
fn replay<C: RepClient>(
    ops: &[Op],
    seed: u64,
    config: SuiteConfig,
    batch: usize,
    wrap: impl Fn(RemoteSessionClient) -> C,
) -> (Vec<String>, Vec<u64>, Vec<u64>) {
    let net = Arc::new(Network::new(seed));
    let members = 0..config.member_count() as u32;
    let (_, _servers) = serve_reps(&net, members.end);
    let rpc = Arc::new(RpcClient::new(net, NodeId(0)));
    let clients = members
        .map(|i| {
            let client =
                RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), TxnId(1));
            client.begin().expect("healthy fabric");
            wrap(client)
        })
        .collect();
    let mut suite =
        DirSuite::new(clients, config, Box::new(RandomPolicy::new(seed))).expect("suite");
    suite.set_neighbor_batch(batch);
    let mut log = Vec::with_capacity(ops.len());
    for op in ops {
        let outcome = match op {
            Op::Insert(k, v) => format!("{:?}", suite.insert(k, v)),
            Op::Update(k, v) => format!("{:?}", suite.update(k, v)),
            Op::Delete(k) => format!("{:?}", suite.delete(k)),
            Op::Lookup(k) => format!("{:?}", suite.lookup(k)),
            op => unreachable!("{op:?} is not a point operation"),
        };
        log.push(outcome);
    }
    (
        log,
        suite.message_counts().to_vec(),
        suite.ping_counts().to_vec(),
    )
}

/// The suite agrees op-for-op with the sequential spec, and remote clients
/// whose completions race agree with the same clients serialized on every
/// outcome *and* on the exact per-member message/ping counters: waves are
/// the same RPC sets whether they run concurrently or one by one. Shapes:
/// `dense_u8` (96 cases), `spread` and `inline_straddle`.
#[test]
fn fanout_matches_model_and_sequential_counters() {
    spec::check(
        &[
            (Shape::DenseU8(16), 96),
            (Shape::Spread(16), 12),
            (Shape::InlineStraddle(16), 12),
        ],
        |shape| {
            (
                vec(shape.op(POINT), 1..80),
                any::<u64>(),
                0usize..3,
                1usize..4,
            )
        },
        |_, (ops, seed, cfg_choice, batch)| {
            let (n, r, w) = [(3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
            let config = SuiteConfig::symmetric(n, r, w).expect("legal");

            // In-process run, checked against the spec op for op.
            let mut suite = DirSuite::in_process(config.clone(), seed).expect("suite");
            suite.set_neighbor_batch(batch);
            let mut spec = Spec::new();
            for op in &ops {
                prop_assert_eq!(op.run(&mut suite), spec.apply(op), "{:?}", op);
            }

            // Same seed, racing and serialized completions: identical
            // transcripts, identical per-member counters (hence identical
            // totals).
            let (log_fan, msgs_fan, pings_fan) = replay(&ops, seed, config.clone(), batch, |c| c);
            let (log_seq, msgs_seq, pings_seq) = replay(&ops, seed, config, batch, Inline);
            prop_assert_eq!(log_fan, log_seq);
            prop_assert_eq!(msgs_fan, msgs_seq);
            prop_assert_eq!(pings_fan, pings_seq);
        },
    );
}

/// Multiple threads drive concurrent fan-out operations over one shared
/// fabric: every thread runs its operations, each a transaction of its own,
/// through one networked directory whose members are reached through a
/// single `RpcClient`, and the fabric adds latency so in-flight RPCs from
/// different threads genuinely overlap in the router.
#[test]
fn concurrent_fanout_suites_share_one_fabric() {
    const THREADS: u32 = 4;
    const KEYS_PER_THREAD: u32 = 6;

    let net = Arc::new(Network::new(77));
    net.set_fault_plan(FaultPlan {
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        latency: LatencyModel {
            base: Duration::from_micros(200),
            jitter: Duration::from_micros(300),
        },
    });
    let cluster = Served::new(&net, NodeId(0), Duration::from_secs(10), 77);
    let dir = &cluster.dir;
    let shape = Shape::DenseU8((THREADS * KEYS_PER_THREAD) as usize);

    // Phase 1: every thread inserts its own key range, concurrently.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shape = &shape;
            scope.spawn(move || {
                for i in 0..KEYS_PER_THREAD {
                    let key = shape.key((t * KEYS_PER_THREAD + i) as usize);
                    dir.insert(&key, &shape.value(t as u8)).unwrap();
                    assert!(dir.lookup(&key).unwrap().present);
                }
            });
        }
    });

    // Phase 2: concurrent churn. Each thread deletes and re-inserts its own
    // *first* key; with phase 1 complete, every delete's coalesce range is
    // bracketed by immediate neighbors no other thread touches, so the
    // concurrent deletes are disjoint.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let shape = &shape;
            scope.spawn(move || {
                let first = shape.key((t * KEYS_PER_THREAD) as usize);
                dir.delete(&first).unwrap();
                assert!(!dir.lookup(&first).unwrap().present);
                dir.insert(&first, &shape.value(0xFF)).unwrap();
            });
        }
    });

    // Every thread's keys are visible to later transactions.
    for t in 0..THREADS {
        for i in 0..KEYS_PER_THREAD {
            let key = shape.key((t * KEYS_PER_THREAD + i) as usize);
            assert!(dir.lookup(&key).unwrap().present, "{key:?}");
        }
    }
    let listed = dir.scan().unwrap();
    assert_eq!(listed.len(), (THREADS * KEYS_PER_THREAD) as usize);
}
