//! Session-quorum scan: equivalence and fault-injection coverage.
//!
//! The session scan changes *how much* coordination a scan pays — one
//! quorum collection for the whole walk, carried by its first chain request,
//! and one envelope per member per `bulk_chunk` entries — never *what* it
//! returns. The property test pins that: over randomized insert/delete/scan
//! interleavings, the session scan, the per-hop baseline
//! (`reference::per_hop_scan`), and the sequential spec agree
//! entry-for-entry, while the session side pays exactly one collection and
//! no ping per failure-free scan and strictly fewer data RPCs (as many,
//! when the directory is empty).
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

mod support;

use repdir::baselines::reference::per_hop_scan;
use repdir::core::proptest_mini::collection::vec;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::rng::SplitMix64;
use repdir::core::suite::{DirSuite, FixedPolicy, SuiteConfig};
use repdir::core::{
    Key, LocalRep, QuorumKind, RepId, SuiteError, UserKey, Value, INLINE_VALUE_MAX,
};
use repdir::net::NodeId;
use repdir::workload::spec::{self, Kind, Op, Shape, Spec, CHUNK_STRADDLE};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use support::{big, networked_suite, waves_and_pings, Counted, Fixture};

/// Session+batched scan ≡ per-hop baseline ≡ sequential spec, with the
/// exact coordination price pinned: every failure-free session scan
/// collects exactly one quorum (carried, so nobody is pinged) and sends
/// fewer data RPCs than the baseline scan of the same state — as many, one
/// chain round each, when the directory is empty. Shapes: `dense_u8` (64
/// cases), `chunk_straddle` and `inline_straddle`.
#[test]
fn session_scan_matches_baseline_and_model() {
    let mut shapes = vec![(Shape::DenseU8(12), 64), (Shape::InlineStraddle(12), 3)];
    shapes.extend(CHUNK_STRADDLE.map(|n| (Shape::ChunkStraddle(n), 3)));
    const MIX: &[(u32, Kind)] = &[
        (2, Kind::Insert),
        (2, Kind::Delete),
        (2, Kind::Scan),
        (1, Kind::InsertMany),
        (1, Kind::DeleteMany),
    ];
    spec::check(
        &shapes,
        |shape| (vec(shape.op(MIX), 1..60), any::<u64>(), 0usize..3),
        |_, (ops, seed, cfg_choice)| {
            let (n, r, w) = [(3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
            let config = SuiteConfig::symmetric(n, r, w).expect("legal config");

            // Both suites follow the same seed-derived fixed quorum order,
            // so they hold identical representative states (same write
            // quorums) and their scans read the same members — making the
            // data-RPC comparison exact rather than confounded by quorum
            // choice.
            let rot = (seed % n as u64) as usize;
            let order: Vec<usize> = (0..n as usize).map(|i| (i + rot) % n as usize).collect();
            let mut session = DirSuite::in_process(config.clone(), seed).expect("suite");
            session.set_policy(Box::new(FixedPolicy::with_order(order.clone())));
            let mut baseline = DirSuite::in_process(config, seed).expect("suite");
            baseline.set_policy(Box::new(FixedPolicy::with_order(order)));
            let mut spec = Spec::new();

            for op in &ops {
                if *op != Op::Scan {
                    let expect = spec.apply(op);
                    prop_assert_eq!(op.run(&mut session), expect.clone(), "{:?}", op);
                    prop_assert_eq!(op.run(&mut baseline), expect, "{:?}", op);
                    continue;
                }
                let (s_waves0, s_pings0) = waves_and_pings(&session);
                let s_msgs0: u64 = session.message_counts().iter().sum();
                let listed = session.scan().expect("session scan");

                let (s_waves1, s_pings1) = waves_and_pings(&session);
                prop_assert_eq!(
                    s_waves1 - s_waves0,
                    1,
                    "failure-free session scan must collect exactly one quorum"
                );
                prop_assert_eq!(
                    s_pings1 - s_pings0,
                    0,
                    "the collection carries the first chain request"
                );
                let s_msgs: u64 = session.message_counts().iter().sum::<u64>() - s_msgs0;

                let b_msgs0: u64 = baseline.message_counts().iter().sum();
                let (b_waves0, _) = waves_and_pings(&baseline);
                let from_baseline = per_hop_scan(&mut baseline).expect("baseline scan");
                let (b_waves1, _) = waves_and_pings(&baseline);
                let b_msgs: u64 = baseline.message_counts().iter().sum::<u64>() - b_msgs0;

                prop_assert_eq!(
                    b_waves1 - b_waves0,
                    spec.scan().len() as u64 + 1,
                    "baseline collects once per hop"
                );
                if spec.scan().is_empty() {
                    // One chain round each: the search's sentinel costs no
                    // lookup.
                    prop_assert_eq!(s_msgs, b_msgs, "an empty scan");
                } else {
                    prop_assert!(
                        s_msgs < b_msgs,
                        "session scan must send fewer data RPCs ({} vs {})",
                        s_msgs,
                        b_msgs
                    );
                }

                let expect = spec.scan();
                prop_assert_eq!(&listed, &expect, "session scan vs spec");
                prop_assert_eq!(&from_baseline, &expect, "baseline scan vs spec");
            }
        },
    );
}

/// Value sizes on both sides of `INLINE_VALUE_MAX`; the first four ride a
/// chain.
const SIZES: [usize; 6] = [0, 1, 63, 64, 65, 300];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A scan over values straddling the inline bound lists the spec,
    /// sends one `Lookup` per value too large to ride, and costs exactly
    /// its chain waves when no value is. Shapes: `spread` keys, as many
    /// entries as `chunk_straddle` draws, with ghosts among them, and
    /// values of `SIZES`.
    #[test]
    fn scan_straddling_the_inline_bound_matches_model(
        seed in any::<u64>(),
        n_pick in 0usize..CHUNK_STRADDLE.len(),
        ghosts in 0usize..6,
        wide_chunk in any::<bool>(),
        small_only in any::<bool>(),
    ) {
        let n = CHUNK_STRADDLE[n_pick];
        let chunk = if wide_chunk { 64 } else { 4 };
        let sizes = if small_only { &SIZES[..4] } else { &SIZES[..] };
        let case = format!("seed {seed:#x} N={n} g={ghosts} chunk={chunk} small_only={small_only}");
        let clients = (0..3)
            .map(|i| Counted::new(LocalRep::new(RepId(i))))
            .collect();
        let config = SuiteConfig::symmetric(3, 2, 2).expect("legal config");
        let order = |o: [usize; 3]| Box::new(FixedPolicy::with_order(o.to_vec()));
        let mut suite = DirSuite::new(clients, config, order([0, 1, 2])).expect("suite");
        suite.set_bulk_chunk(chunk);

        // The shape's slots in an order drawn from the seed: the first `n`
        // are entries, the rest ghosts among them.
        let shape = Shape::Spread(n + ghosts);
        let mut slots: Vec<usize> = (0..n + ghosts).collect();
        SplitMix64::new(seed).shuffle(&mut slots);
        let entries: Vec<(Key, Value)> = slots[..n]
            .iter()
            .enumerate()
            .map(|(i, &slot)| {
                let size = sizes[(seed.rotate_left(i as u32) ^ i as u64) as usize % sizes.len()];
                (shape.key(slot), Value::from(vec![i as u8; size]))
            })
            .collect();
        let mut spec = Spec::new();
        spec.insert_many(&entries).expect("distinct keys");
        // Ghosts: written through {0, 1}, deleted through {1, 2}, so member 0
        // of the scan's read quorum {0, 1} still holds them.
        let doomed: Vec<(Key, Value)> = slots[n..]
            .iter()
            .map(|&slot| (shape.key(slot), Value::from(vec![0; 300])))
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

        let lookups = |suite: &DirSuite<Counted<LocalRep>>| -> u64 {
            (0..3).map(|i| suite.member(i).lookups.load(Ordering::SeqCst)).sum()
        };
        let rounds = suite.obs().counter("suite.rounds");
        let (rounds_before, lookups_before) = (rounds.get(), lookups(&suite));
        let listed = suite.scan().expect("scan");
        let spent = rounds.get() - rounds_before;

        let expect = spec.scan();
        prop_assert_eq!(&listed, &expect, "{}", case);
        let large = expect.iter().filter(|(_, v)| v.len() > INLINE_VALUE_MAX).count();
        prop_assert_eq!(lookups(&suite) - lookups_before, large as u64, "{}", case);
        let chains = (n + ghosts + 1).div_ceil(chunk) as u64;
        if large == 0 {
            prop_assert_eq!(spent, chains, "{}", case);
        } else {
            prop_assert!((chains..=chains + 1).contains(&spent), "{} rounds={}", case, spent);
        }
    }
}

/// The fused suite of these tests, ticking on requests of at least
/// `ticks_at` operations: 2 for the envelopes, 1 for every data request.
fn fused(victims: Vec<NodeId>, ticks_at: usize) -> Fixture {
    networked_suite(0xFA17, victims, ticks_at)
}

#[test]
fn mid_scan_partitioned_member_revalidates_once_and_completes() {
    let mut fx = fused(vec![NodeId(101)], 2);
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
    let mut fx = fused(vec![NodeId(101), NodeId(102)], 2);
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
    let mut fx = fused(vec![NodeId(101)], 1);
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
    let mut fx = fused(vec![NodeId(101), NodeId(102)], 1);
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
