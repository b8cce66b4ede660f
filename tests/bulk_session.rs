//! Bulk insert/delete on session quorums: equivalence and fault-injection
//! coverage.
//!
//! The bulk ops change *how much* coordination an ingest pays — one read-
//! and one write-quorum collection for the whole batch, batched envelopes
//! instead of per-key round trips — never *what* they do. The property test
//! pins that: over randomized bulk batches, `insert_many`/`delete_many`
//! under session quorums, the per-key baseline (`reference::*_per_key`),
//! and the sequential spec replaying the loop agree on every
//! outcome, while each successful session batch pays exactly one read and
//! one write collection and no ping: an ingest's collections carry its
//! discovery and write envelopes, a bulk delete's its first window's wave A
//! and its first group's neighbour probes.
//!
//! The fault-injection tests run the networked stack and partition a
//! session member mid-batch: the ingest must re-validate, resume from the
//! first unacknowledged key, and leave every key applied exactly once at
//! its originally assigned version — no lost write, no double-apply.

mod support;

use repdir::baselines::reference::{delete_per_key, insert_per_key, per_hop_scan};
use repdir::core::proptest_mini::collection::vec;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, FixedPolicy, SuiteConfig};
use repdir::core::{Key, UserKey, Value, Version};
use repdir::net::NodeId;
use repdir::workload::spec::{self, Answer, Kind, Op, Shape, Spec, CHUNK_STRADDLE};
use std::sync::atomic::Ordering;
use support::{networked_suite, waves_and_pings, Fixture};

/// Bulk ≡ per-key baseline ≡ sequential spec, with the exact coordination
/// price pinned: every successful nonempty session batch collects exactly
/// one read and one write quorum. Shapes: `dense_u8` (48 cases),
/// `chunk_straddle` and `inline_straddle`.
#[test]
fn bulk_ops_match_per_key_baseline_and_model() {
    let mut shapes = vec![(Shape::DenseU8(12), 48), (Shape::InlineStraddle(12), 3)];
    shapes.extend(CHUNK_STRADDLE.map(|n| (Shape::ChunkStraddle(n), 3)));
    const BULK: &[(u32, Kind)] = &[(1, Kind::InsertMany), (1, Kind::DeleteMany)];
    spec::check(
        &shapes,
        |shape| {
            (
                vec(shape.op(BULK).batch(0..12), 1..8),
                any::<u64>(),
                0usize..3,
            )
        },
        |_, (ops, seed, cfg_choice)| {
            let (n, r, w) = [(3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
            let config = SuiteConfig::symmetric(n, r, w).expect("legal config");

            // Both suites follow the same seed-derived fixed quorum order,
            // so they hold identical representative states and the
            // comparison is exact rather than confounded by quorum choice.
            let rot = (seed % n as u64) as usize;
            let order: Vec<usize> = (0..n as usize).map(|i| (i + rot) % n as usize).collect();
            let mut session = DirSuite::in_process(config.clone(), seed).expect("suite");
            session.set_policy(Box::new(FixedPolicy::with_order(order.clone())));
            let mut baseline = DirSuite::in_process(config, seed).expect("suite");
            baseline.set_policy(Box::new(FixedPolicy::with_order(order)));
            let mut spec = Spec::new();

            for op in &ops {
                let (waves0, pings0) = waves_and_pings(&session);
                let (a, b, carried) = match op {
                    Op::InsertMany(entries) => (
                        session.insert_many(entries),
                        insert_per_key(&mut baseline, entries),
                        "the collections carry the discovery and write envelopes",
                    ),
                    Op::DeleteMany(keys) => (
                        session.delete_many(keys),
                        delete_per_key(&mut baseline, keys),
                        "the collections ride wave A and the first group's neighbour probes",
                    ),
                    op => unreachable!("{op:?} is not a bulk operation"),
                };
                let (waves1, pings1) = waves_and_pings(&session);
                prop_assert_eq!(&a, &b, "bulk vs per-key loop: {:?}", op);
                // The spec replays the sequential loop: the first offending
                // key errors with the prefix applied.
                let reply = a.as_ref().map(|_| Answer::Done).map_err(Clone::clone);
                prop_assert_eq!(reply, spec.apply(op), "{:?}", op);
                if a.as_ref().is_ok_and(|out| !out.versions.is_empty()) {
                    prop_assert_eq!(
                        waves1 - waves0,
                        2,
                        "one read + one write collection per batch"
                    );
                    prop_assert_eq!(pings1 - pings0, 0, "{}", carried);
                }
            }

            // Final audit: both suites list exactly the spec.
            prop_assert_eq!(&session.scan().expect("session scan"), &spec.scan());
            prop_assert_eq!(
                &per_hop_scan(&mut baseline).expect("baseline scan"),
                &spec.scan()
            );
        },
    );
}

/// The fused suite of these tests: it ticks on every envelope — a request
/// of more than one operation, which is exactly what travels as a `Batch`
/// frame. Only a one-key ingest chunk goes bare, and these tests send
/// none: their chunks hold 16 and 64 keys.
fn fused(victims: Vec<NodeId>) -> Fixture {
    networked_suite(0xB07C, victims, 2)
}

#[test]
fn mid_ingest_partition_resumes_without_lost_or_double_applied_writes() {
    let mut fx = fused(vec![NodeId(101)]);
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
    let mut fx = fused(vec![NodeId(101)]);
    for i in 0..16u64 {
        fx.suite
            .insert(&Key::User(UserKey::from_u64(i)), &Value::from("v"))
            .unwrap();
    }

    // The batch deletes the first eight keys, two windows of four. Each
    // window is one run: a wave A and a wave B envelope per member, then a
    // bare coalesce. Node 101 goes dark inside the second window's wave A,
    // under the held sessions, after the first window's run was coalesced.
    // The resume must re-drive the rest, not report a key NotFound and not
    // leave a ghost.
    fx.suite.set_bulk_chunk(4);
    fx.fuse.store(5, Ordering::SeqCst);
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
    let mut fx = fused(vec![NodeId(101)]);
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
