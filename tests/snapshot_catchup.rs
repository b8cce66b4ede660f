//! Fault-injection suite for catch-up of a far-diverged member by range
//! pulls: the summary walk finds the dirty buckets, each run of them is one
//! interval whose ends are keys the receiver holds, merged in steps of at
//! most `MAX_PULL_ENTRIES` entries.
//!
//! The tentpole property, over several random histories: a member
//! partitioned through a random insert/update/delete workload converges
//! back to **byte-identical** state — surviving the source dying mid-round
//! *and* the receiver crashing before the next one — without spending a
//! single quorum collection. Every step commits as it lands, so there is no
//! resume cursor: the next round's walk is the cursor, and it pulls only
//! the buckets still dirty, never one that was levelled before the fault.
//! Each history runs twice: once with a receiver holding the keys written
//! before the partition, and once with a receiver that holds nothing, whose
//! first interval is the whole key space.

mod support;

use repdir::core::rng::SplitMix64;
use repdir::core::suite::{FixedPolicy, SuiteConfig};
use repdir::core::{Key, RepId, UserKey, Value, Version};
use repdir::repair::{
    bucket_of, BucketView, Digest, RepairError, RepairPeer, Repairer, MAX_PULL_ENTRIES,
};
use repdir::replica::{LocalRepairPeer, RepTarget, ReplicatedDirectory, TransactionalRep};
use repdir::txn::TxnId;
use repdir::workload::spec::{Op, Shape, Spec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Single-byte keys, so every key value is its own summary bucket and the
/// keys a workload leaves untouched split the dirty buckets into runs.
fn user_key(k: u8) -> Key {
    Key::User(UserKey::new(vec![k]))
}

/// The workload's keys: 48 single-byte keys, or the `bucket_straddle`
/// shape's 48 keys on both sides of 24 bucket edges.
fn keyspace(straddle: bool) -> Vec<Key> {
    match straddle {
        false => (0..48).map(user_key).collect(),
        true => Shape::BucketStraddle(24).keys().collect(),
    }
}

/// One random workload step against the directory and the spec, with the
/// quorum pinned to `order`, narrowed so that every write lands.
fn step(
    dir: &ReplicatedDirectory,
    order: &[usize],
    keys: &[Key],
    spec: &mut Spec,
    rng: &mut SplitMix64,
) {
    let key = keys[rng.next_below(keys.len() as u64) as usize].clone();
    let value = Value::from(vec![rng.next_u64() as u8]);
    let op = spec.narrow(match rng.next_below(4) {
        0 => Op::Insert(key, value),
        1 => Op::Update(key, value),
        2 => Op::Delete(key),
        _ => Op::Lookup(key),
    });
    let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::with_order(order.to_vec())));
    let reply = op.run(txn.suite_mut());
    txn.commit();
    assert_eq!(reply, spec.apply(&op), "{op:?}");
}

/// A repair peer that dies (once) after a configured number of range
/// pulls — the "source killed mid-catch-up" fault — and records the keys
/// of every reply it serves. After the death it serves normally, modelling
/// the peer's process coming back.
struct KillablePeer {
    inner: LocalRepairPeer,
    pulls_before_death: AtomicU64,
    served: Mutex<Vec<Vec<UserKey>>>,
}

impl KillablePeer {
    fn new(rep: &Arc<TransactionalRep>, pulls_before_death: u64) -> Arc<Self> {
        Arc::new(KillablePeer {
            inner: LocalRepairPeer::new(Arc::clone(rep)),
            pulls_before_death: AtomicU64::new(pulls_before_death),
            served: Mutex::new(Vec::new()),
        })
    }

    fn pulls(&self) -> usize {
        self.served.lock().unwrap().len()
    }

    /// Keys served by pull `from` onwards.
    fn keys_since(&self, from: usize) -> Vec<UserKey> {
        self.served.lock().unwrap()[from..].concat()
    }
}

/// Shared handle to a [`KillablePeer`], so the test keeps a view of the
/// recorded replies while the repairer owns the boxed peer.
struct PeerHandle(Arc<KillablePeer>);

impl RepairPeer for PeerHandle {
    fn summary(&self, level: u8, path: u8) -> Result<Vec<Digest>, RepairError> {
        self.0.inner.summary(level, path)
    }

    fn pull_range(&self, after: &Key, before: &Key) -> Result<BucketView, RepairError> {
        let left = self.0.pulls_before_death.fetch_sub(1, Ordering::Relaxed);
        if left == 0 {
            // One death, then the peer stays back up.
            self.0.pulls_before_death.store(u64::MAX, Ordering::Relaxed);
            return Err(RepairError::Unavailable);
        }
        let view = self.0.inner.pull_range(after, before)?;
        assert!(view.entries.len() <= MAX_PULL_ENTRIES);
        self.0
            .served
            .lock()
            .unwrap()
            .push(view.entries.iter().map(|e| e.key.clone()).collect());
        Ok(view)
    }
}

/// Summary buckets on which two representatives disagree, compared
/// in-process (no fabric, no quorum).
fn dirty_buckets(a: &TransactionalRep, b: &TransactionalRep) -> Vec<u8> {
    (0..16u8)
        .flat_map(|g| {
            let (da, db) = (
                a.summary_children(1, g).unwrap(),
                b.summary_children(1, g).unwrap(),
            );
            (0..16u8)
                .filter(move |&i| da[i as usize] != db[i as usize])
                .map(move |i| g * 16 + i)
        })
        .collect()
}

fn repairer_from(target: &Arc<TransactionalRep>, peers: Vec<Arc<KillablePeer>>) -> Repairer {
    Repairer::new(
        Arc::new(RepTarget::new(Arc::clone(target))),
        peers
            .into_iter()
            .map(|p| Box::new(PeerHandle(p)) as Box<dyn RepairPeer>)
            .collect(),
    )
}

/// Keys outside the workload's keyspace: two bytes, 100 to a bucket from
/// bucket 200 up.
fn floor_key(i: u16) -> Vec<u8> {
    vec![200 + (i / 100) as u8, (i % 100) as u8]
}

/// The age the directory's next transaction gets. A quorum collection
/// runs inside a directory transaction, so an age that moves only by this
/// probe's own transaction means nothing collected a quorum in between.
fn next_txn_age(dir: &ReplicatedDirectory) -> u64 {
    let probe = dir.txn_manager().begin();
    dir.txn_manager().abort(probe);
    probe.age()
}

/// A victim holding everything written before the partition (a few
/// single-key runs to pull), or one that never took a write (its first
/// interval is `(LOW, HIGH)` over more than two replies' worth of keys).
#[derive(Clone, Copy, Debug)]
enum Receiver {
    Seeded,
    Empty,
}

fn run_crashy_catchup(seed: u64, receiver_shape: Receiver, straddle: bool) {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), seed).unwrap();
    let mut rng = SplitMix64::new(seed);
    let keys = keyspace(straddle);
    let mut spec = Spec::new();
    let victim = rng.next_below(3) as usize;
    let source_member = (victim + 1) % 3;
    // The victim last in the order never takes a write; first, it takes
    // every write. The source holds everything either way.
    let partitioned = [source_member, (victim + 2) % 3, victim];
    let (healthy, floor) = match receiver_shape {
        Receiver::Seeded => ([victim, source_member, (victim + 2) % 3], 16),
        Receiver::Empty => (partitioned, 2 * MAX_PULL_ENTRIES as u16 + 200),
    };

    // Keys outside the workload's keyspace, all written before the heal.
    let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::with_order(healthy.to_vec())));
    let entries: Vec<(Key, Value)> = (0..floor)
        .map(|i| {
            (
                Key::User(UserKey::new(floor_key(i))),
                Value::from(vec![i as u8]),
            )
        })
        .collect();
    txn.suite_mut().insert_many(&entries).unwrap();
    txn.commit();
    spec.insert_many(&entries).unwrap();
    for _ in 0..40 {
        step(&dir, &healthy, &keys, &mut spec, &mut rng);
    }
    dir.reps()[victim].set_available(false);
    for _ in 0..100 {
        step(&dir, &partitioned, &keys, &mut spec, &mut rng);
    }
    dir.reps()[victim].set_available(true);

    let age_before = next_txn_age(&dir);
    let source = &dir.reps()[source_member];
    let receiver = &dir.reps()[victim];
    let ctx = format!("seed {seed:#x}, {receiver_shape:?} receiver, straddle {straddle}");
    if let Receiver::Empty = receiver_shape {
        assert!(receiver.snapshot().is_empty(), "{ctx}: victim took a write");
    }

    // Round 1: the source dies on its third pull, after two landed.
    let dirty_at_heal = dirty_buckets(source, receiver);
    let peer = KillablePeer::new(source, 2);
    let repairer = repairer_from(receiver, vec![Arc::clone(&peer)]);
    let first = repairer.run_round(0);
    assert_eq!(first.errors, 1, "{ctx}: peer death must surface");
    assert_eq!((first.pulls, peer.pulls()), (2, 2), "{ctx}");
    assert_eq!(first.mismatched_buckets, dirty_at_heal.len() as u64);
    let still_dirty = dirty_buckets(source, receiver);
    let levelled: Vec<u8> = dirty_at_heal
        .iter()
        .copied()
        .filter(|b| !still_dirty.contains(b))
        .collect();
    assert!(
        !levelled.is_empty(),
        "{ctx}: the two pulls levelled nothing"
    );
    assert!(
        !still_dirty.is_empty(),
        "{ctx}: the death must leave dirty buckets behind"
    );
    assert!(first.buckets_pulled <= levelled.len() as u64);

    // The receiver crashes before the next round: every applied step
    // committed through its WAL, so recovery keeps them.
    receiver.crash_and_recover().unwrap();
    assert_eq!(dirty_buckets(source, receiver), still_dirty, "{ctx}");

    // Round 2 resumes by walking: it merges every bucket still dirty and
    // is served no key of a bucket levelled before the fault.
    let served_before = peer.pulls();
    let resumed = repairer.run_round(0);
    assert_eq!(resumed.errors, 0, "{ctx}: resumed round failed");
    assert_eq!(
        (resumed.mismatched_buckets, resumed.buckets_pulled),
        (still_dirty.len() as u64, still_dirty.len() as u64),
        "{ctx}"
    );
    let resent = peer
        .keys_since(served_before)
        .iter()
        .filter(|k| levelled.contains(&bucket_of(k.as_bytes())))
        .count();
    assert_eq!(
        resent, 0,
        "{ctx}: the resumed round re-pulled a bucket levelled before the fault"
    );

    // Byte-identical convergence: receiver == source, equal summary trees,
    // and both match the spec byte for byte.
    assert_eq!(
        source.snapshot(),
        receiver.snapshot(),
        "{ctx}: catch-up did not converge the victim"
    );
    assert_eq!(
        source.summary_children(0, 0).unwrap(),
        receiver.summary_children(0, 0).unwrap()
    );
    let mut stored: Vec<(UserKey, Value)> = Vec::new();
    receiver
        .snapshot()
        .range_scan(None, None, &mut |k, _, v, _| {
            stored.push((k.clone(), v.clone()));
        });
    assert_eq!(stored, spec.scan(), "{ctx}: converged state != spec");

    // Idempotent re-run: a fresh repairer finds nothing and applies nothing.
    let again = repairer_from(receiver, vec![KillablePeer::new(source, u64::MAX)]).run_round(0);
    assert_eq!((again.mismatched_buckets, again.pulls), (0, 0));
    assert_eq!(
        again.applied.total(),
        0,
        "{ctx}: re-running on a converged replica applied steps"
    );

    // The whole catch-up — pulls, death, crash, resumed round, re-run —
    // spent zero quorum collections: range pulls move committed facts at
    // pinned versions, which is sound without any vote.
    assert_eq!(
        next_txn_age(&dir),
        age_before + 1,
        "{ctx}: catch-up collected a quorum"
    );
}

/// Shapes: single-byte keys and `bucket_straddle`.
#[test]
fn interrupted_snapshot_catchup_resumes_and_converges() {
    for straddle in [false, true] {
        for shape in [Receiver::Seeded, Receiver::Empty] {
            run_crashy_catchup(0x5AFE_0001, shape, straddle);
        }
    }
}

/// Shapes: single-byte keys (4 seeds) and `bucket_straddle` (2 seeds).
#[test]
fn snapshot_catchup_holds_across_random_histories() {
    for (seeds, straddle) in [(0..4u64, false), (0..2, true)] {
        for seed in seeds {
            for shape in [Receiver::Seeded, Receiver::Empty] {
                run_crashy_catchup(0x5AFE_1000 + seed, shape, straddle);
            }
        }
    }
}

/// A bare representative holding `entries` as `(key, version)`, committed;
/// the value is a function of both, so twins are byte-identical.
fn rep_with(id: u32, entries: impl IntoIterator<Item = (Vec<u8>, u64)>) -> Arc<TransactionalRep> {
    let rep = TransactionalRep::new(RepId(id));
    let t = TxnId(1);
    rep.begin(t).unwrap();
    for (key, version) in entries {
        let value = Value::from(vec![key[0], version as u8]);
        rep.insert(
            t,
            &Key::User(UserKey::new(key)),
            Version::new(version),
            &value,
        )
        .unwrap();
    }
    rep.commit(t).unwrap();
    rep
}

/// A dead source only ever costs an `Unavailable` error — never a lost
/// step: a round against a different healthy peer pulls exactly what the
/// dead one left dirty.
#[test]
fn snapshot_stream_rotates_peers_without_losing_the_cursor() {
    // A receiver holding every key a version behind: 24 keys two buckets
    // apart, 24 dirty buckets in 24 runs, one pull each.
    let spread = |version: fn(u8) -> u64| (0..24u8).map(move |i| (vec![2 * i], version(i)));
    let source_a = rep_with(0, spread(|i| u64::from(i) + 2));
    let source_b = rep_with(1, spread(|i| u64::from(i) + 2)); // byte-identical twin
    let receiver = rep_with(2, spread(|_| 1));
    // Peer 0 dies on its second pull; peer 1 stays healthy.
    let dying = KillablePeer::new(&source_a, 1);
    let healthy = KillablePeer::new(&source_b, u64::MAX);
    let repairer = repairer_from(&receiver, vec![dying, Arc::clone(&healthy)]);
    let first = repairer.run_round(0);
    assert_eq!((first.errors, first.mismatched_buckets), (1, 24));
    assert_eq!(first.buckets_pulled, 1);
    let rotated = repairer.run_round(1);
    assert_eq!(rotated.errors, 0);
    assert_eq!(
        (rotated.mismatched_buckets, rotated.buckets_pulled),
        (23, 23),
        "the replacement peer re-pulled a bucket the dead one had applied"
    );
    assert_eq!(healthy.pulls(), 23);
    assert_eq!(source_a.snapshot(), receiver.snapshot());
    assert_eq!(
        source_a.summary_children(0, 0).unwrap(),
        receiver.summary_children(0, 0).unwrap()
    );

    // An empty receiver: 1,200 keys over buckets 0..=149, one run, one
    // interval (LOW, HIGH) merged in steps of 512.
    let wide = || (0..1200u16).map(|i| (vec![(i / 8) as u8, (i % 8) as u8], 2));
    let source_a = rep_with(0, wide());
    let source_b = rep_with(1, wide());
    let receiver = TransactionalRep::new(RepId(2));
    let dying = KillablePeer::new(&source_a, 1);
    let healthy = KillablePeer::new(&source_b, u64::MAX);
    let repairer = repairer_from(&receiver, vec![Arc::clone(&dying), Arc::clone(&healthy)]);
    let first = repairer.run_round(0);
    assert_eq!((first.errors, first.mismatched_buckets), (1, 150));
    // The first step landed: buckets 0..=63, ending at the 512th key.
    assert_eq!((first.pulls, first.keys_pulled), (1, 512));
    assert_eq!(first.applied.installed, 512);
    assert_eq!(
        dirty_buckets(&source_a, &receiver),
        (64..150).collect::<Vec<u8>>()
    );
    let rotated = repairer.run_round(1);
    assert_eq!(rotated.errors, 0);
    assert_eq!(
        (rotated.mismatched_buckets, rotated.buckets_pulled),
        (86, 86)
    );
    // 688 = 512 + 176, none of them from a bucket the dead peer levelled.
    assert_eq!((rotated.pulls, rotated.keys_pulled), (2, 688));
    assert!(healthy
        .keys_since(0)
        .iter()
        .all(|k| bucket_of(k.as_bytes()) >= 64));
    assert_eq!(source_a.snapshot(), receiver.snapshot());
    assert_eq!(
        source_a.summary_children(0, 0).unwrap(),
        receiver.summary_children(0, 0).unwrap()
    );
}

/// The catch-up path refuses to move any version down: pulling from a
/// *stale* source into a newer replica is a no-op, not a rollback.
#[test]
fn stale_snapshot_never_rolls_a_newer_replica_back() {
    let old = TransactionalRep::new(RepId(0));
    let t = TxnId(1);
    old.begin(t).unwrap();
    old.insert(t, &user_key(1), Version::new(1), &Value::from("old"))
        .unwrap();
    old.commit(t).unwrap();

    let newer = TransactionalRep::new(RepId(1));
    let t = TxnId(2);
    newer.begin(t).unwrap();
    newer
        .insert(t, &user_key(1), Version::new(2), &Value::from("new"))
        .unwrap();
    newer
        .insert(t, &user_key(2), Version::new(3), &Value::from("extra"))
        .unwrap();
    newer.commit(t).unwrap();

    let before = newer.snapshot();
    let round = repairer_from(&newer, vec![KillablePeer::new(&old, u64::MAX)]).run_round(0);
    // Nothing in the old source supersedes the newer replica: no step may
    // land, and the state is bit-for-bit untouched.
    assert_eq!(round.errors, 0);
    assert!(round.pulls > 0);
    assert_eq!(round.applied.total(), 0);
    assert_eq!(newer.snapshot(), before);
    assert_ne!(
        old.summary_children(0, 0).unwrap(),
        newer.summary_children(0, 0).unwrap(),
        "a stale source must not read as level"
    );
}
