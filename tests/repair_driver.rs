//! Fault-injection suite for the self-driving repair path: the
//! stale-vote-fed [`RepairDriver`] fleet a [`ReplicatedDirectory`] spawns.
//!
//! The tentpole property: a member partitioned through a random workload
//! converges to byte-identical state after healing **without any manual
//! sweep** — driven purely by the stale votes that ordinary reads collect.
//! The drivers here run with a pacing floor far beyond the test's
//! lifetime, so a timer-driven sweep is impossible; every repair message
//! must originate from a vote wake. Alongside it: a peer dying mid-pull
//! rotates the driver to a live peer with exact accounting, a dead-majority
//! fabric backs the driver off instead of spinning it, and a recovery
//! signal snaps a capped-out driver back to work.

mod support;

use repdir::core::rng::SplitMix64;
use repdir::core::suite::{FixedPolicy, StaleVote, StaleVoteQueue, SuiteConfig};
use repdir::core::{Key, RepId, Value, Version};
use repdir::repair::{Pacing, RepairDriver, Repairer};
use repdir::replica::{LocalRepairPeer, RepTarget, ReplicatedDirectory, TransactionalRep};
use repdir::storage::SimDisk;
use repdir::txn::TxnId;
use repdir::workload::spec::{Op, Shape, Spec, POINT};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::step;

/// Pacing whose floor exceeds any test deadline: the timer can never fire,
/// so the only way a driver acts is a vote (or recovery) wake.
fn never_ticks() -> Pacing {
    Pacing {
        floor: Duration::from_secs(120),
        cap: Duration::from_secs(240),
        factor: 2.0,
    }
}

/// The shapes of the vote-driven property: the old dense keys, and keys
/// on both sides of summary-bucket edges, where every vote targets a pull
/// at a bucket's end.
const VOTED: [Shape; 2] = [Shape::DenseU8(24), Shape::BucketStraddle(12)];

/// Keys spread over the summary buckets, about ten apart, so that a
/// catch-up is several range pulls.
const SPREAD: Shape = Shape::Spread(24);

/// Reads `key` through a read quorum whose member preference starts at
/// `first`: with R = 2 of 3 the quorum is {first, first+1}, so the read
/// straddles `first` and generates a stale vote for it whenever it lags.
/// Retried because the background drivers' repair transactions can
/// transiently contend for range locks.
fn read_straddling(dir: &ReplicatedDirectory, first: usize, key: &Key) {
    let n = dir.reps().len();
    let order: Vec<usize> = (0..n).map(|i| (first + i) % n).collect();
    for attempt in 0..16 {
        let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::with_order(order.clone())));
        let done = txn.suite_mut().lookup(key).is_ok();
        txn.commit();
        if done {
            return;
        }
        std::thread::sleep(Duration::from_millis(10 << attempt.min(5)));
    }
    panic!("read of {key:?} via quorum order {order:?} kept failing");
}

fn all_reps_identical(dir: &ReplicatedDirectory) -> bool {
    let canonical = dir.reps()[0].snapshot();
    dir.reps()
        .iter()
        .skip(1)
        .all(|rep| rep.snapshot() == canonical)
}

/// Whether the replicas read identical within `wait`.
fn levels_within(dir: &ReplicatedDirectory, wait: Duration) -> bool {
    let start = Instant::now();
    while !all_reps_identical(dir) {
        if start.elapsed() >= wait {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

fn await_convergence(dir: &ReplicatedDirectory, deadline: Duration, context: &str) {
    assert!(
        levels_within(dir, deadline),
        "{context}: replicas still diverged after {deadline:?}"
    );
}

/// The tentpole property. A member is partitioned through a random
/// insert/update/delete workload, heals, and then converges to
/// byte-identical state with **zero** summary sweeps and **zero** manual
/// `run_sweep`/`run_round` calls: the driver fleet is paced so the timer
/// never fires, and the only stimulus is ordinary reads pushing stale
/// votes into the shared queue.
fn run_vote_driven_convergence(seed: u64, shape: Shape) {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), seed).unwrap();
    let mut rng = SplitMix64::new(seed);
    let draws = shape.op(POINT);
    let mut spec = Spec::new();
    let ctx = format!("seed {seed:#x}, {shape:?}");

    for _ in 0..40 {
        step(&dir, &draws, &mut spec, &mut rng);
    }
    let victim = rng.next_below(3) as usize;
    dir.reps()[victim].set_available(false);
    for _ in 0..40 {
        step(&dir, &draws, &mut spec, &mut rng);
    }
    dir.reps()[victim].set_available(true);
    let diverged = !all_reps_identical(&dir);

    // Spawned after the heal: the recovery hook is not yet installed when
    // availability flips, so no recovery wake contaminates the experiment.
    dir.spawn_repair_drivers(never_ticks());
    let registries = dir.repair_registries();
    assert_eq!(registries.len(), 3, "one registry per member");

    // The stimulus: read every key through a quorum starting at each
    // member in turn. W = 2 of 3 means even the healthy prefix left some
    // member stale per key, so every member's divergence gets read across
    // and voted on — exactly the evidence trail a live workload produces.
    // A pull that loses a lock conflict (to the read that voted, or to
    // another driver's repair) is carried to its driver's next drain, and
    // here only a later vote brings one; so, like a live workload's, the
    // reads go on, pass after pass, until the replicas level.
    let deadline = Duration::from_secs(30);
    let start = Instant::now();
    loop {
        for first in 0..3 {
            for key in shape.keys() {
                read_straddling(&dir, first, &key);
            }
        }
        if levels_within(&dir, Duration::from_millis(500)) {
            break;
        }
        assert!(
            start.elapsed() < deadline,
            "{ctx}: replicas still diverged after {deadline:?}"
        );
    }
    dir.stop_repair_drivers();

    for (member, reg) in registries.iter().enumerate() {
        assert_eq!(
            reg.counter("repair.driver.sweeps").get(),
            0,
            "{ctx}: member {member}'s fallback sweep fired — convergence was not vote-driven"
        );
        assert_eq!(
            reg.counter("repair.rounds").get(),
            0,
            "{ctx}: member {member} ran a summary round — convergence was not vote-driven"
        );
    }
    if diverged {
        let targeted: u64 = registries
            .iter()
            .map(|reg| reg.counter("repair.driver.targeted_pulls").get())
            .sum();
        assert!(
            targeted > 0,
            "{ctx}: divergence healed without any targeted pull?"
        );
    }

    // Converged state matches the spec through the normal read path.
    let listed = dir.scan().expect("final scan");
    assert_eq!(listed, spec.scan(), "{ctx}: converged state != spec");
}

/// Shapes: `dense_u8` and `bucket_straddle`.
#[test]
fn partitioned_member_converges_by_stale_votes_alone() {
    for shape in VOTED {
        run_vote_driven_convergence(0x0D81_AE01, shape);
    }
}

/// Shapes: `dense_u8` (4 seeds) and `bucket_straddle` (2 seeds).
#[test]
fn vote_driven_convergence_holds_across_random_histories() {
    for seed in 0..4u64 {
        run_vote_driven_convergence(0xD81_0000 + seed, VOTED[0]);
    }
    for seed in 0..2u64 {
        run_vote_driven_convergence(0xD81_0000 + seed, VOTED[1]);
    }
}

/// Peer death mid-pull: the driver's targeted pull hits a dead peer,
/// rotates to a live one, heals every voted bucket, and the accounting is
/// exact — no panic, no dropped bucket.
#[test]
fn driver_rotates_to_a_live_peer_when_one_dies_mid_pull() {
    let stale = TransactionalRep::new(RepId(0));
    let dead = TransactionalRep::new(RepId(1));
    let fresh = TransactionalRep::new(RepId(2));
    // Two divergent buckets ('a'… and 'q'…) that only `fresh` has.
    let t = TxnId(1);
    fresh.begin(t).unwrap();
    fresh
        .insert(t, &Key::from("apple"), Version::new(1), &Value::from("A"))
        .unwrap();
    fresh
        .insert(t, &Key::from("quartz"), Version::new(2), &Value::from("Q"))
        .unwrap();
    fresh.commit(t).unwrap();
    dead.set_available(false);

    let queue = Arc::new(StaleVoteQueue::new());
    for (key, seen, latest) in [("apple", 0, 1), ("quartz", 0, 2)] {
        queue.push(StaleVote {
            member: 0,
            key: Key::from(key),
            seen: Version::new(seen),
            latest: Version::new(latest),
        });
    }
    let repairer = Repairer::new(
        Arc::new(RepTarget::new(Arc::clone(&stale))),
        vec![
            Box::new(LocalRepairPeer::new(Arc::clone(&dead))),
            Box::new(LocalRepairPeer::new(Arc::clone(&fresh))),
        ],
    );
    let mut driver = RepairDriver::new(repairer, never_ticks()).with_votes(Arc::clone(&queue), 0);

    let tick = driver.drain_and_pull();

    assert_eq!(tick.votes, 2);
    assert_eq!(tick.buckets, 2);
    // Bucket 'a': dead peer fails, rotate to fresh. Bucket 'q': the driver
    // stuck with the peer that worked. 3 pull attempts, 1 error, nothing
    // left unrepaired.
    assert_eq!(tick.pulls, 3);
    assert_eq!(tick.errors, 1);
    assert_eq!(tick.unrepaired, 0);
    assert_eq!(tick.applied.installed, 2);
    let reg = driver.repairer().registry();
    assert_eq!(
        reg.counter("repair.driver.targeted_pulls").get(),
        3,
        "targeted-pull counter disagrees with tick accounting"
    );
    assert_eq!(reg.counter("repair.peer_errors").get(), 1);
    assert_eq!(stale.snapshot(), fresh.snapshot());
    assert!(queue.is_empty(), "votes consumed exactly once");

    // Every peer dead: the evidence is dropped (a later read re-votes it)
    // and reported as unrepaired, still without a panic.
    fresh.set_available(false);
    queue.push(StaleVote {
        member: 0,
        key: Key::from("apple"),
        seen: Version::new(0),
        latest: Version::new(1),
    });
    let tick = driver.drain_and_pull();
    assert_eq!(tick.votes, 1);
    assert_eq!(tick.pulls, 2);
    assert_eq!(tick.errors, 2);
    assert_eq!(tick.unrepaired, 1);
    assert_eq!(tick.applied.total(), 0);
}

/// Durable stale-vote queue: a vote observed by a read survives the
/// observing process dying *between observe and pull*. The spill hook
/// lands every pushed vote in the stale member's WAL sidecar before it
/// becomes visible in the in-memory queue; after a crash the sidecar
/// reseeds a fresh queue and a vote-targeted pull heals the member with
/// zero summary sweeps — the observation was not lost.
#[test]
fn spilled_stale_votes_survive_a_crash_between_observe_and_pull() {
    let stale = TransactionalRep::new(RepId(0));
    let fresh = TransactionalRep::new(RepId(1));
    let t = TxnId(1);
    fresh.begin(t).unwrap();
    fresh
        .insert(t, &Key::from("apple"), Version::new(3), &Value::from("A"))
        .unwrap();
    fresh.commit(t).unwrap();

    // Observe: the read path pushes a stale vote; the spill hook makes it
    // durable on the stale member before the queue exposes it.
    let queue = Arc::new(StaleVoteQueue::new());
    let spill_rep = Arc::clone(&stale);
    queue.set_spill(Some(Box::new(move |vote: &StaleVote| {
        let _ = spill_rep.spill_stale_vote(vote);
    })));
    let vote = StaleVote {
        member: 0,
        key: Key::from("apple"),
        seen: Version::new(0),
        latest: Version::new(3),
    };
    queue.push(vote.clone());

    // Kill between observe and pull: the process (and with it the
    // in-memory queue) dies before any driver consumed the vote.
    drop(queue);
    stale.crash_and_recover().unwrap();

    // Recovery: the WAL sidecar reseeds a fresh queue...
    let revived = Arc::new(StaleVoteQueue::new());
    let spilled = stale.spilled_stale_votes();
    assert_eq!(spilled, vec![vote], "spilled vote lost across the crash");
    for v in spilled {
        revived.restore(v);
    }

    // ...and a vote-targeted pull (no sweep) heals exactly what was voted.
    let repairer = Repairer::new(
        Arc::new(RepTarget::new(Arc::clone(&stale))),
        vec![Box::new(LocalRepairPeer::new(Arc::clone(&fresh)))],
    );
    let mut driver = RepairDriver::new(repairer, never_ticks()).with_votes(Arc::clone(&revived), 0);
    let tick = driver.drain_and_pull();
    assert_eq!(tick.votes, 1);
    assert_eq!(tick.unrepaired, 0);
    assert_eq!(tick.applied.installed, 1);
    let reg = driver.repairer().registry();
    assert_eq!(reg.counter("repair.driver.sweeps").get(), 0);
    assert_eq!(reg.counter("repair.driver.targeted_pulls").get(), 1);
    assert_eq!(stale.snapshot(), fresh.snapshot());

    // A checkpoint retires the consumed evidence: it must not be replayed
    // into yet another pull after the next recovery.
    stale.checkpoint().unwrap();
    assert!(stale.spilled_stale_votes().is_empty());
}

/// Dead-majority fabric: every peer is down, every tick only fails. The
/// driver must retreat to its pacing cap instead of spinning sweep
/// attempts at the floor.
#[test]
fn dead_majority_backs_the_driver_off_instead_of_spinning() {
    let target = TransactionalRep::new(RepId(0));
    let peer_a = TransactionalRep::new(RepId(1));
    let peer_b = TransactionalRep::new(RepId(2));
    peer_a.set_available(false);
    peer_b.set_available(false);

    let repairer = Repairer::new(
        Arc::new(RepTarget::new(Arc::clone(&target))),
        vec![
            Box::new(LocalRepairPeer::new(Arc::clone(&peer_a))),
            Box::new(LocalRepairPeer::new(Arc::clone(&peer_b))),
        ],
    );
    let pacing = Pacing {
        floor: Duration::from_millis(2),
        cap: Duration::from_millis(100),
        factor: 2.0,
    };
    let handle = RepairDriver::new(repairer, pacing).spawn();
    let g = handle.registry().clone();

    // The backoff gauge must climb to the cap: consecutive error ticks back
    // off like quiescent ones.
    let start = Instant::now();
    while g.counter("repair.driver.backoff_ms").get() < 100 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "driver never reached its pacing cap against a dead majority"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // At the cap the tick rate is bounded by cap, not floor: over an
    // observation window several floors long, only a couple of sweep
    // attempts may fire (window/cap = 3, plus one in flight).
    let sweeps_at_cap = g.counter("repair.driver.sweeps").get();
    std::thread::sleep(Duration::from_millis(300));
    let extra = g.counter("repair.driver.sweeps").get() - sweeps_at_cap;
    assert!(
        extra <= 5,
        "driver kept spinning at the cap: {extra} sweeps in 300ms"
    );
    handle.stop();
}

/// Recovery signal: a driver fleet idles at its pacing cap; a member comes
/// back from an injected failure; its recovery hook wakes the driver,
/// pacing snaps to the floor, and floor-paced sweeps converge the member
/// promptly — no stale votes involved.
#[test]
fn recovery_signal_snaps_a_capped_driver_back_to_work() {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 0x5EC0).unwrap();
    // A huge factor sends a driver from the floor to the cap after a
    // single quiescent tick; the cap dwarfs the test, so only a recovery
    // wake can bring a driver back.
    let pacing = Pacing {
        floor: Duration::from_millis(5),
        cap: Duration::from_secs(120),
        factor: 1.0e6,
    };
    dir.spawn_repair_drivers(pacing);
    // Let every driver take its first (quiescent) tick and cap out.
    std::thread::sleep(Duration::from_millis(100));

    // Writes pinned to members {0, 1} while member 2 is down: member 2
    // misses everything.
    dir.reps()[2].set_available(false);
    for i in 0..10u8 {
        let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::with_order(vec![0, 1, 2])));
        txn.suite_mut()
            .insert(&VOTED[0].key(usize::from(i)), &Value::from(vec![i]))
            .unwrap();
        txn.commit();
    }
    assert!(!all_reps_identical(&dir));

    // Healing fires the recovery hook → wake_recovery → pacing floor →
    // the next timer ticks sweep member 2 back to parity.
    dir.reps()[2].set_available(true);
    await_convergence(&dir, Duration::from_secs(20), "recovery snap-back");
    dir.stop_repair_drivers();
}

/// Log compaction survives catch-up. A stale-vote spill holds the log's
/// automatic compaction off until an explicit checkpoint; the driver lands
/// one when a sweep finds its member level after it applied repairs — so
/// once a vote-driven catch-up has consumed the spilled votes, they retire
/// and the retained log shrinks to the caught-up image.
#[test]
fn level_sweep_after_catch_up_checkpoints_and_retires_spilled_votes() {
    let disk = Arc::new(SimDisk::new());
    let stale = TransactionalRep::with_disk(RepId(0), Arc::clone(&disk));
    let fresh = TransactionalRep::new(RepId(1));
    // A shared history long enough that the log outweighs the state: 24
    // keys, each rewritten ten times.
    for (t, round) in (1..=10u64).enumerate() {
        for rep in [&stale, &fresh] {
            let txn = TxnId(t as u64 + 1);
            rep.begin(txn).unwrap();
            for k in 0..24u8 {
                rep.insert(
                    txn,
                    &SPREAD.key(usize::from(k)),
                    Version::new(round),
                    &Value::from(vec![k]),
                )
                .unwrap();
            }
            rep.commit(txn).unwrap();
        }
    }
    // Writes the stale member missed, one of them read and voted stale.
    let txn = TxnId(100);
    fresh.begin(txn).unwrap();
    for k in [3u8, 11] {
        fresh
            .insert(
                txn,
                &SPREAD.key(usize::from(k)),
                Version::new(11),
                &Value::from("new"),
            )
            .unwrap();
    }
    fresh.commit(txn).unwrap();
    let queue = Arc::new(StaleVoteQueue::new());
    let spill_rep = Arc::clone(&stale);
    queue.set_spill(Some(Box::new(move |vote: &StaleVote| {
        spill_rep.spill_stale_vote(vote).unwrap();
    })));
    queue.push(StaleVote {
        member: 0,
        key: SPREAD.key(3),
        seen: Version::new(10),
        latest: Version::new(11),
    });
    assert_eq!(stale.spilled_stale_votes().len(), 1);
    let log_before = disk.retained_len();

    let repairer = Repairer::new(
        Arc::new(RepTarget::new(Arc::clone(&stale))),
        vec![Box::new(LocalRepairPeer::new(Arc::clone(&fresh)))],
    );
    let mut driver = RepairDriver::new(repairer, never_ticks()).with_votes(Arc::clone(&queue), 0);
    // The vote consumes the spill, but no checkpoint lands mid-catch-up.
    assert_eq!(driver.drain_and_pull().applied.installed, 1);
    assert_eq!(stale.spilled_stale_votes().len(), 1);
    // The sweep pulls what no read voted on...
    let sweep = driver.sweep();
    assert_eq!((sweep.mismatched_buckets, sweep.applied.installed), (1, 1));
    assert_eq!(stale.spilled_stale_votes().len(), 1);
    // ...and the next finds the member level and checkpoints it.
    assert_eq!(driver.sweep().mismatched_buckets, 0);
    assert!(stale.spilled_stale_votes().is_empty());
    assert!(
        disk.retained_len() < log_before,
        "retained log {} not below {log_before}",
        disk.retained_len()
    );
    // Recovery replays the caught-up image.
    stale.crash_and_recover().unwrap();
    assert_eq!(stale.snapshot(), fresh.snapshot());
    // Level again with nothing applied since: no further checkpoint.
    let retained = disk.retained_len();
    assert_eq!(driver.sweep().mismatched_buckets, 0);
    assert_eq!(disk.retained_len(), retained);
}

/// The outage loop the benchmark's `member_outage` runs, without its wait
/// for quiet: member 2 is taken down again the moment the three replicas
/// read equal, whatever its driver is doing then. Every catch-up must
/// converge within a deadline, the closing state must equal the spec, and
/// once the member reads equal the drivers' pulls must stop. Shapes:
/// `spread` (200 outages) and `bucket_straddle` (40).
#[test]
fn member_failed_again_the_moment_it_levels_keeps_catching_up() {
    run_outages(SPREAD, 200);
    run_outages(Shape::BucketStraddle(12), 40);
}

fn run_outages(shape: Shape, outages: u32) {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 0x3ED6E).unwrap();
    let mut rng = SplitMix64::new(0x3ED6E);
    let mut spec = Spec::new();
    dir.spawn_repair_drivers(Pacing {
        floor: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        factor: 2.0,
    });
    for outage in 0..outages {
        dir.reps()[2].set_available(false);
        let writes = if outage % 2 == 0 { 3 } else { 24 };
        for _ in 0..writes {
            // Every write lands: a present key is deleted one time in
            // three and updated otherwise, an absent one inserted.
            let key = shape.key(rng.next_below(shape.slots() as u64) as usize);
            let value = shape.value(rng.next_u64() as u8);
            let op = match spec.lookup(&key).is_some() {
                true if rng.next_below(3) == 0 => Op::Delete(key),
                true => Op::Update(key, value),
                false => Op::Insert(key, value),
            };
            assert_eq!(dir.run(|suite| op.run(suite)), spec.apply(&op), "{op:?}");
        }
        dir.reps()[2].set_available(true);
        let ctx = format!("{shape:?} outage {outage}");
        await_convergence(&dir, Duration::from_secs(20), &ctx);
    }

    // In-flight sweeps finish within a few floors; after that nothing is
    // dirty, so nothing is pulled however often the drivers wake.
    let registries = dir.repair_registries();
    let pulls = || {
        let per_member = registries.iter().map(|r| r.counter("repair.pulls").get());
        per_member.sum::<u64>()
    };
    std::thread::sleep(Duration::from_millis(50));
    let settled = pulls();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        pulls(),
        settled,
        "{shape:?}: drivers kept pulling after the member levelled"
    );
    dir.stop_repair_drivers();

    let listed = dir.scan().expect("final scan");
    assert_eq!(listed, spec.scan(), "{shape:?}: converged state != spec");
    assert!(all_reps_identical(&dir));
}
