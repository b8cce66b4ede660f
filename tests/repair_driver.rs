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

use repdir::core::rng::StdRng;
use repdir::core::suite::{FixedPolicy, StaleVote, StaleVoteQueue, SuiteConfig};
use repdir::core::{Key, RepId, SuiteError, UserKey, Value, Version};
use repdir::repair::{Pacing, RepairDriver, Repairer};
use repdir::replica::{LocalRepairPeer, RepTarget, ReplicatedDirectory, TransactionalRep};
use repdir::storage::SimDisk;
use repdir::txn::TxnId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Counter-exact tests share one process-global obs registry, so they must
/// not interleave with each other's drivers.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
    SERIAL
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Pacing whose floor exceeds any test deadline: the timer can never fire,
/// so the only way a driver acts is a vote (or recovery) wake.
fn never_ticks() -> Pacing {
    Pacing {
        floor: Duration::from_secs(120),
        cap: Duration::from_secs(240),
        factor: 2.0,
    }
}

const KEYSPACE: u8 = 24;

fn user_key(k: u8) -> Key {
    Key::User(UserKey::from_u64(k as u64))
}

/// One random workload step against the directory and a model (same shape
/// as the repair_convergence suite).
fn step(
    dir: &ReplicatedDirectory,
    model: &mut BTreeMap<u8, u8>,
    rng: &mut StdRng,
) -> Result<(), SuiteError> {
    let k = rng.gen_range(0u8..KEYSPACE);
    let key = user_key(k);
    let v: u8 = rng.gen();
    match rng.gen_range(0..4u8) {
        0 if !model.contains_key(&k) => dir.insert(&key, &Value::from(vec![v])).map(|_| {
            model.insert(k, v);
        }),
        1 if model.contains_key(&k) => dir.update(&key, &Value::from(vec![v])).map(|_| {
            model.insert(k, v);
        }),
        2 if model.contains_key(&k) => dir.delete(&key).map(|_| {
            model.remove(&k);
        }),
        _ => dir.lookup(&key).map(|out| {
            assert_eq!(out.present, model.contains_key(&k));
        }),
    }
}

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

fn await_convergence(dir: &ReplicatedDirectory, deadline: Duration, context: &str) {
    let start = Instant::now();
    while !all_reps_identical(dir) {
        assert!(
            start.elapsed() < deadline,
            "{context}: replicas still diverged after {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The tentpole property. A member is partitioned through a random
/// insert/update/delete workload, heals, and then converges to
/// byte-identical state with **zero** summary sweeps and **zero** manual
/// `run_sweep`/`run_round` calls: the driver fleet is paced so the timer
/// never fires, and the only stimulus is ordinary reads pushing stale
/// votes into the shared queue.
fn run_vote_driven_convergence(seed: u64) {
    let _guard = serial();
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), seed).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model: BTreeMap<u8, u8> = BTreeMap::new();

    for _ in 0..40 {
        step(&dir, &mut model, &mut rng).expect("op with all members up");
    }
    let victim = rng.gen_range(0..3usize);
    dir.reps()[victim].set_available(false);
    for _ in 0..40 {
        step(&dir, &mut model, &mut rng).expect("op with one member partitioned");
    }
    dir.reps()[victim].set_available(true);
    let diverged = !all_reps_identical(&dir);

    let g = repdir::obs::global();
    let rounds_before = g.counter("repair.rounds").get();
    let sweeps_before = g.counter("repair.driver.sweeps").get();
    let targeted_before = g.counter("repair.driver.targeted_pulls").get();

    // Spawned after the heal: the recovery hook is not yet installed when
    // availability flips, so no recovery wake contaminates the experiment.
    dir.spawn_repair_drivers(never_ticks());

    // The stimulus: read every key through a quorum starting at each
    // member in turn. W = 2 of 3 means even the healthy prefix left some
    // member stale per key, so every member's divergence gets read across
    // and voted on — exactly the evidence trail a live workload produces.
    for first in 0..3 {
        for k in 0..KEYSPACE {
            read_straddling(&dir, first, &user_key(k));
        }
    }

    await_convergence(&dir, Duration::from_secs(30), &format!("seed {seed:#x}"));
    dir.stop_repair_drivers();

    assert_eq!(
        g.counter("repair.driver.sweeps").get(),
        sweeps_before,
        "seed {seed:#x}: a fallback sweep fired — convergence was not vote-driven"
    );
    assert_eq!(
        g.counter("repair.rounds").get(),
        rounds_before,
        "seed {seed:#x}: a summary round ran — convergence was not vote-driven"
    );
    if diverged {
        assert!(
            g.counter("repair.driver.targeted_pulls").get() > targeted_before,
            "seed {seed:#x}: divergence healed without any targeted pull?"
        );
    }

    // Converged state matches the model through the normal read path.
    let listed = dir.scan().expect("final scan");
    let expect: Vec<(UserKey, Value)> = model
        .iter()
        .map(|(mk, mv)| (UserKey::from_u64(*mk as u64), Value::from(vec![*mv])))
        .collect();
    assert_eq!(listed, expect, "seed {seed:#x}: converged state != model");
}

#[test]
fn partitioned_member_converges_by_stale_votes_alone() {
    run_vote_driven_convergence(0x0D81_AE01);
}

#[test]
fn vote_driven_convergence_holds_across_random_histories() {
    for seed in 0..4u64 {
        run_vote_driven_convergence(0xD81_0000 + seed);
    }
}

/// Peer death mid-pull: the driver's targeted pull hits a dead peer,
/// rotates to a live one, heals every voted bucket, and the accounting is
/// exact — no panic, no dropped bucket.
#[test]
fn driver_rotates_to_a_live_peer_when_one_dies_mid_pull() {
    let _guard = serial();
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
    let source_queue = Arc::clone(&queue);
    let mut driver = RepairDriver::new(repairer, never_ticks())
        .with_vote_source(Box::new(move || source_queue.drain_member(0)));

    let g = repdir::obs::global();
    let targeted_before = g.counter("repair.driver.targeted_pulls").get();
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
    assert_eq!(
        g.counter("repair.driver.targeted_pulls").get() - targeted_before,
        3,
        "targeted-pull counter disagrees with tick accounting"
    );
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
    let _guard = serial();
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
    let source = Arc::clone(&revived);
    let mut driver = RepairDriver::new(repairer, never_ticks())
        .with_vote_source(Box::new(move || source.drain_member(0)));
    let g = repdir::obs::global();
    let sweeps_before = g.counter("repair.driver.sweeps").get();
    let tick = driver.drain_and_pull();
    assert_eq!(tick.votes, 1);
    assert_eq!(tick.unrepaired, 0);
    assert_eq!(tick.applied.installed, 1);
    assert_eq!(g.counter("repair.driver.sweeps").get(), sweeps_before);
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
    let _guard = serial();
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
    let g = repdir::obs::global();
    let handle = RepairDriver::new(repairer, pacing).spawn();

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
    let _guard = serial();
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
            .insert(&user_key(i), &Value::from(vec![i]))
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
    let _guard = serial();
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
                    &spread_key(k),
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
            .insert(txn, &spread_key(k), Version::new(11), &Value::from("new"))
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
        key: spread_key(3),
        seen: Version::new(10),
        latest: Version::new(11),
    });
    assert_eq!(stale.spilled_stale_votes().len(), 1);
    let log_before = disk.retained_len();

    let repairer = Repairer::new(
        Arc::new(RepTarget::new(Arc::clone(&stale))),
        vec![Box::new(LocalRepairPeer::new(Arc::clone(&fresh)))],
    );
    let source = Arc::clone(&queue);
    let mut driver = RepairDriver::new(repairer, never_ticks())
        .with_vote_source(Box::new(move || source.drain_member(0)));
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

/// Keys `k * 10 | 1`: each in its own summary bucket, ten buckets apart,
/// so a catch-up is several range pulls.
fn spread_key(k: u8) -> Key {
    Key::User(UserKey::new(vec![k * 10, 1]))
}

/// The outage loop the benchmark's `member_outage` runs, without its wait
/// for quiet: member 2 is taken down again the moment the three replicas
/// read equal, whatever its driver is doing then. Every catch-up must
/// converge within a deadline, the closing state must equal the model, and
/// once the member reads equal the drivers' pulls must stop.
#[test]
fn member_failed_again_the_moment_it_levels_keeps_catching_up() {
    let _guard = serial();
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 0x3ED6E).unwrap();
    let mut rng = StdRng::seed_from_u64(0x3ED6E);
    let mut model: BTreeMap<u8, u8> = BTreeMap::new();
    dir.spawn_repair_drivers(Pacing {
        floor: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        factor: 2.0,
    });
    for outage in 0..200 {
        dir.reps()[2].set_available(false);
        let writes = if outage % 2 == 0 { 3 } else { 24 };
        for _ in 0..writes {
            let k = rng.gen_range(0u8..24);
            let v: u8 = rng.gen();
            let key = spread_key(k);
            if model.contains_key(&k) && rng.gen_range(0..3u8) == 0 {
                dir.delete(&key).unwrap();
                model.remove(&k);
            } else if model.insert(k, v).is_some() {
                dir.update(&key, &Value::from(vec![v])).unwrap();
            } else {
                dir.insert(&key, &Value::from(vec![v])).unwrap();
            }
        }
        dir.reps()[2].set_available(true);
        await_convergence(&dir, Duration::from_secs(20), &format!("outage {outage}"));
    }

    // In-flight sweeps finish within a few floors; after that nothing is
    // dirty, so nothing is pulled however often the drivers wake.
    let g = repdir::obs::global();
    let pulls = || g.counter("repair.pulls").get();
    std::thread::sleep(Duration::from_millis(50));
    let settled = pulls();
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        pulls(),
        settled,
        "drivers kept pulling after the member levelled"
    );
    dir.stop_repair_drivers();

    let listed = dir.scan().expect("final scan");
    let expect: Vec<(UserKey, Value)> = model
        .iter()
        .map(|(k, v)| (UserKey::new(vec![k * 10, 1]), Value::from(vec![*v])))
        .collect();
    assert_eq!(listed, expect, "converged state != model");
    assert!(all_reps_identical(&dir));
}
