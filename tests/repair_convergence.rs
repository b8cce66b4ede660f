//! Anti-entropy convergence property: partition an arbitrary member during
//! a random workload, heal, run the repairers to quiescence — and every
//! representative must be byte-identical to the others and agree with a
//! model of the directory, without spending a single quorum collection on
//! the repair itself.
//!
//! The soundness claim under test is the paper's version rule: a version
//! number pins the exact content of an entry or gap, so a representative
//! can adopt a peer's strictly-newer entry (or gap) pointwise. Repair here
//! runs purely against representative-level APIs ([`RepTarget`] /
//! [`LocalRepairPeer`]) — no `DirSuite`, no quorum, no votes — which is the
//! structural form of the "zero quorum collections" requirement.
//!
//! Every history runs under two key shapes: dense keys that all share
//! summary bucket 0, and spread keys one per bucket, ten buckets apart, so
//! that repair coalesces reach across bucket edges.

use repdir::core::rng::StdRng;
use repdir::core::suite::{FixedPolicy, SuiteConfig};
use repdir::core::{Key, SuiteError, UserKey, Value};
use repdir::repair::{RepairPeer, Repairer};
use repdir::replica::{LocalRepairPeer, RepTarget, ReplicatedDirectory};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a workload key value becomes a directory key.
type Shape = fn(u8) -> UserKey;

/// Every key in summary bucket 0.
fn dense(k: u8) -> UserKey {
    UserKey::from_u64(k as u64)
}

/// Key `k` in bucket `10k`.
fn spread(k: u8) -> UserKey {
    UserKey::new(vec![k * 10, 1])
}

/// One random workload step against the directory and the model. During
/// the partition the suite keeps answering from the two live members
/// (R = W = 2 of 3), so every step must succeed.
fn step(
    dir: &ReplicatedDirectory,
    shape: Shape,
    model: &mut BTreeMap<u8, u8>,
    rng: &mut StdRng,
) -> Result<(), SuiteError> {
    let k = rng.gen_range(0u8..24);
    let key = Key::User(shape(k));
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

fn listing(shape: Shape, model: &BTreeMap<u8, u8>) -> Vec<(UserKey, Value)> {
    model
        .iter()
        .map(|(mk, mv)| (shape(*mk), Value::from(vec![*mv])))
        .collect()
}

fn run_convergence(seed: u64, ops_before: u32, ops_during: u32, shape: Shape) {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), seed).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model: BTreeMap<u8, u8> = BTreeMap::new();

    // Healthy prefix: all three representatives absorb quorum writes.
    for _ in 0..ops_before {
        step(&dir, shape, &mut model, &mut rng).expect("op with all members up");
    }

    // Partition an arbitrary member; the workload continues through the
    // surviving write quorum and the victim silently goes stale.
    let victim = rng.gen_range(0..3usize);
    dir.reps()[victim].set_available(false);
    for _ in 0..ops_during {
        step(&dir, shape, &mut model, &mut rng).expect("op with one member partitioned");
    }
    dir.reps()[victim].set_available(true);
    // Quorum reads are right before any repair: the divergence is the
    // repair plane's to heal, not the read path's.
    assert_eq!(
        dir.scan().expect("scan before repair"),
        listing(shape, &model),
        "seed {seed:#x}: quorum scan before repair != model"
    );

    let reps = dir.reps();
    let diverged = reps[victim].snapshot() != reps[(victim + 1) % 3].snapshot();

    // Heal by anti-entropy alone: each representative repairs from its two
    // peers through representative-level APIs. Nothing here touches a
    // DirSuite, so no quorum is collected for any of it.
    let rounds_before = repdir::obs::global().counter("repair.rounds").get();
    let repairers: Vec<Repairer> = (0..3)
        .map(|i| {
            let peers: Vec<Box<dyn RepairPeer>> = (0..3)
                .filter(|&j| j != i)
                .map(|j| {
                    Box::new(LocalRepairPeer::new(Arc::clone(&reps[j]))) as Box<dyn RepairPeer>
                })
                .collect();
            Repairer::new(Arc::new(RepTarget::new(Arc::clone(&reps[i]))), peers)
        })
        .collect();
    let mut passes = 0;
    loop {
        let mut applied = 0u64;
        let mut errors = 0u64;
        for r in &repairers {
            let sweep = r.run_sweep();
            applied += sweep.applied.total();
            errors += sweep.errors;
        }
        if errors == 0 && applied == 0 {
            break;
        }
        passes += 1;
        assert!(passes < 16, "seed {seed:#x}: repair failed to quiesce");
    }
    if diverged {
        assert!(
            passes > 0,
            "seed {seed:#x}: divergence healed without repair?"
        );
    }
    assert!(
        repdir::obs::global().counter("repair.rounds").get() > rounds_before,
        "repair rounds were not accounted"
    );

    // Every representative is byte-identical — same entries, same
    // versions, same gap versions — and holds exactly the model's keys.
    let canonical = reps[0].snapshot();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        assert_eq!(
            canonical,
            rep.snapshot(),
            "seed {seed:#x}: representative {i} differs after repair"
        );
    }
    let mut stored = Vec::new();
    canonical.range_scan(None, None, &mut |k, _, v, _| {
        stored.push((k.clone(), v.clone()));
    });
    assert_eq!(
        stored,
        listing(shape, &model),
        "seed {seed:#x}: replicas converged on a state that is not the model's"
    );
    // And their summary trees agree, so a further round finds nothing.
    let root = reps[0].summary_children(0, 0).unwrap();
    for rep in reps.iter().skip(1) {
        assert_eq!(root, rep.summary_children(0, 0).unwrap());
    }

    // The converged state matches the model through the normal read path.
    let listed = dir.scan().expect("final scan");
    assert_eq!(
        listed,
        listing(shape, &model),
        "seed {seed:#x}: converged state != model"
    );
}

#[test]
fn partitioned_member_converges_by_anti_entropy() {
    for shape in [dense as Shape, spread] {
        run_convergence(0x0009_E9A1, 60, 60, shape);
    }
}

#[test]
fn convergence_holds_across_random_histories() {
    for seed in 0..64u64 {
        for shape in [dense as Shape, spread] {
            run_convergence(0xA11_0000 + seed, 40, 40, shape);
        }
    }
}

#[test]
fn repair_is_idempotent_on_identical_replicas() {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 0x1DE).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = BTreeMap::new();
    for _ in 0..40 {
        step(&dir, dense, &mut model, &mut rng).expect("healthy op");
    }
    let reps = dir.reps();
    let repairer = Repairer::new(
        Arc::new(RepTarget::new(Arc::clone(&reps[0]))),
        vec![
            Box::new(LocalRepairPeer::new(Arc::clone(&reps[1]))),
            Box::new(LocalRepairPeer::new(Arc::clone(&reps[2]))),
        ],
    );
    let before = reps[0].snapshot();
    let sweep = repairer.run_sweep();
    assert_eq!(sweep.errors, 0);
    assert_eq!(
        sweep.applied.total(),
        0,
        "repair changed an already-converged replica"
    );
    assert_eq!(before, reps[0].snapshot());
}

/// The public-API form of the overshoot: members 0 and 2 hold a1 and a2;
/// while member 2 is down, c1 is inserted and a2 deleted (its coalesce
/// spans a1..c1). A targeted pull of bucket `a` must not leave member 2
/// claiming c1 absent at the delete's version — a read quorum {2, 0} would
/// then report a committed key missing.
#[test]
fn targeted_pull_after_an_outage_keeps_every_committed_key() {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 7).unwrap();
    let on_0_and_2 = |write: &dyn Fn(&mut repdir::core::DirSuite<_>)| {
        let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::with_order(vec![0, 2, 1])));
        write(txn.suite_mut());
        txn.commit();
    };
    on_0_and_2(&|s| {
        s.insert(&Key::from("a1"), &Value::from("A1"))
            .map(drop)
            .unwrap()
    });
    on_0_and_2(&|s| {
        s.insert(&Key::from("a2"), &Value::from("A2"))
            .map(drop)
            .unwrap()
    });
    for v in ["A2.1", "A2.2", "A2.3", "A2.4"] {
        on_0_and_2(&|s| {
            s.update(&Key::from("a2"), &Value::from(v))
                .map(drop)
                .unwrap()
        });
    }
    dir.reps()[2].set_available(false);
    dir.insert(&Key::from("c1"), &Value::from("C1")).unwrap();
    dir.delete(&Key::from("a2")).unwrap();
    dir.reps()[2].set_available(true);

    let reps = dir.reps();
    let repairer = Repairer::new(
        Arc::new(RepTarget::new(Arc::clone(&reps[2]))),
        vec![Box::new(LocalRepairPeer::new(Arc::clone(&reps[0])))],
    );
    repairer.pull_buckets(0, b'a', b'a').unwrap();

    let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::with_order(vec![2, 0, 1])));
    let c1 = txn.suite_mut().lookup(&Key::from("c1")).unwrap();
    let a2 = txn.suite_mut().lookup(&Key::from("a2")).unwrap();
    txn.commit();
    assert!(c1.present, "c1 read absent through read quorum {{2, 0}}");
    assert_eq!(c1.value, Some(Value::from("C1")));
    assert!(!a2.present);
    assert_eq!(reps[2].snapshot(), reps[0].snapshot());
}
