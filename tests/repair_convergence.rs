//! Anti-entropy convergence property: partition an arbitrary member during
//! a random workload, heal, run the repairers to quiescence — and every
//! representative must be byte-identical to the others and agree with the
//! directory's sequential spec, without spending a single quorum collection
//! on the repair itself.
//!
//! The soundness claim under test is the paper's version rule: a version
//! number pins the exact content of an entry or gap, so a representative
//! can adopt a peer's strictly-newer entry (or gap) pointwise. Repair here
//! runs purely against representative-level APIs ([`RepTarget`] /
//! [`LocalRepairPeer`]) — no `DirSuite`, no quorum, no votes — which is the
//! structural form of the "zero quorum collections" requirement.
//!
//! Every history runs under the key shapes of `repdir::workload::spec`:
//! `dense_u8` keys that all share summary bucket 0, `spread` keys about ten
//! buckets apart, so that repair coalesces reach across bucket edges, and,
//! on fewer seeds, `bucket_straddle` keys on both sides of bucket edges
//! from bucket 0 to bucket 255 and `pull_cap_straddle` batches of around
//! one pull's 512 entries.

mod support;

use repdir::core::rng::SplitMix64;
use repdir::core::suite::{FixedPolicy, SuiteConfig};
use repdir::core::{Key, Value};
use repdir::repair::{RepairPeer, Repairer};
use repdir::replica::{LocalRepairPeer, RepTarget, ReplicatedDirectory, TransactionalRep};
use repdir::workload::spec::{Kind, Ops, Shape, Spec, POINT, PULL_CAP_STRADDLE};
use std::sync::Arc;
use support::step;

/// The shapes every seed runs.
const SHAPES: [Shape; 2] = [Shape::DenseU8(24), Shape::Spread(24)];

/// The straddling shapes a seed runs.
fn straddling(seed: u64) -> [Shape; 2] {
    let cap = PULL_CAP_STRADDLE[seed as usize % PULL_CAP_STRADDLE.len()];
    [Shape::BucketStraddle(12), Shape::PullCapStraddle(cap)]
}

/// Point operations over a shape; a pull-cap shape's writes also come in
/// batches of around one pull.
fn workload(shape: Shape) -> Ops {
    const BATCHES: &[(u32, Kind)] = &[
        (2, Kind::Insert),
        (2, Kind::Update),
        (2, Kind::Delete),
        (2, Kind::Lookup),
        (1, Kind::InsertMany),
        (1, Kind::DeleteMany),
    ];
    match shape {
        Shape::PullCapStraddle(_) => shape.op(BATCHES),
        _ => shape.op(POINT),
    }
}

/// One repairer per representative, each pulling from the other two
/// through representative-level APIs.
fn fleet(reps: &[Arc<TransactionalRep>]) -> Vec<Repairer> {
    (0..reps.len())
        .map(|i| {
            let peers: Vec<Box<dyn RepairPeer>> = (0..reps.len())
                .filter(|&j| j != i)
                .map(|j| {
                    Box::new(LocalRepairPeer::new(Arc::clone(&reps[j]))) as Box<dyn RepairPeer>
                })
                .collect();
            Repairer::new(Arc::new(RepTarget::new(Arc::clone(&reps[i]))), peers)
        })
        .collect()
}

/// Sweeps `repairers` until a pass applies nothing and fails nothing,
/// returning the passes that did work.
fn quiesce(repairers: &[Repairer], ctx: &str) -> u32 {
    let mut passes = 0;
    loop {
        let mut applied = 0u64;
        let mut errors = 0u64;
        for r in repairers {
            let sweep = r.run_sweep();
            applied += sweep.applied.total();
            errors += sweep.errors;
        }
        if errors == 0 && applied == 0 {
            return passes;
        }
        passes += 1;
        assert!(passes < 16, "{ctx}: repair failed to quiesce");
    }
}

fn run_convergence(seed: u64, ops_before: u32, ops_during: u32, shape: Shape) {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), seed).unwrap();
    let mut rng = SplitMix64::new(seed);
    let draws = workload(shape);
    let mut spec = Spec::new();
    let ctx = format!("seed {seed:#x}, {shape:?}");

    // Healthy prefix: all three representatives absorb quorum writes.
    for _ in 0..ops_before {
        step(&dir, &draws, &mut spec, &mut rng);
    }

    // Partition an arbitrary member; the workload continues through the
    // surviving write quorum and the victim silently goes stale.
    let victim = rng.next_below(3) as usize;
    dir.reps()[victim].set_available(false);
    for _ in 0..ops_during {
        step(&dir, &draws, &mut spec, &mut rng);
    }
    dir.reps()[victim].set_available(true);
    // Quorum reads are right before any repair: the divergence is the
    // repair plane's to heal, not the read path's.
    assert_eq!(
        dir.scan().expect("scan before repair"),
        spec.scan(),
        "{ctx}: quorum scan before repair != spec"
    );

    let reps = dir.reps();
    let diverged = reps[victim].snapshot() != reps[(victim + 1) % 3].snapshot();

    // Heal by anti-entropy alone: each representative repairs from its two
    // peers through representative-level APIs. Nothing here touches a
    // DirSuite, so no quorum is collected for any of it.
    let repairers = fleet(reps);
    let passes = quiesce(&repairers, &ctx);
    if diverged {
        assert!(passes > 0, "{ctx}: divergence healed without repair?");
    }
    // Every pass, the clean one included, swept each repairer's two peers.
    for (i, repairer) in repairers.iter().enumerate() {
        assert_eq!(
            repairer.registry().counter("repair.rounds").get(),
            2 * (u64::from(passes) + 1),
            "{ctx}: repairer {i}'s rounds were not accounted"
        );
    }

    // Every representative is byte-identical — same entries, same
    // versions, same gap versions — and holds exactly the spec's entries.
    let canonical = reps[0].snapshot();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        assert_eq!(
            canonical,
            rep.snapshot(),
            "{ctx}: representative {i} differs after repair"
        );
    }
    let mut stored = Vec::new();
    canonical.range_scan(None, None, &mut |k, _, v, _| {
        stored.push((k.clone(), v.clone()));
    });
    assert_eq!(
        stored,
        spec.scan(),
        "{ctx}: replicas converged on a state that is not the spec's"
    );
    // And their summary trees agree, so a further round finds nothing.
    let root = reps[0].summary_children(0, 0).unwrap();
    for rep in reps.iter().skip(1) {
        assert_eq!(root, rep.summary_children(0, 0).unwrap());
    }

    // The converged state matches the spec through the normal read path.
    let listed = dir.scan().expect("final scan");
    assert_eq!(listed, spec.scan(), "{ctx}: converged state != spec");
}

/// Shapes: `dense_u8`, `spread`, `bucket_straddle` and `pull_cap_straddle`.
#[test]
fn partitioned_member_converges_by_anti_entropy() {
    for shape in SHAPES.into_iter().chain(straddling(0)) {
        run_convergence(0x0009_E9A1, 60, 60, shape);
    }
}

/// Shapes: `dense_u8` and `spread` (64 seeds), `bucket_straddle` and
/// `pull_cap_straddle` (3 seeds, half as many operations: a pull-cap
/// history writes in batches of about 512 keys).
#[test]
fn convergence_holds_across_random_histories() {
    for seed in 0..64u64 {
        for shape in SHAPES {
            run_convergence(0xA11_0000 + seed, 40, 40, shape);
        }
    }
    for seed in 0..3u64 {
        for shape in straddling(seed) {
            run_convergence(0xA11_0000 + seed, 20, 20, shape);
        }
    }
}

#[test]
fn repair_is_idempotent_on_identical_replicas() {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 0x1DE).unwrap();
    let mut rng = SplitMix64::new(7);
    let draws = workload(Shape::DenseU8(24));
    let mut spec = Spec::new();
    // Every write and read goes to members 0 and 1, so member 2 alone lags;
    // its own repairer levels it, and the repairer under test never runs
    // before the sweep it is judged by.
    for _ in 0..40 {
        let op = spec.narrow(draws.draw(&mut rng));
        let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::with_order(vec![0, 1, 2])));
        let reply = op.run(txn.suite_mut());
        txn.commit();
        assert_eq!(reply, spec.apply(&op), "{op:?}");
    }
    let reps = dir.reps();
    quiesce(&fleet(reps)[2..], "levelling member 2");
    assert!(reps.iter().all(|rep| rep.snapshot() == reps[0].snapshot()));
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
