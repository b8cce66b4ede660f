//! Randomized failure injection against the full transactional stack:
//! representatives flap up and down between operations; operations either
//! succeed (and must answer as the sequential spec does) or fail cleanly
//! (and must leave no trace) — over representatives in this process and
//! over representatives behind `serve_rep`.

mod support;

use std::sync::Arc;
use std::time::Duration;

use repdir::core::rng::SplitMix64;
use repdir::core::suite::SuiteConfig;
use repdir::core::SuiteError;
use repdir::net::{Network, NodeId};
use repdir::replica::{Members, ReplicatedDirectory, TransactionalRep};
use repdir::workload::spec::{Kind, Shape, Spec};
use support::Served;

/// Every shape a run draws from: the old dense keys, spread keys, values
/// on both sides of the inline bound, and bulk batches one past a chunk.
const SHAPES: [Shape; 4] = [
    Shape::DenseU8(16),
    Shape::Spread(16),
    Shape::InlineStraddle(16),
    Shape::ChunkStraddle(65),
];

fn heal(reps: &[Arc<TransactionalRep>]) {
    for rep in reps {
        rep.set_available(true);
    }
}

fn run_flapping(shape: Shape, seed: u64, rep_up_prob: f64, ops: u32) {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), seed).unwrap();
    flap(&dir, dir.reps(), shape, seed, rep_up_prob, ops);
}

/// [`run_flapping`] over three representatives behind `serve_rep`.
fn run_flapping_networked(shape: Shape, seed: u64, rep_up_prob: f64, ops: u32) {
    let net = Arc::new(Network::new(seed));
    let cluster = Served::new(&net, NodeId(1), Duration::from_secs(2), seed);
    flap(&cluster.dir, &cluster.reps, shape, seed, rep_up_prob, ops);
}

/// Flaps `reps`, the members of `dir`, before each of `ops` operations.
fn flap<M: Members>(
    dir: &ReplicatedDirectory<M>,
    reps: &[Arc<TransactionalRep>],
    shape: Shape,
    seed: u64,
    rep_up_prob: f64,
    ops: u32,
) {
    const MIX: &[(u32, Kind)] = &[
        (1, Kind::Insert),
        (1, Kind::Update),
        (1, Kind::Delete),
        (1, Kind::Scan),
        (1, Kind::Lookup),
        (1, Kind::InsertMany),
        (1, Kind::DeleteMany),
    ];
    let mut rng = SplitMix64::new(seed);
    let draws = shape.op(MIX).batch(1..5);
    let mut spec = Spec::new();
    let mut succeeded = 0u32;
    let mut unavailable = 0u32;

    for step in 0..ops {
        // Flap representatives.
        for rep in reps {
            rep.set_available(rng.next_bool(rep_up_prob));
        }
        // Narrowed, every write would land: a batch is a real multi-key
        // write, which the members' failure must roll back whole.
        let op = spec.narrow(draws.draw(&mut rng));
        match dir.run(|suite| op.run(suite)) {
            Err(SuiteError::QuorumUnavailable { .. }) | Err(SuiteError::Rep(_)) => {
                unavailable += 1;
                // Failed operations must leave no logical trace; verify by
                // healing and listing every entry.
                heal(reps);
                let listed = dir.scan().expect("scan with all up");
                let ctx = format!("{shape:?} step {step}: failed {op:?} left residue");
                assert_eq!(listed, spec.scan(), "{ctx}");
            }
            reply => {
                succeeded += u32::from(reply.is_ok());
                assert_eq!(reply, spec.apply(&op), "{shape:?} step {step}: {op:?}");
            }
        }
    }

    // Final audit with everything healed.
    heal(reps);
    for key in shape.keys() {
        let found = dir.lookup(&key).expect("lookup with all up").value;
        assert_eq!(
            found,
            spec.lookup(&key),
            "{shape:?}: final audit of {key:?}"
        );
    }
    let listed = dir.scan().expect("final scan with all up");
    assert_eq!(listed, spec.scan(), "{shape:?}: final scan audit");
    // Sanity on the mix: with p=0.8 both outcomes should appear.
    if rep_up_prob < 0.95 {
        assert!(succeeded > 0, "{shape:?}: nothing succeeded");
        assert!(
            unavailable > 0,
            "{shape:?}: nothing failed — flapping ineffective?"
        );
    }
}

/// Shapes: `dense_u8`, `spread`, `inline_straddle` and `chunk_straddle`
/// (65), in process and networked.
#[test]
fn flapping_reps_at_80_percent() {
    for shape in SHAPES {
        run_flapping(shape, 0xF1A9, 0.8, 300);
        run_flapping_networked(shape, 0xF1A9, 0.8, 300);
    }
}

/// Shapes: `dense_u8`, `spread`, `inline_straddle` and `chunk_straddle`
/// (65).
#[test]
fn flapping_reps_at_60_percent() {
    for shape in SHAPES {
        run_flapping(shape, 0xF1AA, 0.6, 300);
    }
}

/// Shapes: `dense_u8`, `spread`, `inline_straddle` and `chunk_straddle`
/// (65).
#[test]
fn flapping_reps_at_95_percent_multiple_seeds() {
    for seed in 0..4 {
        for shape in SHAPES {
            run_flapping(shape, 0xF200 + seed, 0.95, 200);
        }
    }
}

/// Crash-recover a representative *between* operations of the same
/// workload: recovery must agree with the spec exactly. Shapes: `dense_u8`,
/// `spread` and `inline_straddle`.
#[test]
fn random_crashes_between_operations() {
    const MIX: &[(u32, Kind)] = &[(1, Kind::Insert), (1, Kind::Delete), (1, Kind::Lookup)];
    for shape in [
        Shape::DenseU8(12),
        Shape::Spread(12),
        Shape::InlineStraddle(12),
    ] {
        let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let dir = ReplicatedDirectory::new(config, 0xCAFE).unwrap();
        let mut rng = SplitMix64::new(0xCAFE);
        let draws = shape.op(MIX);
        let mut spec = Spec::new();
        for step in 0..250 {
            if rng.next_bool(0.1) {
                let victim = rng.next_below(3) as usize;
                dir.reps()[victim].crash_and_recover().unwrap();
            }
            let op = draws.draw(&mut rng);
            let reply = dir.run(|suite| op.run(suite));
            assert_eq!(reply, spec.apply(&op), "{shape:?} step {step}: {op:?}");
        }
    }
}
