//! The full transactional stack running on the paper's §5 B-tree
//! representation instead of the default map — same semantics, byte-level
//! different storage.

use repdir::core::rng::SplitMix64;
use repdir::core::suite::SuiteConfig;
use repdir::core::{Key, UserKey, Value};
use repdir::replica::ReplicatedDirectory;
use repdir::storage::Backend;
use repdir::workload::spec::{Shape, Spec, POINT};

fn btree_dir(seed: u64, order: usize) -> ReplicatedDirectory {
    ReplicatedDirectory::with_backend(
        SuiteConfig::symmetric(3, 2, 2).unwrap(),
        seed,
        Backend::GapBTree { order },
    )
    .unwrap()
}

#[test]
fn crud_on_btree_backed_representatives() {
    let dir = btree_dir(1, 4);
    dir.insert(&Key::from("a"), &Value::from("A")).unwrap();
    dir.insert(&Key::from("b"), &Value::from("B")).unwrap();
    assert!(dir.lookup(&Key::from("a")).unwrap().present);
    dir.update(&Key::from("a"), &Value::from("A2")).unwrap();
    dir.delete(&Key::from("b")).unwrap();
    assert!(!dir.lookup(&Key::from("b")).unwrap().present);
    assert_eq!(
        dir.lookup(&Key::from("a")).unwrap().value,
        Some(Value::from("A2"))
    );
}

#[test]
fn btree_backend_survives_crash_recovery() {
    let dir = btree_dir(2, 5);
    for i in 0..40u64 {
        dir.insert(&Key::User(UserKey::from_u64(i)), &Value::from("v"))
            .unwrap();
    }
    for i in (0..40u64).step_by(2) {
        dir.delete(&Key::User(UserKey::from_u64(i))).unwrap();
    }
    for rep in dir.reps() {
        rep.crash_and_recover().unwrap();
    }
    for i in 0..40u64 {
        let out = dir.lookup(&Key::User(UserKey::from_u64(i))).unwrap();
        assert_eq!(out.present, i % 2 == 1, "key {i}");
    }
}

/// The same seeded workload against both backends: every reply must match
/// the sequential spec. Shapes: `dense_u8` and `spread`.
#[test]
fn btree_and_map_backends_agree_on_a_random_workload() {
    for shape in [Shape::DenseU8(20), Shape::Spread(20)] {
        let map_dir =
            ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 7).unwrap();
        let tree_dir = btree_dir(7, 4);
        let mut spec = Spec::new();
        let mut rng = SplitMix64::new(99);
        let draws = shape.op(POINT);
        for step in 0..400 {
            let op = draws.draw(&mut rng);
            let expect = spec.apply(&op);
            for dir in [&map_dir, &tree_dir] {
                let reply = dir.run(|suite| op.run(suite));
                assert_eq!(reply, expect, "{shape:?} step {step}: {op:?}");
            }
        }
        // Snapshot invariants hold on every B-tree-backed representative.
        for rep in tree_dir.reps() {
            rep.snapshot().check_invariants().unwrap();
        }
    }
}

#[test]
fn transactions_roll_back_on_btree_backend() {
    let dir = btree_dir(3, 4);
    dir.insert(&Key::from("keep"), &Value::from("K")).unwrap();
    {
        let mut txn = dir.begin();
        txn.suite_mut()
            .insert(&Key::from("temp"), &Value::from("T"))
            .unwrap();
        txn.suite_mut()
            .update(&Key::from("keep"), &Value::from("dirty"))
            .unwrap();
        txn.abort();
    }
    assert!(!dir.lookup(&Key::from("temp")).unwrap().present);
    assert_eq!(
        dir.lookup(&Key::from("keep")).unwrap().value,
        Some(Value::from("K"))
    );
}
