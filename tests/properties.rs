//! Property-based tests of the core invariants, via proptest, over the key
//! shapes of `repdir::workload::spec`; the suite-level ones check every
//! reply against the directory's sequential spec.

use repdir::core::proptest_mini::collection::vec;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, SuiteConfig};
use repdir::core::{GapMap, Key, UserKey, Version};
use repdir::storage::{
    apply_undo, decode_log, encode_record, undo_for_coalesce, undo_for_insert, GapBTree, WalRecord,
};
use repdir::workload::spec::{self, Kind, Op, Shape, Spec, POINT};
use std::collections::BTreeMap;

/// The point operations and both neighbour searches.
const SEARCHES: &[(u32, Kind)] = &[
    (2, Kind::Insert),
    (2, Kind::Update),
    (2, Kind::Delete),
    (2, Kind::Lookup),
    (1, Kind::RealPredecessor),
    (1, Kind::RealSuccessor),
];

/// The storage-level properties' shapes: the old dense keys and spread.
fn storage() -> Vec<(Shape, u32)> {
    vec![(Shape::DenseU8(24), 128), (Shape::Spread(24), 32)]
}

/// The range a suite delete of `key` would coalesce, when `key` has
/// neighbours to coalesce between.
fn around(m: &GapMap, key: &Key) -> Option<(Key, Key)> {
    let lo = m.predecessor(key).expect("pred").key;
    let hi = m.successor(key).expect("succ").key;
    (lo < hi).then_some((lo, hi))
}

/// The suite agrees with the sequential spec under any operation sequence
/// and any random-quorum seed, for every legal small configuration,
/// neighbour searches included. Shapes: `dense_u8` (128 cases), `spread`
/// and `inline_straddle`.
#[test]
fn suite_matches_sequential_model() {
    spec::check(
        &[
            (Shape::DenseU8(24), 128),
            (Shape::Spread(24), 24),
            (Shape::InlineStraddle(24), 24),
        ],
        |shape| {
            (
                vec(shape.op(SEARCHES), 1..120),
                any::<u64>(),
                0usize..5,
                1usize..5,
            )
        },
        |shape, (ops, seed, cfg_choice, batch)| {
            let (n, r, w) = [(1, 1, 1), (2, 1, 2), (3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
            let config = SuiteConfig::symmetric(n, r, w).expect("legal");
            let mut suite = DirSuite::in_process(config, seed).expect("suite");
            suite.set_neighbor_batch(batch);
            let mut spec = Spec::new();
            for op in &ops {
                prop_assert_eq!(op.run(&mut suite), spec.apply(op), "{:?}", op);
            }
            // Exhaustive final check over the whole key universe.
            for key in shape.keys() {
                let op = Op::Lookup(key);
                prop_assert_eq!(op.run(&mut suite), spec.apply(&op), "{:?}", op);
            }
        },
    );
}

/// GapMap structural invariants hold under arbitrary single-rep operation
/// sequences, and the version function stays total. Shapes: `dense_u8`
/// (128 cases) and `spread`.
#[test]
fn gapmap_invariants() {
    spec::check(
        &storage(),
        |shape| vec(shape.op(POINT), 1..150),
        |_, ops| {
            let mut m = GapMap::new();
            let mut version = Version::ZERO;
            for op in ops {
                version = version.next();
                match op {
                    Op::Insert(k, v) | Op::Update(k, v) => {
                        m.insert(&k, version, v).expect("insert");
                    }
                    Op::Delete(k) => {
                        // Coalesce the range between the key's neighbors
                        // (mimicking a suite delete locally).
                        if let Some((lo, hi)) = around(&m, &k) {
                            m.coalesce(&lo, &hi, version).expect("coalesce");
                        }
                    }
                    Op::Lookup(k) => {
                        let _ = m.lookup(&k);
                    }
                    op => unreachable!("{op:?} is not a point operation"),
                }
                m.check_invariants().expect("invariants");
                // version_of must answer for any key, stored or not.
                let _ = m.version_of(&Key::User(UserKey::from_u64(255)));
                let _ = m.version_of(&Key::Low);
                let _ = m.version_of(&Key::High);
            }
            // Gap count is always entries + 1.
            prop_assert_eq!(m.gaps().count(), m.len() + 1);
        },
    );
}

/// The B-tree representation is observationally identical to GapMap under
/// arbitrary operation sequences, for several node orders. Shapes:
/// `dense_u8` (128 cases) and `spread`.
#[test]
fn gapbtree_equals_gapmap() {
    spec::check(
        &storage(),
        |shape| (vec(shape.op(POINT), 1..120), 3usize..10),
        |_, (ops, order)| {
            let mut m = GapMap::new();
            let mut t = GapBTree::new(order);
            let mut version = Version::ZERO;
            for op in ops {
                version = version.next();
                match op {
                    Op::Insert(k, v) | Op::Update(k, v) => {
                        let rm = m.insert(&k, version, v.clone());
                        let rt = t.insert(&k, version, v);
                        prop_assert_eq!(rm, rt);
                    }
                    Op::Delete(k) => {
                        if let Some((lo, hi)) = around(&m, &k) {
                            let rm = m.coalesce(&lo, &hi, version);
                            let rt = t.coalesce(&lo, &hi, version);
                            prop_assert_eq!(rm, rt);
                        }
                    }
                    Op::Lookup(k) => {
                        prop_assert_eq!(m.lookup(&k), t.lookup(&k));
                        prop_assert_eq!(m.predecessor(&k), t.predecessor(&k));
                        prop_assert_eq!(m.successor(&k), t.successor(&k));
                    }
                    op => unreachable!("{op:?} is not a point operation"),
                }
            }
            t.check_invariants().expect("btree invariants");
            let tree_entries = t.iter_collect();
            let map_entries: Vec<_> = m
                .iter()
                .map(|(k, v, val)| (k.clone(), v, val.clone()))
                .collect();
            prop_assert_eq!(tree_entries, map_entries);
            prop_assert_eq!(t.gaps(), m.gaps().collect::<Vec<_>>());
        },
    );
}

/// Undoing any mutation sequence in reverse restores the exact initial
/// state (the abort path can never leave residue). Shapes: `dense_u8` (128
/// cases) and `spread`.
#[test]
fn undo_restores_initial_state() {
    spec::check(
        &storage(),
        |shape| (vec(shape.op(POINT), 0..40), vec(shape.op(POINT), 1..60)),
        |_, (setup, ops)| {
            let mut m = GapMap::new();
            let mut version = Version::ZERO;
            // Arbitrary committed starting state.
            for op in setup {
                version = version.next();
                if let Op::Insert(k, v) | Op::Update(k, v) = op {
                    m.insert(&k, version, v).expect("setup");
                }
            }
            let before = m.clone();
            let mut log = Vec::new();
            for op in ops {
                version = version.next();
                match op {
                    Op::Insert(k, v) | Op::Update(k, v) => {
                        let out = m.insert(&k, version, v).expect("insert");
                        log.push(undo_for_insert(&k, &out));
                    }
                    Op::Delete(k) => {
                        if let Some((lo, hi)) = around(&m, &k) {
                            let out = m.coalesce(&lo, &hi, version).expect("coalesce");
                            log.push(undo_for_coalesce(&lo, &out));
                        }
                    }
                    _ => {}
                }
            }
            for rec in log.into_iter().rev() {
                apply_undo(&mut m, rec);
            }
            prop_assert_eq!(m, before);
        },
    );
}

/// WAL records survive encode/decode for arbitrary contents, and any
/// truncation of a record stream decodes to a clean prefix. Shapes:
/// `dense_u8` (128 cases) and `spread`.
#[test]
fn wal_roundtrip_and_truncation() {
    spec::check(
        &storage(),
        |shape| {
            (
                vec((any::<u64>(), 0..shape.slots(), any::<u8>()), 1..20),
                0.0f64..1.0,
            )
        },
        |shape, (txns, cut_fraction)| {
            let records: Vec<WalRecord> = txns
                .iter()
                .flat_map(|&(t, k, v)| {
                    vec![
                        WalRecord::Begin { txn: t },
                        WalRecord::Insert {
                            txn: t,
                            key: shape.key(k),
                            version: Version::new(u64::from(v)),
                            value: shape.value(v),
                        },
                        WalRecord::Commit { txn: t },
                    ]
                })
                .collect();
            let mut log = Vec::new();
            let mut boundaries = vec![0usize];
            for rec in &records {
                log.extend(encode_record(rec));
                boundaries.push(log.len());
            }
            // Full decode is clean and exact.
            let (decoded, clean) = decode_log(&log);
            prop_assert!(clean);
            prop_assert_eq!(&decoded, &records);
            // Any truncation decodes to a prefix of the records.
            let cut = (log.len() as f64 * cut_fraction) as usize;
            let (prefix, clean) = decode_log(&log[..cut]);
            prop_assert!(prefix.len() <= records.len());
            prop_assert_eq!(&prefix[..], &records[..prefix.len()]);
            prop_assert_eq!(clean, boundaries.contains(&cut));
        },
    );
}

/// Version numbers at every representative never decrease for any key
/// across a workload (the monotonicity the correctness argument needs),
/// and every reply is the spec's. Shapes: `dense_u8` (128 cases), `spread`
/// and `inline_straddle`.
#[test]
fn per_key_versions_never_regress() {
    spec::check(
        &[
            (Shape::DenseU8(24), 128),
            (Shape::Spread(24), 32),
            (Shape::InlineStraddle(24), 32),
        ],
        |shape| (vec(shape.op(POINT), 1..80), any::<u64>()),
        |shape, (ops, seed)| {
            let config = SuiteConfig::symmetric(3, 2, 2).expect("legal");
            let mut suite = DirSuite::in_process(config, seed).expect("suite");
            let mut spec = Spec::new();
            // floor[rep][key] = highest version ever observed there.
            let mut floor = vec![BTreeMap::new(); 3];
            for op in &ops {
                prop_assert_eq!(op.run(&mut suite), spec.apply(op), "{:?}", op);
                for (rep, rep_floor) in floor.iter_mut().enumerate() {
                    let snap = suite.member(rep).snapshot();
                    for key in shape.keys() {
                        let v = snap.version_of(&key);
                        let seen = rep_floor.entry(key.clone()).or_insert(Version::ZERO);
                        prop_assert!(
                            v >= *seen,
                            "rep {} key {:?} regressed {:?} -> {:?} after {:?}",
                            rep,
                            key,
                            *seen,
                            v,
                            op
                        );
                        *seen = v;
                    }
                }
            }
        },
    );
}
