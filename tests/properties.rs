//! Property-based tests of the core invariants, via proptest.

use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, SuiteConfig};
use repdir::core::{GapMap, Key, UserKey, Value, Version};
use repdir::storage::{
    apply_undo, decode_log, encode_record, undo_for_coalesce, undo_for_insert, GapBTree, WalRecord,
};
use std::collections::BTreeMap;

/// An abstract operation over a small key universe.
#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u8),
    Update(u8, u8),
    Delete(u8),
    Lookup(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 24, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Update(k % 24, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 24)),
        any::<u8>().prop_map(|k| Op::Lookup(k % 24)),
    ]
}

fn key_of(k: u8) -> Key {
    Key::User(UserKey::from_u64(k as u64))
}

fn value_of(v: u8) -> Value {
    Value::from(vec![v])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The suite agrees with a sequential map model under any operation
    /// sequence and any random-quorum seed, for every legal small
    /// configuration.
    #[test]
    fn suite_matches_sequential_model(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in any::<u64>(),
        cfg_choice in 0usize..5,
        batch in 1usize..5,
    ) {
        let (n, r, w) = [(1, 1, 1), (2, 1, 2), (3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
        let config = SuiteConfig::symmetric(n, r, w).expect("legal");
        let mut suite = DirSuite::in_process(config, seed).expect("suite");
        suite.set_neighbor_batch(batch);
        let mut model: BTreeMap<u8, u8> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let result = suite.insert(&key_of(k), &value_of(v));
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        prop_assert!(result.is_ok());
                        e.insert(v);
                    } else {
                        prop_assert!(result.is_err());
                    }
                }
                Op::Update(k, v) => {
                    let result = suite.update(&key_of(k), &value_of(v));
                    if let std::collections::btree_map::Entry::Occupied(mut e) = model.entry(k) {
                        prop_assert!(result.is_ok());
                        e.insert(v);
                    } else {
                        prop_assert!(result.is_err());
                    }
                }
                Op::Delete(k) => {
                    let result = suite.delete(&key_of(k));
                    if model.remove(&k).is_some() {
                        prop_assert!(result.is_ok());
                    } else {
                        prop_assert!(result.is_err());
                    }
                }
                Op::Lookup(k) => {
                    let out = suite.lookup(&key_of(k)).expect("lookup");
                    prop_assert_eq!(out.present, model.contains_key(&k));
                    if let Some(v) = model.get(&k) {
                        prop_assert_eq!(out.value, Some(value_of(*v)));
                    }
                }
            }
        }
        // Exhaustive final check over the whole key universe.
        for k in 0u8..24 {
            let out = suite.lookup(&key_of(k)).expect("final lookup");
            prop_assert_eq!(out.present, model.contains_key(&k), "key {}", k);
        }
    }

    /// GapMap structural invariants hold under arbitrary single-rep
    /// operation sequences, and the version function stays total.
    #[test]
    fn gapmap_invariants(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let mut m = GapMap::new();
        let mut version = Version::ZERO;
        for op in ops {
            version = version.next();
            match op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    m.insert(&key_of(k), version, value_of(v)).expect("insert");
                }
                Op::Delete(k) => {
                    // Coalesce the range between the key's neighbors if the
                    // boundaries exist (mimicking a suite delete locally).
                    let lo = m.predecessor(&key_of(k)).expect("pred").key;
                    let hi = m.successor(&key_of(k)).expect("succ").key;
                    if lo < hi {
                        m.coalesce(&lo, &hi, version).expect("coalesce");
                    }
                }
                Op::Lookup(k) => {
                    let _ = m.lookup(&key_of(k));
                }
            }
            m.check_invariants().expect("invariants");
            // version_of must answer for any key, stored or not.
            let _ = m.version_of(&key_of(255));
            let _ = m.version_of(&Key::Low);
            let _ = m.version_of(&Key::High);
        }
        // Gap count is always entries + 1.
        prop_assert_eq!(m.gaps().count(), m.len() + 1);
    }

    /// The B-tree representation is observationally identical to GapMap
    /// under arbitrary operation sequences, for several node orders.
    #[test]
    fn gapbtree_equals_gapmap(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        order in 3usize..10,
    ) {
        let mut m = GapMap::new();
        let mut t = GapBTree::new(order);
        let mut version = Version::ZERO;
        for op in ops {
            version = version.next();
            match op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    let rm = m.insert(&key_of(k), version, value_of(v));
                    let rt = t.insert(&key_of(k), version, value_of(v));
                    prop_assert_eq!(rm, rt);
                }
                Op::Delete(k) => {
                    let lo = m.predecessor(&key_of(k)).expect("pred").key;
                    let hi = m.successor(&key_of(k)).expect("succ").key;
                    if lo < hi {
                        let rm = m.coalesce(&lo, &hi, version);
                        let rt = t.coalesce(&lo, &hi, version);
                        prop_assert_eq!(rm, rt);
                    }
                }
                Op::Lookup(k) => {
                    prop_assert_eq!(m.lookup(&key_of(k)), t.lookup(&key_of(k)));
                    prop_assert_eq!(m.predecessor(&key_of(k)), t.predecessor(&key_of(k)));
                    prop_assert_eq!(m.successor(&key_of(k)), t.successor(&key_of(k)));
                }
            }
        }
        t.check_invariants().expect("btree invariants");
        let tree_entries = t.iter_collect();
        let map_entries: Vec<_> = m.iter().map(|(k, v, val)| (k.clone(), v, val.clone())).collect();
        prop_assert_eq!(tree_entries, map_entries);
        prop_assert_eq!(t.gaps(), m.gaps().collect::<Vec<_>>());
    }

    /// Undoing any mutation sequence in reverse restores the exact initial
    /// state (the abort path can never leave residue).
    #[test]
    fn undo_restores_initial_state(
        setup in proptest::collection::vec(op_strategy(), 0..40),
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut m = GapMap::new();
        let mut version = Version::ZERO;
        // Arbitrary committed starting state.
        for op in setup {
            version = version.next();
            if let Op::Insert(k, v) | Op::Update(k, v) = op {
                m.insert(&key_of(k), version, value_of(v)).expect("setup");
            }
        }
        let before = m.clone();
        let mut log = Vec::new();
        for op in ops {
            version = version.next();
            match op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    let out = m.insert(&key_of(k), version, value_of(v)).expect("insert");
                    log.push(undo_for_insert(&key_of(k), &out));
                }
                Op::Delete(k) => {
                    let lo = m.predecessor(&key_of(k)).expect("pred").key;
                    let hi = m.successor(&key_of(k)).expect("succ").key;
                    if lo < hi {
                        let out = m.coalesce(&lo, &hi, version).expect("coalesce");
                        log.push(undo_for_coalesce(&lo, &out));
                    }
                }
                Op::Lookup(_) => {}
            }
        }
        for rec in log.into_iter().rev() {
            apply_undo(&mut m, rec);
        }
        prop_assert_eq!(m, before);
    }

    /// WAL records survive encode/decode for arbitrary contents, and any
    /// truncation of a record stream decodes to a clean prefix.
    #[test]
    fn wal_roundtrip_and_truncation(
        txns in proptest::collection::vec((any::<u64>(), any::<u8>(), any::<u8>()), 1..20),
        cut_fraction in 0.0f64..1.0,
    ) {
        let records: Vec<WalRecord> = txns
            .iter()
            .flat_map(|&(t, k, v)| {
                vec![
                    WalRecord::Begin { txn: t },
                    WalRecord::Insert {
                        txn: t,
                        key: key_of(k),
                        version: Version::new(v as u64),
                        value: value_of(v),
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
    }

    /// Version numbers at every representative never decrease for any key
    /// across a workload (the monotonicity the correctness argument needs).
    #[test]
    fn per_key_versions_never_regress(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        seed in any::<u64>(),
    ) {
        let config = SuiteConfig::symmetric(3, 2, 2).expect("legal");
        let mut suite = DirSuite::in_process(config, seed).expect("suite");
        let mut model: BTreeMap<u8, u8> = BTreeMap::new();
        // floor[rep][key] = highest version ever observed there.
        let mut floor = vec![[Version::ZERO; 24]; 3];
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    model.entry(k).or_insert_with(|| {
                        suite.insert(&key_of(k), &value_of(v)).expect("insert");
                        v
                    });
                }
                Op::Update(k, v) => {
                    if model.contains_key(&k) {
                        suite.update(&key_of(k), &value_of(v)).expect("update");
                    }
                }
                Op::Delete(k) => {
                    if model.remove(&k).is_some() {
                        suite.delete(&key_of(k)).expect("delete");
                    }
                }
                Op::Lookup(_) => {}
            }
            for (rep, rep_floor) in floor.iter_mut().enumerate() {
                let snap = suite.member(rep).snapshot();
                for k in 0u8..24 {
                    let v = snap.version_of(&key_of(k));
                    prop_assert!(
                        v >= rep_floor[k as usize],
                        "rep {} key {} regressed {:?} -> {:?}",
                        rep, k, rep_floor[k as usize], v
                    );
                    rep_floor[k as usize] = v;
                }
            }
        }
    }
}
