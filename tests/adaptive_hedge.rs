//! Equivalence tests for adaptive wave provisioning.
//!
//! Wave sizing changes *how many* candidates a quorum wave asks — never what
//! a quorum means: by the paper's §3.1 intersection argument, any member set
//! whose votes reach the threshold is a valid quorum, and every read quorum
//! sees the current version of every key. These tests pin the consequence:
//! on a fault-free fabric the suite agrees op-for-op with a sequential
//! `BTreeMap` model, and every operation sends exactly the requests the
//! analysis says (a wave is the minimal prefix while every member answers).

use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, SuiteConfig};
use repdir::core::{Key, UserKey, Value};
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
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 16, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Update(k % 16, v)),
        any::<u8>().prop_map(|k| Op::Delete(k % 16)),
        any::<u8>().prop_map(|k| Op::Lookup(k % 16)),
    ]
}

fn key_of(k: u8) -> Key {
    Key::User(UserKey::from_u64(k as u64))
}

fn value_of(v: u8) -> Value {
    Value::from(vec![v])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The suite agrees op-for-op with the abstract model, and on a
    /// fault-free fabric every wave is the minimal prefix: each operation
    /// sends (pings plus data — a point operation's collection carries its
    /// request, so pings alone do not count what collections spend) the
    /// band the analysis allows it: lookup R, insert and update R + W (R
    /// when the lookup refuses them), delete R + 2W (R when the key is
    /// absent) plus at most one request per chain a ghost made a walk fetch
    /// beyond wave A's.
    #[test]
    fn adaptive_and_hedged_match_baseline_and_model(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
        cfg_choice in 0usize..3,
    ) {
        let (n, r, w) = [(3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
        let config = SuiteConfig::symmetric(n, r, w).expect("legal");
        let (r, w) = (u64::from(r), u64::from(w));
        let mut suite = DirSuite::in_process(config, seed).expect("suite");
        let mut model: BTreeMap<u8, u8> = BTreeMap::new();
        for op in &ops {
            suite.reset_message_counts();
            let (least, most) = match *op {
                Op::Insert(k, v) => {
                    let result = suite.insert(&key_of(k), &value_of(v));
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        prop_assert!(result.is_ok());
                        e.insert(v);
                        (r + w, r + w)
                    } else {
                        prop_assert!(result.is_err());
                        (r, r)
                    }
                }
                Op::Update(k, v) => {
                    let result = suite.update(&key_of(k), &value_of(v));
                    if let std::collections::btree_map::Entry::Occupied(mut e) = model.entry(k) {
                        prop_assert!(result.is_ok());
                        e.insert(v);
                        (r + w, r + w)
                    } else {
                        prop_assert!(result.is_err());
                        (r, r)
                    }
                }
                Op::Delete(k) => {
                    let result = suite.delete(&key_of(k));
                    if model.remove(&k).is_some() {
                        let out = result.expect("the model holds the key");
                        let refills = u64::from(out.pred_rpcs + out.succ_rpcs) - 2 * r;
                        (r + 2 * w, r + 2 * w + refills)
                    } else {
                        prop_assert!(result.is_err());
                        (r, r)
                    }
                }
                Op::Lookup(k) => {
                    let out = suite.lookup(&key_of(k)).expect("lookup");
                    prop_assert_eq!(out.present, model.contains_key(&k));
                    if let Some(v) = model.get(&k) {
                        prop_assert_eq!(out.value.clone(), Some(value_of(*v)));
                    }
                    (r, r)
                }
            };
            let sent: u64 = suite
                .ping_counts()
                .iter()
                .chain(&suite.message_counts())
                .sum();
            prop_assert!(
                (least..=most).contains(&sent),
                "{:?} sent {} requests, analysis says {}..={}",
                op, sent, least, most
            );
        }
    }
}
