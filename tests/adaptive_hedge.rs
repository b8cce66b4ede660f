//! Equivalence tests for wave provisioning and hedged reads.
//!
//! Wave sizing changes *how many* candidates a quorum wave asks and hedging
//! *which* straggler is duplicated — never what a quorum means: by the
//! paper's §3.1 intersection argument, any member set whose votes reach the
//! threshold is a valid quorum, and every read quorum sees the current
//! version of every key. These tests pin the consequence: on a fault-free
//! fabric the suite agrees op-for-op with a sequential `BTreeMap` model and,
//! hedged, with its unhedged default; unhedged it sends exactly the
//! requests the analysis says (a wave is the minimal prefix while every
//! member answers), and hedged its spend (pings plus the requests
//! collections carry) stays inside the over-provision cap.

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

/// Replays `ops` against a fresh in-process suite, hedged or not (the
/// default), and returns a *semantic* transcript plus the member requests
/// each operation sent (pings and data: a point operation's collection
/// carries its request, so pings alone do not count what collections spend)
/// beside the band the fault-free analysis allows it: lookup R, insert and
/// update R + W (R when the lookup refuses them), delete R + 2W (R when the
/// key is absent) plus at most one request per chain a ghost made a walk
/// fetch beyond wave A's.
///
/// The transcript deliberately omits which members formed each quorum and
/// incidental side-effect counts (`ghosts_deleted`): hedging may substitute
/// a spare member's reply for a straggler's, so quorum composition is
/// allowed to differ — the §3.1 guarantee is that answers, versions, and
/// errors cannot.
fn replay(
    ops: &[Op],
    seed: u64,
    config: SuiteConfig,
    hedged: bool,
) -> (Vec<String>, Vec<(u64, u64, u64)>) {
    let (r, w) = (config.read_quorum() as u64, config.write_quorum() as u64);
    let mut suite = DirSuite::in_process(config, seed).expect("suite");
    suite.set_hedge(hedged);
    let mut log = Vec::with_capacity(ops.len());
    let mut spend = Vec::with_capacity(ops.len());
    for op in ops {
        suite.reset_message_counts();
        let (outcome, least, most) = match *op {
            Op::Insert(k, v) => match suite.insert(&key_of(k), &value_of(v)) {
                Ok(out) => (format!("insert v{:?}", out.version), r + w, r + w),
                Err(e) => (format!("insert err {e:?}"), r, r),
            },
            Op::Update(k, v) => match suite.update(&key_of(k), &value_of(v)) {
                Ok(out) => (format!("update v{:?}", out.version), r + w, r + w),
                Err(e) => (format!("update err {e:?}"), r, r),
            },
            Op::Delete(k) => match suite.delete(&key_of(k)) {
                Ok(out) => {
                    let refills = u64::from(out.pred_rpcs + out.succ_rpcs) - 2 * r;
                    let outcome = format!("delete {:?}..{:?}", out.predecessor, out.successor);
                    (outcome, r + 2 * w, r + 2 * w + refills)
                }
                Err(e) => (format!("delete err {e:?}"), r, r),
            },
            Op::Lookup(k) => match suite.lookup(&key_of(k)) {
                Ok(out) => {
                    let (present, version) = (out.present, out.version);
                    let outcome = format!("lookup present={present} v{version:?} {:?}", out.value);
                    (outcome, r, r)
                }
                Err(e) => (format!("lookup err {e:?}"), r, r),
            },
        };
        log.push(outcome);
        let sent = suite
            .ping_counts()
            .iter()
            .chain(&suite.message_counts())
            .sum();
        spend.push((sent, least, most));
    }
    (log, spend)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The suite agrees op-for-op with the abstract model and, hedged, with
    /// its unhedged default; on a fault-free fabric every wave is the
    /// minimal prefix (each operation sends its analytic request count),
    /// and hedging stays inside the over-provision cap (at most 2x the
    /// unhedged requests).
    #[test]
    fn adaptive_and_hedged_match_baseline_and_model(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
        cfg_choice in 0usize..3,
    ) {
        let (n, r, w) = [(3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
        let config = SuiteConfig::symmetric(n, r, w).expect("legal");

        // Default run, checked against the abstract model.
        let mut suite = DirSuite::in_process(config.clone(), seed).expect("suite");
        let mut model: BTreeMap<u8, u8> = BTreeMap::new();
        for op in &ops {
            match *op {
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
                        prop_assert_eq!(out.value.clone(), Some(value_of(*v)));
                    }
                }
            }
        }

        // Same seed, hedged and not: identical semantic transcripts.
        let (log_base, spend_base) = replay(&ops, seed, config.clone(), false);
        let (log_hedge, spend_hedge) = replay(&ops, seed, config, true);
        prop_assert_eq!(&log_hedge, &log_base, "hedged diverged from baseline");

        // Fault-free fabric: availability never drops below 1.0, so every
        // wave is exactly the minimal prefix and nothing is pinged.
        for (op, &(sent, least, most)) in ops.iter().zip(&spend_base) {
            prop_assert!(
                (least..=most).contains(&sent),
                "{:?} sent {} requests, analysis says {}..={}",
                op, sent, least, most
            );
        }
        // Hedges may fire spuriously under scheduler noise, but each wave
        // (hedges included) is capped at 2.0 times its vote deficit, so the
        // run never spends more than twice the unhedged requests.
        let total = |spend: &[(u64, u64, u64)]| spend.iter().map(|s| s.0).sum::<u64>();
        let (reqs_base, reqs_hedge) = (total(&spend_base), total(&spend_hedge));
        prop_assert!(
            reqs_hedge <= reqs_base * 2,
            "hedged requests {} exceed 2x baseline {}",
            reqs_hedge,
            reqs_base
        );
    }
}
