//! Equivalence tests for adaptive wave provisioning and hedged reads.
//!
//! The adaptive executor changes *how many* candidates a quorum wave asks
//! and *which* straggler a hedge duplicates — never what a quorum means: by
//! the paper's §3.1 intersection argument, any member set whose votes reach
//! the threshold is a valid quorum, and every read quorum sees the current
//! version of every key. These tests pin the consequence: on a fault-free
//! fabric the adaptive suite (with and without hedging) agrees op-for-op
//! with the minimal-prefix baseline and with a sequential `BTreeMap` model,
//! and its request spend (pings plus the requests collections carry) stays
//! inside the over-provision cap.

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

#[derive(Clone, Copy)]
enum Mode {
    /// Minimal-prefix waves, no hedging — the pre-adaptive baseline.
    Baseline,
    /// Adaptive wave sizing (the default), no hedging.
    Adaptive,
    /// Adaptive waves plus hedged collections, carried or pinged.
    Hedged,
}

/// Replays `ops` against a fresh in-process suite in the given mode and
/// returns a *semantic* transcript plus the total member requests sent
/// (pings and data: a point operation's collection carries its request, so
/// pings alone no longer count what collections spend).
///
/// The transcript deliberately omits which members formed each quorum and
/// incidental side-effect counts (`ghosts_deleted`): hedging may substitute
/// a spare member's reply for a straggler's, so quorum composition is
/// allowed to differ — the §3.1 guarantee is that answers, versions, and
/// errors cannot.
fn replay(ops: &[Op], seed: u64, config: SuiteConfig, mode: Mode) -> (Vec<String>, u64) {
    let mut suite = DirSuite::in_process(config, seed).expect("suite");
    match mode {
        Mode::Baseline => suite.set_adaptive_waves(false),
        Mode::Adaptive => assert!(suite.adaptive_waves_enabled(), "adaptive is the default"),
        Mode::Hedged => suite.set_hedge(true),
    }
    let mut log = Vec::with_capacity(ops.len());
    for op in ops {
        let outcome = match *op {
            Op::Insert(k, v) => match suite.insert(&key_of(k), &value_of(v)) {
                Ok(out) => format!("insert v{:?}", out.version),
                Err(e) => format!("insert err {e:?}"),
            },
            Op::Update(k, v) => match suite.update(&key_of(k), &value_of(v)) {
                Ok(out) => format!("update v{:?}", out.version),
                Err(e) => format!("update err {e:?}"),
            },
            Op::Delete(k) => match suite.delete(&key_of(k)) {
                Ok(out) => format!("delete {:?}..{:?}", out.predecessor, out.successor),
                Err(e) => format!("delete err {e:?}"),
            },
            Op::Lookup(k) => match suite.lookup(&key_of(k)) {
                Ok(out) => format!(
                    "lookup present={} v{:?} {:?}",
                    out.present, out.version, out.value
                ),
                Err(e) => format!("lookup err {e:?}"),
            },
        };
        log.push(outcome);
    }
    let requests =
        suite.ping_counts().iter().sum::<u64>() + suite.message_counts().iter().sum::<u64>();
    (log, requests)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adaptive waves and hedging agree op-for-op with the minimal-prefix
    /// baseline and with the abstract model; on a fault-free fabric the
    /// adaptive waves *are* the minimal prefixes (identical request
    /// counts), and hedging stays inside the over-provision cap (at most 2x
    /// the baseline's requests, the default `max_overprovision`).
    #[test]
    fn adaptive_and_hedged_match_baseline_and_model(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        seed in any::<u64>(),
        cfg_choice in 0usize..3,
    ) {
        let (n, r, w) = [(3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
        let config = SuiteConfig::symmetric(n, r, w).expect("legal");

        // Adaptive (default) run, checked against the abstract model.
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

        // Same seed, three modes: identical semantic transcripts.
        let (log_base, reqs_base) = replay(&ops, seed, config.clone(), Mode::Baseline);
        let (log_adapt, reqs_adapt) = replay(&ops, seed, config.clone(), Mode::Adaptive);
        let (log_hedge, reqs_hedge) = replay(&ops, seed, config, Mode::Hedged);
        prop_assert_eq!(&log_adapt, &log_base, "adaptive diverged from baseline");
        prop_assert_eq!(&log_hedge, &log_base, "hedged diverged from baseline");

        // Fault-free fabric: availability never drops below 1.0, so every
        // adaptive wave is exactly the baseline's minimal prefix.
        prop_assert_eq!(reqs_adapt, reqs_base);
        // Hedges may fire spuriously under scheduler noise, but each wave
        // (hedges included) is capped at `max_overprovision` (2.0) times
        // its vote deficit, so the run never spends more than twice the
        // baseline's requests.
        prop_assert!(
            reqs_hedge <= reqs_base * 2,
            "hedged requests {} exceed 2x baseline {}",
            reqs_hedge,
            reqs_base
        );
    }
}
