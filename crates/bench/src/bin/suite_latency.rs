//! Round and message budgets of the point operations over a fabric with
//! nonzero per-hop delay, and what a round costs there.
//!
//! The paper's cost model (§3–§4) counts quorum *rounds*: the suite sends to
//! all quorum members and gathers replies, so an operation should cost the
//! slowest member's round-trip, not the sum of every member's. This bench
//! runs one `DirSuite` workload over a latency fabric twice — through
//! `reference::Inline` clients, which serialize every wave, and through the
//! remote clients as shipped — and counts what each operation spent: waves
//! (`suite.rounds`), per-member data requests and pings, fabric messages and
//! their payload bytes.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin suite_latency [-- --quick] [--check]
//! ```
//!
//! `--quick` shrinks the workload and per-hop delay for CI; `--check` exits
//! nonzero unless both runs spent exactly the pinned budget — a lookup 1
//! round of R requests, an insert 2 rounds of R + W, a delete 3 rounds of
//! R + 2W, no ping, two fabric messages per request (the gate
//! `scripts/check.sh` runs) — and unless the obs-instrumented build (timing
//! armed: spans and latency samples recorded) stays within 5% of the same
//! workload with every registry disarmed. Fabric bytes, wall-clock and the
//! speed-up over the serialized run are reported, not gated, and so is what a transaction
//! pays in process beside its quorum work: `DirSuite::new`, and a whole
//! `ReplicatedDirectory::lookup` at 3-2-2, healthy and with one member down.
//! Every run rewrites `BENCH_quorum_fanout.json` at the repo root.

use std::time::{Duration, Instant};

use repdir_baselines::reference::Inline;
use repdir_bench::fabric::{lossless, Fixture, Samples, Spent};
use repdir_core::suite::{DirSuite, FixedPolicy, SuiteConfig};
use repdir_core::{Key, LocalRep, RepClient, RepId, Value};
use repdir_replica::{RemoteSessionClient, ReplicatedDirectory};

/// One measured configuration: members, read quorum, write quorum.
type Config = (u32, u32, u32);

/// Builds a fresh suite of remote clients, each wrapped by `wrap`, over a
/// lossless fabric with fixed per-hop latency. Fresh per run so WAL growth
/// and ghosts from one never skew the other.
fn build<C: RepClient>(
    cfg: Config,
    base: Duration,
    seed: u64,
    wrap: impl Fn(RemoteSessionClient) -> C,
) -> Fixture<C> {
    let (timeout, policy) = (Duration::from_secs(10), Box::new(FixedPolicy::new()));
    Fixture::new(lossless(seed, base), cfg, timeout, policy, wrap)
}

const KINDS: [&str; 3] = ["lookup", "insert", "delete"];

/// Per kind ([`KINDS`]): how many operations ran and what they spent.
type Costs = [(u64, Spent); 3];

/// The pinned budget of the fault-free operations counted in `costs`: a
/// lookup is 1 round of R requests, an insert 2 rounds of R + W, a delete 3
/// rounds of R + 2W; nothing pings.
fn budget((_, r, w): Config, costs: &Costs) -> Costs {
    let (r, w) = (u64::from(r), u64::from(w));
    let per_op = [(1, r), (2, r + w), (3, r + 2 * w)];
    std::array::from_fn(|kind| {
        let (ops, (rounds, requests)) = (costs[kind].0, per_op[kind]);
        (ops, Spent::fault_free(rounds, requests).times(ops))
    })
}

/// Runs the timed workload: a mix of inserts, lookups, and deletes, each op
/// timed and costed individually. Identical op sequence in every run.
fn run_workload<C: RepClient>(fx: &mut Fixture<C>, ops: usize) -> (Samples, Costs) {
    let mut times = Vec::new();
    let mut costs = Costs::default();
    let mut run = |kind: usize, op: &mut dyn FnMut(&mut DirSuite<C>)| {
        let (elapsed, spent) = fx.spent(|suite| {
            let t = Instant::now();
            op(suite);
            t.elapsed()
        });
        times.push(elapsed);
        costs[kind].0 += 1;
        costs[kind].1 += spent;
    };
    for i in 0..ops {
        let key = Key::from(format!("key{i:04}").as_str());
        run(1, &mut |s| {
            s.insert(&key, &Value::from("v")).expect("insert");
        });
        run(0, &mut |s| {
            s.lookup(&key).expect("lookup");
        });
        if i % 4 == 3 {
            let victim = Key::from(format!("key{:04}", i - 1).as_str());
            run(2, &mut |s| {
                s.delete(&victim).expect("delete");
            });
        }
    }
    (Samples::from_durations(times), costs)
}

/// The obs-overhead measurement: one workload timed with the suite
/// registry's timing armed and once with it disarmed. Disarmed skips every
/// clock read and span record — the pre-obs baseline — so the ratio is the
/// instrumentation's cost.
struct Overhead {
    armed: Samples,
    detached: Samples,
}

impl Overhead {
    fn ratio(&self) -> f64 {
        self.armed.median() as f64 / self.detached.median().max(1) as f64
    }
}

fn measure_overhead(base: Duration, ops: usize) -> Overhead {
    let measure = |arm: bool| {
        let mut fx = build((3, 2, 2), base, 0x0B5 + u64::from(arm), |client| client);
        fx.suite.obs().set_timing_armed(arm);
        run_workload(&mut fx, ops).0
    };
    let (armed, detached) = (measure(true), measure(false));
    Overhead { armed, detached }
}

/// What a transaction pays around its quorum work, in process (3-2-2, no
/// network): building its `DirSuite`, and a whole
/// `ReplicatedDirectory::lookup` (begin, suite, lookup, commit), healthy
/// and with member 2 down. Printed, not gated.
struct TxnCost {
    suite_new_ns: u64,
    lookup_ns: [u64; 2],
}

fn median_ns(mut samples: Vec<Duration>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_nanos() as u64
}

fn measure_txn_cost(quick: bool) -> TxnCost {
    const BATCH: u32 = 100;
    let config = SuiteConfig::symmetric(3, 2, 2).expect("3-2-2");
    let reps: Vec<LocalRep> = (0..3).map(|i| LocalRep::new(RepId(i))).collect();
    let suite_new = (0..if quick { 20 } else { 100 })
        .map(|_| {
            let start = Instant::now();
            let suites: Vec<_> = (0..BATCH)
                .map(|_| {
                    let policy = Box::new(FixedPolicy::new());
                    DirSuite::new(reps.clone(), config.clone(), policy).expect("3 members")
                })
                .collect();
            let per_suite = start.elapsed() / BATCH;
            drop(suites);
            per_suite
        })
        .collect();

    let dir = ReplicatedDirectory::new(config, 0x7C).expect("3-2-2");
    let keys: Vec<Key> = (0..64)
        .map(|i| Key::from(format!("key{i:02}").as_str()))
        .collect();
    for key in &keys {
        dir.insert(key, &Value::from("v")).expect("insert");
    }
    let lookups = if quick { 2_000 } else { 20_000 };
    let lookup_p50 = || {
        median_ns(
            (0..lookups)
                .map(|i| {
                    let start = Instant::now();
                    assert!(dir.lookup(&keys[i % keys.len()]).expect("lookup").present);
                    start.elapsed()
                })
                .collect(),
        )
    };
    let healthy = lookup_p50();
    dir.reps()[2].set_available(false);
    TxnCost {
        suite_new_ns: median_ns(suite_new),
        lookup_ns: [healthy, lookup_p50()],
    }
}

struct Row {
    cfg: Config,
    ops: usize,
    serialized: Samples,
    fanout: Samples,
    /// What the serialized and the fanned-out run spent.
    costs: [Costs; 2],
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serialized.median() as f64 / self.fanout.median().max(1) as f64
    }
}

/// `{"lookup": .., "insert": .., "delete": ..}` of one per-operation count.
fn json_per_op(costs: &Costs, count: impl Fn(&Spent) -> u64) -> String {
    let per_op = |&(ops, spent): &(u64, Spent)| count(&spent) as f64 / ops.max(1) as f64;
    let fields: Vec<String> = (KINDS.iter().zip(costs))
        .map(|(kind, cost)| format!("\"{kind}\": {}", per_op(cost)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_json(
    rows: &[Row],
    overhead: &Overhead,
    base: Duration,
    quick: bool,
) -> std::io::Result<std::path::PathBuf> {
    let mut configs = Vec::new();
    for row in rows {
        configs.push(format!(
            concat!(
                "    {{\"members\": {}, \"read_quorum\": {}, \"write_quorum\": {}, ",
                "\"timed_ops\": {},\n     \"rounds_per_op\": {},\n",
                "     \"requests_per_op\": {},\n     \"pings_per_op\": {},\n",
                "     \"fabric_msgs_per_op\": {},\n",
                "     \"fabric_bytes_per_op\": {},\n",
                "     \"serialized\": {},\n     \"fanout\": {},\n",
                "     \"speedup_median\": {:.3}}}"
            ),
            row.cfg.0,
            row.cfg.1,
            row.cfg.2,
            row.ops,
            json_per_op(&row.costs[1], |s| s.rounds),
            json_per_op(&row.costs[1], |s| s.requests),
            json_per_op(&row.costs[1], |s| s.pings),
            json_per_op(&row.costs[1], |s| s.fabric_msgs),
            json_per_op(&row.costs[1], |s| s.fabric_bytes),
            row.serialized.json(),
            row.fanout.json(),
            row.speedup()
        ));
    }
    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"suite_latency\",\n  \"mode\": \"{}\",\n",
            "  \"per_hop_latency_us\": {},\n  \"configs\": [\n{}\n  ],\n",
            "  \"obs_overhead\": {{\"armed\": {}, \"detached\": {}, ",
            "\"ratio_median\": {:.4}}}\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        base.as_micros(),
        configs.join(",\n"),
        overhead.armed.json(),
        overhead.detached.json(),
        overhead.ratio()
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_quorum_fanout.json");
    std::fs::write(&path, doc)?;
    Ok(path.canonicalize().unwrap_or(path))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    let base = if quick {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(5)
    };
    let ops = if quick { 12 } else { 24 };
    let configs: &[Config] = if quick {
        &[(3, 2, 2)]
    } else {
        &[(3, 2, 2), (5, 3, 3)]
    };

    println!(
        "suite_latency: per-hop latency {}ms, {} insert/lookup/delete rounds per mode",
        base.as_millis(),
        ops
    );
    println!();
    println!(
        "{:<12} {:>6} {:>14} {:>14} {:>10}",
        "config", "ops", "seq median", "fan median", "speedup"
    );

    let mut rows = Vec::new();
    for &cfg in configs {
        let (serialized, cost_serialized) = run_workload(&mut build(cfg, base, 0xFA, Inline), ops);
        let (fanout, cost_fanout) = run_workload(&mut build(cfg, base, 0xFB, |client| client), ops);
        let row = Row {
            ops,
            serialized,
            fanout,
            costs: [cost_serialized, cost_fanout],
            cfg,
        };
        println!(
            "{:<12} {:>6} {:>12}us {:>12}us {:>9.2}x",
            format!("{}-{}-{}", cfg.0, cfg.1, cfg.2),
            row.ops,
            row.serialized.median(),
            row.fanout.median(),
            row.speedup()
        );
        for (kind, &(ops, spent)) in KINDS.iter().zip(&row.costs[1]) {
            let per_op = |count: u64| count as f64 / ops.max(1) as f64;
            println!(
                "    {kind}: {} rounds, {} requests, {} pings, {} fabric messages \
                 ({} B) per op",
                per_op(spent.rounds),
                per_op(spent.requests),
                per_op(spent.pings),
                per_op(spent.fabric_msgs),
                per_op(spent.fabric_bytes)
            );
        }
        rows.push(row);
    }

    let overhead = measure_overhead(base, ops);
    println!();
    println!(
        "obs overhead (3-2-2): armed median {}us, detached median {}us, ratio {:.3}",
        overhead.armed.median(),
        overhead.detached.median(),
        overhead.ratio()
    );

    let txn = measure_txn_cost(quick);
    println!(
        "per-transaction cost (3-2-2, in process, not gated): DirSuite::new {}ns; \
         ReplicatedDirectory::lookup p50 {:.1}us healthy, {:.1}us with one member down",
        txn.suite_new_ns,
        txn.lookup_ns[0] as f64 / 1e3,
        txn.lookup_ns[1] as f64 / 1e3
    );

    match write_json(&rows, &overhead, base, quick) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_quorum_fanout.json: {e}");
            std::process::exit(2);
        }
    }

    println!();
    println!("Expected shape: a quorum round costs max(member latency) with");
    println!("fan-out instead of sum(member latency); larger quorums widen the");
    println!("gap (the rounds per op do not depend on quorum size).");

    if check {
        let mut ok = true;
        for row in &rows {
            for (run, costs) in ["serialized", "fanout"].iter().zip(&row.costs) {
                let counts = costs.map(|(ops, spent)| (ops, spent.counts()));
                if counts != budget(row.cfg, costs) {
                    eprintln!(
                        "FAIL: config {:?} {run} run spent {costs:?}, budget {:?}",
                        row.cfg,
                        budget(row.cfg, costs)
                    );
                    ok = false;
                }
            }
        }
        // The obs gate: instrumented (timing armed) must stay within 5% of
        // the disarmed baseline, plus a 1ms absolute slop so scheduler
        // noise on a network-bound median cannot flake CI.
        const OBS_GATE: f64 = 1.05;
        const OBS_SLOP_US: u64 = 1_000;
        let budget = (overhead.detached.median() as f64 * OBS_GATE) as u64 + OBS_SLOP_US;
        if overhead.armed.median() > budget {
            eprintln!(
                "FAIL: armed median {}us exceeds {}us (detached {}us * {OBS_GATE} + {OBS_SLOP_US}us slop)",
                overhead.armed.median(),
                budget,
                overhead.detached.median()
            );
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "check passed: lookup 1 round, insert 2, delete 3, no ping, on every quorum config"
        );
        println!(
            "check passed: obs timing overhead within {:.0}% (+{OBS_SLOP_US}us slop) of disarmed baseline",
            (OBS_GATE - 1.0) * 100.0
        );
    }
}
