//! Sequential vs scatter-gather quorum RPC latency over a fabric with
//! nonzero per-hop delay.
//!
//! The paper's cost model (§3–§4) counts quorum *rounds*: the suite sends to
//! all quorum members and gathers replies, so an operation should cost the
//! slowest member's round-trip, not the sum of every member's. This bench
//! measures exactly that gap: the same `DirSuite` workload over the same
//! latency fabric, once with fan-out disabled (every member RPC serialized)
//! and once with the scatter-gather executor (the default).
//!
//! ```text
//! cargo run --release -p repdir-bench --bin suite_latency [-- --quick] [--check]
//! ```
//!
//! `--quick` shrinks the workload and per-hop delay for CI; `--check` exits
//! nonzero unless fan-out beats sequential by at least 1.5x median latency
//! on every quorum size >= 2 (the acceptance gate `scripts/check.sh` runs),
//! and unless the obs-instrumented build (timing armed: spans and latency
//! samples recorded) stays within 5% of the same workload with every
//! registry disarmed — the pre-instrumentation baseline shape.
//! Every run rewrites `BENCH_quorum_fanout.json` at the repo root.

use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::suite::{DirSuite, FixedPolicy, SuiteConfig};
use repdir_core::{Key, RepId, Value};
use repdir_net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir_replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir_txn::TxnId;

/// One measured configuration: an `n`-member suite with the given quorums.
struct Config {
    members: u32,
    read_quorum: u32,
    write_quorum: u32,
}

/// Latency samples for one mode (one `Duration` per timed suite op).
struct Samples {
    us: Vec<u64>,
}

impl Samples {
    fn from_durations(mut ds: Vec<Duration>) -> Self {
        ds.sort();
        Samples {
            us: ds.iter().map(|d| d.as_micros() as u64).collect(),
        }
    }

    fn percentile(&self, p: f64) -> u64 {
        if self.us.is_empty() {
            return 0;
        }
        let idx = ((self.us.len() - 1) as f64 * p).round() as usize;
        self.us[idx]
    }

    fn median(&self) -> u64 {
        self.percentile(0.5)
    }

    fn mean(&self) -> u64 {
        if self.us.is_empty() {
            return 0;
        }
        self.us.iter().sum::<u64>() / self.us.len() as u64
    }
}

/// Everything needed to tear a suite run down again: the reply router and
/// server threads live until these handles drop.
struct Fixture {
    suite: DirSuite<RemoteSessionClient>,
    _handles: Vec<ServerHandle>,
}

/// Builds a fresh suite of remote clients over a lossless fabric with fixed
/// per-hop latency. Fresh per mode so WAL growth and ghosts from one run
/// never skew the other.
fn build(cfg: &Config, base: Duration, seed: u64, fanout: bool) -> Fixture {
    let net = Arc::new(Network::new(seed));
    net.set_fault_plan(FaultPlan {
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        latency: LatencyModel::fixed(base),
    });
    let mut handles = Vec::new();
    let mut clients = Vec::new();
    let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
    for i in 0..cfg.members {
        let rep = TransactionalRep::new(RepId(i));
        handles.push(serve_rep(Arc::clone(&net), NodeId(100 + i), rep));
        let mut client =
            RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), TxnId(1));
        client.set_timeout(Duration::from_secs(10));
        client
            .begin()
            .expect("begin never fails on a healthy fabric");
        clients.push(client);
    }
    let config = SuiteConfig::symmetric(cfg.members, cfg.read_quorum, cfg.write_quorum)
        .expect("static configs are valid");
    let mut suite = DirSuite::new(clients, config, Box::new(FixedPolicy::new()))
        .expect("client count matches config");
    suite.set_fanout(fanout);
    Fixture {
        suite,
        _handles: handles,
    }
}

/// Runs the timed workload: a mix of inserts, lookups, and deletes, each op
/// timed individually. Identical op sequence in both modes.
fn run_workload(suite: &mut DirSuite<RemoteSessionClient>, ops: usize) -> Samples {
    let mut times = Vec::new();
    for i in 0..ops {
        let key = Key::from(format!("key{i:04}").as_str());
        let t = Instant::now();
        suite.insert(&key, &Value::from("v")).expect("insert");
        times.push(t.elapsed());
        let t = Instant::now();
        suite.lookup(&key).expect("lookup");
        times.push(t.elapsed());
        if i % 4 == 3 {
            let victim = Key::from(format!("key{:04}", i - 1).as_str());
            let t = Instant::now();
            suite.delete(&victim).expect("delete");
            times.push(t.elapsed());
        }
    }
    Samples::from_durations(times)
}

/// The obs-overhead measurement: one fan-out workload timed with metrics
/// timing armed and once with every registry (the suite's and the global
/// one) disarmed. Disarmed skips every clock read and span record — the
/// pre-obs baseline — so the ratio is the instrumentation's cost.
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
    let cfg = Config {
        members: 3,
        read_quorum: 2,
        write_quorum: 2,
    };
    let mut armed = None;
    let mut detached = None;
    for arm in [true, false] {
        let mut fx = build(&cfg, base, 0x0B5 + u64::from(arm), true);
        fx.suite.obs().set_timing_armed(arm);
        repdir_obs::global().set_timing_armed(arm);
        let samples = run_workload(&mut fx.suite, ops);
        if arm {
            armed = Some(samples);
        } else {
            detached = Some(samples);
        }
    }
    repdir_obs::global().set_timing_armed(true);
    Overhead {
        armed: armed.expect("measured"),
        detached: detached.expect("measured"),
    }
}

struct Row {
    cfg: Config,
    ops: usize,
    sequential: Samples,
    fanout: Samples,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.sequential.median() as f64 / self.fanout.median().max(1) as f64
    }
}

fn json_samples(s: &Samples) -> String {
    format!(
        r#"{{"median_us": {}, "mean_us": {}, "p90_us": {}}}"#,
        s.median(),
        s.mean(),
        s.percentile(0.9)
    )
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
                "\"timed_ops\": {},\n     \"sequential\": {},\n     \"fanout\": {},\n",
                "     \"speedup_median\": {:.3}}}"
            ),
            row.cfg.members,
            row.cfg.read_quorum,
            row.cfg.write_quorum,
            row.ops,
            json_samples(&row.sequential),
            json_samples(&row.fanout),
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
        json_samples(&overhead.armed),
        json_samples(&overhead.detached),
        overhead.ratio()
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_quorum_fanout.json");
    std::fs::write(&path, doc)?;
    Ok(path.canonicalize().unwrap_or(path))
}

fn main() {
    // `REPDIR_OBS_FLUSH=stderr|json|<path>` attaches an interval
    // metrics flusher to the global registry for the whole run.
    let _flush = repdir_obs::Flusher::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    let base = if quick {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(5)
    };
    let ops = if quick { 12 } else { 24 };
    let configs = if quick {
        vec![Config {
            members: 3,
            read_quorum: 2,
            write_quorum: 2,
        }]
    } else {
        vec![
            Config {
                members: 3,
                read_quorum: 2,
                write_quorum: 2,
            },
            Config {
                members: 5,
                read_quorum: 3,
                write_quorum: 3,
            },
        ]
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
    for cfg in configs {
        let mut sequential = None;
        let mut fanned = None;
        for fanout in [false, true] {
            let mut fx = build(&cfg, base, 0xFA + u64::from(fanout), fanout);
            let samples = run_workload(&mut fx.suite, ops);
            if fanout {
                fanned = Some(samples);
            } else {
                sequential = Some(samples);
            }
        }
        let row = Row {
            ops,
            sequential: sequential.expect("measured"),
            fanout: fanned.expect("measured"),
            cfg,
        };
        println!(
            "{:<12} {:>6} {:>12}us {:>12}us {:>9.2}x",
            format!(
                "{}-{}-{}",
                row.cfg.members, row.cfg.read_quorum, row.cfg.write_quorum
            ),
            row.ops,
            row.sequential.median(),
            row.fanout.median(),
            row.speedup()
        );
        rows.push(row);
    }

    let overhead = measure_overhead(base, ops);
    println!();
    println!(
        "obs overhead (3-2-2 fan-out): armed median {}us, detached median {}us, ratio {:.3}",
        overhead.armed.median(),
        overhead.detached.median(),
        overhead.ratio()
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
        const GATE: f64 = 1.5;
        let mut ok = true;
        for row in &rows {
            if row.cfg.read_quorum >= 2 && row.speedup() < GATE {
                eprintln!(
                    "FAIL: config {}-{}-{} speedup {:.2}x below the {GATE}x gate",
                    row.cfg.members,
                    row.cfg.read_quorum,
                    row.cfg.write_quorum,
                    row.speedup()
                );
                ok = false;
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
        println!("check passed: fan-out >= {GATE}x faster on every quorum config");
        println!(
            "check passed: obs timing overhead within {:.0}% (+{OBS_SLOP_US}us slop) of disarmed baseline",
            (OBS_GATE - 1.0) * 100.0
        );
    }
}
