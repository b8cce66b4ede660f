//! The repdir benchmark: absolute end-to-end numbers, a per-layer sheet and a
//! driver trace. See `benchmark/README.md`; run through `benchmark/run.sh`.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` measures one workload
//!   in this process and prints one JSON result as the last line;
//! * without `--trace` (or with `--workload all`) it runs every requested
//!   workload untraced and traced, each in a child process of its own, and
//!   prints the table, the repeatability report and `out/results.json`.

mod cluster;
mod json;
mod keys;
mod probes;
mod stats;
mod sweep;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use stats::{median, percentile};
use trace::{breakdowns, Class, Kind};
use workloads::{Plan, RunOutput, Window};

/// The share of the parent's median by which any end-to-end metric may
/// worsen before a change is rejected. The sandbox's run-to-run spread is
/// 6–11 % on the time metrics; three times that is past the 0.25 the
/// driver allows, so every metric sits at the cap.
pub const BOUND: f64 = 0.25;

/// End-to-end metrics: name, unit, whether lower is better. `BENCHMARK.json`
/// carries the same table (a unit test compares).
pub const END_TO_END: [(&str, &str, bool); 9] = [
    ("setup_s", "s", true),
    ("ops_per_s", "1/s", false),
    ("read_p50_us", "us", true),
    ("read_p95_us", "us", true),
    ("write_p50_us", "us", true),
    ("write_p95_us", "us", true),
    ("delete_p50_us", "us", true),
    ("delete_p95_us", "us", true),
    ("peak_rss_mb", "MB", true),
];

/// Per-layer metrics every traced run reports: name and unit.
pub const PER_LAYER: [(&str, &str); 55] = [
    // From the traced window of the workload itself.
    ("driver.begin_share", "share"),
    ("suite.call_share", "share"),
    ("driver.commit_share", "share"),
    ("driver.retry_share", "share"),
    ("driver.self_share", "share"),
    ("suite.read_call_p50_us", "us"),
    ("suite.write_call_p50_us", "us"),
    ("suite.delete_call_p50_us", "us"),
    ("driver.retries_per_kop", "count"),
    ("net.msgs_per_op", "count"),
    ("storage.syncs_per_op", "count"),
    ("storage.wal_bytes_per_op", "B"),
    ("rangelock.waits_per_kop", "count"),
    ("rangelock.timeouts", "count"),
    ("rangelock.deadlocks", "count"),
    ("trace.overhead_share", "share"),
    ("trace.lookup_modelled_share", "share"),
    // The probe sheet, the same on every workload.
    ("obs.span_ns", "ns"),
    ("machine.thread_scope3_us", "us"),
    ("machine.spin_ms", "ms"),
    ("codec.lookup_req_ns", "ns"),
    ("codec.lookup_resp_ns", "ns"),
    ("codec.insert_req_ns", "ns"),
    ("codec.batch64_us", "us"),
    ("net.send_recv_ns", "ns"),
    ("net.rpc_echo_p50_us", "us"),
    ("net.rpc_scatter3_p50_us", "us"),
    ("net.rpc_echo_2clients_per_s", "1/s"),
    ("net.delay_overshoot_us", "us"),
    ("rangelock.acquire_release_ns", "ns"),
    ("rangelock.acquire_release_64held_ns", "ns"),
    ("rangelock.handoff_us", "us"),
    ("txn.begin_commit_ns", "ns"),
    ("storage.wal_append_sync_ns", "ns"),
    ("storage.recover_8k_ms", "ms"),
    ("storage.durable_lookup_ns", "ns"),
    ("storage.durable_insert_commit_us", "us"),
    ("storage.btree_lookup_ns", "ns"),
    ("storage.btree_insert_commit_us", "us"),
    ("gapmap.lookup_ns", "ns"),
    ("gapmap.insert_coalesce_ns", "ns"),
    ("replica.rep_lookup_us", "us"),
    ("replica.rep_insert_commit_us", "us"),
    ("replica.conflict_wait_ms", "ms"),
    ("suite.inproc_lookup_us", "us"),
    ("suite.inproc_insert_us", "us"),
    ("suite.inproc_delete_us", "us"),
    ("suite.single_member_lookup_us", "us"),
    ("suite.remote_lookup_us", "us"),
    ("driver.begin_us", "us"),
    ("suite.remote_lookup_call_us", "us"),
    ("driver.commit_us", "us"),
    ("driver.self_us", "us"),
    ("repair.catchup_small_ms", "ms"),
    ("repair.catchup_large_ms", "ms"),
];

/// A reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// Command-line options of either mode.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: Option<bool>,
    pub smoke: bool,
    pub repeat: usize,
}

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--repeat K]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: "all".into(),
        seed: 1,
        seconds: 0,
        trace: None,
        smoke: false,
        repeat: 1,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |s: &String| s.parse::<u64>().map_err(|e| format!("{flag} {s}: {e}"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => seconds = Some(number(value()?)?.max(1)),
            "--trace" => opts.trace = Some(number(value()?)? != 0),
            "--repeat" => opts.repeat = number(value()?)?.max(1) as usize,
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    opts.seconds = seconds.unwrap_or(if opts.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if opts.workload != "all" && !workloads::NAMES.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; one of: all {}",
            opts.workload,
            workloads::NAMES.join(" ")
        ));
    }
    Ok(opts)
}

/// `run_seconds` of `BENCHMARK.json`: 2 s of warm-up and three 6 s windows.
pub const DEFAULT_SECONDS: u64 = 20;

/// Seconds a smoke run measures for.
pub const SMOKE_SECONDS: u64 = 2;

/// Splits `--seconds` into a tenth of warm-up and three windows of three
/// tenths. A traced run spends its third window's time on the probe sheet.
fn plan(opts: &Options, traced: bool) -> Plan {
    let total = Duration::from_secs(opts.seconds);
    Plan {
        warmup: total / 10,
        window: total * 3 / 10,
        traced,
        smoke: opts.smoke,
    }
}

/// The probe sheet's share of a traced run, per timed probe.
fn probe_budget(opts: &Options) -> Duration {
    Duration::from_secs(opts.seconds) * 3 / 10 / 40
}

/// All clients' latencies of one class in window `w`, ascending.
fn merged(windows: &[Vec<Window>], w: usize, class: Class) -> Vec<u64> {
    let mut all: Vec<u64> = windows
        .iter()
        .flat_map(|client| client[w].latency_ns[class as usize].iter().copied())
        .collect();
    all.sort_unstable();
    all
}

/// Operations (or entries) per second over the windows `pick` selects,
/// summed over clients; each client's rate is over its own exact elapsed
/// time.
fn rate(
    windows: &[Vec<Window>],
    pick: impl Fn(usize, &Window) -> bool,
    count: fn(&Window) -> u64,
) -> f64 {
    windows
        .iter()
        .map(|client| {
            let picked = || client.iter().enumerate().filter(|(i, w)| pick(*i, w));
            let done: u64 = picked().map(|(_, w)| count(w)).sum();
            let elapsed: f64 = picked().map(|(_, w)| w.elapsed.as_secs_f64()).sum();
            done as f64 / elapsed
        })
        .sum()
}

/// The end-to-end metrics of an untraced run: each the median of the three
/// window values. Also prints what is reported but not a metric.
fn end_to_end(name: &str, out: &RunOutput) -> Vec<Metric> {
    let n = out.windows[0].len();
    let per_window = |f: &dyn Fn(usize) -> f64| median(&(0..n).map(f).collect::<Vec<_>>());
    let mut metrics = vec![
        metric("setup_s", median(&out.setup_times), "s"),
        metric(
            "ops_per_s",
            per_window(&|w| rate(&out.windows, |i, _| i == w, |win| win.ops)),
            "1/s",
        ),
    ];
    for class in Class::ALL {
        let sorted: Vec<Vec<u64>> = (0..n).map(|w| merged(&out.windows, w, class)).collect();
        let tail_us = |p: f64| per_window(&|w| percentile(&sorted[w], p) / 1e3);
        for (tag, p) in [("p50", 0.5), ("p95", 0.95)] {
            metrics.push(metric(
                &format!("{}_{tag}_us", class.name()),
                tail_us(p),
                "us",
            ));
        }
        let p99 = tail_us(0.99);
        let samples: Vec<usize> = sorted.iter().map(Vec::len).collect();
        println!(
            "# {name} {}: p99 {p99:.1} us (not a metric), samples per window {samples:?}",
            class.name()
        );
    }
    metrics.push(metric("peak_rss_mb", out.peak_rss_mb, "MB"));
    let ops_per_s: Vec<f64> = (0..n)
        .map(|w| rate(&out.windows, |i, _| i == w, |win| win.ops).round())
        .collect();
    println!(
        "# {name} ops_per_s per window {ops_per_s:?}, set-ups {:.3?} s, VmHWM {:.1} MB",
        out.setup_times, out.high_water_mb
    );
    println!(
        "# {name} entries_per_s {:.1} (entries read or written; not a metric)",
        per_window(&|w| rate(&out.windows, |i, _| i == w, |win| win.entries))
    );
    metrics
}

/// The per-layer metrics of a traced run: the traced slices' spans and
/// counters, then the probe sheet.
fn per_layer(opts: &Options, name: &str, out: &RunOutput) -> Result<Vec<Metric>, String> {
    let ops: Vec<_> = out.spans.iter().flat_map(|s| breakdowns(s)).collect();
    if ops.is_empty() {
        return Err("the traced slices recorded no operation".into());
    }
    // begin + call + commit + abort + backoff + self must be the op, to the
    // nanosecond: children never overlap and never leave their op.
    if let Some(bad) = ops
        .iter()
        .find(|op| op.child_ns.iter().sum::<u64>() + op.self_ns != op.total_ns)
    {
        return Err(format!("span parts do not sum to their op: {bad:?}"));
    }
    let total: u64 = ops.iter().map(|op| op.total_ns).sum();
    let share = |ns: u64| ns as f64 / total as f64;
    let under = |kind: Kind| -> u64 { ops.iter().map(|op| op.under(kind)).sum() };
    let call_p50_us = |class: Class| {
        let mut calls: Vec<u64> = ops
            .iter()
            .filter(|op| op.class == class)
            .map(|op| op.under(Kind::Call))
            .collect();
        calls.sort_unstable();
        percentile(&calls, 0.5) / 1e3
    };
    let n_ops = ops.len() as f64;
    let retries = out
        .spans
        .iter()
        .flatten()
        .filter(|s| s.kind == Kind::Backoff)
        .count() as f64;
    let c = out.traced_counters;
    let ops_per_s = |traced: bool| rate(&out.windows, |_, w| w.traced == traced, |win| win.ops);
    let mut metrics = vec![
        metric("driver.begin_share", share(under(Kind::Begin)), "share"),
        metric("suite.call_share", share(under(Kind::Call)), "share"),
        metric("driver.commit_share", share(under(Kind::Commit)), "share"),
        metric(
            "driver.retry_share",
            share(under(Kind::Abort) + under(Kind::Backoff)),
            "share",
        ),
        metric(
            "driver.self_share",
            share(ops.iter().map(|op| op.self_ns).sum()),
            "share",
        ),
        metric("suite.read_call_p50_us", call_p50_us(Class::Read), "us"),
        metric("suite.write_call_p50_us", call_p50_us(Class::Write), "us"),
        metric("suite.delete_call_p50_us", call_p50_us(Class::Delete), "us"),
        metric("driver.retries_per_kop", retries / n_ops * 1e3, "count"),
        metric("net.msgs_per_op", c.msgs_sent as f64 / n_ops, "count"),
        metric("storage.syncs_per_op", c.syncs as f64 / n_ops, "count"),
        metric("storage.wal_bytes_per_op", c.wal_bytes as f64 / n_ops, "B"),
        metric(
            "rangelock.waits_per_kop",
            c.lock_waits as f64 / n_ops * 1e3,
            "count",
        ),
        metric("rangelock.timeouts", c.lock_timeouts as f64, "count"),
        metric("rangelock.deadlocks", c.lock_deadlocks as f64, "count"),
        metric(
            "trace.overhead_share",
            1.0 - ops_per_s(true) / ops_per_s(false),
            "share",
        ),
    ];
    if out.spans_dropped > 0 {
        println!(
            "# {name}: {} ops not traced (buffer full)",
            out.spans_dropped
        );
    }

    let sheet = probes::run(
        opts.seed,
        probe_budget(opts),
        if opts.smoke { 1 } else { 3 },
    );
    let probe = |name: &str| {
        sheet
            .iter()
            .find(|p| p.name == name)
            .map_or(f64::NAN, |p| p.value)
    };
    // A remote 3-2-2 lookup is four rounds (begin, quorum pings, lookups,
    // commit), two representative-side lookups and two thread scopes. Their
    // probed costs over this run's traced read p50 is the share of a lookup
    // the sheet explains; the rest is dark time. It reads as that only where
    // `read` is a remote 3-2-2 lookup: `read_mostly` and `write_mix`.
    let modelled_us = 4.0 * probe("net.rpc_scatter3_p50_us")
        + 2.0 * probe("replica.rep_lookup_us")
        + 2.0 * probe("machine.thread_scope3_us");
    let mut reads: Vec<u64> = ops
        .iter()
        .filter(|op| op.class == Class::Read)
        .map(|op| op.total_ns)
        .collect();
    reads.sort_unstable();
    metrics.push(metric(
        "trace.lookup_modelled_share",
        modelled_us / (percentile(&reads, 0.5) / 1e3),
        "share",
    ));
    metrics.extend(sheet.iter().map(|p| metric(p.name, p.value, p.unit)));
    Ok(metrics)
}

/// Checks the reported set against the declared table, so the program and
/// `BENCHMARK.json` cannot drift apart silently.
fn check_names(metrics: &[Metric], declared: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    if got != declared {
        return Err(format!(
            "reported metrics differ from the declared table:\n got {got:?}\nwant {declared:?}"
        ));
    }
    match metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not a finite number", m.name)),
        None => Ok(()),
    }
}

/// One workload, measured in this process.
fn single(opts: &Options, traced: bool) -> Result<bool, String> {
    let name = opts.workload.as_str();
    let out = workloads::run(name, opts.seed, &plan(opts, traced))
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let metrics = if traced {
        let path = sweep::out_dir().join(format!("trace-{name}.jsonl"));
        let spans: Vec<&[trace::Span]> = out.spans.iter().map(Vec::as_slice).collect();
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = per_layer(opts, name, &out)?;
        check_names(&metrics, &PER_LAYER)?;
        metrics
    } else {
        let metrics = end_to_end(name, &out);
        let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
        check_names(&metrics, &declared)?;
        metrics
    };
    for (size, ms) in ["small", "large"].iter().zip(&out.catchup_ms) {
        if !ms.is_empty() {
            println!(
                "# {name} catch-up after a {size} outage: median {:.2} ms over {} (not a metric)",
                median(ms),
                ms.len()
            );
        }
    }
    for m in &metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} attempted {} count", out.attempted);
    println!("{name} failed {} count", out.failed + out.wrong);
    println!("{name} wrong_results {} count", out.wrong);
    let correct = out.wrong == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted)),
        // A wrong result counts as a failed operation.
        ("failed", Json::Int(out.failed + out.wrong)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit.clone())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{}", line.render());
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.trace {
        Some(traced) if opts.workload != "all" => single(&opts, traced),
        _ => sweep::run(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_args(&args(
            "--workload write_mix --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("write_mix", 9, 12, Some(true))
        );
        let o = parse_args(&args("--smoke --repeat 2")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.trace, o.smoke, o.repeat),
            ("all", None, true, 2)
        );
        assert_eq!(o.seconds, SMOKE_SECONDS);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--bogus 1")).is_err());
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declares = |name: &str, unit: &str| {
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
        };
        for (name, unit, lower) in END_TO_END {
            let better = if lower { "lower" } else { "higher" };
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {BOUND}}}"
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in PER_LAYER {
            assert!(declares(name, unit), "BENCHMARK.json lacks {name} [{unit}]");
        }
        for name in workloads::NAMES {
            assert!(text.contains(&format!("{{\"name\": \"{name}\", \"why\": ")));
        }
        let entries = text.matches("\"name\": ").count();
        assert_eq!(
            entries,
            workloads::NAMES.len() + END_TO_END.len() + PER_LAYER.len()
        );
        assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }

    #[test]
    fn plan_splits_seconds_in_tenths() {
        let opts = parse_args(&args("--seconds 20")).unwrap();
        let p = plan(&opts, false);
        assert_eq!(p.warmup, Duration::from_secs(2));
        assert_eq!(p.window, Duration::from_secs(6));
        assert!(!p.smoke && !p.traced);
        assert_eq!(probe_budget(&opts), Duration::from_millis(150));
    }
}
