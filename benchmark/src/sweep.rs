//! The one-command mode: every requested workload, untraced then traced, each
//! in a child process of its own (so peak memory and warm caches are per
//! workload), then the table, the repeatability report and `results.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::{workloads, Metric, Options, BOUND, END_TO_END};

/// Where traces and `results.json` go: `benchmark/out` under the directory
/// `run.sh` starts the program in, unless `BENCH_OUT_DIR` says otherwise.
pub fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT_DIR").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// What one child run printed.
struct ChildRun {
    workload: String,
    traced: bool,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    wrong: u64,
}

/// Parses the `workload metric value unit` lines of a child's output.
fn parse_lines(workload: &str, traced: bool, stdout: &str) -> ChildRun {
    let mut run = ChildRun {
        workload: workload.into(),
        traced,
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: 0,
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, name, value, unit] = fields[..] else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        if w != workload {
            continue;
        }
        match name {
            "attempted" => run.attempted = value as u64,
            "failed" => run.failed = value as u64,
            "wrong_results" => run.wrong = value as u64,
            _ => run.metrics.push(Metric {
                name: name.into(),
                value,
                unit: unit.into(),
            }),
        }
    }
    run
}

fn run_child(opts: &Options, workload: &str, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything but the JSON line, which is for the driver.
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    let run = parse_lines(workload, traced, &stdout);
    if !output.status.success() && run.wrong == 0 {
        return Err(format!(
            "{workload} (trace {traced}) exited with {}",
            output.status
        ));
    }
    Ok(run)
}

fn value_of(run: &ChildRun, name: &str) -> Option<f64> {
    run.metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Per workload × end-to-end metric: both values, how much worse the second
/// is than the first as a share of the first, and the bound. Count metrics
/// of the traced runs must agree to 1 %.
fn repeatability(sets: &[Vec<ChildRun>]) -> bool {
    let (first, second) = (&sets[0], &sets[1]);
    let mut all_inside = true;
    println!("\nrepeatability: workload metric first second worse_by bound");
    for (a, b) in first.iter().zip(second) {
        let pairs: Vec<(&str, bool, f64)> = if a.traced {
            ["net.msgs_per_op", "storage.syncs_per_op"]
                .iter()
                .map(|name| (*name, true, 0.01))
                .collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.2, BOUND)).collect()
        };
        for (name, lower_is_better, bound) in pairs {
            let (Some(x), Some(y)) = (value_of(a, name), value_of(b, name)) else {
                continue;
            };
            let worse_by = if x == 0.0 {
                0.0
            } else if a.traced {
                ((y - x) / x).abs()
            } else if lower_is_better {
                (y - x) / x
            } else {
                (x - y) / x
            };
            let inside = worse_by <= bound;
            all_inside &= inside;
            println!(
                "{} {name} {x:.4} {y:.4} {:+.2}% {:.0}%{}",
                a.workload,
                worse_by * 100.0,
                bound * 100.0,
                if inside { "" } else { "  OUTSIDE" }
            );
        }
    }
    all_inside
}

fn results_json(opts: &Options, sets: &[Vec<ChildRun>]) -> Json {
    let env = |key: &str| Json::str(std::env::var(key).unwrap_or_else(|_| "unknown".into()));
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let runs = sets.iter().enumerate().flat_map(|(set, runs)| {
        runs.iter().map(move |run| {
            let metrics: BTreeMap<&str, Json> = run
                .metrics
                .iter()
                .map(|m| {
                    let entry = Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit.clone())),
                    ]);
                    (m.name.as_str(), entry)
                })
                .collect();
            Json::obj([
                ("set", Json::Int(set as u64)),
                ("workload", Json::str(run.workload.clone())),
                ("traced", Json::Bool(run.traced)),
                ("attempted", Json::Int(run.attempted)),
                ("failed", Json::Int(run.failed)),
                ("wrong_results", Json::Int(run.wrong)),
                ("metrics", Json::obj(metrics)),
            ])
        })
    });
    Json::obj([
        ("commit", env("BENCH_COMMIT")),
        ("rustc", env("BENCH_RUSTC")),
        ("nproc", Json::Int(threads)),
        ("seed", Json::Int(opts.seed)),
        ("seconds", Json::Int(opts.seconds)),
        ("window_s", Json::Num(opts.seconds as f64 * 0.3)),
        ("smoke", Json::Bool(opts.smoke)),
        ("runs", Json::Arr(runs.collect())),
    ])
}

/// Runs the sweep; `Ok(false)` when any result was wrong or any operation
/// failed.
pub fn run(opts: &Options) -> Result<bool, String> {
    let names: Vec<&str> = match opts.workload.as_str() {
        "all" => workloads::NAMES.to_vec(),
        one => vec![one],
    };
    let modes = match opts.trace {
        Some(traced) => vec![traced],
        None => vec![false, true],
    };
    let mut sets = Vec::new();
    for set in 0..opts.repeat {
        println!(
            "# set {} of {}: seed {}, {} s per run",
            set + 1,
            opts.repeat,
            opts.seed,
            opts.seconds
        );
        let mut runs = Vec::new();
        for name in &names {
            for traced in &modes {
                runs.push(run_child(opts, name, *traced)?);
            }
        }
        sets.push(runs);
    }
    let failed: u64 = sets.iter().flatten().map(|r| r.failed).sum();
    let wrong: u64 = sets.iter().flatten().map(|r| r.wrong).sum();
    println!("\nfailed operations {failed}, wrong_results {wrong}");
    if sets.len() >= 2 && !repeatability(&sets) {
        println!("some pairs are outside their bound: lengthen --seconds, do not widen the bound");
    }
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, results_json(opts, &sets).render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(failed == 0 && wrong == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_metric_lines_and_skips_the_rest() {
        let out = "# read_mostly read: p99 900.0 us\n\
                   read_mostly ops_per_s 3210.5 1/s\n\
                   other ops_per_s 1 1/s\n\
                   read_mostly attempted 500 count\n\
                   read_mostly failed 1 count\n\
                   read_mostly wrong_results 1 count\n\
                   {\"correct\": true}\n";
        let run = parse_lines("read_mostly", false, out);
        assert_eq!(run.metrics.len(), 1);
        assert_eq!(run.metrics[0].name, "ops_per_s");
        assert_eq!(run.metrics[0].value, 3210.5);
        assert_eq!(run.metrics[0].unit, "1/s");
        assert_eq!((run.attempted, run.failed, run.wrong), (500, 1, 1));
    }
}
