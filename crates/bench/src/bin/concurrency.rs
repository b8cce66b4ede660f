//! The concurrency comparison motivating the whole paper (§1/§2): per-range
//! version numbers let transactions modify different entries concurrently,
//! while a directory stored as one Gifford-replicated file serializes every
//! modification behind a single version number.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin concurrency
//! ```

use repdir_workload::{gifford_interleaved_conflicts, repdir_throughput};

fn main() {
    // `REPDIR_OBS_FLUSH=stderr|json|<path>` attaches an interval
    // metrics flusher to the global registry for the whole run.
    let _flush = repdir_obs::Flusher::from_env();
    println!("Part 1: single-version file baseline — interleaved read-modify-write");
    println!("rounds; every client edits a DIFFERENT directory entry, yet they");
    println!("conflict because the whole directory shares one version number.");
    println!();
    println!(
        "{:<10} {:>10} {:>10} {:>14} {:>16}",
        "clients", "attempts", "conflicts", "conflict rate", "expected (k-1)/k"
    );
    for clients in [1usize, 2, 4, 8, 16] {
        let r = gifford_interleaved_conflicts(clients, 500, 0xC0);
        println!(
            "{:<10} {:>10} {:>10} {:>14.3} {:>16.3}",
            clients,
            r.attempts,
            r.conflicts,
            r.conflict_rate(),
            (clients as f64 - 1.0) / clients as f64
        );
    }

    println!();
    println!("Part 2: the gap-versioned transactional stack (3-2-2, strict 2PL");
    println!("range locks, WAL) under real threads.");
    println!();
    println!(
        "{:<26} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>13} {:>12}",
        "workload",
        "threads",
        "ops",
        "ops/sec",
        "lockwaits",
        "deadlocks",
        "exhausted",
        "aborts/commit",
        "max attempts"
    );
    let mut exhausted = 0;
    for (disjoint, workload, seed) in [
        (true, "disjoint key ranges", 0xC1),
        (false, "one hot key (worst case)", 0xC2),
    ] {
        for threads in [1usize, 2, 4, 8] {
            let r = repdir_throughput(threads, 300, disjoint, seed);
            println!(
                "{:<26} {:>8} {:>8} {:>10.0} {:>10} {:>10} {:>10} {:>13.3} {:>12}",
                workload,
                threads,
                r.ops,
                r.ops_per_sec(),
                r.lock_waits,
                r.deadlocks,
                r.exhausted,
                r.aborts_per_commit(),
                r.max_attempts
            );
            exhausted += r.exhausted;
        }
    }

    println!();
    println!("Expected shape: disjoint-range writers show ~zero lock waits and");
    println!("throughput that does not degrade with thread count (the paper's");
    println!("concurrency win); hot-key writers serialize on the range lock: the");
    println!("older transaction waits, younger ones die and retry under their");
    println!("first attempt's age (wait-die) — the serialization a single");
    println!("whole-directory version would impose on EVERY key, not just the");
    println!("hot one. No operation may exhaust its retries.");
    if exhausted > 0 {
        eprintln!("FAIL: {exhausted} operations exhausted their retries");
        std::process::exit(1);
    }
}
