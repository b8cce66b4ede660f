//! The message budget of `scan`, beside the per-hop reference
//! (`reference::per_hop_scan`).
//!
//! The per-hop scan runs one full `real_successor` search per entry: collect
//! a read quorum (one ping wave), refill neighbor chains (one data wave),
//! and look the candidate up (another data wave) — roughly three round-trips
//! per entry on a uniform fabric. The session scan collects its quorum once
//! ([`QuorumSession`](repdir_core::QuorumSession)) with the collection
//! carrying the first chain request, judges every entry from the buffered
//! chain heads without a message, and sends one `Batch` envelope per member
//! per `bulk_chunk` entries (value lookups plus the next chain request) —
//! ⌈(entries + 1) / 64⌉ waves, plus one for the values still owed.
//!
//! The fixture is a 3-member suite (R=2, W=2) of networked transactional
//! representatives behind a fixed per-message latency, scanning a directory
//! of `ENTRIES` entries. Both scans run on the same populated suite.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin scan_bench [-- --quick] [--check]
//! ```
//!
//! `--check` exits nonzero unless a scan of the 64 entries costs exactly its
//! pinned budget — 2 rounds, R requests each, 8 fabric messages, no ping, no
//! re-validation (the `scripts/check.sh` gate). Wall-clock and the speed-up
//! over the per-hop reference are reported, not gated.
//! Every run rewrites `BENCH_scan.json` at the repo root.

use std::time::{Duration, Instant};

use repdir_baselines::reference::per_hop_scan;
use repdir_bench::fabric::{lossless, Fixture, Samples, Spent};
use repdir_core::suite::{DirSuite, RandomPolicy};
use repdir_core::{Key, SuiteError, UserKey, Value};
use repdir_replica::RemoteSessionClient;

const MEMBERS: u32 = 3;
const READ_QUORUM: u32 = 2;
const WRITE_QUORUM: u32 = 2;
const ENTRIES: usize = 64;

type Suite = DirSuite<RemoteSessionClient>;

/// Times `scans` full listings through `scan`, returning the samples and
/// what the listings spent between them.
fn run_scans(
    fx: &mut Fixture<RemoteSessionClient>,
    scans: usize,
    scan: impl Fn(&mut Suite) -> Result<Vec<(UserKey, Value)>, SuiteError>,
) -> (Samples, Spent) {
    let (times, spent) = fx.spent(|suite| {
        let mut times = Vec::new();
        for _ in 0..scans {
            let t = Instant::now();
            let listed = scan(suite).expect("scan");
            times.push(t.elapsed());
            assert_eq!(listed.len(), ENTRIES, "scan must list every entry");
        }
        times
    });
    (Samples::from_durations(times), spent)
}

fn main() {
    // `REPDIR_OBS_FLUSH=stderr|json|<path>` attaches an interval
    // metrics flusher to the global registry for the whole run.
    let _flush = repdir_obs::Flusher::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    let hop = if quick {
        Duration::from_micros(500)
    } else {
        Duration::from_millis(1)
    };
    let scans = if quick { 3 } else { 5 };

    println!(
        "scan_bench: {MEMBERS} members (R={READ_QUORUM}, W={WRITE_QUORUM}), \
         {ENTRIES} entries, {}us per message hop",
        hop.as_micros()
    );
    println!();

    let quorums = (MEMBERS, READ_QUORUM, WRITE_QUORUM);
    let (timeout, policy) = (Duration::from_secs(10), Box::new(RandomPolicy::new(0x5CA7)));
    let mut fx = Fixture::new(lossless(0x5CA7, hop), quorums, timeout, policy, |client| {
        client
    });
    for i in 0..ENTRIES {
        let key = Key::from(format!("entry{i:03}").as_str());
        fx.suite.insert(&key, &Value::from("v")).expect("insert");
    }

    // Per-hop reference: a quorum collection and separate chain and lookup
    // round-trips for every entry.
    let (baseline, per_hop) = run_scans(&mut fx, scans, per_hop_scan);

    // The suite's scan on the identical directory.
    let (session, cost) = run_scans(&mut fx, scans, Suite::scan);

    let revalidate = fx.suite.obs().counter("suite.session.revalidate").get();
    drop(fx);

    let speedup = baseline.median() as f64 / session.median().max(1) as f64;
    let per_scan = |count: u64| count as f64 / scans as f64;
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>8} {:>9} {:>6} {:>12}",
        "scan", "median", "mean", "p90", "rounds", "requests", "pings", "fabric msgs"
    );
    for (name, s, cost) in [("per-hop", &baseline, &per_hop), ("suite", &session, &cost)] {
        println!(
            "{:<10} {:>12}us {:>12}us {:>12}us {:>8} {:>9} {:>6} {:>12}",
            name,
            s.median(),
            s.mean(),
            s.percentile(0.9),
            per_scan(cost.rounds),
            per_scan(cost.requests),
            per_scan(cost.pings),
            per_scan(cost.fabric_msgs)
        );
    }
    println!();
    println!("re-validations: {revalidate}");
    println!("speedup (per-hop median / suite median): {speedup:.2}x");

    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"scan\",\n  \"mode\": \"{}\",\n",
            "  \"members\": {}, \"read_quorum\": {}, \"write_quorum\": {},\n",
            "  \"entries\": {}, \"hop_us\": {}, \"scans\": {},\n",
            "  \"rounds_per_scan\": {}, \"requests_per_scan\": {}, \"pings_per_scan\": {},\n",
            "  \"fabric_msgs_per_scan\": {{\"per_hop\": {}, \"session\": {}}},\n",
            "  \"session_revalidate\": {},\n",
            "  \"per_hop\": {},\n  \"session\": {},\n",
            "  \"speedup_median\": {:.3}\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        MEMBERS,
        READ_QUORUM,
        WRITE_QUORUM,
        ENTRIES,
        hop.as_micros(),
        scans,
        per_scan(cost.rounds),
        per_scan(cost.requests),
        per_scan(cost.pings),
        per_scan(per_hop.fabric_msgs),
        per_scan(cost.fabric_msgs),
        revalidate,
        baseline.json(),
        session.json(),
        speedup
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_scan.json");
    match std::fs::write(&path, doc) {
        Ok(()) => println!("\nwrote {}", path.canonicalize().unwrap_or(path).display()),
        Err(e) => {
            eprintln!("failed to write BENCH_scan.json: {e}");
            std::process::exit(2);
        }
    }

    if check {
        // 64 entries and HIGH are two chains of 64: the carried one, then one
        // riding with the value lookups.
        let rounds = (ENTRIES as u64 + 1).div_ceil(64);
        let budget = Spent::fault_free(rounds, rounds * u64::from(READ_QUORUM));
        if cost != budget.times(scans as u64) || revalidate != 0 {
            eprintln!(
                "FAIL: {scans} scans spent {cost:?} and {revalidate} re-validations; \
                 budget per scan {budget:?} and 0"
            );
            std::process::exit(1);
        }
        println!("check passed: scan of {ENTRIES} = {budget:?}, no re-validation");
    }
}
