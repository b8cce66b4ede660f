//! What hedged member RPCs spend, and buy, on a flaky fabric.
//!
//! The suite sizes every quorum wave by its expected (availability-weighted)
//! vote yield and returns the moment the vote threshold is met; unhedged
//! (the default) a dropped request still costs its wave a client timeout
//! and one slow member stalls a wave it is part of. Hedged, stragglers —
//! pings *and* the lookups a collection carries — are duplicated to the
//! next spare member after a short delay, out of the same over-provision
//! budget. By the §3.1 intersection argument any member set whose votes
//! reach the threshold is a valid quorum, so the substitution never changes
//! an answer; it only moves the tail.
//!
//! The fixture is a 5-member suite (R=2, W=4) with one *flaky* member
//! (50% of messages to it are dropped, so RPCs addressed to it stall for
//! the client timeout) and one *slow* member (10x the fast hop). Both
//! runs use the same seeded `RandomPolicy`, so quorum draws include the
//! bad members equally often — hedging is the only variable.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin hedge_bench [-- --quick] [--check]
//! ```
//!
//! `--check` exits nonzero unless the unhedged warm-up on the still-clean
//! fabric spent exactly its pinned budget (R + W data requests per insert,
//! no ping, no hedge) and the hedged run's total member requests (pings plus
//! data: a lookup's collection carries the lookup, so pings alone do not
//! count what collections spend) stay within the over-provision cap of the
//! unhedged run's. Wall-clock and the speed-up are reported, not gated: on
//! injected sleeps the medians are bimodal. Every run rewrites
//! `BENCH_hedge.json` at the repo root.

use std::time::{Duration, Instant};

use repdir_bench::fabric::{lossless, Samples};
use repdir_core::suite::{DirSuite, RandomPolicy};
use repdir_core::{Key, Value};
use repdir_net::{LatencyModel, NodeId};
use repdir_replica::RemoteSessionClient;

type Fixture = repdir_bench::fabric::Fixture<RemoteSessionClient>;

const MEMBERS: u32 = 5;
const READ_QUORUM: u32 = 2;
const WRITE_QUORUM: u32 = 4;
/// Member index whose node drops half the messages sent to it.
const FLAKY: usize = 3;
/// Member index behind the 10x latency override.
const SLOW: usize = 4;
const DROP_PROB: f64 = 0.5;
/// The suite's over-provision cap — the request-spend bound the check gate
/// enforces.
const MAX_OVERPROVISION: f64 = 2.0;

/// Builds the suite on a healthy fabric: every hop costs `fast` except
/// messages to the [`SLOW`] member's node. The [`FLAKY`] member's drop
/// override is armed later, after warmup, so both runs seed their
/// estimators on identical clean traffic.
fn build(fast: Duration, slow: Duration, timeout: Duration, seed: u64) -> Fixture {
    let net = lossless(seed, fast);
    net.set_node_latency(NodeId(100 + SLOW as u32), LatencyModel::fixed(slow));
    let quorums = (MEMBERS, READ_QUORUM, WRITE_QUORUM);
    let policy = Box::new(RandomPolicy::new(seed));
    Fixture::new(net, quorums, timeout, policy, |client| client)
}

/// Warms the directory and the reply estimators on the clean fabric, arms
/// the flaky member's drop override, then times `reads` lookups. A lookup
/// that loses an RPC to a drop is retried until it succeeds — the
/// `ReplicatedDirectory` retry loop — and the *whole* operation is timed,
/// so a run that stalls on timeouts pays for them in its samples. Also
/// returns what the warm-up spent: `(data requests, pings)`.
fn run_workload(fx: &mut Fixture, warmup: usize, reads: usize) -> (Samples, (u64, u64)) {
    for i in 0..warmup {
        let key = Key::from(format!("warm{i:03}").as_str());
        fx.suite.insert(&key, &Value::from("v")).expect("insert");
    }
    let warm = (
        fx.suite.message_counts().iter().sum(),
        fx.suite.ping_counts().iter().sum(),
    );
    fx.net.set_node_drop(NodeId(100 + FLAKY as u32), DROP_PROB);
    let mut times = Vec::new();
    for i in 0..reads {
        let key = Key::from(format!("warm{:03}", i % warmup).as_str());
        let t = Instant::now();
        let mut attempts = 0;
        while fx.suite.lookup(&key).is_err() {
            attempts += 1;
            assert!(attempts < 64, "lookup cannot make progress");
        }
        times.push(t.elapsed());
    }
    (Samples::from_durations(times), warm)
}

/// Every member request the suite sent: pings plus data.
fn requests(suite: &DirSuite<RemoteSessionClient>) -> u64 {
    let (pings, msgs) = (suite.ping_counts(), suite.message_counts());
    pings.iter().chain(&msgs).sum()
}

fn main() {
    // `REPDIR_OBS_FLUSH=stderr|json|<path>` attaches an interval
    // metrics flusher to the global registry for the whole run.
    let _flush = repdir_obs::Flusher::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    let (fast, slow, timeout) = if quick {
        (
            Duration::from_millis(1),
            Duration::from_millis(10),
            Duration::from_millis(30),
        )
    } else {
        (
            Duration::from_millis(2),
            Duration::from_millis(20),
            Duration::from_millis(60),
        )
    };
    let warmup = 6;
    let reads = if quick { 64 } else { 96 };
    // Hedge after two fast round trips: late enough that a healthy reply
    // always beats it, early enough to duck both the slow member and the
    // client timeout. (Pinned rather than histogram-derived so the bench
    // is reproducible; the suite derives 3 x p50 on its own by default.)
    let hedge_delay = 4 * fast;

    println!(
        "hedge_bench: {MEMBERS} members (R={READ_QUORUM}, W={WRITE_QUORUM}), \
         fast hop {}ms, slow member {SLOW} at {}ms, flaky member {FLAKY} \
         dropping {:.0}% after warmup, client timeout {}ms",
        fast.as_millis(),
        slow.as_millis(),
        DROP_PROB * 100.0,
        timeout.as_millis()
    );
    println!();

    // Baseline: the suite as shipped, no hedging.
    let mut fx = build(fast, slow, timeout, 0xFAB);
    let (baseline, warm) = run_workload(&mut fx, warmup, reads);
    let requests_baseline = requests(&fx.suite);
    let unhedged_issued = fx.suite.obs().counter("suite.hedge.issued").get();
    drop(fx);

    // Hedged: same fabric, same seeded policy.
    let mut fx = build(fast, slow, timeout, 0xFAB);
    fx.suite.set_hedge(true);
    fx.suite.set_hedge_delay(Some(hedge_delay));
    let (hedged, _) = run_workload(&mut fx, warmup, reads);
    let requests_hedged = requests(&fx.suite);
    let snap = fx.suite.obs().snapshot();
    let (issued, won, wasted) = (
        snap.counter("suite.hedge.issued"),
        snap.counter("suite.hedge.won"),
        snap.counter("suite.hedge.wasted"),
    );
    drop(fx);

    let speedup = baseline.median() as f64 / hedged.median().max(1) as f64;
    let request_ratio = requests_hedged as f64 / requests_baseline.max(1) as f64;
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>12}",
        "mode", "median", "mean", "p90", "requests"
    );
    for (name, s, requests) in [
        ("unhedged", &baseline, requests_baseline),
        ("hedged", &hedged, requests_hedged),
    ] {
        println!(
            "{:<10} {:>12}us {:>12}us {:>12}us {:>12}",
            name,
            s.median(),
            s.mean(),
            s.percentile(0.9),
            requests
        );
    }
    println!();
    println!("hedges: issued {issued}, won {won}, wasted {wasted}");
    println!(
        "unhedged warm-up: {} data requests, {} pings for {warmup} inserts",
        warm.0, warm.1
    );
    println!("speedup (unhedged median / hedged median): {speedup:.2}x");
    println!("request ratio (hedged / unhedged): {request_ratio:.2}x (cap {MAX_OVERPROVISION}x)");

    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"hedge\",\n  \"mode\": \"{}\",\n",
            "  \"members\": {}, \"read_quorum\": {}, \"write_quorum\": {},\n",
            "  \"fast_hop_us\": {}, \"slow_hop_us\": {}, \"slow_member\": {},\n",
            "  \"flaky_member\": {}, \"drop_prob\": {}, \"timeout_us\": {},\n",
            "  \"hedge_delay_us\": {}, \"timed_reads\": {},\n",
            "  \"warmup_inserts\": {}, \"warmup_requests\": {}, \"warmup_pings\": {},\n",
            "  \"requests_unhedged\": {}, \"requests_hedged\": {}, \"request_ratio\": {:.3},\n",
            "  \"hedges_issued\": {}, \"hedges_won\": {}, \"hedges_wasted\": {},\n",
            "  \"unhedged\": {},\n  \"hedged\": {},\n",
            "  \"speedup_median\": {:.3}\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        MEMBERS,
        READ_QUORUM,
        WRITE_QUORUM,
        fast.as_micros(),
        slow.as_micros(),
        SLOW,
        FLAKY,
        DROP_PROB,
        timeout.as_micros(),
        hedge_delay.as_micros(),
        reads,
        warmup,
        warm.0,
        warm.1,
        requests_baseline,
        requests_hedged,
        request_ratio,
        issued,
        won,
        wasted,
        baseline.json(),
        hedged.json(),
        speedup
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_hedge.json");
    match std::fs::write(&path, doc) {
        Ok(()) => println!("\nwrote {}", path.canonicalize().unwrap_or(path).display()),
        Err(e) => {
            eprintln!("failed to write BENCH_hedge.json: {e}");
            std::process::exit(2);
        }
    }

    if check {
        let mut ok = true;
        let budget = warmup as u64 * u64::from(READ_QUORUM + WRITE_QUORUM);
        if warm != (budget, 0) || unhedged_issued != 0 {
            eprintln!(
                "FAIL: the unhedged warm-up spent {} data requests and {} pings (budget {budget} \
                 and 0), the unhedged run {unhedged_issued} hedges (budget 0)",
                warm.0, warm.1
            );
            ok = false;
        }
        if request_ratio > MAX_OVERPROVISION {
            eprintln!(
                "FAIL: request ratio {request_ratio:.2}x exceeds the {MAX_OVERPROVISION}x \
                 over-provision bound"
            );
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "CHECK PASSED: warm-up {budget} requests and no ping, hedged requests within \
             {MAX_OVERPROVISION}x of unhedged"
        );
    }
}
