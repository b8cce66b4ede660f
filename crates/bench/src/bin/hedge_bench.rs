//! Adaptive wave provisioning + hedged RPCs vs minimal-prefix waves on a
//! flaky fabric.
//!
//! The minimal-prefix baseline sizes every quorum wave as if each candidate
//! will answer, so one dropped request costs a full client timeout and a
//! guaranteed extra round, and one slow member stalls the whole wave. The
//! adaptive executor sizes waves by the expected (availability-weighted)
//! vote yield, returns the moment the vote threshold is met, and hedges
//! stragglers — pings *and* the lookups a collection carries — to the next
//! spare member after a short delay. By the §3.1 intersection argument any member
//! set whose votes reach the threshold is a valid quorum, so the
//! substitution never changes an answer; it only moves the tail.
//!
//! The fixture is a 5-member suite (R=2, W=4) with one *flaky* member
//! (50% of messages to it are dropped, so RPCs addressed to it stall for
//! the client timeout) and one *slow* member (10x the fast hop). Both
//! modes run the same seeded `RandomPolicy`, so quorum draws include the
//! bad members equally often — the executor is the only variable.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin hedge_bench [-- --quick] [--check]
//! ```
//!
//! `--check` exits nonzero unless the hedged median beats the baseline by
//! the gate factor with total member requests (pings plus data: a lookup's
//! collection carries the lookup, so pings alone no longer count what
//! collections spend) within the over-provision bound. Every
//! run rewrites `BENCH_hedge.json` at the repo root.

use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::suite::{DirSuite, RandomPolicy, SuiteConfig};
use repdir_core::{Key, RepId, Value};
use repdir_net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir_replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir_txn::TxnId;

const MEMBERS: u32 = 5;
const READ_QUORUM: u32 = 2;
const WRITE_QUORUM: u32 = 4;
/// Member index whose node drops half the messages sent to it.
const FLAKY: usize = 3;
/// Member index behind the 10x latency override.
const SLOW: usize = 4;
const DROP_PROB: f64 = 0.5;
/// The suite's default over-provision cap — the request-spend bound the
/// check gate enforces.
const MAX_OVERPROVISION: f64 = 2.0;

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

struct Fixture {
    suite: DirSuite<RemoteSessionClient>,
    net: Arc<Network>,
    _handles: Vec<ServerHandle>,
}

/// Builds the suite on a healthy fabric: every hop costs `fast` except
/// messages to the [`SLOW`] member's node. The [`FLAKY`] member's drop
/// override is armed later, after warmup, so both modes seed their
/// estimators on identical clean traffic.
fn build(fast: Duration, slow: Duration, timeout: Duration, seed: u64) -> Fixture {
    let net = Arc::new(Network::new(seed));
    net.set_fault_plan(FaultPlan {
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        latency: LatencyModel::fixed(fast),
    });
    net.set_node_latency(NodeId(100 + SLOW as u32), LatencyModel::fixed(slow));
    let mut handles = Vec::new();
    let mut clients = Vec::new();
    let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
    for i in 0..MEMBERS {
        let rep = TransactionalRep::new(RepId(i));
        handles.push(serve_rep(Arc::clone(&net), NodeId(100 + i), rep));
        let mut client =
            RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), TxnId(1));
        client.set_timeout(timeout);
        client
            .begin()
            .expect("begin never fails on a healthy fabric");
        clients.push(client);
    }
    let config = SuiteConfig::symmetric(MEMBERS, READ_QUORUM, WRITE_QUORUM)
        .expect("5-2-4 is a valid weighted-voting config");
    let suite = DirSuite::new(clients, config, Box::new(RandomPolicy::new(seed)))
        .expect("client count matches config");
    Fixture {
        suite,
        net,
        _handles: handles,
    }
}

/// Warms the directory and the reply estimators on the clean fabric, arms
/// the flaky member's drop override, then times `reads` lookups. A lookup
/// that loses an RPC to a drop is retried until it succeeds — the
/// `ReplicatedDirectory` retry loop — and the *whole* operation is timed,
/// so a mode that stalls on timeouts pays for them in its samples.
fn run_workload(fx: &mut Fixture, warmup: usize, reads: usize) -> Samples {
    for i in 0..warmup {
        let key = Key::from(format!("warm{i:03}").as_str());
        fx.suite.insert(&key, &Value::from("v")).expect("insert");
    }
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
    Samples::from_durations(times)
}

/// Every member request the suite sent: pings plus data.
fn requests(suite: &DirSuite<RemoteSessionClient>) -> u64 {
    let (pings, msgs) = (suite.ping_counts(), suite.message_counts());
    pings.iter().chain(&msgs).sum()
}

fn json_samples(s: &Samples) -> String {
    format!(
        r#"{{"median_us": {}, "mean_us": {}, "p90_us": {}}}"#,
        s.median(),
        s.mean(),
        s.percentile(0.9)
    )
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

    // Baseline: minimal-prefix waves, no hedging.
    let mut fx = build(fast, slow, timeout, 0xFAB);
    fx.suite.set_adaptive_waves(false);
    let baseline = run_workload(&mut fx, warmup, reads);
    let requests_baseline = requests(&fx.suite);
    drop(fx);

    // Adaptive + hedged: same fabric, same seeded policy.
    let mut fx = build(fast, slow, timeout, 0xFAB);
    fx.suite.set_hedge(true);
    fx.suite.set_hedge_delay(Some(hedge_delay));
    let hedged = run_workload(&mut fx, warmup, reads);
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
        ("baseline", &baseline, requests_baseline),
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
    println!("speedup (baseline median / hedged median): {speedup:.2}x");
    println!("request ratio (hedged / baseline): {request_ratio:.2}x (cap {MAX_OVERPROVISION}x)");

    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"hedge\",\n  \"mode\": \"{}\",\n",
            "  \"members\": {}, \"read_quorum\": {}, \"write_quorum\": {},\n",
            "  \"fast_hop_us\": {}, \"slow_hop_us\": {}, \"slow_member\": {},\n",
            "  \"flaky_member\": {}, \"drop_prob\": {}, \"timeout_us\": {},\n",
            "  \"hedge_delay_us\": {}, \"timed_reads\": {},\n",
            "  \"baseline\": {},\n  \"hedged\": {},\n",
            "  \"requests_baseline\": {}, \"requests_hedged\": {}, \"request_ratio\": {:.3},\n",
            "  \"hedges_issued\": {}, \"hedges_won\": {}, \"hedges_wasted\": {},\n",
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
        json_samples(&baseline),
        json_samples(&hedged),
        requests_baseline,
        requests_hedged,
        request_ratio,
        issued,
        won,
        wasted,
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
        const GATE: f64 = 2.0;
        let mut ok = true;
        if speedup < GATE {
            eprintln!("FAIL: speedup {speedup:.2}x below the {GATE}x gate");
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
        println!("CHECK PASSED: >= {GATE}x median, requests within {MAX_OVERPROVISION}x");
    }
}
