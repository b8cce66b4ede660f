//! The chain-resolved session scan vs the per-hop baseline on `scan`.
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
//! of `ENTRIES` entries. Both modes run on the same populated suite; the
//! fabric's `sent` counter additionally shows the message-count drop.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin scan_bench [-- --quick] [--check]
//! ```
//!
//! `--check` exits nonzero unless the session scan's median beats the
//! per-hop baseline by the gate factor (the `scripts/check.sh` perf gate).
//! Every run rewrites `BENCH_scan.json` at the repo root.

use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::suite::{DirSuite, RandomPolicy, SuiteConfig};
use repdir_core::{Key, RepId, Value};
use repdir_net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir_replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir_txn::TxnId;

const MEMBERS: u32 = 3;
const READ_QUORUM: u32 = 2;
const WRITE_QUORUM: u32 = 2;
const ENTRIES: usize = 64;

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

fn build(hop: Duration, seed: u64) -> Fixture {
    let net = Arc::new(Network::new(seed));
    net.set_fault_plan(FaultPlan {
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        latency: LatencyModel::fixed(hop),
    });
    let mut handles = Vec::new();
    let mut clients = Vec::new();
    let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
    for i in 0..MEMBERS {
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
    let config = SuiteConfig::symmetric(MEMBERS, READ_QUORUM, WRITE_QUORUM)
        .expect("3-2-2 is a valid weighted-voting config");
    let suite = DirSuite::new(clients, config, Box::new(RandomPolicy::new(seed)))
        .expect("client count matches config");
    Fixture {
        suite,
        net,
        _handles: handles,
    }
}

/// Times `scans` full scans in the suite's current session mode, returning
/// the samples and the fabric messages sent per scan.
fn run_scans(fx: &mut Fixture, scans: usize) -> (Samples, u64) {
    let sent_before = fx.net.stats().sent;
    let mut times = Vec::new();
    for _ in 0..scans {
        let t = Instant::now();
        let listed = fx.suite.scan().expect("scan");
        times.push(t.elapsed());
        assert_eq!(listed.len(), ENTRIES, "scan must list every entry");
    }
    let sent = fx.net.stats().sent - sent_before;
    (Samples::from_durations(times), sent / scans as u64)
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

    let mut fx = build(hop, 0x5CA7);
    for i in 0..ENTRIES {
        let key = Key::from(format!("entry{i:03}").as_str());
        fx.suite.insert(&key, &Value::from("v")).expect("insert");
    }

    // Per-hop baseline: fresh quorum and separate lookup round-trips for
    // every entry.
    fx.suite.set_session_reuse(false);
    let (baseline, baseline_msgs) = run_scans(&mut fx, scans);

    // Session + batched envelopes on the identical directory.
    fx.suite.set_session_reuse(true);
    let (session, session_msgs) = run_scans(&mut fx, scans);

    let snap = fx.suite.obs().snapshot();
    let reuse = snap.counter("suite.session.reuse");
    let revalidate = snap.counter("suite.session.revalidate");
    drop(fx);

    let speedup = baseline.median() as f64 / session.median().max(1) as f64;
    let msg_ratio = baseline_msgs as f64 / session_msgs.max(1) as f64;
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>16}",
        "mode", "median", "mean", "p90", "fabric msgs"
    );
    for (name, s, msgs) in [
        ("per-hop", &baseline, baseline_msgs),
        ("session", &session, session_msgs),
    ] {
        println!(
            "{:<10} {:>12}us {:>12}us {:>12}us {:>16}",
            name,
            s.median(),
            s.mean(),
            s.percentile(0.9),
            msgs
        );
    }
    println!();
    println!("session reuse hits: {reuse}, re-validations: {revalidate}");
    println!("speedup (per-hop median / session median): {speedup:.2}x");
    println!("fabric message reduction: {msg_ratio:.2}x fewer messages per scan");

    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"scan\",\n  \"mode\": \"{}\",\n",
            "  \"members\": {}, \"read_quorum\": {}, \"write_quorum\": {},\n",
            "  \"entries\": {}, \"hop_us\": {}, \"scans\": {},\n",
            "  \"per_hop\": {},\n  \"session\": {},\n",
            "  \"fabric_msgs_per_scan\": {{\"per_hop\": {}, \"session\": {}}},\n",
            "  \"session_reuse\": {}, \"session_revalidate\": {},\n",
            "  \"msg_ratio\": {:.3},\n  \"speedup_median\": {:.3}\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        MEMBERS,
        READ_QUORUM,
        WRITE_QUORUM,
        ENTRIES,
        hop.as_micros(),
        scans,
        json_samples(&baseline),
        json_samples(&session),
        baseline_msgs,
        session_msgs,
        reuse,
        revalidate,
        msg_ratio,
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
        const GATE: f64 = 2.0;
        let mut ok = true;
        if speedup < GATE {
            eprintln!("FAIL: speedup {speedup:.2}x below the {GATE}x gate");
            ok = false;
        }
        if revalidate != 0 {
            eprintln!("FAIL: {revalidate} re-validations on a failure-free fabric");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!("check passed: session scan >= {GATE}x faster than per-hop, no re-validations");
    }
}
