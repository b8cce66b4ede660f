//! Bulk insert on a session quorum vs the per-key baseline.
//!
//! The per-key path pays a discovery lookup wave and an insert wave for
//! every key (each carrying its own quorum collection) — two round-trips
//! per key on a uniform fabric. `DirSuite::insert_many` collects
//! the read and write quorums once ([`QuorumSession`](repdir_core::QuorumSession)),
//! holds them across the whole batch, and packs each chunk's discovery
//! lookups and insert writes into one `Batch` envelope per member, the first
//! chunk's carried by the collections themselves — 2·⌈N/chunk⌉ waves and no
//! ping for an N-key ingest (two waves at the default chunk of 64).
//!
//! The fixture is a 3-member suite (R=2, W=2) of networked transactional
//! representatives behind a fixed per-message latency, ingesting `KEYS`
//! fresh keys per round. Both modes run on the same fabric; the fabric's
//! `sent` counter additionally shows the message-count drop.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin ingest_bench [-- --quick] [--check]
//! ```
//!
//! `--check` exits nonzero unless bulk ingest's median beats the per-key
//! baseline by the gate factor on BOTH wall time and fabric messages (the
//! `scripts/check.sh` perf gate). Every run rewrites `BENCH_ingest.json` at
//! the repo root.

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
const KEYS: usize = 64;

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

/// Times `rounds` ingests of `KEYS` fresh keys each (key sets are disjoint
/// per round and per mode, so every insert is a create), returning the
/// samples and the fabric messages sent per ingest.
fn run_ingests(fx: &mut Fixture, rounds: usize, tag: &str) -> (Samples, u64) {
    let sent_before = fx.net.stats().sent;
    let mut times = Vec::new();
    for r in 0..rounds {
        let entries: Vec<(Key, Value)> = (0..KEYS)
            .map(|i| {
                (
                    Key::from(format!("{tag}{r:02}k{i:03}").as_str()),
                    Value::from("v"),
                )
            })
            .collect();
        let t = Instant::now();
        let out = fx.suite.insert_many(&entries).expect("ingest");
        times.push(t.elapsed());
        assert_eq!(out.versions.len(), KEYS, "ingest must write every key");
    }
    let sent = fx.net.stats().sent - sent_before;
    (Samples::from_durations(times), sent / rounds as u64)
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
    let rounds = if quick { 3 } else { 5 };

    println!(
        "ingest_bench: {MEMBERS} members (R={READ_QUORUM}, W={WRITE_QUORUM}), \
         {KEYS}-key ingest, {}us per message hop",
        hop.as_micros()
    );
    println!();

    let mut fx = build(hop, 0x1A9E);

    // Per-key baseline: with session reuse off, insert_many degrades to the
    // per-key loop — fresh quorum, discovery, and write wave for every key.
    fx.suite.set_session_reuse(false);
    let (baseline, baseline_msgs) = run_ingests(&mut fx, rounds, "b");

    // Session + batched write envelopes on the identical fabric.
    fx.suite.set_session_reuse(true);
    let (bulk, bulk_msgs) = run_ingests(&mut fx, rounds, "s");

    let snap = fx.suite.obs().snapshot();
    let reuse = snap.counter("suite.session.reuse");
    let revalidate = snap.counter("suite.session.revalidate");
    let resumed = snap.counter("suite.bulk.resumed");
    drop(fx);

    let speedup = baseline.median() as f64 / bulk.median().max(1) as f64;
    let msg_ratio = baseline_msgs as f64 / bulk_msgs.max(1) as f64;
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>16}",
        "mode", "median", "mean", "p90", "fabric msgs"
    );
    for (name, s, msgs) in [
        ("per-key", &baseline, baseline_msgs),
        ("bulk", &bulk, bulk_msgs),
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
    println!(
        "session reuse hits: {reuse}, re-validations: {revalidate}, resumed batches: {resumed}"
    );
    println!("speedup (per-key median / bulk median): {speedup:.2}x");
    println!("fabric message reduction: {msg_ratio:.2}x fewer messages per ingest");

    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"ingest\",\n  \"mode\": \"{}\",\n",
            "  \"members\": {}, \"read_quorum\": {}, \"write_quorum\": {},\n",
            "  \"keys\": {}, \"hop_us\": {}, \"rounds\": {},\n",
            "  \"per_key\": {},\n  \"bulk\": {},\n",
            "  \"fabric_msgs_per_ingest\": {{\"per_key\": {}, \"bulk\": {}}},\n",
            "  \"session_reuse\": {}, \"session_revalidate\": {}, \"bulk_resumed\": {},\n",
            "  \"msg_ratio\": {:.3},\n  \"speedup_median\": {:.3}\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        MEMBERS,
        READ_QUORUM,
        WRITE_QUORUM,
        KEYS,
        hop.as_micros(),
        rounds,
        json_samples(&baseline),
        json_samples(&bulk),
        baseline_msgs,
        bulk_msgs,
        reuse,
        revalidate,
        resumed,
        msg_ratio,
        speedup
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_ingest.json");
    match std::fs::write(&path, doc) {
        Ok(()) => println!("\nwrote {}", path.canonicalize().unwrap_or(path).display()),
        Err(e) => {
            eprintln!("failed to write BENCH_ingest.json: {e}");
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
        if msg_ratio < GATE {
            eprintln!("FAIL: message ratio {msg_ratio:.2}x below the {GATE}x gate");
            ok = false;
        }
        if revalidate != 0 {
            eprintln!("FAIL: {revalidate} re-validations on a failure-free fabric");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "check passed: bulk ingest >= {GATE}x faster and >= {GATE}x fewer messages than per-key"
        );
    }
}
