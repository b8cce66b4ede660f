//! The message budget of `insert_many`, beside the per-key reference
//! (`reference::insert_per_key`).
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
//! fresh keys per round. Both ingests run on the same fabric.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin ingest_bench [-- --quick] [--check]
//! ```
//!
//! Beside the ingest, an in-process probe prices the `delete_many` that
//! follows it in the benchmark's `bulk_scan` cycle: 512 keys preloaded at
//! every 32nd slot of 2^14, then 200 batches of 64 fresh random odd slots,
//! each inserted and deleted again. Adjacent doomed keys are one run and the
//! runs of a sorted batch share their waves, so a batch is wave A, any
//! shared ghost refills, then waves B and C.
//!
//! `--check` exits nonzero unless an ingest of the 64 keys costs exactly its
//! pinned budget — 2 rounds, R + W requests, 8 fabric messages, no ping, no
//! re-validation — and unless the probe's deletes average at most 4 rounds
//! under fixed quorums {0, 1} (the `scripts/check.sh` gate). The probe under
//! random quorums, fabric bytes, wall-clock and the speed-up over the
//! per-key reference are reported, not gated. Every run rewrites
//! `BENCH_ingest.json` at the repo root.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use repdir_baselines::reference::insert_per_key;
use repdir_bench::fabric::{lossless, Fixture, Samples, Spent};
use repdir_core::rng::SplitMix64;
use repdir_core::suite::{DirSuite, FixedPolicy, RandomPolicy, SuiteConfig};
use repdir_core::{BulkWriteOutcome, Key, SuiteError, UserKey, Value};
use repdir_replica::RemoteSessionClient;

const MEMBERS: u32 = 3;
const READ_QUORUM: u32 = 2;
const WRITE_QUORUM: u32 = 2;
const KEYS: usize = 64;
/// The delete probe's key space, preload and batch count.
const PROBE_SLOTS: u64 = 1 << 14;
const PROBE_PRELOAD: u64 = 512;
const PROBE_BATCHES: usize = 200;
/// The most rounds a probe delete may average under fixed quorums.
const PROBE_ROUNDS_MAX: f64 = 4.0;

type Suite = DirSuite<RemoteSessionClient>;

/// Times `rounds` ingests through `ingest` of `KEYS` fresh keys each (key
/// sets are disjoint per round and per run, so every insert is a create),
/// returning the samples and what the ingests spent between them.
fn run_ingests(
    fx: &mut Fixture<RemoteSessionClient>,
    rounds: usize,
    tag: &str,
    ingest: impl Fn(&mut Suite, &[(Key, Value)]) -> Result<BulkWriteOutcome, SuiteError>,
) -> (Samples, Spent) {
    let (times, spent) = fx.spent(|suite| {
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
            let out = ingest(suite, &entries).expect("ingest");
            times.push(t.elapsed());
            assert_eq!(out.versions.len(), KEYS, "ingest must write every key");
        }
        times
    });
    (Samples::from_durations(times), spent)
}

/// Rounds per `delete_many` of the `bulk_scan`-shaped probe, in process:
/// `PROBE_PRELOAD` keys at every 32nd slot of `PROBE_SLOTS`, then
/// `PROBE_BATCHES` times `KEYS` fresh random odd slots, sorted, inserted
/// and deleted again; only the deletes are counted. Quorums are {0, 1}
/// when `fixed`, random per operation otherwise.
fn delete_probe(fixed: bool) -> f64 {
    let config = SuiteConfig::symmetric(MEMBERS, READ_QUORUM, WRITE_QUORUM).expect("legal");
    let mut suite = DirSuite::in_process(config, 0xDE1E).expect("three members");
    if fixed {
        suite.set_policy(Box::new(FixedPolicy::new()));
    }
    let key = |slot: u64| Key::User(UserKey::from_u64(slot));
    let stride = PROBE_SLOTS / PROBE_PRELOAD;
    let preload: Vec<(Key, Value)> = (0..PROBE_PRELOAD)
        .map(|i| (key(i * stride), Value::from("v")))
        .collect();
    for chunk in preload.chunks(KEYS) {
        suite.insert_many(chunk).expect("preload");
    }
    let mut rng = SplitMix64::new(0xDE1E);
    let rounds = suite.obs().counter("suite.rounds");
    let mut spent = 0;
    for _ in 0..PROBE_BATCHES {
        let mut slots = BTreeSet::new();
        while slots.len() < KEYS {
            slots.insert(2 * rng.next_below(PROBE_SLOTS / 2) + 1);
        }
        let entries: Vec<(Key, Value)> =
            slots.iter().map(|&s| (key(s), Value::from("v"))).collect();
        suite.insert_many(&entries).expect("insert_many");
        let keys: Vec<Key> = entries.into_iter().map(|(key, _)| key).collect();
        let before = rounds.get();
        suite.delete_many(&keys).expect("delete_many");
        spent += rounds.get() - before;
    }
    spent as f64 / PROBE_BATCHES as f64
}

fn main() {
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

    let quorums = (MEMBERS, READ_QUORUM, WRITE_QUORUM);
    let (timeout, policy) = (Duration::from_secs(10), Box::new(RandomPolicy::new(0x1A9E)));
    let mut fx = Fixture::new(lossless(0x1A9E, hop), quorums, timeout, policy, |client| {
        client
    });

    // Per-key reference: a discovery wave and a write wave for every key,
    // each carrying its own quorum collection.
    let (baseline, per_key) = run_ingests(&mut fx, rounds, "b", insert_per_key);

    // The suite's bulk insert on the identical fabric.
    let (bulk, cost) = run_ingests(&mut fx, rounds, "s", Suite::insert_many);

    let snap = fx.suite.obs().snapshot();
    let revalidate = snap.counter("suite.session.revalidate");
    let resumed = snap.counter("suite.bulk.resumed");
    drop(fx);

    let speedup = baseline.median() as f64 / bulk.median().max(1) as f64;
    let per_ingest = |count: u64| count as f64 / rounds as f64;
    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>8} {:>9} {:>6} {:>12} {:>12}",
        "ingest", "median", "mean", "p90", "rounds", "requests", "pings", "fabric msgs", "fabric B"
    );
    for (name, s, cost) in [("per-key", &baseline, &per_key), ("bulk", &bulk, &cost)] {
        println!(
            "{:<10} {:>12}us {:>12}us {:>12}us {:>8} {:>9} {:>6} {:>12} {:>12}",
            name,
            s.median(),
            s.mean(),
            s.percentile(0.9),
            per_ingest(cost.rounds),
            per_ingest(cost.requests),
            per_ingest(cost.pings),
            per_ingest(cost.fabric_msgs),
            per_ingest(cost.fabric_bytes)
        );
    }
    println!();
    println!("re-validations: {revalidate}, resumed batches: {resumed}");
    println!("speedup (per-key median / bulk median): {speedup:.2}x");

    let probe = [delete_probe(true), delete_probe(false)];
    println!();
    println!(
        "delete probe ({PROBE_PRELOAD} keys every {} slots of {PROBE_SLOTS}, \
         {PROBE_BATCHES} batches of {KEYS} random odd slots, in process): \
         {} rounds per delete_many with fixed quorums (gated <= {PROBE_ROUNDS_MAX}), \
         {} with random quorums",
        PROBE_SLOTS / PROBE_PRELOAD,
        probe[0],
        probe[1]
    );

    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"ingest\",\n  \"mode\": \"{}\",\n",
            "  \"members\": {}, \"read_quorum\": {}, \"write_quorum\": {},\n",
            "  \"keys\": {}, \"hop_us\": {}, \"rounds\": {},\n",
            "  \"rounds_per_ingest\": {}, \"requests_per_ingest\": {}, \"pings_per_ingest\": {},\n",
            "  \"fabric_msgs_per_ingest\": {{\"per_key\": {}, \"bulk\": {}}},\n",
            "  \"fabric_bytes_per_ingest\": {{\"per_key\": {}, \"bulk\": {}}},\n",
            "  \"delete_many_rounds_per_ingest\": ",
            "{{\"fixed_quorums\": {}, \"random_quorums\": {}}},\n",
            "  \"session_revalidate\": {}, \"bulk_resumed\": {},\n",
            "  \"per_key\": {},\n  \"bulk\": {},\n",
            "  \"speedup_median\": {:.3}\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        MEMBERS,
        READ_QUORUM,
        WRITE_QUORUM,
        KEYS,
        hop.as_micros(),
        rounds,
        per_ingest(cost.rounds),
        per_ingest(cost.requests),
        per_ingest(cost.pings),
        per_ingest(per_key.fabric_msgs),
        per_ingest(cost.fabric_msgs),
        per_ingest(per_key.fabric_bytes),
        per_ingest(cost.fabric_bytes),
        probe[0],
        probe[1],
        revalidate,
        resumed,
        baseline.json(),
        bulk.json(),
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
        // One chunk of 64: a discovery envelope to the read quorum, a write
        // envelope to the write quorum, each carried by its collection.
        let chunks = KEYS.div_ceil(64) as u64;
        let requests = chunks * u64::from(READ_QUORUM + WRITE_QUORUM);
        let budget = Spent::fault_free(2 * chunks, requests);
        if cost.counts() != budget.times(rounds as u64) || revalidate != 0 {
            eprintln!(
                "FAIL: {rounds} ingests spent {cost:?} and {revalidate} re-validations; \
                 budget per ingest {budget:?} and 0"
            );
            std::process::exit(1);
        }
        println!("check passed: ingest of {KEYS} = {budget:?}, no re-validation");
        if probe[0] > PROBE_ROUNDS_MAX {
            eprintln!(
                "FAIL: the delete probe averaged {} rounds per delete_many with fixed \
                 quorums; budget {PROBE_ROUNDS_MAX}",
                probe[0]
            );
            std::process::exit(1);
        }
        println!(
            "check passed: delete probe {} rounds per delete_many <= {PROBE_ROUNDS_MAX}",
            probe[0]
        );
    }
}
