//! The message budget of `scan`, beside the per-hop reference
//! (`reference::per_hop_scan`).
//!
//! The per-hop scan runs one full `real_successor` search per entry: collect
//! a read quorum (one ping wave), refill neighbor chains (one data wave),
//! and look the candidate up (another data wave) — roughly three round-trips
//! per entry on a uniform fabric. The session scan collects its quorum once
//! ([`QuorumSession`](repdir_core::QuorumSession)) with the collection
//! carrying the first chain request, judges every entry from the buffered
//! chain heads without a message, and reads every value of at most
//! `INLINE_VALUE_MAX` bytes off the chain head that named it: one chain
//! request per member per `bulk_chunk` entries — ⌈(entries + 1) / 64⌉
//! waves. A larger value costs a `Lookup` riding the next wave, and the
//! values still owed after the last chain one more wave.
//!
//! The fixture is a 3-member suite (R=2, W=2) of networked transactional
//! representatives behind a fixed per-message latency, scanning a directory
//! of `ENTRIES` entries. Every quorum is members {0, 1}, so both members a
//! scan reads hold every entry. Both scans run on the same populated suite.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin scan_bench [-- --quick] [--check]
//! ```
//!
//! A second fixture writes and scans through quorums drawn at random, over
//! values one byte too large to ride a chain: every value is a `Lookup`
//! riding a wave, so the value wave is counted too.
//!
//! `--check` exits nonzero unless a scan of the 64 entries costs exactly its
//! pinned budget — 2 rounds, R requests each, 8 fabric messages, no ping, no
//! re-validation — and unless a scan of the second fixture costs 2 rounds,
//! R requests each, 8 fabric messages, one `Lookup` per entry, no ping and
//! no re-validation (the `scripts/check.sh` gate). Fabric bytes,
//! wall-clock and the speed-up over the per-hop reference are reported, not
//! gated, and so is what one scan of 64 entries costs at value sizes on
//! both sides of the inline bound: rounds, requests, `Lookup`s and fabric
//! bytes.
//! Every run rewrites `BENCH_scan.json` at the repo root.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_baselines::reference::per_hop_scan;
use repdir_bench::fabric::{lossless, Fixture, Samples, Spent};
use repdir_core::suite::{DirSuite, FixedPolicy, QuorumPolicy, RandomPolicy};
use repdir_core::{Completion, Key, Op, RepClient, RepId, RepResult, Reply, SuiteError, UserKey};
use repdir_core::{Value, INLINE_VALUE_MAX};
use repdir_replica::RemoteSessionClient;

const MEMBERS: u32 = 3;
const READ_QUORUM: u32 = 2;
const WRITE_QUORUM: u32 = 2;
const ENTRIES: usize = 64;
/// Value sizes the byte sweep lists a directory of, around the inline bound.
const VALUE_SIZES: [usize; 4] = [16, INLINE_VALUE_MAX, INLINE_VALUE_MAX + 1, 256];

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

/// Forwards to a [`RemoteSessionClient`], counting the `Lookup`s it sends.
struct CountsLookups {
    inner: RemoteSessionClient,
    lookups: Arc<AtomicU64>,
}

impl CountsLookups {
    fn count(&self, ops: &[Op]) {
        let lookups = ops.iter().filter(|op| matches!(op, Op::Lookup(_))).count();
        self.lookups.fetch_add(lookups as u64, Ordering::Relaxed);
    }
}

impl RepClient for CountsLookups {
    fn id(&self) -> RepId {
        self.inner.id()
    }
    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        self.count(ops);
        self.inner.execute(ops)
    }
    fn start(&self, ops: &[Op], done: Completion) {
        self.count(ops);
        self.inner.start(ops, done)
    }
}

/// A zero-latency fixture under `policy` whose clients count their
/// `Lookup`s, holding `ENTRIES` entries of `size`-byte values written by
/// one `insert_many`, or by one `insert` each when `per_key`.
fn counted_fixture(
    policy: Box<dyn QuorumPolicy + Send>,
    size: usize,
    per_key: bool,
) -> (Fixture<CountsLookups>, Arc<AtomicU64>) {
    let lookups = Arc::new(AtomicU64::new(0));
    let quorums = (MEMBERS, READ_QUORUM, WRITE_QUORUM);
    let net = lossless(0x5CA7, Duration::ZERO);
    let counter = Arc::clone(&lookups);
    let timeout = Duration::from_secs(10);
    let mut fx = Fixture::new(net, quorums, timeout, policy, move |inner| CountsLookups {
        inner,
        lookups: Arc::clone(&counter),
    });
    let entries: Vec<(Key, Value)> = (0..ENTRIES)
        .map(|i| {
            let key = Key::from(format!("entry{i:03}").as_str());
            (key, Value::from(vec![b'v'; size]))
        })
        .collect();
    if per_key {
        for (key, value) in &entries {
            fx.suite.insert(key, value).expect("insert");
        }
    } else {
        fx.suite.insert_many(&entries).expect("insert_many");
    }
    (fx, lookups)
}

/// `scans` scans of a counted fixture: what they spent, the `Lookup`s they
/// sent and the re-validations they needed.
fn counted_scans(
    fx: &mut Fixture<CountsLookups>,
    lookups: &AtomicU64,
    scans: usize,
) -> (Spent, u64, u64) {
    let asked = lookups.load(Ordering::Relaxed);
    let (_, spent) = fx.spent(|suite| {
        for _ in 0..scans {
            let listed = suite.scan().expect("scan");
            assert_eq!(listed.len(), ENTRIES, "scan must list every entry");
        }
    });
    let revalidate = fx.suite.obs().counter("suite.session.revalidate").get();
    (spent, lookups.load(Ordering::Relaxed) - asked, revalidate)
}

/// What one scan of `ENTRIES` entries of `size`-byte values costs on a
/// zero-latency fabric under quorums {0, 1}: its rounds and requests, the
/// `Lookup`s it sends and the payload bytes the fabric carries, requests
/// and replies.
fn by_value_size(size: usize) -> (Spent, u64) {
    let (mut fx, lookups) = counted_fixture(Box::new(FixedPolicy::new()), size, false);
    let (spent, asked, _) = counted_scans(&mut fx, &lookups, 1);
    (spent, asked)
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
    let scans = if quick { 3 } else { 5 };

    println!(
        "scan_bench: {MEMBERS} members (R={READ_QUORUM}, W={WRITE_QUORUM}), \
         {ENTRIES} entries, {}us per message hop",
        hop.as_micros()
    );
    println!();

    let quorums = (MEMBERS, READ_QUORUM, WRITE_QUORUM);
    let (timeout, policy) = (Duration::from_secs(10), Box::new(FixedPolicy::new()));
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
        "{:<10} {:>14} {:>14} {:>14} {:>8} {:>9} {:>6} {:>12} {:>12}",
        "scan", "median", "mean", "p90", "rounds", "requests", "pings", "fabric msgs", "fabric B"
    );
    for (name, s, cost) in [("per-hop", &baseline, &per_hop), ("suite", &session, &cost)] {
        println!(
            "{:<10} {:>12}us {:>12}us {:>12}us {:>8} {:>9} {:>6} {:>12} {:>12}",
            name,
            s.median(),
            s.mean(),
            s.percentile(0.9),
            per_scan(cost.rounds),
            per_scan(cost.requests),
            per_scan(cost.pings),
            per_scan(cost.fabric_msgs),
            per_scan(cost.fabric_bytes)
        );
    }
    println!();
    println!("re-validations: {revalidate}");
    println!("speedup (per-hop median / suite median): {speedup:.2}x");

    let policy = Box::new(RandomPolicy::new(0x5CA8));
    let (mut fx, lookups) = counted_fixture(policy, INLINE_VALUE_MAX + 1, true);
    let (random, random_lookups, random_revalidate) = counted_scans(&mut fx, &lookups, scans);
    drop(fx);
    println!();
    println!(
        "random quorums, {} B values (reported per scan): {} rounds, {} requests, {} pings, \
         {} fabric msgs, {} lookups, {} fabric B, {random_revalidate} re-validations",
        INLINE_VALUE_MAX + 1,
        per_scan(random.rounds),
        per_scan(random.requests),
        per_scan(random.pings),
        per_scan(random.fabric_msgs),
        per_scan(random_lookups),
        per_scan(random.fabric_bytes)
    );
    println!();
    println!(
        "one scan of {ENTRIES} entries by value size (chains carry values of at most \
         {INLINE_VALUE_MAX} B; reported, not gated):"
    );
    println!(
        "{:>8} {:>8} {:>9} {:>12} {:>8} {:>13}",
        "value B", "rounds", "requests", "fabric msgs", "lookups", "fabric bytes"
    );
    let mut sizes = Vec::new();
    for size in VALUE_SIZES {
        let (spent, lookups) = by_value_size(size);
        let bytes = spent.fabric_bytes;
        println!(
            "{:>8} {:>8} {:>9} {:>12} {:>8} {:>13}",
            size, spent.rounds, spent.requests, spent.fabric_msgs, lookups, bytes
        );
        sizes.push(format!(
            concat!(
                "{{\"value_bytes\": {}, \"rounds\": {}, \"requests\": {}, ",
                "\"fabric_msgs\": {}, \"lookups\": {}, \"fabric_bytes\": {}}}"
            ),
            size, spent.rounds, spent.requests, spent.fabric_msgs, lookups, bytes
        ));
    }

    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"scan\",\n  \"mode\": \"{}\",\n",
            "  \"members\": {}, \"read_quorum\": {}, \"write_quorum\": {},\n",
            "  \"entries\": {}, \"hop_us\": {}, \"scans\": {},\n",
            "  \"rounds_per_scan\": {}, \"requests_per_scan\": {}, \"pings_per_scan\": {},\n",
            "  \"fabric_msgs_per_scan\": {{\"per_hop\": {}, \"session\": {}}},\n",
            "  \"fabric_bytes_per_scan\": {{\"per_hop\": {}, \"session\": {}}},\n",
            "  \"session_revalidate\": {},\n",
            "  \"random_quorums_65b_per_scan\": {{\"rounds\": {}, \"requests\": {}, ",
            "\"pings\": {}, \"fabric_msgs\": {}, \"lookups\": {}, \"fabric_bytes\": {}, ",
            "\"session_revalidate\": {}}},\n",
            "  \"by_value_size\": [\n    {}\n  ],\n",
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
        per_scan(per_hop.fabric_bytes),
        per_scan(cost.fabric_bytes),
        revalidate,
        per_scan(random.rounds),
        per_scan(random.requests),
        per_scan(random.pings),
        per_scan(random.fabric_msgs),
        per_scan(random_lookups),
        per_scan(random.fabric_bytes),
        random_revalidate,
        sizes.join(",\n    "),
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
        // 64 entries and HIGH are two chains of 64: the carried one, then
        // one more. Every value rides them, so nothing is owed.
        let rounds = (ENTRIES as u64 + 1).div_ceil(64);
        let budget = Spent::fault_free(rounds, rounds * u64::from(READ_QUORUM));
        if cost.counts() != budget.times(scans as u64) || revalidate != 0 {
            eprintln!(
                "FAIL: {scans} scans spent {cost:?} and {revalidate} re-validations; \
                 budget per scan {budget:?} and 0"
            );
            std::process::exit(1);
        }
        println!("check passed: scan of {ENTRIES} = {budget:?}, no re-validation");
        // No value rides: the carried chain, then one wave of every entry's
        // `Lookup` together with whatever chain is still needed to reach HIGH.
        let budget = Spent::fault_free(2, 2 * u64::from(READ_QUORUM));
        let lookups = ENTRIES as u64;
        if random.counts() != budget.times(scans as u64)
            || random_lookups != lookups * scans as u64
            || random_revalidate != 0
        {
            eprintln!(
                "FAIL: {scans} scans under random quorums spent {random:?}, \
                 {random_lookups} lookups and {random_revalidate} re-validations; \
                 budget per scan {budget:?}, {lookups} and 0"
            );
            std::process::exit(1);
        }
        println!(
            "check passed: scan of {ENTRIES} large values under random quorums = \
             {budget:?} and {lookups} lookups, no re-validation"
        );
    }
}
