//! Random vs latency-aware quorum selection on a *skewed* fabric.
//!
//! Weighted voting lets any R members answer a read, so on a fabric where
//! some representatives are slower (distant, loaded), the coordinator is
//! free to prefer the fast ones. `LatencyPolicy` orders candidates by the
//! per-member reply-time EWMAs the obs subsystem records on every ping and
//! data RPC; `RandomPolicy` — the availability-oriented default — keeps
//! drawing slow members into read quorums.
//!
//! The fixture is a 5-member suite (R=2, W=4) where two members sit behind
//! a per-node latency override
//! ([`Network::set_node_latency`](repdir_net::Network::set_node_latency)).
//! With R=2 out of 5 and 2 slow members, a random pair includes a slow
//! member 70% of the time, so the random read median is slow-bound; the
//! latency policy converges on the three fast members after a couple of
//! self-exploring probe rounds and reads at the fast round-trip.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin latency_policy [-- --quick] [--check]
//! ```
//!
//! `--check` gates counts, never wall-clock. It exits nonzero unless
//! (a) each run's warm-up inserts on the clean fabric spent exactly R + W
//! data requests apiece and no ping, (b) the latency policy's timed lookups
//! sent no request to a slow member, and (c) its read prefix is exactly
//! fast members. The speed-up over random is reported, not gated. Every run
//! rewrites `BENCH_latency_policy.json` at the repo root.

use std::time::{Duration, Instant};

use repdir_bench::fabric::{lossless, Samples, Spent};
use repdir_core::suite::{DirSuite, QuorumPolicy, RandomPolicy};
use repdir_core::{Key, QuorumKind, Value};
use repdir_net::{LatencyModel, NodeId};
use repdir_replica::RemoteSessionClient;

type Fixture = repdir_bench::fabric::Fixture<RemoteSessionClient>;

const MEMBERS: u32 = 5;
const READ_QUORUM: u32 = 2;
const WRITE_QUORUM: u32 = 4;
/// Member indices behind the latency override.
const SLOW: [usize; 2] = [3, 4];

/// Builds the skewed suite: every hop costs `fast` except messages *to* the
/// [`SLOW`] members' nodes, which cost `slow`.
fn build(fast: Duration, slow: Duration, seed: u64) -> Fixture {
    let net = lossless(seed, fast);
    for &i in &SLOW {
        net.set_node_latency(NodeId(100 + i as u32), LatencyModel::fixed(slow));
    }
    let quorums = (MEMBERS, READ_QUORUM, WRITE_QUORUM);
    let policy = Box::new(RandomPolicy::new(seed));
    Fixture::new(net, quorums, Duration::from_secs(10), policy, |client| {
        client
    })
}

/// What one policy's run measured.
struct Run {
    /// What the warm-up inserts spent.
    warmup: Spent,
    /// Latency of each timed lookup.
    lookups: Samples,
    /// Requests (data plus pings) each member was sent by the timed lookups
    /// alone.
    lookup_requests: Vec<u64>,
}

/// Requests (data plus pings) each member has been sent so far.
fn requests(suite: &DirSuite<RemoteSessionClient>) -> Vec<u64> {
    let pings = suite.ping_counts();
    let msgs = suite.message_counts();
    msgs.iter().zip(&pings).map(|(m, p)| m + p).collect()
}

/// Seeds EWMAs (writes probe W=4 members each; the latency policy explores
/// unsampled members first), then times a read-heavy phase. An untimed
/// write is interleaved every few reads: reads only sample the chosen R
/// members, so a fast member whose EWMA caught a one-off scheduler stall
/// would otherwise never be re-probed and stay exiled. Write waves touch
/// the W=4 best-ranked members, letting a stale EWMA decay back to truth.
/// Those writes must reach a slow member, so only the timed lookups are
/// counted.
fn run_workload(fx: &mut Fixture, warmup: usize, reads: usize) -> Run {
    let ((), warmup_spent) = fx.spent(|suite| {
        for i in 0..warmup {
            let key = Key::from(format!("warm{i:03}").as_str());
            suite.insert(&key, &Value::from("v")).expect("insert");
        }
    });
    let suite = &mut fx.suite;
    let mut times = Vec::new();
    let mut lookup_requests = vec![0; MEMBERS as usize];
    for i in 0..reads {
        let key = Key::from(format!("warm{:03}", i % warmup).as_str());
        if i % 4 == 3 {
            suite.update(&key, &Value::from("v2")).expect("update");
        }
        let before = requests(suite);
        let t = Instant::now();
        suite.lookup(&key).expect("lookup");
        times.push(t.elapsed());
        for (sent, (after, before)) in lookup_requests
            .iter_mut()
            .zip(requests(suite).into_iter().zip(before))
        {
            *sent += after - before;
        }
    }
    Run {
        warmup: warmup_spent,
        lookups: Samples::from_durations(times),
        lookup_requests,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    let (fast, slow) = if quick {
        (Duration::from_millis(1), Duration::from_millis(6))
    } else {
        (Duration::from_millis(2), Duration::from_millis(12))
    };
    let warmup = 6;
    let reads = if quick { 16 } else { 40 };

    println!(
        "latency_policy: {MEMBERS} members (R={READ_QUORUM}, W={WRITE_QUORUM}), \
         fast hop {}ms, slow hop {}ms to members {SLOW:?}",
        fast.as_millis(),
        slow.as_millis()
    );
    println!();

    // Random: the seeded default policy the fixture starts with.
    let mut fx = build(fast, slow, 0x5EED);
    let random = run_workload(&mut fx, warmup, reads);
    drop(fx);

    // Latency-aware: same fixture, policy swapped for one reading the
    // suite's own obs-recorded reply EWMAs.
    let mut fx = build(fast, slow, 0x5EED + 1);
    let policy = fx.suite.latency_policy();
    fx.suite.set_policy(Box::new(policy));
    let latency = run_workload(&mut fx, warmup, reads);

    // Where did the EWMAs land, and whom would the policy read from now?
    let ewmas: Vec<u64> = fx
        .suite
        .member_reply_ewmas()
        .iter()
        .map(|e| e.value_us().unwrap_or(0.0).round() as u64)
        .collect();
    let read_prefix: Vec<usize> = fx
        .suite
        .latency_policy()
        .candidates(QuorumKind::Read, MEMBERS as usize, None)
        .into_iter()
        .take(READ_QUORUM as usize)
        .collect();
    drop(fx);

    let slow_lookup_requests: u64 = SLOW.iter().map(|&i| latency.lookup_requests[i]).sum();
    let speedup = random.lookups.median() as f64 / latency.lookups.median().max(1) as f64;
    println!(
        "{:<10} {:>14} {:>14} {:>14}  lookup requests per member",
        "policy", "median", "mean", "p90"
    );
    for (name, run) in [("random", &random), ("latency", &latency)] {
        let s = &run.lookups;
        println!(
            "{:<10} {:>12}us {:>12}us {:>12}us  {:?}",
            name,
            s.median(),
            s.mean(),
            s.percentile(0.9),
            run.lookup_requests
        );
    }
    println!();
    println!("reply EWMAs (us): {ewmas:?}");
    println!("latency-policy read prefix: {read_prefix:?}  (slow members: {SLOW:?})");
    println!("latency-policy lookup requests to slow members: {slow_lookup_requests}");
    for (name, run) in [("random", &random), ("latency", &latency)] {
        println!(
            "{name} warm-up: {} data requests, {} pings for {warmup} inserts",
            run.warmup.requests, run.warmup.pings
        );
    }
    println!("speedup (random median / latency median): {speedup:.2}x");

    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"latency_policy\",\n  \"mode\": \"{}\",\n",
            "  \"members\": {}, \"read_quorum\": {}, \"write_quorum\": {},\n",
            "  \"fast_hop_us\": {}, \"slow_hop_us\": {}, \"slow_members\": {:?},\n",
            "  \"warmup_inserts\": {}, \"timed_reads\": {},\n",
            "  \"warmup_requests\": {{\"random\": {}, \"latency\": {}}},\n",
            "  \"warmup_pings\": {{\"random\": {}, \"latency\": {}}},\n",
            "  \"lookup_requests\": {{\"random\": {:?}, \"latency\": {:?}}},\n",
            "  \"slow_member_lookup_requests\": {},\n",
            "  \"random\": {},\n  \"latency\": {},\n",
            "  \"reply_ewma_us\": {:?},\n  \"read_prefix\": {:?},\n",
            "  \"speedup_median\": {:.3}\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        MEMBERS,
        READ_QUORUM,
        WRITE_QUORUM,
        fast.as_micros(),
        slow.as_micros(),
        SLOW,
        warmup,
        reads,
        random.warmup.requests,
        latency.warmup.requests,
        random.warmup.pings,
        latency.warmup.pings,
        random.lookup_requests,
        latency.lookup_requests,
        slow_lookup_requests,
        random.lookups.json(),
        latency.lookups.json(),
        ewmas,
        read_prefix,
        speedup
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_latency_policy.json");
    match std::fs::write(&path, doc) {
        Ok(()) => println!("\nwrote {}", path.canonicalize().unwrap_or(path).display()),
        Err(e) => {
            eprintln!("failed to write BENCH_latency_policy.json: {e}");
            std::process::exit(2);
        }
    }

    if check {
        let mut ok = true;
        let budget =
            Spent::fault_free(2, u64::from(READ_QUORUM + WRITE_QUORUM)).times(warmup as u64);
        for (name, run) in [("random", &random), ("latency", &latency)] {
            if run.warmup.counts() != budget {
                eprintln!(
                    "FAIL: the {name} warm-up spent {:?}, budget {budget:?}",
                    run.warmup
                );
                ok = false;
            }
        }
        if slow_lookup_requests != 0 {
            eprintln!(
                "FAIL: the latency policy's timed lookups sent {slow_lookup_requests} requests \
                 to slow members (per member: {:?})",
                latency.lookup_requests
            );
            ok = false;
        }
        if read_prefix.iter().any(|m| SLOW.contains(m)) {
            eprintln!("FAIL: latency policy still reads from a slow member: {read_prefix:?}");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!(
            "CHECK PASSED: warm-up {} requests and no ping per run, no timed lookup request \
             to a slow member, read prefix {read_prefix:?}",
            budget.requests
        );
    }
}
