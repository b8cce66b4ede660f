//! What anti-entropy costs on the fabric, as the repair driver runs it.
//!
//! The scenario is the one the repair subsystem exists for: a member drops
//! off the fabric, the suite keeps committing through the surviving write
//! quorums, the member comes back — and now holds a directory that is
//! partly stale. Three passes converge it, each through [`RepairDriver`]
//! exactly as `ReplicatedDirectory::spawn_repair_drivers` runs it:
//!
//! * **sparse sweep**: ~5% of the keys updated, spread over distinct
//!   buckets. One [`RepairDriver::sweep`] walks member 0's summary tree and
//!   range-pulls each run of dirty buckets.
//! * **vote pass**: the same divergence on a fresh fixture, but reads that
//!   straddle the stale member queue `StaleVote`s first, and one
//!   [`RepairDriver::drain_and_pull`] pulls each voted bucket — no walk.
//! * **dense sweep**: ~60% of the keys updated and ~10% deleted, one
//!   contiguous run of dirty buckets; one sweep walks and pulls it.
//!
//! The fixture is a 3-member suite (R=2, W=2) over the simulated network;
//! all three representatives start byte-identical and member 2 is
//! partitioned for the burst. Messages are counted by the fabric itself
//! (`NetStats::sent`), requests and replies alike, and entries pulled by
//! the `repair.keys_pulled` counter. Both repeat exactly from run to run.
//! After the sparse sweep, every one of the 256 buckets is pulled once more
//! as the *full-copy reference*: what resynchronising without the summary
//! tree would ship.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin repair_bench [-- --quick] [--check]
//! ```
//!
//! `--check` exits nonzero unless each pass converges the stale member
//! byte-identically at exactly its pinned fabric messages and entries
//! pulled. Wall-clock and the full-copy reference are reported, not gated.
//! Every run rewrites `BENCH_repair.json` at the repo root.

use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::suite::{DirSuite, FixedPolicy, RandomPolicy, StaleVoteQueue, SuiteConfig};
use repdir_core::{Key, RepId, UserKey, Value, Version};
use repdir_net::{Network, NodeId, RpcClient, ServerHandle};
use repdir_repair::{Pacing, RepairDriver, Repairer};
use repdir_replica::{
    serve_rep, RemoteRepairPeer, RemoteSessionClient, RepTarget, TransactionalRep,
};
use repdir_txn::TxnId;

const MEMBERS: u32 = 3;
const READ_QUORUM: u32 = 2;
const WRITE_QUORUM: u32 = 2;
/// Member index partitioned during the update burst.
const STALE_MEMBER: usize = 2;

/// What one pass spent: fabric messages and entries pulled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Cost {
    msgs: u64,
    entries: u64,
}

/// The pinned costs of the sparse sweep, the vote pass and the dense sweep,
/// in quick and in full mode: two messages per summary exchange and per
/// pull. Quick sparse: 6 dirty buckets in 6 groups and 6 runs — 7 summary
/// exchanges and 6 pulls of one entry. Quick dense: buckets 0..=87 dirty,
/// one run — 7 summary exchanges and 1 pull of the 76 entries the source
/// still holds there. Full mode doubles the keys; buckets 0..=4 hold two
/// each, so the pull that covers bucket 0 carries one entry more.
const PINNED: [[Cost; 3]; 2] = [
    [
        Cost {
            msgs: 26,
            entries: 6,
        },
        Cost {
            msgs: 12,
            entries: 6,
        },
        Cost {
            msgs: 16,
            entries: 76,
        },
    ],
    [
        Cost {
            msgs: 50,
            entries: 13,
        },
        Cost {
            msgs: 24,
            entries: 13,
        },
        Cost {
            msgs: 28,
            entries: 158,
        },
    ],
];

/// Key `i`, spread across summary buckets by its leading byte.
fn key_of(i: usize) -> Key {
    Key::User(UserKey::new(vec![(i % 251) as u8, (i / 251) as u8]))
}

struct Fixture {
    suite: DirSuite<RemoteSessionClient>,
    reps: Vec<Arc<TransactionalRep>>,
    net: Arc<Network>,
    rpc: Arc<RpcClient>,
    _handles: Vec<ServerHandle>,
}

/// Builds the networked suite with all representatives pre-loaded with
/// `keys` identical committed entries — the state a prior epoch of quorum
/// writes leaves behind.
fn build(keys: usize, hop: Duration, timeout: Duration, seed: u64) -> Fixture {
    let net = repdir_bench::fabric::lossless(seed, hop);
    let mut handles = Vec::new();
    let mut clients = Vec::new();
    let mut reps = Vec::new();
    let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
    for i in 0..MEMBERS {
        let rep = TransactionalRep::new(RepId(i));
        let seed_txn = TxnId(900 + u64::from(i));
        rep.begin(seed_txn).expect("begin seed txn");
        for k in 0..keys {
            rep.insert(seed_txn, &key_of(k), Version::new(1), &Value::from("v1"))
                .expect("seed insert");
        }
        rep.commit(seed_txn).expect("commit seed txn");
        reps.push(Arc::clone(&rep));
        handles.push(serve_rep(Arc::clone(&net), NodeId(100 + i), rep));
        let mut client =
            RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), TxnId(1));
        client.set_timeout(timeout);
        retry(|| client.begin(), "begin on a healthy fabric");
        clients.push(client);
    }
    let config = SuiteConfig::symmetric(MEMBERS, READ_QUORUM, WRITE_QUORUM)
        .expect("3-2-2 is a valid weighted-voting config");
    let suite = DirSuite::new(clients, config, Box::new(RandomPolicy::new(seed)))
        .expect("client count matches config");
    Fixture {
        suite,
        reps,
        net,
        rpc,
        _handles: handles,
    }
}

/// Retries `op` a few times before giving up: the fixture runs real RPC
/// timeouts over the simulated fabric, and a single OS-scheduler stall can
/// push an otherwise healthy round-trip past the deadline. Every retried
/// operation is idempotent for the fixture's purposes (a re-driven update
/// or delete re-commits the same fact at a fresh version). Only the
/// fixture's suite traffic is retried; the measured repair never is.
fn retry<T, E: std::fmt::Debug>(mut op: impl FnMut() -> Result<T, E>, what: &str) -> T {
    let mut last = None;
    for _ in 0..8 {
        match op() {
            Ok(v) => return v,
            Err(e) => last = Some(e),
        }
    }
    panic!("{what}: {last:?}");
}

impl Fixture {
    /// Partitions the stale member while the surviving quorum updates
    /// `updates` and deletes `deletes`, then heals.
    fn diverge(&mut self, updates: &[Key], deletes: &[Key]) {
        self.net
            .set_node_drop(NodeId(100 + STALE_MEMBER as u32), 1.0);
        for k in updates {
            retry(
                || self.suite.update(k, &Value::from("v2")),
                "update through the surviving write quorum",
            );
        }
        for k in deletes {
            retry(
                || self.suite.delete(k),
                "delete through the surviving write quorum",
            );
        }
        self.net
            .set_node_drop(NodeId(100 + STALE_MEMBER as u32), 0.0);
    }

    /// Commits the workload transaction, releasing its two-phase locks so
    /// repair's internal transactions can read and install.
    fn release(&mut self) {
        for i in 0..MEMBERS as usize {
            retry(|| self.suite.member(i).commit(), "commit workload txn");
        }
    }

    /// A driver repairing the stale member from member 0, as the directory
    /// wires one.
    fn driver(&self, votes: Option<Arc<StaleVoteQueue>>) -> RepairDriver {
        let repairer = Repairer::new(
            Arc::new(RepTarget::new(Arc::clone(&self.reps[STALE_MEMBER]))),
            vec![Box::new(RemoteRepairPeer::new(
                Arc::clone(&self.rpc),
                NodeId(100),
            ))],
        );
        let driver = RepairDriver::new(repairer, Pacing::default());
        match votes {
            Some(queue) => {
                driver.with_vote_source(Box::new(move || queue.drain_member(STALE_MEMBER)))
            }
            None => driver,
        }
    }

    /// Runs `pass`, returning what it spent and how long it took, and
    /// asserts it converged the stale member.
    fn measure(&self, what: &str, pass: impl FnOnce()) -> (Cost, Duration) {
        let pulled = repdir_obs::global().counter("repair.keys_pulled");
        let (msgs, entries) = (self.net.stats().sent, pulled.get());
        let t = Instant::now();
        pass();
        let elapsed = t.elapsed();
        let cost = Cost {
            msgs: self.net.stats().sent - msgs,
            entries: pulled.get() - entries,
        };
        assert_eq!(
            self.reps[0].snapshot(),
            self.reps[STALE_MEMBER].snapshot(),
            "{what} did not converge the stale member"
        );
        (cost, elapsed)
    }
}

/// Number of summary buckets on which two representatives disagree
/// (computed in-process; costs no fabric messages).
fn divergent_buckets(a: &TransactionalRep, b: &TransactionalRep) -> usize {
    (0..16u8)
        .map(|g| {
            let da = a.summary_children(1, g).expect("summary of healthy rep");
            let db = b.summary_children(1, g).expect("summary of healthy rep");
            da.iter().zip(&db).filter(|(x, y)| x != y).count()
        })
        .sum()
}

fn main() {
    // `REPDIR_OBS_FLUSH=stderr|json|<path>` attaches an interval metrics
    // flusher to the global registry for the whole run.
    let _flush = repdir_obs::Flusher::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");

    let keys = if quick { 128 } else { 256 };
    let (hop, timeout) = if quick {
        (Duration::from_micros(200), Duration::from_millis(20))
    } else {
        (Duration::from_millis(1), Duration::from_millis(40))
    };
    // Sparse: ~5% of the directory, one key per bucket far apart.
    let sparse: Vec<Key> = (0..keys / 20)
        .map(|u| key_of(u * (keys / (keys / 20))))
        .collect();
    // Dense: 60% updated and another 10% deleted, contiguous from bucket 0.
    let dense_updates: Vec<Key> = (0..keys * 6 / 10).map(key_of).collect();
    let dense_deletes: Vec<Key> = (keys * 6 / 10..keys * 6 / 10 + keys / 10)
        .map(key_of)
        .collect();

    println!(
        "repair_bench: {MEMBERS} members (R={READ_QUORUM}, W={WRITE_QUORUM}), {keys} keys; \
         member {STALE_MEMBER} partitioned for {} sparse updates, or {} dense updates + {} deletes",
        sparse.len(),
        dense_updates.len(),
        dense_deletes.len()
    );
    println!();

    // Sparse sweep.
    let mut fx = build(keys, hop, timeout, 0x4E7A);
    fx.diverge(&sparse, &[]);
    // Inline read-repair detection: reads that straddle the stale member
    // observe its old votes and queue them for the repair layer.
    for k in sparse.iter().take(16) {
        fx.suite.lookup(k).expect("post-heal lookup");
    }
    let stale_votes = fx.suite.take_stale_votes().len();
    fx.release();
    let sparse_dirty = divergent_buckets(&fx.reps[0], &fx.reps[STALE_MEMBER]);
    let mut driver = fx.driver(None);
    let (sparse_cost, sparse_elapsed) = fx.measure("the sparse sweep", || {
        driver.sweep();
    });

    // The full-copy reference: every bucket pulled once, no walk.
    let repairer = driver.repairer();
    let (copy_cost, copy_elapsed) = fx.measure("the full-copy reference", || {
        for bucket in 0..=u8::MAX {
            repairer
                .pull_buckets(0, bucket, bucket)
                .expect("full-copy pull");
        }
    });

    // Vote pass: route stale votes to a shared queue, then read every
    // updated key through a read quorum pinned to {0, stale}. The member's
    // availability score is still depressed from the partition, so early
    // reads may settle their quorum on {0, 1}; repeat until every stale key
    // has been read *through* the stale member (votes coalesce, so re-reads
    // never inflate the queue).
    let mut fx = build(keys, hop, timeout, 0x4E7A);
    fx.diverge(&sparse, &[]);
    let queue = Arc::new(StaleVoteQueue::new());
    fx.suite.set_stale_vote_sink(Arc::clone(&queue));
    fx.suite
        .set_policy(Box::new(FixedPolicy::with_order(vec![0, STALE_MEMBER, 1])));
    let mut passes = 0;
    while queue.len() < sparse.len() {
        for k in &sparse {
            fx.suite.lookup(k).expect("straddling post-heal lookup");
        }
        passes += 1;
        assert!(
            passes < 16,
            "straddling reads never voted all {} stale keys ({} queued)",
            sparse.len(),
            queue.len()
        );
    }
    fx.release();
    let mut driver = fx.driver(Some(queue));
    let mut tick = Default::default();
    let (vote_cost, vote_elapsed) = fx.measure("the vote pass", || {
        tick = driver.drain_and_pull();
    });
    assert_eq!(tick.unrepaired, 0, "driver left voted buckets unrepaired");

    // Dense sweep.
    let mut fx = build(keys, hop, timeout, 0x54A9);
    fx.diverge(&dense_updates, &dense_deletes);
    fx.release();
    let dense_dirty = divergent_buckets(&fx.reps[0], &fx.reps[STALE_MEMBER]);
    let mut driver = fx.driver(None);
    let (dense_cost, dense_elapsed) = fx.measure("the dense sweep", || {
        driver.sweep();
    });

    let measured = [sparse_cost, vote_cost, dense_cost];
    println!(
        "{:<20} {:>8} {:>10} {:>12}",
        "pass", "msgs", "entries", "elapsed"
    );
    for (name, cost, elapsed) in [
        ("sparse sweep", sparse_cost, sparse_elapsed),
        ("vote pass", vote_cost, vote_elapsed),
        ("dense sweep", dense_cost, dense_elapsed),
        ("full-copy reference", copy_cost, copy_elapsed),
    ] {
        println!(
            "{name:<20} {:>8} {:>10} {:>10}us",
            cost.msgs,
            cost.entries,
            elapsed.as_micros()
        );
    }
    println!();
    println!(
        "dirty buckets: sparse {sparse_dirty}, dense {dense_dirty} of 256; \
         stale votes observed by reads: {stale_votes}; vote pass: {} votes -> {} buckets -> {} pulls",
        tick.votes, tick.buckets, tick.pulls
    );

    let per_pass = |field: fn(&Cost) -> u64| {
        format!(
            r#"{{"sparse_sweep": {}, "vote_pass": {}, "dense_sweep": {}}}"#,
            field(&sparse_cost),
            field(&vote_cost),
            field(&dense_cost)
        )
    };
    let doc = format!(
        concat!(
            "{{\n  \"bench\": \"repair\",\n  \"mode\": \"{}\",\n",
            "  \"members\": {}, \"read_quorum\": {}, \"write_quorum\": {}, \"keys\": {},\n",
            "  \"dirty_buckets\": {{\"sparse\": {}, \"dense\": {}}},\n",
            "  \"fabric_msgs_per_pass\": {},\n",
            "  \"entries_pulled_per_pass\": {},\n",
            "  \"elapsed_us\": {{\"sparse_sweep\": {}, \"vote_pass\": {}, \"dense_sweep\": {}}},\n",
            "  \"fullcopy\": {{\"msgs\": {}, \"entries\": {}, \"elapsed_us\": {}}}\n}}\n"
        ),
        if quick { "quick" } else { "full" },
        MEMBERS,
        READ_QUORUM,
        WRITE_QUORUM,
        keys,
        sparse_dirty,
        dense_dirty,
        per_pass(|c| c.msgs),
        per_pass(|c| c.entries),
        sparse_elapsed.as_micros(),
        vote_elapsed.as_micros(),
        dense_elapsed.as_micros(),
        copy_cost.msgs,
        copy_cost.entries,
        copy_elapsed.as_micros(),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_repair.json");
    match std::fs::write(&path, doc) {
        Ok(()) => println!("\nwrote {}", path.canonicalize().unwrap_or(path).display()),
        Err(e) => {
            eprintln!("failed to write BENCH_repair.json: {e}");
            std::process::exit(2);
        }
    }

    if check {
        let pinned = PINNED[usize::from(!quick)];
        if measured != pinned {
            eprintln!(
                "FAIL: sparse sweep / vote pass / dense sweep spent {measured:?}; pinned {pinned:?}"
            );
            std::process::exit(1);
        }
        println!("check passed: sparse sweep / vote pass / dense sweep = {pinned:?}");
    }
}
