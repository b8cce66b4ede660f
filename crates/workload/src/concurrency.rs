//! Concurrency experiments: the paper's claim that per-range version
//! numbers "permit concurrent operations on different entries" (§1), where
//! a directory stored as a Gifford-replicated file serializes every
//! modification behind one version number (§2).
//!
//! Two measurements:
//!
//! * **Threaded throughput** of the full transactional stack
//!   ([`ReplicatedDirectory`]) with writers on *disjoint* key ranges versus
//!   all writers hammering *one* key — disjoint writers scale, hotspot
//!   writers serialize on range locks, the younger ones dying and retrying
//!   (wait-die).
//! * **Interleaved conflict counting** for the single-version file baseline:
//!   overlapped read-modify-write rounds conflict in proportion to the
//!   number of concurrent clients, even when the clients touch different
//!   keys.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use repdir_baselines::{BaselineError, FileSuite, StaticPartitionDirectory};
use repdir_core::rng::StdRng;
use repdir_core::UserKey;

use crate::keys::Zipf;
use repdir_core::suite::SuiteConfig;
use repdir_core::{Key, SuiteError, Value, Version};
use repdir_replica::ReplicatedDirectory;

/// Throughput measurement result.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Operations committed across all threads.
    pub ops: u64,
    /// Operations whose transaction gave up with a member error — in a run
    /// with every representative up, a lock conflict that outlasted every
    /// retry.
    pub exhausted: u64,
    /// Attempts that aborted (a retried conflict, or an exhausted
    /// operation's last attempt).
    pub aborts: u64,
    /// The most attempts one operation's transaction used.
    pub max_attempts: u32,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Lock acquisitions that had to wait, summed over representatives.
    pub lock_waits: u64,
    /// Deadlock victims, summed over representatives.
    pub deadlocks: u64,
    /// Lock-wait timeouts, summed over representatives.
    pub timeouts: u64,
}

impl ThroughputReport {
    /// Completed operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_secs_f64()
        }
    }

    /// Aborted attempts per committed operation.
    pub fn aborts_per_commit(&self) -> f64 {
        self.aborts as f64 / self.ops.max(1) as f64
    }
}

/// Runs `threads` writers against a 3-2-2 transactional directory.
///
/// With `disjoint = true`, thread `t` updates keys only in its own range
/// (the concurrency the gap-versioned algorithm grants); with `false`,
/// every thread updates the same single key (the serialized worst case —
/// equivalent to what a whole-directory version imposes on *all* keys).
///
/// Every operation is one [`ReplicatedDirectory::run`]; one that gives up
/// is counted in [`ThroughputReport::exhausted`], not in `ops`.
///
/// # Panics
///
/// Panics if a worker hits an error other than a member's
/// (`SuiteError::Rep`): all representatives stay up for the run.
pub fn repdir_throughput(
    threads: usize,
    ops_per_thread: u64,
    disjoint: bool,
    seed: u64,
) -> ThroughputReport {
    let dir = Arc::new(
        ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).expect("3-2-2"), seed)
            .expect("valid config"),
    );
    // Pre-create the keys so workers only update.
    if disjoint {
        for t in 0..threads {
            dir.insert(&worker_key(t, 0), &Value::from("0"))
                .expect("setup");
        }
    } else {
        dir.insert(&hot_key(), &Value::from("0")).expect("setup");
    }

    // Every worker waits at the barrier, so their operations overlap from
    // the first; the clock starts when the barrier releases them.
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for t in 0..threads {
        let dir = Arc::clone(&dir);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let key = if disjoint {
                worker_key(t, 0)
            } else {
                hot_key()
            };
            barrier.wait();
            // Per operation: attempts used, and whether it committed.
            let mut outcomes: Vec<(u32, bool)> = Vec::new();
            for i in 0..ops_per_thread {
                let value = Value::from(i.to_le_bytes().to_vec());
                let mut attempts = 0;
                let outcome = dir.run(|suite| {
                    attempts += 1;
                    suite.update(&key, &value).map(drop)
                });
                let committed = match outcome {
                    Ok(()) => true,
                    Err(SuiteError::Rep(_)) => false,
                    Err(e) => panic!("worker error: {e}"),
                };
                outcomes.push((attempts, committed));
            }
            outcomes
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let outcomes: Vec<(u32, bool)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("worker panicked"))
        .collect();
    let elapsed = start.elapsed();
    let ops = outcomes.iter().filter(|(_, committed)| *committed).count() as u64;

    let mut lock_waits = 0;
    let mut deadlocks = 0;
    let mut timeouts = 0;
    for rep in dir.reps() {
        let s = rep.lock_stats();
        lock_waits += s.waited;
        deadlocks += s.deadlocks;
        timeouts += s.timeouts;
    }
    ThroughputReport {
        ops,
        exhausted: outcomes.len() as u64 - ops,
        aborts: outcomes
            .iter()
            .map(|&(attempts, committed)| u64::from(attempts) - u64::from(committed))
            .sum(),
        max_attempts: outcomes
            .iter()
            .map(|&(attempts, _)| attempts)
            .max()
            .unwrap_or(0),
        elapsed,
        lock_waits,
        deadlocks,
        timeouts,
    }
}

fn worker_key(t: usize, i: u64) -> Key {
    Key::from(format!("range-{t:03}-key-{i:06}").as_str())
}

fn hot_key() -> Key {
    Key::from("the-one-hot-key")
}

/// Interleaved-conflict result for the single-version file baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConflictReport {
    /// Read-modify-write attempts.
    pub attempts: u64,
    /// Attempts that lost the optimistic version check and had to retry.
    pub conflicts: u64,
}

impl ConflictReport {
    /// Fraction of attempts that conflicted.
    pub fn conflict_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.attempts as f64
        }
    }
}

/// Simulates `clients` concurrent read-modify-write transactions per round
/// against one Gifford-replicated file: every client reads the current
/// version, then all write — only one write per round can win. Each client
/// is editing a *different* logical directory entry, yet they conflict,
/// because the whole directory shares one version number.
///
/// Returns the attempt/conflict counts over `rounds` rounds.
pub fn gifford_interleaved_conflicts(clients: usize, rounds: u64, seed: u64) -> ConflictReport {
    let mut suite = FileSuite::new(SuiteConfig::symmetric(3, 2, 2).expect("3-2-2"), seed);
    let mut report = ConflictReport::default();
    for round in 0..rounds {
        // Phase 1: every client reads the version it will base its write on.
        let bases: Vec<_> = (0..clients)
            .map(|_| suite.read().expect("all replicas up").0)
            .collect();
        // Phase 2: every client writes its own (disjoint) change.
        for (c, base) in bases.into_iter().enumerate() {
            report.attempts += 1;
            let payload = format!("round{round}-client{c}").into_bytes();
            match suite.write(base, payload) {
                Ok(_) => {}
                Err(BaselineError::Conflict) => report.conflicts += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
    }
    report
}

/// §2's static-partitioning concurrency warning, measured: `clients`
/// concurrent read-modify-write transactions per round pick keys from a
/// Zipf(θ) distribution over `key_space` keys. Static partitioning
/// serializes same-*partition* writers (optimistic conflicts, counted by
/// the real `StaticPartitionDirectory` version check); the gap-versioned
/// algorithm only serializes same-*key* writers (range locks), so its
/// conflict count is the number of same-key collisions.
///
/// Returns `(static_partition_conflicts, same_key_collisions)` over all
/// rounds.
pub fn skewed_contention(
    partitions: usize,
    key_space: u64,
    clients: usize,
    rounds: u64,
    theta: f64,
    seed: u64,
) -> (ConflictReport, ConflictReport) {
    assert!(partitions >= 1);
    // Partition boundaries split the u64-ranked key space evenly.
    let boundaries: Vec<UserKey> = (1..partitions as u64)
        .map(|i| UserKey::from_u64(i * key_space / partitions as u64))
        .collect();
    let mut dir = StaticPartitionDirectory::new(
        SuiteConfig::symmetric(3, 2, 2).expect("3-2-2"),
        boundaries,
        seed,
    );
    // Seed every key so RMWs always find their partition populated.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut zipf = Zipf::new(theta);

    let mut partition_report = ConflictReport::default();
    let mut key_report = ConflictReport::default();
    for _ in 0..rounds {
        // Each client picks a key by Zipf rank over the key space.
        let picks: Vec<u64> = (0..clients)
            .map(|_| zipf.sample(key_space as usize, &mut rng) as u64)
            .collect();
        // Phase 1: everyone reads its partition.
        let reads: Vec<(usize, Version, std::collections::BTreeMap<UserKey, Value>)> = picks
            .iter()
            .map(|&k| {
                let p = dir.partition_of(&UserKey::from_u64(k));
                let (version, map) = dir.read_partition(p).expect("all replicas up");
                (p, version, map)
            })
            .collect();
        // Phase 2: everyone writes back its own key.
        for (&k, (p, version, mut map)) in picks.iter().zip(reads) {
            partition_report.attempts += 1;
            map.insert(UserKey::from_u64(k), Value::from("w"));
            match dir.write_partition(p, version, map) {
                Ok(()) => {}
                Err(BaselineError::Conflict) => partition_report.conflicts += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        // Same-key collisions: what the gap-versioned algorithm's range
        // locks would serialize (everything else proceeds in parallel).
        key_report.attempts += clients as u64;
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                key_report.conflicts += 1;
            }
        }
    }
    (partition_report, key_report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gifford_conflicts_grow_with_client_count() {
        let two = gifford_interleaved_conflicts(2, 200, 1);
        let eight = gifford_interleaved_conflicts(8, 200, 2);
        // With k interleaved clients, k-1 of k writes per round conflict.
        assert_eq!(two.conflicts, 200);
        assert_eq!(eight.conflicts, 200 * 7);
        assert!((two.conflict_rate() - 0.5).abs() < 1e-12);
        assert!((eight.conflict_rate() - 0.875).abs() < 1e-12);
    }

    #[test]
    fn single_client_never_conflicts() {
        let one = gifford_interleaved_conflicts(1, 100, 3);
        assert_eq!(one.conflicts, 0);
        assert_eq!(one.conflict_rate(), 0.0);
    }

    #[test]
    fn skewed_contention_hurts_partitions_more_than_keys() {
        // Heavy skew, few partitions: partition conflicts abound while
        // same-key collisions stay far rarer.
        let (partition, key) = skewed_contention(4, 1000, 8, 100, 0.99, 1);
        assert_eq!(partition.attempts, 800);
        assert!(
            partition.conflict_rate() > key.conflict_rate() + 0.2,
            "partition {} vs key {}",
            partition.conflict_rate(),
            key.conflict_rate()
        );
        // Uniform access over a large key space: both are mild, partitions
        // still worse.
        let (pu, ku) = skewed_contention(4, 1000, 8, 100, 0.0, 2);
        assert!(pu.conflict_rate() >= ku.conflict_rate());
        assert!(ku.conflict_rate() < 0.1);
        // More skew means more partition conflicts.
        let (p_hot, _) = skewed_contention(4, 1000, 8, 100, 1.2, 3);
        assert!(p_hot.conflicts >= partition.conflicts * 9 / 10);
    }

    #[test]
    fn repdir_disjoint_writers_avoid_lock_waits() {
        let report = repdir_throughput(4, 25, true, 4);
        assert_eq!(report.ops, 100);
        assert_eq!(
            (report.exhausted, report.aborts, report.max_attempts),
            (0, 0, 1)
        );
        assert_eq!(report.deadlocks, 0);
        // Disjoint ranges: directory-level data locks never collide. (A
        // handful of waits can still occur on metadata-free paths; none
        // expected here.)
        assert_eq!(report.lock_waits, 0, "disjoint writers should not wait");
        assert!(report.ops_per_sec() > 0.0);
    }

    #[test]
    fn repdir_hotspot_writers_contend() {
        // Deterministic contention: one transaction holds the hot key's
        // range lock while another thread updates it. The second is the
        // younger, so it dies on the lock (wait-die) and retries until the
        // first commits; no attempt waits out a lock timeout.
        let dir = Arc::new(
            ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 5).unwrap(),
        );
        dir.insert(&hot_key(), &Value::from("0")).unwrap();
        let mut txn = dir.begin();
        txn.suite_mut()
            .update(&hot_key(), &Value::from("held"))
            .unwrap();
        let waiter = {
            let dir = Arc::clone(&dir);
            std::thread::spawn(move || dir.update(&hot_key(), &Value::from("late")))
        };
        std::thread::sleep(Duration::from_millis(80));
        txn.commit();
        waiter.join().unwrap().unwrap();
        let deadlocks: u64 = dir.reps().iter().map(|r| r.lock_stats().deadlocks).sum();
        let timeouts: u64 = dir.reps().iter().map(|r| r.lock_stats().timeouts).sum();
        assert!(
            deadlocks >= 1 && timeouts == 0,
            "the younger hotspot writer must die on the range lock, not wait it out \
             ({deadlocks} deadlocks, {timeouts} timeouts)"
        );
        assert_eq!(
            dir.lookup(&hot_key()).unwrap().value,
            Some(Value::from("late"))
        );
    }
}
