//! No thread per operation.
//!
//! The wave executor issues every member request of a wave from the calling
//! thread and waits on completions, and a transaction begins and commits at
//! its members from that thread too — one after another in process, one
//! scatter round over the network — so a `ReplicatedDirectory` creates no
//! thread to run an operation, over remote members or in-process ones.
//! The process's thread count (`/proc/self/task`) is read before and after a
//! mixed workload *and* sampled throughout it, because a thread that lives
//! for a hundred microseconds is gone again by the time the workload ends.
//!
//! One `#[test]` on purpose: the count is process-wide, and tests of one
//! file share a process.

mod support;

use repdir::core::suite::SuiteConfig;
use repdir::core::{Key, UserKey, Value};
use repdir::net::{Network, NodeId};
use repdir::replica::{Members, ReplicatedDirectory};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use support::Served;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

fn key(i: u64) -> Key {
    Key::User(UserKey::from_u64(i))
}

/// Runs `workload` while a sampler thread polls the thread count; returns
/// the count before, the largest count seen meanwhile, and the count after.
/// The sampler itself is part of all three.
fn watch(workload: impl FnOnce()) -> (usize, usize, usize) {
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                peak.fetch_max(threads(), Ordering::SeqCst);
            }
        });
        // The sampler has taken its first reading once `peak` is set.
        while peak.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let before = threads();
        workload();
        let after = threads();
        stop.store(true, Ordering::SeqCst);
        sampler.join().expect("sampler");
        (before, peak.load(Ordering::SeqCst), after)
    })
}

/// 500 mixed point operations over a rolling window of keys, then one
/// `scan`, `insert_many(64)` and `delete_many(64)`, each operation a
/// transaction of its own.
fn mixed<M: Members>(dir: &ReplicatedDirectory<M>) {
    let v = Value::from("v");
    for i in 0..125u64 {
        dir.insert(&key(i), &v).unwrap();
        assert!(dir.lookup(&key(i)).unwrap().present);
        dir.update(&key(i), &v).unwrap();
        if i >= 8 {
            dir.delete(&key(i - 8)).unwrap();
        } else {
            assert!(!dir.lookup(&key(1000 + i)).unwrap().present);
        }
    }
    assert_eq!(dir.scan().unwrap().len(), 8);
    let entries: Vec<(Key, Value)> = (5000..5064u64).map(|i| (key(i), v.clone())).collect();
    dir.insert_many(&entries).unwrap();
    let keys: Vec<Key> = entries.into_iter().map(|(k, _)| k).collect();
    dir.delete_many(&keys).unwrap();
}

#[test]
fn operations_create_no_threads() {
    if !std::path::Path::new("/proc/self/task").exists() {
        eprintln!("skipped: no procfs");
        return;
    }
    // Remote 3-2-2 cluster: three serving threads, the fabric's delivery
    // thread and the client's router exist before the count starts.
    let net = Arc::new(Network::new(0x7EAD));
    let cluster = Served::new(&net, NodeId(0), Duration::from_secs(2), 7);
    // Warm up whatever starts lazily.
    cluster.dir.lookup(&key(0)).unwrap();
    let (before, peak, after) = watch(|| mixed(&cluster.dir));
    assert_eq!(
        (peak, after),
        (before, before),
        "remote cluster, from {before}"
    );

    // In-process directory, committed at all three representatives.
    let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
    let dir = ReplicatedDirectory::new(config, 7).unwrap();
    dir.lookup(&key(0)).unwrap();
    let (before, peak, after) = watch(|| mixed(&dir));
    assert_eq!(
        (peak, after),
        (before, before),
        "in-process directory, from {before}"
    );
}
