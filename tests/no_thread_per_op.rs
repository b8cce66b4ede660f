//! No thread per operation.
//!
//! The wave executor issues every member request of a wave from the calling
//! thread and waits on completions, and a transaction commits at its
//! representatives one after another — so neither a remote 3-2-2 cluster nor
//! an in-process `ReplicatedDirectory` creates a thread to run an operation.
//! The process's thread count (`/proc/self/task`) is read before and after a
//! mixed workload *and* sampled throughout it, because a thread that lives
//! for a hundred microseconds is gone again by the time the workload ends.
//!
//! One `#[test]` on purpose: the count is process-wide, and tests of one
//! file share a process.

use repdir::core::suite::{DirSuite, FixedPolicy, SuiteConfig};
use repdir::core::{Key, RepId, UserKey, Value};
use repdir::net::{Network, NodeId, RpcClient};
use repdir::replica::{serve_rep, RemoteSessionClient, ReplicatedDirectory, TransactionalRep};
use repdir::txn::TxnId;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

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
/// `scan`, `insert_many(64)` and `delete_many(64)`, through `ops`.
struct Ops<'a> {
    lookup: &'a mut dyn FnMut(&Key) -> bool,
    insert: &'a mut dyn FnMut(&Key),
    update: &'a mut dyn FnMut(&Key),
    delete: &'a mut dyn FnMut(&Key),
}

fn mixed(ops: Ops<'_>) {
    for i in 0..125u64 {
        (ops.insert)(&key(i));
        assert!((ops.lookup)(&key(i)));
        (ops.update)(&key(i));
        if i >= 8 {
            (ops.delete)(&key(i - 8));
        } else {
            assert!(!(ops.lookup)(&key(1000 + i)));
        }
    }
}

fn bulk_entries() -> Vec<(Key, Value)> {
    (5000..5064u64)
        .map(|i| (key(i), Value::from("v")))
        .collect()
}

#[test]
fn operations_create_no_threads() {
    if !std::path::Path::new("/proc/self/task").exists() {
        eprintln!("skipped: no procfs");
        return;
    }
    let v = Value::from("v");

    // Remote 3-2-2 cluster: three serving threads, the fabric's delivery
    // thread and the client's router exist before the count starts.
    let net = Arc::new(Network::new(0x7EAD));
    let _servers: Vec<_> = (0..3u32)
        .map(|i| {
            serve_rep(
                Arc::clone(&net),
                NodeId(100 + i),
                TransactionalRep::new(RepId(i)),
            )
        })
        .collect();
    let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
    let clients: Vec<RemoteSessionClient> = (0..3u32)
        .map(|i| RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), TxnId(1)))
        .collect();
    for client in &clients {
        client.begin().expect("healthy fabric");
    }
    let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
    let suite = std::cell::RefCell::new(
        DirSuite::new(clients, config.clone(), Box::new(FixedPolicy::new())).unwrap(),
    );
    // Warm up whatever starts lazily.
    suite.borrow_mut().lookup(&key(0)).unwrap();
    let (before, peak, after) = watch(|| {
        mixed(Ops {
            lookup: &mut |k| suite.borrow_mut().lookup(k).unwrap().present,
            insert: &mut |k| drop(suite.borrow_mut().insert(k, &v).unwrap()),
            update: &mut |k| drop(suite.borrow_mut().update(k, &v).unwrap()),
            delete: &mut |k| drop(suite.borrow_mut().delete(k).unwrap()),
        });
        let mut suite = suite.borrow_mut();
        assert_eq!(suite.scan().unwrap().len(), 8);
        let entries = bulk_entries();
        suite.insert_many(&entries).unwrap();
        let keys: Vec<Key> = entries.into_iter().map(|(k, _)| k).collect();
        suite.delete_many(&keys).unwrap();
    });
    assert_eq!(
        (peak, after),
        (before, before),
        "remote cluster, from {before}"
    );
    for i in 0..3 {
        suite.borrow().member(i).commit().unwrap();
    }

    // In-process directory: every operation is its own transaction,
    // committed at all three representatives.
    let dir = ReplicatedDirectory::new(config, 7).unwrap();
    dir.lookup(&key(0)).unwrap();
    let (before, peak, after) = watch(|| {
        mixed(Ops {
            lookup: &mut |k| dir.lookup(k).unwrap().present,
            insert: &mut |k| dir.insert(k, &v).unwrap(),
            update: &mut |k| dir.update(k, &v).unwrap(),
            delete: &mut |k| dir.delete(k).unwrap(),
        });
        assert_eq!(dir.scan().unwrap().len(), 8);
        let entries = bulk_entries();
        dir.insert_many(&entries).unwrap();
        let keys: Vec<Key> = entries.into_iter().map(|(k, _)| k).collect();
        dir.delete_many(&keys).unwrap();
    });
    assert_eq!(
        (peak, after),
        (before, before),
        "in-process directory, from {before}"
    );
}
