//! Cross-member deadlocks among representatives that share nothing — the
//! situation of networked members. Each representative's lock table decides
//! a conflict from its own holders' ages (wait-die): the younger of two
//! transactions locking two members in opposite orders is refused at once
//! with `Deadlock`, where a per-table waits-for graph sees no cycle and
//! both sides wait out the 500 ms lock timeout.

mod support;

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use repdir::core::{Key, RepClient, RepError, RepId, Value, Version};
use repdir::net::{Network, NodeId, RpcClient};
use repdir::replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir::txn::{TxnId, TxnManager};
use support::Served;

/// Well inside `TransactionalRep::DEFAULT_LOCK_TIMEOUT` (500 ms).
const PROMPT: Duration = Duration::from_millis(100);

/// Two threads, two representatives with no shared state. In every cycle
/// an older and a younger transaction each lock a fresh key at their own
/// first member, meet at a barrier, then ask for the key at the other
/// member. Every cycle ends with the younger refused with `Deadlock` within
/// `PROMPT` and the older committing, with no lock timeout anywhere.
#[test]
fn opposite_order_lockers_on_unshared_members_end_every_cycle_in_deadlock() {
    const CYCLES: u64 = 20;
    let reps = [
        TransactionalRep::new(RepId(0)),
        TransactionalRep::new(RepId(1)),
    ];
    let txns = TxnManager::new();
    for cycle in 0..CYCLES {
        let key = Key::from(format!("k{cycle:03}").as_str());
        let met = Barrier::new(2);
        // Locks `key` at member `first`, then at the other member; returns
        // how the second request went and how long it took.
        let locker = |id: TxnId, first: usize| {
            let insert = |rep: &TransactionalRep| {
                rep.insert(id, &key, Version::new(1), &Value::from("v"))
                    .map(drop)
            };
            for rep in &reps {
                rep.begin(id).unwrap();
            }
            insert(&reps[first]).unwrap();
            met.wait();
            let start = Instant::now();
            let outcome = insert(&reps[1 - first]);
            let took = start.elapsed();
            for rep in &reps {
                match outcome {
                    Ok(()) => rep.commit(id).unwrap(),
                    Err(_) => rep.abort(id),
                }
            }
            (outcome, took)
        };
        let (older, younger) = (txns.begin(), txns.begin());
        let (old, young) = std::thread::scope(|scope| {
            let old = scope.spawn(|| locker(older, 0));
            let young = locker(younger, 1);
            (old.join().unwrap(), young)
        });
        assert_eq!(old.0, Ok(()), "cycle {cycle}: the older waits and wins");
        assert_eq!(young.0, Err(RepError::Deadlock), "cycle {cycle}");
        assert!(
            young.1 < PROMPT,
            "cycle {cycle}: refused after {:?}",
            young.1
        );
    }
    let stats = reps.iter().map(|rep| rep.lock_stats());
    let (deadlocks, timeouts) = stats.fold((0, 0), |(d, t), s| (d + s.deadlocks, t + s.timeouts));
    assert_eq!((deadlocks, timeouts), (CYCLES, 0));
    assert!(reps.iter().all(|rep| rep.lock_holders().is_empty()));
}

/// The same cycle between two members behind `serve_rep`, each driven by
/// its own RPC client node: the younger transaction's request is refused
/// with `Deadlock` in well under the lock timeout.
///
/// The older transaction's completion is deliberately not pinned. Its
/// request waits in the second member's lock table, and that wait blocks
/// the member's one serving thread, so the younger's `Abort` queues behind
/// it and the older's request times out before the abort is served. Only a
/// server that never blocks on a lock (parking a request as a continuation
/// on the table) lets the older one win here.
#[test]
fn networked_younger_locker_is_refused_promptly() {
    let net = Arc::new(Network::new(38));
    let servers = [NodeId(300), NodeId(301)];
    let mut handles = Vec::new();
    for (i, node) in servers.iter().enumerate() {
        let rep = TransactionalRep::new(RepId(i as u32));
        handles.push(serve_rep(Arc::clone(&net), *node, rep));
    }
    let txns = TxnManager::new();
    let (older, younger) = (txns.begin(), txns.begin());
    let clients = |node: u32, txn: TxnId| {
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(node)));
        let at =
            |i: usize| RemoteSessionClient::new(Arc::clone(&rpc), servers[i], RepId(i as u32), txn);
        let members = [at(0), at(1)];
        for member in &members {
            member.begin().unwrap();
        }
        members
    };
    let (old, young) = (clients(10, older), clients(11, younger));
    let key = Key::from("k");
    let insert = |member: &RemoteSessionClient| {
        member
            .insert(&key, Version::new(1), &Value::from("v"))
            .map(drop)
    };
    insert(&old[0]).unwrap();
    insert(&young[1]).unwrap();

    std::thread::scope(|scope| {
        // The older transaction asks member 1 for the younger's key, and
        // waits there.
        let waiting = scope.spawn(|| insert(&old[1]));
        std::thread::sleep(Duration::from_millis(20));
        // The younger asks member 0 for the older's key: refused at once.
        let start = Instant::now();
        assert_eq!(insert(&young[0]), Err(RepError::Deadlock));
        assert!(
            start.elapsed() < PROMPT,
            "refused after {:?}",
            start.elapsed()
        );
        for member in &young {
            member.abort();
        }
        let _ = waiting.join().unwrap();
    });
    for member in &old {
        member.abort();
    }
    for handle in &handles {
        handle.stop();
    }
}

/// A younger `dir.insert` over networked members meets the key an open,
/// older `DirTxn` is deleting: every attempt dies at once (no member's
/// serving thread waits on a lock), `run` retries under the same age, and
/// the insert commits once the older transaction has committed.
#[test]
fn networked_younger_insert_dies_and_commits_after_the_older() {
    let net = Arc::new(Network::new(42));
    let cluster = Served::new(&net, NodeId(1), Duration::from_secs(2), 42);
    let (dir, reps) = (&cluster.dir, &cluster.reps);
    let key = Key::from("k");
    dir.insert(&key, &Value::from("old")).unwrap();
    let deadlocks = || {
        reps.iter()
            .map(|rep| rep.lock_stats().deadlocks)
            .sum::<u64>()
    };

    let mut older = dir.begin();
    older.suite_mut().delete(&key).unwrap();
    let attempts = std::thread::scope(|scope| {
        let younger = scope.spawn(|| {
            let mut attempts = 0;
            dir.run(|suite| {
                attempts += 1;
                suite.insert(&key, &Value::from("young"))
            })
            .map(|_| attempts)
        });
        let start = Instant::now();
        while deadlocks() == 0 {
            assert!(start.elapsed() < PROMPT, "the younger never died");
            std::thread::yield_now();
        }
        older.commit();
        younger.join().unwrap()
    });

    let attempts = attempts.expect("the younger commits once the older has");
    assert!(attempts > 1, "{attempts} attempts");
    let timeouts: u64 = reps.iter().map(|rep| rep.lock_stats().timeouts).sum();
    assert_eq!(timeouts, 0, "a younger transaction never waits");
    assert_eq!(dir.lookup(&key).unwrap().value, Some(Value::from("young")));
    for rep in reps {
        assert_eq!(rep.lock_holders(), vec![], "{:?} holds locks", rep.id());
    }
}
