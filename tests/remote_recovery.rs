//! Crash recovery while serving over the network: a representative's
//! process dies (losing locks and unsynced log tail), recovers from its
//! durable log, and resumes serving the same node — clients only observe a
//! blip.

mod support;

use std::sync::Arc;
use std::time::Duration;

use repdir::core::{Key, Value};
use repdir::net::{Network, NodeId};
use support::{fixed, Served};

#[test]
fn representative_crash_recovery_behind_a_live_server() {
    let net = Arc::new(Network::new(recover_seed()));
    let cluster = Served::new(&net, NodeId(9), Duration::from_millis(200), 1);
    let (dir, reps) = (&cluster.dir, &cluster.reps);

    // Commit data through reps {A, B}.
    {
        let mut txn = dir.begin_with_policy(fixed(&[0, 1, 2]));
        let suite = txn.suite_mut();
        suite.insert(&Key::from("k1"), &Value::from("v1")).unwrap();
        suite.insert(&Key::from("k2"), &Value::from("v2")).unwrap();
        txn.commit();
    }

    // Rep A's process "dies" and recovers from its WAL, while the server
    // thread keeps serving the same node id.
    reps[0].crash_and_recover().unwrap();

    // A fresh transaction reading through A sees the committed data.
    {
        let mut txn = dir.begin_with_policy(fixed(&[0, 1, 2]));
        let suite = txn.suite_mut();
        let out = suite.lookup(&Key::from("k1")).unwrap();
        assert!(out.present);
        assert_eq!(out.value, Some(Value::from("v1")));
        // Writes keep working through the recovered representative.
        suite.update(&Key::from("k2"), &Value::from("v2b")).unwrap();
        suite.delete(&Key::from("k1")).unwrap();
        txn.commit();
    }

    // Crash everything; the directory's committed state survives in full.
    for rep in reps {
        rep.crash_and_recover().unwrap();
    }
    {
        let mut txn = dir.begin_with_policy(fixed(&[0, 1, 2]));
        let suite = txn.suite_mut();
        assert!(!suite.lookup(&Key::from("k1")).unwrap().present);
        assert_eq!(
            suite.lookup(&Key::from("k2")).unwrap().value,
            Some(Value::from("v2b"))
        );
        txn.commit();
    }
}

fn recover_seed() -> u64 {
    0x5EED
}
