//! Whole-stack integration: the suite algorithm over transactional
//! representatives served across the simulated network, with latency,
//! partitions, crashes, and recovery — all layers at once.

mod support;

use std::sync::Arc;
use std::time::Duration;

use repdir::core::suite::{FixedPolicy, SuiteConfig};
use repdir::core::{Key, NeighborReply, RepClient, RepId, SuiteError, Value, Version};
use repdir::net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient};
use repdir::replica::{RemoteSessionClient, ReplicatedDirectory};
use repdir::txn::TxnId;
use support::Served;

/// Three served representatives on a fabric seeded `seed`, and a directory
/// reaching them from node 1 whose member calls give up after 150 ms.
fn cluster(seed: u64) -> (Arc<Network>, Served) {
    let net = Arc::new(Network::new(seed));
    let served = Served::new(&net, NodeId(1), Duration::from_millis(150), seed);
    (net, served)
}

#[test]
fn crud_over_the_network_with_latency() {
    let (net, cluster) = cluster(1);
    net.set_fault_plan(FaultPlan {
        latency: LatencyModel {
            base: Duration::from_millis(1),
            jitter: Duration::from_millis(2),
        },
        ..FaultPlan::default()
    });
    let mut txn = cluster.dir.begin();
    let suite = txn.suite_mut();
    suite.insert(&Key::from("k1"), &Value::from("v1")).unwrap();
    suite.insert(&Key::from("k2"), &Value::from("v2")).unwrap();
    suite.update(&Key::from("k1"), &Value::from("v1b")).unwrap();
    suite.delete(&Key::from("k2")).unwrap();
    let out = suite.lookup(&Key::from("k1")).unwrap();
    assert_eq!(out.value, Some(Value::from("v1b")));
    assert!(!suite.lookup(&Key::from("k2")).unwrap().present);
    txn.commit();
}

#[test]
fn partitioned_minority_is_routed_around_and_catches_up_via_delete_copies() {
    let (net, cluster) = cluster(2);
    {
        let mut txn = cluster.dir.begin();
        let suite = txn.suite_mut();
        for key in ["a", "b", "c"] {
            suite.insert(&Key::from(key), &Value::from(key)).unwrap();
        }
        txn.commit();
    }
    // Cut rep C (node 102) off from the client.
    net.partition(&[&[NodeId(1), NodeId(100), NodeId(101)], &[NodeId(102)]]);
    {
        let mut txn = cluster.dir.begin();
        let suite = txn.suite_mut();
        suite.update(&Key::from("a"), &Value::from("a2")).unwrap();
        suite.delete(&Key::from("b")).unwrap();
        assert!(suite.lookup(&Key::from("a")).unwrap().present);
        txn.commit();
    }
    net.heal();
    {
        // Force quorums that include the healed C: answers must be current.
        let order = FixedPolicy::with_order(vec![2, 0, 1]);
        let mut txn = cluster.dir.begin_with_policy(Box::new(order));
        let suite = txn.suite_mut();
        let out = suite.lookup(&Key::from("a")).unwrap();
        assert_eq!(out.value, Some(Value::from("a2")));
        assert!(!suite.lookup(&Key::from("b")).unwrap().present);
        txn.commit();
    }
}

#[test]
fn client_side_quorum_failure_reports_unavailable() {
    let (net, cluster) = cluster(3);
    cluster
        .dir
        .insert(&Key::from("x"), &Value::from("1"))
        .unwrap();
    net.partition(&[&[NodeId(1), NodeId(100)], &[NodeId(101), NodeId(102)]]);
    let err = cluster.dir.lookup(&Key::from("x")).unwrap_err();
    assert!(
        matches!(err, SuiteError::QuorumUnavailable { .. }),
        "{err:?}"
    );
    net.heal();
}

#[test]
fn in_process_stack_survives_rolling_crashes_mid_workload() {
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 4).unwrap();
    let mut expected = std::collections::BTreeMap::new();
    for round in 0..6u32 {
        // A few writes...
        for i in 0..10u32 {
            let key = Key::from(format!("r{round}-{i}").as_str());
            let value = Value::from(format!("v{round}-{i}").as_str());
            dir.insert(&key, &value).unwrap();
            expected.insert(key, value);
        }
        // ...then crash one representative (round-robin) and recover it.
        let victim = (round as usize) % 3;
        dir.reps()[victim].crash_and_recover().unwrap();
        // The whole keyspace must still read correctly.
        for (key, value) in &expected {
            let out = dir.lookup(key).unwrap();
            assert!(out.present, "{key:?} lost after crash of rep {victim}");
            assert_eq!(out.value.as_ref(), Some(value));
        }
    }
    assert_eq!(expected.len(), 60);
}

#[test]
fn dropped_messages_surface_as_unavailability_not_corruption() {
    let (net, cluster) = cluster(5);
    cluster
        .dir
        .insert(&Key::from("safe"), &Value::from("1"))
        .unwrap();
    // Heavy loss: operations may fail, but whatever succeeds must be right.
    net.set_fault_plan(FaultPlan {
        drop_prob: 0.35,
        ..FaultPlan::default()
    });
    let mut successes = 0;
    for _ in 0..20 {
        let mut txn = cluster.dir.begin();
        match txn.suite_mut().lookup(&Key::from("safe")) {
            Ok(out) => {
                assert!(out.present);
                assert_eq!(out.value, Some(Value::from("1")));
                successes += 1;
            }
            Err(SuiteError::Rep(_)) | Err(SuiteError::QuorumUnavailable { .. }) => {}
            Err(e) => panic!("unexpected error class: {e:?}"),
        }
        txn.commit();
    }
    assert!(successes > 0, "some lookups should get through 35% loss");
}

#[test]
fn chain_request_with_a_hostile_limit_returns_the_whole_chain() {
    // The limit of a chain request is a `u32` straight off the wire. A
    // representative that reserved room for that many results aborted its
    // process on `SuccessorChain(LOW, u32::MAX)`; it must walk to the
    // sentinel and answer with what is there.
    let (net, _cluster) = cluster(0x11417);
    let rpc = Arc::new(RpcClient::new(net, NodeId(2)));
    let client = RemoteSessionClient::new(rpc, NodeId(100), RepId(0), TxnId(1));
    client.begin().unwrap();
    let keys: Vec<Key> = ["a", "b", "c"].into_iter().map(Key::from).collect();
    for key in &keys {
        client
            .insert(key, Version::new(1), &Value::from("v"))
            .unwrap();
    }
    let keys_of = |chain: Vec<NeighborReply>| chain.into_iter().map(|n| n.key).collect::<Vec<_>>();
    let limit = u32::MAX as usize;
    let up = keys_of(client.successor_chain(&Key::Low, limit).unwrap());
    assert_eq!(up, [keys.clone(), vec![Key::High]].concat());
    let mut down = keys_of(client.predecessor_chain(&Key::High, limit).unwrap());
    down.reverse();
    assert_eq!(down, [vec![Key::Low], keys].concat());
    client.commit().unwrap();
}
