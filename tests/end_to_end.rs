//! Whole-stack integration: the suite algorithm over transactional
//! representatives served across the simulated network, with latency,
//! partitions, crashes, and recovery — all layers at once.

use std::sync::Arc;
use std::time::Duration;

use repdir::core::suite::{DirSuite, FixedPolicy, RandomPolicy, SuiteConfig};
use repdir::core::{Key, NeighborReply, RepClient, RepId, SuiteError, Value, Version};
use repdir::net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient};
use repdir::replica::{serve_rep, RemoteSessionClient, ReplicatedDirectory, TransactionalRep};
use repdir::txn::TxnId;

struct Cluster {
    net: Arc<Network>,
    /// Kept alive so the serving threads' representatives outlive the test.
    #[allow(dead_code)]
    reps: Vec<Arc<TransactionalRep>>,
    rpc: Arc<RpcClient>,
    next_txn: u64,
}

impl Cluster {
    fn new(seed: u64) -> Self {
        let net = Arc::new(Network::new(seed));
        let mut reps = Vec::new();
        for i in 0..3u32 {
            let rep = TransactionalRep::new(RepId(i));
            serve_rep(Arc::clone(&net), NodeId(100 + i), Arc::clone(&rep));
            reps.push(rep);
        }
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(1)));
        Cluster {
            net,
            reps,
            rpc,
            next_txn: 1,
        }
    }

    fn txn_suite(&mut self) -> (TxnId, DirSuite<RemoteSessionClient>) {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let clients: Vec<RemoteSessionClient> = (0..3u32)
            .map(|i| {
                let mut c =
                    RemoteSessionClient::new(Arc::clone(&self.rpc), NodeId(100 + i), RepId(i), txn);
                c.set_timeout(Duration::from_millis(150));
                let _ = c.begin();
                c
            })
            .collect();
        let suite = DirSuite::new(
            clients,
            SuiteConfig::symmetric(3, 2, 2).unwrap(),
            Box::new(RandomPolicy::new(self.next_txn)),
        )
        .unwrap();
        (txn, suite)
    }

    fn commit(&self, suite: &DirSuite<RemoteSessionClient>) {
        for i in 0..3 {
            let _ = suite.member(i).commit();
        }
    }
}

#[test]
fn crud_over_the_network_with_latency() {
    let mut cluster = Cluster::new(1);
    cluster.net.set_fault_plan(FaultPlan {
        latency: LatencyModel {
            base: Duration::from_millis(1),
            jitter: Duration::from_millis(2),
        },
        ..FaultPlan::default()
    });
    let (_, mut suite) = cluster.txn_suite();
    suite.insert(&Key::from("k1"), &Value::from("v1")).unwrap();
    suite.insert(&Key::from("k2"), &Value::from("v2")).unwrap();
    suite.update(&Key::from("k1"), &Value::from("v1b")).unwrap();
    suite.delete(&Key::from("k2")).unwrap();
    let out = suite.lookup(&Key::from("k1")).unwrap();
    assert_eq!(out.value, Some(Value::from("v1b")));
    assert!(!suite.lookup(&Key::from("k2")).unwrap().present);
    cluster.commit(&suite);
}

#[test]
fn partitioned_minority_is_routed_around_and_catches_up_via_delete_copies() {
    let mut cluster = Cluster::new(2);
    {
        let (_, mut suite) = cluster.txn_suite();
        for key in ["a", "b", "c"] {
            suite.insert(&Key::from(key), &Value::from(key)).unwrap();
        }
        cluster.commit(&suite);
    }
    // Cut rep C (node 102) off from the client.
    cluster
        .net
        .partition(&[&[NodeId(1), NodeId(100), NodeId(101)], &[NodeId(102)]]);
    {
        let (_, mut suite) = cluster.txn_suite();
        suite.update(&Key::from("a"), &Value::from("a2")).unwrap();
        suite.delete(&Key::from("b")).unwrap();
        assert!(suite.lookup(&Key::from("a")).unwrap().present);
        cluster.commit(&suite);
    }
    cluster.net.heal();
    {
        let (_, mut suite) = cluster.txn_suite();
        // Force quorums that include the healed C: answers must be current.
        suite.set_policy(Box::new(FixedPolicy::with_order(vec![2, 0, 1])));
        let out = suite.lookup(&Key::from("a")).unwrap();
        assert_eq!(out.value, Some(Value::from("a2")));
        assert!(!suite.lookup(&Key::from("b")).unwrap().present);
        cluster.commit(&suite);
    }
}

#[test]
fn client_side_quorum_failure_reports_unavailable() {
    let mut cluster = Cluster::new(3);
    {
        let (_, mut suite) = cluster.txn_suite();
        suite.insert(&Key::from("x"), &Value::from("1")).unwrap();
        cluster.commit(&suite);
    }
    cluster
        .net
        .partition(&[&[NodeId(1), NodeId(100)], &[NodeId(101), NodeId(102)]]);
    let (_, mut suite) = cluster.txn_suite();
    let err = suite.lookup(&Key::from("x")).unwrap_err();
    assert!(
        matches!(err, SuiteError::QuorumUnavailable { .. }),
        "{err:?}"
    );
    cluster.net.heal();
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
    let mut cluster = Cluster::new(5);
    {
        let (_, mut suite) = cluster.txn_suite();
        suite.insert(&Key::from("safe"), &Value::from("1")).unwrap();
        cluster.commit(&suite);
    }
    // Heavy loss: operations may fail, but whatever succeeds must be right.
    cluster.net.set_fault_plan(FaultPlan {
        drop_prob: 0.35,
        ..FaultPlan::default()
    });
    let mut successes = 0;
    for _ in 0..20 {
        let (_, mut suite) = cluster.txn_suite();
        match suite.lookup(&Key::from("safe")) {
            Ok(out) => {
                assert!(out.present);
                assert_eq!(out.value, Some(Value::from("1")));
                successes += 1;
            }
            Err(SuiteError::Rep(_)) | Err(SuiteError::QuorumUnavailable { .. }) => {}
            Err(e) => panic!("unexpected error class: {e:?}"),
        }
        cluster.commit(&suite);
    }
    assert!(successes > 0, "some lookups should get through 35% loss");
}

#[test]
fn chain_request_with_a_hostile_limit_returns_the_whole_chain() {
    // The limit of a chain request is a `u32` straight off the wire. A
    // representative that reserved room for that many results aborted its
    // process on `SuccessorChain(LOW, u32::MAX)`; it must walk to the
    // sentinel and answer with what is there.
    let cluster = Cluster::new(0x11417);
    let client =
        RemoteSessionClient::new(Arc::clone(&cluster.rpc), NodeId(100), RepId(0), TxnId(1));
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
