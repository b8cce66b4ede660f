//! Representatives served across the simulated network: RPC with latency,
//! a partition that costs a quorum, and healing.
//!
//! ```text
//! cargo run --example networked_suite
//! ```

use std::sync::Arc;
use std::time::Duration;

use repdir::core::suite::SuiteConfig;
use repdir::core::{Key, RepId, Value};
use repdir::net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient};
use repdir::replica::{serve_rep, ReplicatedDirectory, TransactionalRep};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = Arc::new(Network::new(99));
    net.set_fault_plan(FaultPlan {
        latency: LatencyModel {
            base: Duration::from_millis(2),
            jitter: Duration::from_millis(3),
        },
        ..FaultPlan::default()
    });

    // Three representative servers on nodes 100..103.
    let nodes: Vec<NodeId> = (100..103).map(NodeId).collect();
    let servers: Vec<_> = nodes
        .iter()
        .zip(0..)
        .map(|(&node, i)| serve_rep(Arc::clone(&net), node, TransactionalRep::new(RepId(i))))
        .collect();
    println!("3 representatives serving over the simulated network (2-5 ms latency)");

    // One client node. Every operation is a transaction: `Begin` to every
    // member, the suite's quorum waves, then `Commit`. A member the client
    // cannot reach misses the transaction and is routed around.
    let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(1)));
    let timeout = Duration::from_millis(250);
    let dir =
        ReplicatedDirectory::networked(rpc, nodes, timeout, SuiteConfig::symmetric(3, 2, 2)?, 7)?;

    dir.run(|suite| {
        suite.insert(&Key::from("config/leader"), &Value::from("node-a"))?;
        suite.insert(&Key::from("config/epoch"), &Value::from("1"))
    })?;
    println!("wrote two keys through remote RPC");

    // Partition the client + two representatives away from the third:
    // quorums of 2 still form, traffic flows.
    net.partition(&[&[NodeId(1), NodeId(100), NodeId(101)], &[NodeId(102)]]);
    let leader = dir.run(|suite| {
        let out = suite.lookup(&Key::from("config/leader"))?;
        suite.update(&Key::from("config/epoch"), &Value::from("2"))?;
        Ok(out.value)
    })?;
    println!(
        "minority-partitioned rep C: lookup still answers {:?}",
        leader.map(|v| String::from_utf8_lossy(v.as_bytes()).into_owned())
    );
    println!("writes succeeded during the partition (C routed around)");

    // Now isolate the client with only ONE representative: no quorum.
    net.partition(&[&[NodeId(1), NodeId(100)], &[NodeId(101), NodeId(102)]]);
    let err = dir
        .lookup(&Key::from("config/leader"))
        .expect_err("one reachable representative cannot form a read quorum");
    println!("client + 1 rep partition: {err}");

    net.heal();
    let out = dir.lookup(&Key::from("config/epoch"))?;
    assert_eq!(out.value, Some(Value::from("2")));
    println!("healed: epoch reads back as 2 everywhere it matters");

    let stats = net.stats();
    println!(
        "network totals: {} sent, {} delivered, {} eaten by partitions",
        stats.sent, stats.delivered, stats.partitioned
    );
    for s in servers {
        s.stop();
    }
    Ok(())
}
