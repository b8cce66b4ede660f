//! Straggler accounting.
//!
//! A ping wave that reaches its vote threshold stops listening, but the
//! pings it leaves behind still finish — with a late reply, or with the
//! failure their deadline produces — and that outcome must still reach the
//! member's availability window, which sizes the next pinged wave: at the
//! next quorum collection, while a later wave waits, or when the suite is
//! dropped. And because slot tags are never reused, a completion that
//! surfaces during a later wave is accounted to its member and otherwise
//! ignored — it can never be taken for one of that wave's replies.

mod support;

use repdir::core::suite::{DirSuite, SuiteConfig};
use repdir::core::{Key, RepId, UserKey, Value};
use repdir::net::{LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir::obs::Avail;
use repdir::replica::RemoteSessionClient;
use repdir::txn::TxnId;
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::{fixed, serve_reps};

fn key(i: u64) -> Key {
    Key::User(UserKey::from_u64(i))
}

struct Fixture {
    suite: DirSuite<RemoteSessionClient>,
    net: Arc<Network>,
    _servers: Vec<ServerHandle>,
}

/// A 3-2-2 suite over the fabric with eight keys loaded through members 0
/// and 1; member RPCs give up after `timeout`.
fn cluster(seed: u64, timeout: Duration) -> Fixture {
    let net = Arc::new(Network::new(seed));
    let (_, servers) = serve_reps(&net, 3);
    let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
    let clients: Vec<RemoteSessionClient> = (0..3u32)
        .map(|i| {
            let mut c =
                RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), TxnId(1));
            c.set_timeout(timeout);
            c.begin().expect("healthy fabric");
            c
        })
        .collect();
    let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
    let mut suite = DirSuite::new(clients, config, fixed(&[0, 1, 2])).unwrap();
    for i in 0..8 {
        suite.insert(&key(i), &Value::from(vec![i as u8])).unwrap();
    }
    Fixture {
        suite,
        net,
        _servers: servers,
    }
}

/// Successful outcomes in `avail`'s window.
fn successes(avail: &Avail) -> u64 {
    (avail.rate().unwrap_or(0.0) * avail.samples() as f64).round() as u64
}

/// A lookup whose quorum collection prefers member 2, which has a recorded
/// miss: the collection pings first, over-provisioned to {2, 0, 1}, stops
/// at the pongs of {0, 1} with the ping to member 2 still in flight, and
/// sends the lookup to {0, 1}.
fn lookup_leaving_member_2_behind(suite: &mut DirSuite<RemoteSessionClient>) {
    suite.set_policy(fixed(&[2, 0, 1]));
    let out = suite.lookup(&key(3)).unwrap();
    assert_eq!(out.value, Some(Value::from(vec![3])));
    assert_eq!(out.quorum, vec![RepId(0), RepId(1)]);
    suite.set_policy(fixed(&[0, 1, 2]));
}

#[test]
fn late_reply_still_feeds_ewma_and_availability() {
    let mut fx = cluster(0x57A6, Duration::from_secs(2));
    let avail = fx.suite.member_avails()[2].clone();
    avail.reset();
    avail.record(false);
    let slow = LatencyModel::fixed(Duration::from_millis(50));
    fx.net.set_node_latency(NodeId(102), slow);

    // Harvested at the next quorum collection.
    lookup_leaving_member_2_behind(&mut fx.suite);
    assert_eq!(avail.samples(), 1, "the pong cannot have landed yet");
    std::thread::sleep(Duration::from_millis(120));
    assert!(fx.suite.lookup(&key(4)).unwrap().present);
    assert_eq!((avail.samples(), successes(&avail)), (2, 1));
    assert_eq!(fx.suite.ping_counts(), vec![1, 1, 1]);
    assert_eq!(fx.suite.message_counts()[2], 0, "member 2 was only pinged");

    // Harvested when the suite is dropped.
    lookup_leaving_member_2_behind(&mut fx.suite);
    std::thread::sleep(Duration::from_millis(120));
    assert_eq!((avail.samples(), successes(&avail)), (2, 1));
    assert_eq!(fx.suite.ping_counts()[2], 2);
    drop(fx.suite);
    assert_eq!((avail.samples(), successes(&avail)), (3, 2));
}

#[test]
fn silent_member_scores_a_miss_and_its_completion_stays_in_its_wave() {
    let mut fx = cluster(0x51E7, Duration::from_millis(60));
    let avail = fx.suite.member_avails()[2].clone();
    avail.reset();
    avail.record(false);
    // Member 2 goes silent: nothing sent to it is ever answered.
    fx.net.set_node_drop(NodeId(102), 1.0);

    lookup_leaving_member_2_behind(&mut fx.suite);
    assert_eq!(avail.samples(), 1, "the deadline has not passed yet");
    // The ping's deadline passes while later waves are in flight: its
    // failure surfaces inside one of them, is accounted to member 2, and is
    // never mistaken for a reply of that wave — every lookup still gets the
    // value of the key it asked for, from the quorum it collected.
    let until = Instant::now() + Duration::from_millis(200);
    let mut i = 0;
    while Instant::now() < until {
        let out = fx.suite.lookup(&key(i % 8)).unwrap();
        assert_eq!(out.value, Some(Value::from(vec![(i % 8) as u8])));
        assert_eq!(out.quorum, vec![RepId(0), RepId(1)]);
        i += 1;
    }
    assert_eq!(
        (avail.samples(), successes(&avail)),
        (2, 0),
        "scored once, at its deadline"
    );
    // Pinged once, by the wave it straggled in, and never sent data. Its
    // window is dirty, but the preferred prefix {0, 1} is clean, so later
    // lookups never named it.
    assert_eq!(fx.suite.ping_counts()[2], 1);
    assert_eq!(fx.suite.message_counts()[2], 0);
}
