//! What the fabric benches share: latency samples, a suite of remote clients
//! over the simulated network, and the count of what a piece of work spent
//! there — rounds, member requests, pings, fabric messages. Counts repeat
//! exactly from run to run, so they are what the benches gate; wall-clock
//! over injected sleeps is reported beside them.

use std::sync::Arc;
use std::time::Duration;

use repdir_core::suite::{DirSuite, QuorumPolicy, SuiteConfig};
use repdir_core::{RepClient, RepId};
use repdir_net::{FaultPlan, LatencyModel, Network, NodeId, RpcClient, ServerHandle};
use repdir_replica::{serve_rep, RemoteSessionClient, TransactionalRep};
use repdir_txn::TxnId;

/// Sorted latency samples, in microseconds.
pub struct Samples {
    us: Vec<u64>,
}

impl Samples {
    /// Sorts `ds` into a sample set.
    pub fn from_durations(mut ds: Vec<Duration>) -> Self {
        ds.sort();
        Samples {
            us: ds.iter().map(|d| d.as_micros() as u64).collect(),
        }
    }

    /// The sample at quantile `p` (0 for an empty set).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.us.is_empty() {
            return 0;
        }
        let idx = ((self.us.len() - 1) as f64 * p).round() as usize;
        self.us[idx]
    }

    /// The median sample.
    pub fn median(&self) -> u64 {
        self.percentile(0.5)
    }

    /// The mean sample (0 for an empty set).
    pub fn mean(&self) -> u64 {
        if self.us.is_empty() {
            return 0;
        }
        self.us.iter().sum::<u64>() / self.us.len() as u64
    }

    /// `{"median_us": .., "mean_us": .., "p90_us": ..}`.
    pub fn json(&self) -> String {
        format!(
            r#"{{"median_us": {}, "mean_us": {}, "p90_us": {}}}"#,
            self.median(),
            self.mean(),
            self.percentile(0.9)
        )
    }
}

/// A lossless fabric on which every message hop costs `hop`.
pub fn lossless(seed: u64, hop: Duration) -> Arc<Network> {
    let net = Arc::new(Network::new(seed));
    net.set_fault_plan(FaultPlan {
        drop_prob: 0.0,
        duplicate_prob: 0.0,
        latency: LatencyModel::fixed(hop),
    });
    net
}

/// A suite of remote clients and everything that keeps it running: the
/// reply router and server threads live until the fixture drops.
pub struct Fixture<C: RepClient> {
    /// The suite under measurement.
    pub suite: DirSuite<C>,
    /// The fabric its members are served on.
    pub net: Arc<Network>,
    _handles: Vec<ServerHandle>,
}

/// What a piece of work spent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Spent {
    /// Waves opened (`suite.rounds`).
    pub rounds: u64,
    /// Data requests, summed over the members.
    pub requests: u64,
    /// Pings, summed over the members.
    pub pings: u64,
    /// Messages the fabric carried: a request and its reply each.
    pub fabric_msgs: u64,
}

impl Spent {
    /// `count` of these, each spending as much.
    pub fn times(self, count: u64) -> Spent {
        Spent {
            rounds: self.rounds * count,
            requests: self.requests * count,
            pings: self.pings * count,
            fabric_msgs: self.fabric_msgs * count,
        }
    }

    /// Fault-free work of `rounds` waves and `requests` data requests: no
    /// ping, and a request and its reply on the fabric for each.
    pub fn fault_free(rounds: u64, requests: u64) -> Spent {
        Spent {
            rounds,
            requests,
            pings: 0,
            fabric_msgs: 2 * requests,
        }
    }
}

impl std::ops::AddAssign for Spent {
    fn add_assign(&mut self, other: Spent) {
        self.rounds += other.rounds;
        self.requests += other.requests;
        self.pings += other.pings;
        self.fabric_msgs += other.fabric_msgs;
    }
}

impl<C: RepClient> Fixture<C> {
    /// `members` fresh transactional representatives served on `net`, and a
    /// suite (`members`-`r`-`w`, quorums by `policy`) of one transaction's
    /// clients for them, each begun, given `timeout` per call and wrapped by
    /// `wrap`.
    pub fn new(
        net: Arc<Network>,
        (members, r, w): (u32, u32, u32),
        timeout: Duration,
        policy: Box<dyn QuorumPolicy + Send>,
        wrap: impl Fn(RemoteSessionClient) -> C,
    ) -> Self {
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        let mut handles = Vec::new();
        let mut clients = Vec::new();
        for i in 0..members {
            let rep = TransactionalRep::new(RepId(i));
            handles.push(serve_rep(Arc::clone(&net), NodeId(100 + i), rep));
            let mut client =
                RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), TxnId(1));
            client.set_timeout(timeout);
            client
                .begin()
                .expect("begin never fails on a healthy fabric");
            clients.push(wrap(client));
        }
        let config = SuiteConfig::symmetric(members, r, w).expect("a legal configuration");
        let suite = DirSuite::new(clients, config, policy).expect("client count matches config");
        Fixture {
            suite,
            net,
            _handles: handles,
        }
    }

    /// Runs `work` and counts what it spent. Resets the suite's message
    /// counters first.
    pub fn spent<R>(&mut self, work: impl FnOnce(&mut DirSuite<C>) -> R) -> (R, Spent) {
        let rounds = self.suite.obs().counter("suite.rounds");
        let (rounds_before, sent_before) = (rounds.get(), self.net.stats().sent);
        self.suite.reset_message_counts();
        let out = work(&mut self.suite);
        let spent = Spent {
            rounds: rounds.get() - rounds_before,
            requests: self.suite.message_counts().iter().sum(),
            pings: self.suite.ping_counts().iter().sum(),
            fabric_msgs: self.net.stats().sent - sent_before,
        };
        (out, spent)
    }
}
