//! Anti-entropy adapters: plugging a [`TransactionalRep`] into the
//! `repdir-repair` [`RepairPeer`] / [`RepairTarget`] traits, in-process and
//! across the simulated network.
//!
//! A typical deployment gives each representative a
//! [`Repairer`](repdir_repair::Repairer) whose target is its own
//! [`RepTarget`] and whose peers are [`RemoteRepairPeer`]s for the other
//! members (or [`LocalRepairPeer`]s in single-process tests).

use std::sync::Arc;
use std::time::Duration;

use repdir_core::{Key, RepError};
use repdir_net::{NodeId, RpcClient};
use repdir_repair::{
    ApplyStats, BucketView, Digest, RepairError, RepairPeer, RepairPlan, RepairTarget,
    MAX_PULL_ENTRIES,
};

use crate::codec::{decode_response, encode_request, Request, Response};
use crate::server::TransactionalRep;

fn map_rep_error(e: RepError) -> RepairError {
    match e {
        RepError::Unavailable => RepairError::Unavailable,
        RepError::LockTimeout | RepError::Deadlock => RepairError::Contended,
        other => RepairError::Protocol(other.to_string()),
    }
}

/// A repair peer reached over the simulated network via the wire codec
/// ([`Request::Summary`] / [`Request::PullRange`]).
#[derive(Debug)]
pub struct RemoteRepairPeer {
    rpc: Arc<RpcClient>,
    server: NodeId,
    timeout: Duration,
}

impl RemoteRepairPeer {
    /// Default per-call deadline.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);

    /// A peer served at `server`, called through `rpc`.
    pub fn new(rpc: Arc<RpcClient>, server: NodeId) -> Self {
        RemoteRepairPeer {
            rpc,
            server,
            timeout: Self::DEFAULT_TIMEOUT,
        }
    }

    /// Overrides the per-call deadline.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    fn call(&self, req: Request) -> Result<Response, RepairError> {
        let reply = self
            .rpc
            .call(self.server, encode_request(&req), self.timeout)
            // An unreachable peer looks exactly like an unavailable one.
            .map_err(|_| RepairError::Unavailable)?;
        let resp = decode_response(&reply).map_err(|e| RepairError::Protocol(e.to_string()))?;
        match resp {
            Response::Err(e) => Err(map_rep_error(e)),
            ok => Ok(ok),
        }
    }
}

impl RepairPeer for RemoteRepairPeer {
    fn summary(&self, level: u8, path: u8) -> Result<Vec<Digest>, RepairError> {
        match self.call(Request::Summary { level, path })? {
            Response::Summary(digests) => Ok(digests),
            other => Err(RepairError::Protocol(format!(
                "unexpected reply to Summary: {other:?}"
            ))),
        }
    }

    fn pull_range(&self, after: &Key, before: &Key) -> Result<BucketView, RepairError> {
        let req = Request::PullRange {
            after: after.clone(),
            before: before.clone(),
        };
        match self.call(req)? {
            Response::PullRange(view) => Ok(view),
            other => Err(RepairError::Protocol(format!(
                "unexpected reply to PullRange: {other:?}"
            ))),
        }
    }
}

/// An in-process repair peer (no network) — handy in tests and
/// single-process simulations.
#[derive(Debug)]
pub struct LocalRepairPeer {
    rep: Arc<TransactionalRep>,
}

impl LocalRepairPeer {
    /// Wraps a representative as a peer.
    pub fn new(rep: Arc<TransactionalRep>) -> Self {
        LocalRepairPeer { rep }
    }
}

impl RepairPeer for LocalRepairPeer {
    fn summary(&self, level: u8, path: u8) -> Result<Vec<Digest>, RepairError> {
        self.rep
            .summary_children(level, path)
            .map_err(map_rep_error)
    }

    fn pull_range(&self, after: &Key, before: &Key) -> Result<BucketView, RepairError> {
        self.rep
            .pull_range(after, before, MAX_PULL_ENTRIES)
            .map_err(map_rep_error)
    }
}

/// The local side of repair: a representative as a [`RepairTarget`].
#[derive(Debug)]
pub struct RepTarget {
    rep: Arc<TransactionalRep>,
}

impl RepTarget {
    /// Wraps a representative as the repair target.
    pub fn new(rep: Arc<TransactionalRep>) -> Self {
        RepTarget { rep }
    }
}

impl RepairTarget for RepTarget {
    fn children(&self, level: u8, path: u8) -> Result<Vec<Digest>, RepairError> {
        self.rep
            .summary_children(level, path)
            .map_err(map_rep_error)
    }

    fn span(&self, first: u8, last: u8) -> Result<(Key, Key), RepairError> {
        self.rep.repair_span(first, last).map_err(map_rep_error)
    }

    fn range(&self, after: &Key, before: &Key) -> Result<BucketView, RepairError> {
        self.rep
            .pull_range(after, before, usize::MAX)
            .map_err(map_rep_error)
    }

    fn apply(&self, plan: &RepairPlan) -> Result<ApplyStats, RepairError> {
        self.rep.apply_repair(plan).map_err(map_rep_error)
    }

    fn checkpoint(&self) -> Result<(), RepairError> {
        self.rep.checkpoint().map_err(map_rep_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::serve_rep;
    use crate::txn::TxnId;
    use repdir_core::{RepId, Value, Version};
    use repdir_net::Network;
    use repdir_repair::Repairer;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(n: u64) -> Version {
        Version::new(n)
    }

    fn seed(rep: &TransactionalRep, txn: u64, keys: &[(&str, u64)]) {
        let t = TxnId(txn);
        rep.begin(t).unwrap();
        for (key, ver) in keys {
            rep.insert(t, &k(key), v(*ver), &Value::from(*key)).unwrap();
        }
        rep.commit(t).unwrap();
    }

    #[test]
    fn networked_repair_converges_a_partitioned_member() {
        let net = Arc::new(Network::new(7));
        let fresh = TransactionalRep::new(RepId(0));
        let stale = TransactionalRep::new(RepId(1));
        seed(&fresh, 1, &[("a", 1), ("b", 2)]);
        seed(&stale, 1, &[("a", 1), ("b", 2)]);
        // Writes the partitioned member missed.
        seed(&fresh, 2, &[("b", 5), ("q", 6)]);
        let t = TxnId(3);
        fresh.begin(t).unwrap();
        fresh.coalesce(t, &Key::Low, &k("b"), v(9)).unwrap(); // deletes "a"
        fresh.commit(t).unwrap();

        let _server = serve_rep(Arc::clone(&net), NodeId(10), Arc::clone(&fresh));
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        let peer = RemoteRepairPeer::new(rpc, NodeId(10));
        let repairer = Repairer::new(
            Arc::new(RepTarget::new(Arc::clone(&stale))),
            vec![Box::new(peer)],
        );
        let q = repairer.run_until_quiescent(8);
        assert!(q.quiescent);
        assert!(q.total.applied.total() > 0);
        assert_eq!(fresh.snapshot(), stale.snapshot());
        assert_eq!(
            fresh.summary_children(0, 0).unwrap(),
            stale.summary_children(0, 0).unwrap()
        );
    }

    #[test]
    fn unreachable_peer_reports_unavailable() {
        let net = Arc::new(Network::new(7));
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        let mut peer = RemoteRepairPeer::new(rpc, NodeId(99));
        peer.set_timeout(Duration::from_millis(25));
        assert_eq!(peer.summary(0, 0), Err(RepairError::Unavailable));
        assert_eq!(
            peer.pull_range(&Key::Low, &Key::High),
            Err(RepairError::Unavailable)
        );
    }

    #[test]
    fn local_peer_and_target_round_trip_without_network() {
        let a = TransactionalRep::new(RepId(0));
        let b = TransactionalRep::new(RepId(1));
        seed(&a, 1, &[("x", 1), ("y", 2), ("z", 3)]);
        let repairer = Repairer::new(
            Arc::new(RepTarget::new(Arc::clone(&b))),
            vec![Box::new(LocalRepairPeer::new(Arc::clone(&a)))],
        );
        let q = repairer.run_until_quiescent(4);
        assert!(q.quiescent);
        assert_eq!(a.snapshot(), b.snapshot());
        // An unavailable local peer surfaces as Unavailable and the round
        // is retried later rather than failing the repairer.
        a.set_available(false);
        let sweep = repairer.run_sweep();
        assert_eq!(sweep.errors, 1);
        a.set_available(true);
        assert_eq!(repairer.run_sweep().errors, 0);
    }

    /// Both members hold a1@1 and a2@5; only `fresh` saw c1 inserted at 1
    /// and then the delete of a2, `coalesce(a1, c1)` at 6.
    fn missed_insert_then_delete() -> (Arc<TransactionalRep>, Arc<TransactionalRep>) {
        let fresh = TransactionalRep::new(RepId(0));
        let stale = TransactionalRep::new(RepId(1));
        seed(&fresh, 1, &[("a1", 1), ("a2", 5)]);
        seed(&stale, 1, &[("a1", 1), ("a2", 5)]);
        seed(&fresh, 2, &[("c1", 1)]);
        let t = TxnId(3);
        fresh.begin(t).unwrap();
        fresh.coalesce(t, &k("a1"), &k("c1"), v(6)).unwrap();
        fresh.commit(t).unwrap();
        (fresh, stale)
    }

    fn repairer(target: &Arc<TransactionalRep>, peer: &Arc<TransactionalRep>) -> Repairer {
        Repairer::new(
            Arc::new(RepTarget::new(Arc::clone(target))),
            vec![Box::new(LocalRepairPeer::new(Arc::clone(peer)))],
        )
    }

    #[test]
    fn targeted_pull_never_stamps_a_deletion_over_a_key_the_receiver_lacks() {
        let (fresh, stale) = missed_insert_then_delete();
        // Bucket 'a' alone. The ghost a2's local successor is HIGH; the
        // interval reaches it, so c1 arrives before a2's gap is coalesced.
        repairer(&stale, &fresh)
            .pull_buckets(0, b'a', b'a')
            .unwrap();
        let c1 = stale.snapshot().lookup(&k("c1"));
        assert!(c1.is_present(), "stale reads c1 as {c1:?}");
        // A reverse sweep finds nothing to remove on the fresh member.
        let reverse = repairer(&fresh, &stale).run_until_quiescent(8);
        assert!(reverse.quiescent);
        assert_eq!(reverse.total.applied.ghosts_removed, 0);
        assert!(fresh.snapshot().lookup(&k("c1")).is_present());
        assert_eq!(fresh.snapshot(), stale.snapshot());
    }

    #[test]
    fn catch_up_sweep_never_erases_a_key_through_a_ghost_removal() {
        let (fresh, stale) = missed_insert_then_delete();
        let round = repairer(&stale, &fresh).run_round(0);
        assert_eq!(round.errors, 0);
        assert_eq!(round.applied.ghosts_removed, 1);
        assert_eq!(round.applied.out_of_span, 0);
        assert_eq!(fresh.snapshot(), stale.snapshot());
        assert!(stale.snapshot().lookup(&k("c1")).is_present());
    }
}
