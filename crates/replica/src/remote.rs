//! Serving a representative over the simulated network, and the matching
//! remote client.

use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::{
    BatchReply, Completion, RepClient, RepError, RepId, RepReply, RepRequest, RepResult,
};
use repdir_net::{serve, Network, NodeId, RpcClient, RpcResult, ServerHandle};
use repdir_obs::Counter;
use repdir_repair::MAX_PULL_ENTRIES;
use repdir_txn::TxnId;

use crate::codec::{
    decode_batch_response, decode_request, decode_response, encode_request, encode_response,
    Request, Response,
};
use crate::server::TransactionalRep;

/// Runs a [`TransactionalRep`] as an RPC server at `node`. Returns the
/// handle that stops the serving thread.
pub fn serve_rep(net: Arc<Network>, node: NodeId, rep: Arc<TransactionalRep>) -> ServerHandle {
    let obs = repdir_obs::global();
    let requests = obs.counter("rep.requests");
    let batch_served = obs.counter("rpc.batch.served");
    let batch_parts = obs.counter("rpc.batch.served_parts");
    serve(net, node, move |payload| {
        requests.inc();
        let _span = obs.span("rep.handle");
        let response = match decode_request(payload) {
            Err(e) => Response::Err(RepError::Storage(format!("bad request: {e}"))),
            Ok(req) => {
                if let Request::Batch(parts) = &req {
                    batch_served.inc();
                    batch_parts.add(parts.len() as u64);
                }
                dispatch(&rep, req)
            }
        };
        encode_response(&response)
    })
}

fn dispatch(rep: &TransactionalRep, req: Request) -> Response {
    fn wrap<T>(r: RepResult<T>, f: impl FnOnce(T) -> Response) -> Response {
        match r {
            Ok(v) => f(v),
            Err(e) => Response::Err(e),
        }
    }
    match req {
        Request::Ping => wrap(rep.ping(), |()| Response::Ok),
        Request::Begin(t) => wrap(rep.begin(t), |()| Response::Ok),
        Request::Lookup(t, k) => wrap(rep.lookup(t, &k), Response::Lookup),
        Request::PredecessorChain(t, k, limit) => wrap(
            rep.predecessor_chain(t, &k, limit as usize),
            Response::Chain,
        ),
        Request::SuccessorChain(t, k, limit) => {
            wrap(rep.successor_chain(t, &k, limit as usize), Response::Chain)
        }
        Request::Insert(t, k, v, val) => wrap(rep.insert(t, &k, v, &val), Response::Insert),
        Request::Coalesce(t, l, h, v) => wrap(rep.coalesce(t, &l, &h, v), Response::Coalesce),
        Request::Commit(t) => wrap(rep.commit(t), |()| Response::Ok),
        Request::Abort(t) => {
            rep.abort(t);
            Response::Ok
        }
        // Sub-requests are dispatched in order and the envelope stops at its
        // first failure, as `RepClient::execute_parts` does in process: the
        // parts behind it are not run — no lock is taken for a transaction
        // about to abort — and answer with the same error, so the reply
        // keeps the arity the client checks.
        Request::Batch(reqs) => {
            let mut failed: Option<RepError> = None;
            Response::Batch(
                reqs.into_iter()
                    .map(|r| match &failed {
                        Some(e) => Response::Err(e.clone()),
                        None => {
                            let part = dispatch(rep, r);
                            if let Response::Err(e) = &part {
                                failed = Some(e.clone());
                            }
                            part
                        }
                    })
                    .collect(),
            )
        }
        // Anti-entropy endpoints: read-only, no coordinator transaction.
        Request::Summary { level, path } => {
            wrap(rep.summary_children(level, path), Response::Summary)
        }
        Request::PullRange { after, before } => wrap(
            rep.pull_range(&after, &before, MAX_PULL_ENTRIES),
            Response::PullRange,
        ),
    }
}

/// A transaction's handle to a representative served across the network.
///
/// RPC failures (timeout, unreachable) surface as
/// [`RepError::Unavailable`] — exactly how the suite treats a
/// representative it cannot gather into a quorum. One `RemoteSessionClient`
/// serves one transaction; the underlying [`RpcClient`] node is shared per
/// suite client.
#[derive(Debug)]
pub struct RemoteSessionClient {
    rpc: Arc<RpcClient>,
    server: NodeId,
    rep_id: RepId,
    txn: TxnId,
    timeout: Duration,
    /// `rpc.batch.calls` / `rpc.batch.parts`, resolved once: envelopes ride
    /// every scan hop.
    batch_calls: Counter,
    batch_parts: Counter,
}

impl RemoteSessionClient {
    /// Default per-call deadline.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);

    /// Creates a client for representative `rep_id` served at `server`,
    /// acting for transaction `txn`.
    pub fn new(rpc: Arc<RpcClient>, server: NodeId, rep_id: RepId, txn: TxnId) -> Self {
        let obs = repdir_obs::global();
        RemoteSessionClient {
            rpc,
            server,
            rep_id,
            txn,
            timeout: Self::DEFAULT_TIMEOUT,
            batch_calls: obs.counter("rpc.batch.calls"),
            batch_parts: obs.counter("rpc.batch.parts"),
        }
    }

    /// Overrides the per-call deadline.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Registers the transaction at the remote representative.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] on RPC failure.
    pub fn begin(&self) -> RepResult<()> {
        self.control(Request::Begin(self.txn))
    }

    /// Commits the transaction at the remote representative.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] on RPC failure.
    pub fn commit(&self) -> RepResult<()> {
        self.control(Request::Commit(self.txn))
    }

    /// Aborts the transaction at the remote representative (best effort —
    /// an unreachable representative will roll back when its lock timeouts
    /// fire or it restarts).
    pub fn abort(&self) {
        let _ = self.control(Request::Abort(self.txn));
    }

    /// One transaction-control round trip, answered by a bare `Ok`.
    fn control(&self, req: Request) -> RepResult<()> {
        let reply = self
            .rpc
            .call(self.server, encode_request(&req), self.timeout);
        match decode_reply(reply, None)? {
            RepReply::Pong => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// The wire frame for `req` plus, for an envelope, the number of parts
    /// its reply must carry. `None` for an empty envelope, which is answered
    /// without a message.
    fn frame(&self, req: RepRequest<'_>) -> Option<(Vec<u8>, Option<usize>)> {
        let t = self.txn;
        let wire = |req: RepRequest<'_>| match req {
            RepRequest::Ping => Request::Ping,
            RepRequest::Lookup(k) => Request::Lookup(t, k.clone()),
            RepRequest::PredecessorChain(k, limit) => {
                Request::PredecessorChain(t, k.clone(), limit as u32)
            }
            RepRequest::SuccessorChain(k, limit) => {
                Request::SuccessorChain(t, k.clone(), limit as u32)
            }
            RepRequest::Insert(k, v, val) => Request::Insert(t, k.clone(), v, val.clone()),
            RepRequest::Coalesce(l, h, v) => Request::Coalesce(t, l.clone(), h.clone(), v),
            RepRequest::Batch(_) => unreachable!("envelopes do not nest"),
        };
        match req {
            RepRequest::Batch([]) => None,
            // The whole envelope is one `Request::Batch` frame — one message
            // and one round trip regardless of how many probes it carries.
            RepRequest::Batch(parts) => {
                self.batch_calls.inc();
                self.batch_parts.add(parts.len() as u64);
                let wired = parts.iter().map(|part| wire(part.as_request())).collect();
                Some((encode_request(&Request::Batch(wired)), Some(parts.len())))
            }
            single => Some((encode_request(&wire(single)), None)),
        }
    }
}

fn unexpected(resp: impl std::fmt::Debug) -> RepError {
    RepError::Storage(format!("protocol violation: unexpected response {resp:?}"))
}

/// Turns an RPC outcome into the reply it carries. RPC failures become
/// [`RepError::Unavailable`]; an envelope's reply (`arity` parts expected) is
/// decoded through the arity-checking helper, so a reply that cannot answer
/// exactly that envelope is a protocol violation, never a silent truncation
/// of the tail sub-requests. Which *kind* of reply answers which request is
/// checked where the reply is consumed ([`RepReply`]'s typed accessors).
fn decode_reply(reply: RpcResult, arity: Option<usize>) -> RepResult<RepReply> {
    let bytes = reply.map_err(|_| RepError::Unavailable)?;
    let decoded = match arity {
        Some(parts) => decode_batch_response(&bytes, parts),
        None => decode_response(&bytes),
    };
    let resp = decoded.map_err(|e| RepError::Storage(format!("bad response: {e}")))?;
    match resp {
        Response::Err(e) => Err(e),
        Response::Batch(parts) => parts
            .into_iter()
            .map(|part| match part {
                Response::Lookup(r) => Ok(BatchReply::Lookup(r)),
                Response::Chain(c) => Ok(BatchReply::Chain(c)),
                Response::Insert(r) => Ok(BatchReply::Insert(r)),
                Response::Coalesce(r) => Ok(BatchReply::Coalesce(r)),
                Response::Err(e) => Err(e),
                other => Err(unexpected(other)),
            })
            .collect::<RepResult<_>>()
            .map(RepReply::Batch),
        Response::Ok => Ok(RepReply::Pong),
        Response::Lookup(r) => Ok(RepReply::Lookup(r)),
        Response::Chain(c) => Ok(RepReply::Chain(c)),
        Response::Insert(r) => Ok(RepReply::Insert(r)),
        Response::Coalesce(r) => Ok(RepReply::Coalesce(r)),
        other => Err(unexpected(other)),
    }
}

impl RepClient for RemoteSessionClient {
    fn id(&self) -> RepId {
        self.rep_id
    }

    fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
        let Some((frame, arity)) = self.frame(req) else {
            return Ok(RepReply::Batch(Vec::new()));
        };
        decode_reply(self.rpc.call(self.server, frame, self.timeout), arity)
    }

    /// Sends the request and returns: the reply is decoded and `done`
    /// completed on the RPC router thread. The per-call deadline travels
    /// with the request, so a member that never answers completes `done` as
    /// [`RepError::Unavailable`] at the deadline whether or not anybody is
    /// still waiting.
    fn start(&self, req: RepRequest<'_>, done: Completion) {
        let Some((frame, arity)) = self.frame(req) else {
            return done.complete(Ok(RepReply::Batch(Vec::new())));
        };
        let deadline = Instant::now() + self.timeout;
        self.rpc
            .start(self.server, frame, Some(deadline), move |reply| {
                done.complete(decode_reply(reply, arity));
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repdir_core::{BatchRequest, InsertOutcome, Key, Value, Version};

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn setup() -> (
        Arc<Network>,
        Arc<TransactionalRep>,
        ServerHandle,
        Arc<RpcClient>,
    ) {
        let net = Arc::new(Network::new(11));
        let rep = TransactionalRep::new(RepId(0));
        let handle = serve_rep(Arc::clone(&net), NodeId(10), Arc::clone(&rep));
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        (net, rep, handle, rpc)
    }

    #[test]
    fn remote_round_trip() {
        let (_net, rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        client.ping().unwrap();
        client
            .insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        assert!(client.lookup(&k("a")).unwrap().is_present());
        assert_eq!(client.successor(&Key::Low).unwrap().key, k("a"));
        assert_eq!(client.predecessor(&Key::High).unwrap().key, k("a"));
        client.commit().unwrap();
        assert_eq!(rep.len(), 1);
    }

    #[test]
    fn remote_errors_propagate_with_structure() {
        let (_net, _rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        // Sentinel violation crosses the wire intact.
        let err = client
            .insert(&Key::Low, Version::new(1), &Value::empty())
            .unwrap_err();
        assert!(matches!(err, RepError::SentinelViolation { .. }));
        // Coalesce boundary error carries the key.
        let err = client
            .coalesce(&k("nope"), &Key::High, Version::new(1))
            .unwrap_err();
        assert_eq!(err, RepError::NoSuchBoundary { key: k("nope") });
        client.abort();
    }

    #[test]
    fn partition_makes_rep_unavailable() {
        let (net, _rep, _handle, rpc) = setup();
        let mut client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.set_timeout(Duration::from_millis(50));
        client.begin().unwrap();
        net.partition(&[&[NodeId(0)], &[NodeId(10)]]);
        assert_eq!(client.ping(), Err(RepError::Unavailable));
        assert_eq!(client.lookup(&k("a")), Err(RepError::Unavailable));
        net.heal();
        client.ping().unwrap();
    }

    #[test]
    fn started_requests_complete_from_the_router_or_at_their_deadline() {
        use repdir_core::channel::unbounded;
        use repdir_core::{Completion, Done};
        let (net, _rep, _handle, rpc) = setup();
        let mut client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.set_timeout(Duration::from_millis(60));
        client.begin().unwrap();
        let (queue, completions) = unbounded::<Done>();
        let tick = Duration::from_secs(2);
        // `start` returns before the reply exists; it arrives tagged.
        client.start(RepRequest::Ping, Completion::new(7, true, queue.clone()));
        client.start(
            RepRequest::Lookup(&k("a")),
            Completion::new(8, true, queue.clone()),
        );
        let mut done: Vec<Done> = (0..2)
            .map(|_| completions.recv_timeout(tick).unwrap())
            .collect();
        done.sort_by_key(|d| d.slot);
        assert_eq!(done[0].result, Ok(RepReply::Pong));
        assert!(matches!(done[1].result, Ok(RepReply::Lookup(_))));
        assert!(done.iter().all(|d| d.elapsed.is_some()));
        // An empty envelope is answered without a message.
        let sent = net.stats().sent;
        client.start(
            RepRequest::Batch(&[]),
            Completion::new(9, false, queue.clone()),
        );
        let empty = completions.try_recv().expect("completed inline");
        assert_eq!(empty.result, Ok(RepReply::Batch(Vec::new())));
        assert_eq!(net.stats().sent, sent);
        // Nobody answers: the request completes unavailable at the client's
        // deadline, with nobody waiting on it.
        net.partition(&[&[NodeId(0)], &[NodeId(10)]]);
        client.start(RepRequest::Ping, Completion::new(10, false, queue));
        let late = completions.recv_timeout(tick).unwrap();
        assert_eq!((late.slot, late.result), (10, Err(RepError::Unavailable)));
        net.heal();
        client.abort();
    }

    #[test]
    fn server_side_abort_rolls_back() {
        let (_net, rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        client
            .insert(&k("temp"), Version::new(1), &Value::from("T"))
            .unwrap();
        client.abort();
        assert_eq!(rep.len(), 0);
    }

    #[test]
    fn batch_envelope_is_one_message_with_ordered_replies() {
        let (net, _rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        client
            .insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        client
            .insert(&k("c"), Version::new(1), &Value::from("C"))
            .unwrap();
        let before = net.stats().sent;
        let replies = client
            .batch(&[
                BatchRequest::Lookup(k("a")),
                BatchRequest::SuccessorChain(k("a"), 2),
                BatchRequest::PredecessorChain(Key::High, 1),
            ])
            .unwrap();
        // One request plus one response on the fabric for three probes.
        assert_eq!(net.stats().sent - before, 2);
        assert_eq!(replies.len(), 3);
        assert_eq!(
            replies[0],
            BatchReply::Lookup(client.lookup(&k("a")).unwrap())
        );
        assert_eq!(
            replies[1],
            BatchReply::Chain(client.successor_chain(&k("a"), 2).unwrap())
        );
        assert_eq!(
            replies[2],
            BatchReply::Chain(client.predecessor_chain(&Key::High, 1).unwrap())
        );
        // A failing sub-request fails the envelope with its own error.
        let err = client
            .batch(&[BatchRequest::SuccessorChain(Key::High, 1)])
            .unwrap_err();
        assert!(matches!(err, RepError::SentinelViolation { .. }), "{err:?}");
        client.abort();
    }

    #[test]
    fn batch_envelope_carries_inserts() {
        let (net, rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        let before = net.stats().sent;
        let replies = client
            .batch(&[
                BatchRequest::Insert(k("a"), Version::new(1), Value::from("A")),
                BatchRequest::Insert(k("b"), Version::new(2), Value::from("B")),
                BatchRequest::Lookup(k("a")),
            ])
            .unwrap();
        // Two writes and a probe still ride one request/response pair.
        assert_eq!(net.stats().sent - before, 2);
        assert_eq!(replies.len(), 3);
        assert!(matches!(
            replies[0],
            BatchReply::Insert(InsertOutcome::Created { .. })
        ));
        assert!(matches!(
            replies[1],
            BatchReply::Insert(InsertOutcome::Created { .. })
        ));
        match &replies[2] {
            BatchReply::Lookup(r) => {
                assert!(r.is_present());
                assert_eq!(r.version(), Version::new(1));
            }
            other => panic!("expected lookup reply, got {other:?}"),
        }
        client.commit().unwrap();
        assert_eq!(rep.len(), 2);
    }

    #[test]
    fn served_envelope_stops_at_its_first_failing_part() {
        use crate::client::SessionClient;
        use repdir_rangelock::{KeyRange, LockMode};
        let (_net, rep, _handle, rpc) = setup();
        let seed = RemoteSessionClient::new(Arc::clone(&rpc), NodeId(10), RepId(0), TxnId(1));
        seed.begin().unwrap();
        for key in ["b", "c"] {
            seed.insert(&k(key), Version::new(1), &Value::from(key))
                .unwrap();
        }
        seed.commit().unwrap();
        let before = rep.snapshot();
        // A copy, a refused copy, and the coalesce that must not run.
        let envelope = [
            BatchRequest::Insert(k("a"), Version::new(1), Value::from("A")),
            BatchRequest::Insert(Key::Low, Version::new(1), Value::empty()),
            BatchRequest::Coalesce(k("a"), k("d"), Version::new(2)),
        ];

        let remote = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(2));
        remote.begin().unwrap();
        let refused = remote.batch(&envelope).unwrap_err();
        assert!(matches!(refused, RepError::SentinelViolation { .. }));
        // The coalesce behind the refusal never ran: no lock on its range,
        // nothing coalesced away, only the two copies' point locks.
        let held = rep.locks_held(TxnId(2));
        assert_eq!(
            held,
            vec![
                (LockMode::Modify, KeyRange::point(k("a"))),
                (LockMode::Modify, KeyRange::point(Key::Low)),
            ]
        );
        assert_eq!(rep.len(), 3);
        remote.abort();
        assert_eq!(rep.snapshot(), before);

        let local = SessionClient::new(Arc::clone(&rep), TxnId(3));
        rep.begin(TxnId(3)).unwrap();
        assert_eq!(local.batch(&envelope), Err(refused));
        assert_eq!(rep.locks_held(TxnId(3)), held);
        rep.abort(TxnId(3));
        assert_eq!(rep.lock_holders(), vec![]);
    }

    #[test]
    fn envelope_carries_copies_and_their_coalesce() {
        let (net, rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        client
            .insert(&k("b"), Version::new(1), &Value::from("B"))
            .unwrap();
        let before = net.stats().sent;
        let mut replies = client
            .batch(&[
                BatchRequest::Insert(k("a"), Version::new(1), Value::from("A")),
                BatchRequest::Insert(k("c"), Version::new(1), Value::from("C")),
                BatchRequest::Coalesce(k("a"), k("c"), Version::new(2)),
            ])
            .unwrap();
        assert_eq!(net.stats().sent - before, 2);
        match replies.pop() {
            Some(BatchReply::Coalesce(out)) => assert_eq!(out.removed.len(), 1),
            other => panic!("expected coalesce reply, got {other:?}"),
        }
        client.commit().unwrap();
        assert_eq!(rep.len(), 2);
    }

    #[test]
    fn short_batch_reply_is_a_protocol_error_not_a_truncation() {
        // A rigged server answers every batch with a single-part reply; the
        // client must refuse to zip it against a longer request list.
        let net = Arc::new(Network::new(13));
        let _handle = serve(Arc::clone(&net), NodeId(10), move |payload| {
            let resp = match decode_request(payload) {
                Ok(Request::Batch(_)) => Response::Batch(vec![Response::Ok]),
                _ => Response::Ok,
            };
            encode_response(&resp)
        });
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        let err = client
            .batch(&[BatchRequest::Lookup(k("a")), BatchRequest::Lookup(k("b"))])
            .unwrap_err();
        match err {
            RepError::Storage(msg) => assert!(msg.contains("arity"), "{msg}"),
            other => panic!("expected storage error, got {other:?}"),
        }
    }

    #[test]
    fn remote_client_is_send_and_sync() {
        // `RepClient` requires it: concurrent in-flight calls through one
        // client (and one shared RpcClient) must be sound.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RemoteSessionClient>();
    }

    #[test]
    fn concurrent_in_flight_calls_share_one_client() {
        let (_net, _rep, _handle, rpc) = setup();
        let client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.begin().unwrap();
        for i in 0..8u32 {
            client
                .insert(
                    &Key::from(format!("k{i}").as_str()),
                    Version::new(1),
                    &Value::from("v"),
                )
                .unwrap();
        }
        // Eight threads issue overlapping lookups and pings through the
        // same client; the RPC router must hand every reply to its caller.
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let client = &client;
                scope.spawn(move || {
                    for _ in 0..20 {
                        client.ping().unwrap();
                        let key = Key::from(format!("k{t}").as_str());
                        assert!(client.lookup(&key).unwrap().is_present());
                    }
                });
            }
        });
        client.abort();
    }

    #[test]
    fn suite_runs_over_remote_clients() {
        use repdir_core::suite::{DirSuite, FixedPolicy, SuiteConfig};
        let net = Arc::new(Network::new(12));
        let mut handles = Vec::new();
        let mut reps = Vec::new();
        for i in 0..3u32 {
            let rep = TransactionalRep::new(RepId(i));
            handles.push(serve_rep(
                Arc::clone(&net),
                NodeId(100 + i),
                Arc::clone(&rep),
            ));
            reps.push(rep);
        }
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        let txn = TxnId(1);
        let clients: Vec<RemoteSessionClient> = (0..3u32)
            .map(|i| RemoteSessionClient::new(Arc::clone(&rpc), NodeId(100 + i), RepId(i), txn))
            .collect();
        for c in &clients {
            c.begin().unwrap();
        }
        let mut suite = DirSuite::new(
            clients,
            SuiteConfig::symmetric(3, 2, 2).unwrap(),
            Box::new(FixedPolicy::new()),
        )
        .unwrap();
        suite.insert(&k("net"), &Value::from("works")).unwrap();
        assert!(suite.lookup(&k("net")).unwrap().present);
        suite.delete(&k("net")).unwrap();
        assert!(!suite.lookup(&k("net")).unwrap().present);
        for i in 0..3 {
            suite.member(i).commit().unwrap();
        }
        // Reps 0 and 1 were the fixed quorum: both saw the traffic.
        assert!(reps[0].snapshot().is_empty());
    }
}
