//! Serving a representative over the simulated network, the matching
//! remote client, and the members of a networked directory.

use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::suite::SuiteConfig;
use repdir_core::{Completion, ConfigError, Op, RepClient, RepError, RepId, RepResult, Reply};
use repdir_net::{serve, Network, NodeId, RpcClient, RpcResult, ServerHandle};
use repdir_repair::MAX_PULL_ENTRIES;

use crate::codec::{
    decode_request, decode_response, encode_request, encode_response, reply_frame, reply_list,
    request_frame, request_ops, Request, Response,
};
use crate::directory::{Members, ReplicatedDirectory};
use crate::server::TransactionalRep;
use crate::txn::TxnId;

/// Runs a [`TransactionalRep`] as an RPC server at `node`. Returns the
/// handle that stops the serving thread.
pub fn serve_rep(net: Arc<Network>, node: NodeId, rep: Arc<TransactionalRep>) -> ServerHandle {
    serve(net, node, move |payload| {
        let response = match decode_request(payload) {
            Err(e) => Response::Err(RepError::Storage(format!("bad request: {e}"))),
            Ok(req) => dispatch(&rep, req),
        };
        encode_response(&response)
    })
}

fn dispatch(rep: &TransactionalRep, req: Request) -> Response {
    // A ping, a bare operation or an envelope: one list, one path through
    // the locks and the log, answered by one error if any operation fails.
    let control = match request_ops(req) {
        Ok((txn, ops)) => return reply_frame(rep.execute(txn, &ops)),
        Err(control) => control,
    };
    fn wrap<T>(r: RepResult<T>, f: impl FnOnce(T) -> Response) -> Response {
        match r {
            Ok(v) => f(v),
            Err(e) => Response::Err(e),
        }
    }
    let ack = |()| Response::Ok;
    match control {
        Request::Begin(t) => wrap(rep.begin(t), ack),
        Request::Commit(t) => wrap(rep.commit(t), ack),
        Request::Abort(t) => {
            rep.abort(t);
            Response::Ok
        }
        // Anti-entropy endpoints: read-only, no coordinator transaction.
        Request::Summary { level, path } => {
            wrap(rep.summary_children(level, path), Response::Summary)
        }
        Request::PullRange { after, before } => wrap(
            rep.pull_range(&after, &before, MAX_PULL_ENTRIES),
            Response::PullRange,
        ),
        // Decoding refuses the envelopes `request_ops` hands back.
        other => Response::Err(RepError::Storage(format!(
            "protocol violation: unserved request {other:?}"
        ))),
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
}

impl RemoteSessionClient {
    /// Default per-call deadline.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);

    /// Creates a client for representative `rep_id` served at `server`,
    /// acting for transaction `txn`.
    pub fn new(rpc: Arc<RpcClient>, server: NodeId, rep_id: RepId, txn: TxnId) -> Self {
        RemoteSessionClient {
            rpc,
            server,
            rep_id,
            txn,
            timeout: Self::DEFAULT_TIMEOUT,
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

    /// One transaction-control round trip, answered like the empty list.
    fn control(&self, req: Request) -> RepResult<()> {
        let reply = self
            .rpc
            .call(self.server, encode_request(&req), self.timeout);
        replies(reply, 0).map(drop)
    }

    /// The bytes of the request `ops`.
    fn frame(&self, ops: &[Op]) -> Vec<u8> {
        encode_request(&request_frame(self.txn, ops))
    }
}

/// The replies an RPC outcome carries for a request of `asked` operations.
/// RPC failures become [`RepError::Unavailable`]; which *kind* of reply
/// answers which operation is checked where the reply is consumed
/// ([`Reply`]'s typed accessors).
fn replies(reply: RpcResult, asked: usize) -> RepResult<Vec<Reply>> {
    let bytes = reply.map_err(|_| RepError::Unavailable)?;
    let resp =
        decode_response(&bytes).map_err(|e| RepError::Storage(format!("bad response: {e}")))?;
    reply_list(resp, asked)
}

impl RepClient for RemoteSessionClient {
    fn id(&self) -> RepId {
        self.rep_id
    }

    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        let reply = self.rpc.call(self.server, self.frame(ops), self.timeout);
        replies(reply, ops.len())
    }

    /// Sends the request and returns: the reply is decoded and `done`
    /// completed on the RPC router thread. The per-call deadline travels
    /// with the request, so a member that never answers completes `done` as
    /// [`RepError::Unavailable`] at the deadline whether or not anybody is
    /// still waiting.
    fn start(&self, ops: &[Op], done: Completion) {
        let asked = ops.len();
        let deadline = Instant::now() + self.timeout;
        self.rpc
            .start(self.server, self.frame(ops), Some(deadline), move |reply| {
                done.complete(replies(reply, asked));
            });
    }
}

/// Members behind [`serve_rep`], reached through one [`RpcClient`]: member
/// `i` is `RepId(i)`, served at the `i`-th node. `Begin`, `Commit` and
/// `Abort` are one scatter round each, and every call, those rounds
/// included, gives up after the timeout the directory was built with.
#[derive(Debug)]
pub struct Networked {
    rpc: Arc<RpcClient>,
    servers: Vec<NodeId>,
    timeout: Duration,
}

impl Networked {
    /// One scatter round of `request` to every member. Replies are not
    /// inspected: a member that cannot register, commit or abort is one
    /// the suite routes around, as in process.
    fn round(&self, request: Request) {
        let payload = encode_request(&request);
        let requests = self
            .servers
            .iter()
            .map(|&server| (server, payload.clone()))
            .collect();
        drop(self.rpc.scatter(requests).gather(self.timeout));
    }
}

impl Members for Networked {
    type Client = RemoteSessionClient;

    fn open(&self, txn: TxnId) -> Vec<RemoteSessionClient> {
        self.round(Request::Begin(txn));
        let member = |(i, &server): (usize, &NodeId)| RemoteSessionClient {
            rpc: Arc::clone(&self.rpc),
            server,
            rep_id: RepId(i as u32),
            txn,
            timeout: self.timeout,
        };
        self.servers.iter().enumerate().map(member).collect()
    }

    fn commit(&self, txn: TxnId) {
        self.round(Request::Commit(txn));
    }

    fn abort(&self, txn: TxnId) {
        self.round(Request::Abort(txn));
    }
}

impl ReplicatedDirectory<Networked> {
    /// A directory whose members are served at `servers` (member `i` at
    /// `servers[i]`, as `RepId(i)`) and reached from `rpc`'s node. Every
    /// member call gives up after `timeout` and counts as
    /// [`RepError::Unavailable`].
    ///
    /// # Errors
    ///
    /// [`ConfigError::MemberCountMismatch`] if `servers` and `config`
    /// count different members.
    pub fn networked(
        rpc: Arc<RpcClient>,
        servers: Vec<NodeId>,
        timeout: Duration,
        config: SuiteConfig,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let count = servers.len();
        let members = Networked {
            rpc,
            servers,
            timeout,
        };
        Self::with_members(count, members, config, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repdir_core::{InsertOutcome, Key, Value, Version};

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
        use repdir_core::{Completion, Done};
        let (net, _rep, _handle, rpc) = setup();
        let mut client = RemoteSessionClient::new(rpc, NodeId(10), RepId(0), TxnId(1));
        client.set_timeout(Duration::from_millis(60));
        client.begin().unwrap();
        let (queue, completions) = std::sync::mpsc::channel::<Done>();
        let tick = Duration::from_secs(2);
        // `start` returns before the reply exists; it arrives tagged. The
        // empty list is the ping: one message each way.
        let sent = net.stats().sent;
        client.start(&[], Completion::new(7, queue.clone()));
        client.start(&[Op::Lookup(k("a"))], Completion::new(8, queue.clone()));
        let mut done: Vec<Done> = (0..2)
            .map(|_| completions.recv_timeout(tick).unwrap())
            .collect();
        done.sort_by_key(|d| d.slot);
        assert_eq!(done[0].result, Ok(Vec::new()));
        assert!(matches!(done[1].result.as_deref(), Ok([Reply::Lookup(_)])));
        assert_eq!(net.stats().sent - sent, 4);
        // Nobody answers: the request completes unavailable at the client's
        // deadline, with nobody waiting on it.
        net.partition(&[&[NodeId(0)], &[NodeId(10)]]);
        client.start(&[], Completion::new(10, queue));
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
            .execute(&[
                Op::Lookup(k("a")),
                Op::SuccessorChain(k("a"), 2),
                Op::PredecessorChain(Key::High, 1),
            ])
            .unwrap();
        // One request plus one response on the fabric for three probes.
        assert_eq!(net.stats().sent - before, 2);
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0], Reply::Lookup(client.lookup(&k("a")).unwrap()));
        assert_eq!(
            replies[1],
            Reply::Chain(client.successor_chain(&k("a"), 2).unwrap())
        );
        assert_eq!(
            replies[2],
            Reply::Chain(client.predecessor_chain(&Key::High, 1).unwrap())
        );
        // A failing operation fails the envelope with its own error.
        let err = client
            .execute(&[Op::Lookup(k("a")), Op::SuccessorChain(Key::High, 1)])
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
            .execute(&[
                Op::Insert(k("a"), Version::new(1), Value::from("A")),
                Op::Insert(k("b"), Version::new(2), Value::from("B")),
                Op::Lookup(k("a")),
            ])
            .unwrap();
        // Two writes and a probe still ride one request/response pair.
        assert_eq!(net.stats().sent - before, 2);
        assert_eq!(replies.len(), 3);
        assert!(matches!(
            replies[0],
            Reply::Insert(InsertOutcome::Created { .. })
        ));
        assert!(matches!(
            replies[1],
            Reply::Insert(InsertOutcome::Created { .. })
        ));
        match &replies[2] {
            Reply::Lookup(r) => {
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
            Op::Insert(k("a"), Version::new(1), Value::from("A")),
            Op::Insert(Key::Low, Version::new(1), Value::empty()),
            Op::Coalesce(k("a"), k("d"), Version::new(2)),
        ];

        let remote = RemoteSessionClient::new(Arc::clone(&rpc), NodeId(10), RepId(0), TxnId(2));
        remote.begin().unwrap();
        let refused = remote.execute(&envelope).unwrap_err();
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

        // On the wire the failed envelope is answered by its one error, not
        // by a reply per part.
        let raw = |req: &Request| {
            let bytes = rpc.call(NodeId(10), encode_request(req), Duration::from_secs(2));
            decode_response(&bytes.unwrap()).unwrap()
        };
        raw(&Request::Begin(TxnId(4)));
        let reply = raw(&request_frame(TxnId(4), &envelope));
        assert_eq!(reply, Response::Err(refused.clone()));
        raw(&Request::Abort(TxnId(4)));

        let local = SessionClient::new(Arc::clone(&rep), TxnId(3));
        rep.begin(TxnId(3)).unwrap();
        assert_eq!(local.execute(&envelope), Err(refused));
        assert_eq!(rep.locks_held(TxnId(3)), held);
        rep.abort(TxnId(3));
        assert_eq!(rep.lock_holders(), vec![]);
    }

    #[test]
    fn served_envelope_of_another_shape_is_refused_whole() {
        let (_net, rep, _handle, rpc) = setup();
        let raw = |req: &Request| {
            let bytes = rpc.call(NodeId(10), encode_request(req), Duration::from_secs(2));
            decode_response(&bytes.unwrap()).unwrap()
        };
        let (t, other) = (TxnId(1), TxnId(2));
        raw(&Request::Begin(t));
        raw(&Request::Begin(other));
        let insert = |txn| Request::Insert(txn, k("a"), Version::new(1), Value::from("A"));
        // A commit riding behind a write would end the transaction inside
        // the envelope; parts of two transactions would run under one.
        for envelope in [
            vec![insert(t), Request::Commit(t)],
            vec![insert(t), Request::Lookup(other, k("b"))],
            vec![Request::Begin(t), insert(t)],
        ] {
            match raw(&Request::Batch(envelope)) {
                Response::Err(RepError::Storage(msg)) => {
                    assert!(msg.contains("bad request"), "{msg}")
                }
                reply => panic!("expected a refusal, got {reply:?}"),
            }
        }
        // Nothing applied, no lock left behind, and the transaction is still
        // open for its next request.
        assert_eq!(rep.len(), 0);
        assert_eq!(rep.lock_holders(), vec![]);
        assert!(matches!(raw(&insert(t)), Response::Insert(_)));
        raw(&Request::Abort(t));
        raw(&Request::Abort(other));
        assert_eq!(rep.len(), 0);
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
            .execute(&[
                Op::Insert(k("a"), Version::new(1), Value::from("A")),
                Op::Insert(k("c"), Version::new(1), Value::from("C")),
                Op::Coalesce(k("a"), k("c"), Version::new(2)),
            ])
            .unwrap();
        assert_eq!(net.stats().sent - before, 2);
        match replies.pop() {
            Some(Reply::Coalesce(out)) => assert_eq!(out.removed.len(), 1),
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
            .execute(&[Op::Lookup(k("a")), Op::Lookup(k("b"))])
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
    fn directory_runs_over_networked_members() {
        use repdir_core::suite::FixedPolicy;
        let net = Arc::new(Network::new(12));
        let reps: Vec<_> = (0..3u32).map(|i| TransactionalRep::new(RepId(i))).collect();
        let handles: Vec<_> = (0..3u32)
            .map(|i| {
                serve_rep(
                    Arc::clone(&net),
                    NodeId(100 + i),
                    Arc::clone(&reps[i as usize]),
                )
            })
            .collect();
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        let servers = (100..103).map(NodeId).collect();
        let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let timeout = Duration::from_millis(200);
        let dir = ReplicatedDirectory::networked(rpc, servers, timeout, config, 1).unwrap();
        dir.insert(&k("net"), &Value::from("works")).unwrap();
        assert!(dir.lookup(&k("net")).unwrap().present);
        dir.delete(&k("net")).unwrap();
        assert!(!dir.lookup(&k("net")).unwrap().present);

        // An explicit transaction: its writes land at its quorum members
        // when it commits, and nothing of an aborted one stays anywhere.
        let mut txn = dir.begin_with_policy(Box::new(FixedPolicy::new()));
        txn.suite_mut().insert(&k("a"), &Value::from("A")).unwrap();
        let id = txn.id();
        txn.commit();
        assert!(reps[0].snapshot().lookup(&k("a")).is_present());
        assert!(reps[1].snapshot().lookup(&k("a")).is_present());
        let mut txn = dir.begin();
        txn.suite_mut().insert(&k("b"), &Value::from("B")).unwrap();
        txn.abort();
        for rep in &reps {
            assert!(rep.locks_held(id).is_empty());
            assert!(!rep.snapshot().lookup(&k("b")).is_present());
            assert_eq!(rep.lock_holders(), vec![]);
        }
        for handle in &handles {
            handle.stop();
        }
    }
}
