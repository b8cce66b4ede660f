//! Request/response RPC over the message fabric.
//!
//! This is the `Send(<procedure invocation>) to (<object instance>)`
//! primitive of the paper's §3, with the error responses the paper elides
//! (timeouts, unreachable peers) made explicit.
//!
//! The client is safe for **concurrent in-flight calls**: a router thread
//! owns the node's mailbox and demultiplexes responses to per-call channels
//! by correlation id, so any number of threads can [`call`](RpcClient::call)
//! through one client at once, and a single thread can put N requests in
//! flight with [`call_async`](RpcClient::call_async) or
//! [`scatter`](RpcClient::scatter) and gather replies as they arrive. This
//! turns a quorum round from sum-of-member-latencies into
//! max-of-member-latencies — the cost model the paper's §3–§4 accounting
//! assumes.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use repdir_core::sync::Mutex;
use repdir_obs::{Counter, Histogram};

use crate::fabric::{Endpoint, MsgKind, Network, NodeId};

/// RPC failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RpcError {
    /// No response within the deadline (message lost, peer down or
    /// partitioned away).
    Timeout,
    /// The destination node has never registered on the network.
    Unreachable(NodeId),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Timeout => f.write_str("rpc timed out"),
            RpcError::Unreachable(n) => write!(f, "destination {n} unreachable"),
        }
    }
}

impl std::error::Error for RpcError {}

/// The longest the router thread sleeps before it checks for shutdown and
/// for expired request deadlines.
const ROUTER_POLL: Duration = Duration::from_millis(25);

/// The outcome of one request: the response payload, or why there is none.
pub type RpcResult = Result<Vec<u8>, RpcError>;

/// How a started request is answered: called exactly once, on whichever
/// thread settles the request.
type OnDone = Box<dyn FnOnce(RpcResult) + Send>;

/// A registered in-flight request.
struct PendingSlot {
    /// When the router gives up on the request and answers it with
    /// [`RpcError::Timeout`]; `None` leaves the deadline to the waiter.
    deadline: Option<Instant>,
    /// Send-time stamp; `None` when the global registry has timing off.
    started: Option<Instant>,
    on_done: OnDone,
}

/// Client-side RPC counters mirrored into the process-wide obs registry
/// (`rpc.*`), shared by every call/scatter handle of one client.
#[derive(Debug)]
struct RpcObs {
    calls: Counter,
    replies: Counter,
    timeouts: Counter,
    unreachable: Counter,
    reply_us: Histogram,
}

impl RpcObs {
    fn new() -> Self {
        let g = repdir_obs::global();
        RpcObs {
            calls: g.counter("rpc.calls"),
            replies: g.counter("rpc.replies"),
            timeouts: g.counter("rpc.timeouts"),
            unreachable: g.counter("rpc.unreachable"),
            reply_us: g.histogram("rpc.reply_us"),
        }
    }
}

/// State shared between the client handle, its router thread, and
/// outstanding [`PendingReply`]/[`Scatter`] handles.
struct ClientShared {
    net: Arc<Network>,
    node: NodeId,
    next_id: AtomicU64,
    /// In-flight requests by correlation id. `None` once the router has
    /// exited: nothing sent after that could ever be answered.
    pending: Mutex<Option<HashMap<u64, PendingSlot>>>,
    shutdown: AtomicBool,
    obs: RpcObs,
}

impl ClientShared {
    /// The one send primitive: registers `on_done` under a fresh
    /// correlation id and sends the request. `on_done` is called exactly
    /// once — by the router with the response, by the router with
    /// [`RpcError::Timeout`] if `deadline` passes first, or right here if
    /// the request cannot be sent, in which case the error is also
    /// returned. A [`cancel`](ClientShared::cancel)led request is never
    /// answered at all.
    fn start(
        &self,
        dst: NodeId,
        payload: Vec<u8>,
        deadline: Option<Instant>,
        on_done: OnDone,
    ) -> Result<u64, RpcError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.obs.calls.inc();
        let slot = PendingSlot {
            deadline,
            // Stamped only while the global registry has timing armed
            // (counters stay live either way).
            started: repdir_obs::global().timing_armed().then(Instant::now),
            on_done,
        };
        let refused = match self.pending.lock().as_mut() {
            Some(slots) => slots.insert(id, slot),
            None => Some(slot),
        };
        let failed = if let Some(slot) = refused {
            Some((slot, RpcError::Timeout))
        } else if self.net.send(self.node, dst, MsgKind::Request(id), payload) {
            None
        } else {
            self.obs.unreachable.inc();
            self.take(id).map(|slot| (slot, RpcError::Unreachable(dst)))
        };
        match failed {
            None => Ok(id),
            Some((slot, e)) => {
                (slot.on_done)(Err(e.clone()));
                Err(e)
            }
        }
    }

    fn take(&self, id: u64) -> Option<PendingSlot> {
        self.pending.lock().as_mut()?.remove(&id)
    }

    /// Abandons a request: its eventual response is discarded at the router
    /// by correlation id, and its callback is dropped uncalled.
    fn cancel(&self, id: u64) {
        drop(self.take(id));
    }

    /// Router: hands a response to the request it answers. An unknown id is
    /// a stale response to an abandoned call, or a duplicate.
    fn deliver(&self, id: u64, payload: Vec<u8>) {
        if let Some(slot) = self.take(id) {
            self.obs.replies.inc();
            if let Some(started) = slot.started {
                self.obs.reply_us.record(started.elapsed());
            }
            (slot.on_done)(Ok(payload));
        }
    }

    /// Router: fails every request whose deadline has passed and returns how
    /// long it may sleep before the next one is due.
    fn expire(&self, now: Instant) -> Duration {
        let mut wait = ROUTER_POLL;
        let mut expired = Vec::new();
        if let Some(slots) = self.pending.lock().as_mut() {
            let due: Vec<u64> = slots
                .iter()
                .filter(|(_, slot)| slot.deadline.is_some_and(|deadline| deadline <= now))
                .map(|(&id, _)| id)
                .collect();
            expired.extend(due.into_iter().filter_map(|id| slots.remove(&id)));
            for deadline in slots.values().filter_map(|slot| slot.deadline) {
                wait = wait.min(deadline - now);
            }
        }
        for slot in expired {
            self.obs.timeouts.inc();
            (slot.on_done)(Err(RpcError::Timeout));
        }
        wait
    }

    /// Router exit: every request still pending is answered with
    /// [`RpcError::Timeout`], and later ones are refused the same way.
    fn close(&self) {
        let orphaned = self.pending.lock().take();
        for slot in orphaned.into_iter().flat_map(HashMap::into_values) {
            (slot.on_done)(Err(RpcError::Timeout));
        }
    }
}

/// A client that issues calls from its own node.
///
/// Responses are matched to calls by correlation id in a dedicated router
/// thread, so concurrent calls from many threads — or many requests started
/// from one thread — never steal or discard each other's replies. Stale
/// responses (from calls that already timed out and unregistered) are
/// dropped at the router, so a late reply can never be mistaken for the
/// answer to a newer call.
///
/// Every way of calling — [`call`](RpcClient::call),
/// [`call_async`](RpcClient::call_async), [`scatter`](RpcClient::scatter) —
/// is a thin user of one primitive, [`start`](RpcClient::start).
pub struct RpcClient {
    shared: Arc<ClientShared>,
}

impl RpcClient {
    /// Creates a client registered as `node` and spawns its response
    /// router.
    pub fn new(net: Arc<Network>, node: NodeId) -> Self {
        let endpoint = net.register(node);
        let shared = Arc::new(ClientShared {
            net,
            node,
            next_id: AtomicU64::new(1),
            pending: Mutex::new(Some(HashMap::new())),
            shutdown: AtomicBool::new(false),
            obs: RpcObs::new(),
        });
        let router = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("repdir-rpc-router-{node}"))
            .spawn(move || route_responses(endpoint, router))
            .expect("spawn rpc router thread");
        RpcClient { shared }
    }

    /// This client's node id.
    pub fn node(&self) -> NodeId {
        self.shared.node
    }

    /// Sends `payload` to `dst` and returns at once; `on_done` is called
    /// exactly once with the outcome, on the router thread — or right here
    /// if `dst` never registered ([`RpcError::Unreachable`]). With a
    /// `deadline`, a request still unanswered when it passes is answered
    /// with [`RpcError::Timeout`] (checked at the router's poll granularity,
    /// so up to 25 ms late) and a later response is discarded. Any number
    /// of requests may be in flight at once; `on_done` must not block.
    pub fn start(
        &self,
        dst: NodeId,
        payload: Vec<u8>,
        deadline: Option<Instant>,
        on_done: impl FnOnce(RpcResult) + Send + 'static,
    ) {
        // The error, if any, has already been handed to `on_done`.
        let _ = self.shared.start(dst, payload, deadline, Box::new(on_done));
    }

    /// Sends `payload` to `dst` and blocks for the matching response.
    ///
    /// Safe to call from many threads at once: each call's response routes
    /// to it alone.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] if no matching response arrives in time;
    /// [`RpcError::Unreachable`] if `dst` never registered.
    pub fn call(&self, dst: NodeId, payload: Vec<u8>, timeout: Duration) -> RpcResult {
        self.call_async(dst, payload)?.wait(timeout)
    }

    /// Sends `payload` to `dst` without waiting; the returned handle
    /// collects the response later. Any number of calls may be in flight
    /// at once.
    ///
    /// # Errors
    ///
    /// [`RpcError::Unreachable`] if `dst` never registered (detected at
    /// send time; timeouts surface from [`PendingReply::wait`]).
    pub fn call_async(&self, dst: NodeId, payload: Vec<u8>) -> Result<PendingReply, RpcError> {
        let (tx, rx) = mpsc::channel();
        let on_done = Box::new(move |reply| {
            // The waiter may have just timed out and dropped its receiver;
            // that loss is indistinguishable from a late reply.
            let _ = tx.send(reply);
        });
        let id = self.shared.start(dst, payload, None, on_done)?;
        Ok(PendingReply {
            id,
            rx,
            shared: Arc::clone(&self.shared),
        })
    }

    /// Opens a wave with every request in flight at once and returns its
    /// gather handle, which yields replies in **completion order** — the
    /// scatter half of scatter-gather. Requests to unregistered
    /// destinations fail immediately and are yielded (as
    /// [`RpcError::Unreachable`]) before any network reply. Further
    /// requests may [`push`](Scatter::push) into the open wave.
    pub fn scatter(&self, requests: Vec<(NodeId, Vec<u8>)>) -> Scatter {
        let (tx, rx) = mpsc::channel();
        let mut wave = Scatter {
            shared: Arc::clone(&self.shared),
            tx,
            rx,
            slots: Vec::with_capacity(requests.len()),
            outstanding: 0,
        };
        for (dst, payload) in requests {
            wave.push(dst, payload);
        }
        wave
    }
}

impl Drop for RpcClient {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

impl fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let in_flight = self.shared.pending.lock().as_ref().map_or(0, HashMap::len);
        f.debug_struct("RpcClient")
            .field("node", &self.shared.node)
            .field("in_flight", &in_flight)
            .finish()
    }
}

fn route_responses(endpoint: Endpoint, shared: Arc<ClientShared>) {
    let mut wait = ROUTER_POLL;
    while !shared.shutdown.load(Ordering::SeqCst) {
        match endpoint.recv_timeout(wait) {
            Ok(env) => {
                // Requests addressed to a pure client are dropped.
                if let MsgKind::Response(id) = env.kind {
                    shared.deliver(id, env.payload);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            // Mailbox replaced (node re-registered): this router is orphaned.
            Err(RecvTimeoutError::Disconnected) => break,
        }
        wait = shared.expire(Instant::now());
    }
    shared.close();
}

/// One in-flight call created by [`RpcClient::call_async`].
///
/// Dropping the handle abandons the call; its eventual response is
/// discarded at the router by correlation id.
pub struct PendingReply {
    id: u64,
    rx: Receiver<RpcResult>,
    shared: Arc<ClientShared>,
}

impl PendingReply {
    /// Blocks until the response arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] if no response arrived in time (the call is
    /// unregistered; a later reply will be discarded).
    pub fn wait(&self, timeout: Duration) -> RpcResult {
        if let Ok(reply) = self.rx.recv_timeout(timeout) {
            return reply;
        }
        self.shared.cancel(self.id);
        // A response routed between the timeout and the cancel above still
        // counts as delivered.
        self.rx.try_recv().unwrap_or_else(|_| {
            self.shared.obs.timeouts.inc();
            Err(RpcError::Timeout)
        })
    }
}

impl Drop for PendingReply {
    fn drop(&mut self) {
        self.shared.cancel(self.id);
    }
}

impl fmt::Debug for PendingReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingReply")
            .field("id", &self.id)
            .finish()
    }
}

/// Where one request of a [`Scatter`] stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Sent under this correlation id; no outcome yet.
    InFlight(u64),
    /// Could not be sent; its failure is queued and not yet yielded.
    Failed,
    /// Its outcome has been yielded.
    Yielded,
}

/// An open wave of requests: the gather handle returned by
/// [`RpcClient::scatter`]. Requests are numbered in the order they joined.
pub struct Scatter {
    shared: Arc<ClientShared>,
    tx: Sender<(usize, RpcResult)>,
    rx: Receiver<(usize, RpcResult)>,
    slots: Vec<Slot>,
    /// Requests whose outcome has not been yielded yet.
    outstanding: usize,
}

impl Scatter {
    /// Adds a request to the open wave as the next index. Returns whether
    /// it is in flight; `false` means `dst` never registered and the
    /// request's [`RpcError::Unreachable`] is already queued to be yielded.
    pub fn push(&mut self, dst: NodeId, payload: Vec<u8>) -> bool {
        let index = self.slots.len();
        let tx = self.tx.clone();
        let on_done = Box::new(move |reply| {
            let _ = tx.send((index, reply));
        });
        let slot = match self.shared.start(dst, payload, None, on_done) {
            Ok(id) => Slot::InFlight(id),
            Err(_) => Slot::Failed,
        };
        self.slots.push(slot);
        self.outstanding += 1;
        slot != Slot::Failed
    }

    /// Number of requests not yet yielded.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Yields the next settled request as `(request index, result)`, in
    /// completion order, or `None` if nothing settles within `timeout` —
    /// every request stays in flight.
    fn poll(&mut self, timeout: Duration) -> Option<(usize, RpcResult)> {
        let until = Instant::now() + timeout;
        loop {
            let wait = until.saturating_duration_since(Instant::now());
            let (index, result) = self.rx.recv_timeout(wait).ok()?;
            // A reply routed while `recv_timeout` was failing the request.
            if self.slots[index] != Slot::Yielded {
                self.slots[index] = Slot::Yielded;
                self.outstanding -= 1;
                return Some((index, result));
            }
        }
    }

    /// Yields the next settled request as `(request index, result)`, in
    /// completion order. Returns `None` once every request has been
    /// yielded. If `timeout` elapses with no arrival, **one** outstanding
    /// request (the lowest index) is failed with [`RpcError::Timeout`] and
    /// yielded, so repeated calls always terminate.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<(usize, RpcResult)> {
        if self.outstanding == 0 {
            return None;
        }
        if let Some(settled) = self.poll(timeout) {
            return Some(settled);
        }
        // Failures are queued at once, so whatever is left is in flight.
        let (index, id) = self
            .slots
            .iter()
            .enumerate()
            .find_map(|(index, slot)| match slot {
                Slot::InFlight(id) => Some((index, *id)),
                _ => None,
            })?;
        self.shared.cancel(id);
        self.shared.obs.timeouts.inc();
        self.slots[index] = Slot::Yielded;
        self.outstanding -= 1;
        Some((index, Err(RpcError::Timeout)))
    }

    /// Gathers every remaining reply under one overall `deadline`,
    /// returning results indexed by request position.
    pub fn gather(mut self, deadline: Duration) -> Vec<RpcResult> {
        let mut out: Vec<RpcResult> = Vec::new();
        out.resize_with(self.slots.len(), || Err(RpcError::Timeout));
        let until = Instant::now() + deadline;
        while let Some((index, result)) =
            self.recv_timeout(until.saturating_duration_since(Instant::now()))
        {
            out[index] = result;
        }
        out
    }
}

impl Drop for Scatter {
    fn drop(&mut self) {
        for slot in &self.slots {
            if let Slot::InFlight(id) = slot {
                self.shared.cancel(*id);
            }
        }
    }
}

impl fmt::Debug for Scatter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scatter")
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

/// Control handle for a running [`serve`] loop.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Asks the serving thread to exit after its current poll interval.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Spawns a thread serving requests arriving at `node`: each request's
/// payload is passed to `handler` and the returned bytes are sent back as
/// the response. Non-request messages are ignored.
pub fn serve<F>(net: Arc<Network>, node: NodeId, handler: F) -> ServerHandle
where
    F: Fn(&[u8]) -> Vec<u8> + Send + 'static,
{
    let endpoint = net.register(node);
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let served = repdir_obs::global().counter("rpc.served");
    std::thread::Builder::new()
        .name(format!("repdir-rpc-{node}"))
        .spawn(move || loop {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            match endpoint.recv_timeout(Duration::from_millis(25)) {
                Ok(env) => {
                    if let MsgKind::Request(id) = env.kind {
                        served.inc();
                        let reply = handler(&env.payload);
                        net.send(node, env.src, MsgKind::Response(id), reply);
                    }
                }
                Err(_) => continue,
            }
        })
        .expect("spawn rpc server thread");
    ServerHandle { stop }
}

/// Frames several payloads into one envelope body:
/// `count:u32le | (len:u32le | bytes)*`. The rpc layer is payload-agnostic,
/// so batched scatter envelopes share this framing and typed codecs embed
/// it under their own envelope tag. Inverse of [`unpack_parts`].
pub fn pack_parts(parts: &[Vec<u8>]) -> Vec<u8> {
    let body: usize = parts.iter().map(|p| 4 + p.len()).sum();
    let mut out = Vec::with_capacity(4 + body);
    out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for part in parts {
        out.extend_from_slice(&(part.len() as u32).to_le_bytes());
        out.extend_from_slice(part);
    }
    out
}

/// Splits an envelope body produced by [`pack_parts`] back into its
/// payloads. Returns `None` on malformed input: truncated lengths, short
/// parts, or trailing bytes beyond the declared count.
pub fn unpack_parts(mut bytes: &[u8]) -> Option<Vec<Vec<u8>>> {
    let take_u32 = |b: &mut &[u8]| -> Option<u32> {
        let (head, rest) = b.split_first_chunk::<4>()?;
        *b = rest;
        Some(u32::from_le_bytes(*head))
    };
    let count = take_u32(&mut bytes)? as usize;
    // Each part costs at least its 4-byte length prefix: a count larger
    // than the remaining bytes can support is rejected before allocating.
    if count > bytes.len() / 4 {
        return None;
    }
    let mut parts = Vec::with_capacity(count);
    for _ in 0..count {
        let len = take_u32(&mut bytes)? as usize;
        if bytes.len() < len {
            return None;
        }
        let (part, rest) = bytes.split_at(len);
        parts.push(part.to_vec());
        bytes = rest;
    }
    if !bytes.is_empty() {
        return None;
    }
    Some(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{FaultPlan, LatencyModel};

    const TICK: Duration = Duration::from_secs(2);

    #[test]
    fn echo_round_trip() {
        let net = Arc::new(Network::new(1));
        let _server = serve(Arc::clone(&net), NodeId(1), |req| {
            let mut out = req.to_vec();
            out.reverse();
            out
        });
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        let reply = client.call(NodeId(1), vec![1, 2, 3], TICK).unwrap();
        assert_eq!(reply, vec![3, 2, 1]);
        assert_eq!(client.node(), NodeId(0));
    }

    #[test]
    fn concurrent_clients_share_a_server() {
        let net = Arc::new(Network::new(2));
        let _server = serve(Arc::clone(&net), NodeId(9), |req| req.to_vec());
        let mut handles = Vec::new();
        for i in 0..4u32 {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let client = RpcClient::new(net, NodeId(i));
                for round in 0..20u8 {
                    let payload = vec![i as u8, round];
                    let reply = client.call(NodeId(9), payload.clone(), TICK).unwrap();
                    assert_eq!(reply, payload);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_calls_through_one_client() {
        // The scatter-gather prerequisite: many threads sharing ONE client
        // must each get their own reply, never a neighbor's.
        let net = Arc::new(Network::new(20));
        let _server = serve(Arc::clone(&net), NodeId(9), |req| req.to_vec());
        let client = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let client = Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                for round in 0..25u8 {
                    let payload = vec![t, round];
                    let reply = client.call(NodeId(9), payload.clone(), TICK).unwrap();
                    assert_eq!(reply, payload, "thread {t} round {round}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn call_async_overlaps_requests() {
        // Two calls in flight at once over a latency fabric: total wall
        // clock is ~one latency, not two.
        let net = Arc::new(Network::new(21));
        let _server = serve(Arc::clone(&net), NodeId(1), |req| req.to_vec());
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        net.set_fault_plan(FaultPlan {
            latency: LatencyModel::fixed(Duration::from_millis(40)),
            ..FaultPlan::default()
        });
        let start = Instant::now();
        let a = client.call_async(NodeId(1), vec![1]).unwrap();
        let b = client.call_async(NodeId(1), vec![2]).unwrap();
        assert_eq!(a.wait(TICK).unwrap(), vec![1]);
        assert_eq!(b.wait(TICK).unwrap(), vec![2]);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(150),
            "two overlapped 80ms round trips took {elapsed:?}"
        );
    }

    #[test]
    fn scatter_yields_replies_as_they_arrive() {
        let net = Arc::new(Network::new(22));
        let mut servers = Vec::new();
        for n in 1..=3u32 {
            servers.push(serve(Arc::clone(&net), NodeId(n), move |req| {
                let mut out = req.to_vec();
                out.push(n as u8);
                out
            }));
        }
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        let mut scatter = client.scatter(vec![
            (NodeId(1), vec![10]),
            (NodeId(2), vec![20]),
            (NodeId(3), vec![30]),
        ]);
        assert_eq!(scatter.outstanding(), 3);
        let mut seen = [false; 3];
        while let Some((index, result)) = scatter.recv_timeout(TICK) {
            let payload = result.unwrap();
            assert_eq!(payload, vec![(index as u8 + 1) * 10, index as u8 + 1]);
            seen[index] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn scatter_reports_unreachable_immediately_and_gathers_rest() {
        let net = Arc::new(Network::new(23));
        let _server = serve(Arc::clone(&net), NodeId(1), |req| req.to_vec());
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        let scatter = client.scatter(vec![
            (NodeId(1), vec![7]),
            (NodeId(99), vec![8]), // never registered
        ]);
        let results = scatter.gather(TICK);
        assert_eq!(results[0], Ok(vec![7]));
        assert_eq!(results[1], Err(RpcError::Unreachable(NodeId(99))));
    }

    #[test]
    fn requests_join_an_open_wave() {
        let net = Arc::new(Network::new(24));
        let _server = serve(Arc::clone(&net), NodeId(1), |req| req.to_vec());
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        let mut wave = client.scatter(vec![(NodeId(1), vec![1])]);
        assert!(wave.push(NodeId(1), vec![2]), "sent");
        assert!(!wave.push(NodeId(99), vec![3]), "never registered");
        assert_eq!(wave.outstanding(), 3);
        let results = wave.gather(TICK);
        assert_eq!(results[0], Ok(vec![1]));
        assert_eq!(results[1], Ok(vec![2]));
        assert_eq!(results[2], Err(RpcError::Unreachable(NodeId(99))));
    }

    #[test]
    fn started_request_is_answered_exactly_once_by_reply_or_deadline() {
        let net = Arc::new(Network::new(25));
        let _server = serve(Arc::clone(&net), NodeId(1), |req| req.to_vec());
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        let (tx, rx) = mpsc::channel();
        let start = |payload: Vec<u8>, timeout: Duration| {
            let tx = tx.clone();
            let deadline = Some(Instant::now() + timeout);
            client.start(NodeId(1), payload, deadline, move |reply| {
                tx.send(reply).unwrap();
            });
        };
        start(vec![1], TICK);
        assert_eq!(rx.recv_timeout(TICK), Ok(Ok(vec![1])));
        // Nobody answers: the router fails the request at its deadline.
        net.partition(&[&[NodeId(0)], &[NodeId(1)]]);
        start(vec![2], Duration::from_millis(40));
        assert_eq!(rx.recv_timeout(TICK), Ok(Err(RpcError::Timeout)));
        net.heal();
        start(vec![3], TICK);
        assert_eq!(rx.recv_timeout(TICK), Ok(Ok(vec![3])));
        // An unregistered destination is answered before `start` returns.
        client.start(NodeId(99), vec![], None, {
            let tx = tx.clone();
            move |reply| tx.send(reply).unwrap()
        });
        assert_eq!(rx.try_recv(), Ok(Err(RpcError::Unreachable(NodeId(99)))));
        assert!(rx.try_recv().is_err(), "one outcome per request");
    }

    #[test]
    fn dropping_the_client_answers_what_is_still_pending() {
        let net = Arc::new(Network::new(26));
        let _server = serve(Arc::clone(&net), NodeId(1), |req| req.to_vec());
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        net.partition(&[&[NodeId(0)], &[NodeId(1)]]);
        let (tx, rx) = mpsc::channel();
        client.start(NodeId(1), vec![1], None, move |reply| {
            let _ = tx.send(reply);
        });
        drop(client);
        assert_eq!(rx.recv_timeout(TICK), Ok(Err(RpcError::Timeout)));
    }

    #[test]
    fn timeout_when_server_partitioned() {
        let net = Arc::new(Network::new(3));
        let _server = serve(Arc::clone(&net), NodeId(1), |req| req.to_vec());
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        net.partition(&[&[NodeId(0)], &[NodeId(1)]]);
        let err = client
            .call(NodeId(1), vec![1], Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        // Heal: calls work again, and the stale (nonexistent) response
        // cannot confuse the new call.
        net.heal();
        assert!(client.call(NodeId(1), vec![2], TICK).is_ok());
    }

    #[test]
    fn unreachable_destination() {
        let net = Arc::new(Network::new(4));
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        let err = client.call(NodeId(42), vec![], TICK).unwrap_err();
        assert_eq!(err, RpcError::Unreachable(NodeId(42)));
    }

    #[test]
    fn stale_response_discarded_after_timeout() {
        // Server responds slower than the first call's deadline; the second
        // call must not consume the first call's late reply.
        let net = Arc::new(Network::new(5));
        net.set_fault_plan(FaultPlan {
            latency: LatencyModel::fixed(Duration::from_millis(40)),
            ..FaultPlan::default()
        });
        let _server = serve(Arc::clone(&net), NodeId(1), |req| req.to_vec());
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        let err = client
            .call(NodeId(1), vec![111], Duration::from_millis(10))
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        let reply = client.call(NodeId(1), vec![222], TICK).unwrap();
        assert_eq!(reply, vec![222], "late reply 111 must not leak into call 2");
    }

    #[test]
    fn server_stops_on_request() {
        let net = Arc::new(Network::new(6));
        let server = serve(Arc::clone(&net), NodeId(1), |req| req.to_vec());
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        client.call(NodeId(1), vec![1], TICK).unwrap();
        server.stop();
        std::thread::sleep(Duration::from_millis(60));
        // Once the serving thread exits its mailbox closes: depending on
        // timing the call fails unreachable (closed mailbox seen at send)
        // or times out (request sat in the dying mailbox).
        let err = client
            .call(NodeId(1), vec![2], Duration::from_millis(80))
            .unwrap_err();
        assert!(
            matches!(err, RpcError::Timeout | RpcError::Unreachable(_)),
            "{err:?}"
        );
    }

    #[test]
    fn survives_duplicated_requests() {
        // Duplicated requests produce duplicated responses; the client uses
        // the first and the router discards the duplicate (its correlation
        // id is already unregistered).
        let net = Arc::new(Network::new(7));
        net.set_fault_plan(FaultPlan {
            duplicate_prob: 1.0,
            ..FaultPlan::default()
        });
        let _server = serve(Arc::clone(&net), NodeId(1), |req| req.to_vec());
        let client = RpcClient::new(Arc::clone(&net), NodeId(0));
        for i in 0..10u8 {
            let reply = client.call(NodeId(1), vec![i], TICK).unwrap();
            assert_eq!(reply, vec![i]);
        }
    }

    #[test]
    fn client_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        // The client itself is shared across fan-out threads; the one-shot
        // handles only move to a single waiter.
        assert_send_sync::<RpcClient>();
        assert_send::<PendingReply>();
        assert_send::<Scatter>();
    }

    #[test]
    fn parts_round_trip() {
        let cases: Vec<Vec<Vec<u8>>> = vec![
            vec![],
            vec![vec![]],
            vec![vec![1, 2, 3]],
            vec![vec![0xff; 300], vec![], vec![7]],
        ];
        for parts in cases {
            let packed = pack_parts(&parts);
            assert_eq!(unpack_parts(&packed), Some(parts));
        }
    }

    #[test]
    fn malformed_part_framing_rejected() {
        let packed = pack_parts(&[vec![1, 2], vec![3]]);
        // Every strict prefix is truncated somewhere: part count, a length,
        // or part bytes.
        for cut in 0..packed.len() {
            assert_eq!(unpack_parts(&packed[..cut]), None, "prefix {cut}");
        }
        // Trailing junk beyond the declared count is rejected too.
        let mut long = packed.clone();
        long.push(0);
        assert_eq!(unpack_parts(&long), None);
        // A count the body cannot possibly satisfy is rejected before any
        // allocation.
        let absurd = u32::MAX.to_le_bytes().to_vec();
        assert_eq!(unpack_parts(&absurd), None);
    }
}
