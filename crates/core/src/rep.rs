//! Directory representatives: the abstract interface the suite algorithm
//! talks to, and a simple in-process implementation.
//!
//! In the paper (§3.1) "each directory representative is an instance of an
//! abstract object that stores one copy of the directory data", reached via
//! remote procedure calls (`Send(...) to (...)`). [`RepClient`] is that RPC
//! surface. The suite algorithm is generic over it, so the same code runs
//! against:
//!
//! * [`LocalRep`] — an in-process representative (used by the paper-style
//!   simulations, where only algorithmic counts matter),
//! * `repdir-replica`'s transactional representative (range locks + undo
//!   logging + write-ahead log), served directly or across `repdir-net`'s
//!   simulated network.

use std::fmt;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use crate::channel::Sender;
use crate::error::RepError;
use crate::gapmap::{CoalesceOutcome, GapMap, InsertOutcome, LookupReply, NeighborReply};
use crate::key::Key;
use crate::value::Value;
use crate::version::Version;

/// Identifies one representative within a suite.
///
/// Representatives are numbered `0..n` in suite order. The paper's figures
/// label them A, B, C, …; [`RepId::letter`] renders that form.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RepId(pub u32);

impl RepId {
    /// Renders the id in the paper's figure style: `0 → "A"`, `1 → "B"`, …
    /// Ids past `25` fall back to `R<n>`.
    pub fn letter(self) -> String {
        if self.0 < 26 {
            char::from(b'A' + self.0 as u8).to_string()
        } else {
            format!("R{}", self.0)
        }
    }
}

impl fmt::Debug for RepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rep{}", self.0)
    }
}

impl fmt::Display for RepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

/// Result alias for representative operations.
pub type RepResult<T> = Result<T, RepError>;

/// One sub-request inside a batched scatter envelope
/// ([`RepRequest::Batch`]). Only the operations the suite packs together on
/// its bulk-walk hot paths are representable: a point lookup, the §4
/// neighbor chains, the versioned insert that bulk ingest scatters, and the
/// coalesce that closes a delete's copy envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchRequest {
    /// `DirRepLookup(x)`.
    Lookup(Key),
    /// Up to `limit` successive `DirRepPredecessor` results from the key.
    PredecessorChain(Key, usize),
    /// Up to `limit` successive `DirRepSuccessor` results from the key.
    SuccessorChain(Key, usize),
    /// `DirRepInsert(x, v, z)` — the write half of bulk ingest. Carries the
    /// explicit version the suite assigned, so replaying the same envelope
    /// after a session re-validation overwrites idempotently.
    Insert(Key, Version, Value),
    /// `DirRepCoalesce(l, h, v)` — rides behind the neighbour copies of a
    /// delete, so a member lacking a neighbour costs no extra round.
    Coalesce(Key, Key, Version),
}

impl BatchRequest {
    /// The sub-request as a stand-alone request.
    pub fn as_request(&self) -> RepRequest<'_> {
        match self {
            BatchRequest::Lookup(key) => RepRequest::Lookup(key),
            BatchRequest::PredecessorChain(key, limit) => RepRequest::PredecessorChain(key, *limit),
            BatchRequest::SuccessorChain(key, limit) => RepRequest::SuccessorChain(key, *limit),
            BatchRequest::Insert(key, version, value) => RepRequest::Insert(key, *version, value),
            BatchRequest::Coalesce(low, high, version) => RepRequest::Coalesce(low, high, *version),
        }
    }
}

/// The reply to one [`BatchRequest`], in request order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchReply {
    /// Reply to [`BatchRequest::Lookup`].
    Lookup(LookupReply),
    /// Reply to either chain request.
    Chain(Vec<NeighborReply>),
    /// Reply to [`BatchRequest::Insert`].
    Insert(InsertOutcome),
    /// Reply to [`BatchRequest::Coalesce`].
    Coalesce(CoalesceOutcome),
}

/// One request of the representative RPC surface (paper Fig. 6), as data:
/// what [`RepClient::execute`] runs and [`RepClient::start`] puts in flight.
/// Borrowed and `Copy`, so one request is handed to every member of a wave
/// without cloning keys or values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepRequest<'a> {
    /// Cheap reachability probe used during quorum collection.
    Ping,
    /// `DirRepLookup(x)` — entry version and value, or containing-gap
    /// version. Sets a `RepLookup(x, x)` lock in transactional
    /// implementations.
    Lookup(&'a Key),
    /// Up to `limit` *successive* `DirRepPredecessor` results in one
    /// message — the §4 batching optimization ("three successive
    /// DirRepPredecessor … in a single message"). Each element sets
    /// `RepLookup(y, x)` where `y` is the key returned.
    PredecessorChain(&'a Key, usize),
    /// Up to `limit` successive `DirRepSuccessor` results (mirror image).
    SuccessorChain(&'a Key, usize),
    /// `DirRepInsert(x, v, z)` — create or overwrite the entry. Sets
    /// `RepModify(x, x)`.
    Insert(&'a Key, Version, &'a Value),
    /// `DirRepCoalesce(l, h, v)` — delete entries strictly inside `(l, h)`
    /// and give the resulting gap version `v`. Sets `RepModify(l, h)`.
    Coalesce(&'a Key, &'a Key, Version),
    /// Several sub-requests as one envelope, answered in request order. The
    /// first failing sub-request fails the whole envelope: callers treat an
    /// envelope like any other member RPC.
    Batch(&'a [BatchRequest]),
}

/// The reply to a [`RepRequest`]; the variant mirrors the request's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepReply {
    /// Reply to [`RepRequest::Ping`].
    Pong,
    /// Reply to [`RepRequest::Lookup`].
    Lookup(LookupReply),
    /// Reply to either chain request.
    Chain(Vec<NeighborReply>),
    /// Reply to [`RepRequest::Insert`].
    Insert(InsertOutcome),
    /// Reply to [`RepRequest::Coalesce`].
    Coalesce(CoalesceOutcome),
    /// Reply to [`RepRequest::Batch`].
    Batch(Vec<BatchReply>),
}

/// Typed accessors: each unwraps its variant and reports any other as a
/// protocol violation ([`RepError::Storage`]), so a representative that
/// answers the wrong question is an error at the caller, never a panic.
impl RepReply {
    fn unexpected<T>(self) -> RepResult<T> {
        Err(RepError::Storage(format!(
            "protocol violation: unexpected reply {self:?}"
        )))
    }

    /// The lookup reply.
    pub fn lookup(self) -> RepResult<LookupReply> {
        match self {
            RepReply::Lookup(reply) => Ok(reply),
            other => other.unexpected(),
        }
    }

    /// The neighbor chain.
    pub fn chain(self) -> RepResult<Vec<NeighborReply>> {
        match self {
            RepReply::Chain(chain) => Ok(chain),
            other => other.unexpected(),
        }
    }

    /// The insert outcome.
    pub fn insert(self) -> RepResult<InsertOutcome> {
        match self {
            RepReply::Insert(outcome) => Ok(outcome),
            other => other.unexpected(),
        }
    }

    /// The coalesce outcome.
    pub fn coalesce(self) -> RepResult<CoalesceOutcome> {
        match self {
            RepReply::Coalesce(outcome) => Ok(outcome),
            other => other.unexpected(),
        }
    }

    /// The envelope's replies, in request order.
    pub fn batch(self) -> RepResult<Vec<BatchReply>> {
        match self {
            RepReply::Batch(parts) => Ok(parts),
            other => other.unexpected(),
        }
    }

    /// This reply as one part of an envelope's answer.
    pub fn into_part(self) -> RepResult<BatchReply> {
        match self {
            RepReply::Lookup(reply) => Ok(BatchReply::Lookup(reply)),
            RepReply::Chain(chain) => Ok(BatchReply::Chain(chain)),
            RepReply::Insert(outcome) => Ok(BatchReply::Insert(outcome)),
            RepReply::Coalesce(outcome) => Ok(BatchReply::Coalesce(outcome)),
            other => other.unexpected(),
        }
    }
}

/// One settled request, as a wave's completion queue receives it.
#[derive(Debug)]
pub struct Done {
    /// The tag the request was started under.
    pub slot: u64,
    /// The reply, or why there is none.
    pub result: RepResult<RepReply>,
    /// Time from start to completion, measured where the reply landed (so a
    /// completion harvested late still reports the member's real latency).
    /// `None` when the wave runs untimed.
    pub elapsed: Option<Duration>,
}

/// The one-shot handle a started request is answered through: whoever ends
/// up holding it — the client itself, an RPC router thread, a test double's
/// timer — calls [`complete`](Completion::complete) exactly once, from any
/// thread. Dropping it unanswered completes the request as
/// [`RepError::Unavailable`], so a wave never waits on a request that can
/// no longer be answered.
#[derive(Debug)]
pub struct Completion {
    slot: u64,
    started: Option<Instant>,
    queue: Option<Sender<Done>>,
}

impl Completion {
    /// A completion delivering to `queue` under the tag `slot`; `timed`
    /// stamps the start so the [`Done`] carries the elapsed time.
    pub fn new(slot: u64, timed: bool, queue: Sender<Done>) -> Self {
        Completion {
            slot,
            started: timed.then(Instant::now),
            queue: Some(queue),
        }
    }

    /// Settles the request.
    pub fn complete(mut self, result: RepResult<RepReply>) {
        self.settle(result);
    }

    fn settle(&mut self, result: RepResult<RepReply>) {
        if let Some(queue) = self.queue.take() {
            // A wave that stopped listening (suite dropped) is not an error.
            let _ = queue.send(Done {
                slot: self.slot,
                result,
                elapsed: self.started.map(|at| at.elapsed()),
            });
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        self.settle(Err(RepError::Unavailable));
    }
}

/// The remote-procedure-call surface of a directory representative
/// (paper Fig. 6).
///
/// An implementation provides [`execute`](RepClient::execute) — run one
/// [`RepRequest`] and block for its reply — and everything else follows: the
/// per-operation methods are typed sugar over it, and
/// [`start`](RepClient::start), the entry point the suite's wave executor
/// uses, defaults to executing inline. In-process representatives keep that
/// default (a "message" is a method call, so the reply exists by the time
/// `start` returns); networked ones override it to send the request and
/// return at once, so the coordinator puts a whole wave in flight from one
/// thread and a quorum round costs the *slowest* member's latency, not the
/// sum. The `Send + Sync` supertraits let one client be shared by concurrent
/// transactions.
///
/// Every request may fail with [`RepError::Unavailable`] if the
/// representative is down or unreachable; the suite treats that as a vote it
/// cannot collect.
pub trait RepClient: Send + Sync {
    /// This representative's identity within the suite.
    fn id(&self) -> RepId;

    /// Runs one request and blocks for its reply.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] if the representative cannot currently
    /// serve requests, plus the operation's own errors.
    fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply>;

    /// Starts one request and returns without waiting for the reply; `done`
    /// is completed exactly once, on whichever thread the reply lands. The
    /// default executes inline, so the completion is queued before this
    /// returns. A panic in an inline `execute` propagates to the caller — it
    /// is a bug in this process, not a member failure — and the dropped
    /// `done` additionally scores the request as unavailable.
    fn start(&self, req: RepRequest<'_>, done: Completion) {
        done.complete(self.execute(req));
    }

    /// Executes an envelope's sub-requests one after another through
    /// [`execute`](RepClient::execute) — what [`RepRequest::Batch`] means
    /// for an in-process representative. Networked implementations instead
    /// pack the envelope into a single RPC frame.
    ///
    /// # Errors
    ///
    /// The first failing sub-request's error.
    fn execute_parts(&self, parts: &[BatchRequest]) -> RepResult<RepReply> {
        parts
            .iter()
            .map(|part| self.execute(part.as_request())?.into_part())
            .collect::<RepResult<_>>()
            .map(RepReply::Batch)
    }

    /// [`RepRequest::Ping`].
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] if the representative cannot currently
    /// serve requests.
    fn ping(&self) -> RepResult<()> {
        self.execute(RepRequest::Ping).map(drop)
    }

    /// [`RepRequest::Lookup`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn lookup(&self, key: &Key) -> RepResult<LookupReply> {
        self.execute(RepRequest::Lookup(key))?.lookup()
    }

    /// `DirRepPredecessor(x)` — greatest entry below `x` plus the
    /// intervening gap version: a predecessor chain of one.
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn predecessor(&self, key: &Key) -> RepResult<NeighborReply> {
        first_of(self.predecessor_chain(key, 1)?)
    }

    /// `DirRepSuccessor(x)` — least entry above `x` plus the intervening gap
    /// version: a successor chain of one.
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn successor(&self, key: &Key) -> RepResult<NeighborReply> {
        first_of(self.successor_chain(key, 1)?)
    }

    /// [`RepRequest::PredecessorChain`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn predecessor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        self.execute(RepRequest::PredecessorChain(key, limit))?
            .chain()
    }

    /// [`RepRequest::SuccessorChain`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn successor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        self.execute(RepRequest::SuccessorChain(key, limit))?
            .chain()
    }

    /// [`RepRequest::Insert`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn insert(&self, key: &Key, version: Version, value: &Value) -> RepResult<InsertOutcome> {
        self.execute(RepRequest::Insert(key, version, value))?
            .insert()
    }

    /// [`RepRequest::Coalesce`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn coalesce(&self, low: &Key, high: &Key, version: Version) -> RepResult<CoalesceOutcome> {
        self.execute(RepRequest::Coalesce(low, high, version))?
            .coalesce()
    }

    /// [`RepRequest::Batch`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn batch(&self, reqs: &[BatchRequest]) -> RepResult<Vec<BatchReply>> {
        self.execute(RepRequest::Batch(reqs))?.batch()
    }
}

fn first_of(chain: Vec<NeighborReply>) -> RepResult<NeighborReply> {
    chain
        .into_iter()
        .next()
        .ok_or_else(|| RepError::Storage("protocol violation: empty neighbor chain".into()))
}

/// Blanket implementations so `&C`, `Arc<C>`, … are themselves clients.
impl<T: RepClient + ?Sized> RepClient for &T {
    fn id(&self) -> RepId {
        (**self).id()
    }
    fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
        (**self).execute(req)
    }
    fn start(&self, req: RepRequest<'_>, done: Completion) {
        (**self).start(req, done)
    }
}

impl<T: RepClient + ?Sized> RepClient for Arc<T> {
    fn id(&self) -> RepId {
        (**self).id()
    }
    fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
        (**self).execute(req)
    }
    fn start(&self, req: RepRequest<'_>, done: Completion) {
        (**self).start(req, done)
    }
}

#[derive(Debug)]
struct LocalRepInner {
    state: GapMap,
    available: bool,
}

/// An in-process directory representative.
///
/// `LocalRep` executes each operation atomically under an internal lock and
/// supports failure injection via [`set_available`](LocalRep::set_available).
/// It is the representative used by the paper-style simulations (§4), where
/// the statistics of interest are algorithmic counts rather than wall-clock
/// behaviour. Clones share the same underlying state, like multiple client
/// stubs for one server.
///
/// # Examples
///
/// ```
/// use repdir_core::{Key, LocalRep, RepClient, Value, Version};
///
/// let rep = LocalRep::new(repdir_core::RepId(0));
/// rep.insert(&Key::from("a"), Version::new(1), &Value::from("A"))?;
/// assert!(rep.lookup(&Key::from("a"))?.is_present());
/// # Ok::<(), repdir_core::RepError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LocalRep {
    id: RepId,
    inner: Arc<RwLock<LocalRepInner>>,
}

impl LocalRep {
    /// Creates an empty, available representative.
    pub fn new(id: RepId) -> Self {
        LocalRep {
            id,
            inner: Arc::new(RwLock::new(LocalRepInner {
                state: GapMap::new(),
                available: true,
            })),
        }
    }

    /// Creates a representative with pre-loaded state (for tests and the
    /// worked figures of the paper).
    pub fn with_state(id: RepId, state: GapMap) -> Self {
        LocalRep {
            id,
            inner: Arc::new(RwLock::new(LocalRepInner {
                state,
                available: true,
            })),
        }
    }

    /// Injects or heals a failure: while unavailable, every operation —
    /// including [`ping`](RepClient::ping) — returns
    /// [`RepError::Unavailable`].
    pub fn set_available(&self, available: bool) {
        self.write().available = available;
    }

    /// Whether the representative is currently serving requests.
    pub fn is_available(&self) -> bool {
        self.read().available
    }

    /// Returns a copy of the representative's current state. Intended for
    /// test assertions and the simulation driver's statistics.
    pub fn snapshot(&self) -> GapMap {
        self.read().state.clone()
    }

    /// Runs a closure against the live state without copying (read-only).
    pub fn inspect<R>(&self, f: impl FnOnce(&GapMap) -> R) -> R {
        f(&self.read().state)
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.read().state.len()
    }

    /// Whether the representative stores no entries.
    pub fn is_empty(&self) -> bool {
        self.read().state.is_empty()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, LocalRepInner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, LocalRepInner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    fn check_up(inner: &LocalRepInner) -> RepResult<()> {
        if inner.available {
            Ok(())
        } else {
            Err(RepError::Unavailable)
        }
    }
}

impl RepClient for LocalRep {
    fn id(&self) -> RepId {
        self.id
    }

    fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
        match req {
            RepRequest::Insert(key, version, value) => {
                let mut g = self.write();
                Self::check_up(&g)?;
                let outcome = g.state.insert(key, version, value.clone())?;
                Ok(RepReply::Insert(outcome))
            }
            RepRequest::Coalesce(low, high, version) => {
                let mut g = self.write();
                Self::check_up(&g)?;
                Ok(RepReply::Coalesce(g.state.coalesce(low, high, version)?))
            }
            // Each sub-request takes the lock on its own, as separate
            // messages would.
            RepRequest::Batch(parts) => self.execute_parts(parts),
            RepRequest::Ping => Self::check_up(&self.read()).map(|()| RepReply::Pong),
            RepRequest::Lookup(key) => {
                let g = self.read();
                Self::check_up(&g)?;
                Ok(RepReply::Lookup(g.state.lookup(key)))
            }
            RepRequest::PredecessorChain(key, limit) => {
                let g = self.read();
                Self::check_up(&g)?;
                Ok(RepReply::Chain(g.state.predecessor_chain(key, limit)?))
            }
            RepRequest::SuccessorChain(key, limit) => {
                let g = self.read();
                Self::check_up(&g)?;
                Ok(RepReply::Chain(g.state.successor_chain(key, limit)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn rep_id_letters() {
        assert_eq!(RepId(0).letter(), "A");
        assert_eq!(RepId(2).letter(), "C");
        assert_eq!(RepId(25).letter(), "Z");
        assert_eq!(RepId(26).letter(), "R26");
        assert_eq!(format!("{:?}", RepId(3)), "rep3");
        assert_eq!(RepId(1).to_string(), "B");
    }

    #[test]
    fn local_rep_round_trip() {
        let rep = LocalRep::new(RepId(0));
        rep.ping().unwrap();
        rep.insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        let r = rep.lookup(&k("a")).unwrap();
        assert!(r.is_present());
        assert_eq!(r.version(), Version::new(1));
        assert_eq!(rep.len(), 1);
        assert!(!rep.is_empty());
    }

    #[test]
    fn unavailable_rep_fails_every_operation() {
        let rep = LocalRep::new(RepId(1));
        rep.insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        rep.set_available(false);
        assert!(!rep.is_available());
        assert_eq!(rep.ping(), Err(RepError::Unavailable));
        assert_eq!(rep.lookup(&k("a")), Err(RepError::Unavailable));
        assert_eq!(rep.predecessor(&k("z")), Err(RepError::Unavailable));
        assert_eq!(rep.successor(&Key::Low), Err(RepError::Unavailable));
        assert_eq!(
            rep.insert(&k("b"), Version::new(1), &Value::empty()),
            Err(RepError::Unavailable)
        );
        assert_eq!(
            rep.coalesce(&Key::Low, &Key::High, Version::new(1)),
            Err(RepError::Unavailable)
        );
        // Healing restores service with state intact.
        rep.set_available(true);
        assert!(rep.lookup(&k("a")).unwrap().is_present());
    }

    #[test]
    fn clones_share_state() {
        let rep = LocalRep::new(RepId(0));
        let stub = rep.clone();
        stub.insert(&k("x"), Version::new(1), &Value::from("X"))
            .unwrap();
        assert!(rep.lookup(&k("x")).unwrap().is_present());
    }

    #[test]
    fn snapshot_is_detached_copy() {
        let rep = LocalRep::new(RepId(0));
        rep.insert(&k("x"), Version::new(1), &Value::from("X"))
            .unwrap();
        let snap = rep.snapshot();
        rep.coalesce(&Key::Low, &Key::High, Version::new(2))
            .unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(rep.len(), 0);
        assert_eq!(rep.inspect(|s| s.len()), 0);
    }

    #[test]
    fn trait_usable_through_references_and_arcs() {
        fn exercise<C: RepClient>(c: C) {
            c.ping().unwrap();
            assert_eq!(c.id(), RepId(7));
        }
        let rep = LocalRep::new(RepId(7));
        exercise(&rep);
        exercise(Arc::new(rep.clone()));
        exercise(rep);
    }

    #[test]
    fn default_batch_matches_individual_calls() {
        let rep = LocalRep::new(RepId(0));
        rep.insert(&k("a"), Version::new(1), &Value::from("A"))
            .unwrap();
        rep.insert(&k("c"), Version::new(2), &Value::from("C"))
            .unwrap();
        let replies = rep
            .batch(&[
                BatchRequest::Lookup(k("a")),
                BatchRequest::SuccessorChain(Key::Low, 3),
                BatchRequest::PredecessorChain(Key::High, 2),
                BatchRequest::Lookup(k("b")),
            ])
            .unwrap();
        assert_eq!(replies.len(), 4);
        assert_eq!(replies[0], BatchReply::Lookup(rep.lookup(&k("a")).unwrap()));
        assert_eq!(
            replies[1],
            BatchReply::Chain(rep.successor_chain(&Key::Low, 3).unwrap())
        );
        assert_eq!(
            replies[2],
            BatchReply::Chain(rep.predecessor_chain(&Key::High, 2).unwrap())
        );
        assert_eq!(replies[3], BatchReply::Lookup(rep.lookup(&k("b")).unwrap()));
        // Write sub-requests apply through the same dispatch.
        let replies = rep
            .batch(&[BatchRequest::Insert(
                k("b"),
                Version::new(3),
                Value::from("B"),
            )])
            .unwrap();
        assert_eq!(
            replies,
            vec![BatchReply::Insert(InsertOutcome::Created {
                split_gap_version: Version::ZERO,
            })]
        );
        let b = rep.lookup(&k("b")).unwrap();
        assert!(b.is_present());
        assert_eq!(b.version(), Version::new(3));
        // An empty envelope is a no-op.
        assert_eq!(rep.batch(&[]).unwrap(), vec![]);
        // The first failing sub-request fails the envelope.
        rep.set_available(false);
        assert_eq!(
            rep.batch(&[BatchRequest::Lookup(k("a"))]),
            Err(RepError::Unavailable)
        );
    }

    #[test]
    fn with_state_preloads_entries() {
        let mut m = GapMap::new();
        m.insert(&k("a"), Version::new(1), Value::from("A"))
            .unwrap();
        let rep = LocalRep::with_state(RepId(0), m);
        assert_eq!(rep.len(), 1);
    }
}
