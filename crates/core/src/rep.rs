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
use std::sync::mpsc::Sender;
use std::sync::{Arc, RwLock};

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

/// One operation of the representative RPC surface (paper Fig. 6), as
/// owned data. A request to a member is an ordered list of these — what
/// [`RepClient::execute`] runs and [`RepClient::start`] puts in flight —
/// answered by one [`Reply`] per operation, in order. The empty list is the
/// ping, and a list cannot nest: there is no envelope variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `DirRepLookup(x)` — entry version and value, or containing-gap
    /// version. Sets a `RepLookup(x, x)` lock in transactional
    /// implementations.
    Lookup(Key),
    /// Up to `limit` *successive* `DirRepPredecessor` results in one
    /// operation — the §4 batching optimization ("three successive
    /// DirRepPredecessor … in a single message"). Each element sets
    /// `RepLookup(y, x)` where `y` is the key returned.
    PredecessorChain(Key, usize),
    /// Up to `limit` successive `DirRepSuccessor` results (mirror image).
    SuccessorChain(Key, usize),
    /// `DirRepInsert(x, v, z)` — create or overwrite the entry at the
    /// explicit version the suite assigned, so a replay after a session
    /// re-validation overwrites idempotently. Sets `RepModify(x, x)`.
    Insert(Key, Version, Value),
    /// `DirRepCoalesce(l, h, v)` — delete entries strictly inside `(l, h)`
    /// and give the resulting gap version `v`. Sets `RepModify(l, h)`.
    Coalesce(Key, Key, Version),
}

/// The reply to one [`Op`]; the variant mirrors the operation's, both
/// chains answering with [`Reply::Chain`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Reply to [`Op::Lookup`].
    Lookup(LookupReply),
    /// Reply to either chain.
    Chain(Vec<NeighborReply>),
    /// Reply to [`Op::Insert`].
    Insert(InsertOutcome),
    /// Reply to [`Op::Coalesce`].
    Coalesce(CoalesceOutcome),
}

/// Typed accessors: each unwraps its variant and reports any other as a
/// protocol violation ([`RepError::Storage`]), so a representative that
/// answers the wrong question is an error at the caller, never a panic.
impl Reply {
    fn unexpected<T>(self) -> RepResult<T> {
        Err(RepError::Storage(format!(
            "protocol violation: unexpected reply {self:?}"
        )))
    }

    /// The lookup reply.
    pub fn lookup(self) -> RepResult<LookupReply> {
        match self {
            Reply::Lookup(reply) => Ok(reply),
            other => other.unexpected(),
        }
    }

    /// The neighbor chain.
    pub fn chain(self) -> RepResult<Vec<NeighborReply>> {
        match self {
            Reply::Chain(chain) => Ok(chain),
            other => other.unexpected(),
        }
    }

    /// The insert outcome.
    pub fn insert(self) -> RepResult<InsertOutcome> {
        match self {
            Reply::Insert(outcome) => Ok(outcome),
            other => other.unexpected(),
        }
    }

    /// The coalesce outcome.
    pub fn coalesce(self) -> RepResult<CoalesceOutcome> {
        match self {
            Reply::Coalesce(outcome) => Ok(outcome),
            other => other.unexpected(),
        }
    }
}

/// The one reply to a request of one operation.
pub(crate) fn sole(replies: Vec<Reply>) -> RepResult<Reply> {
    let [reply] = <[Reply; 1]>::try_from(replies).map_err(|_| {
        RepError::Storage("protocol violation: not one reply to one operation".into())
    })?;
    Ok(reply)
}

/// One settled request, as a wave's completion queue receives it.
#[derive(Debug)]
pub struct Done {
    /// The tag the request was started under.
    pub slot: u64,
    /// The replies, one per operation in request order, or why there are
    /// none.
    pub result: RepResult<Vec<Reply>>,
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
    queue: Option<Sender<Done>>,
}

impl Completion {
    /// A completion delivering to `queue` under the tag `slot`.
    pub fn new(slot: u64, queue: Sender<Done>) -> Self {
        Completion {
            slot,
            queue: Some(queue),
        }
    }

    /// Settles the request.
    pub fn complete(mut self, result: RepResult<Vec<Reply>>) {
        self.settle(result);
    }

    fn settle(&mut self, result: RepResult<Vec<Reply>>) {
        if let Some(queue) = self.queue.take() {
            // A wave that stopped listening (suite dropped) is not an error.
            let _ = queue.send(Done {
                slot: self.slot,
                result,
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
/// A request is an ordered list of [`Op`]s, answered by one [`Reply`] per
/// operation in request order, or by the first failing operation's error.
/// The empty list is the ping: it reaches the member, runs nothing, and is
/// answered with an empty list. Several operations in one list are §4's
/// "several successive calls in one message".
///
/// An implementation provides [`execute`](RepClient::execute) — run one
/// list and block for its replies — and everything else follows: the
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

    /// Runs one request and blocks for its replies, in request order.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] if the representative cannot currently
    /// serve requests, plus the first failing operation's own error.
    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>>;

    /// Starts one request and returns without waiting for the reply; `done`
    /// is completed exactly once, on whichever thread the reply lands. The
    /// default executes inline, so the completion is queued before this
    /// returns. A panic in an inline `execute` propagates to the caller — it
    /// is a bug in this process, not a member failure — and the dropped
    /// `done` additionally scores the request as unavailable.
    fn start(&self, ops: &[Op], done: Completion) {
        done.complete(self.execute(ops));
    }

    /// The empty request.
    ///
    /// # Errors
    ///
    /// [`RepError::Unavailable`] if the representative cannot currently
    /// serve requests.
    fn ping(&self) -> RepResult<()> {
        self.execute(&[]).map(drop)
    }

    /// [`Op::Lookup`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn lookup(&self, key: &Key) -> RepResult<LookupReply> {
        sole(self.execute(&[Op::Lookup(key.clone())])?)?.lookup()
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

    /// [`Op::PredecessorChain`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn predecessor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        sole(self.execute(&[Op::PredecessorChain(key.clone(), limit)])?)?.chain()
    }

    /// [`Op::SuccessorChain`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn successor_chain(&self, key: &Key, limit: usize) -> RepResult<Vec<NeighborReply>> {
        sole(self.execute(&[Op::SuccessorChain(key.clone(), limit)])?)?.chain()
    }

    /// [`Op::Insert`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn insert(&self, key: &Key, version: Version, value: &Value) -> RepResult<InsertOutcome> {
        sole(self.execute(&[Op::Insert(key.clone(), version, value.clone())])?)?.insert()
    }

    /// [`Op::Coalesce`].
    ///
    /// # Errors
    ///
    /// As [`execute`](RepClient::execute).
    fn coalesce(&self, low: &Key, high: &Key, version: Version) -> RepResult<CoalesceOutcome> {
        sole(self.execute(&[Op::Coalesce(low.clone(), high.clone(), version)])?)?.coalesce()
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
    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        (**self).execute(ops)
    }
    fn start(&self, ops: &[Op], done: Completion) {
        (**self).start(ops, done)
    }
}

impl<T: RepClient + ?Sized> RepClient for Arc<T> {
    fn id(&self) -> RepId {
        (**self).id()
    }
    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        (**self).execute(ops)
    }
    fn start(&self, ops: &[Op], done: Completion) {
        (**self).start(ops, done)
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

    fn apply(&self, op: &Op) -> RepResult<Reply> {
        match op {
            Op::Insert(key, version, value) => {
                let mut g = self.write();
                Self::check_up(&g)?;
                Ok(Reply::Insert(g.state.insert(
                    key,
                    *version,
                    value.clone(),
                )?))
            }
            Op::Coalesce(low, high, version) => {
                let mut g = self.write();
                Self::check_up(&g)?;
                Ok(Reply::Coalesce(g.state.coalesce(low, high, *version)?))
            }
            Op::Lookup(key) => {
                let g = self.read();
                Self::check_up(&g)?;
                Ok(Reply::Lookup(g.state.lookup(key)))
            }
            Op::PredecessorChain(key, limit) => {
                let g = self.read();
                Self::check_up(&g)?;
                Ok(Reply::Chain(g.state.predecessor_chain(key, *limit)?))
            }
            Op::SuccessorChain(key, limit) => {
                let g = self.read();
                Self::check_up(&g)?;
                Ok(Reply::Chain(g.state.successor_chain(key, *limit)?))
            }
        }
    }
}

impl RepClient for LocalRep {
    fn id(&self) -> RepId {
        self.id
    }

    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        if ops.is_empty() {
            return Self::check_up(&self.read()).map(|()| Vec::new());
        }
        // Each operation takes the lock on its own, as separate messages
        // would.
        ops.iter().map(|op| self.apply(op)).collect()
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
            .execute(&[
                Op::Lookup(k("a")),
                Op::SuccessorChain(Key::Low, 3),
                Op::PredecessorChain(Key::High, 2),
                Op::Lookup(k("b")),
            ])
            .unwrap();
        assert_eq!(replies.len(), 4);
        assert_eq!(replies[0], Reply::Lookup(rep.lookup(&k("a")).unwrap()));
        assert_eq!(
            replies[1],
            Reply::Chain(rep.successor_chain(&Key::Low, 3).unwrap())
        );
        assert_eq!(
            replies[2],
            Reply::Chain(rep.predecessor_chain(&Key::High, 2).unwrap())
        );
        assert_eq!(replies[3], Reply::Lookup(rep.lookup(&k("b")).unwrap()));
        // Writes apply through the same dispatch.
        let replies = rep
            .execute(&[Op::Insert(k("b"), Version::new(3), Value::from("B"))])
            .unwrap();
        assert_eq!(
            replies,
            vec![Reply::Insert(InsertOutcome::Created {
                split_gap_version: Version::ZERO,
            })]
        );
        let b = rep.lookup(&k("b")).unwrap();
        assert!(b.is_present());
        assert_eq!(b.version(), Version::new(3));
        // The empty list is the ping: it runs nothing.
        assert_eq!(rep.execute(&[]).unwrap(), vec![]);
        // The first failing operation fails the request; an unavailable
        // member fails the ping too.
        rep.execute(&[Op::Lookup(k("a")), Op::Lookup(Key::High)])
            .unwrap();
        assert_eq!(
            rep.execute(&[Op::Lookup(k("a")), Op::SuccessorChain(Key::High, 1)]),
            Err(RepError::SentinelViolation {
                key: Key::High,
                op: "successor",
            })
        );
        rep.set_available(false);
        assert_eq!(
            rep.execute(&[Op::Lookup(k("a"))]),
            Err(RepError::Unavailable)
        );
        assert_eq!(rep.execute(&[]), Err(RepError::Unavailable));
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
