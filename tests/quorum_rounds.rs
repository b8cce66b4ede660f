//! Message-round budgets of the point and bulk operations.
//!
//! Any set of members whose votes reach the threshold is a quorum (§3.1), so
//! the members that *answer a request* are the quorum: a lookup's or a quorum
//! write's collection carries the request itself and spends no ping round.
//! These tests pin the budgets that follow — lookup = R data requests,
//! insert/update = R + W, delete = R + 2W in three rounds, whose read
//! collection carries the lookup and both first chain hops and whose write
//! collection carries the neighbour probes — over the fabric and in
//! process — and those of the bulk operations, which cost
//! `O(n / bulk_chunk)` waves: a scan ⌈(entries + ghosts + 1) / chunk⌉ chain
//! waves, which carry every value of at most `INLINE_VALUE_MAX` bytes, plus
//! at most one for the larger values still owed, `insert_many` two per
//! chunk, `delete_many` three per group of keys whose neighbour ranges are
//! disjoint. They also pin what happens when a carried request fails:
//! an unreachable member's vote is re-collected inside the call, a member
//! with a recorded miss is pinged before it is trusted with data, and a
//! member that refuses is the operation's error, never substituted.

use repdir::core::suite::{DirSuite, FixedPolicy, QuorumPolicy, SuiteConfig};
use repdir::core::{
    Completion, Key, LocalRep, Op, QuorumKind, RepClient, RepError, RepId, RepResult, Reply,
    SuiteError, Value, Version, INLINE_VALUE_MAX,
};
use repdir::net::{Network, NodeId, RpcClient, ServerHandle};
use repdir::replica::{
    serve_rep, RemoteSessionClient, ReplicatedDirectory, SessionClient, TransactionalRep,
};
use repdir::txn::TxnId;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn k(s: &str) -> Key {
    Key::from(s)
}

fn val(s: &str) -> Value {
    Value::from(s)
}

/// A value one byte too large to ride a chain.
fn big() -> Value {
    Value::from(vec![b'v'; INLINE_VALUE_MAX + 1])
}

fn order(members: &[usize]) -> Box<dyn QuorumPolicy + Send> {
    Box::new(FixedPolicy::with_order(members.to_vec()))
}

/// Three representatives served over a zero-latency fabric.
struct Cluster {
    net: Arc<Network>,
    rpc: Arc<RpcClient>,
    reps: Vec<Arc<TransactionalRep>>,
    _servers: Vec<ServerHandle>,
}

impl Cluster {
    fn new(seed: u64) -> Cluster {
        let net = Arc::new(Network::new(seed));
        let reps: Vec<_> = (0..3).map(|i| TransactionalRep::new(RepId(i))).collect();
        let servers = reps
            .iter()
            .zip(100..)
            .map(|(rep, node)| serve_rep(Arc::clone(&net), NodeId(node), Arc::clone(rep)))
            .collect();
        let rpc = Arc::new(RpcClient::new(Arc::clone(&net), NodeId(0)));
        Cluster {
            net,
            rpc,
            reps,
            _servers: servers,
        }
    }

    fn client(&self, member: u32, txn: TxnId) -> RemoteSessionClient {
        RemoteSessionClient::new(
            Arc::clone(&self.rpc),
            NodeId(100 + member),
            RepId(member),
            txn,
        )
    }

    /// A 3-2-2 suite acting for `txn`, begun at every member.
    fn suite(&self, txn: TxnId) -> DirSuite<RemoteSessionClient> {
        self.suite_of(txn, |client| client)
    }

    /// [`suite`](Cluster::suite) with every client wrapped by `wrap`.
    fn suite_of<C: RepClient>(
        &self,
        txn: TxnId,
        wrap: fn(RemoteSessionClient) -> C,
    ) -> DirSuite<C> {
        let clients: Vec<_> = (0..3).map(|i| self.client(i, txn)).collect();
        for client in &clients {
            client.begin().expect("healthy fabric");
        }
        let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let clients = clients.into_iter().map(wrap).collect();
        DirSuite::new(clients, config, order(&[0, 1, 2])).unwrap()
    }
}

/// Forwards to `C`, counting the `Lookup` operations it is sent.
struct Counted<C> {
    inner: C,
    lookups: AtomicU64,
}

impl<C> Counted<C> {
    fn new(inner: C) -> Counted<C> {
        Counted {
            inner,
            lookups: AtomicU64::new(0),
        }
    }

    fn count(&self, ops: &[Op]) {
        let lookups = ops.iter().filter(|op| matches!(op, Op::Lookup(_)));
        self.lookups
            .fetch_add(lookups.count() as u64, Ordering::SeqCst);
    }
}

impl<C: RepClient> RepClient for Counted<C> {
    fn id(&self) -> RepId {
        self.inner.id()
    }

    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        self.count(ops);
        self.inner.execute(ops)
    }

    fn start(&self, ops: &[Op], done: Completion) {
        self.count(ops);
        self.inner.start(ops, done)
    }
}

/// What one operation cost: per-member data requests and pings, and the
/// collection waves it ran.
fn cost<C: RepClient, R>(
    suite: &mut DirSuite<C>,
    op: impl FnOnce(&mut DirSuite<C>) -> R,
) -> (R, Vec<u64>, Vec<u64>, u64) {
    suite.reset_message_counts();
    let waves = suite.obs().counter("suite.quorum.waves");
    let before = waves.get();
    let out = op(suite);
    let spent = waves.get() - before;
    (out, suite.message_counts(), suite.ping_counts(), spent)
}

/// As [`cost`], counting message rounds of any kind instead of collections.
fn rounds<C: RepClient, R>(
    suite: &mut DirSuite<C>,
    op: impl FnOnce(&mut DirSuite<C>) -> R,
) -> (R, Vec<u64>, Vec<u64>, u64) {
    let rounds = suite.obs().counter("suite.rounds");
    let before = rounds.get();
    let (out, msgs, pings, _) = cost(suite, op);
    (out, msgs, pings, rounds.get() - before)
}

/// (a) The fault-free budgets on a 3-2-2 suite whose quorums are {0, 1},
/// checked against the fabric's own message count when there is a fabric.
fn assert_fault_free_budgets<C: RepClient>(suite: &mut DirSuite<C>, net: Option<&Network>) {
    for key in ["a", "c", "b"] {
        suite.insert(&k(key), &val(key)).unwrap();
    }
    let sent = || net.map_or(0, |net| net.stats().sent);
    let mut fabric = sent();
    let mut assert_fabric = |msgs: &[u64], pings: &[u64]| {
        let requests: u64 = msgs.iter().chain(pings).sum();
        let now = sent();
        if net.is_some() {
            assert_eq!(now - fabric, 2 * requests, "a request and its reply each");
        }
        fabric = now;
    };

    let (out, msgs, pings, waves) = cost(suite, |s| s.lookup(&k("b")));
    assert!(out.unwrap().present);
    assert_eq!(
        (msgs.clone(), pings.clone()),
        (vec![1, 1, 0], vec![0, 0, 0])
    );
    assert_eq!(waves, 1, "lookup = R data requests, no ping");
    assert_fabric(&msgs, &pings);

    let (out, msgs, pings, waves) = cost(suite, |s| s.insert(&k("d"), &val("D")));
    assert_eq!(out.unwrap().version, Version::new(1));
    assert_eq!(
        (msgs.clone(), pings.clone()),
        (vec![2, 2, 0], vec![0, 0, 0])
    );
    assert_eq!(waves, 2, "insert = R + W data requests, no ping");
    assert_fabric(&msgs, &pings);

    let (out, msgs, pings, waves) = cost(suite, |s| s.update(&k("d"), &val("D2")));
    assert_eq!(out.unwrap().version, Version::new(2));
    assert_eq!(
        (msgs.clone(), pings.clone()),
        (vec![2, 2, 0], vec![0, 0, 0])
    );
    assert_eq!(waves, 2, "update = R + W data requests, no ping");
    assert_fabric(&msgs, &pings);

    // Delete: three rounds. The read collection carries the lookup and both
    // first chain hops, the write collection the neighbour probes, and the
    // coalesce goes to the members that answered those.
    let (out, msgs, pings, spent) = rounds(suite, |s| s.delete(&k("b")));
    let out = out.unwrap();
    assert_eq!((out.predecessor, out.successor), (k("a"), k("c")));
    assert_eq!((out.pred_steps, out.succ_steps), (1, 1));
    assert_eq!((out.pred_rpcs, out.succ_rpcs), (2, 2));
    assert_eq!(out.copies_inserted, 0);
    assert_eq!(
        (msgs.clone(), pings.clone()),
        (vec![3, 3, 0], vec![0, 0, 0])
    );
    assert_eq!(spent, 3, "delete = R + 2W data requests in three rounds");
    assert_fabric(&msgs, &pings);

    // The same three rounds when the write quorum {1, 2} has a member that
    // lacks both neighbours: the probes find that out and bring the values,
    // and the copies ride the coalesce's envelope.
    suite.set_policy(Box::new(PerKind {
        read: vec![0, 1, 2],
        write: vec![1, 2, 0],
    }));
    let (out, msgs, pings, spent) = rounds(suite, |s| s.delete(&k("c")));
    let out = out.unwrap();
    assert_eq!((out.predecessor, out.successor), (k("a"), k("d")));
    assert_eq!(out.copies_inserted, 2);
    assert_eq!(
        (msgs.clone(), pings.clone()),
        (vec![1, 3, 2], vec![0, 0, 0])
    );
    assert_eq!(spent, 3, "copies add no request and no round");
    assert_fabric(&msgs, &pings);

    // A ghost between the key and its real neighbour: "c" survives at member
    // 0, which the delete above did not write. Deleting "a" through {0, 1}
    // steps over it — member 1's chain head already says the gap around "c"
    // is newer — for one chain refill at member 0, and no lookup.
    suite.set_policy(order(&[0, 1, 2]));
    let (out, msgs, pings, spent) = rounds(suite, |s| s.delete(&k("a")));
    let out = out.unwrap();
    assert_eq!((out.predecessor, out.successor), (Key::Low, k("d")));
    assert_eq!((out.succ_steps, out.succ_rpcs), (2, 3));
    assert_eq!(out.ghosts_deleted, 1);
    assert_eq!(
        (msgs.clone(), pings.clone()),
        (vec![4, 3, 0], vec![0, 0, 0])
    );
    assert_eq!(spent, 4);
    assert_fabric(&msgs, &pings);

    // Member 2 sat out that last delete, so the copies it was sent are
    // still there to inspect, at the values the probes brought.
    for (key, value) in [("a", "a"), ("d", "D2")] {
        let copy = suite.member(2).lookup(&k(key)).unwrap();
        assert_eq!(copy.value(), Some(&val(value)));
    }
}

#[test]
fn fault_free_point_operations_send_no_pings() {
    let mut local = DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2).unwrap(), 1).unwrap();
    local.set_policy(order(&[0, 1, 2]));
    assert_fault_free_budgets(&mut local, None);

    let cluster = Cluster::new(0xA11);
    let mut remote = cluster.suite(TxnId(1));
    assert_fault_free_budgets(&mut remote, Some(&cluster.net));
}

#[test]
fn unreachable_member_is_substituted_inside_the_call() {
    // (b) Member 0 answers `Unavailable` at once: its vote is re-collected
    // from the next candidate by one further carried wave.
    let cluster = Cluster::new(0xB0B);
    let mut suite = cluster.suite(TxnId(1));
    suite.insert(&k("a"), &val("A")).unwrap();
    cluster.reps[0].set_available(false);
    let (out, msgs, pings, waves) = cost(&mut suite, |s| s.lookup(&k("a")));
    assert_eq!(out.unwrap().quorum, vec![RepId(1), RepId(2)]);
    assert_eq!((msgs, pings), (vec![1, 1, 1], vec![0, 0, 0]));
    assert_eq!(waves, 2);

    // With a second member gone the carried waves run out of candidates;
    // `gathered` counts the votes that did answer.
    cluster.reps[1].set_available(false);
    assert_eq!(
        suite.lookup(&k("a")),
        Err(SuiteError::QuorumUnavailable {
            kind: QuorumKind::Read,
            needed: 2,
            gathered: 1,
        })
    );

    let mut local = DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2).unwrap(), 2).unwrap();
    local.set_policy(order(&[0, 1, 2]));
    local.member(0).set_available(false);
    let (out, msgs, pings, _) = cost(&mut local, |s| s.lookup(&k("a")));
    assert_eq!(out.unwrap().quorum, vec![RepId(1), RepId(2)]);
    assert_eq!((msgs, pings), (vec![1, 1, 1], vec![0, 0, 0]));
}

#[test]
fn write_that_cannot_reach_w_leaves_nothing_behind() {
    // (b) R = 1, W = 3 with one member down: the lookup succeeds, the carried
    // write lands at two members and then runs out of candidates. The
    // driver's abort rolls both back and releases their locks.
    let dir = ReplicatedDirectory::new(SuiteConfig::symmetric(3, 1, 3).unwrap(), 7).unwrap();
    dir.reps()[2].set_available(false);
    assert_eq!(
        dir.insert(&k("a"), &val("A")),
        Err(SuiteError::QuorumUnavailable {
            kind: QuorumKind::Write,
            needed: 3,
            gathered: 2,
        })
    );
    dir.reps()[2].set_available(true);
    for rep in dir.reps() {
        assert!(rep.is_empty(), "{:?} kept a rolled-back write", rep.id());
        assert_eq!(rep.lock_holders(), vec![]);
    }
    dir.insert(&k("a"), &val("A")).unwrap();
}

/// How a [`Double`] treats the requests it is sent.
const HEALTHY: u8 = 0;
/// Answers `Unavailable` at once.
const DOWN: u8 = 1;
/// Answers nothing until [`SILENCE`] has passed, then `Unavailable`.
const SILENT: u8 = 2;
/// Refuses data requests with `Deadlock`.
const DEADLOCKS: u8 = 3;
/// Refuses data requests with `LockTimeout`.
const TIMES_OUT: u8 = 4;

const SILENCE: Duration = Duration::from_millis(400);

/// A [`LocalRep`] with a scripted failure mode that counts what reaches it.
struct Double {
    inner: LocalRep,
    mode: AtomicU8,
    pings: AtomicU64,
    data: AtomicU64,
}

impl Double {
    fn new(id: u32) -> Double {
        Double {
            inner: LocalRep::new(RepId(id)),
            mode: AtomicU8::new(HEALTHY),
            pings: AtomicU64::new(0),
            data: AtomicU64::new(0),
        }
    }

    fn set(&self, mode: u8) {
        self.mode.store(mode, Ordering::SeqCst);
    }

    fn seen(&self) -> (u64, u64) {
        (
            self.pings.load(Ordering::SeqCst),
            self.data.load(Ordering::SeqCst),
        )
    }
}

impl RepClient for Double {
    fn id(&self) -> RepId {
        self.inner.id()
    }

    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        let ping = ops.is_empty();
        let seen = if ping { &self.pings } else { &self.data };
        seen.fetch_add(1, Ordering::SeqCst);
        match self.mode.load(Ordering::SeqCst) {
            DOWN | SILENT => Err(RepError::Unavailable),
            DEADLOCKS if !ping => Err(RepError::Deadlock),
            TIMES_OUT if !ping => Err(RepError::LockTimeout),
            _ => self.inner.execute(ops),
        }
    }

    fn start(&self, ops: &[Op], done: Completion) {
        let reply = self.execute(ops);
        if self.mode.load(Ordering::SeqCst) == SILENT {
            std::thread::spawn(move || {
                std::thread::sleep(SILENCE);
                done.complete(reply);
            });
        } else {
            done.complete(reply);
        }
    }
}

fn doubles() -> DirSuite<Double> {
    let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
    DirSuite::new((0..3).map(Double::new).collect(), config, order(&[0, 1, 2])).unwrap()
}

#[test]
fn member_with_a_recorded_miss_is_pinged_before_it_is_sent_data() {
    // (c) Member 0 misses once, fast: the carried wave re-collects its vote
    // and its availability window is dirty from here on.
    let mut suite = doubles();
    suite.insert(&k("a"), &val("A")).unwrap();
    suite.member(0).set(DOWN);
    let (out, msgs, pings, _) = cost(&mut suite, |s| s.lookup(&k("a")));
    assert!(out.is_ok());
    assert_eq!((msgs, pings), (vec![1, 1, 1], vec![0, 0, 0]));

    // Now it goes silent. The prefix {0, 1} names it, so the collection
    // pings first — over-provisioned to {0, 1, 2}, closing on the two pongs —
    // and only the members that answered get the lookup: the silent member
    // costs one ping and the call does not wait out its deadline.
    suite.member(0).set(SILENT);
    let (pings_before, data_before) = suite.member(0).seen();
    let started = Instant::now();
    let (out, msgs, pings, waves) = cost(&mut suite, |s| s.lookup(&k("a")));
    let elapsed = started.elapsed();
    let out = out.unwrap();
    assert!(out.present);
    assert_eq!(out.quorum, vec![RepId(1), RepId(2)]);
    assert_eq!((msgs, pings), (vec![0, 1, 1], vec![1, 1, 1]));
    assert_eq!(waves, 1);
    assert_eq!(
        suite.member(0).seen(),
        (pings_before + 1, data_before),
        "a ping and no data request"
    );
    assert!(elapsed < SILENCE / 2, "waited out the silence: {elapsed:?}");

    // Writes follow the same rule.
    let (out, msgs, pings, _) = cost(&mut suite, |s| s.update(&k("a"), &val("A2")));
    assert_eq!(out.unwrap().quorum, vec![RepId(1), RepId(2)]);
    assert_eq!((msgs, pings), (vec![0, 2, 2], vec![2, 2, 2]));
}

#[test]
fn refused_request_is_the_operations_error_and_is_not_resent() {
    // (d) A member that was reached and said no — a deadlock victim, a lock
    // wait that timed out — decides the operation: the driver must abort and
    // retry the transaction, so no spare is asked in its place.
    for (mode, refusal) in [
        (DEADLOCKS, RepError::Deadlock),
        (TIMES_OUT, RepError::LockTimeout),
    ] {
        let mut suite = doubles();
        suite.insert(&k("a"), &val("A")).unwrap();
        suite.member(1).set(mode);
        let (out, msgs, pings, waves) = cost(&mut suite, |s| s.lookup(&k("a")));
        assert_eq!(out, Err(SuiteError::Rep(refusal.clone())));
        assert_eq!((msgs, pings), (vec![1, 1, 0], vec![0, 0, 0]));
        assert_eq!(waves, 1);

        // A carried write is refused the same way: the lookup is answered by
        // {0, 2}, the insert is carried to {0, 1} and not re-sent to 2. (A
        // fresh suite: the refusal above is a recorded miss, and a member
        // with one is pinged first.)
        let mut suite = doubles();
        suite.insert(&k("a"), &val("A")).unwrap();
        suite.member(1).set(mode);
        suite.set_policy(Box::new(PerKind {
            read: vec![0, 2, 1],
            write: vec![0, 1, 2],
        }));
        let (out, msgs, pings, _) = cost(&mut suite, |s| s.update(&k("a"), &val("A2")));
        assert_eq!(out, Err(SuiteError::Rep(refusal)));
        assert_eq!((msgs, pings), (vec![2, 1, 1], vec![0, 0, 0]));
    }
}

/// One preference order for read quorums, another for write quorums.
struct PerKind {
    read: Vec<usize>,
    write: Vec<usize>,
}

impl QuorumPolicy for PerKind {
    fn candidates(&mut self, kind: QuorumKind, _n: usize, _hint: Option<&Key>) -> Vec<usize> {
        match kind {
            QuorumKind::Read => self.read.clone(),
            QuorumKind::Write => self.write.clone(),
        }
    }
}

#[test]
fn delete_many_pays_three_rounds_per_key_under_its_held_sessions() {
    // (c) 64 mutually adjacent keys: each key's neighbour range overlaps
    // the one before, so every key is a group of its own. The window's wave
    // A and the first group's wave B collect the quorums; each later key has
    // its plan read again under the held session, then its two waves. 64 × 3
    // rounds of R, W and W requests — never more than the per-key loop — two
    // collections, no ping.
    let keys: Vec<Key> = (0..64).map(|i| k(&format!("key{i:02}"))).collect();
    let entries: Vec<(Key, Value)> = keys.iter().map(|key| (key.clone(), val("v"))).collect();
    let cluster = Cluster::new(0xC64);
    let mut remote = cluster.suite(TxnId(1));
    let mut local = DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2).unwrap(), 3).unwrap();
    local.set_policy(order(&[0, 1, 2]));
    fn check<C: RepClient>(suite: &mut DirSuite<C>, entries: &[(Key, Value)], keys: &[Key]) {
        suite.insert_many(entries).unwrap();
        let waves = suite.obs().counter("suite.quorum.waves");
        let collections = waves.get();
        let (out, msgs, pings, spent) = rounds(suite, |s| s.delete_many(keys));
        assert_eq!(out.unwrap().versions.len(), 64);
        assert_eq!((msgs, pings), (vec![192, 192, 0], vec![0, 0, 0]));
        assert_eq!(spent, 192);
        assert_eq!(waves.get() - collections, 2);
        assert_eq!(suite.scan().unwrap(), vec![]);
    }
    let sent = cluster.net.stats().sent;
    check(&mut local, &entries, &keys);
    assert_eq!(cluster.net.stats().sent, sent);
    check(&mut remote, &entries, &keys);
}

/// A local and a remote 3-2-2 suite whose quorums are {0, 1}: whatever
/// `check` pins must hold on both.
fn on_every_fixture(seed: u64, check: impl Fn(&mut dyn Fixture)) {
    let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
    let clients = (0..3).map(|i| Counted::new(LocalRep::new(RepId(i))));
    let mut local = DirSuite::new(clients.collect(), config, order(&[0, 1, 2])).unwrap();
    check(&mut (&mut local, None));

    let cluster = Cluster::new(seed);
    let mut remote = cluster.suite_of(TxnId(1), Counted::new);
    check(&mut (&mut remote, Some(&*cluster.net)));
}

/// What the bulk-budget tests do to a suite, whatever its clients are.
trait Fixture {
    fn set_orders(&mut self, read: &[usize], write: &[usize]);
    fn set_chunk(&mut self, chunk: usize);
    /// Inserts every key with `value`.
    fn insert_valued(&mut self, keys: &[Key], value: &Value) -> Spent;
    fn insert_many(&mut self, keys: &[Key]) -> Spent {
        self.insert_valued(keys, &val("v"))
    }
    fn delete_many(&mut self, keys: &[Key]) -> Spent;
    fn scan(&mut self) -> (Vec<Key>, Spent);
    /// `Lookup` operations the suite's clients have been sent so far.
    fn lookups(&self) -> u64;
}

/// Per-member data requests, pings, message rounds and collections of one
/// call; `fabric` is checked on the spot: a request and its reply each.
#[derive(Debug, PartialEq)]
struct Spent {
    msgs: Vec<u64>,
    pings: u64,
    rounds: u64,
    collections: u64,
}

impl<C: RepClient> Fixture for (&mut DirSuite<Counted<C>>, Option<&Network>) {
    fn set_orders(&mut self, read: &[usize], write: &[usize]) {
        self.0.set_policy(Box::new(PerKind {
            read: read.to_vec(),
            write: write.to_vec(),
        }));
    }

    fn set_chunk(&mut self, chunk: usize) {
        self.0.set_bulk_chunk(chunk);
    }

    fn insert_valued(&mut self, keys: &[Key], value: &Value) -> Spent {
        let entries: Vec<(Key, Value)> = keys
            .iter()
            .map(|key| (key.clone(), value.clone()))
            .collect();
        spent(self, |s| s.insert_many(&entries).map(drop).unwrap())
    }

    fn delete_many(&mut self, keys: &[Key]) -> Spent {
        spent(self, |s| s.delete_many(keys).map(drop).unwrap())
    }

    fn scan(&mut self) -> (Vec<Key>, Spent) {
        let mut listed = Vec::new();
        let spent = spent(self, |s| {
            let entries = s.scan().unwrap();
            listed = entries.into_iter().map(|(key, _)| Key::User(key)).collect();
        });
        (listed, spent)
    }

    fn lookups(&self) -> u64 {
        let members = (0..3).map(|i| self.0.member(i));
        members.map(|c| c.lookups.load(Ordering::SeqCst)).sum()
    }
}

fn spent<C: RepClient>(
    fixture: &mut (&mut DirSuite<C>, Option<&Network>),
    op: impl FnOnce(&mut DirSuite<C>),
) -> Spent {
    let (suite, net) = fixture;
    let sent = net.map_or(0, |net| net.stats().sent);
    let collections = suite.obs().counter("suite.quorum.waves");
    let collected = collections.get();
    let ((), msgs, pings, rounds) = rounds(suite, op);
    let pings: u64 = pings.iter().sum();
    if let Some(net) = net {
        let requests = msgs.iter().sum::<u64>() + pings;
        assert_eq!(
            net.stats().sent - sent,
            2 * requests,
            "a request and its reply each"
        );
    }
    Spent {
        msgs,
        pings,
        rounds,
        collections: collections.get() - collected,
    }
}

fn keys(range: std::ops::Range<u32>, prefix: &str) -> Vec<Key> {
    range.map(|i| k(&format!("{prefix}{i:03}"))).collect()
}

#[test]
fn scan_costs_one_wave_per_chunk_of_chain_and_one_for_the_last_values() {
    // (a) N entries and g ghosts at read-quorum member 0 (deleted through
    // {1, 2}): the collection carries the first chain request, every wave
    // extends every buffer, so the member with the most to list sets the
    // pace — ⌈(N + g + 1) / chunk⌉ chain waves — and only values resolved
    // from the last chain cost one more. Nobody is pinged; a member with
    // nothing to be asked gets no message. Every value is too large to ride
    // a chain, so each is fetched with a lookup.
    for (n, ghosts) in [(0, 0), (5, 0), (5, 3), (64, 0), (64, 3), (200, 3)] {
        for chunk in [4u32, 64] {
            on_every_fixture(0x5CA0 + u64::from(n), |fx| {
                fx.set_chunk(chunk as usize);
                let entries = keys(0..n, "e");
                // Ghosts sort among the first entries: member 0's
                // buffers run dry at other keys than member 1's.
                let doomed = keys(0..ghosts, "e000g");
                fx.insert_valued(&entries, &big());
                fx.insert_valued(&doomed, &big());
                fx.set_orders(&[0, 1, 2], &[1, 2, 0]);
                if !doomed.is_empty() {
                    fx.delete_many(&doomed);
                }
                fx.set_orders(&[0, 1, 2], &[0, 1, 2]);
                let (listed, spent) = fx.scan();
                assert_eq!(listed, entries);
                let chains = u64::from((n + ghosts + 1).div_ceil(chunk));
                let case = format!("N={n} g={ghosts} chunk={chunk}: {spent:?}");
                assert!((chains..=chains + 1).contains(&spent.rounds), "{case}");
                assert_eq!((spent.pings, spent.collections), (0, 1), "{case}");
                assert_eq!(spent.msgs[2], 0, "{case}");
                assert!(spent.msgs[0] <= spent.rounds && spent.msgs[1] <= spent.rounds);
                if n == 0 {
                    assert_eq!(spent.rounds, 1, "{case}");
                }
                if (n, ghosts, chunk) == (64, 0, 64) {
                    // HIGH comes alone in the second chain: the values
                    // rode that wave and nothing is owed.
                    assert_eq!(
                        (spent.rounds, &spent.msgs[..]),
                        (2, &[2, 2, 0][..]),
                        "{case}"
                    );
                }
                if (n, ghosts, chunk) == (5, 0, 4) {
                    // The last wave owes one value: one message to its
                    // holder, none to the other member.
                    assert_eq!(
                        (spent.rounds, &spent.msgs[..]),
                        (3, &[3, 2, 0][..]),
                        "{case}"
                    );
                }
            });
        }
    }
}

#[test]
fn scan_of_small_values_is_chain_waves_only() {
    // (a) over values that ride the chains: the same N, g and chunk as
    // above cost exactly ⌈(N + g + 1) / chunk⌉ chain waves, at most R
    // requests a wave, no lookup, no ping and no closing wave.
    for (n, ghosts) in [(0, 0), (5, 0), (5, 3), (64, 0), (64, 3), (200, 3)] {
        for chunk in [4u32, 64] {
            on_every_fixture(0x5CA1 + u64::from(n), |fx| {
                fx.set_chunk(chunk as usize);
                let entries = keys(0..n, "e");
                let doomed = keys(0..ghosts, "e000g");
                let small = Value::from(vec![b'v'; INLINE_VALUE_MAX]);
                fx.insert_valued(&entries, &small);
                fx.insert_valued(&doomed, &small);
                fx.set_orders(&[0, 1, 2], &[1, 2, 0]);
                if !doomed.is_empty() {
                    fx.delete_many(&doomed);
                }
                fx.set_orders(&[0, 1, 2], &[0, 1, 2]);
                let lookups = fx.lookups();
                let (listed, spent) = fx.scan();
                assert_eq!(listed, entries);
                let chains = u64::from((n + ghosts + 1).div_ceil(chunk));
                let case = format!("N={n} g={ghosts} chunk={chunk}: {spent:?}");
                assert_eq!(spent.rounds, chains, "{case}");
                assert_eq!((spent.pings, spent.collections), (0, 1), "{case}");
                assert_eq!(fx.lookups() - lookups, 0, "{case}");
                assert_eq!(spent.msgs[2], 0, "{case}");
                assert!(spent.msgs.iter().sum::<u64>() <= 2 * spent.rounds, "{case}");
                if [(5, 0, 4), (64, 0, 64)].contains(&(n, ghosts, chunk)) {
                    // Owed one wave above; here the chains are all.
                    assert_eq!(
                        (spent.rounds, &spent.msgs[..]),
                        (2, &[2, 2, 0][..]),
                        "{case}"
                    );
                }
            });
        }
    }
}

#[test]
fn insert_many_rides_its_two_collections() {
    // (b) 64 keys, one chunk: the read collection carries the discovery
    // envelope, the write collection the write envelope — two waves,
    // 2(R + W) messages on the fabric. A second chunk asks the held
    // sessions: two more waves, no further collection.
    on_every_fixture(0x1A5, |fx| {
        let spent = fx.insert_many(&keys(0..64, "k"));
        let expect = Spent {
            msgs: vec![2, 2, 0],
            pings: 0,
            rounds: 2,
            collections: 2,
        };
        assert_eq!(spent, expect);
        let spent = fx.insert_many(&keys(64..192, "k"));
        assert_eq!(
            spent,
            Spent {
                msgs: vec![4, 4, 0],
                rounds: 4,
                ..expect
            }
        );
        assert_eq!(fx.scan().0, keys(0..192, "k"));
    });
}

#[test]
fn delete_many_shares_its_three_waves_between_keys_that_do_not_touch() {
    // (c) 64 keys with a surviving entry between every pair: their
    // neighbour ranges share endpoints and nothing else, so one wave A, one
    // wave B and one wave C serve them all.
    on_every_fixture(0xDE1, |fx| {
        let of = |suffix: &str| -> Vec<Key> {
            (0..64).map(|i| k(&format!("k{i:02}{suffix}"))).collect()
        };
        let (doomed, kept) = (of("a"), of("b"));
        fx.insert_many(&doomed);
        fx.insert_many(&kept);
        let spent = fx.delete_many(&doomed);
        let expect = Spent {
            msgs: vec![3, 3, 0],
            pings: 0,
            rounds: 3,
            collections: 2,
        };
        assert_eq!(spent, expect);
        assert_eq!(fx.scan().0, kept);
    });

    // Ghosts behind k of the keys — each doomed key's predecessor at member
    // 0 is a ghost (written through {0, 1}, deleted through {1, 2}) — leave
    // k chain buffers dry at member 0. They refill together: one more wave
    // and one more message, not k.
    on_every_fixture(0xDE2, |fx| {
        let of =
            |suffix: &str| -> Vec<Key> { (0..8).map(|i| k(&format!("k{i}{suffix}"))).collect() };
        let (kept, ghosts, doomed) = (of("a"), of("b"), of("c"));
        for batch in [&kept, &ghosts, &doomed] {
            fx.insert_many(batch);
        }
        fx.set_orders(&[0, 1, 2], &[1, 2, 0]);
        fx.delete_many(&ghosts);
        fx.set_orders(&[0, 1, 2], &[0, 1, 2]);
        let spent = fx.delete_many(&doomed);
        assert_eq!(
            spent,
            Spent {
                msgs: vec![4, 3, 0],
                pings: 0,
                rounds: 4,
                collections: 2,
            }
        );
        assert_eq!(fx.scan().0, kept);
    });
}

#[test]
fn carried_bulk_waves_follow_the_carried_request_rules() {
    // (d) The scan's first chain and the ingest's envelopes ride their
    // collections, so an unreachable member is substituted inside the
    // collection — one extra request, no ping, no re-validation — and a
    // member that refuses is the operation's error.
    let entries = |range| -> Vec<(Key, Value)> {
        let keys = keys(range, "k").into_iter();
        keys.map(|key| (key, big())).collect()
    };
    let mut suite = doubles();
    suite.insert_many(&entries(0..6)).unwrap();
    suite.member(0).set(DOWN);
    let (out, msgs, pings, waves) = cost(&mut suite, |s| s.scan());
    assert_eq!(out.unwrap().len(), 6);
    // The substitute never saw the entries ({0, 1} wrote them), so its chain
    // heads vote no entry version and every value is asked of member 1.
    assert_eq!((msgs, pings), (vec![1, 2, 1], vec![0, 0, 0]));
    assert_eq!(waves, 2, "the carried chain and its substitute");

    // The discovery envelope is answered by {1, 2}; the write envelope is
    // carried to {0, 1} and re-sent to 2 in member 0's place.
    let mut suite = doubles();
    suite.set_policy(Box::new(PerKind {
        read: vec![1, 2, 0],
        write: vec![0, 1, 2],
    }));
    suite.member(0).set(DOWN);
    let (out, msgs, pings, waves) = cost(&mut suite, |s| s.insert_many(&entries(0..6)));
    assert_eq!(out.unwrap().versions, vec![Version::new(1); 6]);
    assert_eq!((msgs, pings), (vec![1, 2, 2], vec![0, 0, 0]));
    assert_eq!(waves, 3, "read, write, and the write's substitute");
    assert_eq!(suite.obs().counter("suite.session.revalidate").get(), 0);
    for member in [1, 2] {
        assert_eq!(suite.member(member).inner.len(), 6);
    }

    for refusing in [0, 1] {
        let mut suite = doubles();
        suite.insert_many(&entries(0..6)).unwrap();
        suite.member(refusing).set(TIMES_OUT);
        let refused = Err(SuiteError::Rep(RepError::LockTimeout));
        assert_eq!(suite.scan().map(drop), refused);
        let mut suite = doubles();
        suite.member(refusing).set(TIMES_OUT);
        assert_eq!(suite.insert_many(&entries(6..9)).map(drop), refused);
        assert_eq!(suite.ping_counts(), vec![0, 0, 0]);
    }
}

#[test]
fn carried_small_value_scan_follows_the_carried_request_rules() {
    // (d) over values that ride the chains: the substitute's chain and
    // member 1's are the whole scan, one request each; a member that
    // refuses is still the scan's error.
    let entries: Vec<(Key, Value)> = keys(0..6, "k")
        .into_iter()
        .map(|key| (key, val("v")))
        .collect();
    let mut suite = doubles();
    suite.insert_many(&entries).unwrap();
    suite.member(0).set(DOWN);
    let (out, msgs, pings, waves) = cost(&mut suite, |s| s.scan());
    assert_eq!(out.unwrap().len(), 6);
    assert_eq!((msgs, pings), (vec![1, 1, 1], vec![0, 0, 0]));
    assert_eq!(waves, 2, "the carried chain and its substitute");

    for refusing in [0, 1] {
        let mut suite = doubles();
        suite.insert_many(&entries).unwrap();
        suite.member(refusing).set(TIMES_OUT);
        let refused = Err(SuiteError::Rep(RepError::LockTimeout));
        assert_eq!(suite.scan().map(drop), refused);
        assert_eq!(suite.ping_counts(), vec![0, 0, 0]);
    }
}

#[test]
fn deleting_the_only_key_probes_both_sentinels() {
    // An envelope is never empty — a client would answer it without a
    // message, and the collection would "gather" members nobody contacted —
    // so the probes name both neighbours even when both are sentinels, which
    // every member holds and nobody copies.
    let cluster = Cluster::new(0x501);
    let mut suite = cluster.suite(TxnId(1));
    suite.insert(&k("only"), &val("1")).unwrap();
    let sent = cluster.net.stats().sent;
    let (out, msgs, pings, spent) = rounds(&mut suite, |s| s.delete(&k("only")));
    let out = out.unwrap();
    assert_eq!((out.predecessor, out.successor), (Key::Low, Key::High));
    assert_eq!(out.copies_inserted, 0);
    assert_eq!((msgs, pings), (vec![3, 3, 0], vec![0, 0, 0]));
    assert_eq!(spent, 3);
    assert_eq!(
        cluster.net.stats().sent - sent,
        2 * (2 + 2 + 2),
        "W members were contacted in the probe round"
    );
    for i in 0..3 {
        suite.member(i).commit().unwrap();
    }
    for rep in &cluster.reps[..2] {
        let state = rep.snapshot();
        assert!(state.is_empty());
        assert_eq!(state.lookup(&k("only")).version(), out.gap_version);
    }
}

#[test]
fn failed_probe_is_substituted_or_refused_like_any_carried_request() {
    // (d) The write collection carries the neighbour probes, so it follows
    // the carried-request rules: a member that cannot be reached is replaced
    // inside the collection, a member that refuses decides the operation.
    let suite = |mode| {
        let mut suite = doubles();
        for key in ["a", "b", "c"] {
            suite.insert(&k(key), &val(key)).unwrap();
        }
        suite.set_policy(Box::new(PerKind {
            read: vec![0, 1, 2],
            write: vec![2, 1, 0],
        }));
        suite.member(2).set(mode);
        suite
    };

    let mut unreachable = suite(DOWN);
    let (out, msgs, pings, waves) = cost(&mut unreachable, |s| s.delete(&k("b")));
    let out = out.unwrap();
    assert_eq!(out.quorum, vec![RepId(1), RepId(0)]);
    assert_eq!(out.copies_inserted, 0);
    assert_eq!((msgs, pings), (vec![3, 3, 1], vec![0, 0, 0]));
    assert_eq!(waves, 3, "read, write, and the write's substitute");

    let mut refusing = suite(TIMES_OUT);
    let (out, msgs, pings, _) = cost(&mut refusing, |s| s.delete(&k("b")));
    assert_eq!(out, Err(SuiteError::Rep(RepError::LockTimeout)));
    assert_eq!((msgs, pings), (vec![1, 2, 1], vec![0, 0, 0]));
    assert!(refusing
        .member(1)
        .inner
        .lookup(&k("b"))
        .unwrap()
        .is_present());
}

/// A member that dies the moment the coalesce reaches it.
struct DiesAtCoalesce {
    inner: SessionClient,
    doomed: bool,
}

impl RepClient for DiesAtCoalesce {
    fn id(&self) -> RepId {
        self.inner.id()
    }

    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        let coalesces = matches!(ops.last(), Some(Op::Coalesce(..)));
        if coalesces && self.doomed {
            self.inner.rep().set_available(false);
        }
        self.inner.execute(ops)
    }
}

#[test]
fn member_failing_the_coalesce_round_aborts_cleanly_and_is_retried() {
    // (e) Round C has no collection to substitute in: a member lost there
    // surfaces `Unavailable`. By then the other member has taken its copies
    // and coalesced; the driver's abort must undo all of it, and its retry
    // — a fresh transaction over the survivors — completes the delete.
    let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
    let dir = ReplicatedDirectory::new(config.clone(), 0xE).unwrap();
    let mut setup = dir.begin_with_policy(order(&[0, 1, 2]));
    for key in ["a", "b", "c"] {
        setup.suite_mut().insert(&k(key), &val(key)).unwrap();
    }
    setup.commit();
    let states = || -> Vec<_> { dir.reps().iter().map(|rep| rep.snapshot()).collect() };
    let (before, listed) = (states(), dir.scan().unwrap());

    let mut attempts = 0;
    dir.run(|suite| {
        attempts += 1;
        if attempts == 1 {
            // Same transaction, same representatives, through clients that
            // kill member 2 as round C arrives. Member 2 lacks both
            // neighbours, so member 1's round C carries nothing but the
            // coalesce and member 2's would have carried two copies.
            let clients = (0..3)
                .map(|i| DiesAtCoalesce {
                    inner: suite.member(i).clone(),
                    doomed: i == 2,
                })
                .collect();
            let mut doomed = DirSuite::new(clients, config.clone(), order(&[1, 2, 0])).unwrap();
            let failed = doomed.delete(&k("b")).unwrap_err();
            assert_eq!(failed, SuiteError::Rep(RepError::Unavailable));
            assert!(dir.reps()[1].snapshot() != before[1], "member 1 coalesced");
            return Err(failed);
        }
        assert_eq!(states(), before, "the abort rolled round C back");
        for rep in dir.reps() {
            assert_eq!(rep.lock_holders(), vec![], "and released its locks");
        }
        suite.delete(&k("b")).map(drop)
    })
    .unwrap();
    assert_eq!(attempts, 2);
    dir.reps()[2].set_available(true);
    let mut expect = listed;
    expect.remove(1);
    assert_eq!(dir.scan().unwrap(), expect);
}

#[test]
fn request_outliving_its_transaction_takes_no_lock() {
    // A straggler or fabric duplicate that lands after Commit/Abort, or a
    // request at a member that never saw Begin, must not strand a range lock:
    // nobody would release it, and the key's next writer would wait out the
    // lock timeout forever.
    let cluster = Cluster::new(0x10C);
    let mut next_txn = 10;
    for ending in ["commit", "abort", "no begin"] {
        let t = TxnId(next_txn);
        next_txn += 2;
        let client = cluster.client(0, t);
        match ending {
            "commit" => {
                client.begin().unwrap();
                client
                    .insert(&k("held"), Version::new(1), &val("H"))
                    .unwrap();
                client.commit().unwrap();
            }
            "abort" => {
                client.begin().unwrap();
                client.abort();
            }
            _ => {}
        }
        let key = k(ending);
        assert_eq!(client.lookup(&key), Err(RepError::Unavailable), "{ending}");
        assert_eq!(
            client.insert(&key, Version::new(1), &val("late")),
            Err(RepError::TransactionAborted),
            "{ending}"
        );
        let rep = &cluster.reps[0];
        assert_eq!(rep.lock_holders(), vec![], "{ending}");

        let waited = rep.lock_stats().waited;
        let follower = cluster.client(0, TxnId(t.0 + 1));
        follower.begin().unwrap();
        follower
            .insert(&key, Version::new(1), &val("next"))
            .unwrap();
        follower.commit().unwrap();
        assert_eq!(rep.lock_stats().waited, waited, "{ending}: granted at once");
    }
}
