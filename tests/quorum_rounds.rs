//! Message-round budgets of the point operations.
//!
//! Any set of members whose votes reach the threshold is a quorum (§3.1), so
//! the members that *answer a request* are the quorum: a lookup's or a quorum
//! write's collection carries the request itself and spends no ping round.
//! These tests pin the budgets that follow — lookup = R data requests,
//! insert/update = R + W, delete = R + 2W in three rounds, whose read
//! collection carries the lookup and both first chain hops and whose write
//! collection carries the neighbour probes — over the fabric and in process,
//! fanned out and
//! with a window of one, and pin what happens when a carried request fails:
//! an unreachable member's vote is re-collected inside the call, a member
//! with a recorded miss is pinged before it is trusted with data, and a
//! member that refuses is the operation's error, never substituted.

use repdir::core::suite::{DirSuite, FixedPolicy, QuorumPolicy, SuiteConfig};
use repdir::core::{
    BatchRequest, Completion, Key, LocalRep, QuorumKind, RepClient, RepError, RepId, RepReply,
    RepRequest, RepResult, SuiteError, Value, Version,
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
        let clients: Vec<_> = (0..3).map(|i| self.client(i, txn)).collect();
        for client in &clients {
            client.begin().expect("healthy fabric");
        }
        let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
        DirSuite::new(clients, config, order(&[0, 1, 2])).unwrap()
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
    for fanout in [true, false] {
        let mut local = DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2).unwrap(), 1).unwrap();
        local.set_policy(order(&[0, 1, 2]));
        local.set_fanout(fanout);
        assert_fault_free_budgets(&mut local, None);

        let cluster = Cluster::new(0xA11);
        let mut remote = cluster.suite(TxnId(1));
        remote.set_fanout(fanout);
        assert_fault_free_budgets(&mut remote, Some(&cluster.net));
    }
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

    fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
        let ping = req == RepRequest::Ping;
        let seen = if ping { &self.pings } else { &self.data };
        seen.fetch_add(1, Ordering::SeqCst);
        match self.mode.load(Ordering::SeqCst) {
            DOWN | SILENT => Err(RepError::Unavailable),
            DEADLOCKS if !ping => Err(RepError::Deadlock),
            TIMES_OUT if !ping => Err(RepError::LockTimeout),
            _ => self.inner.execute(req),
        }
    }

    fn start(&self, req: RepRequest<'_>, done: Completion) {
        let reply = self.execute(req);
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
    // (c) The first key's waves collect both quorums; every later key asks
    // exactly the members those sessions hold. 64 keys: 64 × 3 rounds of
    // R, W and W requests, two collections, no ping.
    let keys: Vec<Key> = (0..64).map(|i| k(&format!("key{i:02}"))).collect();
    let entries: Vec<(Key, Value)> = keys.iter().map(|key| (key.clone(), val("v"))).collect();
    for fanout in [true, false] {
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
        remote.set_fanout(fanout);
        local.set_fanout(fanout);
        let sent = cluster.net.stats().sent;
        check(&mut local, &entries, &keys);
        assert_eq!(cluster.net.stats().sent, sent);
        check(&mut remote, &entries, &keys);
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

    fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
        let coalesces = match req {
            RepRequest::Coalesce(..) => true,
            RepRequest::Batch(parts) => matches!(parts.last(), Some(BatchRequest::Coalesce(..))),
            _ => false,
        };
        if coalesces && self.doomed {
            self.inner.rep().set_available(false);
        }
        self.inner.execute(req)
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
