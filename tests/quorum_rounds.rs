//! Message-round budgets of the point operations.
//!
//! Any set of members whose votes reach the threshold is a quorum (§3.1), so
//! the members that *answer a request* are the quorum: a lookup's or a quorum
//! write's collection carries the request itself and spends no ping round.
//! These tests pin the budgets that follow — lookup = R data requests,
//! insert/update = R + W, delete = one carried read collection plus one
//! pinged write collection — over the fabric and in process, fanned out and
//! with a window of one, and pin what happens when a carried request fails:
//! an unreachable member's vote is re-collected inside the call, a member
//! with a recorded miss is pinged before it is trusted with data, and a
//! member that refuses is the operation's error, never substituted.

use repdir::core::suite::{DirSuite, FixedPolicy, QuorumPolicy, SuiteConfig};
use repdir::core::{
    Completion, Key, LocalRep, QuorumKind, RepClient, RepError, RepId, RepReply, RepRequest,
    RepResult, SuiteError, Value, Version,
};
use repdir::net::{Network, NodeId, RpcClient, ServerHandle};
use repdir::replica::{serve_rep, RemoteSessionClient, ReplicatedDirectory, TransactionalRep};
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

    // (e) Delete: the opening lookup's carried collection opens the read
    // session both neighbour searches then reuse; only the write collection
    // pings. Per quorum member: the lookup, then per search one chain refill
    // and one candidate lookup, two neighbour probes and the coalesce.
    let reuse = suite.obs().counter("suite.session.reuse");
    let reused = reuse.get();
    let (out, msgs, pings, waves) = cost(suite, |s| s.delete(&k("b")));
    let out = out.unwrap();
    assert_eq!((out.predecessor, out.successor), (k("a"), k("c")));
    assert_eq!(
        pings,
        vec![1, 1, 0],
        "W pings for the write quorum, no read ping"
    );
    assert_eq!(msgs, vec![8, 8, 0]);
    assert_eq!(
        waves, 2,
        "one carried read collection, one pinged write one"
    );
    assert!(reuse.get() - reused >= 2, "both searches reuse the session");
    assert_fabric(&msgs, &pings);
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
