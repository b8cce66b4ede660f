//! Directory suites: the replicated directory built from representatives by
//! weighted voting (paper §3.2).
//!
//! A [`DirSuite`] combines a set of [`RepClient`]s, a vote distribution and
//! quorum sizes ([`SuiteConfig`]), and a [`QuorumPolicy`]. It implements the
//! paper's four user-facing operations —
//! [`lookup`](DirSuite::lookup) (Fig. 8), [`insert`](DirSuite::insert)
//! (Fig. 9), [`update`](DirSuite::update), and [`delete`](DirSuite::delete)
//! (Fig. 13) — plus the [`real_predecessor`](DirSuite::real_predecessor) /
//! [`real_successor`](DirSuite::real_successor) searches (Fig. 12) that
//! deletion needs.

mod config;
pub mod quorum;
mod set;
mod wave;

pub use config::SuiteConfig;
pub use quorum::{
    FixedPolicy, LatencyPolicy, LocalityPolicy, QuorumPolicy, RandomPolicy, RepairHealth,
    StickyPolicy,
};
pub use set::DirSet;

use crate::error::{ConfigError, QuorumKind, RepError, SuiteError};
use crate::gapmap::LookupReply;
use crate::key::Key;
use crate::rep::{BatchReply, BatchRequest, LocalRep, RepClient, RepId, RepReply, RepRequest};
use crate::value::Value;
use crate::version::Version;
use std::sync::Arc;
use std::time::Duration;

use repdir_obs::{Avail, Counter, Ewma, Histogram, Registry};
use wave::{Executor, Traffic};

/// Result of [`DirSuite::lookup`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LookupOutcome {
    /// Whether the directory suite contains an entry for the key.
    pub present: bool,
    /// The winning (highest) version returned by the read quorum. For an
    /// absent key this is the current gap version — internal callers
    /// (Figs. 9, 12, 13) need it; end users ignore it (paper footnote 4).
    pub version: Version,
    /// The entry's value when present.
    pub value: Option<Value>,
    /// The representatives whose replies formed the read quorum.
    pub quorum: Vec<RepId>,
}

/// Result of [`DirSuite::insert`] and [`DirSuite::update`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteOutcome {
    /// The version assigned to the written entry.
    pub version: Version,
    /// The representatives written (the write quorum).
    pub quorum: Vec<RepId>,
}

/// Result of [`DirSuite::insert_many`] / [`DirSuite::delete_many`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BulkWriteOutcome {
    /// Per key, in input order: the version assigned to the written entry
    /// (for inserts) or to the coalesced gap (for deletes).
    pub versions: Vec<Version>,
}

/// Result of [`DirSuite::real_predecessor`] / [`DirSuite::real_successor`]
/// (Fig. 12).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborSearch {
    /// The real neighbor's key (possibly a sentinel).
    pub key: Key,
    /// The neighbor's current version ([`Version::ZERO`] for sentinels).
    pub version: Version,
    /// The neighbor's value (empty for sentinels).
    pub value: Option<Value>,
    /// The largest gap version encountered while searching; deletion folds
    /// this into the coalesced gap's version.
    pub max_gap_version: Version,
    /// Number of search-loop iterations (lookup probes). The paper's §4
    /// batching claim — "three successive DirRepPredecessor … in a single
    /// message" — is evaluated from this count together with `rpc_calls`.
    pub steps: u32,
    /// Neighbor (chain) RPCs issued across all quorum members. With a
    /// batch size of `b`, roughly `quorum_size * ceil(steps / b)`.
    pub rpc_calls: u32,
}

/// Result of [`DirSuite::delete`], carrying the counts behind the paper's
/// §4 statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeleteOutcome {
    /// The real predecessor used as the lower coalesce boundary.
    pub predecessor: Key,
    /// The real successor used as the upper coalesce boundary.
    pub successor: Key,
    /// The version assigned to the coalesced gap.
    pub gap_version: Version,
    /// Copies of the real predecessor/successor inserted into write-quorum
    /// members that lacked them — the "Insertions while coalescing"
    /// statistic.
    pub copies_inserted: u32,
    /// Per write-quorum member: how many entries were removed by the
    /// coalesce (the deleted entry where present, plus ghosts) — the
    /// "Entries in ranges coalesced" statistic's samples.
    pub entries_in_range: Vec<(RepId, usize)>,
    /// Ghost entries removed across the whole quorum (entries other than the
    /// deleted key) — the "Deletions while coalescing" statistic.
    pub ghosts_deleted: u32,
    /// Search-loop iterations taken by the real-predecessor search.
    pub pred_steps: u32,
    /// Search-loop iterations taken by the real-successor search.
    pub succ_steps: u32,
    /// Neighbor-chain RPCs issued by the real-predecessor search.
    pub pred_rpcs: u32,
    /// Neighbor-chain RPCs issued by the real-successor search.
    pub succ_rpcs: u32,
    /// The write quorum used.
    pub quorum: Vec<RepId>,
}

struct Member<C> {
    client: C,
    votes: u32,
}

/// Per-suite observability handles, resolved by name once at construction so
/// the hot path records through lock-free atomics. Each suite owns a fresh
/// [`Registry`] by default — per-member counters stay exact even when many
/// suites (or parallel tests) run in one process — and
/// [`DirSuite::set_obs_registry`] rebinds everything to a shared one.
struct SuiteObs {
    registry: Registry,
    /// Data RPCs per member (`suite.member.{i}.msgs`) — the paper's §4
    /// message-count statistic, formerly the ad-hoc `msg_counts` vector.
    msgs: Vec<Counter>,
    /// Quorum-collection pings per member (`suite.member.{i}.pings`).
    pings: Vec<Counter>,
    /// Reply-time EWMA per member (`suite.member.{i}.reply_us`), fed by
    /// every timed ping and data RPC; [`LatencyPolicy`] orders quorum
    /// candidates by it.
    reply: Vec<Ewma>,
    /// Windowed success rate per member (`suite.member.{i}.avail`), fed by
    /// every ping and data RPC outcome; adaptive waves provision by it and
    /// [`LatencyPolicy`] discounts by it.
    avail: Vec<Avail>,
    /// Suite-local reply-time histogram (`suite.reply_us`) over every timed
    /// ping and data RPC; the hedge delay is derived from its quantiles.
    /// Suite-local rather than the global `rpc.reply_us` so parallel suites
    /// (and parallel tests) never pollute each other's delay estimate.
    reply_hist: Histogram,
    /// Collection waves issued by `collect_quorum`, carried or pinged
    /// (`suite.quorum.waves`).
    waves: Counter,
    /// Every wave the executor opened, collection or not (`suite.rounds`).
    rounds: Counter,
    /// Hedge RPCs the suite issued after a wave straggled
    /// (`suite.hedge.issued`).
    hedge_issued: Counter,
    /// Hedge RPCs whose reply was counted toward the quorum or merged into
    /// the read result (`suite.hedge.won`).
    hedge_won: Counter,
    /// Hedge RPCs that lost the race or went unused (`suite.hedge.wasted`).
    hedge_wasted: Counter,
    /// Preferred candidates that were asked but failed to vote
    /// (`suite.quorum.sticky_miss`): for a sticky policy this is exactly
    /// "a remembered member stopped responding", forcing fresh collection.
    sticky_miss: Counter,
    /// Quorum collections answered from a held session without pinging
    /// (`suite.session.reuse`): each increment is one ping wave a bulk
    /// operation did not pay.
    session_reuse: Counter,
    /// Session re-validations (`suite.session.revalidate`): a held member
    /// failed mid-walk, so the session was rebuilt with one ping wave over
    /// the prior members plus re-collection of only the failed votes.
    session_revalidate: Counter,
    /// Bulk write operations started (`suite.bulk.ops`).
    bulk_ops: Counter,
    /// Keys carried by bulk write operations (`suite.bulk.keys`).
    bulk_keys: Counter,
    /// Bulk write bodies that restarted after a mid-batch re-validation and
    /// resumed from their first unacknowledged key (`suite.bulk.resumed`).
    bulk_resumed: Counter,
    /// Quorum reads that observed a member voting with a version older than
    /// the merged winner (`repair.stale_votes_observed`) — each increment is
    /// one entry queued for inline read-repair.
    stale_votes: Counter,
}

/// Sample recorded into a member's reply-time EWMA when an RPC to it fails.
///
/// A dead member often fails *fast* (a refused connection returns quicker
/// than a healthy reply), so the measured duration of a failed call says
/// nothing about the member's health — left alone it keeps a stale-fast
/// EWMA attractive and [`LatencyPolicy`] keeps routing quorums at a corpse.
/// Recording a large penalty instead demotes the member until real
/// successes decay it back. (Resetting the EWMA would be worse: unsampled
/// members sort *first* in [`LatencyPolicy`]'s order.)
const FAILED_RPC_PENALTY: std::time::Duration = std::time::Duration::from_secs(1);

impl SuiteObs {
    fn new(registry: Registry, n: usize) -> Self {
        let handle = |kind: &str, i: usize| format!("suite.member.{i}.{kind}");
        SuiteObs {
            msgs: (0..n)
                .map(|i| registry.counter(&handle("msgs", i)))
                .collect(),
            pings: (0..n)
                .map(|i| registry.counter(&handle("pings", i)))
                .collect(),
            reply: (0..n)
                .map(|i| registry.ewma(&handle("reply_us", i)))
                .collect(),
            avail: (0..n)
                .map(|i| registry.avail(&handle("avail", i)))
                .collect(),
            reply_hist: registry.histogram("suite.reply_us"),
            waves: registry.counter("suite.quorum.waves"),
            rounds: registry.counter("suite.rounds"),
            hedge_issued: registry.counter("suite.hedge.issued"),
            hedge_won: registry.counter("suite.hedge.won"),
            hedge_wasted: registry.counter("suite.hedge.wasted"),
            sticky_miss: registry.counter("suite.quorum.sticky_miss"),
            session_reuse: registry.counter("suite.session.reuse"),
            session_revalidate: registry.counter("suite.session.revalidate"),
            bulk_ops: registry.counter("suite.bulk.ops"),
            bulk_keys: registry.counter("suite.bulk.keys"),
            bulk_resumed: registry.counter("suite.bulk.resumed"),
            stale_votes: registry.counter("repair.stale_votes_observed"),
            registry,
        }
    }
}

/// One stale vote observed during a quorum read: `member` answered with
/// `seen`, but the merged quorum winner carried `latest`.
///
/// The read itself is already correct — the winner's version rule masked the
/// stale reply — so nothing is urgent. Queued votes are drained with
/// [`DirSuite::take_stale_votes`] and handed to the anti-entropy layer
/// (`repdir-repair`), which pulls the fresh entry into the stale member
/// without spending a quorum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaleVote {
    /// Index of the member that voted stale.
    pub member: usize,
    /// The key the read asked about.
    pub key: Key,
    /// The version the stale member answered with (entry or gap version).
    pub seen: Version,
    /// The winning version the quorum merge settled on.
    pub latest: Version,
}

/// Stale votes, oldest observation first, coalesced per `(member, key)` in
/// place through an index: a scan over a lagging member notes one per entry.
#[derive(Default)]
struct VoteLog {
    votes: Vec<StaleVote>,
    /// Where in `votes` each `(member, key)` sits.
    slots: std::collections::HashMap<(usize, Key), usize>,
}

impl VoteLog {
    /// Whether `vote` says nothing new: same `(member, key)`, same `latest`.
    fn holds(&self, vote: &StaleVote) -> bool {
        let slot = self.slots.get(&(vote.member, vote.key.clone()));
        slot.is_some_and(|&at| self.votes[at].latest == vote.latest)
    }

    fn note(&mut self, vote: StaleVote) {
        match self.slots.entry((vote.member, vote.key.clone())) {
            std::collections::hash_map::Entry::Occupied(slot) => self.votes[*slot.get()] = vote,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(self.votes.len());
                self.votes.push(vote);
            }
        }
    }

    fn take(&mut self) -> Vec<StaleVote> {
        self.slots.clear();
        std::mem::take(&mut self.votes)
    }

    /// Removes and returns the votes naming `member`, oldest first.
    fn take_member(&mut self, member: usize) -> Vec<StaleVote> {
        let (taken, kept) = self.take().into_iter().partition(|v| v.member == member);
        for vote in kept {
            self.note(vote);
        }
        taken
    }
}

/// A shared, deduplicating queue of [`StaleVote`]s, the hand-off point
/// between the read path (any number of [`DirSuite`]s pushing via
/// [`set_stale_vote_sink`](DirSuite::set_stale_vote_sink)) and the repair
/// drivers draining votes for the member they heal.
///
/// Votes are coalesced per `(member, key)`: a key that keeps getting read
/// while stale produces one queued vote (carrying the latest observation),
/// one spill and one wake-up — not one redundant bucket pull, WAL sync or
/// wake-up per read. Per-member wakers let a driver sleep until evidence for
/// *its* member actually arrives.
#[derive(Default)]
pub struct StaleVoteQueue {
    votes: crate::sync::Mutex<VoteLog>,
    wakers: crate::sync::Mutex<Vec<Option<VoteWaker>>>,
    spill: crate::sync::Mutex<Option<VoteSpill>>,
}

/// Callback fired after a vote for a member is queued; see
/// [`StaleVoteQueue::set_waker`].
pub type VoteWaker = Box<dyn Fn() + Send + Sync>;

/// Durability hook fired when [`StaleVoteQueue::push`] queues something new;
/// see [`StaleVoteQueue::set_spill`].
pub type VoteSpill = Box<dyn Fn(&StaleVote) + Send + Sync>;

impl StaleVoteQueue {
    /// An empty queue with no wakers.
    pub fn new() -> Self {
        StaleVoteQueue::default()
    }

    /// Queues one vote, coalescing with any queued vote for the same
    /// `(member, key)` — the newer observation replaces the older in place,
    /// so queue order stays oldest-first per target. An observation the
    /// queue already holds (same `latest`) costs no spill and no wake-up;
    /// otherwise the member's waker (if registered) fires after the push.
    pub fn push(&self, vote: StaleVote) {
        if self.votes.lock().holds(&vote) {
            return;
        }
        let member = vote.member;
        {
            // Spill before queueing/waking: the driver that the waker
            // rouses should find the vote already durable, so a crash
            // between observe and pull replays it on restart.
            let spill = self.spill.lock();
            if let Some(spill) = spill.as_ref() {
                spill(&vote);
            }
        }
        self.votes.lock().note(vote);
        let wakers = self.wakers.lock();
        if let Some(Some(waker)) = wakers.get(member) {
            waker();
        }
    }

    /// Re-queues a vote recovered from durable storage: coalesces like
    /// [`push`](Self::push) but fires neither the spill hook (it is already
    /// durable) nor the waker (recovery happens before drivers spawn).
    pub fn restore(&self, vote: StaleVote) {
        self.votes.lock().note(vote);
    }

    /// Drains every queued vote naming `member`, oldest observation first.
    pub fn drain_member(&self, member: usize) -> Vec<StaleVote> {
        self.votes.lock().take_member(member)
    }

    /// Drains the whole queue, oldest first.
    pub fn drain_all(&self) -> Vec<StaleVote> {
        self.votes.lock().take()
    }

    /// Number of queued (coalesced) votes.
    pub fn len(&self) -> usize {
        self.votes.lock().votes.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Installs (or clears) the waker called after a vote for `member` is
    /// queued. The callback runs on the reading thread and must not block:
    /// typical implementations send a wake message to a driver channel. A
    /// waker installed over a backlog fires at once: re-observing what is
    /// already queued wakes nobody.
    pub fn set_waker(&self, member: usize, waker: Option<VoteWaker>) {
        let mut wakers = self.wakers.lock();
        if wakers.len() <= member {
            wakers.resize_with(member + 1, || None);
        }
        wakers[member] = waker;
        // Installed first: a vote pushed meanwhile wakes it or is seen here.
        let backlog = self.votes.lock().votes.iter().any(|v| v.member == member);
        if let (true, Some(waker)) = (backlog, &wakers[member]) {
            waker();
        }
    }

    /// Installs (or clears) the durability hook called with every new or
    /// newer vote *before* it is queued. Typical implementations append a
    /// `WalRecord::StaleVote` sidecar to the stale member's log so a
    /// restarted process resumes targeted pulls instead of waiting for the
    /// fallback sweep. The hook runs on the reading thread: it may sync a
    /// WAL (one small record) but must not block on the network.
    pub fn set_spill(&self, spill: Option<VoteSpill>) {
        *self.spill.lock() = spill;
    }
}

impl std::fmt::Debug for StaleVoteQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaleVoteQueue")
            .field("queued", &self.len())
            .finish_non_exhaustive()
    }
}

/// A quorum held across the hops of one bulk operation (a scan, the keys of
/// a bulk write) instead of being re-collected per hop.
///
/// Safety rests on the paper's §3.1 intersection argument: *which* read
/// quorum answers never affects correctness — every read quorum intersects
/// every write quorum, so re-asking the same members each hop returns data
/// at least as fresh as any other quorum would. The only thing per-hop
/// collection buys is failure detection, and the session keeps that by
/// re-validating (one ping wave over the prior members, re-collecting only
/// the failed votes) the moment a held member returns
/// [`RepError::Unavailable`] or times out mid-walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumSession {
    /// Member indices forming the quorum, in preference order.
    pub members: Vec<usize>,
    /// Whether the session holds a read or a write quorum.
    pub kind: QuorumKind,
    /// Bumped on every re-validation; 0 for a freshly collected session.
    pub epoch: u64,
}

/// What a quorum collection gathered: the members, in preference order,
/// and each one's reply to the carried request (`Pong` when it was pinged;
/// none when a held session answered from cache).
struct Quorum {
    members: Vec<usize>,
    replies: Vec<RepReply>,
}

impl Quorum {
    /// Arranges arrival-ordered replies by their member's place in `order`.
    fn arrange(mut gathered: Vec<(usize, RepReply)>, order: &[usize]) -> Self {
        gathered.sort_by_key(|&(i, _)| order.iter().position(|&o| o == i));
        let (members, replies) = gathered.into_iter().unzip();
        Quorum { members, replies }
    }
}

/// A replicated directory: Gifford-style weighted voting over gap-versioned
/// representatives.
///
/// # Examples
///
/// ```
/// use repdir_core::suite::{DirSuite, SuiteConfig};
/// use repdir_core::{Key, Value};
///
/// // The paper's 3-2-2 suite with uniformly random quorums, seeded.
/// let mut suite = DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2)?, 42)?;
/// suite.insert(&Key::from("b"), &Value::from("B"))?;
/// let found = suite.lookup(&Key::from("b"))?;
/// assert!(found.present);
/// suite.delete(&Key::from("b"))?;
/// assert!(!suite.lookup(&Key::from("b"))?.present);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct DirSuite<C: RepClient> {
    // Debug: the policy is a trait object, so derive is unavailable; see the
    // manual impl below.
    members: Vec<Member<C>>,
    config: SuiteConfig,
    policy: Box<dyn QuorumPolicy + Send>,
    /// Best-effort writes to zero-vote (weak) representatives after each
    /// successful quorum write.
    write_through_weak: bool,
    /// How many successive neighbor results each chain RPC requests
    /// (§4 batching; 1 = the unbatched Fig. 12 algorithm).
    neighbor_batch: usize,
    /// The bulk operations' one bound: keys per ingest envelope, keys per
    /// delete window, results per chain request of a scan.
    bulk_chunk: usize,
    /// Whether a wave's requests are all put in flight before any reply is
    /// awaited (default), or one at a time — a window of one through the
    /// same executor, kept as the counter/latency baseline.
    fanout: bool,
    /// The read ([`QuorumKind::Read`] = slot 0) and write (slot 1) session
    /// quorums currently held by an in-flight bulk operation.
    sessions: [Option<QuorumSession>; 2],
    /// Nesting depth of bulk-operation scopes; sessions are dropped when it
    /// returns to zero so no quorum outlives the operation that pinned it.
    session_depth: u32,
    /// Whether bulk operations hold session quorums (default) or collect a
    /// fresh quorum per hop (the pre-session baseline).
    session_reuse: bool,
    /// Whether `collect_quorum` sizes each pinged wave by expected
    /// (availability-weighted) yield and returns at the vote threshold
    /// (default), or uses the minimal-prefix waves that guarantee an extra
    /// round whenever any member is down (the baseline the property tests
    /// compare against).
    adaptive_waves: bool,
    /// Ceiling on wave over-provisioning: a wave (including hedges) may
    /// provision at most `ceil(deficit * max_overprovision)` votes.
    max_overprovision: f64,
    /// Whether straggling collection requests — pings and carried requests
    /// — are hedged to the next-ranked spare member (off by default: hedging
    /// spends extra requests, so exact-count tests opt in explicitly).
    hedge: bool,
    /// Explicit hedge-delay override; `None` derives it from the suite's
    /// reply-time histogram.
    hedge_delay: Option<Duration>,
    /// Whether quorum reads watch for stale member votes and queue them for
    /// inline read-repair (default). Off is the no-repair baseline.
    repair: bool,
    /// Stale votes observed by quorum reads, drained by
    /// [`take_stale_votes`](DirSuite::take_stale_votes). Coalesced per
    /// `(member, key)`; unused when a shared sink is installed.
    stale_votes: VoteLog,
    /// Shared sink stale votes are routed to instead of the local queue —
    /// the hand-off to background repair drivers
    /// ([`set_stale_vote_sink`](DirSuite::set_stale_vote_sink)).
    stale_sink: Option<Arc<StaleVoteQueue>>,
    /// Per-member repair-health flags attached to [`latency_policy`]
    /// (`DirSuite::latency_policy`) snapshots so readers demote members
    /// whose drivers report unhealed buckets.
    repair_health: Option<Arc<RepairHealth>>,
    /// EWMA sample recorded when a member RPC fails; defaults to
    /// [`FAILED_RPC_PENALTY`].
    penalty_sample: Duration,
    obs: SuiteObs,
    /// In-flight member requests and the queue their completions land on.
    exec: Executor,
}

impl<C: RepClient> DirSuite<C> {
    /// Creates a suite from representative clients, a configuration, and a
    /// quorum policy. Client `i` receives `config.votes_of(i)` votes.
    ///
    /// # Errors
    ///
    /// [`ConfigError::MemberCountMismatch`] if `clients.len()` differs from
    /// the configuration's member count.
    pub fn new(
        clients: Vec<C>,
        config: SuiteConfig,
        policy: Box<dyn QuorumPolicy + Send>,
    ) -> Result<Self, ConfigError> {
        if clients.len() != config.member_count() {
            return Err(ConfigError::MemberCountMismatch {
                clients: clients.len(),
                votes: config.member_count(),
            });
        }
        let n = clients.len();
        let members = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| Member {
                client,
                votes: config.votes_of(i),
            })
            .collect();
        let obs = SuiteObs::new(Registry::new(), n);
        let mut policy = policy;
        policy.observe_availability(&obs.avail);
        Ok(DirSuite {
            members,
            config,
            policy,
            write_through_weak: false,
            neighbor_batch: 1,
            bulk_chunk: 64,
            fanout: true,
            sessions: [None, None],
            session_depth: 0,
            session_reuse: true,
            adaptive_waves: true,
            max_overprovision: 2.0,
            hedge: false,
            hedge_delay: None,
            repair: true,
            stale_votes: VoteLog::default(),
            stale_sink: None,
            repair_health: None,
            penalty_sample: FAILED_RPC_PENALTY,
            obs,
            exec: Executor::new(),
        })
    }

    /// The suite's configuration.
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// Number of representatives.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// The client for representative `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn member(&self, i: usize) -> &C {
        &self.members[i].client
    }

    /// Replaces the quorum policy (e.g. to script specific quorums in tests
    /// or to switch from random to sticky selection mid-run). The suite's
    /// per-member availability handles are offered to the new policy
    /// ([`QuorumPolicy::observe_availability`]); availability-aware
    /// policies start discounting immediately.
    pub fn set_policy(&mut self, mut policy: Box<dyn QuorumPolicy + Send>) {
        policy.observe_availability(&self.obs.avail);
        self.policy = policy;
    }

    /// Enables or disables best-effort propagation of writes to zero-vote
    /// (weak) representatives. Failures of weak writes are ignored — weak
    /// representatives are hints (§2).
    pub fn set_write_through_weak(&mut self, enabled: bool) {
        self.write_through_weak = enabled;
    }

    /// Sets how many successive neighbor results each chain RPC requests
    /// during the real-predecessor/successor searches (the §4 batching
    /// optimization; the paper suggests 3). A batch of 1 reproduces the
    /// unbatched Fig. 12 algorithm exactly.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn set_neighbor_batch(&mut self, batch: usize) {
        assert!(batch > 0, "neighbor batch must be at least 1");
        self.neighbor_batch = batch;
    }

    /// Sets the one bound of the bulk operations (default 64): keys per
    /// [`insert_many`](DirSuite::insert_many) envelope, keys a
    /// [`delete_many`](DirSuite::delete_many) window plans at once, results
    /// per chain request of a [`scan`](DirSuite::scan). Smaller chunks bound
    /// envelope size and retry granularity; larger chunks save round trips.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn set_bulk_chunk(&mut self, chunk: usize) {
        assert!(chunk > 0, "bulk chunk must be at least 1");
        self.bulk_chunk = chunk;
    }

    /// Enables or disables concurrent scatter-gather for member RPC waves.
    ///
    /// Enabled by default: each wave (quorum collections, chain refills,
    /// delete's coalesce round) is put in flight whole before any reply is
    /// awaited and costs the slowest member's latency instead of the sum. Disabling narrows the executor's window to one
    /// request — same RPCs, same counters, same answers, serialized — which
    /// is the baseline the `suite_latency` bench and the counter-equivalence
    /// property test compare against.
    pub fn set_fanout(&mut self, enabled: bool) {
        self.fanout = enabled;
    }

    /// Whether member RPC waves are issued concurrently.
    pub fn fanout_enabled(&self) -> bool {
        self.fanout
    }

    /// Enables or disables adaptive wave provisioning (enabled by default).
    ///
    /// Enabled, `collect_quorum` sizes each wave that pings (a prefix
    /// member has a recorded miss, or there is no request to carry) by its
    /// *expected* yield — every member's votes are weighted by its observed
    /// availability (`suite.member.{i}.avail`), and further candidates are
    /// provisioned until the expected vote count covers the deficit (capped
    /// by [`set_max_overprovision`](DirSuite::set_max_overprovision)) — and
    /// the wave stops listening the moment the threshold is met; stragglers
    /// are accounted when their completions surface. On a fault-free fabric every member's
    /// availability is 1.0, the wave is exactly the minimal prefix, and the
    /// behaviour (results, requests, waves) is identical to the baseline.
    ///
    /// Disabled, waves are the minimal prefix that could meet the threshold
    /// if every member answered — guaranteeing a full extra round whenever
    /// any member is down. This is the pre-adaptive baseline the property
    /// tests and `hedge_bench` compare against.
    pub fn set_adaptive_waves(&mut self, enabled: bool) {
        self.adaptive_waves = enabled;
    }

    /// Whether pinged waves are sized by expected yield.
    pub fn adaptive_waves_enabled(&self) -> bool {
        self.adaptive_waves
    }

    /// Caps adaptive over-provisioning: one wave (hedges included) may
    /// provision at most `ceil(deficit * factor)` votes (default 2.0).
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0` — a wave must always be allowed its
    /// minimal prefix.
    pub fn set_max_overprovision(&mut self, factor: f64) {
        assert!(factor >= 1.0, "overprovision factor must be at least 1.0");
        self.max_overprovision = factor;
    }

    /// Enables hedged member RPCs (disabled by default). With hedging on —
    /// and fan-out enabled — a collection request (a ping, or the lookup or
    /// write a collection carries) that outlives the hedge delay is
    /// duplicated to the next-ranked spare member, which joins the same
    /// wave; the first usable replies win and stragglers are only accounted.
    /// Hedging spends extra requests for tail latency
    /// (`suite.hedge.{issued,won,wasted}` counts the trade), so tests that
    /// assert exact request counts leave it off.
    pub fn set_hedge(&mut self, enabled: bool) {
        self.hedge = enabled;
    }

    /// Whether straggling member RPCs are hedged.
    pub fn hedge_enabled(&self) -> bool {
        self.hedge
    }

    /// Overrides the hedge delay. `None` (the default) derives it from the
    /// suite's reply-time histogram: three times the median reply,
    /// clamped below at 500 µs — a bimodal flaky fabric makes high
    /// percentiles useless, while 3×p50 fires only on genuine stragglers.
    /// Until that histogram has samples no hedges are issued.
    pub fn set_hedge_delay(&mut self, delay: Option<Duration>) {
        self.hedge_delay = delay;
    }

    /// Enables or disables session quorums for bulk operations (enabled by
    /// default).
    ///
    /// Enabled, a scan / neighbor search / bulk write collects its quorum
    /// once and holds it across every wave ([`QuorumSession`]), re-validating
    /// only when a held member fails, and the bulk operations cost
    /// `O(n / bulk_chunk)` waves. Disabled, the bulk writes are per-key
    /// loops, every hop collects a fresh quorum and scans take the unbatched
    /// per-hop path — the pre-session baseline the equivalence tests and
    /// `scan_bench` compare against.
    pub fn set_session_reuse(&mut self, enabled: bool) {
        self.session_reuse = enabled;
        if !enabled {
            self.sessions = [None, None];
        }
    }

    /// Whether bulk operations hold session quorums across hops.
    pub fn session_reuse_enabled(&self) -> bool {
        self.session_reuse
    }

    /// Enables or disables inline read-repair detection (enabled by
    /// default).
    ///
    /// Enabled, every quorum read compares each member's vote against the
    /// merged winner and queues [`StaleVote`]s for the anti-entropy layer
    /// (counted as `repair.stale_votes_observed`). Disabled, reads skip the
    /// bookkeeping entirely and the queue stays empty — the no-repair
    /// baseline. Disabling also drops anything already queued.
    pub fn set_repair(&mut self, enabled: bool) {
        self.repair = enabled;
        if !enabled {
            self.stale_votes.take();
        }
    }

    /// Whether inline read-repair detection is armed.
    pub fn repair_enabled(&self) -> bool {
        self.repair
    }

    /// Drains the queue of stale votes observed by quorum reads since the
    /// last drain, oldest first. Feed these to the repair subsystem; the
    /// reads that produced them were already correct (the version rule
    /// masked the stale replies), so draining lazily is safe. Empty while a
    /// shared sink is installed — the votes went to the sink instead.
    pub fn take_stale_votes(&mut self) -> Vec<StaleVote> {
        self.stale_votes.take()
    }

    /// Routes observed stale votes to a shared [`StaleVoteQueue`] instead of
    /// the suite-local queue — the hook a `ReplicatedDirectory` uses to feed
    /// one queue from every transaction's suite so background repair drivers
    /// can drain it. `None` restores the local queue. Anything already
    /// queued locally stays until [`take_stale_votes`] drains it.
    pub fn set_stale_vote_sink(&mut self, sink: Option<Arc<StaleVoteQueue>>) {
        self.stale_sink = sink;
    }

    /// Attaches shared per-member repair-health flags: subsequent
    /// [`latency_policy`](DirSuite::latency_policy) snapshots demote any
    /// member its repair driver flags as holding unhealed buckets. `None`
    /// detaches (future snapshots rank purely by latency/availability).
    pub fn set_repair_health(&mut self, health: Option<Arc<RepairHealth>>) {
        self.repair_health = health;
    }

    /// Overrides the reply-time EWMA sample recorded for a failed member
    /// RPC (default [`FAILED_RPC_PENALTY`], 1 s). A dead member often fails
    /// *fast*, so the penalty — not the measured duration — is what demotes
    /// it in latency-aware quorum selection; tune it to the fabric's actual
    /// tail so a single miss neither pins a member to the bottom for ages
    /// nor vanishes into the noise.
    pub fn set_penalty_sample(&mut self, sample: Duration) {
        self.penalty_sample = sample;
    }

    /// The session quorum currently held for `kind`, if a bulk operation is
    /// in flight. `None` between operations: sessions never outlive the
    /// operation that pinned them.
    pub fn session(&self, kind: QuorumKind) -> Option<&QuorumSession> {
        self.sessions[Self::kind_idx(kind)].as_ref()
    }

    /// The votes a quorum of `kind` needs.
    fn threshold(&self, kind: QuorumKind) -> u32 {
        match kind {
            QuorumKind::Read => self.config.read_quorum(),
            QuorumKind::Write => self.config.write_quorum(),
        }
    }

    fn kind_idx(kind: QuorumKind) -> usize {
        match kind {
            QuorumKind::Read => 0,
            QuorumKind::Write => 1,
        }
    }

    /// Runs `body` inside a bulk-operation scope: quorums collected while at
    /// least one scope is open are pinned as sessions and answered from
    /// cache on re-collection. Scopes nest (a search's closing lookup runs
    /// inside the search's scope); the sessions drop when the outermost
    /// scope closes.
    ///
    /// The scope is an RAII guard, not a begin/end pair: a panicking body
    /// (a poisoned client, a bug in a walk) unwinds through the guard, so
    /// the depth never leaks and no stale session outlives the operation
    /// that pinned it. The old manual pair left a panicked suite with
    /// `session_depth > 0` forever, silently answering every later quorum
    /// collection from a session that should have died — and underflowed if
    /// ever unbalanced.
    fn with_session_scope<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> R {
        struct Scope<'a, C: RepClient>(&'a mut DirSuite<C>);
        impl<C: RepClient> Drop for Scope<'_, C> {
            fn drop(&mut self) {
                self.0.session_depth -= 1;
                if self.0.session_depth == 0 {
                    self.0.sessions = [None, None];
                }
            }
        }
        self.session_depth += 1;
        let scope = Scope(self);
        body(scope.0)
    }

    fn take_session(&mut self, kind: QuorumKind) -> Option<QuorumSession> {
        self.sessions[Self::kind_idx(kind)].take()
    }

    fn store_session(&mut self, kind: QuorumKind, members: Vec<usize>, epoch: u64) {
        if self.session_reuse && self.session_depth > 0 {
            self.sessions[Self::kind_idx(kind)] = Some(QuorumSession {
                members,
                kind,
                epoch,
            });
        }
    }

    /// Runs a multi-hop body, re-validating every held session and
    /// restarting the body when a held member fails mid-walk. The budget
    /// bounds the member failures tolerated before the error surfaces.
    ///
    /// Restarts are trivially safe for read-only bodies. Write bodies (the
    /// bulk ingest walks) are restart-safe because they resume from their
    /// first unacknowledged key and replay any half-acknowledged work at
    /// the *same* explicit version the first attempt assigned — the Fig. 9
    /// version discipline makes such a replay an idempotent overwrite, so
    /// an acknowledged write is never re-applied at a new version
    /// (DESIGN.md §11).
    fn with_session_retries<R>(
        &mut self,
        mut body: impl FnMut(&mut Self) -> Result<R, SuiteError>,
    ) -> Result<R, SuiteError> {
        let mut budget = self.members.len() + 1;
        loop {
            match body(self) {
                Err(SuiteError::Rep(RepError::Unavailable))
                    if budget > 0 && self.sessions.iter().any(Option::is_some) =>
                {
                    budget -= 1;
                    // The failure does not say which held quorum the dead
                    // member belonged to, so re-confirm both.
                    for kind in [QuorumKind::Read, QuorumKind::Write] {
                        if self.session(kind).is_some() {
                            self.revalidate_session(kind)?;
                        }
                    }
                }
                out => return out,
            }
        }
    }

    /// Data RPCs sent to each representative since the last reset (pings
    /// excluded; the request a collection carries is data). Index `i`
    /// corresponds to member `i`. A view over the
    /// suite's obs counters (`suite.member.{i}.msgs`).
    pub fn message_counts(&self) -> Vec<u64> {
        self.obs.msgs.iter().map(Counter::get).collect()
    }

    /// Quorum-collection pings sent to each representative since the last
    /// reset — none for a lookup or a quorum write on a fabric without
    /// recorded misses. A view over the suite's obs counters
    /// (`suite.member.{i}.pings`).
    pub fn ping_counts(&self) -> Vec<u64> {
        self.obs.pings.iter().map(Counter::get).collect()
    }

    /// Zeroes both message counters.
    pub fn reset_message_counts(&mut self) {
        self.obs.msgs.iter().for_each(Counter::reset);
        self.obs.pings.iter().for_each(Counter::reset);
    }

    /// The suite's metric registry: per-member message/ping counters and
    /// reply-time EWMAs, quorum wave counters, and the spans recorded by
    /// every operation. Fresh per suite unless rebound with
    /// [`set_obs_registry`](DirSuite::set_obs_registry).
    pub fn obs(&self) -> &Registry {
        &self.obs.registry
    }

    /// Rebinds the suite's metrics to `registry` (e.g. the process-wide
    /// [`repdir_obs::global`] registry, or a disarmed one for overhead
    /// baselines). Counter readings restart from the registry's existing
    /// values — rebind before running a workload, not mid-measurement.
    pub fn set_obs_registry(&mut self, registry: Registry) {
        self.obs = SuiteObs::new(registry, self.members.len());
        // The old registry's handles are dead; re-offer the live ones.
        self.policy.observe_availability(&self.obs.avail);
    }

    /// Clones of the per-member reply-time EWMA handles, in member order.
    /// Feed these to [`LatencyPolicy`] so quorum selection tracks measured
    /// reply times; samples accumulate from every timed ping and data RPC.
    pub fn member_reply_ewmas(&self) -> Vec<Ewma> {
        self.obs.reply.clone()
    }

    /// Clones of the per-member availability handles
    /// (`suite.member.{i}.avail`), in member order: windowed success rates
    /// fed by every ping and data RPC outcome.
    pub fn member_avails(&self) -> Vec<Avail> {
        self.obs.avail.clone()
    }

    /// A [`LatencyPolicy`] wired to this suite's reply-time EWMAs and
    /// availability trackers — and, when
    /// [`set_repair_health`](DirSuite::set_repair_health) attached flags,
    /// to the repair drivers' unhealed-bucket reports. Install with
    /// [`set_policy`](DirSuite::set_policy) to route reads to the measured
    /// R fastest members, discounted by how often each actually answers.
    pub fn latency_policy(&self) -> LatencyPolicy {
        let policy =
            LatencyPolicy::with_availability(self.member_reply_ewmas(), self.member_avails());
        match &self.repair_health {
            Some(health) => policy.with_repair_health(Arc::clone(health)),
            None => policy,
        }
    }

    /// `DirSuiteLookup(x)` (Fig. 8): queries a read quorum and returns the
    /// reply with the largest version number.
    ///
    /// Sentinel keys are reported present with version zero, matching the
    /// representative semantics.
    ///
    /// # Errors
    ///
    /// [`SuiteError::QuorumUnavailable`] if a read quorum cannot be
    /// gathered; [`SuiteError::Rep`] if a member fails mid-operation.
    pub fn lookup(&mut self, key: &Key) -> Result<LookupOutcome, SuiteError> {
        let _span = self.obs.registry.span("suite.lookup");
        // The members that answer the lookup *are* the read quorum (§3.1:
        // any set of members whose votes reach R), so the collection carries
        // the request and its replies are the votes to merge.
        let Quorum { members, replies } =
            self.collect_quorum(QuorumKind::Read, Some(key), Some(RepRequest::Lookup(key)))?;
        let mut votes = Vec::with_capacity(members.len());
        for (&i, reply) in members.iter().zip(replies) {
            votes.push((i, reply.lookup()?));
        }
        let ids = self.ids_of(&members);
        Ok(match self.merge_votes(key, votes) {
            LookupReply::Present { version, value } => LookupOutcome {
                present: true,
                version,
                value: Some(value),
                quorum: ids,
            },
            LookupReply::Absent { gap_version } => LookupOutcome {
                present: false,
                version: gap_version,
                value: None,
                quorum: ids,
            },
        })
    }

    /// `DirSuiteInsert(x, z)` (Fig. 9): looks the key up in a read quorum,
    /// takes one more than the highest version seen, and writes the entry to
    /// a write quorum.
    ///
    /// # Errors
    ///
    /// * [`SuiteError::SentinelKey`] if `key` is `LOW`/`HIGH`.
    /// * [`SuiteError::AlreadyExists`] if the suite has an entry for `key`.
    /// * [`SuiteError::QuorumUnavailable`] / [`SuiteError::Rep`] on quorum
    ///   failures.
    pub fn insert(&mut self, key: &Key, value: &Value) -> Result<WriteOutcome, SuiteError> {
        self.require_user_key(key)?;
        let looked = self.lookup(key)?;
        if looked.present {
            return Err(SuiteError::AlreadyExists { key: key.clone() });
        }
        self.write_entry(key, looked.version.next(), value)
    }

    /// `DirSuiteUpdate(x, z)`: "analogous" to insert (§3.2) but requires the
    /// entry to exist.
    ///
    /// # Errors
    ///
    /// As [`insert`](DirSuite::insert), but [`SuiteError::NotFound`] if the
    /// key has no entry.
    pub fn update(&mut self, key: &Key, value: &Value) -> Result<WriteOutcome, SuiteError> {
        self.require_user_key(key)?;
        let looked = self.lookup(key)?;
        if !looked.present {
            return Err(SuiteError::NotFound { key: key.clone() });
        }
        self.write_entry(key, looked.version.next(), value)
    }

    /// Bulk insert: the Fig. 9 flow for every key in `entries`, paid for
    /// like one operation. Per [`set_bulk_chunk`](DirSuite::set_bulk_chunk)
    /// keys, the read-quorum collection carries one envelope of lookups to
    /// discover versions and the write-quorum collection the matching
    /// envelope of versioned inserts (later chunks ask the sessions those
    /// hold) — `2 · ⌈N / chunk⌉` waves and no ping for N keys, instead of N
    /// collections and ~3N round trips.
    ///
    /// The semantics are exactly a sequential per-key loop of
    /// [`insert`](DirSuite::insert): keys apply in input order, and the
    /// first failing key surfaces its error with every earlier key applied.
    /// With session reuse disabled the call *is* that loop (the baseline
    /// the equivalence tests compare against).
    ///
    /// If a held member fails mid-batch, the session is re-validated and
    /// the walk resumes from the first unacknowledged key. Keys whose
    /// version was already assigned replay at that same version — an
    /// idempotent overwrite under the paper's version discipline, which is
    /// also what a member substituted inside a collection receives — so an
    /// acknowledged write is never re-applied at a new version
    /// (DESIGN.md §11).
    ///
    /// # Errors
    ///
    /// As [`insert`](DirSuite::insert), for the first offending key. A
    /// duplicate key within the batch fails its later occurrence with
    /// [`SuiteError::AlreadyExists`], exactly as the loop would.
    pub fn insert_many(
        &mut self,
        entries: &[(Key, Value)],
    ) -> Result<BulkWriteOutcome, SuiteError> {
        let _span = self.obs.registry.span("suite.insert_many");
        self.obs.bulk_ops.inc();
        self.obs.bulk_keys.add(entries.len() as u64);
        if !self.session_reuse {
            let mut versions = Vec::with_capacity(entries.len());
            for (key, value) in entries {
                versions.push(self.insert(key, value)?.version);
            }
            return Ok(BulkWriteOutcome { versions });
        }
        // Both survive body restarts: `done` is the acknowledged prefix
        // (every write-quorum member confirmed those envelopes), `assigned`
        // pins each key's version from its first discovery.
        let mut done = 0usize;
        let mut assigned: Vec<Option<Version>> = vec![None; entries.len()];
        let mut attempts = 0u32;
        self.with_session_scope(|s| {
            s.with_session_retries(|s| {
                attempts += 1;
                if attempts > 1 {
                    s.obs.bulk_resumed.inc();
                }
                s.insert_many_walk(entries, &mut done, &mut assigned)
            })
        })?;
        Ok(BulkWriteOutcome {
            versions: assigned
                .into_iter()
                .map(|v| v.expect("every key is assigned on success"))
                .collect(),
        })
    }

    /// One attempt at the bulk-insert walk, resuming at `entries[*done]`.
    fn insert_many_walk(
        &mut self,
        entries: &[(Key, Value)],
        done: &mut usize,
        assigned: &mut [Option<Version>],
    ) -> Result<(), SuiteError> {
        while *done < entries.len() {
            let lo = *done;
            let hi = (lo + self.bulk_chunk).min(entries.len());

            // Version discovery: one envelope of lookups, carried by the
            // read collection, for the chunk's unassigned keys. Keys
            // assigned by a prior (failed) attempt skip discovery —
            // replaying them at the version already assigned is what makes
            // the retry idempotent.
            let need: Vec<usize> = (lo..hi).filter(|&i| assigned[i].is_none()).collect();
            let mut chunk_replies: Vec<Option<LookupReply>> = vec![None; hi - lo];
            if !need.is_empty() {
                let env: Vec<BatchRequest> = need
                    .iter()
                    .map(|&i| BatchRequest::Lookup(entries[i].0.clone()))
                    .collect();
                let carried = Some(RepRequest::Batch(&env));
                let read = self.collect_quorum(QuorumKind::Read, None, carried)?;
                for reply in read.replies {
                    let parts = reply.batch()?;
                    if parts.len() != env.len() {
                        return Err(protocol_violation("bulk lookup envelope arity"));
                    }
                    for (&i, part) in need.iter().zip(parts) {
                        let BatchReply::Lookup(reply) = part else {
                            return Err(protocol_violation("bulk envelope missing lookup reply"));
                        };
                        let merged = &mut chunk_replies[i - lo];
                        *merged = Some(match merged.take() {
                            None => reply,
                            Some(cur) => pick_reply(cur, reply),
                        });
                    }
                }
            }

            // Walk the chunk in input order, exactly as the per-key loop
            // would: the first offending key truncates the chunk there, the
            // truncated prefix still applies, and its error surfaces after.
            let mut writes: Vec<BatchRequest> = Vec::new();
            let mut stop = hi;
            let mut pending_err = None;
            let mut seen_in_chunk: std::collections::BTreeSet<&Key> = Default::default();
            for i in lo..hi {
                let (key, value) = &entries[i];
                let reply = chunk_replies[i - lo].take();
                if key.is_sentinel() {
                    pending_err = Some(SuiteError::SentinelKey { key: key.clone() });
                    stop = i;
                    break;
                }
                if !seen_in_chunk.insert(key) {
                    // A later duplicate would have found its earlier
                    // occurrence already written; same error, one envelope.
                    pending_err = Some(SuiteError::AlreadyExists { key: key.clone() });
                    stop = i;
                    break;
                }
                let version = match assigned[i] {
                    Some(v) => v,
                    None => {
                        let reply = reply.expect("quorum is never empty");
                        if reply.is_present() {
                            pending_err = Some(SuiteError::AlreadyExists { key: key.clone() });
                            stop = i;
                            break;
                        }
                        let v = reply.version().next();
                        assigned[i] = Some(v);
                        v
                    }
                };
                writes.push(BatchRequest::Insert(key.clone(), version, value.clone()));
            }

            if !writes.is_empty() {
                let carried = Some(RepRequest::Batch(&writes));
                let write = self.collect_quorum(QuorumKind::Write, None, carried)?;
                for reply in write.replies {
                    let parts = reply.batch()?;
                    if parts.len() != writes.len() {
                        return Err(protocol_violation("bulk insert envelope arity"));
                    }
                    for part in parts {
                        if !matches!(part, BatchReply::Insert(_)) {
                            return Err(protocol_violation("bulk envelope missing insert reply"));
                        }
                    }
                }
                if self.write_through_weak {
                    let weak: Vec<usize> = (0..self.members.len())
                        .filter(|&i| self.members[i].votes == 0)
                        .collect();
                    if !weak.is_empty() {
                        // Weak representatives are hints: ignore failures.
                        let writes_ref = &writes;
                        let _ = self.scatter(&weak, |_| RepRequest::Batch(writes_ref));
                    }
                }
            }
            // Every write-quorum member acknowledged the whole envelope:
            // the chunk (up to any truncation) is durably applied.
            *done = stop;
            if let Some(e) = pending_err {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Bulk delete: the Fig. 13 flow for every key in `keys` under one
    /// session scope, keys that do not touch each other sharing the three
    /// waves of [`delete`](DirSuite::delete). Per window of
    /// [`set_bulk_chunk`](DirSuite::set_bulk_chunk) keys, wave A is read
    /// once for every key and the Fig. 12 walks advance together; the
    /// longest input-order run of keys whose neighbour ranges
    /// `(predecessor, successor)` are pairwise disjoint as open intervals
    /// then shares one wave B and one wave C. A key that overlaps an earlier
    /// one of its group, or that is absent, closes the group, and only the
    /// plans a coalesced range overlaps are read again: 64 keys with a
    /// surviving entry between every pair cost three waves, adjacent keys
    /// three each (DESIGN.md §11 has the argument).
    ///
    /// Semantics are exactly a sequential per-key loop of
    /// [`delete`](DirSuite::delete) — same versions, same final replicas;
    /// the first failing key surfaces its error with every earlier key
    /// deleted and no later one. On a mid-batch member failure the session
    /// is re-validated and the walk resumes at the first unacknowledged
    /// group; a half-coalesced key is re-driven through the mutation phase,
    /// whose coalesce removes whatever remains of the entry, so the resume
    /// never reports a key deleted that is not.
    ///
    /// # Errors
    ///
    /// As [`delete`](DirSuite::delete), for the first offending key.
    pub fn delete_many(&mut self, keys: &[Key]) -> Result<BulkWriteOutcome, SuiteError> {
        let _span = self.obs.registry.span("suite.delete_many");
        self.obs.bulk_ops.inc();
        self.obs.bulk_keys.add(keys.len() as u64);
        if !self.session_reuse {
            let mut versions = Vec::with_capacity(keys.len());
            for key in keys {
                versions.push(self.delete(key)?.gap_version);
            }
            return Ok(BulkWriteOutcome { versions });
        }
        let mut versions = Vec::with_capacity(keys.len());
        let mut attempted = vec![false; keys.len()];
        let mut attempts = 0u32;
        self.with_session_scope(|s| {
            s.with_session_retries(|s| {
                attempts += 1;
                if attempts > 1 {
                    s.obs.bulk_resumed.inc();
                }
                s.delete_many_walk(keys, &mut versions, &mut attempted)
            })
        })?;
        Ok(BulkWriteOutcome { versions })
    }

    /// One attempt at the bulk-delete walk, resuming at the first key whose
    /// gap version has not been recorded yet. `attempted[i]` is set once key
    /// `i` joins a group: from then on it may be half-coalesced, so a later
    /// attempt drives it through whatever its lookup answers.
    fn delete_many_walk(
        &mut self,
        keys: &[Key],
        versions: &mut Vec<Version>,
        attempted: &mut [bool],
    ) -> Result<(), SuiteError> {
        while versions.len() < keys.len() {
            let lo = versions.len();
            self.require_user_key(&keys[lo])?;
            // A sentinel has no chains to read: it ends the window and
            // raises its error when it heads the next.
            let hi = (lo + self.bulk_chunk).min(keys.len());
            let hi = lo + keys[lo..hi].iter().take_while(|k| !k.is_sentinel()).count();
            let mut plans: Vec<Option<DeletePlan>> = (lo..hi).map(|_| None).collect();
            while versions.len() < hi {
                let first = versions.len();
                self.read_plans(
                    &keys[first..hi],
                    &attempted[first..hi],
                    &mut plans[first - lo..],
                )?;
                let mut group: Vec<(&Key, DeletePlan)> = Vec::new();
                for i in first..hi {
                    let plan = plans[i - lo].as_ref().expect("wave A planned the window");
                    let found = plan.present || attempted[i];
                    if !found || group.iter().any(|(_, earlier)| earlier.overlaps(plan)) {
                        break;
                    }
                    attempted[i] = true;
                    let plan = plans[i - lo].take().expect("just inspected");
                    group.push((&keys[i], plan));
                }
                if group.is_empty() {
                    let key = keys[first].clone();
                    return Err(SuiteError::NotFound { key });
                }
                let outs = self.apply_deletes(&group)?;
                versions.extend(outs.iter().map(|out| out.gap_version));
                // Disjoint ranges never read each other's writes: only the
                // plans a coalesced range overlaps are read again.
                for plan in &mut plans[versions.len() - lo..] {
                    let stale = |p: &DeletePlan| group.iter().any(|(_, done)| done.overlaps(p));
                    if plan.as_ref().is_some_and(stale) {
                        *plan = None;
                    }
                }
            }
        }
        Ok(())
    }

    /// `RealPredecessor(x)` (Fig. 12): finds the entry with the largest key
    /// below `x` that is *present in the suite* (skipping ghosts), returning
    /// it together with the largest gap version seen while searching.
    ///
    /// # Errors
    ///
    /// Quorum and representative failures, plus
    /// [`SuiteError::SentinelKey`] if `x` is `LOW` (nothing precedes it).
    pub fn real_predecessor(&mut self, key: &Key) -> Result<NeighborSearch, SuiteError> {
        if *key == Key::Low {
            return Err(SuiteError::SentinelKey { key: Key::Low });
        }
        self.neighbor_search(key, Direction::Pred)
    }

    /// `RealSuccessor(x)`: the mirror image of
    /// [`real_predecessor`](DirSuite::real_predecessor).
    ///
    /// # Errors
    ///
    /// As [`real_predecessor`](DirSuite::real_predecessor), with `HIGH`
    /// rejected instead of `LOW`.
    pub fn real_successor(&mut self, key: &Key) -> Result<NeighborSearch, SuiteError> {
        if *key == Key::High {
            return Err(SuiteError::SentinelKey { key: Key::High });
        }
        self.neighbor_search(key, Direction::Succ)
    }

    /// A public Fig. 12 search: collect the read quorum, resolve the real
    /// neighbour from the members' chains, fetch its value with one lookup.
    fn neighbor_search(&mut self, key: &Key, dir: Direction) -> Result<NeighborSearch, SuiteError> {
        let _span = self.obs.registry.span("suite.neighbor");
        self.with_session_scope(|s| {
            s.with_session_retries(|s| {
                let quorum = s.collect_quorum(QuorumKind::Read, Some(key), None)?;
                let mut walk = Walk::new(dir, key, quorum.members.len(), s.neighbor_batch);
                s.run_walks(&quorum.members, &mut [&mut walk])?;
                let mut found = walk.search();
                found.value = s.lookup(&found.key)?.value;
                Ok(found)
            })
        })
    }

    /// The Fig. 12 loop, generalized over direction and §4 batching: steps
    /// `walk` over ghosts to its next real entry, or returns `None` when a
    /// member's buffered chain ran dry first and a [`refill`](Self::refill)
    /// must come before the next candidate can be judged.
    ///
    /// `DirSuiteLookup(candidate)` costs no message: a chain was read under
    /// `RepLookup` range locks that cover the candidate, so its head *is*
    /// the member's `DirRepLookup(candidate)` answer
    /// ([`votes_on`](Walk::votes_on)). The largest version wins, a tie goes
    /// to the entry ([`pick_reply`]), and the terminal sentinel heads every
    /// chain at version zero, so it is always real.
    fn next_real(&mut self, quorum: &[usize], walk: &mut Walk) -> Option<(Key, Version)> {
        loop {
            // Drop buffered elements the walk has already passed.
            walk.discard_passed();
            if walk.is_dry() {
                return None;
            }
            walk.steps += 1;
            let candidate = walk.candidate();
            let newest = |entry: bool| {
                let cast = walk
                    .votes_on(&candidate)
                    .filter(|&(holds, _)| holds == entry);
                cast.map(|(_, version)| version).max()
            };
            let version = newest(true).expect("the candidate heads a chain");
            let gap = newest(false).unwrap_or(Version::ZERO);
            let versions = walk.votes_on(&candidate).map(|(_, version)| version);
            let cast = quorum.iter().copied().zip(versions);
            self.note_stale_votes(&candidate, version.max(gap), cast);
            if version >= gap {
                return Some((candidate, version));
            }
            // A ghost: step over it. Only the buffers it headed can run dry.
            walk.probe = candidate;
        }
    }

    /// Resolves every walk's real neighbour. The walks advance together:
    /// each goes as far as its buffers carry it, and the buffers that ran
    /// dry — of every walk — refill in one wave.
    fn run_walks(&mut self, quorum: &[usize], walks: &mut [&mut Walk]) -> Result<(), SuiteError> {
        loop {
            let mut resolved = true;
            for walk in walks.iter_mut().filter(|walk| walk.found.is_none()) {
                walk.found = self.next_real(quorum, walk);
                resolved &= walk.found.is_some();
            }
            if resolved {
                return Ok(());
            }
            self.refill(quorum, walks, vec![Vec::new(); quorum.len()])?;
        }
    }

    /// One wave of chain refills: quorum slot `s` is sent `lead[s]` followed
    /// by one chain request of every walk that wants more of that member —
    /// bare when that makes a single request, as one envelope otherwise, not
    /// at all when there is nothing to ask (a client answers an empty
    /// envelope itself). The chains are folded into their walks; the replies
    /// to the lead requests are returned per slot.
    fn refill(
        &mut self,
        quorum: &[usize],
        walks: &mut [&mut Walk],
        lead: Vec<Vec<BatchRequest>>,
    ) -> Result<Vec<Vec<BatchReply>>, SuiteError> {
        // What each walk asks of each slot is settled before any reply
        // lands: folding one chain in can end the drought that asked.
        let wanted: Vec<(usize, usize)> = walks
            .iter()
            .enumerate()
            .flat_map(|(at, walk)| walk.refills().map(move |slot| (at, slot)))
            .collect();
        let mut envelopes = lead;
        for &(at, slot) in &wanted {
            envelopes[slot].push(walks[at].chain_from(slot));
        }
        let mut replies = vec![Vec::new(); quorum.len()];
        let slots: Vec<usize> = (0..quorum.len())
            .filter(|&slot| !envelopes[slot].is_empty())
            .collect();
        if slots.is_empty() {
            return Ok(replies);
        }
        let targets: Vec<usize> = slots.iter().map(|&slot| quorum[slot]).collect();
        let (sent, asked) = (&envelopes, &slots);
        let waves = self.scatter(&targets, |at| match &sent[asked[at]][..] {
            [only] => only.as_request(),
            envelope => RepRequest::Batch(envelope),
        });
        for (&slot, wave) in slots.iter().zip(waves) {
            replies[slot] = match wave? {
                RepReply::Batch(parts) => parts,
                bare => vec![bare.into_part()?],
            };
            if replies[slot].len() != envelopes[slot].len() {
                return Err(protocol_violation("refill envelope arity"));
            }
        }
        // The chains sit behind the lead replies, in the order asked.
        for &(at, slot) in wanted.iter().rev() {
            match replies[slot].pop() {
                Some(BatchReply::Chain(chain)) => walks[at].integrate(slot, chain),
                _ => return Err(protocol_violation("refill envelope missing chain reply")),
            }
        }
        Ok(replies)
    }

    /// `DirSuiteDelete(x)` (Fig. 13): locates the real predecessor and real
    /// successor of `x`, copies them into any write-quorum member lacking
    /// them, and coalesces the range between them with a version exceeding
    /// every version previously associated with any key in the range.
    ///
    /// Three waves, each needing the answers to the one before: A is
    /// [`read_plans`](Self::read_plans), B and C
    /// [`apply_deletes`](Self::apply_deletes).
    ///
    /// # Errors
    ///
    /// * [`SuiteError::SentinelKey`] if `key` is a sentinel.
    /// * [`SuiteError::NotFound`] if the suite has no entry for `key`.
    /// * Quorum and representative failures.
    pub fn delete(&mut self, key: &Key) -> Result<DeleteOutcome, SuiteError> {
        self.require_user_key(key)?;
        let _span = self.obs.registry.span("suite.delete");
        // One scope: a value lookup, should one be needed, asks wave A's
        // read quorum.
        self.with_session_scope(|s| {
            let mut plan = [None];
            s.read_plans(std::slice::from_ref(key), &[false], &mut plan)?;
            match plan {
                [Some(plan)] if plan.present => {
                    let mut outs = s.apply_deletes(&[(key, plan)])?;
                    Ok(outs.pop().expect("one outcome per key"))
                }
                _ => Err(SuiteError::NotFound { key: key.clone() }),
            }
        })
    }

    /// Wave A of Fig. 13 for every key of `keys` whose plan is missing: the
    /// read-quorum collection carries, per key, its lookup and the first
    /// chain request of both Fig. 12 walks, which then resolve together on
    /// those chains; only a ghost that leaves a buffer dry costs a further
    /// round. A key that reads absent and was never `attempted` gets a plan
    /// whose walks do not run ([`SuiteError::NotFound`] before anything is
    /// written); an attempted key may be half-coalesced and is planned
    /// whatever its lookup answers.
    fn read_plans(
        &mut self,
        keys: &[Key],
        attempted: &[bool],
        plans: &mut [Option<DeletePlan>],
    ) -> Result<(), SuiteError> {
        let batch = self.neighbor_batch;
        let wave_a: Vec<BatchRequest> = (0..keys.len())
            .filter(|&i| plans[i].is_none())
            .flat_map(|i| {
                let key = || keys[i].clone();
                [
                    BatchRequest::Lookup(key()),
                    BatchRequest::SuccessorChain(key(), batch),
                    BatchRequest::PredecessorChain(key(), batch),
                ]
            })
            .collect();
        let Some(BatchRequest::Lookup(first)) = wave_a.first() else {
            return Ok(());
        };
        let carried = Some(RepRequest::Batch(&wave_a));
        let read = self.collect_quorum(QuorumKind::Read, Some(first), carried)?;
        let readers = read.members;
        let mut replies = Vec::with_capacity(readers.len());
        for reply in read.replies {
            let parts = reply.batch()?;
            if parts.len() != wave_a.len() {
                return Err(protocol_violation("delete envelope arity"));
            }
            replies.push(parts.into_iter());
        }
        for (key, plan) in keys.iter().zip(plans.iter_mut()) {
            if plan.is_some() {
                continue;
            }
            let mut votes = Vec::with_capacity(readers.len());
            let mut succ = Walk::new(Direction::Succ, key, readers.len(), batch);
            let mut pred = Walk::new(Direction::Pred, key, readers.len(), batch);
            for (slot, parts) in replies.iter_mut().enumerate() {
                match (parts.next(), parts.next(), parts.next()) {
                    (
                        Some(BatchReply::Lookup(vote)),
                        Some(BatchReply::Chain(after)),
                        Some(BatchReply::Chain(before)),
                    ) => {
                        votes.push((readers[slot], vote));
                        succ.integrate(slot, after);
                        pred.integrate(slot, before);
                    }
                    _ => return Err(protocol_violation("delete envelope reply")),
                }
            }
            let target = self.merge_votes(key, votes);
            *plan = Some(DeletePlan {
                present: target.is_present(),
                version: target.version(),
                succ,
                pred,
            });
        }
        let mut walks: Vec<&mut Walk> = plans
            .iter_mut()
            .zip(attempted)
            .filter_map(|(plan, &attempted)| plan.as_mut().filter(|p| p.present || attempted))
            .flat_map(|plan| [&mut plan.succ, &mut plan.pred])
            .collect();
        self.run_walks(&readers, &mut walks)
    }

    /// Waves B and C of Fig. 13 for planned keys whose neighbour ranges are
    /// pairwise disjoint. **B** — the write-quorum collection carries, per
    /// key, a lookup of each real neighbour: who lacks it and, from a holder
    /// of its current version, the value to copy. **C** — every write-quorum
    /// member gets one envelope: per key the copies it lacks (a neighbour
    /// two keys share is copied once), then the coalesce — bare for a single
    /// key at a member that lacks nothing.
    fn apply_deletes(
        &mut self,
        group: &[(&Key, DeletePlan)],
    ) -> Result<Vec<DeleteOutcome>, SuiteError> {
        // "Make sure the predecessor and successor exist in every member of
        // the quorum." Sentinels are probed too (present everywhere, never
        // copied): an empty envelope would contact nobody. Neighbour `2g` is
        // group key `g`'s successor, `2g + 1` its predecessor.
        let neighbor = |n: usize| {
            let plan = &group[n / 2].1;
            let (key, version) = [&plan.succ, &plan.pred][n % 2]
                .found
                .as_ref()
                .expect("planned");
            (key, *version)
        };
        let probed = 2 * group.len();
        let wave_b: Vec<BatchRequest> = (0..probed)
            .map(|n| BatchRequest::Lookup(neighbor(n).0.clone()))
            .collect();
        let carried = Some(RepRequest::Batch(&wave_b));
        let write = self.collect_quorum(QuorumKind::Write, Some(group[0].0), carried)?;
        let writers = write.members;
        // Writer by writer, which neighbours it lacks.
        let mut lacking = Vec::with_capacity(writers.len() * probed);
        let mut values: Vec<Option<Value>> = vec![None; probed];
        for reply in write.replies {
            let probes = reply.batch()?;
            if probes.len() != probed {
                return Err(protocol_violation("probe envelope arity"));
            }
            for (n, probe) in probes.into_iter().enumerate() {
                match probe {
                    BatchReply::Lookup(LookupReply::Present { version, value }) => {
                        if version == neighbor(n).1 {
                            values[n] = Some(value);
                        }
                        lacking.push(false);
                    }
                    BatchReply::Lookup(LookupReply::Absent { .. }) => lacking.push(true),
                    _ => return Err(protocol_violation("probe envelope missing lookup reply")),
                }
            }
        }
        // 2W > N puts a holder of each neighbour's current version in every
        // write quorum; should none have answered, the read quorum has it.
        for (n, value) in values.iter_mut().enumerate() {
            if value.is_none() && lacking.chunks(probed).any(|lacks| lacks[n]) {
                *value = self.lookup(neighbor(n).0)?.value;
            }
        }

        let wave_c: Vec<Vec<BatchRequest>> = lacking
            .chunks(probed)
            .map(|lacks| {
                let mut envelope = Vec::with_capacity(group.len());
                for (g, (_, plan)) in group.iter().enumerate() {
                    for n in [2 * g, 2 * g + 1] {
                        let (key, version) = neighbor(n);
                        let copied = |req: &BatchRequest| {
                            matches!(req, BatchRequest::Insert(already, ..) if already == key)
                        };
                        if lacks[n] && !envelope.iter().any(copied) {
                            let value = values[n].clone().expect("a real neighbor has a value");
                            envelope.push(BatchRequest::Insert(key.clone(), version, value));
                        }
                    }
                    let (low, high) = (neighbor(2 * g + 1).0.clone(), neighbor(2 * g).0.clone());
                    envelope.push(BatchRequest::Coalesce(low, high, plan.gap_version()));
                }
                envelope
            })
            .collect();
        let wave_c_ref = &wave_c;
        let outcomes = self.scatter(&writers, |slot| match &wave_c_ref[slot][..] {
            [coalesce] => coalesce.as_request(),
            envelope => RepRequest::Batch(envelope),
        });
        let quorum = self.ids_of(&writers);
        let mut outs: Vec<DeleteOutcome> = group
            .iter()
            .enumerate()
            .map(|(g, (_, plan))| DeleteOutcome {
                predecessor: neighbor(2 * g + 1).0.clone(),
                successor: neighbor(2 * g).0.clone(),
                gap_version: plan.gap_version(),
                copies_inserted: lacking
                    .chunks(probed)
                    .map(|lacks| u32::from(lacks[2 * g]) + u32::from(lacks[2 * g + 1]))
                    .sum(),
                entries_in_range: Vec::with_capacity(writers.len()),
                ghosts_deleted: 0,
                pred_steps: plan.pred.steps,
                succ_steps: plan.succ.steps,
                pred_rpcs: plan.pred.rpc_calls,
                succ_rpcs: plan.succ.rpc_calls,
                quorum: quorum.clone(),
            })
            .collect();
        for (&id, outcome) in quorum.iter().zip(outcomes) {
            // The coalesce replies, in group order, whether they came bare
            // or between the replies to the copies.
            let (bare, parts) = match outcome? {
                RepReply::Batch(parts) => (None, parts),
                bare => (Some(bare.coalesce()?), Vec::new()),
            };
            let enveloped = parts.into_iter().filter_map(|part| match part {
                BatchReply::Coalesce(out) => Some(out),
                _ => None,
            });
            let mut coalesced = bare.into_iter().chain(enveloped);
            for ((key, _), out) in group.iter().zip(&mut outs) {
                let Some(done) = coalesced.next() else {
                    return Err(protocol_violation("copy envelope missing coalesce reply"));
                };
                out.entries_in_range.push((id, done.removed.len()));
                let ghosts = done.removed.iter();
                out.ghosts_deleted +=
                    ghosts.filter(|r| Key::User(r.key.clone()) != **key).count() as u32;
            }
        }
        Ok(outs)
    }

    /// Enumerates every entry in the suite in key order, by walking
    /// real-successor hops from `LOW` to `HIGH`. Ghosts are skipped exactly
    /// as deletion's searches skip them, so the result is the suite's
    /// logical contents.
    ///
    /// Listing a directory is a directory's bread and butter; the paper's
    /// operation set implies it through `DirRepSuccessor` without spelling
    /// it out.
    ///
    /// # Errors
    ///
    /// Quorum and representative failures.
    pub fn scan(&mut self) -> Result<Vec<(crate::key::UserKey, Value)>, SuiteError> {
        let _span = self.obs.registry.span("suite.scan");
        if !self.session_reuse {
            return self.scan_per_hop();
        }
        self.with_session_scope(|s| s.with_session_retries(|s| s.scan_walk()))
    }

    /// The pre-session scan: one full `real_successor` search — fresh
    /// quorum, fresh chains, separate lookup hop — per entry. Kept verbatim
    /// as the baseline the equivalence tests and `scan_bench` compare the
    /// session walk against.
    fn scan_per_hop(&mut self) -> Result<Vec<(crate::key::UserKey, Value)>, SuiteError> {
        let mut out = Vec::new();
        let mut probe = Key::Low;
        loop {
            let nb = self.real_successor(&probe)?;
            match nb.key {
                Key::High => return Ok(out),
                Key::User(u) => {
                    let value = nb.value.expect("user entries carry values");
                    out.push((u.clone(), value));
                    probe = Key::User(u);
                }
                Key::Low => unreachable!("a successor is never LOW"),
            }
        }
    }

    /// One session-quorum sweep from `LOW` to `HIGH` in
    /// `O(entries / bulk_chunk)` waves. The read-quorum collection carries
    /// `SuccessorChain(LOW, bulk_chunk)`; candidates are then judged from
    /// the buffered chain heads as the searches judge them
    /// ([`next_real`](Self::next_real)). Whenever a buffer runs dry one wave
    /// sends each member a single envelope: the lookups of the entries
    /// resolved since the last wave that were assigned to it, and its next
    /// chain request. A last wave fetches the values still owed.
    ///
    /// A value is asked of the least loaded member whose chain head voted
    /// the winning version and must come back at that version — both reads
    /// sit under the member's range locks — or the scan fails: never a
    /// silently stale listing.
    fn scan_walk(&mut self) -> Result<Vec<(crate::key::UserKey, Value)>, SuiteError> {
        let chunk = self.bulk_chunk;
        let carried = Some(RepRequest::SuccessorChain(&Key::Low, chunk));
        let read = self.collect_quorum(QuorumKind::Read, None, carried)?;
        let quorum = read.members;
        let mut walk = Walk::new(Direction::Succ, &Key::Low, quorum.len(), chunk);
        // Every wave extends every buffer, so the walk waits only as often
        // as the member with the most entries and ghosts runs dry.
        walk.top_up = true;
        for (slot, reply) in read.replies.into_iter().enumerate() {
            walk.integrate(slot, reply.chain()?);
        }
        let mut listed: Vec<(crate::key::UserKey, Option<Value>)> = Vec::new();
        // Per quorum slot: the lookups its next envelope carries, and for
        // each the place its value goes and the version it must have.
        let mut asks = vec![Vec::new(); quorum.len()];
        let mut owed = vec![Vec::new(); quorum.len()];
        while walk.found.is_none() {
            // As far as the buffers carry: to a dry one, or to HIGH — which
            // every representative holds, so it ends the walk unasked.
            while let Some((candidate, version)) = self.next_real(&quorum, &mut walk) {
                let Key::User(entry) = &candidate else {
                    walk.found = Some((candidate, version));
                    break;
                };
                let holders = walk.holders(&candidate, version);
                let slot = holders
                    .min_by_key(|&slot| asks[slot].len())
                    .expect("the winning version heads a chain");
                asks[slot].push(BatchRequest::Lookup(candidate.clone()));
                owed[slot].push((listed.len(), version));
                listed.push((entry.clone(), None));
                walk.probe = candidate;
            }
            let lead = std::mem::replace(&mut asks, vec![Vec::new(); quorum.len()]);
            let answers = self.refill(&quorum, &mut [&mut walk], lead)?;
            for (owed, parts) in owed.iter_mut().zip(answers) {
                for ((at, voted), part) in owed.drain(..).zip(parts) {
                    match part {
                        BatchReply::Lookup(LookupReply::Present { version, value })
                            if version == voted =>
                        {
                            listed[at].1 = Some(value);
                        }
                        _ => return Err(protocol_violation("scan value not at its voted version")),
                    }
                }
            }
        }
        let fetched =
            |value: Option<Value>| value.expect("asked in the wave after it was resolved");
        Ok(listed
            .into_iter()
            .map(|(key, value)| (key, fetched(value)))
            .collect())
    }

    fn require_user_key(&self, key: &Key) -> Result<(), SuiteError> {
        if key.is_sentinel() {
            Err(SuiteError::SentinelKey { key: key.clone() })
        } else {
            Ok(())
        }
    }

    fn write_entry(
        &mut self,
        key: &Key,
        version: Version,
        value: &Value,
    ) -> Result<WriteOutcome, SuiteError> {
        let _span = self.obs.registry.span("suite.write");
        let insert = RepRequest::Insert(key, version, value);
        let quorum = self.collect_quorum(QuorumKind::Write, Some(key), Some(insert))?;
        if self.write_through_weak {
            let weak: Vec<usize> = (0..self.members.len())
                .filter(|&i| self.members[i].votes == 0)
                .collect();
            if !weak.is_empty() {
                // Weak representatives are hints: ignore failures.
                let _ = self.scatter(&weak, |_| RepRequest::Insert(key, version, value));
            }
        }
        Ok(WriteOutcome {
            version,
            quorum: self.ids_of(&quorum.members),
        })
    }

    /// `CollectReadQuorum`/`CollectWriteQuorum`: gathers members along the
    /// policy's preference order until their votes meet the threshold.
    ///
    /// `carry` is the request the caller would send the quorum next. Given
    /// one, collecting *is* sending it — the members that answer it are the
    /// quorum (§3.1) — so neither a point operation nor a bulk one pays a
    /// ping round. Without one (a public neighbour search, a session
    /// re-validation) candidates are pinged. Requests go out in *waves*
    /// ([`collect_votes`](Self::collect_votes)); within a wave the first
    /// votes to *arrive* win, and the quorum is then arranged back into
    /// preference order so downstream waves address members
    /// deterministically.
    fn collect_quorum(
        &mut self,
        kind: QuorumKind,
        hint: Option<&Key>,
        carry: Option<RepRequest<'_>>,
    ) -> Result<Quorum, SuiteError> {
        // A client answers an empty envelope without a message, so it would
        // "collect" members nobody contacted.
        if matches!(carry, Some(RepRequest::Batch([]))) {
            debug_assert!(false, "an empty envelope cannot stand for a vote");
            return Err(protocol_violation("empty envelope carried by a collection"));
        }
        // Session fast path: a bulk operation already collected this quorum
        // and no member has failed since — answer from cache, no pings.
        if let Some(session) = self.session(kind) {
            let members = session.members.clone();
            self.obs.session_reuse.inc();
            return match carry {
                Some(req) => self.ask_session(kind, members, req),
                None => Ok(Quorum {
                    members,
                    replies: Vec::new(),
                }),
            };
        }
        // Late replies of earlier waves inform the policy's ranking.
        self.harvest();
        let n = self.members.len();
        let order = self.policy.candidates(kind, n, hint);
        let quorum = self.collect_quorum_ordered(kind, order, carry)?;
        self.store_session(kind, quorum.members.clone(), 0);
        Ok(quorum)
    }

    /// Sends `req` to exactly the members of a held session, hedging
    /// stragglers to voting members outside it when hedging is armed. A
    /// member that fails is not replaced: the session is stale, so
    /// [`RepError::Unavailable`] surfaces for
    /// [`with_session_retries`](Self::with_session_retries) to re-validate.
    fn ask_session(
        &mut self,
        kind: QuorumKind,
        members: Vec<usize>,
        req: RepRequest<'_>,
    ) -> Result<Quorum, SuiteError> {
        let needed = self.threshold(kind);
        let hedge = self.armed_hedge_delay();
        let held = members.len();
        let mut order = members;
        if hedge.is_some() {
            let spares: Vec<usize> = (0..self.members.len())
                .filter(|i| !order.contains(i) && self.members[*i].votes > 0)
                .collect();
            order.extend(spares);
        }
        let wave = self.vote_wave(
            req,
            Traffic::Data,
            &order[..held],
            hedge.map(|delay| (delay, &order[held..])),
            needed,
            hedge.is_none(),
        );
        match wave.refused {
            Some(e) => Err(SuiteError::Rep(e)),
            None if wave.votes < needed => Err(SuiteError::Rep(RepError::Unavailable)),
            None => Ok(Quorum::arrange(wave.replies, &order)),
        }
    }

    /// Rebuilds the session quorum for `kind` after a held member failed
    /// mid-walk: one ping wave over the prior members re-confirms the
    /// survivors (they head the candidate order, so the first wave is
    /// exactly them), and only the votes that fail are re-collected from
    /// the policy's further candidates. A dead majority surfaces
    /// [`SuiteError::QuorumUnavailable`] — the walk fails rather than
    /// hanging.
    fn revalidate_session(&mut self, kind: QuorumKind) -> Result<Vec<usize>, SuiteError> {
        self.obs.session_revalidate.inc();
        let (mut order, epoch) = match self.take_session(kind) {
            Some(prior) => (prior.members, prior.epoch + 1),
            None => (Vec::new(), 1),
        };
        let n = self.members.len();
        order.extend(self.policy.candidates(kind, n, None));
        let chosen = self.collect_quorum_ordered(kind, order, None)?.members;
        self.store_session(kind, chosen.clone(), epoch);
        Ok(chosen)
    }

    fn collect_quorum_ordered(
        &mut self,
        kind: QuorumKind,
        mut order: Vec<usize>,
        carry: Option<RepRequest<'_>>,
    ) -> Result<Quorum, SuiteError> {
        let n = self.members.len();
        let _collect_span = self.obs.registry.span(match kind {
            QuorumKind::Read => "quorum.collect.read",
            QuorumKind::Write => "quorum.collect.write",
        });
        // Fall back to index order for members the caller did not mention,
        // and drop duplicates/out-of-range indices defensively.
        let mut mentioned = vec![false; n];
        order.retain(|&i| i < n && !std::mem::replace(&mut mentioned[i], true));
        for (i, seen) in mentioned.iter().enumerate() {
            if !seen {
                order.push(i);
            }
        }
        let gathered = self.collect_votes(kind, &order, carry)?;
        Ok(Quorum::arrange(gathered, &order))
    }

    /// Asks voting candidates in preference order, wave by wave, until
    /// members holding the threshold's votes have answered.
    ///
    /// Each wave starts as the minimal prefix: exactly the candidates a
    /// sequential walk would ask next if every one answered. When every
    /// member of it has a clean (or unsampled) availability window the wave
    /// *carries* the caller's request: every request sent is awaited (they
    /// take locks and write) and the successful replies are both the votes
    /// and the answers. A vote lost to an unreachable member is re-collected
    /// from the next candidates by a further wave; a member that was reached
    /// and refused (`Deadlock`, `LockTimeout`, a storage error) fails the
    /// operation — a spare may not stand in for it.
    ///
    /// A prefix containing a member with a recorded miss pings first, so a
    /// silent member costs a ping's wait, never a data request's: with
    /// adaptive waves (the default) the prefix is *extended* while the
    /// expected, availability-weighted yield falls short of the deficit,
    /// within the over-provision cap, the wave stops listening at the vote
    /// threshold, and the request then goes to the members that answered.
    /// With nothing to carry every wave pings.
    ///
    /// When hedging is armed, a wave — carried or pinged — that straggles
    /// past the hedge delay asks further candidates from the same budget and
    /// stops listening at the threshold; candidates a wave consumed, hedges
    /// included, are never asked again by a later wave. With adaptive waves
    /// off, waves are the bare prefix: the baseline the property tests and
    /// `hedge_bench` compare against.
    fn collect_votes(
        &mut self,
        kind: QuorumKind,
        order: &[usize],
        carry: Option<RepRequest<'_>>,
    ) -> Result<Vec<(usize, RepReply)>, SuiteError> {
        let needed = self.threshold(kind);
        let hedge = self
            .adaptive_waves
            .then(|| self.armed_hedge_delay())
            .flatten();
        let voting: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| self.members[i].votes > 0)
            .collect();
        // Members with no recorded outcomes count as fully available.
        let yields: Vec<(u32, f64)> = voting
            .iter()
            .map(|&i| {
                let votes = self.members[i].votes;
                let avail = self.obs.avail[i].rate().unwrap_or(1.0);
                (votes, f64::from(votes) * avail)
            })
            .collect();
        let mut gathered = Vec::new();
        let mut votes = 0u32;
        let mut cursor = 0usize;
        while votes < needed {
            let deficit = needed - votes;
            let first = cursor;
            let (mut provisioned, mut expected) = (0u32, 0f64);
            while cursor < voting.len() && provisioned < deficit {
                provisioned += yields[cursor].0;
                expected += yields[cursor].1;
                cursor += 1;
            }
            // Every window in the prefix is clean: it is expected to answer
            // in full, and the extension below cannot fire.
            let carried = carry.filter(|_| expected >= f64::from(provisioned));
            let mut cap = provisioned;
            if self.adaptive_waves {
                cap = cap.max((f64::from(deficit) * self.max_overprovision).ceil() as u32);
                while cursor < voting.len() && expected < f64::from(deficit) && provisioned < cap {
                    provisioned += yields[cursor].0;
                    expected += yields[cursor].1;
                    cursor += 1;
                }
            }
            if first == cursor {
                return Err(SuiteError::QuorumUnavailable {
                    kind,
                    needed,
                    gathered: votes,
                });
            }
            // What is left of the budget is the wave's hedging allowance.
            let mut spare_end = cursor;
            if hedge.is_some() {
                while spare_end < voting.len() && provisioned < cap {
                    provisioned += yields[spare_end].0;
                    spare_end += 1;
                }
            }
            self.obs.waves.inc();
            let (req, traffic) = match carried {
                Some(req) => (req, Traffic::Data),
                None => (RepRequest::Ping, Traffic::Ping),
            };
            let mut wave = self.vote_wave(
                req,
                traffic,
                &voting[first..cursor],
                hedge.map(|delay| (delay, &voting[cursor..spare_end])),
                deficit,
                carried.is_some() && hedge.is_none(),
            );
            cursor += wave.spares_used;
            // A preferred candidate that was asked and failed to vote: for
            // a sticky policy, a remembered member that stopped responding.
            self.obs.sticky_miss.add(wave.misses);
            if let (Some(req), None) = (carry, carried) {
                let ponged: Vec<usize> = wave.replies.iter().map(|&(i, _)| i).collect();
                wave = self.vote_wave(
                    req,
                    Traffic::Data,
                    &ponged,
                    hedge.map(|delay| (delay, &voting[cursor..spare_end])),
                    deficit,
                    hedge.is_none(),
                );
                cursor += wave.spares_used;
                self.obs.sticky_miss.add(wave.misses);
            }
            if let Some(e) = wave.refused {
                return Err(SuiteError::Rep(e));
            }
            votes += wave.votes;
            gathered.extend(wave.replies);
        }
        Ok(gathered)
    }

    /// The delay after which a straggling request is duplicated to a spare,
    /// if hedging is on: the explicit override if set, else `3 × p50` of the
    /// suite's reply-time histogram clamped below at 500 µs. The median is
    /// the right anchor on a flaky fabric — the reply distribution is
    /// bimodal (fast answers vs. timeouts), so p95/p99 sit inside the
    /// timeout mass and would never fire. `None` — hedging off, a window of
    /// one, or no samples yet — means no request is ever duplicated.
    fn armed_hedge_delay(&self) -> Option<Duration> {
        const MIN_HEDGE_DELAY: Duration = Duration::from_micros(500);
        if !(self.hedge && self.fanout) {
            return None;
        }
        if let Some(delay) = self.hedge_delay {
            return Some(delay);
        }
        let p50 = self.obs.reply_hist.quantile_us(0.5)?;
        Some(Duration::from_micros(p50.saturating_mul(3)).max(MIN_HEDGE_DELAY))
    }

    /// Merges a read quorum's lookup votes — the largest version wins
    /// (Fig. 8) — and queues the members that voted stale.
    fn merge_votes(&mut self, key: &Key, votes: Vec<(usize, LookupReply)>) -> LookupReply {
        let versions: Vec<_> = votes.iter().map(|(i, vote)| (*i, vote.version())).collect();
        let best = votes
            .into_iter()
            .map(|(_, vote)| vote)
            .reduce(pick_reply)
            .expect("votes cover R, so at least one reply merged");
        self.note_stale_votes(key, best.version(), versions);
        best
    }

    /// Compares each member's vote on `key` — the version of its entry, or
    /// of the gap it holds there — against the merged winner's and queues
    /// the stale ones for the repair layer. A member is stale when its
    /// version is strictly below the winner's: by the version rule, equal
    /// versions carry identical data, so only a strict gap means the member
    /// missed a write.
    fn note_stale_votes(
        &mut self,
        key: &Key,
        latest: Version,
        votes: impl IntoIterator<Item = (usize, Version)>,
    ) {
        if !self.repair {
            return;
        }
        for (member, seen) in votes {
            if seen < latest {
                self.obs.stale_votes.inc();
                let vote = StaleVote {
                    member,
                    key: key.clone(),
                    seen,
                    latest,
                };
                match &self.stale_sink {
                    Some(sink) => sink.push(vote),
                    // Coalesced per (member, key), keeping the latest
                    // observation: a key that is read repeatedly while
                    // stale must cost one targeted pull, not one per read.
                    None => self.stale_votes.note(vote),
                }
            }
        }
    }

    fn ids_of(&self, indices: &[usize]) -> Vec<RepId> {
        indices
            .iter()
            .map(|&i| self.members[i].client.id())
            .collect()
    }
}

impl<C: RepClient> std::fmt::Debug for DirSuite<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirSuite")
            .field("config", &self.config)
            .field("members", &self.members.len())
            .field("write_through_weak", &self.write_through_weak)
            .finish_non_exhaustive()
    }
}

/// Requests still in flight when the suite goes away are abandoned, but
/// whatever already completed is accounted first, so a shared registry sees
/// every reply that landed.
impl<C: RepClient> Drop for DirSuite<C> {
    fn drop(&mut self) {
        self.harvest();
    }
}

impl DirSuite<LocalRep> {
    /// Builds a suite of fresh in-process representatives with uniformly
    /// random quorum selection — the paper's §4 simulation setup.
    ///
    /// # Errors
    ///
    /// Never fails for a valid [`SuiteConfig`]; the `Result` mirrors
    /// [`DirSuite::new`].
    pub fn in_process(config: SuiteConfig, seed: u64) -> Result<Self, ConfigError> {
        let clients = (0..config.member_count())
            .map(|i| LocalRep::new(RepId(i as u32)))
            .collect();
        DirSuite::new(clients, config, Box::new(RandomPolicy::new(seed)))
    }
}

/// Which way a neighbor search walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Direction {
    /// Toward `LOW` (real predecessor).
    Pred,
    /// Toward `HIGH` (real successor).
    Succ,
}

impl Direction {
    /// The sentinel the walk terminates at.
    fn terminal(self) -> Key {
        match self {
            Direction::Pred => Key::Low,
            Direction::Succ => Key::High,
        }
    }

    /// Whether `a` lies strictly beyond `b` in walk direction (closer to
    /// the terminal side boundary, i.e. a valid next step from probe `b`).
    fn beyond(self, a: &Key, b: &Key) -> bool {
        match self {
            Direction::Pred => a < b,
            Direction::Succ => a > b,
        }
    }

    /// Whether `a` is closer to the start than `b` (a better candidate:
    /// the max for predecessor walks, the min for successor walks).
    fn closer(self, a: &Key, b: &Key) -> bool {
        match self {
            Direction::Pred => a > b,
            Direction::Succ => a < b,
        }
    }
}

/// Keeps the reply with the larger version; on a tie, prefers the present
/// reply. (The correctness argument in §3.3 guarantees current data carries
/// a strictly larger version than any non-current data for the same key, so
/// ties never decide between conflicting answers; preferring presence is
/// defensive.)
fn pick_reply(a: LookupReply, b: LookupReply) -> LookupReply {
    use std::cmp::Ordering;
    match b.version().cmp(&a.version()) {
        Ordering::Greater => b,
        Ordering::Less => a,
        Ordering::Equal => {
            if b.is_present() && !a.is_present() {
                b
            } else {
                a
            }
        }
    }
}

fn protocol_violation(what: &str) -> SuiteError {
    SuiteError::Rep(RepError::Storage(format!("protocol violation: {what}")))
}

/// One member's part of a [`Walk`]: the successive
/// [`NeighborReply`](crate::gapmap::NeighborReply)s not yet consumed (keys
/// strictly monotonic toward the terminal) and the key its next chain
/// request continues from.
#[derive(Clone)]
struct Buffered {
    chain: std::collections::VecDeque<crate::gapmap::NeighborReply>,
    next_probe: Key,
}

/// One Fig. 12 walk in progress: what each quorum slot has buffered, and
/// `probe`, how far the walk has come. The neighbour searches, delete's
/// plans and the scan all step through [`DirSuite::next_real`] and refill
/// through [`DirSuite::refill`], so the discard/refill bookkeeping lives in
/// one place.
struct Walk {
    dir: Direction,
    slots: Vec<Buffered>,
    /// How many successive results each chain request asks for.
    batch: usize,
    /// Whether a refill wave extends every buffer that can still advance
    /// (the scan, which consumes them all) or only the dry ones.
    top_up: bool,
    /// Everything not strictly beyond this key is passed.
    probe: Key,
    /// The largest gap version seen inside the searched range: passed
    /// elements and every judged candidate's gaps lie inside it, so folding
    /// them keeps the eventual coalesce version dominant over everything
    /// the range ever held.
    max_gap_version: Version,
    /// Candidates judged.
    steps: u32,
    /// Chain replies folded in.
    rpc_calls: u32,
    /// The real neighbour and its version, once resolved.
    found: Option<(Key, Version)>,
}

impl Walk {
    fn new(dir: Direction, start: &Key, slots: usize, batch: usize) -> Self {
        let empty = Buffered {
            chain: std::collections::VecDeque::new(),
            next_probe: start.clone(),
        };
        Walk {
            dir,
            slots: vec![empty; slots],
            batch,
            top_up: false,
            probe: start.clone(),
            max_gap_version: Version::ZERO,
            steps: 0,
            rpc_calls: 0,
            found: None,
        }
    }

    /// Consumes the buffered elements the walk has already passed (keys not
    /// strictly beyond `probe`), folding their gap versions.
    fn discard_passed(&mut self) {
        for slot in &mut self.slots {
            while let Some(head) = slot.chain.front() {
                if self.dir.beyond(&head.key, &self.probe) {
                    break;
                }
                self.max_gap_version = self.max_gap_version.max(head.gap_version);
                slot.chain.pop_front();
            }
        }
    }

    /// Whether `slot`'s member has more chain to give.
    fn advanceable(&self, slot: usize) -> bool {
        self.slots[slot].next_probe != self.dir.terminal()
    }

    /// Whether a buffer ran dry while its member can still advance: no
    /// candidate can be judged before a refill.
    fn is_dry(&self) -> bool {
        let dry = |slot: usize| self.slots[slot].chain.is_empty() && self.advanceable(slot);
        (0..self.slots.len()).any(dry)
    }

    /// The slots the next refill wave asks for more chain.
    fn refills(&self) -> impl Iterator<Item = usize> + '_ {
        let wanted = self.found.is_none() && self.is_dry();
        (0..self.slots.len()).filter(move |&slot| {
            let dry = self.slots[slot].chain.is_empty();
            wanted && (dry || self.top_up) && self.advanceable(slot)
        })
    }

    /// `slot`'s next chain request.
    fn chain_from(&self, slot: usize) -> BatchRequest {
        let from = self.slots[slot].next_probe.clone();
        match self.dir {
            Direction::Pred => BatchRequest::PredecessorChain(from, self.batch),
            Direction::Succ => BatchRequest::SuccessorChain(from, self.batch),
        }
    }

    /// Folds one chain reply into `slot`: advances the continue-from key —
    /// an empty chain means the member is exhausted — and buffers the rest.
    fn integrate(&mut self, slot: usize, chain: Vec<crate::gapmap::NeighborReply>) {
        self.rpc_calls += 1;
        let slot = &mut self.slots[slot];
        slot.next_probe = match chain.last() {
            Some(last) => last.key.clone(),
            None => self.dir.terminal(),
        };
        slot.chain.extend(chain);
    }

    /// Each slot's answer for the current probe — the terminal with version
    /// zero for an exhausted member — folded into the closest answer across
    /// the quorum, with every answer's gap version folded into
    /// `max_gap_version`.
    fn candidate(&mut self) -> Key {
        let mut candidate = self.dir.terminal();
        for head in self.slots.iter().filter_map(|slot| slot.chain.front()) {
            self.max_gap_version = self.max_gap_version.max(head.gap_version);
            if self.dir.closer(&head.key, &candidate) {
                candidate = head.key.clone();
            }
        }
        candidate
    }

    /// Each slot's `DirRepLookup(candidate)` answer, read off its chain
    /// head: `(true, entry version)` where the head is the candidate,
    /// `(false, gap version)` where it lies beyond — the candidate then sits
    /// in the gap the head closes.
    fn votes_on<'a>(&'a self, candidate: &'a Key) -> impl Iterator<Item = (bool, Version)> + 'a {
        self.slots.iter().map(move |slot| match slot.chain.front() {
            Some(head) if head.key == *candidate => (true, head.entry_version),
            Some(head) => (false, head.gap_version),
            // Exhausted: at the terminal, as `candidate` reads it.
            None => (true, Version::ZERO),
        })
    }

    /// The slots whose head is `candidate` at `version`: the members that
    /// hold the entry the quorum voted for.
    fn holders<'a>(
        &'a self,
        candidate: &'a Key,
        version: Version,
    ) -> impl Iterator<Item = usize> + 'a {
        (0..self.slots.len()).filter(move |&slot| {
            let head = self.slots[slot].chain.front();
            head.is_some_and(|head| head.key == *candidate && head.entry_version == version)
        })
    }

    /// The finished walk as a public search result; it carries no value.
    fn search(self) -> NeighborSearch {
        let (key, version) = self.found.expect("the walk has run");
        NeighborSearch {
            key,
            version,
            value: None,
            max_gap_version: self.max_gap_version,
            steps: self.steps,
            rpc_calls: self.rpc_calls,
        }
    }
}

/// What wave A and the Fig. 12 walks established about one key of a delete.
struct DeletePlan {
    /// The merged `DirSuiteLookup(key)`: whether the key has an entry, and
    /// its entry or gap version.
    present: bool,
    version: Version,
    succ: Walk,
    pred: Walk,
}

impl DeletePlan {
    /// "The version number of the coalesced gap must be higher than the
    /// maximum of any version numbers in the range coalesced."
    fn gap_version(&self) -> Version {
        let searched = self.succ.max_gap_version.max(self.pred.max_gap_version);
        searched.max(self.version).next()
    }

    /// The key's neighbour range `(predecessor, successor)`; none when its
    /// walks never ran (an absent key).
    fn range(&self) -> Option<(&Key, &Key)> {
        Some((&self.pred.found.as_ref()?.0, &self.succ.found.as_ref()?.0))
    }

    /// Whether the two keys' neighbour ranges overlap as open intervals.
    /// Ranges that merely share an endpoint do not: that entry survives both
    /// coalesces.
    fn overlaps(&self, other: &DeletePlan) -> bool {
        match (self.range(), other.range()) {
            (Some((low, high)), Some((other_low, other_high))) => {
                low < other_high && other_low < high
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rep::{Completion, RepResult};

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn val(s: &str) -> Value {
        Value::from(s)
    }

    fn suite_322(seed: u64) -> DirSuite<LocalRep> {
        DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2).unwrap(), seed).unwrap()
    }

    fn fixed(order: &[usize]) -> Box<dyn QuorumPolicy + Send> {
        Box::new(FixedPolicy::with_order(order.to_vec()))
    }

    #[test]
    fn empty_suite_lookup_absent() {
        let mut s = suite_322(1);
        let out = s.lookup(&k("x")).unwrap();
        assert!(!out.present);
        assert_eq!(out.version, Version::ZERO);
        assert_eq!(out.value, None);
        assert_eq!(out.quorum.len(), 2);
    }

    #[test]
    fn insert_then_lookup_any_quorum() {
        let mut s = suite_322(2);
        s.insert(&k("b"), &val("B")).unwrap();
        // Whatever read quorum is drawn, it intersects the write quorum.
        for _ in 0..20 {
            let out = s.lookup(&k("b")).unwrap();
            assert!(out.present);
            assert_eq!(out.value, Some(val("B")));
            assert_eq!(out.version, Version::new(1));
        }
    }

    #[test]
    fn insert_duplicate_rejected() {
        let mut s = suite_322(3);
        s.insert(&k("b"), &val("B")).unwrap();
        assert_eq!(
            s.insert(&k("b"), &val("B2")),
            Err(SuiteError::AlreadyExists { key: k("b") })
        );
    }

    #[test]
    fn update_requires_existing_entry() {
        let mut s = suite_322(4);
        assert_eq!(
            s.update(&k("b"), &val("B")),
            Err(SuiteError::NotFound { key: k("b") })
        );
        s.insert(&k("b"), &val("B")).unwrap();
        let out = s.update(&k("b"), &val("B2")).unwrap();
        assert_eq!(out.version, Version::new(2));
        let found = s.lookup(&k("b")).unwrap();
        assert_eq!(found.value, Some(val("B2")));
        assert_eq!(found.version, Version::new(2));
    }

    #[test]
    fn delete_requires_existing_entry() {
        let mut s = suite_322(5);
        assert_eq!(s.delete(&k("b")), Err(SuiteError::NotFound { key: k("b") }));
    }

    #[test]
    fn sentinel_keys_rejected_by_mutators() {
        let mut s = suite_322(6);
        for key in [Key::Low, Key::High] {
            assert!(matches!(
                s.insert(&key, &val("x")),
                Err(SuiteError::SentinelKey { .. })
            ));
            assert!(matches!(
                s.update(&key, &val("x")),
                Err(SuiteError::SentinelKey { .. })
            ));
            assert!(matches!(
                s.delete(&key),
                Err(SuiteError::SentinelKey { .. })
            ));
        }
        assert!(matches!(
            s.real_predecessor(&Key::Low),
            Err(SuiteError::SentinelKey { .. })
        ));
        assert!(matches!(
            s.real_successor(&Key::High),
            Err(SuiteError::SentinelKey { .. })
        ));
    }

    #[test]
    fn figure_2_3_ambiguity_resolved_by_gap_versions() {
        // Figures 4-5: insert "b" into reps {A, B}, then delete it via
        // {B, C}; a read quorum {A, C} must still answer correctly even
        // though A retains the ghost of "b".
        let mut s = suite_322(0);
        s.set_policy(fixed(&[0, 1, 2]));
        s.insert(&k("a"), &val("A")).unwrap(); // on A, B
        s.insert(&k("c"), &val("C")).unwrap(); // on A, B
        s.insert(&k("b"), &val("B")).unwrap(); // on A, B — version 1

        // Read quorum {A, C}: A says present v1, C says absent v0.
        s.set_policy(fixed(&[0, 2, 1]));
        let out = s.lookup(&k("b")).unwrap();
        assert!(out.present, "gap version lets the present reply win");
        assert_eq!(out.version, Version::new(1));

        // Delete "b" via {B, C}. (B holds a, b, c; C is empty, so the
        // delete copies the real neighbors into C.)
        s.set_policy(fixed(&[1, 2, 0]));
        let del = s.delete(&k("b")).unwrap();
        assert_eq!(del.predecessor, k("a"));
        assert_eq!(del.successor, k("c"));

        // Figure 5's acid test: read quorum {A, C} again. A still has the
        // ghost "b" v1; C now reports the coalesced gap with version 2.
        s.set_policy(fixed(&[0, 2, 1]));
        let out = s.lookup(&k("b")).unwrap();
        assert!(
            !out.present,
            "absent-with-v2 must beat ghost present-with-v1"
        );
        assert_eq!(out.version, del.gap_version);
    }

    #[test]
    fn real_neighbors_skip_ghosts() {
        let mut s = suite_322(0);
        s.set_policy(fixed(&[0, 1, 2]));
        for key in ["a", "b", "c"] {
            s.insert(&k(key), &val(key)).unwrap(); // all on A, B
        }
        // Delete "b" via {A, B}: no ghosts anywhere yet.
        let del = s.delete(&k("b")).unwrap();
        assert_eq!(del.ghosts_deleted, 0);

        // Now "a" and "c" are adjacent; real predecessor of "c" is "a".
        let pred = s.real_predecessor(&k("c")).unwrap();
        assert_eq!(pred.key, k("a"));
        let succ = s.real_successor(&k("a")).unwrap();
        assert_eq!(succ.key, k("c"));
        // Neighbors of the extremes are the sentinels.
        let pred = s.real_predecessor(&k("a")).unwrap();
        assert_eq!(pred.key, Key::Low);
        assert_eq!(pred.version, Version::ZERO);
        let succ = s.real_successor(&k("c")).unwrap();
        assert_eq!(succ.key, Key::High);
    }

    #[test]
    fn delete_copies_neighbors_into_lacking_members() {
        let mut s = suite_322(0);
        s.set_policy(fixed(&[0, 1, 2]));
        for key in ["a", "b", "c"] {
            s.insert(&k(key), &val(key)).unwrap(); // all on A, B
        }
        // Delete "b" via {B, C}: C lacks both neighbors "a" and "c".
        s.set_policy(fixed(&[1, 2, 0]));
        let del = s.delete(&k("b")).unwrap();
        assert_eq!(del.copies_inserted, 2);
        // C now holds copies of "a" and "c" at their current versions.
        let c = s.member(2);
        assert!(c.lookup(&k("a")).unwrap().is_present());
        assert!(c.lookup(&k("c")).unwrap().is_present());
        assert_eq!(c.lookup(&k("a")).unwrap().version(), Version::new(1));
    }

    #[test]
    fn delete_eliminates_ghosts_and_counts_them() {
        // Build a ghost of "b" on A (insert on {A,B}, delete via {B,C}),
        // then delete "a" via a quorum containing A and verify the ghost is
        // coalesced away and counted.
        let mut s = suite_322(0);
        s.set_policy(fixed(&[0, 1, 2]));
        s.insert(&k("a"), &val("A")).unwrap();
        s.insert(&k("b"), &val("B")).unwrap();
        s.set_policy(fixed(&[1, 2, 0]));
        s.delete(&k("b")).unwrap(); // ghost "b" remains on A

        assert!(s.member(0).lookup(&k("b")).unwrap().is_present());

        s.set_policy(fixed(&[0, 2, 1]));
        let del = s.delete(&k("a")).unwrap();
        assert_eq!(del.ghosts_deleted, 1, "ghost of b removed from A");
        assert!(!s.member(0).lookup(&k("b")).unwrap().is_present());
        // The coalesce spanned LOW..HIGH since nothing else exists.
        assert_eq!(del.predecessor, Key::Low);
        assert_eq!(del.successor, Key::High);
    }

    #[test]
    fn quorum_unavailable_when_too_many_reps_down() {
        let mut s = suite_322(7);
        s.insert(&k("a"), &val("A")).unwrap();
        s.member(0).set_available(false);
        s.member(1).set_available(false);
        // One rep up: read quorum of 2 votes unreachable.
        let err = s.lookup(&k("a")).unwrap_err();
        assert_eq!(
            err,
            SuiteError::QuorumUnavailable {
                kind: QuorumKind::Read,
                needed: 2,
                gathered: 1
            }
        );
    }

    #[test]
    fn suite_tolerates_single_failure_in_322() {
        let mut s = suite_322(8);
        s.insert(&k("a"), &val("A")).unwrap();
        for down in 0..3 {
            s.member(down).set_available(false);
            let out = s.lookup(&k("a")).unwrap();
            assert!(out.present, "read must survive one failure");
            s.update(&k("a"), &val("A2")).unwrap();
            s.member(down).set_available(true);
        }
    }

    #[test]
    fn member_failing_the_carried_request_is_substituted_in_the_same_collection() {
        // The members that answer the request are the quorum, so a point
        // operation has no ping-then-call window: a member that cannot take
        // the carried lookup is one lost vote, re-collected from the next
        // candidate by a further carried wave — the call succeeds at the
        // cost of exactly one extra request.
        let mut s = suite_322(9);
        s.set_policy(fixed(&[0, 1, 2]));
        s.member(0).set_available(false);
        let out = s.lookup(&k("a")).unwrap();
        assert!(!out.present);
        assert_eq!(out.quorum, vec![RepId(1), RepId(2)]);
        assert_eq!(s.message_counts(), vec![1, 1, 1]);
        assert_eq!(s.ping_counts(), vec![0, 0, 0]);
    }

    /// Wrapper that forwards to a [`LocalRep`] but, once armed, marks the
    /// rep unavailable *immediately after* it answers a ping — the exact
    /// ping-then-call window: the member votes into the quorum, then every
    /// data RPC addressed to it fails.
    struct DiesAfterPing {
        inner: LocalRep,
        armed: std::sync::atomic::AtomicBool,
    }

    impl DiesAfterPing {
        fn new(inner: LocalRep, armed: bool) -> Self {
            Self {
                inner,
                armed: std::sync::atomic::AtomicBool::new(armed),
            }
        }
    }

    impl RepClient for DiesAfterPing {
        fn id(&self) -> RepId {
            self.inner.id()
        }
        fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
            let reply = self.inner.execute(req);
            if req == RepRequest::Ping
                && reply.is_ok()
                && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst)
            {
                self.inner.set_available(false);
            }
            reply
        }
    }

    #[test]
    fn member_death_between_collect_and_call_survives_only_under_a_held_session() {
        // A public neighbour search still pings, so the window exists for
        // it: member 0 dies the instant it finishes voting and the walk's
        // first data wave hits a corpse. The held session is re-validated
        // once and the walk completes on the survivors.
        let clients: Vec<DiesAfterPing> = (0..3)
            .map(|i| DiesAfterPing::new(LocalRep::new(RepId(i)), i == 0))
            .collect();
        let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let mut s = DirSuite::new(clients, cfg, fixed(&[0, 1, 2])).unwrap();
        assert_eq!(s.real_successor(&Key::Low).unwrap().key, Key::High);
        assert_eq!(s.obs().counter("suite.session.revalidate").get(), 1);
        // Point operations never see it: the trap is spent, member 0 is
        // down, and a lookup is answered by the members that take it.
        let out = s.lookup(&k("a")).unwrap();
        assert_eq!(out.quorum, vec![RepId(1), RepId(2)]);
    }

    #[test]
    fn revalidate_session_dead_majority_surfaces_accurate_gathered() {
        // A held session whose majority died must fail re-validation with
        // QuorumUnavailable reporting exactly the votes the survivors still
        // muster — not hang, and not undercount the survivor.
        for adaptive in [true, false] {
            let mut s = suite_322(31);
            s.set_adaptive_waves(adaptive);
            s.insert(&k("a"), &val("A")).unwrap();
            let err = s
                .with_session_scope(|s| {
                    s.collect_quorum(QuorumKind::Read, None, None)?;
                    s.member(0).set_available(false);
                    s.member(1).set_available(false);
                    s.revalidate_session(QuorumKind::Read).map(|_| ())
                })
                .unwrap_err();
            assert_eq!(
                err,
                SuiteError::QuorumUnavailable {
                    kind: QuorumKind::Read,
                    needed: 2,
                    gathered: 1
                },
                "adaptive={adaptive}"
            );
        }
    }

    #[test]
    fn revalidate_session_bumps_epoch_exactly_once_each_time() {
        // Each re-validation advances the session epoch by exactly one and
        // records exactly one `suite.session.revalidate` tick — the pair of
        // ledgers the bulk-walk retry budget and the tests lean on.
        let mut s = suite_322(32);
        s.insert(&k("a"), &val("A")).unwrap();
        let reval = s.obs().counter("suite.session.revalidate");
        s.with_session_scope(|s| -> Result<(), SuiteError> {
            s.collect_quorum(QuorumKind::Read, None, None)?;
            assert_eq!(s.session(QuorumKind::Read).unwrap().epoch, 0);
            assert_eq!(reval.get(), 0, "fresh collection is not a re-validation");
            for expected in 1..=3u64 {
                s.revalidate_session(QuorumKind::Read)?;
                assert_eq!(s.session(QuorumKind::Read).unwrap().epoch, expected);
                assert_eq!(reval.get(), expected);
            }
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn dirty_candidate_orders_collect_identical_quorums_and_pings() {
        // Duplicate and out-of-range candidate indices must scrub down to
        // the clean order: same quorum, same ping spend, in both wave
        // modes. (`usize::MAX` additionally guards the hygiene pass against
        // indexing before bounds-checking.)
        let clean: &[usize] = &[2, 0, 1];
        let dirty: [&[usize]; 3] = [
            &[2, 2, 0, 2, 1, 0],
            &[9, 2, 0, usize::MAX, 1, 100],
            &[2, 0, 1, 2, 0, 1, 7],
        ];
        for adaptive in [true, false] {
            let run = |order: &[usize]| {
                let mut s = suite_322(33);
                s.set_adaptive_waves(adaptive);
                let chosen = s
                    .collect_quorum_ordered(QuorumKind::Read, order.to_vec(), None)
                    .unwrap()
                    .members;
                (chosen, s.ping_counts())
            };
            let baseline = run(clean);
            for order in dirty {
                assert_eq!(run(order), baseline, "order {order:?} adaptive={adaptive}");
            }
        }
    }

    #[test]
    fn zero_vote_members_in_the_order_change_nothing() {
        // Weak (zero-vote) representatives may appear anywhere in a
        // candidate order — mentioned or not, duplicated or not — without
        // being pinged, chosen, or shifting the quorum.
        let cfg = SuiteConfig::new(vec![1, 0, 1, 1], 2, 2).unwrap();
        for adaptive in [true, false] {
            let run = |order: &[usize]| {
                let clients: Vec<LocalRep> = (0..4).map(|i| LocalRep::new(RepId(i))).collect();
                let mut s = DirSuite::new(clients, cfg.clone(), fixed(&[0, 1, 2, 3])).unwrap();
                s.set_adaptive_waves(adaptive);
                let chosen = s
                    .collect_quorum_ordered(QuorumKind::Read, order.to_vec(), None)
                    .unwrap()
                    .members;
                (chosen, s.ping_counts())
            };
            let baseline = run(&[0, 2, 3]);
            for order in [&[0usize, 1, 2, 3][..], &[1, 0, 1, 2, 9, 3]] {
                assert_eq!(run(order), baseline, "order {order:?} adaptive={adaptive}");
                assert_eq!(baseline.1[1], 0, "weak member must never be pinged");
            }
        }
    }

    #[test]
    fn adaptive_waves_overprovision_around_a_flaky_member() {
        // Once a member's availability estimate drops, the next collection
        // folds the recovery candidate into the first wave instead of
        // paying a guaranteed extra round — the tentpole behavior.
        let mut s = suite_322(34);
        s.set_policy(fixed(&[0, 1, 2]));
        s.member(0).set_available(false);
        let waves = s.obs().counter("suite.quorum.waves");

        // First collection: member 0 is unsampled, so the wave is the
        // minimal prefix and its failure costs a second round.
        s.lookup(&k("a")).unwrap();
        let discovery = waves.get();
        assert!(discovery >= 2, "discovery collection pays the extra round");

        // Second collection: avail(0) is now 0, so the first wave already
        // over-provisions member 2 and the quorum lands in one round.
        let out = s.lookup(&k("a")).unwrap();
        assert_eq!(out.quorum, vec![RepId(1), RepId(2)]);
        assert_eq!(waves.get(), discovery + 1, "one over-provisioned wave");
    }

    /// Forwards to a [`LocalRep`] with configurable per-operation lag — the
    /// straggler the hedging tests race against. Started requests are
    /// answered at once and *delivered* late, from a timer thread the double
    /// owns: the modelled latency is the member's, not the coordinator's.
    struct Laggy {
        inner: LocalRep,
        ping_delay: Duration,
        lookup_delay: Duration,
    }

    impl Laggy {
        fn new(id: u32, ping_delay: Duration, lookup_delay: Duration) -> Self {
            Self {
                inner: LocalRep::new(RepId(id)),
                ping_delay,
                lookup_delay,
            }
        }

        fn delay_of(&self, req: RepRequest<'_>) -> Duration {
            match req {
                RepRequest::Ping => self.ping_delay,
                RepRequest::Lookup(_) => self.lookup_delay,
                _ => Duration::ZERO,
            }
        }
    }

    impl RepClient for Laggy {
        fn id(&self) -> RepId {
            self.inner.id()
        }
        fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
            std::thread::sleep(self.delay_of(req));
            self.inner.execute(req)
        }
        fn start(&self, req: RepRequest<'_>, done: Completion) {
            let (delay, reply) = (self.delay_of(req), self.inner.execute(req));
            if delay.is_zero() {
                return done.complete(reply);
            }
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                done.complete(reply);
            });
        }
    }

    #[test]
    fn hedged_ping_wave_wins_with_a_spare_over_a_straggler() {
        // Member 0 answers pings 80ms late; with a 2ms hedge delay the
        // ping wave a public neighbour search collects with must duplicate
        // to member 2 and close the quorum without waiting out the
        // straggler.
        let clients = vec![
            Laggy::new(0, Duration::from_millis(80), Duration::ZERO),
            Laggy::new(1, Duration::ZERO, Duration::ZERO),
            Laggy::new(2, Duration::ZERO, Duration::ZERO),
        ];
        let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let mut s = DirSuite::new(clients, cfg, fixed(&[0, 1, 2])).unwrap();
        s.set_hedge(true);
        s.set_hedge_delay(Some(Duration::from_millis(2)));
        let issued = s.obs().counter("suite.hedge.issued");

        let start = std::time::Instant::now();
        assert_eq!(s.real_successor(&Key::Low).unwrap().key, Key::High);
        assert!(issued.get() >= 1, "the straggling ping must be hedged");
        assert!(
            start.elapsed() < Duration::from_millis(80),
            "the quorum must not wait out the straggler"
        );
        assert_eq!(s.ping_counts(), vec![1, 1, 1]);
        assert_eq!(
            s.message_counts()[0],
            0,
            "the straggler is not in the quorum"
        );
    }

    #[test]
    fn hedged_lookup_substitutes_a_spare_for_a_straggler() {
        // Member 0 serves lookups 80ms late: the collection carries the
        // lookup to it and straggles. The hedged read must assemble R votes
        // from member 1 plus the spare member 2 and return the exact answer.
        let clients = vec![
            Laggy::new(0, Duration::ZERO, Duration::from_millis(80)),
            Laggy::new(1, Duration::ZERO, Duration::ZERO),
            Laggy::new(2, Duration::ZERO, Duration::ZERO),
        ];
        let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let mut s = DirSuite::new(clients, cfg, fixed(&[0, 1, 2])).unwrap();
        s.insert(&k("a"), &val("A")).unwrap();
        s.set_hedge(true);
        s.set_hedge_delay(Some(Duration::from_millis(2)));
        let issued = s.obs().counter("suite.hedge.issued");
        let won = s.obs().counter("suite.hedge.won");

        let out = s.lookup(&k("a")).unwrap();
        assert!(out.present);
        assert_eq!(out.value, Some(val("A")));
        assert_eq!(
            out.quorum,
            vec![RepId(1), RepId(2)],
            "the spare's reply substitutes for the straggler's"
        );
        assert!(issued.get() >= 1);
        assert!(won.get() >= 1, "the substituted spare counts as a win");
        // The straggler was still asked — hedging duplicates, not cancels.
        // (Members 0 and 1 carry two messages each from the insert's read
        // and write quorums; the hedged read adds one more to each quorum
        // member and one to the spare.)
        assert_eq!(s.message_counts(), vec![3, 3, 1]);
    }

    #[test]
    fn sequential_mode_matches_fanout_results_and_counters() {
        // The same scripted workload, fanned out and serialized, must agree
        // on every answer and land identical per-member message counters:
        // waves are the same RPC sets either way.
        let run = |fanout: bool| {
            let mut s = suite_322(42);
            s.set_fanout(fanout);
            let mut log = Vec::new();
            log.push(format!("{:?}", s.insert(&k("a"), &val("A"))));
            log.push(format!("{:?}", s.insert(&k("c"), &val("C"))));
            log.push(format!("{:?}", s.insert(&k("b"), &val("B"))));
            log.push(format!("{:?}", s.update(&k("b"), &val("B2"))));
            log.push(format!("{:?}", s.lookup(&k("b"))));
            log.push(format!("{:?}", s.delete(&k("b"))));
            log.push(format!("{:?}", s.real_successor(&k("a"))));
            log.push(format!("{:?}", s.real_predecessor(&k("c"))));
            log.push(format!("{:?}", s.scan()));
            (log, s.message_counts().to_vec(), s.ping_counts().to_vec())
        };
        let (log_fan, msgs_fan, pings_fan) = run(true);
        let (log_seq, msgs_seq, pings_seq) = run(false);
        assert_eq!(log_fan, log_seq);
        assert_eq!(msgs_fan, msgs_seq);
        assert_eq!(pings_fan, pings_seq);
    }

    #[test]
    fn sticky_policy_revalidates_dead_favorite_and_counts_the_miss() {
        // §5's sticky quorums remember a preferred permutation, but the
        // suite still pings every candidate before counting its votes. When
        // the remembered favorite dies, collection must fall back to the
        // live members and record the stale preference as a sticky miss.
        let mut s = suite_322(11);
        s.set_policy(Box::new(StickyPolicy::new(9, 0.0)));
        s.insert(&k("a"), &val("A")).unwrap();
        let favorite = s.lookup(&k("a")).unwrap().quorum[0];
        let misses = s.obs().counter("suite.quorum.sticky_miss");
        assert_eq!(misses.get(), 0, "healthy suite: preferences all verify");

        s.member(favorite.0 as usize).set_available(false);
        let out = s.lookup(&k("a")).unwrap();
        assert!(out.present);
        assert!(
            !out.quorum.contains(&favorite),
            "dead favorite must not vote: {:?}",
            out.quorum
        );
        assert!(misses.get() >= 1, "failed re-validation counts as a miss");

        // The favorite recovers: the unchanged sticky order finds it first
        // again, with no further misses.
        s.member(favorite.0 as usize).set_available(true);
        let before = misses.get();
        let out = s.lookup(&k("a")).unwrap();
        assert_eq!(out.quorum[0], favorite);
        assert_eq!(misses.get(), before);
    }

    #[test]
    fn obs_registry_counters_back_message_and_ping_accessors() {
        // message_counts()/ping_counts() are documented as views over the
        // named obs counters; a scripted workload must leave the accessor
        // vectors and the registry's `suite.member.{i}.*` counters in exact
        // agreement, and the operations must have recorded spans.
        let mut s = suite_322(12);
        s.set_policy(fixed(&[0, 1, 2]));
        s.insert(&k("a"), &val("A")).unwrap();
        s.insert(&k("c"), &val("C")).unwrap();
        s.update(&k("a"), &val("A2")).unwrap();
        s.lookup(&k("a")).unwrap();
        s.delete(&k("c")).unwrap();
        // The one operation here that pings: a public neighbour search
        // collects its quorum before it has a request to carry.
        s.real_successor(&k("a")).unwrap();

        let msgs = s.message_counts();
        let pings = s.ping_counts();
        assert!(msgs.iter().sum::<u64>() > 0);
        assert!(pings.iter().sum::<u64>() > 0);
        let snap = s.obs().snapshot();
        for i in 0..3 {
            assert_eq!(snap.counter(&format!("suite.member.{i}.msgs")), msgs[i]);
            assert_eq!(snap.counter(&format!("suite.member.{i}.pings")), pings[i]);
        }
        // One collection wave per quorum: five ops, each collecting one
        // read and/or write quorum, so at least five waves.
        assert!(snap.counter("suite.quorum.waves") >= 5);
        let spans = s.obs().spans();
        for name in ["suite.lookup", "suite.write", "suite.delete"] {
            assert!(
                spans.iter().any(|e| e.name == name),
                "missing span {name:?}"
            );
        }

        // reset_message_counts zeroes the registry counters themselves,
        // not a shadow copy.
        s.reset_message_counts();
        let snap = s.obs().snapshot();
        for i in 0..3 {
            assert_eq!(snap.counter(&format!("suite.member.{i}.msgs")), 0);
            assert_eq!(snap.counter(&format!("suite.member.{i}.pings")), 0);
        }
    }

    #[test]
    fn weighted_votes_respected() {
        // Rep 0 holds 2 votes: alone it satisfies R=2.
        let cfg = SuiteConfig::new(vec![2, 1, 1], 2, 3).unwrap();
        let clients: Vec<LocalRep> = (0..3).map(|i| LocalRep::new(RepId(i))).collect();
        let mut s = DirSuite::new(clients, cfg, fixed(&[0, 1, 2])).unwrap();
        s.insert(&k("a"), &val("A")).unwrap();
        let out = s.lookup(&k("a")).unwrap();
        assert_eq!(
            out.quorum,
            vec![RepId(0)],
            "2-vote rep alone is a read quorum"
        );
    }

    #[test]
    fn zero_vote_weak_rep_never_joins_quorum_but_gets_write_through() {
        let cfg = SuiteConfig::new(vec![1, 1, 0], 2, 2).unwrap();
        let clients: Vec<LocalRep> = (0..3).map(|i| LocalRep::new(RepId(i))).collect();
        let weak = clients[2].clone();
        let mut s = DirSuite::new(clients, cfg, fixed(&[2, 0, 1])).unwrap();
        s.set_write_through_weak(true);
        let out = s.insert(&k("a"), &val("A")).unwrap();
        assert!(!out.quorum.contains(&RepId(2)));
        // ... but the weak rep received the entry as a hint.
        assert!(weak.lookup(&k("a")).unwrap().is_present());
    }

    #[test]
    fn member_count_mismatch_rejected() {
        let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let clients = vec![LocalRep::new(RepId(0))];
        assert_eq!(
            DirSuite::new(clients, cfg, fixed(&[0])).err(),
            Some(ConfigError::MemberCountMismatch {
                clients: 1,
                votes: 3
            })
        );
    }

    #[test]
    fn message_counters_track_rpcs() {
        let mut s = suite_322(10);
        s.set_policy(fixed(&[0, 1, 2]));
        s.insert(&k("a"), &val("A")).unwrap();
        let data: u64 = s.message_counts().iter().sum();
        let pings: u64 = s.ping_counts().iter().sum();
        // insert = lookup (2 RPCs) + 2 writes; both collections rode them.
        assert_eq!(data, 4);
        assert_eq!(pings, 0);
        s.delete(&k("a")).unwrap();
        // delete = three waves of R, W and W requests, none of them a ping.
        assert_eq!(s.message_counts().iter().sum::<u64>(), data + 6);
        assert_eq!(s.ping_counts().iter().sum::<u64>(), 0);
        s.reset_message_counts();
        assert!(s.message_counts().iter().all(|&c| c == 0));
        assert!(s.ping_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn lookup_version_matches_expectation_for_users_of_fig9() {
        // Insert uses lookup's version + 1 even when the key was deleted
        // before: versions never move backwards.
        let mut s = suite_322(0);
        s.set_policy(fixed(&[0, 1, 2]));
        s.insert(&k("b"), &val("B1")).unwrap(); // v1
        s.delete(&k("b")).unwrap(); // gap v2
        let out = s.insert(&k("b"), &val("B2")).unwrap();
        assert_eq!(out.version, Version::new(3));
    }

    #[test]
    fn pick_reply_prefers_higher_version_then_presence() {
        let present = LookupReply::Present {
            version: Version::new(2),
            value: val("x"),
        };
        let absent = LookupReply::Absent {
            gap_version: Version::new(3),
        };
        assert_eq!(pick_reply(present.clone(), absent.clone()), absent);
        let absent_low = LookupReply::Absent {
            gap_version: Version::new(1),
        };
        assert_eq!(pick_reply(absent_low.clone(), present.clone()), present);
        // Tie: presence wins either way.
        let absent_tie = LookupReply::Absent {
            gap_version: Version::new(2),
        };
        assert_eq!(pick_reply(absent_tie.clone(), present.clone()), present);
        assert_eq!(pick_reply(present.clone(), absent_tie), present);
    }

    #[test]
    fn empty_string_key_is_a_legal_user_key() {
        // "" sorts above LOW and below every other user key; the whole
        // lifecycle must work, including deletion (real predecessor LOW).
        let mut s = suite_322(4);
        let empty = Key::from("");
        s.insert(&empty, &val("root")).unwrap();
        assert!(s.lookup(&empty).unwrap().present);
        s.insert(&k("a"), &val("A")).unwrap();
        let pred = s.real_predecessor(&k("a")).unwrap();
        assert_eq!(pred.key, empty);
        let del = s.delete(&empty).unwrap();
        assert_eq!(del.predecessor, Key::Low);
        assert!(!s.lookup(&empty).unwrap().present);
        assert!(s.lookup(&k("a")).unwrap().present);
    }

    #[test]
    fn scan_lists_logical_contents_skipping_ghosts() {
        let mut s = suite_322(0);
        s.set_policy(fixed(&[0, 1, 2]));
        for key in ["d", "a", "c", "b"] {
            s.insert(&k(key), &val(key)).unwrap();
        }
        // Delete "b" via {B, C}: ghost of b stays on A.
        s.set_policy(fixed(&[1, 2, 0]));
        s.delete(&k("b")).unwrap();
        // Scan with a quorum including the ghost-holding A.
        s.set_policy(fixed(&[0, 2, 1]));
        let entries = s.scan().unwrap();
        let keys: Vec<String> = entries.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["a", "c", "d"], "ghost b must not appear");
        for (key, value) in entries {
            assert_eq!(value, val(&key.to_string()));
        }
        // Empty suite scans empty.
        let mut empty = suite_322(1);
        assert!(empty.scan().unwrap().is_empty());
    }

    #[test]
    fn batched_search_returns_identical_answers_with_fewer_rpcs() {
        // Build a directory with a run of ghosts so the searches must walk
        // several steps, then compare batch sizes 1 and 3 on clones of the
        // same representative state.
        let build = || {
            let mut s = suite_322(0);
            s.set_policy(fixed(&[0, 1, 2]));
            for key in ["a", "b", "c", "d", "e", "f"] {
                s.insert(&k(key), &val(key)).unwrap();
            }
            // Delete the middle run via {B, C}: ghosts of b..e pile on A.
            s.set_policy(fixed(&[1, 2, 0]));
            for key in ["e", "d", "c", "b"] {
                s.delete(&k(key)).unwrap();
            }
            // Search with read quorum {A, B}: A's ghosts force a walk.
            s.set_policy(fixed(&[0, 1, 2]));
            s
        };

        let mut unbatched = build();
        unbatched.set_neighbor_batch(1);
        let u = unbatched.real_predecessor(&k("f")).unwrap();

        let mut batched = build();
        batched.set_neighbor_batch(3);
        let b = batched.real_predecessor(&k("f")).unwrap();

        assert_eq!(u.key, b.key, "same real predecessor");
        assert_eq!(u.version, b.version);
        assert_eq!(u.steps, b.steps, "same logical walk");
        assert!(
            u.max_gap_version <= b.max_gap_version,
            "batched may fold extra in-range gaps, never fewer"
        );
        assert!(
            b.rpc_calls < u.rpc_calls,
            "batch 3 must issue fewer chain RPCs: {} vs {}",
            b.rpc_calls,
            u.rpc_calls
        );
        // Unbatched: at most one RPC per member per step (buffered answers
        // are reused across probes, so it can be fewer than Fig. 12's
        // literal step * member count).
        assert!(u.rpc_calls <= u.steps * 2);
        assert!(u.rpc_calls > 2, "the ghost walk needs several rounds");

        // Deletes behave identically under batching.
        let da = unbatched.delete(&k("a")).unwrap();
        let db = batched.delete(&k("a")).unwrap();
        assert_eq!(da.predecessor, db.predecessor);
        assert_eq!(da.successor, db.successor);
        assert_eq!(da.ghosts_deleted, db.ghosts_deleted);
    }

    #[test]
    fn batched_search_model_agreement_over_workload() {
        // A full random workload with batch 3 must agree with the model,
        // exactly like the unbatched suite.
        use std::collections::BTreeMap;
        let mut model: BTreeMap<String, u64> = BTreeMap::new();
        let mut s = suite_322(77);
        s.set_neighbor_batch(3);
        let mut rng = crate::rng::SplitMix64::new(5);
        for step in 0..500u64 {
            let key = format!("k{}", rng.next_below(16));
            let kk = k(&key);
            match rng.next_below(4) {
                0 | 1 => {
                    if model.insert(key.clone(), step).is_some() {
                        s.update(&kk, &val(&step.to_string())).unwrap();
                    } else {
                        s.insert(&kk, &val(&step.to_string())).unwrap();
                    }
                }
                2 => {
                    if model.remove(&key).is_some() {
                        s.delete(&kk).unwrap();
                    }
                }
                _ => {
                    let out = s.lookup(&kk).unwrap();
                    assert_eq!(out.present, model.contains_key(&key), "step {step}");
                }
            }
        }
        for key in model.keys() {
            assert!(s.lookup(&k(key)).unwrap().present);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_neighbor_batch_rejected() {
        let mut s = suite_322(0);
        s.set_neighbor_batch(0);
    }

    #[test]
    fn scan_session_pays_one_quorum_collection() {
        // A failure-free session scan collects its read quorum exactly once
        // — the collection carries the first chain request, so nobody is
        // pinged — and five entries fit one chain: a second wave fetches
        // their values and that is all.
        let mut s = suite_322(31);
        s.set_policy(fixed(&[0, 1, 2]));
        for key in ["a", "b", "c", "d", "e"] {
            s.insert(&k(key), &val(key)).unwrap();
        }
        s.reset_message_counts();
        let before = s.obs().snapshot();
        let listed = s.scan().unwrap();
        assert_eq!(listed.len(), 5);
        let after = s.obs().snapshot();
        assert_eq!(
            after.counter("suite.quorum.waves") - before.counter("suite.quorum.waves"),
            1,
            "failure-free scan must collect exactly one quorum"
        );
        assert_eq!(s.ping_counts(), vec![0, 0, 0]);
        assert_eq!(s.message_counts(), vec![2, 2, 0]);
        assert_eq!(
            after.counter("suite.rounds") - before.counter("suite.rounds"),
            2,
            "the carried chain, then the values"
        );
        assert_eq!(
            after.counter("suite.session.revalidate"),
            before.counter("suite.session.revalidate"),
            "no failure, no re-validation"
        );
        // Sessions never outlive the operation that pinned them.
        assert!(s.session(QuorumKind::Read).is_none());
        assert!(s.session(QuorumKind::Write).is_none());
    }

    #[test]
    fn scan_baseline_matches_session_output_with_more_traffic() {
        // `set_session_reuse(false)` restores the per-hop baseline: same
        // listing, strictly more quorum collections, pings, and data RPCs.
        let run = |reuse: bool| {
            let mut s = suite_322(32);
            s.set_policy(fixed(&[0, 1, 2]));
            s.set_session_reuse(reuse);
            for key in ["a", "b", "c", "d"] {
                s.insert(&k(key), &val(key)).unwrap();
            }
            s.reset_message_counts();
            let waves_before = s.obs().snapshot().counter("suite.quorum.waves");
            let listed = s.scan().unwrap();
            let waves = s.obs().snapshot().counter("suite.quorum.waves") - waves_before;
            let msgs: u64 = s.message_counts().iter().sum();
            let pings: u64 = s.ping_counts().iter().sum();
            (listed, waves, msgs, pings)
        };
        let (session, s_waves, s_msgs, s_pings) = run(true);
        let (baseline, b_waves, b_msgs, b_pings) = run(false);
        assert_eq!(session, baseline, "both modes list the same contents");
        assert_eq!(s_waves, 1);
        assert!(b_waves > 1, "baseline re-collects per hop");
        assert!(s_pings < b_pings);
        assert!(
            s_msgs < b_msgs,
            "session+batched scan must send fewer data RPCs ({s_msgs} vs {b_msgs})"
        );
    }

    #[test]
    fn delete_session_collects_one_read_and_one_write_quorum() {
        // Delete's three waves: the read collection rides the lookup and
        // both first chain hops, the write collection rides the neighbour
        // probes, and the coalesce is a plain scatter to the members those
        // gathered — nothing is pinged and no session is re-asked.
        let mut s = suite_322(33);
        s.set_policy(fixed(&[0, 1, 2]));
        for key in ["a", "b", "c"] {
            s.insert(&k(key), &val(key)).unwrap();
        }
        s.reset_message_counts();
        let before = s.obs().snapshot();
        s.delete(&k("b")).unwrap();
        let after = s.obs().snapshot();
        assert_eq!(
            after.counter("suite.quorum.waves") - before.counter("suite.quorum.waves"),
            2,
            "one read + one write collection for the whole delete"
        );
        assert_eq!(
            after.counter("suite.rounds") - before.counter("suite.rounds"),
            3
        );
        assert_eq!(s.ping_counts(), vec![0, 0, 0]);
        assert_eq!(s.message_counts(), vec![3, 3, 0]);
        assert_eq!(
            after.counter("suite.session.reuse"),
            before.counter("suite.session.reuse")
        );
        assert!(s.session(QuorumKind::Write).is_none());
    }

    #[test]
    fn walk_ghost_skip_reaches_high() {
        // The chain buffers at the keyspace's edge: one member still buffers
        // a trailing ghost, the other is exhausted. The ghost is the
        // candidate (closer than HIGH); once the walk passes it that buffer
        // is dry with chain left to fetch, the exhausted member asks for
        // nothing, and after the refill the candidate is HIGH with the
        // ghost's gap version still folded — never lost.
        let reply = |key: &Key, ev: u64, gv: u64| crate::gapmap::NeighborReply {
            key: key.clone(),
            entry_version: Version::from(ev),
            gap_version: Version::from(gv),
        };
        let mut walk = Walk::new(Direction::Succ, &k("w"), 2, 1);
        walk.integrate(0, vec![reply(&k("z"), 3, 5)]);
        walk.integrate(1, vec![]);
        assert!(!walk.is_dry());
        assert_eq!(walk.candidate(), k("z"));
        assert_eq!(
            walk.votes_on(&k("z")).collect::<Vec<_>>(),
            vec![(true, Version::from(3)), (true, Version::ZERO)]
        );
        assert_eq!(
            walk.holders(&k("z"), Version::from(3)).collect::<Vec<_>>(),
            vec![0]
        );
        walk.probe = k("z");
        walk.discard_passed();
        assert_eq!(walk.refills().collect::<Vec<_>>(), vec![0]);
        assert_eq!(walk.chain_from(0), BatchRequest::SuccessorChain(k("z"), 1));
        walk.integrate(0, vec![]);
        assert_eq!(walk.candidate(), Key::High);
        assert_eq!(walk.refills().count(), 0, "no member can advance past HIGH");
        assert_eq!(walk.max_gap_version, Version::from(5));
        assert_eq!(walk.rpc_calls, 3);
    }

    /// Forwards to a [`LocalRep`] but kills the rep once a shared fuse
    /// counts down to zero across data RPCs — the mid-walk failure window
    /// session re-validation exists for. Pings never tick the fuse, so the
    /// fixture controls exactly how deep into a walk the member dies.
    struct DiesAfterCalls {
        inner: LocalRep,
        fuse: std::sync::Arc<std::sync::atomic::AtomicI64>,
    }

    impl DiesAfterCalls {
        fn tick(&self) {
            if self.fuse.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) == 1 {
                self.inner.set_available(false);
            }
        }
    }

    impl RepClient for DiesAfterCalls {
        fn id(&self) -> RepId {
            self.inner.id()
        }
        fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
            match req {
                RepRequest::Ping => {}
                // Every sub-request of an envelope ticks on its own, so a
                // member can die half-way through one.
                RepRequest::Batch(parts) => return self.execute_parts(parts),
                _ => self.tick(),
            }
            self.inner.execute(req)
        }
    }

    fn fused_suite() -> (
        DirSuite<DiesAfterCalls>,
        Vec<std::sync::Arc<std::sync::atomic::AtomicI64>>,
    ) {
        // Fuses start deeply negative: effectively disarmed through setup.
        let fuses: Vec<std::sync::Arc<std::sync::atomic::AtomicI64>> = (0..3)
            .map(|_| std::sync::Arc::new(std::sync::atomic::AtomicI64::new(i64::MIN / 2)))
            .collect();
        let clients: Vec<DiesAfterCalls> = fuses
            .iter()
            .enumerate()
            .map(|(i, fuse)| DiesAfterCalls {
                inner: LocalRep::new(RepId(i as u32)),
                fuse: fuse.clone(),
            })
            .collect();
        let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let mut s = DirSuite::new(clients, cfg, fixed(&[0, 1, 2])).unwrap();
        for key in ["a", "b", "c", "d", "e", "f"] {
            s.insert(&k(key), &val(key)).unwrap();
        }
        (s, fuses)
    }

    #[test]
    fn mid_scan_member_failure_revalidates_once_and_completes() {
        use std::sync::atomic::Ordering;
        let (mut s, fuses) = fused_suite();
        // Member 0 dies three data RPCs into the scan: after the session
        // quorum {0, 1} was collected and already used for a hop or two.
        fuses[0].store(3, Ordering::SeqCst);
        let listed = s.scan().unwrap();
        assert_eq!(
            listed
                .iter()
                .map(|(u, _)| u.to_string())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c", "d", "e", "f"],
            "scan must complete correctly through the failure"
        );
        let snap = s.obs().snapshot();
        assert_eq!(
            snap.counter("suite.session.revalidate"),
            1,
            "exactly one re-validation for one member failure"
        );
        assert!(s.session(QuorumKind::Read).is_none());
    }

    #[test]
    fn dead_majority_mid_scan_surfaces_quorum_unavailable() {
        use std::sync::atomic::Ordering;
        let (mut s, fuses) = fused_suite();
        // Members 0 and 1 both die early in the scan: re-validation finds
        // only member 2 alive (one vote of the two needed) and the scan
        // must fail with QuorumUnavailable rather than hang or loop.
        fuses[0].store(2, Ordering::SeqCst);
        fuses[1].store(2, Ordering::SeqCst);
        let err = s.scan().unwrap_err();
        assert!(
            matches!(
                err,
                SuiteError::QuorumUnavailable {
                    kind: QuorumKind::Read,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn bulk_insert_pays_one_quorum_pair_and_batched_envelopes() {
        let mut s = suite_322(60);
        s.set_policy(fixed(&[0, 1, 2]));
        s.reset_message_counts();
        let before = s.obs().snapshot();
        let entries: Vec<(Key, Value)> = (0..8).map(|i| (k(&format!("k{i}")), val("v"))).collect();
        let out = s.insert_many(&entries).unwrap();
        let after = s.obs().snapshot();
        assert_eq!(out.versions, vec![Version::new(1); 8]);
        assert_eq!(
            after.counter("suite.quorum.waves") - before.counter("suite.quorum.waves"),
            2,
            "one read + one write collection for the whole batch"
        );
        // One discovery envelope and one write envelope per quorum member,
        // each carried by its collection.
        assert_eq!(s.ping_counts(), vec![0, 0, 0]);
        assert_eq!(s.message_counts(), vec![2, 2, 0]);
        assert_eq!(
            after.counter("suite.rounds") - before.counter("suite.rounds"),
            2
        );
        assert_eq!(
            after.counter("suite.bulk.ops") - before.counter("suite.bulk.ops"),
            1
        );
        assert_eq!(
            after.counter("suite.bulk.keys") - before.counter("suite.bulk.keys"),
            8
        );
        assert_eq!(
            after.counter("suite.bulk.resumed"),
            before.counter("suite.bulk.resumed")
        );
        // Sessions never outlive the batch.
        assert!(s.session(QuorumKind::Read).is_none());
        assert!(s.session(QuorumKind::Write).is_none());
        for (key, _) in &entries {
            assert!(s.lookup(key).unwrap().present);
        }
    }

    #[test]
    fn bulk_insert_matches_the_per_key_baseline() {
        let run = |reuse: bool| {
            let mut s = suite_322(61);
            s.set_policy(fixed(&[0, 1, 2]));
            s.set_session_reuse(reuse);
            let entries: Vec<(Key, Value)> = (0..20)
                .map(|i| (k(&format!("e{i:02}")), val(&format!("v{i}"))))
                .collect();
            let out = s.insert_many(&entries).unwrap();
            (out, s.scan().unwrap())
        };
        let (bulk, bulk_scan) = run(true);
        let (base, base_scan) = run(false);
        assert_eq!(bulk, base, "bulk assigns the versions the loop would");
        assert_eq!(bulk_scan, base_scan);
    }

    #[test]
    fn bulk_insert_applies_the_exact_prefix_before_the_offending_key() {
        let mut s = suite_322(62);
        s.insert(&k("dup"), &val("old")).unwrap();
        // Pre-existing key mid-batch: its error surfaces, the prefix is
        // applied, the tail is not — exactly the per-key loop's outcome.
        let batch = vec![
            (k("p0"), val("v")),
            (k("p1"), val("v")),
            (k("dup"), val("v")),
            (k("p2"), val("v")),
        ];
        assert_eq!(
            s.insert_many(&batch),
            Err(SuiteError::AlreadyExists { key: k("dup") })
        );
        assert!(s.lookup(&k("p0")).unwrap().present);
        assert!(s.lookup(&k("p1")).unwrap().present);
        assert!(!s.lookup(&k("p2")).unwrap().present);
        assert_eq!(s.lookup(&k("dup")).unwrap().value, Some(val("old")));
        // An in-batch duplicate offends at its later occurrence.
        let batch = vec![(k("q0"), val("v")), (k("q0"), val("v"))];
        assert_eq!(
            s.insert_many(&batch),
            Err(SuiteError::AlreadyExists { key: k("q0") })
        );
        assert!(
            s.lookup(&k("q0")).unwrap().present,
            "first occurrence applied"
        );
        // Sentinels are rejected in position, not up front.
        let batch = vec![(k("r0"), val("v")), (Key::High, val("v"))];
        assert!(matches!(
            s.insert_many(&batch),
            Err(SuiteError::SentinelKey { .. })
        ));
        assert!(s.lookup(&k("r0")).unwrap().present);
        // Empty batches are no-ops.
        assert_eq!(s.insert_many(&[]).unwrap().versions, Vec::<Version>::new());
        assert_eq!(s.delete_many(&[]).unwrap().versions, Vec::<Version>::new());
    }

    #[test]
    fn bulk_delete_matches_the_per_key_baseline() {
        let run = |reuse: bool| {
            let mut s = suite_322(63);
            s.set_policy(fixed(&[0, 1, 2]));
            let entries: Vec<(Key, Value)> =
                (0..10).map(|i| (k(&format!("d{i}")), val("v"))).collect();
            s.insert_many(&entries).unwrap();
            s.set_session_reuse(reuse);
            let keys: Vec<Key> = entries.iter().map(|(key, _)| key.clone()).collect();
            let out = s.delete_many(&keys).unwrap();
            (out, s.scan().unwrap())
        };
        let (bulk, bulk_scan) = run(true);
        let (base, base_scan) = run(false);
        assert_eq!(bulk, base, "bulk coalesces at the versions the loop would");
        assert!(bulk_scan.is_empty());
        assert_eq!(bulk_scan, base_scan);
        // NotFound mid-batch stops with the prefix deleted.
        let mut s = suite_322(64);
        s.insert_many(&[(k("x"), val("v")), (k("y"), val("v"))])
            .unwrap();
        assert_eq!(
            s.delete_many(&[k("x"), k("ghost"), k("y")]),
            Err(SuiteError::NotFound { key: k("ghost") })
        );
        assert!(!s.lookup(&k("x")).unwrap().present);
        assert!(s.lookup(&k("y")).unwrap().present);
    }

    #[test]
    fn mid_batch_insert_failure_resumes_at_the_same_versions() {
        use std::sync::atomic::Ordering;
        let (mut s, fuses) = fused_suite();
        // Member 0 dies inside the second chunk's write envelope, which asks
        // the held write session (the first chunk's waves collected the
        // quorums, and a member lost there would simply be substituted):
        // chunk one ticks 4 lookups + 4 inserts, chunk two 4 lookups, so a
        // fuse of 14 fires on its second insert — after the versions were
        // assigned and after member 1 (fanned out concurrently) may have
        // applied the whole envelope.
        s.set_bulk_chunk(4);
        fuses[0].store(14, Ordering::SeqCst);
        let entries: Vec<(Key, Value)> = (0..8).map(|i| (k(&format!("n{i}")), val("v"))).collect();
        let out = s.insert_many(&entries).unwrap();
        // Every key landed exactly once, at the version assigned before the
        // failure — a write re-applied from a fresh discovery would show
        // version 2 (its lookup would now find the entry present).
        assert_eq!(out.versions, vec![Version::new(1); 8]);
        for (key, _) in &entries {
            let got = s.lookup(key).unwrap();
            assert!(got.present, "{key:?} lost");
            assert_eq!(got.version, Version::new(1), "{key:?} double-applied");
        }
        let snap = s.obs().snapshot();
        assert!(snap.counter("suite.session.revalidate") >= 1);
        assert_eq!(snap.counter("suite.bulk.resumed"), 1);
    }

    #[test]
    fn mid_batch_delete_failure_resumes_without_false_not_found() {
        use std::sync::atomic::Ordering;
        let (mut s, fuses) = fused_suite();
        // Member 0 dies as the first group's coalesce reaches it. Wave A
        // plans all three keys (9 ticks, carried by the read collection);
        // "b" overlaps "a", so "a" is a group of its own: two probes, then
        // the twelfth request is its coalesce — which member 1 applies, so
        // the key is left half-coalesced under the held sessions.
        fuses[0].store(12, Ordering::SeqCst);
        let keys = [k("a"), k("b"), k("c")];
        s.delete_many(&keys).unwrap();
        for key in &keys {
            assert!(!s.lookup(key).unwrap().present, "{key:?} survived");
        }
        let listed = s.scan().unwrap();
        assert_eq!(
            listed
                .iter()
                .map(|(u, _)| u.to_string())
                .collect::<Vec<_>>(),
            vec!["d", "e", "f"],
            "only the batch was deleted"
        );
        let snap = s.obs().snapshot();
        assert!(snap.counter("suite.session.revalidate") >= 1);
        assert!(snap.counter("suite.bulk.resumed") >= 1);
    }

    /// Forwards to a [`LocalRep`] but panics on the first data RPC after
    /// being armed — the fault-injection client for the session-scope
    /// unwind-safety regression test.
    struct PanicsOnLookup {
        inner: LocalRep,
        armed: std::sync::atomic::AtomicBool,
    }

    impl PanicsOnLookup {
        fn arm(&self) {
            self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl RepClient for PanicsOnLookup {
        fn id(&self) -> RepId {
            self.inner.id()
        }
        fn execute(&self, req: RepRequest<'_>) -> RepResult<RepReply> {
            match req {
                RepRequest::Batch(parts) => return self.execute_parts(parts),
                RepRequest::Lookup(_)
                    if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) =>
                {
                    panic!("injected fault: representative panicked mid-lookup")
                }
                _ => {}
            }
            self.inner.execute(req)
        }
    }

    #[test]
    fn panicking_client_propagates_and_does_not_leak_the_session_scope() {
        // An in-process client completes inline, so its panic unwinds
        // through the coordinator's own frames, whatever the window — it is
        // a bug in this process, not a member failure, and is not swallowed.
        // Regression: the old session_begin/session_end pair leaked
        // session_depth when the body unwound, pinning a stale quorum
        // session for the suite's lifetime. The RAII scope guard must
        // restore depth and clear sessions on panic.
        for fanout in [true, false] {
            let clients: Vec<PanicsOnLookup> = (0..3)
                .map(|i| PanicsOnLookup {
                    inner: LocalRep::new(RepId(i)),
                    armed: std::sync::atomic::AtomicBool::new(false),
                })
                .collect();
            let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
            let mut s = DirSuite::new(clients, cfg, fixed(&[0, 1, 2])).unwrap();
            s.set_fanout(fanout);
            s.insert(&k("a"), &val("A")).unwrap();
            s.member(0).arm();
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = s.scan();
            }))
            .is_err();
            assert!(unwound, "the armed client must have panicked");
            assert!(s.session(QuorumKind::Read).is_none());
            assert!(s.session(QuorumKind::Write).is_none());
            // A leaked depth would make this ordinary lookup pin its quorum
            // as a session; a balanced scope leaves nothing behind.
            s.lookup(&k("a")).unwrap();
            assert!(
                s.session(QuorumKind::Read).is_none(),
                "session depth leaked through the unwind"
            );
            // The request that never got an answer was scored unavailable
            // when its abandoned completion was harvested.
            let rate = s.member_avails()[0].rate().expect("member 0 was sampled");
            assert!(rate < 1.0, "fanout={fanout}: {rate}");
            // And the suite still answers correctly afterwards.
            let listed = s.scan().unwrap();
            assert_eq!(listed.len(), 1);
        }
    }

    #[test]
    fn failed_member_ewma_is_penalized_so_latency_policy_demotes_it() {
        // Regression: a dead member kept its stale fast reply-time EWMA, so
        // LatencyPolicy kept ordering it first and every collection burned a
        // request on the corpse. A failed RPC (or ping miss) now records a
        // penalty sample, demoting the member below any live one.
        let mut s = suite_322(77);
        let policy = s.latency_policy();
        s.set_policy(Box::new(policy));
        s.insert(&k("a"), &val("A")).unwrap();
        // Unsampled members sort first, so a few lookups sample all three.
        for _ in 0..6 {
            s.lookup(&k("a")).unwrap();
        }
        let favorite = s.lookup(&k("a")).unwrap().quorum[0];
        let dead = favorite.0 as usize;
        s.member(dead).set_available(false);
        // Discovery: the stale-fast favorite is asked once more, misses,
        // and its EWMA takes the failure penalty.
        let asked = |s: &DirSuite<LocalRep>| s.message_counts()[dead] + s.ping_counts()[dead];
        s.lookup(&k("a")).unwrap();
        let asked_after_discovery = asked(&s);
        for _ in 0..8 {
            assert!(s.lookup(&k("a")).unwrap().present);
        }
        assert_eq!(
            asked(&s),
            asked_after_discovery,
            "a penalized member must sort behind the live ones and not be \
             asked on every collection"
        );
    }

    #[test]
    fn in_process_runs_random_quorums_consistently() {
        // Smoke-test the random policy end to end: a mixed workload where
        // the suite must agree with a sequential model.
        use std::collections::BTreeMap;
        let mut model: BTreeMap<String, String> = BTreeMap::new();
        let mut s = suite_322(123);
        let keys = ["a", "b", "c", "d", "e", "f"];
        let mut rng = crate::rng::SplitMix64::new(99);
        for step in 0..400 {
            let key = keys[rng.next_below(keys.len() as u64) as usize];
            let kk = k(key);
            match rng.next_below(3) {
                0 => {
                    let vv = format!("v{step}");
                    if model.contains_key(key) {
                        s.update(&kk, &val(&vv)).unwrap();
                        model.insert(key.into(), vv);
                    } else {
                        s.insert(&kk, &val(&vv)).unwrap();
                        model.insert(key.into(), vv);
                    }
                }
                1 => {
                    if model.remove(key).is_some() {
                        s.delete(&kk).unwrap();
                    } else {
                        assert!(matches!(s.delete(&kk), Err(SuiteError::NotFound { .. })));
                    }
                }
                _ => {
                    let out = s.lookup(&kk).unwrap();
                    assert_eq!(out.present, model.contains_key(key), "step {step}");
                    if out.present {
                        assert_eq!(
                            out.value.as_ref().unwrap().as_bytes(),
                            model[key].as_bytes()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stale_vote_observed_when_read_quorum_straddles_the_write() {
        let mut s = suite_322(61);
        let registry = Registry::new();
        s.set_obs_registry(registry.clone());
        // Write lands on members {0, 1}; the read quorum {1, 2} includes
        // member 2, which never saw the insert.
        s.set_policy(fixed(&[0, 1]));
        s.insert(&k("b"), &val("B")).unwrap();
        s.set_policy(fixed(&[1, 2]));
        let out = s.lookup(&k("b")).unwrap();
        assert!(out.present);
        assert_eq!(out.version, Version::new(1));
        let votes = s.take_stale_votes();
        assert_eq!(
            votes,
            vec![StaleVote {
                member: 2,
                key: k("b"),
                seen: Version::ZERO,
                latest: Version::new(1),
            }]
        );
        assert_eq!(registry.counter("repair.stale_votes_observed").get(), 1);
        // Drained: a second drain without new reads yields nothing.
        assert!(s.take_stale_votes().is_empty());
        // A fresh read re-observes the still-stale member.
        s.lookup(&k("b")).unwrap();
        assert_eq!(s.take_stale_votes().len(), 1);
    }

    #[test]
    fn repeated_stale_reads_coalesce_to_one_queued_vote() {
        // Regression: repeated lookups of the same stale key used to queue
        // one StaleVote per read, so the repair layer issued one redundant
        // bucket pull per read. The queue must coalesce per (member, key),
        // keeping the latest observation.
        let mut s = suite_322(66);
        let registry = Registry::new();
        s.set_obs_registry(registry.clone());
        s.set_policy(fixed(&[0, 1]));
        s.insert(&k("b"), &val("B")).unwrap();
        s.set_policy(fixed(&[1, 2]));
        for _ in 0..5 {
            s.lookup(&k("b")).unwrap();
        }
        // Every observation is counted, but the queue holds one vote.
        assert_eq!(registry.counter("repair.stale_votes_observed").get(), 5);
        let votes = s.take_stale_votes();
        assert_eq!(
            votes,
            vec![StaleVote {
                member: 2,
                key: k("b"),
                seen: Version::ZERO,
                latest: Version::new(1),
            }]
        );
        // The member falls further behind; the coalesced vote must carry
        // the *latest* winner, not the first one observed.
        s.set_policy(fixed(&[0, 1]));
        s.update(&k("b"), &val("B2")).unwrap();
        s.set_policy(fixed(&[1, 2]));
        s.lookup(&k("b")).unwrap();
        s.set_policy(fixed(&[0, 1]));
        s.update(&k("b"), &val("B3")).unwrap();
        s.set_policy(fixed(&[1, 2]));
        s.lookup(&k("b")).unwrap();
        let votes = s.take_stale_votes();
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].latest, Version::new(3));
    }

    #[test]
    fn stale_votes_route_to_a_shared_sink_and_wake_the_member() {
        let mut s = suite_322(67);
        s.set_policy(fixed(&[0, 1]));
        s.insert(&k("b"), &val("B")).unwrap();
        let queue = Arc::new(StaleVoteQueue::new());
        let woken = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let count = Arc::clone(&woken);
        queue.set_waker(
            2,
            Some(Box::new(move || {
                count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            })),
        );
        s.set_stale_vote_sink(Some(Arc::clone(&queue)));
        s.set_policy(fixed(&[1, 2]));
        for _ in 0..3 {
            s.lookup(&k("b")).unwrap();
        }
        // Votes bypass the local queue and land (coalesced) in the sink; the
        // repeats say nothing new, so the stale member is woken once.
        assert!(s.take_stale_votes().is_empty());
        assert_eq!(woken.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(queue.drain_member(0).is_empty());
        let votes = queue.drain_member(2);
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].key, k("b"));
        assert!(queue.is_empty());
        // Uninstalling the sink restores the suite-local queue.
        s.set_stale_vote_sink(None);
        s.lookup(&k("b")).unwrap();
        assert_eq!(s.take_stale_votes().len(), 1);
        assert!(queue.is_empty());
    }

    #[test]
    fn stale_vote_queue_coalesces_and_drains_per_member() {
        let queue = StaleVoteQueue::new();
        let vote = |member: usize, key: &str, latest: u64| StaleVote {
            member,
            key: k(key),
            seen: Version::ZERO,
            latest: Version::new(latest),
        };
        queue.push(vote(0, "a", 1));
        queue.push(vote(1, "a", 1));
        queue.push(vote(0, "b", 2));
        queue.push(vote(0, "a", 5)); // coalesces with (0, "a"), keeps latest
        assert_eq!(queue.len(), 3);
        let m0 = queue.drain_member(0);
        assert_eq!(m0.len(), 2);
        assert_eq!(m0[0].key, k("a"));
        assert_eq!(m0[0].latest, Version::new(5));
        assert_eq!(m0[1].key, k("b"));
        assert_eq!(queue.drain_all(), vec![vote(1, "a", 1)]);
        assert!(queue.is_empty());
    }

    #[test]
    fn stale_vote_queue_spills_and_wakes_once_per_new_observation() {
        // An observation the queue already holds costs nothing: no spill
        // (a WAL sync at the stale member), no wake-up. A newer `latest`
        // for the same (member, key) is news again, spilled before it is
        // queued before the waker fires.
        let queue = Arc::new(StaleVoteQueue::new());
        let log = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let (spilled, seen) = (Arc::clone(&log), Arc::clone(&queue));
        queue.set_spill(Some(Box::new(move |vote| {
            spilled.lock().push(("spill", vote.latest, seen.len()));
        })));
        let (woken, seen) = (Arc::clone(&log), Arc::clone(&queue));
        queue.set_waker(
            1,
            Some(Box::new(move || {
                woken.lock().push(("wake", Version::ZERO, seen.len()));
            })),
        );
        let observed = |latest: u64| StaleVote {
            member: 1,
            key: k("a"),
            seen: Version::ZERO,
            latest: Version::new(latest),
        };
        for _ in 0..4 {
            queue.push(observed(2));
        }
        queue.push(observed(3));
        queue.push(observed(3));
        assert_eq!(
            *log.lock(),
            vec![
                ("spill", Version::new(2), 0),
                ("wake", Version::ZERO, 1),
                ("spill", Version::new(3), 1),
                ("wake", Version::ZERO, 1),
            ]
        );
        assert_eq!(queue.drain_all(), vec![observed(3)]);
        // Drained: the same observation is news to the queue again.
        queue.push(observed(3));
        assert_eq!(log.lock().len(), 6);
        // A waker installed over a backlog fires at once — repeats of what
        // is queued would never rouse it.
        let late = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let count = Arc::clone(&late);
        let waker: VoteWaker = Box::new(move || {
            count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        queue.set_waker(1, Some(waker));
        assert_eq!(late.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn stale_votes_coalesce_through_an_index_in_observation_order() {
        // Oldest first per (member, key), the newer observation replacing
        // the older in place — and the slot is found through an index: a
        // scan over a lagging member notes one vote per entry, which a
        // list search made quadratic.
        let vote = |member: usize, key: &Key, latest: u64| StaleVote {
            member,
            key: key.clone(),
            seen: Version::ZERO,
            latest: Version::new(latest),
        };
        let keys: Vec<Key> = (0..10_000).map(|i| k(&format!("k{i:05}"))).collect();
        let started = std::time::Instant::now();
        let queue = StaleVoteQueue::new();
        let mut s = suite_322(70);
        for round in 1..=2 {
            for key in &keys {
                queue.push(vote(2, key, round));
                queue.restore(vote(0, key, round));
                s.note_stale_votes(key, Version::new(round), [(2, Version::ZERO)]);
            }
        }
        let local = s.take_stale_votes();
        assert_eq!(queue.len(), 20_000);
        let drained = queue.drain_member(2);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{:?}",
            started.elapsed()
        );
        let expect: Vec<StaleVote> = keys.iter().map(|key| vote(2, key, 2)).collect();
        assert_eq!(drained, expect);
        assert_eq!(local, expect);
        // What stays behind keeps its order and its index.
        queue.push(vote(0, &keys[1], 3));
        queue.push(vote(0, &k("new"), 1));
        let rest = queue.drain_all();
        assert_eq!(rest.len(), 10_001);
        assert_eq!(rest[0], vote(0, &keys[0], 2));
        assert_eq!(rest[1], vote(0, &keys[1], 3));
        assert_eq!(rest[10_000], vote(0, &k("new"), 1));
    }

    #[test]
    fn stale_vote_detection_covers_the_hedged_read_path() {
        let mut s = suite_322(62);
        s.set_policy(fixed(&[0, 1]));
        s.insert(&k("b"), &val("B")).unwrap();
        s.set_policy(fixed(&[1, 2]));
        s.set_hedge(true);
        s.set_hedge_delay(Some(Duration::from_millis(50)));
        let out = s.lookup(&k("b")).unwrap();
        assert!(out.present);
        let votes = s.take_stale_votes();
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].member, 2);
        assert_eq!(votes[0].latest, Version::new(1));
    }

    #[test]
    fn stale_vote_detection_covers_the_chain_resolved_neighbors_of_a_delete() {
        // The delete asks nobody `lookup(neighbour)`: the votes on each
        // candidate are read off the chain heads, and a member whose head
        // lies beyond the neighbour (it never saw the insert) is as stale
        // as if it had answered the lookup absent.
        let mut s = suite_322(63);
        s.set_policy(fixed(&[0, 1]));
        for key in ["a", "b", "c"] {
            s.insert(&k(key), &val(key)).unwrap();
        }
        s.set_policy(fixed(&[1, 2]));
        s.set_hedge(true);
        s.set_hedge_delay(Some(Duration::from_millis(50)));
        s.delete(&k("b")).unwrap();
        let mut votes = s.take_stale_votes();
        votes.sort_by(|x, y| x.key.cmp(&y.key));
        let stale = |key: &str| StaleVote {
            member: 2,
            key: k(key),
            seen: Version::ZERO,
            latest: Version::new(1),
        };
        assert_eq!(votes, vec![stale("a"), stale("b"), stale("c")]);
    }

    #[test]
    fn member_that_missed_once_is_carried_to_again_after_the_window_turns_over() {
        let mut s = suite_322(64);
        s.set_policy(fixed(&[0, 1, 2]));
        s.insert(&k("a"), &val("A")).unwrap();
        s.member(0).set_available(false);
        s.lookup(&k("a")).unwrap();
        s.member(0).set_available(true);
        // The prefix names a member with a recorded miss: ping first,
        // over-provisioned around it.
        s.reset_message_counts();
        s.lookup(&k("a")).unwrap();
        assert_eq!(s.ping_counts(), vec![1, 1, 1]);
        // One window of successes later the miss has decayed away and the
        // collection rides the lookup again.
        for _ in 0..repdir_obs::AVAIL_WINDOW {
            s.lookup(&k("a")).unwrap();
        }
        let pings = s.ping_counts();
        for _ in 0..4 {
            s.lookup(&k("a")).unwrap();
        }
        assert_eq!(s.ping_counts(), pings, "still pinging first");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "an empty envelope cannot stand for a vote")]
    fn empty_envelope_is_never_carried_by_a_collection() {
        let mut s = suite_322(65);
        let _ = s.collect_quorum(QuorumKind::Read, None, Some(RepRequest::Batch(&[])));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "an empty envelope cannot be scattered")]
    fn empty_envelope_is_never_scattered() {
        let mut s = suite_322(65);
        let _ = s.scatter(&[0, 1], |_| RepRequest::Batch(&[]));
    }

    #[test]
    fn set_repair_false_disables_stale_vote_tracking() {
        let mut s = suite_322(63);
        assert!(s.repair_enabled());
        s.set_policy(fixed(&[0, 1]));
        s.insert(&k("b"), &val("B")).unwrap();
        s.set_policy(fixed(&[1, 2]));
        s.lookup(&k("b")).unwrap();
        assert_eq!(s.take_stale_votes().len(), 1);
        s.set_repair(false);
        assert!(!s.repair_enabled());
        s.lookup(&k("b")).unwrap();
        assert!(s.take_stale_votes().is_empty());
        // Re-arming drops nothing that was observed while disarmed.
        s.set_repair(true);
        assert!(s.take_stale_votes().is_empty());
    }

    #[test]
    fn equal_version_votes_are_not_stale() {
        let mut s = suite_322(64);
        s.insert(&k("b"), &val("B")).unwrap();
        // Every member saw the write (write quorum 2 of 3, then read the
        // same members via the fixed policy).
        s.set_policy(fixed(&[0, 1, 2]));
        for _ in 0..5 {
            s.lookup(&k("b")).unwrap();
        }
        // Reads may straddle the original write quorum, so filter to votes
        // that matched the winner exactly: none of those may be queued.
        for v in s.take_stale_votes() {
            assert!(v.seen < v.latest, "non-stale vote queued: {v:?}");
        }
    }

    #[test]
    fn penalty_sample_is_tunable() {
        let mut s = suite_322(65);
        s.set_policy(fixed(&[0, 1, 2]));
        s.set_penalty_sample(Duration::from_millis(5));
        s.member(0).set_available(false);
        // Member 0 misses the carried lookup; its EWMA takes the custom 5 ms
        // penalty, not the 1 s default.
        s.lookup(&k("x")).unwrap();
        let ewma = s.member_reply_ewmas()[0].value_us().unwrap();
        assert!(
            ewma < 100_000.0,
            "penalty sample not applied: EWMA {ewma} µs"
        );
        // The tunable survives a registry rebind.
        s.set_obs_registry(Registry::new());
        s.member(1).set_available(false);
        s.member(0).set_available(true);
        s.lookup(&k("x")).unwrap();
        let ewma = s.member_reply_ewmas()[1].value_us().unwrap();
        assert!(
            ewma < 100_000.0,
            "penalty sample lost on registry rebind: EWMA {ewma} µs"
        );
    }
}
