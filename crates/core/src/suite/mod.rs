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
//!
//! This file holds the suite's state and configuration; the operations live
//! beside it by concern: `collect` gathers quorums and holds them as
//! sessions, `point` is lookup/insert/update, `walk` the Fig. 12 walk, the
//! neighbour searches and the scan, `delete` and `ingest` the Fig. 13 delete
//! and the bulk insert, `votes` stale-vote detection, and `wave` the
//! executor every member request goes through.

mod collect;
mod config;
mod delete;
mod ingest;
mod point;
pub mod quorum;
mod set;
mod testkit;
mod votes;
mod walk;
mod wave;

pub use collect::QuorumSession;
pub use config::SuiteConfig;
pub use quorum::{FixedPolicy, LocalityPolicy, QuorumPolicy, RandomPolicy, StickyPolicy};
pub use set::DirSet;
pub use votes::{StaleVote, StaleVoteQueue, VoteSpill, VoteWaker};

use crate::error::{ConfigError, RepError, SuiteError};
use crate::gapmap::LookupReply;
use crate::key::Key;
use crate::rep::{LocalRep, RepClient, RepId};
use crate::value::Value;
use crate::version::Version;
use std::sync::{Arc, OnceLock};

use repdir_obs::{Avail, Counter, Registry};
use wave::Executor;

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

/// Per-suite observability handles, recorded through lock-free atomics on
/// the hot path. A suite builds them unnamed, in a fresh [`Registry`] of its
/// own — per-member counters stay exact even when many suites (or parallel
/// tests) run in one process — and registers them under their names only
/// when [`DirSuite::obs`] first reads that registry, so a transaction that
/// never reads its metrics never pays for naming them.
struct SuiteObs {
    registry: Registry,
    /// Set once [`publish`](SuiteObs::publish) has registered every handle
    /// below under its name in `registry`.
    named: OnceLock<()>,
    /// Data RPCs per member (`suite.member.{i}.msgs`) — the paper's §4
    /// message-count statistic, formerly the ad-hoc `msg_counts` vector.
    msgs: Vec<Counter>,
    /// Quorum-collection pings per member (`suite.member.{i}.pings`).
    pings: Vec<Counter>,
    /// Windowed success rate per member (`suite.member.{i}.avail`), fed by
    /// every ping and data RPC outcome; pinged waves are provisioned by it.
    avail: Vec<Avail>,
    /// Collection waves issued by `collect_quorum`, carried or pinged
    /// (`suite.quorum.waves`).
    waves: Counter,
    /// Every wave the executor opened, collection or not (`suite.rounds`).
    rounds: Counter,
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

/// Span ring capacity of a suite's own registry: a transaction records a
/// few spans per operation, and every operation is a transaction of its
/// own in the in-process and remote directories.
const SUITE_SPAN_CAPACITY: usize = 64;

/// The names of `SuiteObs`'s nine scalar counters, in field order.
const SCALAR_NAMES: [&str; 9] = [
    "suite.quorum.waves",
    "suite.rounds",
    "suite.quorum.sticky_miss",
    "suite.session.reuse",
    "suite.session.revalidate",
    "suite.bulk.ops",
    "suite.bulk.keys",
    "suite.bulk.resumed",
    "repair.stale_votes_observed",
];

/// The name of member `i`'s `kind` metric: `suite.member.{i}.{kind}`.
fn member_metric(i: usize, kind: &str) -> String {
    format!("suite.member.{i}.{kind}")
}

impl SuiteObs {
    /// Fresh, unnamed handles for `n` members in a registry of the suite's
    /// own; nothing is looked up or formatted.
    fn unnamed(n: usize) -> Self {
        let [
            waves, rounds, sticky_miss, session_reuse, session_revalidate,
            bulk_ops, bulk_keys, bulk_resumed, stale_votes,
        ]: [Counter; 9] = Default::default();
        SuiteObs {
            registry: Registry::with_span_capacity(SUITE_SPAN_CAPACITY),
            named: OnceLock::new(),
            msgs: (0..n).map(|_| Counter::new()).collect(),
            pings: (0..n).map(|_| Counter::new()).collect(),
            avail: (0..n).map(|_| Avail::new()).collect(),
            waves,
            rounds,
            sticky_miss,
            session_reuse,
            session_revalidate,
            bulk_ops,
            bulk_keys,
            bulk_resumed,
            stale_votes,
        }
    }

    /// The registry, with every handle registered under its name the first
    /// time it is read; later reads register nothing.
    fn registry(&self) -> &Registry {
        self.named.get_or_init(|| self.publish());
        &self.registry
    }

    /// Registers every handle under its name in the suite's own registry.
    fn publish(&self) {
        let registry = &self.registry;
        for i in 0..self.msgs.len() {
            registry.register_counter(&member_metric(i, "msgs"), &self.msgs[i]);
            registry.register_counter(&member_metric(i, "pings"), &self.pings[i]);
            registry.register_avail(&member_metric(i, "avail"), &self.avail[i]);
        }
        let scalars = [
            &self.waves,
            &self.rounds,
            &self.sticky_miss,
            &self.session_reuse,
            &self.session_revalidate,
            &self.bulk_ops,
            &self.bulk_keys,
            &self.bulk_resumed,
            &self.stale_votes,
        ];
        for (name, counter) in SCALAR_NAMES.into_iter().zip(scalars) {
            registry.register_counter(name, counter);
        }
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
    /// The read (`QuorumKind::Read` = slot 0) and write (slot 1) session
    /// quorums currently held by an in-flight bulk operation.
    sessions: [Option<QuorumSession>; 2],
    /// Nesting depth of bulk-operation scopes; sessions are dropped when it
    /// returns to zero so no quorum outlives the operation that pinned it.
    session_depth: u32,
    /// Where stale votes observed by quorum reads are queued: a fresh
    /// queue of the suite's own, or one shared with background repair
    /// drivers ([`set_stale_vote_sink`](DirSuite::set_stale_vote_sink)).
    stale_votes: Arc<StaleVoteQueue>,
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
        Ok(DirSuite {
            members,
            config,
            policy,
            write_through_weak: false,
            neighbor_batch: 1,
            bulk_chunk: 64,
            sessions: [None, None],
            session_depth: 0,
            stale_votes: Arc::new(StaleVoteQueue::new()),
            obs: SuiteObs::unnamed(n),
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
    /// or to switch from random to sticky selection mid-run).
    pub fn set_policy(&mut self, policy: Box<dyn QuorumPolicy + Send>) {
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
    /// availability trackers, quorum wave counters, and the spans recorded
    /// by every operation. Fresh per suite; it holds only spans until this
    /// is first called, which registers every metric under its name, live
    /// values included.
    pub fn obs(&self) -> &Registry {
        self.obs.registry()
    }

    /// Clones of the per-member availability handles
    /// (`suite.member.{i}.avail`), in member order: windowed success rates
    /// fed by every ping and data RPC outcome.
    pub fn member_avails(&self) -> Vec<Avail> {
        self.obs.avail.clone()
    }

    fn require_user_key(&self, key: &Key) -> Result<(), SuiteError> {
        if key.is_sentinel() {
            Err(SuiteError::SentinelKey { key: key.clone() })
        } else {
            Ok(())
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

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

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
    fn construction_and_operations_name_no_metric() {
        // Naming 3n + 9 metrics used to cost more than the quorum work of a
        // transaction's lookup. Until `obs()` is read, the suite's registry
        // holds spans only.
        let mut s = suite_322(13);
        s.insert(&k("a"), &val("A")).unwrap();
        assert!(s.lookup(&k("a")).unwrap().present);
        let snap = s.obs.registry.snapshot();
        assert_eq!(snap.counters().len(), 0, "{:?}", snap.counters());
        assert_eq!(snap.avails().len(), 0, "{:?}", snap.avails());
        assert!(s.message_counts().iter().sum::<u64>() > 0);
    }

    #[test]
    fn first_obs_read_names_the_live_handles_once() {
        // Member 2 misses the insert, so the lookup through {1, 2} sees it
        // vote stale.
        let mut s = suite_322(14);
        s.set_policy(fixed(&[0, 1]));
        s.insert(&k("b"), &val("B")).unwrap();
        s.set_policy(fixed(&[1, 2]));
        s.lookup(&k("b")).unwrap();

        let snap = s.obs().snapshot();
        assert_eq!(snap.counters().len(), 2 * 3 + 9);
        assert_eq!(snap.avails().len(), 3);
        let (msgs, avails) = (s.message_counts(), s.member_avails());
        for i in 0..3 {
            let name = |kind| format!("suite.member.{i}.{kind}");
            assert_eq!(snap.counter(&name("msgs")), msgs[i]);
            assert_eq!(snap.avail(&name("avail")), avails[i].rate());
            assert!(snap.avail(&name("avail")).is_some());
        }
        assert_eq!(snap.counter("repair.stale_votes_observed"), 1);
        assert_eq!(snap.counter("suite.rounds"), 3);

        // A second read neither resets nor duplicates, and the named
        // handles are the ones the suite keeps recording through.
        assert_eq!(s.obs().snapshot(), snap);
        s.lookup(&k("b")).unwrap();
        let again = s.obs().snapshot();
        assert_eq!(again.counters().len(), 2 * 3 + 9);
        assert_eq!(again.counter("repair.stale_votes_observed"), 2);
        assert_eq!(again.counter("suite.member.2.msgs"), msgs[2] + 1);
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
    #[should_panic(expected = "at least 1")]
    fn zero_neighbor_batch_rejected() {
        let mut s = suite_322(0);
        s.set_neighbor_batch(0);
    }
}
