//! The repair loop: root-down summary walks, range pulls, plan apply.
//!
//! A [`Repairer`] owns one local [`RepairTarget`] and a set of
//! [`RepairPeer`]s. One *round* against one peer compares the summary tree
//! root-down — one 16-digest exchange per level, descending only into
//! mismatched subtrees — then pulls each maximal run of mismatched buckets
//! as one key interval, merges it with the local view ([`diff_bucket`]) and
//! applies the resulting plan. An in-sync pair settles a round after a
//! single summary exchange; a pair differing in `k` buckets that form `r`
//! runs costs `1 + groups(k)` summary exchanges plus at most `r` pulls —
//! more only where an interval holds over [`MAX_PULL_ENTRIES`] peer
//! entries — instead of shipping the whole directory.
//!
//! Every pulled interval is bounded by keys the *receiver* holds: its
//! predecessor of the run's lowest key and its successor of the run's
//! highest (or the sentinels). The plan's ghost removals and gap raises
//! coalesce the receiver's own neighbours, so with both ends local they
//! never stamp a version over a key the source reported and the receiver
//! lacks. A receiver missing keys past a run pulls a wider interval; the
//! later runs it reaches are then merged already and are not pulled again.
//! A reply that stops at the entry cap ends its step at its last entry,
//! installed in that step, so the step's upper end is a receiver key too.
//!
//! Repair is pull-based and one-directional: a round makes the *local*
//! representative at least as new as the peer, never the converse. Full
//! fleet convergence comes from every representative running its own
//! repairer (see `run_until_quiescent` and the suite-level convergence
//! test).

use std::fmt;
use std::sync::Arc;

use repdir_core::{Key, UserKey};
use repdir_obs::Registry;

use crate::merge::{diff_bucket, BucketView, RepairPlan};
use crate::summary::{bucket_high, Digest, FANOUT};

/// Why a repair step could not run. All variants are transient from the
/// repairer's perspective: the round is abandoned and retried later.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairError {
    /// The representative (local or peer) is marked unavailable.
    Unavailable,
    /// Lock contention or a transaction conflict; retry next round.
    Contended,
    /// Transport failure or a malformed reply.
    Protocol(String),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::Unavailable => write!(f, "representative unavailable"),
            RepairError::Contended => write!(f, "lock contention during repair"),
            RepairError::Protocol(msg) => write!(f, "repair protocol error: {msg}"),
        }
    }
}

impl std::error::Error for RepairError {}

/// A remote representative as seen by the repairer: read-only summary and
/// range endpoints. Implementations live in `repdir-replica` (in-process
/// and RPC-backed).
pub trait RepairPeer: Send + Sync {
    /// Digests of one summary-tree level (see `SummaryCache::children`).
    fn summary(&self, level: u8, path: u8) -> Result<Vec<Digest>, RepairError>;
    /// The peer's view of the open interval `(after, before)`: the gap
    /// above `after` and the lowest [`MAX_PULL_ENTRIES`] entries strictly
    /// inside, each with the gap above it. A reply with fewer entries is
    /// the whole interval; a full one may stop short of `before`.
    fn pull_range(&self, after: &Key, before: &Key) -> Result<BucketView, RepairError>;
}

/// The local representative being repaired.
pub trait RepairTarget: Send + Sync {
    /// Digests of one summary-tree level of the local state.
    fn children(&self, level: u8, path: u8) -> Result<Vec<Digest>, RepairError>;
    /// The open interval around summary buckets `first..=last` whose ends
    /// are keys the target holds: its predecessor of the run's lowest key
    /// (`LOW` for bucket 0) and its lowest key above the run (`HIGH` past
    /// bucket 255).
    fn span(&self, first: u8, last: u8) -> Result<(Key, Key), RepairError>;
    /// The local view of the open interval `(after, before)`.
    fn range(&self, after: &Key, before: &Key) -> Result<BucketView, RepairError>;
    /// Applies a plan at its pinned versions. Implementations must guard
    /// each step against concurrent progress (only ever move versions up),
    /// skip any ghost removal or gap raise whose current neighbours lie
    /// outside the plan's interval, and report what actually changed.
    fn apply(&self, plan: &RepairPlan) -> Result<ApplyStats, RepairError>;
    /// Lands a durable checkpoint of the current state, if the target
    /// supports one. The driver calls this when a sweep finds its member
    /// level after repairs, so recovery replays the caught-up state (and
    /// retired stale-vote spills drop out of the log); failures are
    /// non-fatal — the default does nothing.
    fn checkpoint(&self) -> Result<(), RepairError> {
        Ok(())
    }
}

/// What an apply pass actually changed (guarded steps that were already
/// superseded by concurrent progress are not counted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyStats {
    pub installed: u64,
    pub ghosts_removed: u64,
    pub gaps_raised: u64,
    /// Ghost removals and gap raises skipped because a neighbour they would
    /// coalesce to had moved outside the plan's interval (a concurrent
    /// local delete); a later round re-plans them.
    pub out_of_span: u64,
}

impl ApplyStats {
    /// Steps that changed the state.
    pub fn total(&self) -> u64 {
        self.installed + self.ghosts_removed + self.gaps_raised
    }

    pub fn absorb(&mut self, other: ApplyStats) {
        self.installed += other.installed;
        self.ghosts_removed += other.ghosts_removed;
        self.gaps_raised += other.gaps_raised;
        self.out_of_span += other.out_of_span;
    }
}

/// Cost and effect of one or more repair rounds or pulls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Summary levels fetched (root + descended groups).
    pub summaries: u64,
    /// Buckets whose digests mismatched in the walk.
    pub mismatched_buckets: u64,
    /// Range pulls that completed.
    pub pulls: u64,
    /// Mismatched buckets whose interval was merged in full, including
    /// those an earlier, wider interval of the round reached.
    pub buckets_pulled: u64,
    /// Entries received across all pulls.
    pub keys_pulled: u64,
    /// Approximate payload bytes exchanged.
    pub bytes: u64,
    /// Walks or pulls that failed with a transient error.
    pub errors: u64,
    /// What the applies changed.
    pub applied: ApplyStats,
}

impl RoundStats {
    pub fn absorb(&mut self, other: RoundStats) {
        self.summaries += other.summaries;
        self.mismatched_buckets += other.mismatched_buckets;
        self.pulls += other.pulls;
        self.buckets_pulled += other.buckets_pulled;
        self.keys_pulled += other.keys_pulled;
        self.bytes += other.bytes;
        self.errors += other.errors;
        self.applied.absorb(other.applied);
    }
}

/// Outcome of [`Repairer::run_until_quiescent`].
#[derive(Clone, Copy, Debug, Default)]
pub struct QuiesceStats {
    /// Sweeps executed (one round per peer each).
    pub sweeps: u64,
    /// Whether the last sweep was error-free and changed nothing.
    pub quiescent: bool,
    /// Accumulated cost/effect over every sweep.
    pub total: RoundStats,
}

const SUMMARY_WIRE_BYTES: u64 = 2 + FANOUT as u64 * 16;

/// Most entries one range-pull reply carries (see
/// [`RepairPeer::pull_range`]).
pub const MAX_PULL_ENTRIES: usize = 512;

/// Whether every key of bucket `b` lies below `before`.
fn bucket_below(b: u8, before: &Key) -> bool {
    match bucket_high(b) {
        Some(high) => Key::User(UserKey::new(high)) <= *before,
        None => *before == Key::High,
    }
}

/// Drives anti-entropy for one representative against a set of peers.
pub struct Repairer {
    target: Arc<dyn RepairTarget>,
    peers: Vec<Box<dyn RepairPeer>>,
    registry: Registry,
}

impl Repairer {
    pub fn new(target: Arc<dyn RepairTarget>, peers: Vec<Box<dyn RepairPeer>>) -> Self {
        Repairer {
            target,
            peers,
            registry: Registry::new(),
        }
    }

    /// This repairer's own `repair.*` metrics, shared with the driver
    /// that runs it.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    fn peer(&self, peer_idx: usize) -> Result<&dyn RepairPeer, RepairError> {
        self.peers
            .get(peer_idx)
            .map(|p| p.as_ref())
            .ok_or_else(|| RepairError::Protocol(format!("no peer {peer_idx}")))
    }

    /// One full round against peer `peer_idx`: walk the summary tree
    /// root-down, then pull each run of mismatched buckets as one interval,
    /// merge and apply. Each interval is taken from local state after the
    /// previous pull applied, and a run the previous interval reached past
    /// is skipped. The round stops at the first failed pull: the next
    /// round's walk finds exactly the buckets still dirty, so nothing
    /// already applied is pulled again. Failures are counted in
    /// [`RoundStats::errors`].
    pub fn run_round(&self, peer_idx: usize) -> RoundStats {
        self.registry.counter("repair.rounds").inc();
        let mut stats = RoundStats::default();
        let result = self.peer(peer_idx).and_then(|peer| {
            let dirty = self.walk(peer, &mut stats)?;
            stats.mismatched_buckets = dirty.len() as u64;
            // Upper end of the last interval merged.
            let mut merged = Key::Low;
            let mut i = 0;
            while let Some(&first) = dirty.get(i) {
                i += 1;
                if bucket_below(first, &merged) {
                    stats.buckets_pulled += 1;
                    continue;
                }
                let mut last = first;
                while dirty
                    .get(i)
                    .is_some_and(|&b| Some(b) == last.checked_add(1))
                {
                    last = dirty[i];
                    i += 1;
                }
                merged = self.pull_run(peer, first, last, &mut stats)?;
            }
            Ok(())
        });
        if result.is_err() {
            self.registry.counter("repair.peer_errors").inc();
            stats.errors += 1;
        }
        stats
    }

    /// Walks the summary tree against `peer`: every bucket whose digest
    /// disagrees, ascending.
    fn walk(&self, peer: &dyn RepairPeer, stats: &mut RoundStats) -> Result<Vec<u8>, RepairError> {
        let mut dirty = Vec::new();
        for g in self.compare_level(peer, 0, 0, stats)? {
            for leaf in self.compare_level(peer, 1, g, stats)? {
                dirty.push(g * FANOUT as u8 + leaf);
            }
        }
        Ok(dirty)
    }

    /// Fetches one summary level from the peer and the target, returning
    /// the child indices whose digests disagree.
    fn compare_level(
        &self,
        peer: &dyn RepairPeer,
        level: u8,
        path: u8,
        stats: &mut RoundStats,
    ) -> Result<Vec<u8>, RepairError> {
        let remote = peer.summary(level, path)?;
        let local = self.target.children(level, path)?;
        stats.summaries += 1;
        stats.bytes += SUMMARY_WIRE_BYTES;
        self.registry.counter("repair.subtrees_walked").inc();
        if remote.len() != local.len() || remote.len() != FANOUT {
            return Err(RepairError::Protocol(format!(
                "summary level {level}/{path}: got {} digests, expected {FANOUT}",
                remote.len()
            )));
        }
        Ok((0..FANOUT as u8)
            .filter(|&i| remote[i as usize] != local[i as usize])
            .collect())
    }

    /// Pulls summary buckets `first..=last` from peer `peer_idx` as one
    /// interval bounded by local keys ([`RepairTarget::span`]), merges it
    /// with the local view and applies the plan. A stale vote calls this for
    /// the one bucket its key names, with no walk; a sweep pulls each run of
    /// dirty buckets the same way.
    pub fn pull_buckets(
        &self,
        peer_idx: usize,
        first: u8,
        last: u8,
    ) -> Result<RoundStats, RepairError> {
        let peer = self.peer(peer_idx)?;
        if first > last {
            return Err(RepairError::Protocol(format!(
                "no buckets {first}..={last}"
            )));
        }
        let mut stats = RoundStats::default();
        self.pull_run(peer, first, last, &mut stats)?;
        Ok(stats)
    }

    /// Merges the interval around buckets `first..=last` from `peer`, one
    /// step per reply, and returns its upper end. A reply at the entry cap
    /// is the peer's whole view up to its last entry: that entry ends the
    /// step, is installed in it, and starts the next one. Steps applied
    /// before an error stay applied and counted.
    fn pull_run(
        &self,
        peer: &dyn RepairPeer,
        first: u8,
        last: u8,
        stats: &mut RoundStats,
    ) -> Result<Key, RepairError> {
        let reg = &self.registry;
        let (mut after, before) = self.target.span(first, last)?;
        loop {
            let mut remote = peer.pull_range(&after, &before)?;
            let (keys, bytes) = (remote.entries.len() as u64, remote.wire_bytes());
            stats.pulls += 1;
            stats.keys_pulled += keys;
            stats.bytes += bytes;
            reg.counter("repair.pulls").inc();
            reg.counter("repair.keys_pulled").add(keys);
            reg.counter("repair.bytes").add(bytes);
            let cut = if remote.entries.len() >= MAX_PULL_ENTRIES {
                remote.entries.pop()
            } else {
                None
            };
            let end = match &cut {
                Some(e) => Key::User(e.key.clone()),
                None => before.clone(),
            };
            if end <= after || end > before {
                // A reply off the wire: never loop on one outside its range.
                return Err(RepairError::Protocol(
                    "range reply outside its interval".into(),
                ));
            }
            let local = self.target.range(&after, &end)?;
            let mut plan = diff_bucket(&after, &end, &local, &remote);
            if let Some(e) = cut {
                // Guarded like every install: a newer local version stays.
                plan.installs.push((e.key, e.version, e.value));
            }
            if !plan.is_empty() {
                let applied = self.target.apply(&plan)?;
                reg.counter("repair.out_of_span").add(applied.out_of_span);
                stats.applied.absorb(applied);
            }
            if end == before {
                stats.buckets_pulled += u64::from(last - first) + 1;
                return Ok(before);
            }
            after = end;
        }
    }

    /// Lands a durable checkpoint of the local representative.
    pub(crate) fn checkpoint(&self) -> Result<(), RepairError> {
        self.target.checkpoint()
    }

    /// One round against every peer. Transient per-peer errors are counted,
    /// not propagated — a down peer must not stall repair from the others.
    pub fn run_sweep(&self) -> RoundStats {
        let mut total = RoundStats::default();
        for idx in 0..self.peers.len() {
            total.absorb(self.run_round(idx));
        }
        total
    }

    /// Sweeps until a sweep is error-free and changes nothing locally
    /// (deterministic pulls: an unchanged state stays unchanged), or the
    /// cap is hit.
    pub fn run_until_quiescent(&self, max_sweeps: u64) -> QuiesceStats {
        let mut out = QuiesceStats::default();
        while out.sweeps < max_sweeps {
            let sweep = self.run_sweep();
            out.sweeps += 1;
            out.total.absorb(sweep);
            if sweep.errors == 0 && sweep.applied.total() == 0 {
                out.quiescent = true;
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Pacing, RepairDriver};
    use crate::merge::BucketEntry;
    use crate::summary::{bucket_high, bucket_low, entry_digest, low_gap_digest, SummaryCache};
    use repdir_core::{GapMap, UserKey, Value, Version};
    use std::sync::Mutex;
    use std::time::Duration;

    /// A toy representative over a bare `GapMap` — exercises the
    /// walk/pull/apply loop without locks or a log (the real adapters live
    /// in repdir-replica). Its apply realises steps the way the real one
    /// does: a ghost or a raise coalesces the current neighbours.
    struct MemRep {
        cache: SummaryCache,
        map: Mutex<GapMap>,
    }

    fn user(key: &[u8]) -> Key {
        Key::User(UserKey::new(key))
    }

    impl MemRep {
        fn new() -> Arc<Self> {
            Arc::new(MemRep {
                cache: SummaryCache::new(),
                map: Mutex::new(GapMap::new()),
            })
        }

        fn insert(&self, key: &[u8], version: u64) {
            let value = Value::new([key[0], version as u8]);
            self.map
                .lock()
                .unwrap()
                .insert(&user(key), Version::new(version), value)
                .unwrap();
            self.cache.mark_all();
        }

        /// Deletes `key` by coalescing its neighbours at `version`.
        fn delete(&self, key: &[u8], version: u64) {
            let mut map = self.map.lock().unwrap();
            let pred = map.predecessor(&user(key)).unwrap().key;
            let succ = map.successor(&user(key)).unwrap().key;
            map.coalesce(&pred, &succ, Version::new(version)).unwrap();
            self.cache.mark_all();
        }

        fn snapshot(&self) -> GapMap {
            self.map.lock().unwrap().clone()
        }

        fn digest_bucket(&self, b: u8) -> Digest {
            let map = self.map.lock().unwrap();
            let (low, high) = (bucket_low(b), bucket_high(b));
            let mut digest = Digest::default();
            map.range_scan(
                low.as_ref().map(|a| &a[..]),
                high.as_ref().map(|a| &a[..]),
                &mut |k, v, _, gap| {
                    digest.hash ^= entry_digest(k.as_bytes(), v, gap);
                    digest.count += 1;
                },
            );
            if b == 0 {
                digest.hash ^= low_gap_digest(map.low_gap());
            }
            digest
        }
    }

    impl RepairTarget for MemRep {
        fn children(&self, level: u8, path: u8) -> Result<Vec<Digest>, RepairError> {
            Ok(self
                .cache
                .children(level, path, &mut |b| self.digest_bucket(b)))
        }

        fn span(&self, first: u8, last: u8) -> Result<(Key, Key), RepairError> {
            let map = self.map.lock().unwrap();
            let after = match bucket_low(first) {
                None => Key::Low,
                Some(low) => map.predecessor(&user(&low)).unwrap().key,
            };
            let before = match bucket_high(last) {
                None => Key::High,
                Some(high) if map.contains(&user(&high)) => user(&high),
                Some(high) => map.successor(&user(&high)).unwrap().key,
            };
            Ok((after, before))
        }

        fn range(&self, after: &Key, before: &Key) -> Result<BucketView, RepairError> {
            let map = self.map.lock().unwrap();
            let mut view = BucketView {
                lead_gap: map.successor(after).unwrap().gap_version,
                entries: Vec::new(),
            };
            let low = match after {
                Key::User(u) => Some([u.as_bytes(), &[0]].concat()),
                _ => None,
            };
            let high = match before {
                Key::User(u) => Some(u.as_bytes()),
                _ => None,
            };
            map.range_scan(low.as_deref(), high, &mut |k, version, value, gap_after| {
                view.entries.push(BucketEntry {
                    key: k.clone(),
                    version,
                    value: value.clone(),
                    gap_after,
                });
            });
            Ok(view)
        }

        fn apply(&self, plan: &RepairPlan) -> Result<ApplyStats, RepairError> {
            let mut stats = ApplyStats::default();
            let mut map = self.map.lock().unwrap();
            let inside = |lo: &Key, hi: &Key| *lo >= plan.after && *hi <= plan.before;
            for (k, v, val) in &plan.installs {
                let reply = map.lookup(&Key::User(k.clone()));
                if reply.version() < *v || (!reply.is_present() && reply.version() == *v) {
                    map.insert(&Key::User(k.clone()), *v, val.clone()).unwrap();
                    stats.installed += 1;
                }
            }
            for (k, covering) in &plan.ghosts {
                let key = Key::User(k.clone());
                let reply = map.lookup(&key);
                if !reply.is_present() || reply.version() >= *covering {
                    continue;
                }
                let pred = map.predecessor(&key).unwrap();
                let succ = map.successor(&key).unwrap();
                if !inside(&pred.key, &succ.key) {
                    stats.out_of_span += 1;
                } else if pred.gap_version.max(succ.gap_version) <= *covering {
                    map.coalesce(&pred.key, &succ.key, *covering).unwrap();
                    stats.ghosts_removed += 1;
                }
            }
            for (anchor, to) in &plan.gap_raises {
                if *anchor != Key::Low && !map.lookup(anchor).is_present() {
                    continue;
                }
                let succ = map.successor(anchor).unwrap();
                if succ.gap_version >= *to {
                    continue;
                }
                if !inside(anchor, &succ.key) {
                    stats.out_of_span += 1;
                    continue;
                }
                map.coalesce(anchor, &succ.key, *to).unwrap();
                stats.gaps_raised += 1;
            }
            self.cache.mark_all();
            Ok(stats)
        }
    }

    impl RepairPeer for Arc<MemRep> {
        fn summary(&self, level: u8, path: u8) -> Result<Vec<Digest>, RepairError> {
            self.as_ref().children(level, path)
        }

        fn pull_range(&self, after: &Key, before: &Key) -> Result<BucketView, RepairError> {
            let mut view = self.as_ref().range(after, before)?;
            view.entries.truncate(MAX_PULL_ENTRIES);
            Ok(view)
        }
    }

    fn digests_equal(a: &MemRep, b: &MemRep) -> bool {
        a.children(0, 0).unwrap() == b.children(0, 0).unwrap()
    }

    #[test]
    fn in_sync_pair_settles_after_one_summary_exchange() {
        let a = MemRep::new();
        let b = MemRep::new();
        for rep in [&a, &b] {
            rep.insert(b"alpha", 3);
            rep.insert(b"beta", 5);
        }
        let repairer = Repairer::new(a.clone(), vec![Box::new(b.clone())]);
        let stats = repairer.run_round(0);
        assert_eq!(stats.summaries, 1);
        assert_eq!(stats.mismatched_buckets, 0);
        assert_eq!(stats.pulls, 0);
        assert_eq!(stats.applied.total(), 0);
    }

    #[test]
    fn walk_descends_only_into_mismatched_subtrees() {
        let a = MemRep::new();
        let b = MemRep::new();
        for rep in [&a, &b] {
            rep.insert(b"alpha", 3);
        }
        // One extra key on the peer, in one bucket.
        b.insert(b"zeta", 7);
        let repairer = Repairer::new(a.clone(), vec![Box::new(b.clone())]);
        let stats = repairer.run_round(0);
        // Root level + exactly one descended group, one pulled bucket.
        assert_eq!(stats.summaries, 2);
        assert_eq!(stats.mismatched_buckets, 1);
        assert_eq!((stats.pulls, stats.keys_pulled), (1, 1));
        assert_eq!(stats.applied.installed, 1);
        assert!(digests_equal(&a, &b));
        // Next round: fully settled again.
        let stats = repairer.run_round(0);
        assert_eq!(stats.summaries, 1);
        assert_eq!(stats.applied.total(), 0);
    }

    #[test]
    fn a_run_of_adjacent_dirty_buckets_is_one_pull() {
        let a = MemRep::new();
        let b = MemRep::new();
        for first in [b'c', b'd', b'e', b'x'] {
            b.insert(&[first, 1], 2);
        }
        let repairer = Repairer::new(a.clone(), vec![Box::new(b.clone())]);
        let stats = repairer.run_round(0);
        // 'c'..='e' is one run, 'x' another; the receiver is empty, so the
        // first interval is (LOW, HIGH), merges 'x' too, and 'x' is not
        // pulled again.
        assert_eq!(stats.mismatched_buckets, 4);
        assert_eq!((stats.pulls, stats.buckets_pulled), (1, 4));
        assert_eq!(stats.keys_pulled, 4);
        assert_eq!(stats.applied.installed, 4);
        assert_eq!(a.snapshot(), b.snapshot());
        // A receiver holding a key between the runs pulls them apart.
        let c = MemRep::new();
        c.insert(&[b'm', 1], 2);
        b.insert(&[b'm', 1], 2);
        let stats = Repairer::new(c.clone(), vec![Box::new(b.clone())]).run_round(0);
        assert_eq!((stats.pulls, stats.buckets_pulled), (2, 4));
        assert_eq!(stats.keys_pulled, 4);
        assert_eq!(c.snapshot(), b.snapshot());
    }

    /// Key `i` of a dense run over buckets 'a'..='d': 200 keys a bucket.
    fn dense(i: u16) -> [u8; 2] {
        [b'a' + (i / 200) as u8, (i % 200) as u8]
    }

    #[test]
    fn a_run_past_the_entry_cap_is_merged_in_capped_steps() {
        // An empty receiver: one run of 4 buckets, 800 entries.
        let a = MemRep::new();
        let b = MemRep::new();
        for i in 0..800 {
            b.insert(&dense(i), 3);
        }
        let repairer = Repairer::new(a.clone(), vec![Box::new(b.clone())]);
        let stats = repairer.run_round(0);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.mismatched_buckets, 4);
        // 512 + 288: the first step ends at the 512th key.
        assert_eq!((stats.pulls, stats.buckets_pulled), (2, 4));
        assert_eq!((stats.keys_pulled, stats.applied.installed), (800, 800));
        assert_eq!(a.snapshot(), b.snapshot());

        // A receiver holding every key, with the source ahead on a third of
        // them and a third deleted: ghost removals and gap raises on both
        // sides of the cut.
        let c = MemRep::new();
        for i in 0..800 {
            c.insert(&dense(i), 3);
        }
        for i in (0..800).step_by(3) {
            b.insert(&dense(i), 4);
            b.delete(&dense(i + 1), 5);
        }
        let repairer = Repairer::new(c.clone(), vec![Box::new(b.clone())]);
        let stats = repairer.run_round(0);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.pulls, 2, "533 source entries take two replies");
        assert_eq!(stats.keys_pulled, 533);
        assert_eq!(
            (stats.applied.installed, stats.applied.ghosts_removed),
            (267, 267)
        );
        assert_eq!(stats.applied.out_of_span, 0);
        assert_eq!(c.snapshot(), b.snapshot());
        assert_eq!(repairer.run_round(0).pulls, 0);
    }

    #[test]
    fn quiescence_converges_divergent_reps_both_ways() {
        let a = MemRep::new();
        let b = MemRep::new();
        for i in 0..40u64 {
            let key = [(i % 7 * 31 + 11) as u8, i as u8];
            a.insert(&key, i + 1);
            if i % 3 != 0 {
                b.insert(&key, i + 1);
            }
        }
        b.insert(b"only-on-b", 99);
        let ra = Repairer::new(a.clone(), vec![Box::new(b.clone())]);
        let rb = Repairer::new(b.clone(), vec![Box::new(a.clone())]);
        // Pull-based repair is one-directional; drive both until neither
        // changes anything.
        for _ in 0..8 {
            let qa = ra.run_until_quiescent(8);
            let qb = rb.run_until_quiescent(8);
            assert!(qa.quiescent && qb.quiescent);
            if digests_equal(&a, &b) {
                break;
            }
        }
        assert!(digests_equal(&a, &b));
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn targeted_pull_repairs_only_the_named_bucket() {
        let a = MemRep::new();
        let b = MemRep::new();
        for rep in [&a, &b] {
            rep.insert(b"mid", 1);
        }
        b.insert(b"alpha", 3);
        b.insert(b"zeta", 7);
        let repairer = Repairer::new(a.clone(), vec![Box::new(b.clone())]);
        let pulled = repairer.pull_buckets(0, b'z', b'z').unwrap();
        assert_eq!(pulled.applied.installed, 1);
        // "alpha" is still missing: the interval ran from the receiver's
        // "mid" to HIGH.
        let snap = a.snapshot();
        assert!(!snap.contains(&user(b"alpha")));
        assert!(snap.contains(&user(b"zeta")));
    }

    #[test]
    fn background_thread_converges_and_stops_cleanly() {
        let a = MemRep::new();
        let b = MemRep::new();
        for i in 0..10u64 {
            b.insert(&[i as u8 + 40, 1], i + 1);
        }
        let repairer = Repairer::new(a.clone(), vec![Box::new(b.clone())]);
        let handle = RepairDriver::new(repairer, Pacing::fixed(Duration::from_millis(1))).spawn();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !digests_equal(&a, &b) {
            assert!(
                std::time::Instant::now() < deadline,
                "background repair stalled"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.stop();
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn a_capped_reply_outside_its_interval_is_refused() {
        /// Answers every pull with a full reply of keys below any interval.
        struct BelowPeer;
        impl RepairPeer for BelowPeer {
            fn summary(&self, _: u8, _: u8) -> Result<Vec<Digest>, RepairError> {
                Ok(vec![Digest::default(); FANOUT])
            }
            fn pull_range(&self, _: &Key, _: &Key) -> Result<BucketView, RepairError> {
                let entry = BucketEntry {
                    key: UserKey::new(*b"a"),
                    version: Version::new(1),
                    value: Value::new(*b"a"),
                    gap_after: Version::ZERO,
                };
                Ok(BucketView {
                    lead_gap: Version::ZERO,
                    entries: vec![entry; MAX_PULL_ENTRIES],
                })
            }
        }
        let a = MemRep::new();
        a.insert(b"m", 1);
        let repairer = Repairer::new(a.clone(), vec![Box::new(BelowPeer)]);
        assert!(matches!(
            repairer.pull_buckets(0, b'z', b'z'),
            Err(RepairError::Protocol(_))
        ));
        assert!(a.snapshot().contains(&user(b"m")));
    }

    #[test]
    fn sweep_counts_peer_errors_without_stalling_other_peers() {
        struct DownPeer;
        impl RepairPeer for DownPeer {
            fn summary(&self, _: u8, _: u8) -> Result<Vec<Digest>, RepairError> {
                Err(RepairError::Unavailable)
            }
            fn pull_range(&self, _: &Key, _: &Key) -> Result<BucketView, RepairError> {
                Err(RepairError::Unavailable)
            }
        }
        let a = MemRep::new();
        let b = MemRep::new();
        b.insert(b"key", 2);
        let repairer = Repairer::new(a.clone(), vec![Box::new(DownPeer), Box::new(b.clone())]);
        let sweep = repairer.run_sweep();
        assert_eq!(sweep.errors, 1);
        assert_eq!(sweep.applied.installed, 1);
        assert!(digests_equal(&a, &b));
    }
}
