//! Stale-vote detection: what a quorum read learns about members that
//! missed a write, and the queue that hands it to the repair layer.
//!
//! Every merge of a read quorum's votes ([`DirSuite::merge_votes`], the
//! chain-head votes of a walk) compares each member's version against the
//! winner and notes the members strictly behind it. Detection is always on:
//! the comparison rides data the read already holds and costs no message.

use std::sync::Arc;

use super::{pick_reply, DirSuite};
use crate::gapmap::LookupReply;
use crate::key::Key;
use crate::rep::RepClient;
use crate::version::Version;

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

impl<C: RepClient> DirSuite<C> {
    /// Drains the suite's stale-vote queue, oldest first: the votes quorum
    /// reads observed since the last drain. Feed these to the repair
    /// subsystem; the reads that produced them were already correct (the
    /// version rule masked the stale replies), so draining lazily is safe.
    /// With a shared sink installed this drains the sink, votes pushed by
    /// other suites included.
    pub fn take_stale_votes(&self) -> Vec<StaleVote> {
        self.stale_votes.drain_all()
    }

    /// Queues observed stale votes on a shared [`StaleVoteQueue`] in place
    /// of the suite's own — the hook a `ReplicatedDirectory` uses to feed
    /// one queue from every transaction's suite so background repair drivers
    /// can drain it. Votes already queued on the replaced queue stay there.
    pub fn set_stale_vote_sink(&mut self, sink: Arc<StaleVoteQueue>) {
        self.stale_votes = sink;
    }

    /// Merges a read quorum's lookup votes — the largest version wins
    /// (Fig. 8) — and queues the members that voted stale.
    pub(super) fn merge_votes(
        &mut self,
        key: &Key,
        votes: Vec<(usize, LookupReply)>,
    ) -> LookupReply {
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
    pub(super) fn note_stale_votes(
        &mut self,
        key: &Key,
        latest: Version,
        votes: impl IntoIterator<Item = (usize, Version)>,
    ) {
        for (member, seen) in votes {
            if seen < latest {
                self.obs.stale_votes.inc();
                // Coalesced per (member, key), keeping the latest
                // observation: a key that is read repeatedly while stale
                // must cost one targeted pull, not one per read.
                self.stale_votes.push(StaleVote {
                    member,
                    key: key.clone(),
                    seen,
                    latest,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use std::time::Duration;

    #[test]
    fn stale_vote_observed_when_read_quorum_straddles_the_write() {
        let mut s = suite_322(61);
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
        assert_eq!(s.obs().snapshot().counter("repair.stale_votes_observed"), 1);
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
        s.set_policy(fixed(&[0, 1]));
        s.insert(&k("b"), &val("B")).unwrap();
        s.set_policy(fixed(&[1, 2]));
        for _ in 0..5 {
            s.lookup(&k("b")).unwrap();
        }
        // Every observation is counted, but the queue holds one vote.
        assert_eq!(s.obs().snapshot().counter("repair.stale_votes_observed"), 5);
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
        s.set_stale_vote_sink(Arc::clone(&queue));
        s.set_policy(fixed(&[1, 2]));
        for _ in 0..3 {
            s.lookup(&k("b")).unwrap();
        }
        // Votes land (coalesced) in the sink; the repeats say nothing new,
        // so the stale member is woken once.
        assert_eq!(woken.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(queue.drain_member(0).is_empty());
        let votes = queue.drain_member(2);
        assert_eq!(votes.len(), 1);
        assert_eq!(votes[0].key, k("b"));
        assert!(queue.is_empty());
        // Drained, the observation is news again: it wakes the member, and
        // the suite's own drain empties the sink it queues on.
        s.lookup(&k("b")).unwrap();
        assert_eq!(woken.load(std::sync::atomic::Ordering::SeqCst), 2);
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
}
