//! Quorum collection (`CollectReadQuorum` / `CollectWriteQuorum`, §3.2) and
//! the sessions that hold a collected quorum across a bulk operation.
//!
//! One path: candidates are asked in the policy's preference order, wave by
//! wave, each wave sized by the votes it is *expected* to yield; a wave
//! carries the caller's request when every member of it has a clean record
//! and pings first otherwise.

use super::DirSuite;
use crate::error::{QuorumKind, RepError, SuiteError};
use crate::key::Key;
use crate::rep::{Op, RepClient, Reply};

/// Ceiling on wave over-provisioning: a wave may provision at most
/// `ceil(deficit * MAX_OVERPROVISION)` votes.
const MAX_OVERPROVISION: f64 = 2.0;

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
/// and each one's replies to the carried request (empty when it was pinged;
/// none when a held session answered a ping from cache).
pub(super) struct Quorum {
    pub(super) members: Vec<usize>,
    pub(super) replies: Vec<Vec<Reply>>,
}

impl Quorum {
    /// Arranges arrival-ordered replies by their member's place in `order`.
    fn arrange(mut gathered: Vec<(usize, Vec<Reply>)>, order: &[usize]) -> Self {
        gathered.sort_by_key(|&(i, _)| order.iter().position(|&o| o == i));
        let (members, replies) = gathered.into_iter().unzip();
        Quorum { members, replies }
    }
}

impl<C: RepClient> DirSuite<C> {
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
    /// that pinned it.
    pub(super) fn with_session_scope<R>(&mut self, body: impl FnOnce(&mut Self) -> R) -> R {
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
        if self.session_depth > 0 {
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
    pub(super) fn with_session_retries<R>(
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

    /// `CollectReadQuorum`/`CollectWriteQuorum`: gathers members along the
    /// policy's preference order until their votes meet the threshold.
    ///
    /// `carry` is the request the caller would send the quorum next. Given
    /// one, collecting *is* sending it — the members that answer it are the
    /// quorum (§3.1) — so neither a point operation nor a bulk one pays a
    /// ping round. An empty `carry` (a public neighbour search, a session
    /// re-validation) is the ping itself. Requests go out in *waves*
    /// ([`collect_votes`](Self::collect_votes)); within a wave the first
    /// votes to *arrive* win, and the quorum is then arranged back into
    /// preference order so downstream waves address members
    /// deterministically.
    pub(super) fn collect_quorum(
        &mut self,
        kind: QuorumKind,
        hint: Option<&Key>,
        carry: &[Op],
    ) -> Result<Quorum, SuiteError> {
        // Session fast path: a bulk operation already collected this quorum
        // and no member has failed since — answer from cache, no pings.
        if let Some(session) = self.session(kind) {
            let members = session.members.clone();
            self.obs.session_reuse.inc();
            return match carry {
                [] => Ok(Quorum {
                    members,
                    replies: Vec::new(),
                }),
                ops => self.ask_session(kind, members, ops),
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

    /// Sends `ops` to exactly the members of a held session. A member that
    /// fails is not replaced: the session is stale, so
    /// [`RepError::Unavailable`] surfaces for
    /// [`with_session_retries`](Self::with_session_retries) to re-validate.
    fn ask_session(
        &mut self,
        kind: QuorumKind,
        members: Vec<usize>,
        ops: &[Op],
    ) -> Result<Quorum, SuiteError> {
        let needed = self.threshold(kind);
        let wave = self.vote_wave(ops, &members, needed);
        match wave.refused {
            Some(e) => Err(SuiteError::Rep(e)),
            None if wave.votes < needed => Err(SuiteError::Rep(RepError::Unavailable)),
            None => Ok(Quorum::arrange(wave.replies, &members)),
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
        let chosen = self.collect_quorum_ordered(kind, order, &[])?.members;
        self.store_session(kind, chosen.clone(), epoch);
        Ok(chosen)
    }

    fn collect_quorum_ordered(
        &mut self,
        kind: QuorumKind,
        mut order: Vec<usize>,
        carry: &[Op],
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
    /// silent member costs a ping's wait, never a data request's: the prefix
    /// is *extended* while the expected, availability-weighted yield falls
    /// short of the deficit, within the [`MAX_OVERPROVISION`] cap, the wave
    /// stops listening at the vote threshold, and the request then goes to
    /// the members that answered. With nothing to carry every wave pings.
    fn collect_votes(
        &mut self,
        kind: QuorumKind,
        order: &[usize],
        carry: &[Op],
    ) -> Result<Vec<(usize, Vec<Reply>)>, SuiteError> {
        let needed = self.threshold(kind);
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
            let carried = !carry.is_empty() && expected >= f64::from(provisioned);
            let cap = provisioned.max((f64::from(deficit) * MAX_OVERPROVISION).ceil() as u32);
            while cursor < voting.len() && expected < f64::from(deficit) && provisioned < cap {
                provisioned += yields[cursor].0;
                expected += yields[cursor].1;
                cursor += 1;
            }
            if first == cursor {
                return Err(SuiteError::QuorumUnavailable {
                    kind,
                    needed,
                    gathered: votes,
                });
            }
            self.obs.waves.inc();
            let asked = if carried { carry } else { &[] };
            let mut wave = self.vote_wave(asked, &voting[first..cursor], deficit);
            // A preferred candidate that was asked and failed to vote: for
            // a sticky policy, a remembered member that stopped responding.
            self.obs.sticky_miss.add(wave.misses);
            if !carried && !carry.is_empty() {
                let ponged: Vec<usize> = wave.replies.iter().map(|&(i, _)| i).collect();
                wave = self.vote_wave(carry, &ponged, deficit);
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
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::rep::{LocalRep, RepId, RepResult};
    use crate::suite::{StickyPolicy, SuiteConfig};

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
        fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
            let reply = self.inner.execute(ops);
            if ops.is_empty()
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
        let mut s = suite_322(31);
        s.insert(&k("a"), &val("A")).unwrap();
        let err = s
            .with_session_scope(|s| {
                s.collect_quorum(QuorumKind::Read, None, &[])?;
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
            }
        );
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
            s.collect_quorum(QuorumKind::Read, None, &[])?;
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
        // the clean order: same quorum, same ping spend. (`usize::MAX`
        // additionally guards the hygiene pass against indexing before
        // bounds-checking.)
        let clean: &[usize] = &[2, 0, 1];
        let dirty: [&[usize]; 3] = [
            &[2, 2, 0, 2, 1, 0],
            &[9, 2, 0, usize::MAX, 1, 100],
            &[2, 0, 1, 2, 0, 1, 7],
        ];
        let run = |order: &[usize]| {
            let mut s = suite_322(33);
            let chosen = s
                .collect_quorum_ordered(QuorumKind::Read, order.to_vec(), &[])
                .unwrap()
                .members;
            (chosen, s.ping_counts())
        };
        let baseline = run(clean);
        for order in dirty {
            assert_eq!(run(order), baseline, "order {order:?}");
        }
    }

    #[test]
    fn zero_vote_members_in_the_order_change_nothing() {
        // Weak (zero-vote) representatives may appear anywhere in a
        // candidate order — mentioned or not, duplicated or not — without
        // being pinged, chosen, or shifting the quorum.
        let cfg = SuiteConfig::new(vec![1, 0, 1, 1], 2, 2).unwrap();
        let run = |order: &[usize]| {
            let clients: Vec<LocalRep> = (0..4).map(|i| LocalRep::new(RepId(i))).collect();
            let mut s = DirSuite::new(clients, cfg.clone(), fixed(&[0, 1, 2, 3])).unwrap();
            let chosen = s
                .collect_quorum_ordered(QuorumKind::Read, order.to_vec(), &[])
                .unwrap()
                .members;
            (chosen, s.ping_counts())
        };
        let baseline = run(&[0, 2, 3]);
        for order in [&[0usize, 1, 2, 3][..], &[1, 0, 1, 2, 9, 3]] {
            assert_eq!(run(order), baseline, "order {order:?}");
            assert_eq!(baseline.1[1], 0, "weak member must never be pinged");
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

    /// Forwards to a [`LocalRep`] but refuses its first data request with
    /// `Deadlock`: a member that was reached and said no.
    struct RefusesOnce {
        inner: LocalRep,
        armed: std::sync::atomic::AtomicBool,
    }

    impl RepClient for RefusesOnce {
        fn id(&self) -> RepId {
            self.inner.id()
        }
        fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
            let armed = || self.armed.swap(false, std::sync::atomic::Ordering::SeqCst);
            if !ops.is_empty() && armed() {
                return Err(RepError::Deadlock);
            }
            self.inner.execute(ops)
        }
    }

    #[test]
    fn member_that_refused_scores_no_miss_and_is_not_pinged() {
        // A refusal fails the operation, but the member answered: its
        // availability window stays clean, its reply-time EWMA takes no
        // penalty sample (timing is off, so it takes none at all), and the
        // next lookup carries its request to it with no ping first.
        let clients: Vec<RefusesOnce> = (0..3)
            .map(|i| RefusesOnce {
                inner: LocalRep::new(RepId(i)),
                armed: std::sync::atomic::AtomicBool::new(i == 0),
            })
            .collect();
        let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let mut s = DirSuite::new(clients, cfg, fixed(&[0, 1, 2])).unwrap();
        s.obs().set_timing_armed(false);
        assert_eq!(
            s.lookup(&k("a")).unwrap_err(),
            SuiteError::Rep(RepError::Deadlock)
        );
        assert_eq!(s.member_avails()[0].rate(), Some(1.0));
        assert_eq!(s.member_reply_ewmas()[0].value_us(), None);
        s.reset_message_counts();
        assert!(!s.lookup(&k("a")).unwrap().present);
        assert_eq!(s.ping_counts(), vec![0, 0, 0]);
        assert_eq!(s.message_counts(), vec![1, 1, 0]);
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
        fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
            let lookup = ops.iter().any(|op| matches!(op, Op::Lookup(_)));
            if lookup && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected fault: representative panicked mid-lookup")
            }
            self.inner.execute(ops)
        }
    }

    fn panicking_clients() -> DirSuite<PanicsOnLookup> {
        let clients: Vec<PanicsOnLookup> = (0..3)
            .map(|i| PanicsOnLookup {
                inner: LocalRep::new(RepId(i)),
                armed: std::sync::atomic::AtomicBool::new(false),
            })
            .collect();
        let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
        DirSuite::new(clients, cfg, fixed(&[0, 1, 2])).unwrap()
    }

    #[test]
    fn panicking_client_propagates_and_does_not_leak_the_session_scope() {
        // An in-process client completes inline, so its panic unwinds
        // through the coordinator's own frames — it is a bug in this
        // process, not a member failure, and is not swallowed.
        // Regression: the old session_begin/session_end pair leaked
        // session_depth when the body unwound, pinning a stale quorum
        // session for the suite's lifetime. The RAII scope guard must
        // restore depth and clear sessions on panic. The value is too large
        // to ride the chain, so the scan sends the lookup that panics.
        let mut s = panicking_clients();
        s.insert(&k("a"), &big("A")).unwrap();
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
        assert!(rate < 1.0, "{rate}");
        // And the suite still answers correctly afterwards.
        let listed = s.scan().unwrap();
        assert_eq!(listed.len(), 1);
    }

    #[test]
    fn small_value_scan_sends_no_lookup_to_panic_on() {
        // Twin of the test above with a value that rides the chain: the
        // scan lists it without a lookup, so the armed client stays armed.
        let mut s = panicking_clients();
        s.insert(&k("a"), &val("A")).unwrap();
        s.member(0).arm();
        let listed = s.scan().unwrap();
        assert_eq!(listed, vec![(crate::key::UserKey::from("a"), val("A"))]);
        let armed = s.member(0).armed.load(std::sync::atomic::Ordering::SeqCst);
        assert!(armed, "the scan sent no lookup");
        assert!(s.session(QuorumKind::Read).is_none());
    }
}
