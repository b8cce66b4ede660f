//! The Fig. 12 walk and everything that steps through it: the public
//! real-neighbour searches, delete's plans (through [`DirSuite::run_walks`])
//! and the scan. One loop ([`DirSuite::next_real`]) judges candidates from
//! buffered chain heads; one wave shape ([`DirSuite::refill`]) extends the
//! buffers that ran dry. A chain head carries its entry's value when that
//! value is at most [`INLINE_VALUE_MAX`](crate::gapmap::INLINE_VALUE_MAX)
//! bytes, so the searches and the scan read small values off the walk and
//! send a `Lookup` only for a larger one.

use std::collections::VecDeque;

use super::{protocol_violation, DirSuite, NeighborSearch};
use crate::error::{QuorumKind, SuiteError};
use crate::gapmap::{LookupReply, NeighborReply};
use crate::key::{Key, UserKey};
use crate::rep::{sole, Op, RepClient, Reply};
use crate::value::Value;
use crate::version::Version;

/// Which way a neighbor search walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Direction {
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

/// One member's part of a [`Walk`]: the successive
/// [`NeighborReply`](crate::gapmap::NeighborReply)s not yet consumed (keys
/// strictly monotonic toward the terminal) and the key its next chain
/// request continues from.
#[derive(Clone)]
struct Buffered {
    chain: VecDeque<NeighborReply>,
    next_probe: Key,
}

/// One Fig. 12 walk in progress: what each quorum slot has buffered, and
/// `probe`, how far the walk has come. The neighbour searches, delete's
/// plans and the scan all step through [`DirSuite::next_real`] and refill
/// through [`DirSuite::refill`], so the discard/refill bookkeeping lives in
/// one place.
pub(super) struct Walk {
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
    pub(super) max_gap_version: Version,
    /// Candidates judged.
    pub(super) steps: u32,
    /// Chain replies folded in.
    pub(super) rpc_calls: u32,
    /// The real neighbour and its version, once resolved.
    pub(super) found: Option<(Key, Version)>,
}

impl Walk {
    pub(super) fn new(dir: Direction, start: &Key, slots: usize, batch: usize) -> Self {
        let empty = Buffered {
            chain: VecDeque::new(),
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
    fn chain_from(&self, slot: usize) -> Op {
        let from = self.slots[slot].next_probe.clone();
        match self.dir {
            Direction::Pred => Op::PredecessorChain(from, self.batch),
            Direction::Succ => Op::SuccessorChain(from, self.batch),
        }
    }

    /// Folds one chain reply into `slot`: advances the continue-from key —
    /// an empty chain means the member is exhausted — and buffers the rest.
    pub(super) fn integrate(&mut self, slot: usize, chain: Vec<NeighborReply>) {
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

    /// The value a chain head at `candidate` and `version` carried: every
    /// holder read the same entry, so any holder's head will do. `None` when
    /// the value was too large to ride, and for sentinels.
    fn carried(&self, candidate: &Key, version: Version) -> Option<Value> {
        let mut heads = self.holders(candidate, version);
        heads.find_map(|slot| self.slots[slot].chain.front()?.value.clone())
    }

    /// The finished walk as a public search result, with the value its chain
    /// heads carried, if any. A sentinel's value is always empty.
    fn search(self) -> NeighborSearch {
        let (key, version) = self.found.clone().expect("the walk has run");
        let value = match key.is_sentinel() {
            true => Some(Value::empty()),
            false => self.carried(&key, version),
        };
        NeighborSearch {
            value,
            key,
            version,
            max_gap_version: self.max_gap_version,
            steps: self.steps,
            rpc_calls: self.rpc_calls,
        }
    }
}

impl<C: RepClient> DirSuite<C> {
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
    /// neighbour from the members' chains, and take its value off the chain
    /// head that named it, or fetch it with one lookup when it was too large
    /// to ride. A sentinel needs neither: its value is always empty.
    fn neighbor_search(&mut self, key: &Key, dir: Direction) -> Result<NeighborSearch, SuiteError> {
        let _span = self.obs.registry.span("suite.neighbor");
        self.with_session_scope(|s| {
            s.with_session_retries(|s| {
                let quorum = s.collect_quorum(QuorumKind::Read, Some(key), &[])?;
                let mut walk = Walk::new(dir, key, quorum.members.len(), s.neighbor_batch);
                s.run_walks(&quorum.members, &mut [&mut walk])?;
                let mut found = walk.search();
                if found.value.is_none() {
                    found.value = s.lookup(&found.key)?.value;
                }
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
    pub(super) fn run_walks(
        &mut self,
        quorum: &[usize],
        walks: &mut [&mut Walk],
    ) -> Result<(), SuiteError> {
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
    /// by one chain request of every walk that wants more of that member, as
    /// one request — not at all when there is nothing to ask. The chains are
    /// folded into their walks; the replies to the lead requests are
    /// returned per slot.
    fn refill(
        &mut self,
        quorum: &[usize],
        walks: &mut [&mut Walk],
        lead: Vec<Vec<Op>>,
    ) -> Result<Vec<Vec<Reply>>, SuiteError> {
        // What each walk asks of each slot is settled before any reply
        // lands: folding one chain in can end the drought that asked.
        let wanted: Vec<(usize, usize)> = walks
            .iter()
            .enumerate()
            .flat_map(|(at, walk)| walk.refills().map(move |slot| (at, slot)))
            .collect();
        let mut requests = lead;
        for &(at, slot) in &wanted {
            requests[slot].push(walks[at].chain_from(slot));
        }
        let mut replies = vec![Vec::new(); quorum.len()];
        let slots: Vec<usize> = (0..quorum.len())
            .filter(|&slot| !requests[slot].is_empty())
            .collect();
        if slots.is_empty() {
            return Ok(replies);
        }
        let targets: Vec<usize> = slots.iter().map(|&slot| quorum[slot]).collect();
        let (sent, asked) = (&requests, &slots);
        let waves = self.scatter(&targets, |at| &sent[asked[at]]);
        for (&slot, wave) in slots.iter().zip(waves) {
            replies[slot] = wave?;
        }
        // The chains sit behind the lead replies, in the order asked.
        for &(at, slot) in wanted.iter().rev() {
            match replies[slot].pop() {
                Some(Reply::Chain(chain)) => walks[at].integrate(slot, chain),
                _ => return Err(protocol_violation("refill missing chain reply")),
            }
        }
        Ok(replies)
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
    pub fn scan(&mut self) -> Result<Vec<(UserKey, Value)>, SuiteError> {
        let _span = self.obs.registry.span("suite.scan");
        self.with_session_scope(|s| s.with_session_retries(|s| s.scan_walk()))
    }

    /// One session-quorum sweep from `LOW` to `HIGH` in
    /// `O(entries / bulk_chunk)` waves. The read-quorum collection carries
    /// `SuccessorChain(LOW, bulk_chunk)`; candidates are then judged from
    /// the buffered chain heads as the searches judge them
    /// ([`next_real`](Self::next_real)). A winning chain head that carried
    /// its value lists the entry on the spot: value and version are one
    /// read under one range lock. Whenever a buffer runs dry one wave sends
    /// each member a single request: the lookups of the larger values
    /// resolved since the last wave that were assigned to it, and its next
    /// chain request. A last wave fetches the large values still owed, so a
    /// scan of small values is ⌈(entries + ghosts + 1) / chunk⌉ chain waves
    /// and nothing else.
    ///
    /// A large value is asked of the least loaded member whose chain head
    /// voted the winning version and must come back at that version — both
    /// reads sit under the member's range locks — or the scan fails: never
    /// a silently stale listing.
    fn scan_walk(&mut self) -> Result<Vec<(UserKey, Value)>, SuiteError> {
        let chunk = self.bulk_chunk;
        let carried = [Op::SuccessorChain(Key::Low, chunk)];
        let read = self.collect_quorum(QuorumKind::Read, None, &carried)?;
        let quorum = read.members;
        let mut walk = Walk::new(Direction::Succ, &Key::Low, quorum.len(), chunk);
        // Every wave extends every buffer, so the walk waits only as often
        // as the member with the most entries and ghosts runs dry.
        walk.top_up = true;
        for (slot, reply) in read.replies.into_iter().enumerate() {
            walk.integrate(slot, sole(reply)?.chain()?);
        }
        let mut listed: Vec<(UserKey, Option<Value>)> = Vec::new();
        // Per quorum slot: the lookups its next request carries, and for
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
                let value = walk.carried(&candidate, version);
                if value.is_none() {
                    let holders = walk.holders(&candidate, version);
                    let slot = holders
                        .min_by_key(|&slot| asks[slot].len())
                        .expect("the winning version heads a chain");
                    asks[slot].push(Op::Lookup(candidate.clone()));
                    owed[slot].push((listed.len(), version));
                }
                listed.push((entry.clone(), value));
                walk.probe = candidate;
            }
            let lead = std::mem::replace(&mut asks, vec![Vec::new(); quorum.len()]);
            let answers = self.refill(&quorum, &mut [&mut walk], lead)?;
            for (owed, parts) in owed.iter_mut().zip(answers) {
                for ((at, voted), part) in owed.drain(..).zip(parts) {
                    match part {
                        Reply::Lookup(LookupReply::Present { version, value })
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
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

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
    fn scan_session_pays_one_quorum_collection() {
        // A failure-free session scan collects its read quorum exactly once
        // — the collection carries the first chain request, so nobody is
        // pinged — and five entries fit one chain: their values are too
        // large to ride it, so a second wave fetches them and that is all.
        let mut s = suite_322(31);
        s.set_policy(fixed(&[0, 1, 2]));
        for key in ["a", "b", "c", "d", "e"] {
            s.insert(&k(key), &big(key)).unwrap();
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
    fn small_value_scan_is_its_carried_chain_alone() {
        // Twin of the test above with values that ride the chain: the
        // carried chain lists all five entries and there is no second wave.
        let mut s = suite_322(31);
        s.set_policy(fixed(&[0, 1, 2]));
        for key in ["a", "b", "c", "d", "e"] {
            s.insert(&k(key), &val(key)).unwrap();
        }
        s.reset_message_counts();
        let before = s.obs().snapshot();
        let listed = s.scan().unwrap();
        let expect: Vec<(UserKey, Value)> = ["a", "b", "c", "d", "e"]
            .map(|key| (UserKey::from(key), val(key)))
            .into();
        assert_eq!(listed, expect);
        let after = s.obs().snapshot();
        let spent = |name: &str| after.counter(name) - before.counter(name);
        assert_eq!(spent("suite.quorum.waves"), 1);
        assert_eq!(spent("suite.rounds"), 1, "the carried chain only");
        assert_eq!(spent("suite.session.revalidate"), 0);
        assert_eq!(s.ping_counts(), vec![0, 0, 0]);
        assert_eq!(s.message_counts(), vec![1, 1, 0]);
    }

    #[test]
    fn search_takes_a_small_value_off_the_chain() {
        // The public search reads a small neighbour's value off the chain
        // head that named it: after the ping collection, one chain request
        // per quorum member. A large value still costs the suite lookup's R
        // requests more; a sentinel's empty value costs nothing.
        let mut s = suite_322(41);
        s.set_policy(fixed(&[0, 1, 2]));
        s.insert(&k("b"), &val("B")).unwrap();
        s.insert(&k("d"), &big("D")).unwrap();
        for (from, key, value, msgs) in [
            ("a", k("b"), val("B"), [1, 1, 0]),
            ("c", k("d"), big("D"), [2, 2, 0]),
            ("d", Key::High, Value::empty(), [1, 1, 0]),
        ] {
            s.reset_message_counts();
            let found = s.real_successor(&k(from)).unwrap();
            assert_eq!((found.key, found.value), (key, Some(value)), "{from}");
            assert_eq!(s.message_counts(), msgs, "{from}");
            assert_eq!(s.ping_counts(), vec![1, 1, 0], "{from}");
        }
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
            value: None,
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
        assert_eq!(walk.chain_from(0), Op::SuccessorChain(k("z"), 1));
        walk.integrate(0, vec![]);
        assert_eq!(walk.candidate(), Key::High);
        assert_eq!(walk.refills().count(), 0, "no member can advance past HIGH");
        assert_eq!(walk.max_gap_version, Version::from(5));
        assert_eq!(walk.rpc_calls, 3);
    }

    #[test]
    fn mid_scan_member_failure_revalidates_once_and_completes() {
        use std::sync::atomic::Ordering;
        let (mut s, fuses) = fused_suite_of(big);
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
        let (mut s, fuses) = fused_suite_of(big);
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
    fn mid_scan_member_failure_over_small_values_revalidates_once() {
        // Twin of the test above with values that ride the chain: no
        // lookups, so chains of two stretch the walk over four waves and
        // member 0 dies at its third chain request, mid-walk.
        use std::sync::atomic::Ordering;
        let (mut s, fuses) = fused_suite();
        s.set_bulk_chunk(2);
        fuses[0].store(3, Ordering::SeqCst);
        let listed = s.scan().unwrap();
        let expect: Vec<(UserKey, Value)> = ["a", "b", "c", "d", "e", "f"]
            .map(|key| (UserKey::from(key), val(key)))
            .into();
        assert_eq!(listed, expect);
        assert!(fuses[0].load(Ordering::SeqCst) <= 0, "member 0 died");
        let snap = s.obs().snapshot();
        assert_eq!(snap.counter("suite.session.revalidate"), 1);
        assert!(s.session(QuorumKind::Read).is_none());
    }

    #[test]
    fn dead_majority_mid_scan_over_small_values_surfaces_quorum_unavailable() {
        // Twin of the test above: members 0 and 1 die at their second chain
        // request, after the carried collection.
        use std::sync::atomic::Ordering;
        let (mut s, fuses) = fused_suite();
        s.set_bulk_chunk(2);
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
}
