//! `DirSuiteDelete` (Fig. 13) in three waves, for one key or for a group of
//! keys whose neighbour ranges do not touch.

use super::walk::{Direction, Walk};
use super::{protocol_violation, BulkWriteOutcome, DeleteOutcome, DirSuite};
use crate::error::{QuorumKind, SuiteError};
use crate::gapmap::{CoalesceOutcome, LookupReply};
use crate::key::Key;
use crate::rep::{Op, RepClient, RepId, Reply};
use crate::value::Value;
use crate::version::Version;

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

impl<C: RepClient> DirSuite<C> {
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
                    let group = [(key, plan)];
                    let mut entries_in_range = Vec::new();
                    let mut ghosts_deleted = 0;
                    let (writers, lacking) = s.apply_deletes(&group, |id, done| {
                        entries_in_range.push((id, done.removed.len()));
                        let ghosts = done.removed.iter();
                        ghosts_deleted +=
                            ghosts.filter(|r| key.as_user() != Some(&r.key)).count() as u32;
                    })?;
                    let [(_, plan)] = group;
                    let gap_version = plan.gap_version();
                    let DeletePlan { succ, pred, .. } = plan;
                    Ok(DeleteOutcome {
                        predecessor: pred.found.expect("planned").0,
                        successor: succ.found.expect("planned").0,
                        gap_version,
                        copies_inserted: lacking.iter().filter(|&&lacks| lacks).count() as u32,
                        entries_in_range,
                        ghosts_deleted,
                        pred_steps: pred.steps,
                        succ_steps: succ.steps,
                        pred_rpcs: pred.rpc_calls,
                        succ_rpcs: succ.rpc_calls,
                        quorum: s.ids_of(&writers),
                    })
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
        let wave_a: Vec<Op> = (0..keys.len())
            .filter(|&i| plans[i].is_none())
            .flat_map(|i| {
                let key = || keys[i].clone();
                [
                    Op::Lookup(key()),
                    Op::SuccessorChain(key(), batch),
                    Op::PredecessorChain(key(), batch),
                ]
            })
            .collect();
        let Some(Op::Lookup(first)) = wave_a.first() else {
            return Ok(());
        };
        let read = self.collect_quorum(QuorumKind::Read, Some(first), &wave_a)?;
        let readers = read.members;
        let mut replies: Vec<_> = read.replies.into_iter().map(Vec::into_iter).collect();
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
                        Some(Reply::Lookup(vote)),
                        Some(Reply::Chain(after)),
                        Some(Reply::Chain(before)),
                    ) => {
                        votes.push((readers[slot], vote));
                        succ.integrate(slot, after);
                        pred.integrate(slot, before);
                    }
                    _ => return Err(protocol_violation("wave A reply")),
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
    /// member gets one request: per key the copies it lacks (a neighbour
    /// two keys share is copied once), then the coalesce.
    ///
    /// Every coalesce reply is handed to `coalesced` with the member that
    /// sent it, writer by writer in group order. Returned are the write
    /// quorum and, writer by writer, which neighbours it lacked: neighbour
    /// `2g` is group key `g`'s successor, `2g + 1` its predecessor.
    fn apply_deletes(
        &mut self,
        group: &[(&Key, DeletePlan)],
        mut coalesced: impl FnMut(RepId, CoalesceOutcome),
    ) -> Result<(Vec<usize>, Vec<bool>), SuiteError> {
        // "Make sure the predecessor and successor exist in every member of
        // the quorum." Sentinels are probed too (present everywhere, never
        // copied), so every key's probes have a fixed place in the list.
        let neighbor = |n: usize| {
            let plan = &group[n / 2].1;
            let (key, version) = [&plan.succ, &plan.pred][n % 2]
                .found
                .as_ref()
                .expect("planned");
            (key, *version)
        };
        let probed = 2 * group.len();
        let wave_b: Vec<Op> = (0..probed)
            .map(|n| Op::Lookup(neighbor(n).0.clone()))
            .collect();
        let write = self.collect_quorum(QuorumKind::Write, Some(group[0].0), &wave_b)?;
        let writers = write.members;
        let mut lacking = Vec::with_capacity(writers.len() * probed);
        for probe in write.replies.iter().flatten() {
            let Reply::Lookup(found) = probe else {
                return Err(protocol_violation("probe missing lookup reply"));
            };
            lacking.push(!found.is_present());
        }
        // The value of each neighbour some writer lacks, from a writer that
        // holds its current version: 2W > N puts one in every write quorum;
        // should none have answered, the read quorum has it.
        let mut copied: Vec<(usize, Value)> = Vec::new();
        for n in (0..probed).filter(|&n| lacking.chunks(probed).any(|lacks| lacks[n])) {
            let (key, current) = neighbor(n);
            let held = write.replies.iter().find_map(|probes| match &probes[n] {
                Reply::Lookup(LookupReply::Present { version, value }) if *version == current => {
                    Some(value.clone())
                }
                _ => None,
            });
            let value = match held {
                Some(value) => value,
                None => self
                    .lookup(key)?
                    .value
                    .expect("a real neighbor has a value"),
            };
            copied.push((n, value));
        }

        let wave_c: Vec<Vec<Op>> = lacking
            .chunks(probed)
            .map(|lacks| {
                let mut request = Vec::with_capacity(group.len());
                for (g, (_, plan)) in group.iter().enumerate() {
                    for n in [2 * g, 2 * g + 1] {
                        let (key, version) = neighbor(n);
                        let already = |op: &Op| matches!(op, Op::Insert(copy, ..) if copy == key);
                        if lacks[n] && !request.iter().any(already) {
                            let (_, value) = copied.iter().find(|(of, _)| *of == n).expect("held");
                            request.push(Op::Insert(key.clone(), version, value.clone()));
                        }
                    }
                    let (low, high) = (neighbor(2 * g + 1).0.clone(), neighbor(2 * g).0.clone());
                    request.push(Op::Coalesce(low, high, plan.gap_version()));
                }
                request
            })
            .collect();
        let wave_c = &wave_c;
        let outcomes = self.scatter(&writers, |slot| &wave_c[slot]);
        for (&writer, outcome) in writers.iter().zip(outcomes) {
            let id = self.members[writer].client.id();
            // The coalesce replies, in group order, between the replies to
            // the copies.
            let mut replies = outcome?.into_iter().filter_map(|reply| match reply {
                Reply::Coalesce(out) => Some(out),
                _ => None,
            });
            for _ in group {
                let Some(done) = replies.next() else {
                    return Err(protocol_violation("wave C missing coalesce reply"));
                };
                coalesced(id, done);
            }
        }
        Ok((writers, lacking))
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
                self.apply_deletes(&group, |_, _| {})?;
                versions.extend(group.iter().map(|(_, plan)| plan.gap_version()));
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
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

    #[test]
    fn delete_requires_existing_entry() {
        let mut s = suite_322(5);
        assert_eq!(s.delete(&k("b")), Err(SuiteError::NotFound { key: k("b") }));
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
    fn bulk_delete_stops_at_the_first_missing_key() {
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
}
