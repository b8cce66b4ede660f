//! `DirSuiteDelete` (Fig. 13) in three waves, for one key or for a window of
//! keys. Adjacent doomed keys are one *run*, coalesced as one range (Fig. 6's
//! `DirRepCoalesce(low, high, v)`), and the runs of a window share the waves.

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

    /// A present key's real predecessor and real successor, at their
    /// versions.
    fn neighbors(&self) -> [&(Key, Version); 2] {
        [&self.pred, &self.succ].map(|walk| walk.found.as_ref().expect("a present key's walks ran"))
    }
}

/// One Fig. 6 coalesce: a maximal stretch of consecutive input keys that
/// are also consecutive real entries, all in one direction, by wave A's
/// merged chains.
struct Run<'k> {
    keys: &'k [Key],
    /// The real predecessor of the run's lowest key and the real successor
    /// of its highest, at their versions: the range coalesced, and the
    /// entries copied into writers that lack them.
    low: (Key, Version),
    high: (Key, Version),
    /// Per key, the gap version the per-key loop gives it. Strict 2PL hides
    /// the states in between, so only the last is written.
    versions: Vec<Version>,
}

impl<'k> Run<'k> {
    /// The run that `keys[0]` opens, read off their `plans`; none when the
    /// key is absent. The loop gives key i the max of key i − 1's gap
    /// version, key i's own version and the gap versions its walks saw, plus
    /// one — and the range key i − 1 coalesced holds nothing newer than key
    /// i − 1's gap version, so that is key i's `gap_version` folded with the
    /// version before it.
    fn open(keys: &'k [Key], plans: &[Option<DeletePlan>]) -> Option<Run<'k>> {
        let plans: Vec<&DeletePlan> = plans
            .iter()
            .map_while(|p| p.as_ref().filter(|p| p.present))
            .collect();
        // Key i + 1 is key i's real successor and key i its real predecessor
        // (`up`), or the other way round.
        let linked = |i: usize, up: bool| {
            let side = usize::from(up);
            let back = plans[i + 1].neighbors()[1 - side];
            plans[i].neighbors()[side].0 == keys[i + 1] && back.0 == keys[i]
        };
        let up = plans.len() < 2 || linked(0, true);
        let links = (0..plans.len().saturating_sub(1)).take_while(|&i| linked(i, up));
        let len = 1 + links.count();
        let (first, last) = (*plans.first()?, plans[len - 1]);
        let (lowest, highest) = if up { (first, last) } else { (last, first) };
        let versions = plans[..len].iter().scan(Version::ZERO, |prior, plan| {
            *prior = prior.next().max(plan.gap_version());
            Some(*prior)
        });
        Some(Run {
            keys: &keys[..len],
            low: lowest.neighbors()[0].clone(),
            high: highest.neighbors()[1].clone(),
            versions: versions.collect(),
        })
    }

    /// Whether the run's range and the one between `low` and `high` overlap
    /// as open intervals. Ranges that merely share an endpoint do not: that
    /// entry survives both coalesces. A plan whose range overlaps a
    /// coalesced run read an entry the run deleted — the batch is unsorted
    /// or repeats a key — and is read again.
    fn overlaps(&self, [low, high]: [&(Key, Version); 2]) -> bool {
        self.low.0 < high.0 && low.0 < self.high.0
    }
}

impl<C: RepClient> DirSuite<C> {
    /// `DirSuiteDelete(x)` (Fig. 13): locates the real predecessor and real
    /// successor of `x`, copies them into any write-quorum member lacking
    /// them, and coalesces the range between them with a version exceeding
    /// every version previously associated with any key in the range.
    ///
    /// Three waves, each needing the answers to the one before: A is
    /// `read_plans`, B and C `apply_deletes`.
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
            let keys = std::slice::from_ref(key);
            let mut plan = [None];
            s.read_plans(keys, &mut plan)?;
            let Some(run) = Run::open(keys, &plan) else {
                return Err(SuiteError::NotFound { key: key.clone() });
            };
            let mut entries_in_range = Vec::new();
            let mut ghosts_deleted = 0;
            let (writers, lacking) =
                s.apply_deletes(key, std::slice::from_ref(&run), |id, done| {
                    entries_in_range.push((id, done.removed.len()));
                    let ghosts = done.removed.iter();
                    ghosts_deleted +=
                        ghosts.filter(|r| key.as_user() != Some(&r.key)).count() as u32;
                })?;
            let [Some(DeletePlan { succ, pred, .. })] = plan else {
                unreachable!("a run opens at a planned key")
            };
            Ok(DeleteOutcome {
                predecessor: run.low.0,
                successor: run.high.0,
                gap_version: run.versions[0],
                copies_inserted: lacking.iter().filter(|&&lacks| lacks).count() as u32,
                entries_in_range,
                ghosts_deleted,
                pred_steps: pred.steps,
                succ_steps: succ.steps,
                pred_rpcs: pred.rpc_calls,
                succ_rpcs: succ.rpc_calls,
                quorum: s.ids_of(&writers),
            })
        })
    }

    /// Wave A of Fig. 13 for every key of `keys` whose plan is missing: the
    /// read-quorum collection carries, per key, its lookup and the first
    /// chain request of both Fig. 12 walks, which then resolve together on
    /// those chains; only a ghost that leaves a buffer dry costs a further
    /// round. A key that reads absent gets a plan whose walks do not run
    /// ([`SuiteError::NotFound`] before anything is written).
    fn read_plans(
        &mut self,
        keys: &[Key],
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
            .filter_map(|plan| plan.as_mut().filter(|plan| plan.present))
            .flat_map(|plan| [&mut plan.succ, &mut plan.pred])
            .collect();
        self.run_walks(&readers, &mut walks)
    }

    /// Waves B and C of Fig. 13 for runs whose ranges are pairwise disjoint
    /// as open intervals. **B** — the write-quorum collection, hinted at
    /// `hint`, carries per run a lookup of each outer neighbour: who lacks
    /// it and, from a holder of its current version, the value to copy. The
    /// loop probes every key of a run of two or more as the neighbour of the
    /// key beside it, so wave B asks those too (their answers are not
    /// needed) and the batch holds every lock the loop holds. **C** — every
    /// write-quorum member gets one request: per run the copies it lacks (a
    /// neighbour two runs share is copied once), then the coalesce of the
    /// run's range at its last version.
    ///
    /// Every coalesce reply is handed to `coalesced` with the member that
    /// sent it, writer by writer in group order. Returned are the write
    /// quorum and, writer by writer, which neighbours it lacked: neighbour
    /// `2g` is run `g`'s successor, `2g + 1` its predecessor.
    fn apply_deletes(
        &mut self,
        hint: &Key,
        group: &[Run<'_>],
        mut coalesced: impl FnMut(RepId, CoalesceOutcome),
    ) -> Result<(Vec<usize>, Vec<bool>), SuiteError> {
        // "Make sure the predecessor and successor exist in every member of
        // the quorum." Sentinels are probed too (present everywhere, never
        // copied), so every run's probes have a fixed place in the list.
        let neighbors: Vec<&(Key, Version)> =
            group.iter().flat_map(|run| [&run.high, &run.low]).collect();
        let probed = neighbors.len();
        let inner = group.iter().filter(|run| run.keys.len() > 1);
        let wave_b: Vec<Op> = (neighbors.iter().map(|(key, _)| key))
            .chain(inner.flat_map(|run| run.keys))
            .map(|key| Op::Lookup(key.clone()))
            .collect();
        let write = self.collect_quorum(QuorumKind::Write, Some(hint), &wave_b)?;
        let writers = write.members;
        let mut lacking = Vec::with_capacity(writers.len() * probed);
        for probe in write.replies.iter().flat_map(|probes| &probes[..probed]) {
            let Reply::Lookup(found) = probe else {
                return Err(protocol_violation("probe missing lookup reply"));
            };
            lacking.push(!found.is_present());
        }
        // The value of each neighbour some writer lacks, from a writer that
        // holds its current version: 2W > N puts one in every write quorum;
        // should none have answered, the read quorum has it.
        let mut copied: Vec<Option<Value>> = vec![None; probed];
        for n in (0..probed).filter(|&n| lacking.chunks(probed).any(|lacks| lacks[n])) {
            let (key, current) = neighbors[n];
            let held = write.replies.iter().find_map(|probes| match &probes[n] {
                Reply::Lookup(LookupReply::Present { version, value }) if version == current => {
                    Some(value.clone())
                }
                _ => None,
            });
            copied[n] = Some(match held {
                Some(value) => value,
                None => self
                    .lookup(key)?
                    .value
                    .expect("a real neighbor has a value"),
            });
        }

        let wave_c: Vec<Vec<Op>> = lacking
            .chunks(probed)
            .map(|lacks| {
                let mut request = Vec::with_capacity(group.len());
                for (g, run) in group.iter().enumerate() {
                    for n in [2 * g, 2 * g + 1] {
                        let (key, version) = neighbors[n];
                        let already = |op: &Op| matches!(op, Op::Insert(copy, ..) if copy == key);
                        if lacks[n] && !request.iter().any(already) {
                            let value = copied[n].clone().expect("held");
                            request.push(Op::Insert(key.clone(), *version, value));
                        }
                    }
                    let last = *run.versions.last().expect("a run has a key");
                    request.push(Op::Coalesce(run.low.0.clone(), run.high.0.clone(), last));
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
    /// session scope. Per window of
    /// [`set_bulk_chunk`](DirSuite::set_bulk_chunk) keys, wave A is read
    /// once for every key and the Fig. 12 walks advance together. The
    /// window then splits into *runs*: maximal stretches of consecutive
    /// input keys that are also consecutive real entries, in one direction.
    /// A run is one range from the real predecessor of its lowest key to the
    /// real successor of its highest, coalesced once, and runs whose ranges
    /// touch at most at a surviving endpoint share one wave B and one wave
    /// C. A sorted window is therefore three waves however its keys sit:
    /// 64 adjacent keys are one run, 64 keys with a survivor between every
    /// pair 64 runs of one. Only a run whose range overlaps an earlier one
    /// of its group — an unsorted batch or a repeated key — or an absent key
    /// closes the group, and only the plans a coalesced range overlaps are
    /// read again (DESIGN.md §11 has the argument).
    ///
    /// Semantics are exactly a sequential per-key loop of
    /// [`delete`](DirSuite::delete) — same versions, same final replicas;
    /// the first failing key surfaces its error with every earlier key
    /// deleted and no later one. On a mid-batch member failure the session
    /// is re-validated and the group in flight is driven again as it was
    /// planned, at the versions it was given: a coalesce replayed at its own
    /// version is an idempotent overwrite, so a half-coalesced run is
    /// neither reported `NotFound` nor given new versions.
    ///
    /// # Errors
    ///
    /// As [`delete`](DirSuite::delete), for the first offending key.
    pub fn delete_many(&mut self, keys: &[Key]) -> Result<BulkWriteOutcome, SuiteError> {
        let _span = self.obs.registry.span("suite.delete_many");
        self.obs.bulk_ops.inc();
        self.obs.bulk_keys.add(keys.len() as u64);
        let mut versions = Vec::with_capacity(keys.len());
        let mut in_flight = Vec::new();
        let mut attempts = 0u32;
        self.with_session_scope(|s| {
            s.with_session_retries(|s| {
                attempts += 1;
                if attempts > 1 {
                    s.obs.bulk_resumed.inc();
                }
                s.delete_many_walk(keys, &mut versions, &mut in_flight)
            })
        })?;
        Ok(BulkWriteOutcome { versions })
    }

    /// One attempt at the bulk-delete walk, resuming at the first key whose
    /// gap version has not been recorded yet. `group` holds the runs whose
    /// waves B and C were sent but not acknowledged: a later attempt drives
    /// them again before it reads anything.
    fn delete_many_walk<'k>(
        &mut self,
        keys: &'k [Key],
        versions: &mut Vec<Version>,
        group: &mut Vec<Run<'k>>,
    ) -> Result<(), SuiteError> {
        if !group.is_empty() {
            self.apply_deletes(&keys[versions.len()], group, |_, _| {})?;
            versions.extend(group.drain(..).flat_map(|run| run.versions));
        }
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
                self.read_plans(&keys[first..hi], &mut plans[first - lo..])?;
                let mut next = first;
                while let Some(run) = Run::open(&keys[next..hi], &plans[next - lo..]) {
                    if group
                        .iter()
                        .any(|earlier| earlier.overlaps([&run.low, &run.high]))
                    {
                        break;
                    }
                    next += run.keys.len();
                    group.push(run);
                }
                if group.is_empty() {
                    let key = keys[first].clone();
                    return Err(SuiteError::NotFound { key });
                }
                self.apply_deletes(&keys[first], group, |_, _| {})?;
                for plan in &mut plans[next - lo..] {
                    plan.take_if(|p| {
                        p.present && group.iter().any(|run| run.overlaps(p.neighbors()))
                    });
                }
                versions.extend(group.drain(..).flat_map(|run| run.versions));
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
        // Member 0 dies as the first coalesce reaches it. Wave A plans all
        // three keys (9 ticks, carried by the read collection); "a", "b"
        // and "c" are one run, whose wave B probes its two neighbours and,
        // as the loop does, its three keys (5 ticks); the fifteenth request
        // is the run's coalesce — which member 1 applies, so the run is left
        // half-coalesced under the held sessions.
        fuses[0].store(15, Ordering::SeqCst);
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

    #[test]
    fn member_dying_at_a_long_runs_coalesce_resumes_at_the_loops_versions() {
        use std::sync::atomic::Ordering;
        let keys = [k("b"), k("c"), k("d"), k("e")];
        // The per-key loop on a twin whose members never die.
        let (mut looped, _) = fused_suite();
        let expect: Vec<Version> = keys
            .iter()
            .map(|key| looped.delete(key).unwrap().gap_version)
            .collect();
        let (mut s, fuses) = fused_suite();
        // One run from "a" to "f": wave A is 12 ticks at member 0, wave B
        // 2 neighbour probes and 4 key probes, and the nineteenth request
        // is the run's coalesce. Member 1 applies it, member 0 dies: every
        // key reads absent through member 1 at the run's last version.
        fuses[0].store(19, Ordering::SeqCst);
        let out = s.delete_many(&keys).unwrap();
        assert!(fuses[0].load(Ordering::SeqCst) <= 0, "member 0 died");
        assert_eq!(out.versions, expect, "the loop's versions");
        for key in &keys {
            assert!(!s.lookup(key).unwrap().present, "{key:?} survived");
        }
        let listed = s.scan().unwrap();
        let listed: Vec<String> = listed.iter().map(|(u, _)| u.to_string()).collect();
        assert_eq!(listed, ["a", "f"], "only the batch was deleted");
        let snap = s.obs().snapshot();
        assert!(snap.counter("suite.session.revalidate") >= 1);
        assert_eq!(snap.counter("suite.bulk.resumed"), 1);
    }
}
