//! Bulk insert: the Fig. 9 flow for a batch of keys on the two collections
//! a single insert pays.

use super::{pick_reply, protocol_violation, BulkWriteOutcome, DirSuite};
use crate::error::{QuorumKind, SuiteError};
use crate::gapmap::LookupReply;
use crate::key::Key;
use crate::rep::{Op, RepClient, Reply};
use crate::value::Value;
use crate::version::Version;

impl<C: RepClient> DirSuite<C> {
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
                let env: Vec<Op> = need
                    .iter()
                    .map(|&i| Op::Lookup(entries[i].0.clone()))
                    .collect();
                let read = self.collect_quorum(QuorumKind::Read, None, &env)?;
                for parts in read.replies {
                    for (&i, part) in need.iter().zip(parts) {
                        let Reply::Lookup(reply) = part else {
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
            let mut writes: Vec<Op> = Vec::new();
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
                writes.push(Op::Insert(key.clone(), version, value.clone()));
            }

            if !writes.is_empty() {
                let write = self.collect_quorum(QuorumKind::Write, None, &writes)?;
                let inserted = |part: &Reply| matches!(part, Reply::Insert(_));
                if !write.replies.iter().flatten().all(inserted) {
                    return Err(protocol_violation("bulk envelope missing insert reply"));
                }
                self.hint_weak(&writes);
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
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;

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
}
