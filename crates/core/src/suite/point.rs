//! The point operations: `DirSuiteLookup` (Fig. 8), `DirSuiteInsert`
//! (Fig. 9) and `DirSuiteUpdate`, one carried collection per quorum.

use super::collect::Quorum;
use super::{DirSuite, LookupOutcome, WriteOutcome};
use crate::error::{QuorumKind, SuiteError};
use crate::gapmap::LookupReply;
use crate::key::Key;
use crate::rep::{sole, Op, RepClient};
use crate::value::Value;
use crate::version::Version;

impl<C: RepClient> DirSuite<C> {
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
        let lookup = [Op::Lookup(key.clone())];
        let Quorum { members, replies } =
            self.collect_quorum(QuorumKind::Read, Some(key), &lookup)?;
        let mut votes = Vec::with_capacity(members.len());
        for (&i, reply) in members.iter().zip(replies) {
            votes.push((i, sole(reply)?.lookup()?));
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

    fn write_entry(
        &mut self,
        key: &Key,
        version: Version,
        value: &Value,
    ) -> Result<WriteOutcome, SuiteError> {
        let _span = self.obs.registry.span("suite.write");
        let insert = [Op::Insert(key.clone(), version, value.clone())];
        let quorum = self.collect_quorum(QuorumKind::Write, Some(key), &insert)?;
        self.hint_weak(&insert);
        Ok(WriteOutcome {
            version,
            quorum: self.ids_of(&quorum.members),
        })
    }

    /// Best-effort copy of a quorum write to the zero-vote (weak)
    /// representatives, when write-through is enabled.
    pub(super) fn hint_weak(&mut self, write: &[Op]) {
        if !self.write_through_weak {
            return;
        }
        let weak: Vec<usize> = (0..self.members.len())
            .filter(|&i| self.members[i].votes == 0)
            .collect();
        if !weak.is_empty() {
            // Weak representatives are hints: ignore failures.
            let _ = self.scatter(&weak, |_| write);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::*;
    use crate::rep::{LocalRep, RepId};
    use crate::suite::SuiteConfig;

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
}
