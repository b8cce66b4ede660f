//! Side-by-side demonstration of §2: on the same adversarial schedule, the
//! naive per-entry-version scheme is ambiguous (or must consult extra
//! replicas, losing availability), while the gap-versioned algorithm
//! answers from any legal read quorum.

mod support;

use repdir::baselines::{BaselineError, DirectoryOps, NaiveEntryDirectory};
use repdir::core::suite::{DirSuite, SuiteConfig};
use repdir::core::{LocalRep, RepId, UserKey, Version};
use support::{fixed, k, val};

fn uk(s: &str) -> UserKey {
    UserKey::from(s)
}
/// The schedule of Figures 1-3: insert b at {A, B}, delete via {B, C}.
struct Schedule;

impl Schedule {
    fn apply_naive(d: &mut NaiveEntryDirectory) {
        d.insert_at(&uk("b"), Version::new(1), &val("B"), &[0, 1]);
        d.delete_at(&uk("b"), &[1, 2]);
    }

    fn apply_repdir(suite: &mut DirSuite<LocalRep>) {
        suite.set_policy(fixed(&[0, 1, 2]));
        suite.insert(&k("b"), &val("B")).unwrap();
        suite.set_policy(fixed(&[1, 2, 0]));
        suite.delete(&k("b")).unwrap();
    }
}

#[test]
fn naive_scheme_needs_extra_replicas_to_decide() {
    let mut d = NaiveEntryDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 1);
    Schedule::apply_naive(&mut d);
    let mut widened = false;
    for _ in 0..30 {
        let before = d.extra_consultations;
        assert_eq!(d.lookup(&k("b")).unwrap(), None);
        widened |= d.extra_consultations > before;
    }
    assert!(
        widened,
        "a mixed present/absent quorum forces consultation beyond R"
    );
}

#[test]
fn naive_scheme_goes_ambiguous_when_decider_is_down() {
    let mut d = NaiveEntryDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 2);
    Schedule::apply_naive(&mut d);
    d.set_available(1, false); // B holds the deciding answer
    let mut failures = 0;
    for _ in 0..20 {
        if matches!(d.lookup(&k("b")), Err(BaselineError::Ambiguous { .. })) {
            failures += 1;
        }
    }
    assert_eq!(
        failures, 20,
        "every lookup fails: the paper's 'reduced availability'"
    );
}

#[test]
fn gap_versions_answer_from_any_quorum_with_a_replica_down() {
    let clients: Vec<LocalRep> = (0..3).map(|i| LocalRep::new(RepId(i))).collect();
    let mut suite = DirSuite::new(
        clients,
        SuiteConfig::symmetric(3, 2, 2).unwrap(),
        fixed(&[0, 1, 2]),
    )
    .unwrap();
    Schedule::apply_repdir(&mut suite);

    // The same failure that broke the naive scheme: B down. The remaining
    // quorum {A, C} is exactly the ambiguous pair — and it answers.
    suite.member(1).set_available(false);
    suite.set_policy(fixed(&[0, 2, 1]));
    for _ in 0..20 {
        let out = suite.lookup(&k("b")).unwrap();
        assert!(!out.present);
        assert_eq!(out.version, Version::new(2), "the coalesced gap's version");
    }
}

#[test]
fn naive_scheme_resurrects_stale_data_repdir_does_not() {
    // The version-collision history from the baseline's unit tests, run
    // through BOTH systems with the same quorum choices.
    // naive:
    let mut d = NaiveEntryDirectory::new(SuiteConfig::symmetric(3, 2, 2).unwrap(), 3);
    d.insert_at(&uk("b"), Version::new(1), &val("old"), &[0, 1]);
    d.delete_at(&uk("b"), &[1, 2]);
    d.insert_at(&uk("b"), Version::new(2), &val("new"), &[1, 2]);
    d.delete_at(&uk("b"), &[0, 1]);
    d.insert_at(&uk("b"), Version::new(1), &val("fresh"), &[0, 1]);
    assert_eq!(
        d.lookup(&k("b")).unwrap(),
        Some(val("new")),
        "naive scheme returns the DELETED value"
    );

    // repdir, with the same quorum orders chosen for each operation:
    let clients: Vec<LocalRep> = (0..3).map(|i| LocalRep::new(RepId(i))).collect();
    let mut suite = DirSuite::new(
        clients,
        SuiteConfig::symmetric(3, 2, 2).unwrap(),
        fixed(&[0, 1, 2]),
    )
    .unwrap();
    suite.insert(&k("b"), &val("old")).unwrap(); // {A,B} v1
    suite.set_policy(fixed(&[1, 2, 0]));
    suite.delete(&k("b")).unwrap(); // via {B,C}
    suite.insert(&k("b"), &val("new")).unwrap(); // {B,C}
    suite.set_policy(fixed(&[0, 1, 2]));
    suite.delete(&k("b")).unwrap(); // via {A,B}
    suite.insert(&k("b"), &val("fresh")).unwrap(); // {A,B}
                                                   // Every read quorum returns the CURRENT value.
    for order in [[0usize, 1, 2], [1, 2, 0], [0, 2, 1], [2, 1, 0]] {
        suite.set_policy(fixed(&order));
        let out = suite.lookup(&k("b")).unwrap();
        assert!(out.present, "{order:?}");
        assert_eq!(out.value, Some(val("fresh")), "{order:?}");
    }
}

#[test]
fn every_baseline_handles_the_simple_lifecycle() {
    // Regression net: all five baselines + repdir agree on an
    // insert/lookup/update/delete lifecycle when nothing fails.
    use repdir::baselines::{
        GiffordFileDirectory, PrimaryCopyDirectory, StaticPartitionDirectory, UnanimousDirectory,
    };
    use repdir::workload::SuiteDirectory;

    fn exercise<D: DirectoryOps>(mut d: D, propagate: impl Fn(&mut D)) {
        let key = k("lifecycle");
        assert_eq!(d.lookup(&key).unwrap(), None);
        d.insert(&key, &val("1")).unwrap();
        propagate(&mut d);
        assert_eq!(d.lookup(&key).unwrap(), Some(val("1")));
        d.update(&key, &val("2")).unwrap();
        propagate(&mut d);
        assert_eq!(d.lookup(&key).unwrap(), Some(val("2")));
        d.delete(&key).unwrap();
        propagate(&mut d);
        assert_eq!(d.lookup(&key).unwrap(), None);
    }

    let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
    exercise(SuiteDirectory::new(cfg.clone(), 1), |_| {});
    exercise(GiffordFileDirectory::new(cfg.clone(), 2), |_| {});
    exercise(UnanimousDirectory::new(3, 3), |_| {});
    exercise(PrimaryCopyDirectory::new(3, 4), |d| d.propagate_all());
    exercise(
        StaticPartitionDirectory::new(cfg.clone(), vec![uk("m")], 5),
        |_| {},
    );
    exercise(NaiveEntryDirectory::new(cfg, 6), |_| {});
}
