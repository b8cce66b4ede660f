//! Integration tests replaying every worked figure of the paper against
//! the public API.

mod support;

use repdir::core::suite::{DirSuite, SuiteConfig};
use repdir::core::{GapMap, Key, LocalRep, RepId, Version};
use support::{fixed, k, val};

fn suite_322(order: &[usize]) -> DirSuite<LocalRep> {
    let clients: Vec<LocalRep> = (0..3).map(|i| LocalRep::new(RepId(i))).collect();
    DirSuite::new(
        clients,
        SuiteConfig::symmetric(3, 2, 2).expect("3-2-2"),
        fixed(order),
    )
    .expect("suite")
}

/// Figure 1's representative layout arises from plain inserts: entries at
/// version 1, gaps at version 0.
#[test]
fn figure1_layout() {
    let mut suite = suite_322(&[0, 1, 2]);
    suite.insert(&k("a"), &val("A")).unwrap();
    suite.insert(&k("c"), &val("C")).unwrap();
    for i in [0usize, 1] {
        let snap: GapMap = suite.member(i).snapshot();
        assert_eq!(snap.version_of(&k("a")), Version::new(1));
        assert_eq!(snap.version_of(&k("c")), Version::new(1));
        // Every gap at version 0: below a, between a and c, above c.
        assert_eq!(snap.version_of(&k("0")), Version::ZERO);
        assert_eq!(snap.version_of(&k("b")), Version::ZERO);
        assert_eq!(snap.version_of(&k("z")), Version::ZERO);
        snap.check_invariants().unwrap();
    }
}

/// Figure 2 + Figure 4: inserting "b" into representatives A and B splits
/// the (a, c) gap; b gets version gap+1 = 1; both half-gaps keep version 0.
#[test]
fn figure2_and_4_insert_b() {
    let mut suite = suite_322(&[0, 1, 2]);
    suite.insert(&k("a"), &val("A")).unwrap();
    suite.insert(&k("c"), &val("C")).unwrap();
    let out = suite.insert(&k("b"), &val("B")).unwrap();
    assert_eq!(out.version, Version::new(1));
    assert_eq!(out.quorum, vec![RepId(0), RepId(1)]);
    let a = suite.member(0).snapshot();
    assert_eq!(a.version_of(&k("b")), Version::new(1));
    assert_eq!(a.version_of(&k("aa")), Version::ZERO); // gap (a, b)
    assert_eq!(a.version_of(&k("bb")), Version::ZERO); // gap (b, c)
                                                       // C never saw b.
    assert!(!suite.member(2).snapshot().contains(&k("b")));
}

/// The Figure 3 ambiguity, resolved: after deleting b via {B, C}, the read
/// quorum {A, C} must answer "absent" even though A still holds the ghost.
#[test]
fn figure3_and_5_delete_ambiguity_resolved() {
    let mut suite = suite_322(&[0, 1, 2]);
    suite.insert(&k("a"), &val("A")).unwrap();
    suite.insert(&k("c"), &val("C")).unwrap();
    suite.insert(&k("b"), &val("B")).unwrap();

    suite.set_policy(fixed(&[1, 2, 0]));
    let del = suite.delete(&k("b")).unwrap();
    assert_eq!(del.predecessor, k("a"));
    assert_eq!(del.successor, k("c"));
    assert_eq!(
        del.gap_version,
        Version::new(2),
        "Figure 5: gap (a, c) at v2"
    );

    // Ghost of b remains physically on A...
    assert!(suite.member(0).snapshot().contains(&k("b")));
    // ...but every read quorum answers correctly.
    for order in [[0usize, 1, 2], [0, 2, 1], [1, 2, 0], [2, 0, 1]] {
        suite.set_policy(fixed(&order));
        let out = suite.lookup(&k("b")).unwrap();
        assert!(!out.present, "quorum order {order:?}");
    }

    // Figure 5's B and C states: gap (a, c) at version 2.
    for i in [1usize, 2] {
        let snap = suite.member(i).snapshot();
        assert!(!snap.contains(&k("b")));
        assert_eq!(snap.version_of(&k("b")), Version::new(2));
    }
}

/// Figures 10-11: the delete of "a" must locate the real successor "bb"
/// through the ghost of "b", copy it to C, and coalesce the ghost away.
#[test]
fn figures10_11_ghosts_and_real_successor() {
    let mut suite = suite_322(&[0, 1, 2]);
    suite.insert(&k("a"), &val("A")).unwrap(); // A, B
    suite.insert(&k("b"), &val("B")).unwrap(); // A, B
    suite.set_policy(fixed(&[1, 2, 0]));
    suite.delete(&k("b")).unwrap(); // coalesce on B, C; ghost stays on A
    suite.set_policy(fixed(&[0, 1, 2]));
    suite.insert(&k("bb"), &val("BB")).unwrap(); // A, B

    // Figure 10 preconditions.
    assert!(suite.member(0).snapshot().contains(&k("b")), "ghost on A");
    assert!(
        !suite.member(2).snapshot().contains(&k("bb")),
        "bb absent from C"
    );

    // Delete "a" with write quorum {A, C} (Figure 11).
    suite.set_policy(fixed(&[0, 2, 1]));
    let del = suite.delete(&k("a")).unwrap();
    assert_eq!(del.predecessor, Key::Low);
    assert_eq!(del.successor, k("bb"));
    assert_eq!(del.copies_inserted, 1, "bb copied to C");
    assert_eq!(del.ghosts_deleted, 1, "ghost of b eliminated from A");
    assert!(del.succ_steps >= 2, "search had to step past the ghost");

    let a = suite.member(0).snapshot();
    assert!(!a.contains(&k("a")));
    assert!(!a.contains(&k("b")), "Figure 11: ghost gone");
    assert!(a.contains(&k("bb")));
    let c = suite.member(2).snapshot();
    assert!(c.contains(&k("bb")), "Figure 11: bb copied to C");
    assert!(!c.contains(&k("a")));

    // And the suite still answers correctly from every quorum.
    for order in [[0usize, 1, 2], [1, 2, 0], [0, 2, 1]] {
        suite.set_policy(fixed(&order));
        assert!(!suite.lookup(&k("a")).unwrap().present);
        assert!(!suite.lookup(&k("b")).unwrap().present);
        assert!(suite.lookup(&k("bb")).unwrap().present);
    }
}

/// Figure 8's tie-breaking: DirSuiteLookup returns the reply with the
/// largest version across the quorum, for both present and absent replies.
#[test]
fn figure8_highest_version_wins() {
    let mut suite = suite_322(&[0, 1, 2]);
    suite.insert(&k("x"), &val("v1")).unwrap(); // A, B at v1
    suite.set_policy(fixed(&[1, 2, 0]));
    suite.update(&k("x"), &val("v2")).unwrap(); // B, C at v2
                                                // Quorum {A, C}: A has v1, C has v2 — the v2 value must win.
    suite.set_policy(fixed(&[0, 2, 1]));
    let out = suite.lookup(&k("x")).unwrap();
    assert_eq!(out.version, Version::new(2));
    assert_eq!(out.value, Some(val("v2")));
}

/// Figure 9: insert uses lookup's version + 1, so versions never regress
/// across delete/reinsert cycles on any representative.
#[test]
fn figure9_versions_monotone_across_reincarnation() {
    let mut suite = suite_322(&[0, 1, 2]);
    suite.insert(&k("x"), &val("1")).unwrap(); // v1
    suite.delete(&k("x")).unwrap(); // gap v2
    let out = suite.insert(&k("x"), &val("2")).unwrap();
    assert_eq!(out.version, Version::new(3));
    suite.delete(&k("x")).unwrap(); // gap v4
    let out = suite.insert(&k("x"), &val("3")).unwrap();
    assert_eq!(out.version, Version::new(5));
}

/// Figure 16 (§5): the locality configuration keeps all inquiries local
/// and balances the single non-local write.
#[test]
fn figure16_locality() {
    let report = repdir::workload::run_locality(3000, 0x16);
    assert_eq!(report.remote_read_rpcs, 0);
    assert!(report.local_read_rpcs > 0);
    let total_remote: u64 = report.remote_write_per_member.iter().sum();
    assert!(total_remote > 0);
    for pair in [[0usize, 1], [2, 3]] {
        let a = report.remote_write_per_member[pair[0]];
        let b = report.remote_write_per_member[pair[1]];
        let hi = a.max(b) as f64;
        let lo = a.min(b).max(1) as f64;
        assert!(hi / lo < 1.3, "remote writes unbalanced: {a} vs {b}");
    }
}
