//! Integration tests for weighted votes and weak representatives (§2) at
//! the suite level.

mod support;

use repdir::core::suite::{DirSuite, QuorumPolicy, RandomPolicy, SuiteConfig};
use repdir::core::{Key, LocalRep, QuorumKind, RepId, SuiteError, Value};
use repdir::workload::spec::{Op, Spec};
use repdir::workload::weighted_availability;
use support::fixed;

fn suite(
    votes: Vec<u32>,
    r: u32,
    w: u32,
    policy: Box<dyn QuorumPolicy + Send>,
) -> DirSuite<LocalRep> {
    let clients: Vec<LocalRep> = (0..votes.len())
        .map(|i| LocalRep::new(RepId(i as u32)))
        .collect();
    DirSuite::new(clients, SuiteConfig::new(votes, r, w).unwrap(), policy).unwrap()
}

#[test]
fn heavy_representative_dominates_quorums() {
    // Votes [2,1,1], R=2, W=3.
    let mut dir = suite(vec![2, 1, 1], 2, 3, fixed(&[0, 1, 2]));
    dir.insert(&Key::from("x"), &Value::from("1")).unwrap();
    let out = dir.lookup(&Key::from("x")).unwrap();
    assert_eq!(out.quorum, vec![RepId(0)], "2-vote member alone reads");

    // Without the heavy member, both light members together form R.
    dir.member(0).set_available(false);
    let out = dir.lookup(&Key::from("x"));
    // The write quorum was {A, B} (votes 3); reading {B, C} must still see
    // the entry because every read quorum intersects every write quorum by
    // votes — B is the intersection.
    let out = out.unwrap();
    assert!(out.present);
    assert_eq!(out.quorum, vec![RepId(1), RepId(2)]);

    // Writes cannot reach W=3 with only 2 votes up.
    let err = dir.update(&Key::from("x"), &Value::from("2")).unwrap_err();
    assert_eq!(
        err,
        SuiteError::QuorumUnavailable {
            kind: QuorumKind::Write,
            needed: 3,
            gathered: 2
        }
    );
}

/// A fixed upsert / lookup / delete schedule over 20 keys: every reply is
/// the sequential spec's.
#[test]
fn full_workload_on_weighted_suite_stays_correct() {
    let mut dir = suite(vec![2, 1, 1], 2, 3, Box::new(RandomPolicy::new(5)));
    let mut spec = Spec::new();
    let key = |i: u64| Key::from(format!("k{:02}", i % 20).as_str());
    for i in 0..120u64 {
        let value = Value::from(i.to_string().as_str());
        let op = spec.narrow(match i % 3 {
            0 if spec.lookup(&key(i)).is_some() => Op::Update(key(i), value),
            0 => Op::Insert(key(i), value),
            1 => Op::Lookup(key(i)),
            _ => Op::Delete(key(i)),
        });
        assert_eq!(op.run(&mut dir), spec.apply(&op), "{op:?}");
    }
    for i in 0..20u64 {
        let op = Op::Lookup(key(i));
        assert_eq!(op.run(&mut dir), spec.apply(&op), "{op:?}");
    }
}

#[test]
fn weak_representative_is_invisible_to_quorums_but_hears_writes() {
    let mut dir = suite(vec![1, 1, 1, 0], 2, 2, fixed(&[3, 0, 1, 2]));
    dir.set_write_through_weak(true);
    // Policy prefers the weak member first; quorum collection must skip it.
    let out = dir.insert(&Key::from("a"), &Value::from("A")).unwrap();
    assert!(!out.quorum.contains(&RepId(3)));
    assert_eq!(out.quorum.len(), 2);
    // But the weak member received the write as a hint.
    use repdir::core::RepClient;
    assert!(dir.member(3).lookup(&Key::from("a")).unwrap().is_present());

    // Weak member failure never affects availability.
    dir.member(3).set_available(false);
    dir.update(&Key::from("a"), &Value::from("A2")).unwrap();
    assert!(dir.lookup(&Key::from("a")).unwrap().present);
}

#[test]
fn weighted_availability_matches_empirical_quorum_formation() {
    // For votes [2,1,1] with quorum 3: exactly the subsets {A,B}, {A,C},
    // {A,B,C}, {B,C}+A... enumerate by hand: need >= 3 votes:
    // {A,B}=3, {A,C}=3, {A,B,C}=4 — B+C alone = 2 is not enough.
    // P = p^2(1-p) + p^2(1-p) + p^3 = 2p^2 - p^3.
    for p in [0.5f64, 0.9] {
        let expect = 2.0 * p * p - p * p * p;
        let got = weighted_availability(&[2, 1, 1], 3, p);
        assert!((got - expect).abs() < 1e-12, "p={p}: {got} vs {expect}");
    }
}

#[test]
fn votes_and_quorums_engage_the_paper_rule_not_member_counts() {
    // 5 members but a single 3-vote heavyweight: R=W=4 means the heavy
    // member plus any light one — intersection is guaranteed through votes.
    let mut dir = suite(vec![3, 1, 1, 1, 1], 4, 4, Box::new(RandomPolicy::new(9)));
    dir.insert(&Key::from("q"), &Value::from("v")).unwrap();
    for _ in 0..20 {
        assert!(dir.lookup(&Key::from("q")).unwrap().present);
    }
    // The heavyweight down: max reachable votes = 4 == W, still fine...
    dir.member(0).set_available(false);
    dir.update(&Key::from("q"), &Value::from("v2")).unwrap();
    // ...but any further loss kills both quorums.
    dir.member(1).set_available(false);
    assert!(matches!(
        dir.lookup(&Key::from("q")),
        Err(SuiteError::QuorumUnavailable { .. })
    ));
}
