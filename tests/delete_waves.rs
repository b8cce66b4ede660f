//! The three-wave delete against Fig. 13 written out step by step.
//!
//! `DirSuite::delete` packs the paper's delete into three message rounds and
//! answers `DirSuiteLookup(candidate)` from chain replies instead of asking.
//! That changes what the delete costs, never what it does: over random
//! histories on 3-2-2 and 5-2-4 suites, under random quorums so that ghosts
//! and members lacking a neighbour occur, it and a literal rendering of
//! Fig. 13 — the public lookup and real-neighbour searches, then one member
//! call per probe, copy and coalesce — must leave identical representatives,
//! report the same outcome, agree with the sequential spec, and lock the same
//! ranges, less the point lookups the literal spends inside ranges it
//! already holds.

mod support;

use repdir::core::proptest_mini::collection::vec;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::SuiteConfig;
use repdir::core::{Key, RepClient, SuiteError, Version};
use repdir::rangelock::{KeyRange, LockMode};
use repdir::workload::spec::{self, Answer, Kind, Op, Shape, Spec};
use support::{permutation, Footprint, Suite, World};

/// What a delete reports that Fig. 13 determines.
#[derive(Debug, PartialEq)]
struct Deleted {
    predecessor: Key,
    successor: Key,
    gap_version: Version,
    copies_inserted: u32,
    ghosts_deleted: u32,
}

/// `DirSuiteDelete(x)` as Fig. 13 words it, one message per step.
fn literal_delete(suite: &mut Suite, writers: &[usize], key: &Key) -> Result<Deleted, SuiteError> {
    let target = suite.lookup(key)?;
    if !target.present {
        return Err(SuiteError::NotFound { key: key.clone() });
    }
    let succ = suite.real_successor(key)?;
    let pred = suite.real_predecessor(key)?;
    let version = succ
        .max_gap_version
        .max(pred.max_gap_version)
        .max(target.version);
    // "Make sure the predecessor and successor exist in every member of the
    // quorum."
    let mut copies_inserted = 0;
    for &i in writers {
        for neighbor in [&succ, &pred] {
            if !suite.member(i).lookup(&neighbor.key)?.is_present() {
                let value = neighbor.value.as_ref().expect("a real entry has a value");
                suite
                    .member(i)
                    .insert(&neighbor.key, neighbor.version, value)?;
                copies_inserted += 1;
            }
        }
    }
    // "Coalesce the range in each member."
    let mut ghosts_deleted = 0;
    for &i in writers {
        let out = suite
            .member(i)
            .coalesce(&pred.key, &succ.key, version.next())?;
        let ghosts = out
            .removed
            .iter()
            .filter(|r| Key::User(r.key.clone()) != *key);
        ghosts_deleted += ghosts.count() as u32;
    }
    Ok(Deleted {
        predecessor: pred.key,
        successor: succ.key,
        gap_version: version.next(),
        copies_inserted,
        ghosts_deleted,
    })
}

/// A footprint without the `RepLookup` point locks that lie inside a wider
/// `RepLookup` range of the same footprint, and without repeats.
fn essential(held: &Footprint) -> Vec<String> {
    let covered = |point: &KeyRange| {
        held.iter().any(|(mode, range)| {
            *mode == LockMode::Lookup && range != point && range.contains(point.low())
        })
    };
    let mut out: Vec<String> = held
        .iter()
        .filter(|(mode, range)| {
            let point = range.low() == range.high();
            !(*mode == LockMode::Lookup && point && covered(range))
        })
        .map(|(mode, range)| format!("{mode}{range:?}"))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Shapes: `dense_u8` (240 cases), `spread` and `inline_straddle`.
#[test]
fn three_wave_delete_is_the_literal_fig_13_delete() {
    const MIX: &[(u32, Kind)] = &[(2, Kind::Insert), (1, Kind::Update), (2, Kind::Delete)];
    spec::check(
        &[
            (Shape::DenseU8(8), 240),
            (Shape::Spread(8), 24),
            (Shape::InlineStraddle(8), 24),
        ],
        |shape| {
            (
                // An operation and the seed its quorums are drawn from.
                vec((shape.op(MIX), any::<u64>()), 1..28),
                any::<bool>(),
                1usize..4,
            )
        },
        |_, (history, wide, neighbor_batch)| {
            let (n, r, w) = if wide { (5, 2, 4) } else { (3, 2, 2) };
            let config = SuiteConfig::symmetric(n, r, w).expect("legal config");
            let mut fused = World::new(&config, neighbor_batch, 64);
            let mut literal = World::new(&config, neighbor_batch, 64);
            let mut spec = Spec::new();

            for (op, seed) in &history {
                let read = permutation(n as usize, *seed);
                let write = permutation(n as usize, seed.rotate_left(17) ^ 0xD1);
                match op {
                    Op::Delete(key) => {
                        let (a, held_a) = fused.transact(&read, &write, |s| {
                            s.delete(key).map(|out| Deleted {
                                predecessor: out.predecessor,
                                successor: out.successor,
                                gap_version: out.gap_version,
                                copies_inserted: out.copies_inserted,
                                ghosts_deleted: out.ghosts_deleted,
                            })
                        });
                        let (b, held_b) = literal.transact(&read, &write, |s| {
                            literal_delete(s, &write[..w as usize], key)
                        });
                        prop_assert_eq!(&a, &b, "{:?}", op);
                        let reply = a.as_ref().map(|_| Answer::Done).map_err(Clone::clone);
                        prop_assert_eq!(reply, spec.apply(op), "{:?}", op);
                        let held = held_a.iter().zip(&held_b).filter(|_| a.is_ok());
                        for (i, (fused, literal)) in held.enumerate() {
                            prop_assert_eq!(
                                essential(fused),
                                essential(literal),
                                "locks at member {} for {:?}",
                                i,
                                op
                            );
                            prop_assert!(
                                fused.iter().all(|lock| literal.contains(lock)),
                                "member {} locked more than Fig. 13 does: {:?} vs {:?}",
                                i,
                                fused,
                                literal
                            );
                        }
                    }
                    op => {
                        let expect = spec.apply(op);
                        for world in [&mut fused, &mut literal] {
                            let (out, _) = world.transact(&read, &write, |s| op.run(s));
                            prop_assert_eq!(&out, &expect, "{:?}", op);
                        }
                    }
                }
                // Same quorums, same writes: the representatives never
                // differ.
                for (a, b) in fused.reps.iter().zip(&literal.reps) {
                    prop_assert!(
                        a.snapshot() == b.snapshot(),
                        "{:?} diverged at {:?}",
                        a.id(),
                        op
                    );
                }
            }

            let everyone: Vec<usize> = (0..n as usize).collect();
            for world in [&mut fused, &mut literal] {
                let (listed, _) = world.transact(&everyone, &everyone, |s| s.scan());
                prop_assert_eq!(listed, Ok(spec.scan()));
                for (k, v) in spec.scan() {
                    let key = Key::User(k);
                    let (found, _) = world.transact(&everyone, &everyone, |s| s.lookup(&key));
                    prop_assert_eq!(found.unwrap().value, Some(v));
                }
            }
        },
    );
}
