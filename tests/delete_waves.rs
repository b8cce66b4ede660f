//! The three-wave delete against Fig. 13 written out step by step.
//!
//! `DirSuite::delete` packs the paper's delete into three message rounds and
//! answers `DirSuiteLookup(candidate)` from chain replies instead of asking.
//! That changes what the delete costs, never what it does: over random
//! histories on 3-2-2 and 5-2-4 suites, under random quorums so that ghosts
//! and members lacking a neighbour occur, it and a literal rendering of
//! Fig. 13 — the public lookup and real-neighbour searches, then one member
//! call per probe, copy and coalesce — must leave identical representatives,
//! report the same outcome, agree with a `BTreeMap`, and lock the same
//! ranges, less the point lookups the literal spends inside ranges it
//! already holds.

use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, QuorumPolicy, SuiteConfig};
use repdir::core::{Key, QuorumKind, RepClient, RepId, SuiteError, UserKey, Value, Version};
use repdir::rangelock::{KeyRange, LockMode};
use repdir::replica::{SessionClient, TransactionalRep};
use repdir::txn::TxnId;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u8),
    Update(u8, u8),
    Delete(u8),
}

/// An operation and the seed its read and write quorums are drawn from.
fn op_strategy() -> impl Strategy<Value = (Op, u64)> {
    let key = || any::<u8>().prop_map(|k| k % 8);
    let op = prop_oneof![
        (key(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), any::<u8>()).prop_map(|(k, v)| Op::Update(k, v)),
        key().prop_map(Op::Delete),
        key().prop_map(Op::Delete),
    ];
    (op, any::<u64>())
}

fn key_of(k: u8) -> Key {
    Key::User(UserKey::from_u64(u64::from(k)))
}

fn value_of(v: u8) -> Value {
    Value::from(vec![v])
}

/// A permutation of `0..n` drawn from `seed` (Fisher–Yates on an LCG).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (seed >> 33) as usize % (i + 1));
    }
    order
}

/// One preference order for read quorums, another for write quorums.
struct PerKind {
    read: Vec<usize>,
    write: Vec<usize>,
}

impl QuorumPolicy for PerKind {
    fn candidates(&mut self, kind: QuorumKind, _n: usize, _hint: Option<&Key>) -> Vec<usize> {
        match kind {
            QuorumKind::Read => self.read.clone(),
            QuorumKind::Write => self.write.clone(),
        }
    }
}

/// What a delete reports that Fig. 13 determines.
#[derive(Debug, PartialEq)]
struct Deleted {
    predecessor: Key,
    successor: Key,
    gap_version: Version,
    copies_inserted: u32,
    ghosts_deleted: u32,
}

type Suite = DirSuite<SessionClient>;
type Footprint = Vec<(LockMode, KeyRange)>;

/// Transactional representatives driven one transaction per operation.
struct World {
    reps: Vec<Arc<TransactionalRep>>,
    config: SuiteConfig,
    neighbor_batch: usize,
    next_txn: u64,
}

impl World {
    fn new(config: &SuiteConfig, neighbor_batch: usize) -> World {
        let n = config.member_count() as u32;
        World {
            reps: (0..n).map(|i| TransactionalRep::new(RepId(i))).collect(),
            config: config.clone(),
            neighbor_batch,
            next_txn: 1,
        }
    }

    /// Runs `body` in a fresh transaction whose quorums follow `read` and
    /// `write`, commits it when it succeeds and aborts it otherwise, and
    /// returns with the result the locks each representative held for it.
    fn transact<R>(
        &mut self,
        read: &[usize],
        write: &[usize],
        body: impl FnOnce(&mut Suite) -> Result<R, SuiteError>,
    ) -> (Result<R, SuiteError>, Vec<Footprint>) {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        let clients = self.reps.iter().map(|rep| {
            rep.begin(txn).unwrap();
            SessionClient::new(Arc::clone(rep), txn)
        });
        let policy = PerKind {
            read: read.to_vec(),
            write: write.to_vec(),
        };
        let mut suite =
            DirSuite::new(clients.collect(), self.config.clone(), Box::new(policy)).unwrap();
        suite.set_neighbor_batch(self.neighbor_batch);
        let out = body(&mut suite);
        let held = self.reps.iter().map(|rep| rep.locks_held(txn)).collect();
        for rep in &self.reps {
            match out {
                Ok(_) => rep.commit(txn).unwrap(),
                Err(_) => rep.abort(txn),
            }
        }
        (out, held)
    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    #[test]
    fn three_wave_delete_is_the_literal_fig_13_delete(
        history in proptest::collection::vec(op_strategy(), 1..28),
        wide in any::<bool>(),
        neighbor_batch in 1usize..4,
    ) {
        let (n, r, w) = if wide { (5, 2, 4) } else { (3, 2, 2) };
        let config = SuiteConfig::symmetric(n, r, w).expect("legal config");
        let mut fused = World::new(&config, neighbor_batch);
        let mut literal = World::new(&config, neighbor_batch);
        let mut model: BTreeMap<u8, u8> = BTreeMap::new();

        for (op, seed) in &history {
            let read = permutation(n as usize, *seed);
            let write = permutation(n as usize, seed.rotate_left(17) ^ 0xD1);
            match *op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    let (key, value) = (key_of(k), value_of(v));
                    let insert = matches!(op, Op::Insert(..));
                    let expect = match (insert, model.contains_key(&k)) {
                        (true, true) => Err(SuiteError::AlreadyExists { key: key.clone() }),
                        (false, false) => Err(SuiteError::NotFound { key: key.clone() }),
                        _ => {
                            model.insert(k, v);
                            Ok(())
                        }
                    };
                    for world in [&mut fused, &mut literal] {
                        let (out, _) = world.transact(&read, &write, |s| match insert {
                            true => s.insert(&key, &value).map(drop),
                            false => s.update(&key, &value).map(drop),
                        });
                        prop_assert_eq!(&out, &expect, "{:?}", op);
                    }
                }
                Op::Delete(k) => {
                    let key = key_of(k);
                    let (a, held_a) = fused.transact(&read, &write, |s| {
                        s.delete(&key).map(|out| Deleted {
                            predecessor: out.predecessor,
                            successor: out.successor,
                            gap_version: out.gap_version,
                            copies_inserted: out.copies_inserted,
                            ghosts_deleted: out.ghosts_deleted,
                        })
                    });
                    let (b, held_b) = literal.transact(&read, &write, |s| {
                        literal_delete(s, &write[..w as usize], &key)
                    });
                    prop_assert_eq!(&a, &b, "{:?}", op);
                    match model.remove(&k) {
                        None => prop_assert_eq!(a, Err(SuiteError::NotFound { key })),
                        Some(_) => {
                            prop_assert!(a.is_ok(), "{:?}: {:?}", op, a);
                            for (i, (fused, literal)) in held_a.iter().zip(&held_b).enumerate() {
                                prop_assert_eq!(
                                    essential(fused), essential(literal),
                                    "locks at member {} for {:?}", i, op
                                );
                                prop_assert!(
                                    fused.iter().all(|lock| literal.contains(lock)),
                                    "member {} locked more than Fig. 13 does: {:?} vs {:?}",
                                    i, fused, literal
                                );
                            }
                        }
                    }
                }
            }
            // Same quorums, same writes: the representatives never differ.
            for (a, b) in fused.reps.iter().zip(&literal.reps) {
                prop_assert!(a.snapshot() == b.snapshot(), "{:?} diverged at {:?}", a.id(), op);
            }
        }

        let expect: Vec<(UserKey, Value)> = model
            .iter()
            .map(|(k, v)| (UserKey::from_u64(u64::from(*k)), value_of(*v)))
            .collect();
        let everyone: Vec<usize> = (0..n as usize).collect();
        for world in [&mut fused, &mut literal] {
            let (listed, _) = world.transact(&everyone, &everyone, |s| s.scan());
            prop_assert_eq!(listed, Ok(expect.clone()));
            for (k, v) in &model {
                let (found, _) = world.transact(&everyone, &everyone, |s| s.lookup(&key_of(*k)));
                prop_assert_eq!(found.unwrap().value, Some(value_of(*v)));
            }
        }
    }
}
