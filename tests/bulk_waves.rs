//! The grouped bulk delete and the chain-resolved scan against what they
//! replace.
//!
//! `DirSuite::delete_many` plans a window of keys at once and lets keys whose
//! neighbour ranges are disjoint share their three waves; `DirSuite::scan`
//! judges entries from chain heads and fetches each value from one member.
//! That changes what they cost, never what they do. Over random histories on
//! 3-2-2 and 5-2-4 suites — random quorums per operation, so ghosts, members
//! lacking a neighbour and stale members occur — a `delete_many` on one set
//! of transactional representatives and the per-key `delete` loop on a twin
//! must leave byte-identical replicas, assign the same versions (or raise the
//! same error with the same prefix deleted), agree with a `BTreeMap`, and
//! lock alike: the batch modifies nothing the loop does not and — for the
//! unbatched Fig. 12 walk, which reads no further than its real neighbour —
//! covers every range the loop locks, in its mode. Batches carry duplicates,
//! missing keys and unsorted adjacent keys. A `scan` must list the model,
//! each value being what `lookup` returns for its key.

use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, QuorumPolicy, SuiteConfig};
use repdir::core::{Key, QuorumKind, RepId, SuiteError, UserKey, Value, Version};
use repdir::rangelock::{KeyRange, LockMode};
use repdir::replica::{SessionClient, TransactionalRep};
use repdir::txn::TxnId;
use std::collections::BTreeMap;
use std::sync::Arc;

const KEYS: u8 = 12;

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u8),
    Update(u8, u8),
    Delete(u8),
    DeleteMany(Vec<u8>),
    Scan,
}

/// An operation and the seed its read and write quorums are drawn from.
fn op_strategy() -> impl Strategy<Value = (Op, u64)> {
    let key = || any::<u8>().prop_map(|k| k % KEYS);
    let batch = || proptest::collection::vec(key(), 1..7).prop_map(Op::DeleteMany);
    let op = prop_oneof![
        (key(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key(), any::<u8>()).prop_map(|(k, v)| Op::Update(k, v)),
        key().prop_map(Op::Delete),
        batch(),
        batch(),
        any::<u8>().prop_map(|_| Op::Scan),
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

type Suite = DirSuite<SessionClient>;
type Footprint = Vec<(LockMode, KeyRange)>;

/// Transactional representatives driven one transaction per operation.
struct World {
    reps: Vec<Arc<TransactionalRep>>,
    config: SuiteConfig,
    neighbor_batch: usize,
    bulk_chunk: usize,
    next_txn: u64,
}

impl World {
    fn new(config: &SuiteConfig, neighbor_batch: usize, bulk_chunk: usize) -> World {
        let n = config.member_count() as u32;
        World {
            reps: (0..n).map(|i| TransactionalRep::new(RepId(i))).collect(),
            config: config.clone(),
            neighbor_batch,
            bulk_chunk,
            next_txn: 1,
        }
    }

    /// Runs `body` in a fresh transaction whose quorums follow `read` and
    /// `write` and commits it whatever it returns — a bulk delete that
    /// fails has deleted a prefix, and that prefix is what is compared —
    /// returning with the result the locks each representative held for it.
    fn transact<R>(
        &mut self,
        read: &[usize],
        write: &[usize],
        body: impl FnOnce(&mut Suite) -> R,
    ) -> (R, Vec<Footprint>) {
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
        suite.set_bulk_chunk(self.bulk_chunk);
        let out = body(&mut suite);
        let held = self.reps.iter().map(|rep| rep.locks_held(txn)).collect();
        for rep in &self.reps {
            rep.commit(txn).unwrap();
        }
        (out, held)
    }
}

/// Whether the `mode` ranges of `held` together cover `range`: some chain
/// of them, each starting no later than the last one ended, runs from its
/// low end to its high end.
fn covered(held: &Footprint, mode: LockMode, range: &KeyRange) -> bool {
    let mut reached = range.low().clone();
    loop {
        let further = held
            .iter()
            .filter(|(m, r)| *m == mode && r.contains(&reached))
            .map(|(_, r)| r.high())
            .max();
        match further {
            Some(high) if high >= range.high() => return true,
            Some(high) if *high > reached => reached = high.clone(),
            _ => return false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    #[test]
    fn bulk_delete_is_the_per_key_loop_and_scan_lists_the_model(
        history in proptest::collection::vec(op_strategy(), 1..36),
        wide in any::<bool>(),
        neighbor_batch in 1usize..4,
        chunk_choice in 0usize..3,
    ) {
        let (n, r, w) = if wide { (5, 2, 4) } else { (3, 2, 2) };
        let config = SuiteConfig::symmetric(n, r, w).expect("legal config");
        let bulk_chunk = [2, 3, 64][chunk_choice];
        let mut batch = World::new(&config, neighbor_batch, bulk_chunk);
        let mut looped = World::new(&config, neighbor_batch, bulk_chunk);
        let mut model: BTreeMap<u8, u8> = BTreeMap::new();

        for (op, seed) in &history {
            let read = permutation(n as usize, *seed);
            let write = permutation(n as usize, seed.rotate_left(17) ^ 0xD1);
            match op {
                Op::Insert(k, v) | Op::Update(k, v) => {
                    let (key, value) = (key_of(*k), value_of(*v));
                    let insert = matches!(op, Op::Insert(..));
                    let expect = match (insert, model.contains_key(k)) {
                        (true, true) => Err(SuiteError::AlreadyExists { key: key.clone() }),
                        (false, false) => Err(SuiteError::NotFound { key: key.clone() }),
                        _ => {
                            model.insert(*k, *v);
                            Ok(())
                        }
                    };
                    for world in [&mut batch, &mut looped] {
                        let (out, _) = world.transact(&read, &write, |s| match insert {
                            true => s.insert(&key, &value).map(drop),
                            false => s.update(&key, &value).map(drop),
                        });
                        prop_assert_eq!(&out, &expect, "{:?}", op);
                    }
                }
                Op::Delete(k) => {
                    let key = key_of(*k);
                    let expect = match model.remove(k) {
                        Some(_) => Ok(()),
                        None => Err(SuiteError::NotFound { key: key.clone() }),
                    };
                    for world in [&mut batch, &mut looped] {
                        let (out, _) = world.transact(&read, &write, |s| s.delete(&key).map(drop));
                        prop_assert_eq!(&out, &expect, "{:?}", op);
                    }
                }
                Op::DeleteMany(ks) => {
                    let keys: Vec<Key> = ks.iter().map(|&k| key_of(k)).collect();
                    let (a, held_a) = batch.transact(&read, &write, |s| {
                        s.delete_many(&keys).map(|out| out.versions)
                    });
                    // The loop, in one transaction so its locks add up; a
                    // failing key leaves the versions of the prefix behind.
                    let mut versions: Vec<Version> = Vec::new();
                    let (b, held_b) = looped.transact(&read, &write, |s| {
                        for key in &keys {
                            versions.push(s.delete(key)?.gap_version);
                        }
                        Ok(())
                    });
                    let mut expect = Ok(());
                    for (k, key) in ks.iter().zip(&keys) {
                        if model.remove(k).is_none() {
                            expect = Err(SuiteError::NotFound { key: key.clone() });
                            break;
                        }
                    }
                    prop_assert_eq!(&b, &expect, "the loop, {:?}", op);
                    match &a {
                        Ok(assigned) => prop_assert_eq!(assigned, &versions, "{:?}", op),
                        Err(e) => prop_assert_eq!(Err(e.clone()), expect, "{:?}", op),
                    }
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "{:?}", op);
                    for (i, (batch, looped)) in held_a.iter().zip(&held_b).enumerate() {
                        // A chain of b > 1 reads up to b - 1 elements past
                        // the real neighbour; which ones depends on when it
                        // was read, so only the unbatched walk — which reads
                        // what Fig. 12 needs and no more — is compared.
                        let needed = looped.iter().filter(|_| neighbor_batch == 1);
                        for (mode, range) in needed {
                            prop_assert!(
                                covered(batch, *mode, range),
                                "member {} holds no {}{:?} for the batch {:?}: {:?} vs {:?}",
                                i, mode, range, op, batch, looped
                            );
                        }
                        for lock in batch.iter().filter(|(mode, _)| *mode == LockMode::Modify) {
                            prop_assert!(
                                looped.contains(lock),
                                "member {} modified more than the loop for {:?}: {:?} vs {:?}",
                                i, op, batch, looped
                            );
                        }
                    }
                }
                Op::Scan => {
                    let expect: Vec<(UserKey, Value)> = model
                        .iter()
                        .map(|(k, v)| (UserKey::from_u64(u64::from(*k)), value_of(*v)))
                        .collect();
                    let (listed, _) = batch.transact(&read, &write, |s| {
                        let listed = s.scan()?;
                        // Same transaction, same held quorum: what a lookup
                        // of each key answers is what the scan listed.
                        for (key, value) in &listed {
                            let found = s.lookup(&Key::User(key.clone()))?;
                            assert_eq!(found.value.as_ref(), Some(value), "{key:?}");
                        }
                        Ok::<_, SuiteError>(listed)
                    });
                    prop_assert_eq!(listed, Ok(expect.clone()));
                    let (listed, _) = looped.transact(&read, &write, |s| s.scan());
                    prop_assert_eq!(listed, Ok(expect));
                }
            }
            // Same quorums, same writes: the representatives never differ.
            for (a, b) in batch.reps.iter().zip(&looped.reps) {
                prop_assert!(a.snapshot() == b.snapshot(), "{:?} diverged at {:?}", a.id(), op);
            }
        }

        let expect: Vec<(UserKey, Value)> = model
            .iter()
            .map(|(k, v)| (UserKey::from_u64(u64::from(*k)), value_of(*v)))
            .collect();
        let everyone: Vec<usize> = (0..n as usize).collect();
        let (listed, _) = batch.transact(&everyone, &everyone, |s| s.scan());
        prop_assert_eq!(listed, Ok(expect));
    }
}
