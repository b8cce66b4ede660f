//! The grouped bulk delete and the chain-resolved scan against what they
//! replace.
//!
//! `DirSuite::delete_many` plans a window of keys at once, coalesces each run
//! of adjacent keys as one range and lets runs share their three waves;
//! `DirSuite::scan` judges entries from chain heads and fetches each value
//! from one member.
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
//! each value being what `lookup` returns for its key. A second property
//! draws runs shaped to straddle every partition the delete path has and
//! checks them against `reference::delete_per_key`.

use repdir::baselines::reference::delete_per_key;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, QuorumPolicy, SuiteConfig};
use repdir::core::{Key, QuorumKind, RepId, SuiteError, UserKey, Value, Version, INLINE_VALUE_MAX};
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

/// Where a run's ghosts sit.
#[derive(Clone, Copy, Debug)]
enum Ghosts {
    None,
    /// One between every two keys of the run.
    Inside,
    /// One between each outer neighbour and the key beside it.
    AtTheEnds,
}

/// What breaks a run in the middle of the batch.
#[derive(Clone, Copy, Debug)]
enum Flaw {
    None,
    /// A key that was never inserted.
    Absent,
    /// A repeat of a key the batch deleted earlier.
    Duplicate,
}

/// The key shapes the run property draws from. Every shape is one run of
/// `len` adjacent keys between two surviving outer neighbours, with one
/// more survivor beyond each.
#[derive(Clone, Debug)]
struct Shape {
    /// 1, 63, 64, 65 or 129: one key, and one short of, at, one past and
    /// two windows past `bulk_chunk` = 64.
    len: usize,
    ghosts: Ghosts,
    flaw: Flaw,
    /// Keys spread evenly over the whole key space, across as many of the
    /// 256 leading-byte buckets as there are slots (all of them once the
    /// shape has 256 slots), rather than packed into bucket 0.
    spread: bool,
    /// The batch lists the run from its highest key down.
    down: bool,
    /// The outer neighbours' values are `INLINE_VALUE_MAX + 1` bytes, one
    /// too many to ride a chain, rather than `INLINE_VALUE_MAX`.
    large_neighbours: bool,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (0usize..5, 0usize..3, 0usize..3, any::<u8>()).prop_map(|(len, ghosts, flaw, bits)| Shape {
        len: [1, 63, 64, 65, 129][len],
        ghosts: [Ghosts::None, Ghosts::Inside, Ghosts::AtTheEnds][ghosts],
        flaw: [Flaw::None, Flaw::Absent, Flaw::Duplicate][flaw],
        spread: bits & 1 != 0,
        down: bits & 2 != 0,
        large_neighbours: bits & 4 != 0,
    })
}

/// The keys of a [`Shape`], in key order.
struct Layout {
    /// Survivors: the two outer neighbours and one key beyond each.
    kept: Vec<Key>,
    /// The run, lowest key first.
    run: Vec<Key>,
    ghosts: Vec<Key>,
}

impl Shape {
    fn layout(&self) -> Layout {
        let ghost_inside = matches!(self.ghosts, Ghosts::Inside);
        let ghost_ends = matches!(self.ghosts, Ghosts::AtTheEnds);
        // Slot by slot, lowest first: what each one holds.
        let mut slots: Vec<u8> = vec![b'k', b'k'];
        if ghost_ends {
            slots.push(b'g');
        }
        for i in 0..self.len {
            if i > 0 && ghost_inside {
                slots.push(b'g');
            }
            slots.push(b'r');
        }
        if ghost_ends {
            slots.push(b'g');
        }
        slots.extend([b'k', b'k']);
        let step = match self.spread {
            true => u64::MAX / slots.len() as u64,
            false => 1,
        };
        let mut layout = Layout {
            kept: Vec::new(),
            run: Vec::new(),
            ghosts: Vec::new(),
        };
        for (i, kind) in slots.into_iter().enumerate() {
            let key = Key::User(UserKey::from_u64(i as u64 * step));
            match kind {
                b'k' => layout.kept.push(key),
                b'r' => layout.run.push(key),
                _ => layout.ghosts.push(key),
            }
        }
        layout
    }

    /// The batch: the run in the order drawn, flawed in its middle.
    fn batch(&self, run: &[Key], absent: &Key) -> Vec<Key> {
        let mut batch = run.to_vec();
        if self.down {
            batch.reverse();
        }
        let middle = batch.len() / 2;
        match self.flaw {
            Flaw::None => {}
            Flaw::Absent => batch.insert(middle, absent.clone()),
            Flaw::Duplicate => batch.insert(middle, batch[middle / 2].clone()),
        }
        batch
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Runs that straddle every partition the delete path has — the
    /// `bulk_chunk` window, the 256 summary buckets, the inline value bound
    /// — deleted in one batch and by the per-key loop: equal versions or the
    /// equal first error with the equal prefix deleted, byte-identical
    /// replicas, the `BTreeMap` model listed, and no `RepModify` lock the
    /// loop does not take. Every operation draws its own quorums.
    #[test]
    fn runs_straddling_every_partition_delete_as_the_per_key_loop(
        shape in shape_strategy(),
        wide in any::<bool>(),
        seed in any::<u64>(),
        neighbor_batch in 1usize..3,
    ) {
        let (n, w) = if wide { (5, 4) } else { (3, 2) };
        let config = SuiteConfig::symmetric(n, 2, w).expect("legal config");
        let mut batch = World::new(&config, neighbor_batch, 64);
        let mut looped = World::new(&config, neighbor_batch, 64);
        let layout = shape.layout();
        // An absent key sits in the run's middle: never inserted, so it
        // breaks the run and is the batch's first error.
        let absent = match shape.flaw {
            Flaw::Absent => layout.run[layout.run.len() / 2].clone(),
            _ => Key::User(UserKey::from_u64(u64::MAX)),
        };
        let doomed: Vec<Key> = layout.run.iter().filter(|key| **key != absent).cloned().collect();
        let neighbour_bytes = INLINE_VALUE_MAX + usize::from(shape.large_neighbours);
        let small = Value::from("v");
        let entries = |keys: &[Key], value: &Value| -> Vec<(Key, Value)> {
            keys.iter().map(|key| (key.clone(), value.clone())).collect()
        };
        let neighbours = [&layout.kept[1], &layout.kept[2]];
        let mut setup: Vec<Vec<(Key, Value)>> = vec![entries(&doomed, &small)];
        // Each outer neighbour alone, so some writer may lack it.
        for key in neighbours {
            setup.push(vec![(key.clone(), Value::from(vec![b'n'; neighbour_bytes]))]);
        }
        let outer = [layout.kept[0].clone(), layout.kept[3].clone()];
        setup.push(entries(&outer, &small));
        setup.push(entries(&layout.ghosts, &small));
        let mut model: BTreeMap<Key, Value> = BTreeMap::new();
        let mut draws = seed;
        let mut quorums = || {
            draws = draws.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let read = permutation(n as usize, draws);
            (read, permutation(n as usize, draws.rotate_left(17) ^ 0xD1))
        };
        for insert in &setup {
            let (read, write) = quorums();
            for world in [&mut batch, &mut looped] {
                let (out, _) = world.transact(&read, &write, |s| s.insert_many(insert));
                prop_assert!(out.is_ok(), "{:?} setup: {:?}", shape, out);
            }
            model.extend(insert.iter().cloned());
        }
        // The ghosts are deleted through a quorum that leaves them behind at
        // the members outside it.
        let (read, write) = quorums();
        for world in [&mut batch, &mut looped] {
            let (out, _) = world.transact(&read, &write, |s| s.delete_many(&layout.ghosts));
            prop_assert!(out.is_ok(), "{:?} ghosts: {:?}", shape, out);
        }
        for ghost in &layout.ghosts {
            model.remove(ghost);
        }

        let keys = shape.batch(&doomed, &absent);
        let (read, write) = quorums();
        let (a, held_a) = batch.transact(&read, &write, |s| s.delete_many(&keys));
        let (b, held_b) = looped.transact(&read, &write, |s| delete_per_key(s, &keys));
        prop_assert_eq!(&a, &b, "{:?}", shape);
        let mut expect = Ok(());
        for key in &keys {
            if model.remove(key).is_none() {
                expect = Err(SuiteError::NotFound { key: key.clone() });
                break;
            }
        }
        prop_assert_eq!(a.map(drop), expect, "{:?}", shape);
        for (i, (batch, looped)) in held_a.iter().zip(&held_b).enumerate() {
            for lock in batch.iter().filter(|(mode, _)| *mode == LockMode::Modify) {
                prop_assert!(
                    looped.contains(lock),
                    "member {} modified {:?} beyond the loop for {:?}", i, lock, shape
                );
            }
        }
        for (a, b) in batch.reps.iter().zip(&looped.reps) {
            prop_assert!(a.snapshot() == b.snapshot(), "{:?} diverged for {:?}", a.id(), shape);
        }
        let listed: Vec<(Key, Value)> = model.into_iter().collect();
        let everyone: Vec<usize> = (0..n as usize).collect();
        let (scanned, _) = batch.transact(&everyone, &everyone, |s| s.scan());
        let scanned = scanned.map(|l| l.into_iter().map(|(k, v)| (Key::User(k), v)).collect());
        prop_assert_eq!(scanned, Ok(listed), "{:?}", shape);
    }
}
