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
//! same error with the same prefix deleted), agree with the sequential
//! spec, and lock alike: the batch modifies nothing the loop does not and —
//! for the unbatched Fig. 12 walk, which reads no further than its real
//! neighbour — covers every range the loop locks, in its mode. Batches carry
//! duplicates, missing keys and unsorted adjacent keys. A `scan` must list
//! the spec, each value being what `lookup` returns for its key. A second
//! property
//! draws runs shaped to straddle every partition the delete path has and
//! checks them against `reference::delete_per_key`.

mod support;

use repdir::baselines::reference::delete_per_key;
use repdir::core::proptest_mini::collection::vec;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::SuiteConfig;
use repdir::core::{Key, SuiteError, UserKey, Value, Version, INLINE_VALUE_MAX};
use repdir::rangelock::{KeyRange, LockMode};
use repdir::workload::spec::{self, Answer, Kind, Op, Shape, Spec, CHUNK_STRADDLE};
use support::{permutation, Footprint, World};

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

/// Shapes: `dense_u8` (240 cases), `chunk_straddle` and `inline_straddle`.
#[test]
fn bulk_delete_is_the_per_key_loop_and_scan_lists_the_model() {
    const MIX: &[(u32, Kind)] = &[
        (3, Kind::Insert),
        (1, Kind::Update),
        (1, Kind::Delete),
        (2, Kind::DeleteMany),
        (1, Kind::Scan),
        (1, Kind::InsertMany),
    ];
    let mut shapes = vec![(Shape::DenseU8(12), 240), (Shape::InlineStraddle(12), 3)];
    shapes.extend(CHUNK_STRADDLE.map(|n| (Shape::ChunkStraddle(n), 3)));
    spec::check(
        &shapes,
        |shape| {
            (
                // An operation and the seed its quorums are drawn from.
                vec((shape.op(MIX).batch(1..7), any::<u64>()), 1..36),
                any::<bool>(),
                1usize..4,
                0usize..3,
            )
        },
        |_, (history, wide, neighbor_batch, chunk_choice)| {
            let (n, r, w) = if wide { (5, 2, 4) } else { (3, 2, 2) };
            let config = SuiteConfig::symmetric(n, r, w).expect("legal config");
            let bulk_chunk = [2, 3, 64][chunk_choice];
            let mut batch = World::new(&config, neighbor_batch, bulk_chunk);
            let mut looped = World::new(&config, neighbor_batch, bulk_chunk);
            let mut spec = Spec::new();

            for (op, seed) in &history {
                let read = permutation(n as usize, *seed);
                let write = permutation(n as usize, seed.rotate_left(17) ^ 0xD1);
                match op {
                    Op::DeleteMany(keys) => {
                        let (a, held_a) = batch.transact(&read, &write, |s| {
                            s.delete_many(keys).map(|out| out.versions)
                        });
                        // The loop, in one transaction so its locks add up;
                        // a failing key leaves the versions of the prefix
                        // behind.
                        let mut versions: Vec<Version> = Vec::new();
                        let (b, held_b) = looped.transact(&read, &write, |s| {
                            for key in keys {
                                versions.push(s.delete(key)?.gap_version);
                            }
                            Ok(())
                        });
                        let expect = spec.apply(op);
                        let looped_reply = b.clone().map(|()| Answer::Done);
                        prop_assert_eq!(looped_reply, expect.clone(), "the loop, {:?}", op);
                        match &a {
                            Ok(assigned) => prop_assert_eq!(assigned, &versions, "{:?}", op),
                            Err(e) => prop_assert_eq!(Err(e.clone()), expect, "{:?}", op),
                        }
                        prop_assert_eq!(a.is_ok(), b.is_ok(), "{:?}", op);
                        for (i, (batch, looped)) in held_a.iter().zip(&held_b).enumerate() {
                            // A chain of b > 1 reads up to b - 1 elements
                            // past the real neighbour; which ones depends on
                            // when it was read, so only the unbatched walk —
                            // which reads what Fig. 12 needs and no more — is
                            // compared.
                            let needed = looped.iter().filter(|_| neighbor_batch == 1);
                            for (mode, range) in needed {
                                prop_assert!(
                                    covered(batch, *mode, range),
                                    "member {} holds no {}{:?} for the batch {:?}: {:?} vs {:?}",
                                    i,
                                    mode,
                                    range,
                                    op,
                                    batch,
                                    looped
                                );
                            }
                            let modified =
                                batch.iter().filter(|(mode, _)| *mode == LockMode::Modify);
                            for lock in modified {
                                prop_assert!(
                                    looped.contains(lock),
                                    "member {} modified more than the loop for {:?}: {:?} vs {:?}",
                                    i,
                                    op,
                                    batch,
                                    looped
                                );
                            }
                        }
                    }
                    Op::Scan => {
                        let expect = spec.scan();
                        let (listed, _) = batch.transact(&read, &write, |s| {
                            let listed = s.scan()?;
                            // Same transaction, same held quorum: what a
                            // lookup of each key answers is what the scan
                            // listed.
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
                    op => {
                        let expect = spec.apply(op);
                        for world in [&mut batch, &mut looped] {
                            let (out, _) = world.transact(&read, &write, |s| op.run(s));
                            prop_assert_eq!(&out, &expect, "{:?}", op);
                        }
                    }
                }
                // Same quorums, same writes: the representatives never
                // differ.
                for (a, b) in batch.reps.iter().zip(&looped.reps) {
                    prop_assert!(
                        a.snapshot() == b.snapshot(),
                        "{:?} diverged at {:?}",
                        a.id(),
                        op
                    );
                }
            }

            let everyone: Vec<usize> = (0..n as usize).collect();
            let (listed, _) = batch.transact(&everyone, &everyone, |s| s.scan());
            prop_assert_eq!(listed, Ok(spec.scan()));
        },
    );
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

/// The runs the run property draws. Every run is `len` adjacent keys
/// between two surviving outer neighbours, with one more survivor beyond
/// each, on slots a [`Shape`] places.
#[derive(Clone, Debug)]
struct Run {
    /// One of `CHUNK_STRADDLE`: one key, and one short of, at, one past and
    /// two windows past `bulk_chunk` = 64.
    len: usize,
    ghosts: Ghosts,
    flaw: Flaw,
    /// Slots placed by `Shape::Spread`, across as many of the 256 summary
    /// buckets as there are slots (all of them from 256 slots on), rather
    /// than by `Shape::DenseU8`, packed into bucket 0.
    spread: bool,
    /// The batch lists the run from its highest key down.
    down: bool,
    /// The outer neighbours' values are `INLINE_VALUE_MAX + 1` bytes, one
    /// too many to ride a chain, rather than `INLINE_VALUE_MAX`.
    large_neighbours: bool,
}

fn run_strategy() -> impl Strategy<Value = Run> {
    let lens = 0..CHUNK_STRADDLE.len();
    (lens, 0usize..3, 0usize..3, any::<u8>()).prop_map(|(len, ghosts, flaw, bits)| Run {
        len: CHUNK_STRADDLE[len],
        ghosts: [Ghosts::None, Ghosts::Inside, Ghosts::AtTheEnds][ghosts],
        flaw: [Flaw::None, Flaw::Absent, Flaw::Duplicate][flaw],
        spread: bits & 1 != 0,
        down: bits & 2 != 0,
        large_neighbours: bits & 4 != 0,
    })
}

/// The keys of a [`Run`], in key order.
struct Layout {
    /// Survivors: the two outer neighbours and one key beyond each.
    kept: Vec<Key>,
    /// The run, lowest key first.
    run: Vec<Key>,
    ghosts: Vec<Key>,
}

impl Run {
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
        let placement = match self.spread {
            true => Shape::Spread(slots.len()),
            false => Shape::DenseU8(slots.len()),
        };
        let mut layout = Layout {
            kept: Vec::new(),
            run: Vec::new(),
            ghosts: Vec::new(),
        };
        for (i, kind) in slots.into_iter().enumerate() {
            let key = placement.key(i);
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
    /// replicas, the spec listed, and no `RepModify` lock the loop does not
    /// take. Every operation draws its own quorums. Shapes: runs of
    /// `chunk_straddle` lengths on `dense_u8` or `spread` slots, beside
    /// neighbours on both sides of the inline bound.
    #[test]
    fn runs_straddling_every_partition_delete_as_the_per_key_loop(
        shape in run_strategy(),
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
        let mut spec = Spec::new();
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
            spec.insert_many(insert).expect("fresh keys");
        }
        // The ghosts are deleted through a quorum that leaves them behind at
        // the members outside it.
        let (read, write) = quorums();
        for world in [&mut batch, &mut looped] {
            let (out, _) = world.transact(&read, &write, |s| s.delete_many(&layout.ghosts));
            prop_assert!(out.is_ok(), "{:?} ghosts: {:?}", shape, out);
        }
        spec.delete_many(&layout.ghosts).expect("present keys");

        let keys = shape.batch(&doomed, &absent);
        let (read, write) = quorums();
        let (a, held_a) = batch.transact(&read, &write, |s| s.delete_many(&keys));
        let (b, held_b) = looped.transact(&read, &write, |s| delete_per_key(s, &keys));
        prop_assert_eq!(&a, &b, "{:?}", shape);
        prop_assert_eq!(a.map(drop), spec.delete_many(&keys), "{:?}", shape);
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
        let everyone: Vec<usize> = (0..n as usize).collect();
        let (scanned, _) = batch.transact(&everyone, &everyone, |s| s.scan());
        prop_assert_eq!(scanned, Ok(spec.scan()), "{:?}", shape);
    }
}
