//! The directory's sequential specification, and the key shapes property
//! tests draw from.
//!
//! [`Spec`] is the paper's sequential directory (§2, Figs. 8–13) as code: a
//! map from keys to values serving every [`Op`], with the suite's per-key
//! errors. `AlreadyExists`, `NotFound` and `SentinelKey` name the offending
//! key; a bulk operation is the per-key loop, stopping at its first failing
//! key with every earlier key applied; a neighbour of nothing is the
//! sentinel, with an empty value. A [`Reply`] is the abstract outcome only:
//! versions and quorums belong to the system. A property reads: the
//! system's reply ([`Op::run`]) equals `spec.apply(&op)`.
//!
//! A [`Shape`] says where a property's keys lie, how large its values are
//! and how long its batches run, so that a property can straddle the
//! partitions the code has: the 256 summary buckets, the 64-entry chunk,
//! the 512-entry pull cap and the 64-byte inline bound. [`Shape::op`] draws
//! a shape's operations on `proptest_mini`; [`check`] runs a property a
//! number of cases per shape, each failing input naming its shape.
//!
//! # Examples
//!
//! ```
//! use repdir_core::suite::{DirSuite, SuiteConfig};
//! use repdir_core::Key;
//! use repdir_workload::spec::{Op, Shape, Spec};
//!
//! let shape = Shape::Spread(16);
//! let mut suite = DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2)?, 7)?;
//! let mut spec = Spec::new();
//! for op in [
//!     Op::Insert(shape.key(3), shape.value(1)),
//!     Op::Insert(shape.key(3), shape.value(2)),
//!     Op::RealSuccessor(Key::Low),
//!     Op::DeleteMany(vec![shape.key(3), shape.key(4)]),
//!     Op::Scan,
//! ] {
//!     assert_eq!(op.run(&mut suite), spec.apply(&op), "{op:?}");
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::iter::repeat_n;
use std::ops::{Bound, Range};

use repdir_core::proptest_mini::{self, Just, ProptestConfig, Strategy};
use repdir_core::rng::SplitMix64;
use repdir_core::suite::DirSuite;
use repdir_core::{Key, RepClient, SuiteError, UserKey, Value, INLINE_VALUE_MAX};

/// One directory operation, as a client issues it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `DirSuiteLookup(key)` (Fig. 8).
    Lookup(Key),
    /// `DirSuiteInsert(key, value)` (Fig. 9).
    Insert(Key, Value),
    /// Replaces a present entry's value.
    Update(Key, Value),
    /// `DirSuiteDelete(key)` (Fig. 13).
    Delete(Key),
    /// Every entry, in key order.
    Scan,
    /// `RealPredecessor(key)` (Fig. 12): the closest present entry below.
    RealPredecessor(Key),
    /// `RealSuccessor(key)`: the closest present entry above.
    RealSuccessor(Key),
    /// `insert` of each entry in order, stopping at the first failure.
    InsertMany(Vec<(Key, Value)>),
    /// `delete` of each key in order, stopping at the first failure.
    DeleteMany(Vec<Key>),
}

/// What an operation answers, short of versions and quorums.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A lookup: the value, when the key is present.
    Found(Option<Value>),
    /// A write applied.
    Done,
    /// A scan: every entry, in key order.
    Listing(Vec<(UserKey, Value)>),
    /// A neighbour search: the real neighbour and its value.
    Neighbor(Key, Value),
}

/// An operation's abstract outcome.
pub type Reply = Result<Answer, SuiteError>;

impl Op {
    /// The operation's reply from `suite`, abstracted as [`Spec::apply`]
    /// answers.
    pub fn run<C: RepClient>(&self, suite: &mut DirSuite<C>) -> Reply {
        Ok(match self {
            Op::Lookup(key) => Answer::Found(suite.lookup(key)?.value),
            Op::Insert(key, value) => suite.insert(key, value).map(|_| Answer::Done)?,
            Op::Update(key, value) => suite.update(key, value).map(|_| Answer::Done)?,
            Op::Delete(key) => suite.delete(key).map(|_| Answer::Done)?,
            Op::Scan => Answer::Listing(suite.scan()?),
            Op::RealPredecessor(key) => neighbor(suite.real_predecessor(key)?),
            Op::RealSuccessor(key) => neighbor(suite.real_successor(key)?),
            Op::InsertMany(entries) => suite.insert_many(entries).map(|_| Answer::Done)?,
            Op::DeleteMany(keys) => suite.delete_many(keys).map(|_| Answer::Done)?,
        })
    }
}

fn neighbor(found: repdir_core::suite::NeighborSearch) -> Answer {
    let value = found
        .value
        .expect("a neighbour search answers with a value");
    Answer::Neighbor(found.key, value)
}

/// The directory as a sequential map from user keys to values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Spec {
    entries: BTreeMap<UserKey, Value>,
}

impl Spec {
    /// The empty directory.
    pub fn new() -> Spec {
        Spec::default()
    }

    /// Applies `op` and returns its reply.
    pub fn apply(&mut self, op: &Op) -> Reply {
        Ok(match op {
            Op::Lookup(key) => Answer::Found(self.lookup(key)),
            Op::Insert(key, value) => self.insert(key, value).map(|()| Answer::Done)?,
            Op::Update(key, value) => self.update(key, value).map(|()| Answer::Done)?,
            Op::Delete(key) => self.delete(key).map(|()| Answer::Done)?,
            Op::Scan => Answer::Listing(self.scan()),
            Op::RealPredecessor(key) => {
                let (key, value) = self.real_predecessor(key)?;
                Answer::Neighbor(key, value)
            }
            Op::RealSuccessor(key) => {
                let (key, value) = self.real_successor(key)?;
                Answer::Neighbor(key, value)
            }
            Op::InsertMany(entries) => self.insert_many(entries).map(|()| Answer::Done)?,
            Op::DeleteMany(keys) => self.delete_many(keys).map(|()| Answer::Done)?,
        })
    }

    /// `op` less what would make it fail here: a point write that would
    /// fail becomes a lookup of its key, and a batch keeps the entries its
    /// loop would apply. A workload that wants every write to land draws
    /// through this.
    pub fn narrow(&self, op: Op) -> Op {
        let mut probe = self.clone();
        match op {
            Op::InsertMany(entries) => Op::InsertMany(
                entries
                    .into_iter()
                    .filter(|(key, value)| probe.insert(key, value).is_ok())
                    .collect(),
            ),
            Op::DeleteMany(keys) => Op::DeleteMany(
                keys.into_iter()
                    .filter(|key| probe.delete(key).is_ok())
                    .collect(),
            ),
            Op::Insert(key, _) | Op::Update(key, _) | Op::Delete(key)
                if probe.apply(&op).is_err() =>
            {
                Op::Lookup(key)
            }
            op => op,
        }
    }

    /// The value of `key`, if present. A sentinel is present with an empty
    /// value.
    pub fn lookup(&self, key: &Key) -> Option<Value> {
        match key {
            Key::User(user) => self.entries.get(user).cloned(),
            _ => Some(Value::empty()),
        }
    }

    /// Adds an entry for an absent key; `AlreadyExists` for a present one.
    pub fn insert(&mut self, key: &Key, value: &Value) -> Result<(), SuiteError> {
        let user = user_key(key)?;
        if self.entries.contains_key(user) {
            return Err(SuiteError::AlreadyExists { key: key.clone() });
        }
        self.entries.insert(user.clone(), value.clone());
        Ok(())
    }

    /// Replaces a present entry's value; `NotFound` for an absent key.
    pub fn update(&mut self, key: &Key, value: &Value) -> Result<(), SuiteError> {
        let slot = self.entries.get_mut(user_key(key)?);
        let slot = slot.ok_or_else(|| SuiteError::NotFound { key: key.clone() })?;
        *slot = value.clone();
        Ok(())
    }

    /// Removes a present entry; `NotFound` for an absent key.
    pub fn delete(&mut self, key: &Key) -> Result<(), SuiteError> {
        match self.entries.remove(user_key(key)?) {
            Some(_) => Ok(()),
            None => Err(SuiteError::NotFound { key: key.clone() }),
        }
    }

    /// Every entry, in key order.
    pub fn scan(&self) -> Vec<(UserKey, Value)> {
        self.entries
            .iter()
            .map(|(key, value)| (key.clone(), value.clone()))
            .collect()
    }

    /// The closest entry below `key`, else `LOW`; `SentinelKey` for `LOW`.
    pub fn real_predecessor(&self, key: &Key) -> Result<(Key, Value), SuiteError> {
        let below = match key {
            Key::Low => return Err(SuiteError::SentinelKey { key: Key::Low }),
            Key::User(user) => self.entries.range::<UserKey, _>(..user).next_back(),
            Key::High => self.entries.iter().next_back(),
        };
        Ok(entry_or(below, Key::Low))
    }

    /// The closest entry above `key`, else `HIGH`; `SentinelKey` for `HIGH`.
    pub fn real_successor(&self, key: &Key) -> Result<(Key, Value), SuiteError> {
        let above = match key {
            Key::High => return Err(SuiteError::SentinelKey { key: Key::High }),
            Key::User(user) => {
                let after = (Bound::Excluded(user), Bound::Unbounded);
                self.entries.range::<UserKey, _>(after).next()
            }
            Key::Low => self.entries.iter().next(),
        };
        Ok(entry_or(above, Key::High))
    }

    /// [`insert`](Spec::insert) of each entry in order, stopping at the
    /// first error with every earlier entry inserted.
    pub fn insert_many(&mut self, entries: &[(Key, Value)]) -> Result<(), SuiteError> {
        entries
            .iter()
            .try_for_each(|(key, value)| self.insert(key, value))
    }

    /// [`delete`](Spec::delete) of each key in order, stopping at the first
    /// error with every earlier key deleted.
    pub fn delete_many(&mut self, keys: &[Key]) -> Result<(), SuiteError> {
        keys.iter().try_for_each(|key| self.delete(key))
    }
}

fn user_key(key: &Key) -> Result<&UserKey, SuiteError> {
    match key {
        Key::User(user) => Ok(user),
        _ => Err(SuiteError::SentinelKey { key: key.clone() }),
    }
}

fn entry_or(entry: Option<(&UserKey, &Value)>, sentinel: Key) -> (Key, Value) {
    match entry {
        Some((key, value)) => (Key::User(key.clone()), value.clone()),
        None => (sentinel, Value::empty()),
    }
}

/// Run lengths around the default `bulk_chunk` of 64: the bare one-op
/// envelope, one short of, at, one past and two windows past a chunk.
pub const CHUNK_STRADDLE: [usize; 5] = [1, 63, 64, 65, 129];

/// Entry counts around the 512 entries one repair pull returns at most
/// (`repdir_repair::MAX_PULL_ENTRIES`).
pub const PULL_CAP_STRADDLE: [usize; 3] = [511, 512, 513];

/// Slots in the top 14 bits of a big-endian 8-byte key, as the benchmark
/// lays its keys out: key order is slot order, and the leading byte — the
/// summary bucket — takes all 256 values.
const SPREAD_SHIFT: u32 = 50;
const SPREAD_SLOTS: usize = 1 << 14;

/// Where a property's keys lie, how large its values are and how long its
/// batches run. Each shape has [`slots`](Shape::slots) keys, the `i`th
/// rising with `i`, and a value per byte `v`: `[v]`, save where named.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `dense_u8`: keys `UserKey::from_u64(0..n)`. Every key is in summary
    /// bucket 0, and a listing of them is one chunk while `n` < 64.
    DenseU8(usize),
    /// `spread`: `n` keys evenly over 2^14 slots in the top bits, so that
    /// from `n` = 256 on the leading bytes take all 256 buckets.
    Spread(usize),
    /// `bucket_straddle`: the adjacent keys `[e - 1, 0xff, 0xff]` and `[e]`
    /// on both sides of `n` summary-bucket edges `e`, spread from the edge
    /// out of bucket 0 to the edge into bucket 255.
    BucketStraddle(usize),
    /// `chunk_straddle`: `2n` dense keys, whose batches are runs of `n`
    /// consecutive keys from anywhere (wrapping past the last). `n` is one
    /// of [`CHUNK_STRADDLE`].
    ChunkStraddle(usize),
    /// `pull_cap_straddle`: as `ChunkStraddle(n)`, for `n` one of
    /// [`PULL_CAP_STRADDLE`]: a batch moves one pull's worth of entries.
    PullCapStraddle(usize),
    /// `inline_straddle`: `n` dense keys whose values are
    /// `INLINE_VALUE_MAX - 1`, `INLINE_VALUE_MAX` or `INLINE_VALUE_MAX + 1`
    /// bytes (63, 64 or 65): on both sides of the largest value a chain
    /// reply carries.
    InlineStraddle(usize),
}

impl Shape {
    /// How many keys the shape draws from.
    pub fn slots(&self) -> usize {
        match *self {
            Shape::DenseU8(n) | Shape::Spread(n) | Shape::InlineStraddle(n) => n,
            Shape::BucketStraddle(n) | Shape::ChunkStraddle(n) | Shape::PullCapStraddle(n) => 2 * n,
        }
    }

    /// The `i`th key, `i` below [`slots`](Shape::slots).
    pub fn key(&self, i: usize) -> Key {
        debug_assert!(i < self.slots(), "{self:?} has no key {i}");
        Key::User(match *self {
            Shape::Spread(n) => UserKey::from_u64(((i * SPREAD_SLOTS / n) as u64) << SPREAD_SHIFT),
            Shape::BucketStraddle(n) => {
                // Edges 1..=255, `n` of them evenly; the low key of each pair
                // ends the bucket below the edge, the high key opens it.
                let edge = 1 + (i / 2) * 254 / (n - 1).max(1);
                match i % 2 {
                    0 => UserKey::new(vec![edge as u8 - 1, 0xff, 0xff]),
                    _ => UserKey::new(vec![edge as u8]),
                }
            }
            _ => UserKey::from_u64(i as u64),
        })
    }

    /// Every key, in key order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        (0..self.slots()).map(|i| self.key(i))
    }

    /// The value drawn as byte `v`.
    pub fn value(&self, v: u8) -> Value {
        let len = match self {
            Shape::InlineStraddle(_) => INLINE_VALUE_MAX - 1 + usize::from(v % 3),
            _ => 1,
        };
        Value::from(vec![v; len])
    }

    /// Operations over the shape's keys and values, of the kinds in `mix`,
    /// each drawn in proportion to its weight.
    pub fn op(&self, mix: &'static [(u32, Kind)]) -> Ops {
        assert!(mix.iter().any(|(weight, _)| *weight > 0), "an empty mix");
        Ops {
            shape: *self,
            mix,
            batch: 1..8,
        }
    }
}

/// An operation kind an [`Ops`] strategy draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// [`Op::Lookup`].
    Lookup,
    /// [`Op::Insert`].
    Insert,
    /// [`Op::Update`].
    Update,
    /// [`Op::Delete`].
    Delete,
    /// [`Op::Scan`].
    Scan,
    /// [`Op::RealPredecessor`], from a key of the shape or a sentinel.
    RealPredecessor,
    /// [`Op::RealSuccessor`], from a key of the shape or a sentinel.
    RealSuccessor,
    /// [`Op::InsertMany`].
    InsertMany,
    /// [`Op::DeleteMany`].
    DeleteMany,
}

/// The four point operations, evenly.
pub const POINT: &[(u32, Kind)] = &[
    (1, Kind::Insert),
    (1, Kind::Update),
    (1, Kind::Delete),
    (1, Kind::Lookup),
];

/// A strategy for the operations of one [`Shape`] (see [`Shape::op`]).
///
/// A batch of a `ChunkStraddle` or `PullCapStraddle` shape is a run of its
/// `n` consecutive keys; any other shape's batch is keys drawn one by one,
/// so it may repeat a key, and its length comes from
/// [`batch`](Ops::batch) (`1..8` unless set).
#[derive(Clone, Debug)]
pub struct Ops {
    shape: Shape,
    mix: &'static [(u32, Kind)],
    batch: Range<usize>,
}

impl Ops {
    /// Batches of a length drawn from `len`, where the shape fixes none.
    pub fn batch(self, len: Range<usize>) -> Ops {
        Ops { batch: len, ..self }
    }

    /// Draws one operation.
    pub fn draw(&self, rng: &mut SplitMix64) -> Op {
        let total: u32 = self.mix.iter().map(|(weight, _)| weight).sum();
        let pick = rng.next_below(u64::from(total)) as usize;
        let mut weighted = self
            .mix
            .iter()
            .flat_map(|&(w, kind)| repeat_n(kind, w as usize));
        let kind = weighted
            .nth(pick)
            .expect("the pick is below the total weight");
        let shape = &self.shape;
        let slots = shape.slots() as u64;
        let key = |rng: &mut SplitMix64| shape.key(rng.next_below(slots) as usize);
        match kind {
            Kind::Lookup => Op::Lookup(key(rng)),
            Kind::Insert => Op::Insert(key(rng), shape.value(rng.next_u64() as u8)),
            Kind::Update => Op::Update(key(rng), shape.value(rng.next_u64() as u8)),
            Kind::Delete => Op::Delete(key(rng)),
            Kind::Scan => Op::Scan,
            Kind::RealPredecessor => Op::RealPredecessor(self.probe(rng)),
            Kind::RealSuccessor => Op::RealSuccessor(self.probe(rng)),
            Kind::InsertMany => Op::InsertMany(
                self.batch_keys(rng)
                    .into_iter()
                    .map(|k| (k, shape.value(rng.next_u64() as u8)))
                    .collect(),
            ),
            Kind::DeleteMany => Op::DeleteMany(self.batch_keys(rng)),
        }
    }

    /// A neighbour search's key: one of the shape's, or either sentinel.
    fn probe(&self, rng: &mut SplitMix64) -> Key {
        let slots = self.shape.slots();
        match rng.next_below(slots as u64 + 2) as usize {
            i if i < slots => self.shape.key(i),
            i if i == slots => Key::Low,
            _ => Key::High,
        }
    }

    fn batch_keys(&self, rng: &mut SplitMix64) -> Vec<Key> {
        let slots = self.shape.slots();
        match self.shape {
            Shape::ChunkStraddle(n) | Shape::PullCapStraddle(n) => {
                let start = rng.next_below(slots as u64) as usize;
                (start..start + n)
                    .map(|i| self.shape.key(i % slots))
                    .collect()
            }
            _ => {
                let len = self.batch.generate(rng);
                (0..len)
                    .map(|_| self.shape.key(rng.next_below(slots as u64) as usize))
                    .collect()
            }
        }
    }
}

impl Strategy for Ops {
    type Value = Op;
    fn generate(&self, rng: &mut SplitMix64) -> Op {
        self.draw(rng)
    }
}

/// Runs a property on `cases` inputs of each `(shape, cases)` in `shapes`,
/// in turn: an input is the shape and a value of `strategy(shape)`, so a
/// failure's minimal input names its shape. Seeds and shrinking are
/// [`proptest_mini::run`]'s.
pub fn check<S: Strategy>(
    shapes: &[(Shape, u32)],
    strategy: impl Fn(Shape) -> S,
    test: impl Fn(Shape, S::Value),
) {
    for &(shape, cases) in shapes {
        proptest_mini::run(
            ProptestConfig::with_cases(cases),
            (Just(shape), strategy(shape)),
            |(shape, value)| test(shape, value),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repdir_core::suite::SuiteConfig;
    use std::collections::BTreeSet;

    fn key(s: &str) -> Key {
        Key::from(s)
    }

    fn val(s: &str) -> Value {
        Value::from(s)
    }

    fn spec_of(keys: &[&str]) -> Spec {
        let mut spec = Spec::new();
        for k in keys {
            spec.insert(&key(k), &val(k)).unwrap();
        }
        spec
    }

    #[test]
    fn point_errors_name_the_key() {
        let mut spec = spec_of(&["b"]);
        let exists = Err(SuiteError::AlreadyExists { key: key("b") });
        let missing = Err(SuiteError::NotFound { key: key("a") });
        assert_eq!(spec.apply(&Op::Insert(key("b"), val("x"))), exists);
        assert_eq!(spec.apply(&Op::Update(key("a"), val("x"))), missing);
        assert_eq!(spec.apply(&Op::Delete(key("a"))), missing);
        for s in [Key::Low, Key::High] {
            let err = Err(SuiteError::SentinelKey { key: s.clone() });
            for op in [
                Op::Insert(s.clone(), val("x")),
                Op::Update(s.clone(), val("x")),
                Op::Delete(s.clone()),
                Op::InsertMany(vec![(s.clone(), val("x"))]),
                Op::DeleteMany(vec![s.clone()]),
            ] {
                assert_eq!(spec.apply(&op), err, "{op:?}");
            }
            let empty = Ok(Answer::Found(Some(Value::empty())));
            assert_eq!(spec.apply(&Op::Lookup(s)), empty);
        }
        assert_eq!(spec, spec_of(&["b"]), "no failed write changed anything");
        assert_eq!(
            spec.apply(&Op::Update(key("b"), val("y"))),
            Ok(Answer::Done)
        );
        assert_eq!(spec.lookup(&key("b")), Some(val("y")));
        assert_eq!(spec.apply(&Op::Lookup(key("c"))), Ok(Answer::Found(None)));
    }

    #[test]
    fn a_bulk_op_stops_at_its_first_failure_with_the_prefix_applied() {
        let mut spec = spec_of(&["c"]);
        let entries = ["a", "b", "c", "d"].map(|k| (key(k), val(k))).to_vec();
        let exists = |k| Err(SuiteError::AlreadyExists { key: key(k) });
        assert_eq!(spec.apply(&Op::InsertMany(entries)), exists("c"));
        assert_eq!(spec, spec_of(&["a", "b", "c"]));
        // A repeated key fails its second occurrence, as the loop would.
        let twice = [(key("e"), val("e")), (key("e"), val("e"))];
        assert_eq!(
            spec.insert_many(&twice),
            Err(SuiteError::AlreadyExists { key: key("e") })
        );
        let doomed = ["a", "e", "z", "b"].map(key).to_vec();
        let missing = Err(SuiteError::NotFound { key: key("z") });
        assert_eq!(spec.apply(&Op::DeleteMany(doomed)), missing);
        assert_eq!(spec, spec_of(&["b", "c"]));
        let high = Err(SuiteError::SentinelKey { key: Key::High });
        assert_eq!(spec.delete_many(&[key("b"), Key::High]), high);
        assert_eq!(spec, spec_of(&["c"]));
        assert_eq!(spec.apply(&Op::InsertMany(Vec::new())), Ok(Answer::Done));
    }

    #[test]
    fn narrow_keeps_only_what_lands() {
        let spec = spec_of(&["b"]);
        let (a, b) = (key("a"), key("b"));
        for (op, narrowed) in [
            (Op::Insert(b.clone(), val("x")), Op::Lookup(b.clone())),
            (Op::Update(a.clone(), val("x")), Op::Lookup(a.clone())),
            (Op::Delete(Key::Low), Op::Lookup(Key::Low)),
            (
                Op::Insert(a.clone(), val("x")),
                Op::Insert(a.clone(), val("x")),
            ),
            (
                Op::InsertMany(["1", "2", "3"].map(|v| (a.clone(), val(v))).to_vec()),
                Op::InsertMany(vec![(a.clone(), val("1"))]),
            ),
            (
                Op::DeleteMany(vec![a, b.clone(), b.clone()]),
                Op::DeleteMany(vec![b]),
            ),
        ] {
            assert_eq!(spec.narrow(op.clone()), narrowed, "{op:?}");
            assert!(spec.clone().apply(&narrowed).is_ok(), "{narrowed:?}");
        }
    }

    #[test]
    fn neighbours_of_an_empty_directory_are_the_sentinels() {
        let spec = Spec::new();
        let sentinel = |k: Key| Ok((k, Value::empty()));
        for probe in [key("m"), Key::High] {
            assert_eq!(spec.real_predecessor(&probe), sentinel(Key::Low));
        }
        for probe in [key("m"), Key::Low] {
            assert_eq!(spec.real_successor(&probe), sentinel(Key::High));
        }
        let low = Err(SuiteError::SentinelKey { key: Key::Low });
        assert_eq!(Spec::new().apply(&Op::RealPredecessor(Key::Low)), low);
        let high = Err(SuiteError::SentinelKey { key: Key::High });
        assert_eq!(Spec::new().apply(&Op::RealSuccessor(Key::High)), high);
        assert_eq!(
            Spec::new().apply(&Op::Scan),
            Ok(Answer::Listing(Vec::new()))
        );
    }

    #[test]
    fn neighbours_skip_to_the_closest_present_entry() {
        let mut spec = spec_of(&["b", "d", "f"]);
        spec.delete(&key("d")).unwrap();
        let at = |k: &str| Ok((key(k), val(k)));
        assert_eq!(spec.real_predecessor(&key("f")), at("b"));
        assert_eq!(spec.real_predecessor(&key("e")), at("b"));
        assert_eq!(spec.real_predecessor(&Key::High), at("f"));
        assert_eq!(spec.real_successor(&key("b")), at("f"));
        assert_eq!(spec.real_successor(&Key::Low), at("b"));
        assert_eq!(
            spec.real_successor(&key("f")),
            Ok((Key::High, Value::empty()))
        );
        let neighbor = spec.apply(&Op::RealPredecessor(key("b")));
        assert_eq!(neighbor, Ok(Answer::Neighbor(Key::Low, Value::empty())));
    }

    #[test]
    fn the_suite_answers_as_the_spec() {
        let everything = &[
            (3, Kind::Insert),
            (1, Kind::Update),
            (1, Kind::Delete),
            (1, Kind::Lookup),
            (1, Kind::Scan),
            (1, Kind::RealPredecessor),
            (1, Kind::RealSuccessor),
            (1, Kind::InsertMany),
            (1, Kind::DeleteMany),
        ];
        let ops = Shape::InlineStraddle(24).op(everything);
        let config = SuiteConfig::symmetric(3, 2, 2).unwrap();
        let mut suite = DirSuite::in_process(config, 5).unwrap();
        let (mut spec, mut rng) = (Spec::new(), SplitMix64::new(11));
        for _ in 0..200 {
            let op = ops.draw(&mut rng);
            assert_eq!(op.run(&mut suite), spec.apply(&op), "{op:?}");
        }
        assert!(!spec.scan().is_empty());
    }

    #[test]
    fn shapes_rise_with_their_index_and_straddle_their_partitions() {
        for shape in [
            Shape::DenseU8(24),
            Shape::Spread(300),
            Shape::BucketStraddle(12),
            Shape::ChunkStraddle(65),
            Shape::PullCapStraddle(513),
            Shape::InlineStraddle(8),
        ] {
            let keys: Vec<Key> = shape.keys().collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{shape:?}");
        }
        let bucket = |key: Key| match key {
            Key::User(user) => user.as_bytes()[0],
            _ => unreachable!(),
        };
        let spread: BTreeSet<u8> = Shape::Spread(300).keys().map(bucket).collect();
        assert_eq!(spread.len(), 256, "spread keys take every bucket");
        let straddle: Vec<u8> = Shape::BucketStraddle(12).keys().map(bucket).collect();
        assert_eq!(
            (&straddle[..2], &straddle[22..]),
            (&[0, 1][..], &[254, 255][..])
        );
        assert!(Shape::DenseU8(24).keys().all(|k| bucket(k) == 0));
        let sizes: BTreeSet<usize> = (0..=255)
            .map(|v| Shape::InlineStraddle(1).value(v).len())
            .collect();
        let bound = INLINE_VALUE_MAX;
        assert_eq!(sizes, BTreeSet::from([bound - 1, bound, bound + 1]));
        // A run-shaped batch is `n` distinct consecutive keys, wrapping.
        let ops = Shape::ChunkStraddle(64).op(&[(1, Kind::DeleteMany)]);
        let mut rng = SplitMix64::new(3);
        for _ in 0..32 {
            let Op::DeleteMany(keys) = ops.draw(&mut rng) else {
                unreachable!()
            };
            assert_eq!(keys.iter().collect::<BTreeSet<_>>().len(), 64);
        }
    }

    #[test]
    fn check_names_the_shape_of_a_failing_case() {
        let failed = std::panic::catch_unwind(|| {
            let shapes = [(Shape::DenseU8(4), 8), (Shape::Spread(4), 8)];
            check(
                &shapes,
                |shape| shape.op(POINT),
                |shape, _| assert!(!matches!(shape, Shape::Spread(_))),
            )
        });
        let message = *failed.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("Spread("), "{message}");
    }
}
