//! The representative-state abstraction: one interface over the two §5
//! representations, so the transactional stack can run on either.
//!
//! "We envision that directories could be represented as B-trees" (§5) —
//! with [`DirState`], a representative's durable state can be the
//! BTreeMap-backed [`GapMap`](repdir_core::GapMap) (simple, the default) or
//! the explicit [`GapBTree`] (the paper's suggested on-disk layout),
//! selected by [`Backend`]. [`UndoRecord`]s and [`apply_undo`] roll either
//! one back on abort.

use std::fmt;

use repdir_core::{
    CoalesceOutcome, GapMap, InsertOutcome, Key, LookupReply, NeighborReply, RemovedEntry,
    RepError, UserKey, Value, Version,
};

use crate::gapbtree::GapBTree;

/// Gap-versioned representative state: the five Fig. 6 operations plus the
/// recovery/undo primitives rollback and WAL replay need.
///
/// Implemented by [`GapMap`](repdir_core::GapMap) and [`GapBTree`]; the
/// property tests in this workspace verify the two are observationally
/// identical.
pub trait DirState: Send + fmt::Debug {
    /// `DirRepLookup(x)`.
    fn lookup(&self, key: &Key) -> LookupReply;

    /// `DirRepPredecessor(x)`.
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] for `LOW`.
    fn predecessor(&self, key: &Key) -> Result<NeighborReply, RepError>;

    /// `DirRepSuccessor(x)`.
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] for `HIGH`.
    fn successor(&self, key: &Key) -> Result<NeighborReply, RepError>;

    /// `DirRepInsert(x, v, z)`.
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] for sentinels.
    fn insert(
        &mut self,
        key: &Key,
        version: Version,
        value: Value,
    ) -> Result<InsertOutcome, RepError>;

    /// `DirRepCoalesce(l, h, v)`.
    ///
    /// # Errors
    ///
    /// [`RepError::InvalidRange`] / [`RepError::NoSuchBoundary`].
    fn coalesce(
        &mut self,
        low: &Key,
        high: &Key,
        version: Version,
    ) -> Result<CoalesceOutcome, RepError>;

    /// Number of stored entries.
    fn len(&self) -> usize;

    /// Whether no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reinstates an exact entry record (undo / replay).
    fn restore_entry(&mut self, key: UserKey, version: Version, value: Value, gap_after: Version);

    /// Removes an entry record outright (undo of a created insert).
    fn remove_entry_raw(&mut self, key: &UserKey) -> bool;

    /// Rewrites version/value leaving the trailing gap untouched (undo of
    /// an update).
    fn update_entry_raw(&mut self, key: &UserKey, version: Version, value: Value) -> bool;

    /// Sets the version of the gap after `low` (undo of a coalesce).
    ///
    /// # Errors
    ///
    /// As [`GapMap::set_gap_after`](repdir_core::GapMap::set_gap_after).
    fn set_gap_after(&mut self, low: &Key, version: Version) -> Result<(), RepError>;

    /// Version of the leading gap (between `LOW` and the first entry).
    fn low_gap(&self) -> Version;

    /// Visits entries with byte keys in `[low, high)` in key order as
    /// `(key, version, value, gap_after)`; `None` bounds run to the
    /// corresponding sentinel. Used by the repair subsystem to hash key
    /// ranges into summary-tree buckets without copying the state.
    fn visit_range(
        &self,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        visit: &mut dyn FnMut(&UserKey, Version, &Value, Version),
    );

    /// A [`GapMap`] copy of the full state (snapshots, checkpoints,
    /// cross-backend comparison).
    fn to_gapmap(&self) -> GapMap;

    /// Replaces the state with the contents of a [`GapMap`] (recovery).
    fn load(&mut self, map: &GapMap);
}

impl DirState for GapMap {
    fn lookup(&self, key: &Key) -> LookupReply {
        GapMap::lookup(self, key)
    }
    fn predecessor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        GapMap::predecessor(self, key)
    }
    fn successor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        GapMap::successor(self, key)
    }
    fn insert(
        &mut self,
        key: &Key,
        version: Version,
        value: Value,
    ) -> Result<InsertOutcome, RepError> {
        GapMap::insert(self, key, version, value)
    }
    fn coalesce(
        &mut self,
        low: &Key,
        high: &Key,
        version: Version,
    ) -> Result<CoalesceOutcome, RepError> {
        GapMap::coalesce(self, low, high, version)
    }
    fn len(&self) -> usize {
        GapMap::len(self)
    }
    fn restore_entry(&mut self, key: UserKey, version: Version, value: Value, gap_after: Version) {
        GapMap::restore_entry(self, key, version, value, gap_after);
    }
    fn remove_entry_raw(&mut self, key: &UserKey) -> bool {
        GapMap::remove_entry_raw(self, key)
    }
    fn update_entry_raw(&mut self, key: &UserKey, version: Version, value: Value) -> bool {
        GapMap::update_entry_raw(self, key, version, value)
    }
    fn set_gap_after(&mut self, low: &Key, version: Version) -> Result<(), RepError> {
        GapMap::set_gap_after(self, low, version)
    }
    fn low_gap(&self) -> Version {
        GapMap::low_gap(self)
    }
    fn visit_range(
        &self,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        visit: &mut dyn FnMut(&UserKey, Version, &Value, Version),
    ) {
        GapMap::range_scan(self, low, high, visit);
    }
    fn to_gapmap(&self) -> GapMap {
        self.clone()
    }
    fn load(&mut self, map: &GapMap) {
        *self = map.clone();
    }
}

impl DirState for GapBTree {
    fn lookup(&self, key: &Key) -> LookupReply {
        GapBTree::lookup(self, key)
    }
    fn predecessor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        GapBTree::predecessor(self, key)
    }
    fn successor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        GapBTree::successor(self, key)
    }
    fn insert(
        &mut self,
        key: &Key,
        version: Version,
        value: Value,
    ) -> Result<InsertOutcome, RepError> {
        GapBTree::insert(self, key, version, value)
    }
    fn coalesce(
        &mut self,
        low: &Key,
        high: &Key,
        version: Version,
    ) -> Result<CoalesceOutcome, RepError> {
        GapBTree::coalesce(self, low, high, version)
    }
    fn len(&self) -> usize {
        GapBTree::len(self)
    }
    fn restore_entry(&mut self, key: UserKey, version: Version, value: Value, gap_after: Version) {
        GapBTree::restore_entry(self, key, version, value, gap_after);
    }
    fn remove_entry_raw(&mut self, key: &UserKey) -> bool {
        GapBTree::remove_entry_raw(self, key)
    }
    fn update_entry_raw(&mut self, key: &UserKey, version: Version, value: Value) -> bool {
        GapBTree::update_entry_raw(self, key, version, value)
    }
    fn set_gap_after(&mut self, low: &Key, version: Version) -> Result<(), RepError> {
        GapBTree::set_gap_after(self, low, version)
    }
    fn low_gap(&self) -> Version {
        GapBTree::low_gap(self)
    }
    fn visit_range(
        &self,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        visit: &mut dyn FnMut(&UserKey, Version, &Value, Version),
    ) {
        GapBTree::range_scan(self, low, high, visit);
    }
    fn to_gapmap(&self) -> GapMap {
        let mut map = GapMap::new();
        for (key, version, value) in self.iter_collect() {
            map.restore_entry(key, version, value, Version::ZERO);
        }
        for gap in self.gaps() {
            map.set_gap_after(&gap.lower, gap.version)
                .expect("gap lower bound exists in copy");
        }
        map
    }
    fn load(&mut self, map: &GapMap) {
        // Rebuild from scratch; entries first, then gap versions.
        *self = GapBTree::new(self.order());
        for (key, version, value) in map.iter() {
            self.restore_entry(key.clone(), version, value.clone(), Version::ZERO);
        }
        for gap in map.gaps() {
            self.set_gap_after(&gap.lower, gap.version)
                .expect("gap lower bound exists in rebuilt tree");
        }
    }
}

/// Which representation backs a representative's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// `std::collections::BTreeMap`-backed [`GapMap`] (default).
    #[default]
    GapMap,
    /// The §5 explicit B-tree with the given node order.
    GapBTree {
        /// Maximum keys per node (min 3).
        order: usize,
    },
}

impl Backend {
    /// Instantiates an empty state of this backend.
    pub fn new_state(self) -> Box<dyn DirState> {
        match self {
            Backend::GapMap => Box::new(GapMap::new()),
            Backend::GapBTree { order } => Box::new(GapBTree::new(order)),
        }
    }
}

/// One logged inverse operation: the exact inverse of one of the two
/// mutating `DirRep*` operations, applied in reverse order on abort.
///
/// The mutating operations return enough information ([`InsertOutcome`],
/// [`CoalesceOutcome`]) to construct their inverses; [`undo_for_insert`]
/// and [`undo_for_coalesce`] do so, and [`apply_undo`] replays an inverse
/// against representative state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UndoRecord {
    /// Inverse of a `Created` insert: remove the entry, merging the split
    /// gap back (both halves kept the original version, so removal alone
    /// restores it).
    RemoveEntry {
        /// The key whose entry the insert created.
        key: UserKey,
    },
    /// Inverse of an `Updated` insert: restore the previous version and
    /// value (the gap structure never changed).
    RestoreEntryValue {
        /// The updated key.
        key: UserKey,
        /// Version before the update.
        version: Version,
        /// Value before the update.
        value: Value,
    },
    /// Inverse of a coalesce: re-create every removed entry with its exact
    /// record, then restore the old version of the gap after the lower
    /// boundary.
    UndoCoalesce {
        /// The coalesce's lower boundary.
        low: Key,
        /// Gap version after `low` before the coalesce.
        old_gap_version: Version,
        /// Full records of the removed entries.
        removed: Vec<RemovedEntry>,
    },
}

/// Builds the inverse of an insert from its key and outcome.
pub fn undo_for_insert(key: &Key, outcome: &InsertOutcome) -> UndoRecord {
    let user = key
        .as_user()
        .expect("insert only succeeds on user keys")
        .clone();
    match outcome {
        InsertOutcome::Created { .. } => UndoRecord::RemoveEntry { key: user },
        InsertOutcome::Updated {
            old_version,
            old_value,
        } => UndoRecord::RestoreEntryValue {
            key: user,
            version: *old_version,
            value: old_value.clone(),
        },
    }
}

/// Builds the inverse of a coalesce from its lower boundary and outcome.
pub fn undo_for_coalesce(low: &Key, outcome: &CoalesceOutcome) -> UndoRecord {
    UndoRecord::UndoCoalesce {
        low: low.clone(),
        old_gap_version: outcome.old_gap_version,
        removed: outcome.removed.clone(),
    }
}

/// Applies one inverse operation to representative state, on either
/// backend.
///
/// # Panics
///
/// Panics if the record does not match the state (e.g. undoing an insert
/// whose entry is gone) — that indicates records applied out of order, a
/// logic error rather than a runtime condition.
pub fn apply_undo(state: &mut dyn DirState, record: UndoRecord) {
    match record {
        UndoRecord::RemoveEntry { key } => {
            assert!(
                state.remove_entry_raw(&key),
                "undo RemoveEntry: no entry for {key:?}"
            );
        }
        UndoRecord::RestoreEntryValue {
            key,
            version,
            value,
        } => {
            assert!(
                state.update_entry_raw(&key, version, value),
                "undo RestoreEntryValue: no entry for {key:?}"
            );
        }
        UndoRecord::UndoCoalesce {
            low,
            old_gap_version,
            removed,
        } => {
            for r in removed {
                state.restore_entry(r.key, r.version, r.value, r.gap_after);
            }
            state
                .set_gap_after(&low, old_gap_version)
                .expect("undo UndoCoalesce: boundary vanished");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(n: u64) -> Version {
        Version::new(n)
    }
    fn val(s: &str) -> Value {
        Value::from(s)
    }

    fn exercise(state: &mut dyn DirState) {
        assert!(state.is_empty());
        state.insert(&k("a"), v(1), val("A")).unwrap();
        state.insert(&k("c"), v(1), val("C")).unwrap();
        state.insert(&k("b"), v(1), val("B")).unwrap();
        assert_eq!(state.len(), 3);
        assert!(state.lookup(&k("b")).is_present());
        assert_eq!(state.predecessor(&k("b")).unwrap().key, k("a"));
        assert_eq!(state.successor(&k("b")).unwrap().key, k("c"));
        let out = state.coalesce(&k("a"), &k("c"), v(2)).unwrap();
        assert_eq!(out.removed.len(), 1);
        assert_eq!(state.lookup(&k("b")).version(), v(2));
        // Recovery primitives.
        state.restore_entry(UserKey::from("b"), v(1), val("B"), v(0));
        assert!(state.update_entry_raw(&UserKey::from("b"), v(3), val("B3")));
        assert!(state.remove_entry_raw(&UserKey::from("b")));
        state.set_gap_after(&k("a"), v(4)).unwrap();
        assert_eq!(state.lookup(&k("b")).version(), v(4));
    }

    #[test]
    fn both_backends_satisfy_the_contract() {
        for backend in [Backend::GapMap, Backend::GapBTree { order: 4 }] {
            let mut state = backend.new_state();
            exercise(state.as_mut());
        }
    }

    #[test]
    fn to_gapmap_and_load_round_trip() {
        let mut tree = GapBTree::new(5);
        for key in ["m", "c", "x", "f"] {
            DirState::insert(&mut tree, &k(key), v(1), val(key)).unwrap();
        }
        DirState::coalesce(&mut tree, &k("c"), &k("m"), v(7)).unwrap();
        let map = DirState::to_gapmap(&tree);
        assert_eq!(map.len(), 3);
        assert_eq!(map.version_of(&k("g")), v(7));

        // Load the map into a fresh tree: observationally identical.
        let mut tree2 = GapBTree::new(3);
        DirState::load(&mut tree2, &map);
        assert_eq!(DirState::to_gapmap(&tree2), map);
        tree2.check_invariants().unwrap();

        // And into a fresh map.
        let mut map2 = GapMap::new();
        DirState::load(&mut map2, &map);
        assert_eq!(map2, map);
    }

    #[test]
    fn visit_range_is_half_open_and_backend_agnostic() {
        type Row = (UserKey, Version, Value, Version);
        fn collect(state: &dyn DirState, low: Option<&[u8]>, high: Option<&[u8]>) -> Vec<Row> {
            let mut rows = Vec::new();
            state.visit_range(low, high, &mut |k, ver, val, gap| {
                rows.push((k.clone(), ver, val.clone(), gap));
            });
            rows
        }
        let mut expected = None;
        for backend in [Backend::GapMap, Backend::GapBTree { order: 3 }] {
            let mut state = backend.new_state();
            for key in ["b", "d", "f", "h", "j", "l"] {
                state.insert(&k(key), v(1), val(key)).unwrap();
            }
            // A coalesce gives interior entries distinct gap_after versions.
            state.coalesce(&k("d"), &k("f"), v(5)).unwrap();
            let all = collect(state.as_ref(), None, None);
            assert_eq!(all.len(), 6, "unbounded visits everything");
            assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "key order");
            // [d, j): inclusive low, exclusive high.
            let mid = collect(state.as_ref(), Some(b"d"), Some(b"j"));
            assert_eq!(
                mid.iter().map(|r| r.0.clone()).collect::<Vec<_>>(),
                ["d", "f", "h"].map(UserKey::from).to_vec()
            );
            assert_eq!(mid[0].3, v(5), "d's trailing gap carries the coalesce");
            assert!(collect(state.as_ref(), Some(b"x"), None).is_empty());
            match &expected {
                None => expected = Some((all, mid)),
                Some((a, m)) => {
                    assert_eq!(&collect(state.as_ref(), None, None), a);
                    assert_eq!(&collect(state.as_ref(), Some(b"d"), Some(b"j")), m);
                }
            }
            assert_eq!(state.low_gap(), Version::ZERO);
        }
    }

    #[test]
    fn backend_default_is_gapmap() {
        assert_eq!(Backend::default(), Backend::GapMap);
        let s = Backend::default().new_state();
        assert!(s.is_empty());
    }

    fn seeded() -> GapMap {
        let mut m = GapMap::new();
        for key in ["b", "d", "f"] {
            m.insert(&k(key), v(1), val(key)).unwrap();
        }
        m
    }

    #[test]
    fn insert_created_round_trips() {
        let mut m = seeded();
        let before = m.clone();
        let out = m.insert(&k("c"), v(2), val("C")).unwrap();
        apply_undo(&mut m, undo_for_insert(&k("c"), &out));
        assert_eq!(m, before);
    }

    #[test]
    fn insert_updated_round_trips() {
        let mut m = seeded();
        let before = m.clone();
        let out = m.insert(&k("d"), v(9), val("D9")).unwrap();
        apply_undo(&mut m, undo_for_insert(&k("d"), &out));
        assert_eq!(m, before);
    }

    #[test]
    fn coalesce_round_trips() {
        let mut m = seeded();
        let before = m.clone();
        let out = m.coalesce(&k("b"), &k("f"), v(5)).unwrap();
        apply_undo(&mut m, undo_for_coalesce(&k("b"), &out));
        assert_eq!(m, before);
    }

    #[test]
    fn coalesce_from_low_sentinel_round_trips() {
        let mut m = seeded();
        let before = m.clone();
        let out = m.coalesce(&Key::Low, &Key::High, v(7)).unwrap();
        apply_undo(&mut m, undo_for_coalesce(&Key::Low, &out));
        assert_eq!(m, before);
    }

    #[test]
    fn interleaved_ops_undo_in_reverse_order() {
        let mut m = seeded();
        let before = m.clone();
        let mut log = Vec::new();

        let out = m.insert(&k("c"), v(2), val("C")).unwrap();
        log.push(undo_for_insert(&k("c"), &out));
        let out = m.insert(&k("d"), v(3), val("D3")).unwrap();
        log.push(undo_for_insert(&k("d"), &out));
        let out = m.coalesce(&k("b"), &k("f"), v(6)).unwrap();
        log.push(undo_for_coalesce(&k("b"), &out));
        let out = m.insert(&k("e"), v(7), val("E")).unwrap();
        log.push(undo_for_insert(&k("e"), &out));

        for rec in log.into_iter().rev() {
            apply_undo(&mut m, rec);
        }
        assert_eq!(m, before);
        m.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "no entry")]
    fn out_of_order_undo_panics() {
        let mut m = GapMap::new();
        apply_undo(
            &mut m,
            UndoRecord::RemoveEntry {
                key: UserKey::from("ghost"),
            },
        );
    }
}
