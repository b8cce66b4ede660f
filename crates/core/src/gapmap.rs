//! The gap-versioned directory state held by one representative.
//!
//! This is the paper's central data structure (§2–3): the key space is
//! dynamically partitioned so that **every possible key** has a version
//! number —
//!
//! * each stored entry is a partition by itself, carrying its own version, and
//! * each *gap* (the open range of keys between two adjacent entries, or
//!   between a sentinel and its adjacent entry) is a partition carrying a
//!   single version number.
//!
//! Following the paper's §5 suggestion ("version numbers for gaps could be
//! stored in fields in their bounding entries"), each entry record stores the
//! version of the gap *after* it, and the map stores the version of the first
//! gap (the one after `LOW`) directly.
//!
//! Invariant: a map with `n` entries has exactly `n + 1` gaps, which tile the
//! open intervals between consecutive members of
//! `{LOW} ∪ entries ∪ {HIGH}`.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use crate::error::RepError;
use crate::key::{Key, UserKey};
use crate::value::Value;
use crate::version::Version;

/// Reply to a lookup: either the entry's version and value, or the version of
/// the gap that contains the key (paper Fig. 6, `DirRepLookup`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LookupReply {
    /// An entry exists for the key.
    Present {
        /// The entry's version number.
        version: Version,
        /// The entry's value.
        value: Value,
    },
    /// No entry exists; the key falls in a gap.
    Absent {
        /// The version number of the gap containing the key.
        gap_version: Version,
    },
}

impl LookupReply {
    /// The version associated with the key, whether entry or gap.
    pub fn version(&self) -> Version {
        match self {
            LookupReply::Present { version, .. } => *version,
            LookupReply::Absent { gap_version } => *gap_version,
        }
    }

    /// Whether an entry exists for the key.
    pub fn is_present(&self) -> bool {
        matches!(self, LookupReply::Present { .. })
    }

    /// The entry's value, if present.
    pub fn value(&self) -> Option<&Value> {
        match self {
            LookupReply::Present { value, .. } => Some(value),
            LookupReply::Absent { .. } => None,
        }
    }
}

/// The largest value, in bytes, a [`NeighborReply`] carries. Inclusive: a
/// value of exactly this many bytes rides its chain.
pub const INLINE_VALUE_MAX: usize = 64;

/// Reply to a predecessor/successor query (paper Fig. 6,
/// `DirRepPredecessor` / `DirRepSuccessor`), extended with the neighbour's
/// value when that value is small. Key, versions and value are one read
/// under one range lock, so a scan lists a small entry straight off its
/// chain, with no `DirRepLookup` of its own (the nrfs idea of embedding
/// small files inside their directory).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborReply {
    /// The neighboring entry's key; may be a sentinel.
    pub key: Key,
    /// The neighboring entry's version ([`Version::ZERO`] for sentinels).
    pub entry_version: Version,
    /// The version of the gap between the queried key and the neighbor.
    pub gap_version: Version,
    /// The neighboring entry's value when it is at most
    /// [`INLINE_VALUE_MAX`] bytes; `None` for a larger value and for
    /// sentinels.
    pub value: Option<Value>,
}

impl NeighborReply {
    /// The reply naming the stored entry `key`, carrying `value` when it is
    /// at most [`INLINE_VALUE_MAX`] bytes.
    pub fn entry(key: &UserKey, version: Version, value: &Value, gap_version: Version) -> Self {
        NeighborReply {
            key: Key::User(key.clone()),
            entry_version: version,
            gap_version,
            value: (value.len() <= INLINE_VALUE_MAX).then(|| value.clone()),
        }
    }

    /// The reply naming a sentinel: version zero, no value.
    pub fn sentinel(key: Key, gap_version: Version) -> Self {
        NeighborReply {
            key,
            entry_version: Version::ZERO,
            gap_version,
            value: None,
        }
    }
}

/// Outcome of [`GapMap::insert`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new entry was created, splitting a gap. Both halves of the split gap
    /// retain the old gap's version (§2: "insertion operations split a gap").
    Created {
        /// Version of the gap that was split.
        split_gap_version: Version,
    },
    /// The key already had an entry; its version and value were replaced
    /// (`DirRepInsert` "updates the entry for key x if one already exists",
    /// Fig. 6).
    Updated {
        /// The version the entry had before the update.
        old_version: Version,
        /// The value the entry had before the update.
        old_value: Value,
    },
}

impl InsertOutcome {
    /// Whether the insert created a new entry.
    pub fn created(&self) -> bool {
        matches!(self, InsertOutcome::Created { .. })
    }
}

/// A full record of an entry removed by [`GapMap::coalesce`], sufficient to
/// undo the removal (used by transaction rollback and write-ahead-log
/// recovery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RemovedEntry {
    /// The removed entry's key.
    pub key: UserKey,
    /// The removed entry's version.
    pub version: Version,
    /// The removed entry's value.
    pub value: Value,
    /// The version of the gap that followed the removed entry.
    pub gap_after: Version,
}

/// Outcome of [`GapMap::coalesce`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoalesceOutcome {
    /// Entries that were removed (strictly between the boundaries), in key
    /// order. Exposing the full records lets callers compute the paper's
    /// "deletions while coalescing" statistic and lets transactions undo the
    /// operation.
    pub removed: Vec<RemovedEntry>,
    /// The version of the gap immediately after the lower boundary before the
    /// coalesce (needed to undo).
    pub old_gap_version: Version,
}

/// One gap in the partition: the open interval `(lower, upper)` and its
/// version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GapInfo {
    /// Lower bounding key (an entry or `LOW`), exclusive.
    pub lower: Key,
    /// Upper bounding key (an entry or `HIGH`), exclusive.
    pub upper: Key,
    /// The gap's version number.
    pub version: Version,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct EntryRecord {
    version: Version,
    value: Value,
    /// Version of the gap between this entry and its successor.
    gap_after: Version,
}

/// The gap-versioned ordered map held by one directory representative.
///
/// A fresh map has no entries and a single `(LOW, HIGH)` gap with version
/// [`Version::ZERO`].
///
/// # Examples
///
/// Reproducing the paper's Figure 4: inserting `"b"` into the version-0 gap
/// between `"a"` and `"c"` gives `"b"` version 1 = gap version + 1, and both
/// halves of the split gap keep version 0.
///
/// ```
/// use repdir_core::{GapMap, Key, Value, Version};
///
/// let mut rep = GapMap::new();
/// rep.insert(&Key::from("a"), Version::new(1), Value::from("A"))?;
/// rep.insert(&Key::from("c"), Version::new(1), Value::from("C"))?;
///
/// let gap = rep.lookup(&Key::from("b"));
/// assert!(!gap.is_present());
/// assert_eq!(gap.version(), Version::ZERO);
///
/// rep.insert(&Key::from("b"), gap.version().next(), Value::from("B"))?;
/// assert_eq!(rep.lookup(&Key::from("b")).version(), Version::new(1));
/// # Ok::<(), repdir_core::RepError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct GapMap {
    /// Version of the gap immediately after `LOW`.
    low_gap: Version,
    entries: BTreeMap<UserKey, EntryRecord>,
}

impl Default for GapMap {
    fn default() -> Self {
        Self::new()
    }
}

impl GapMap {
    /// Creates an empty map: one `(LOW, HIGH)` gap with version zero.
    pub fn new() -> Self {
        GapMap {
            low_gap: Version::ZERO,
            entries: BTreeMap::new(),
        }
    }

    /// Number of stored entries (sentinels are not counted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map stores no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether an entry exists for `key`. Sentinels are always "present".
    pub fn contains(&self, key: &Key) -> bool {
        match key {
            Key::Low | Key::High => true,
            Key::User(u) => self.entries.contains_key(u.as_bytes()),
        }
    }

    /// The version associated with *any* key — the entry's version if an
    /// entry exists, otherwise the containing gap's version. Sentinels report
    /// [`Version::ZERO`].
    ///
    /// This total function over the key space is the paper's core idea: no
    /// key is ever without a version.
    pub fn version_of(&self, key: &Key) -> Version {
        self.lookup(key).version()
    }

    /// `DirRepLookup(x)`: if there is an entry for `x` return its version and
    /// value, otherwise the version of the gap containing `x` (Fig. 6).
    ///
    /// Sentinel keys report `Present` with version zero and an empty value,
    /// so the suite's real-predecessor search terminates at the key-space
    /// edge.
    pub fn lookup(&self, key: &Key) -> LookupReply {
        match key {
            Key::Low | Key::High => LookupReply::Present {
                version: Version::ZERO,
                value: Value::empty(),
            },
            Key::User(u) => match self.entries.get(u.as_bytes()) {
                Some(rec) => LookupReply::Present {
                    version: rec.version,
                    value: rec.value.clone(),
                },
                None => LookupReply::Absent {
                    gap_version: self.gap_version_below(u),
                },
            },
        }
    }

    /// `DirRepPredecessor(x)`: the entry (or `LOW`) with the largest key less
    /// than `x`, its version, and the version of the gap between `x` and that
    /// predecessor (Fig. 6). There need not be an entry for `x`.
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] if `x` is `LOW` (nothing precedes it).
    pub fn predecessor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        let below: Bound<&[u8]> = match key {
            Key::Low => {
                return Err(RepError::SentinelViolation {
                    key: Key::Low,
                    op: "predecessor",
                })
            }
            Key::User(u) => Bound::Excluded(u.as_bytes()),
            Key::High => Bound::Unbounded,
        };
        match self
            .entries
            .range::<[u8], _>((Bound::Unbounded, below))
            .next_back()
        {
            // No entries lie between the predecessor and `x`, so the gap
            // between them is exactly the gap after the predecessor.
            Some((k, rec)) => Ok(NeighborReply::entry(
                k,
                rec.version,
                &rec.value,
                rec.gap_after,
            )),
            None => Ok(NeighborReply::sentinel(Key::Low, self.low_gap)),
        }
    }

    /// `DirRepSuccessor(x)`: the entry (or `HIGH`) with the smallest key
    /// greater than `x`, its version, and the version of the gap between `x`
    /// and that successor (Fig. 6).
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] if `x` is `HIGH`.
    pub fn successor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        let above: Bound<&[u8]> = match key {
            Key::Low => Bound::Unbounded,
            Key::User(u) => Bound::Excluded(u.as_bytes()),
            Key::High => {
                return Err(RepError::SentinelViolation {
                    key: Key::High,
                    op: "successor",
                })
            }
        };
        // The gap between `x` and its successor is the gap just above `x`:
        // the gap after `x`'s entry if `x` is stored, otherwise `x`'s
        // containing gap.
        let gap_version = match key {
            Key::Low => self.low_gap,
            Key::User(u) => match self.entries.get(u.as_bytes()) {
                Some(rec) => rec.gap_after,
                None => self.gap_version_below(u),
            },
            Key::High => unreachable!(),
        };
        match self
            .entries
            .range::<[u8], _>((above, Bound::Unbounded))
            .next()
        {
            Some((k, rec)) => Ok(NeighborReply::entry(
                k,
                rec.version,
                &rec.value,
                gap_version,
            )),
            None => Ok(NeighborReply::sentinel(Key::High, gap_version)),
        }
    }

    /// Up to `limit` *successive* predecessors of `key`: the result of
    /// `DirRepPredecessor(key)`, then of the returned key, and so on,
    /// stopping at `LOW`.
    ///
    /// This is the paper's §4 batching optimization — "if each member of a
    /// read quorum sends the results of three successive DirRepPredecessor
    /// and DirRepSuccessor operations in a single message, the real
    /// predecessor and real successor will often be located using one
    /// remote procedure call to each member of the quorum."
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] if `key` is `LOW`.
    pub fn predecessor_chain(
        &self,
        key: &Key,
        limit: usize,
    ) -> Result<Vec<NeighborReply>, RepError> {
        // `limit` may come straight off the wire: never size from it.
        let mut out = Vec::with_capacity(limit.min(4096));
        let mut probe = key.clone();
        while out.len() < limit {
            let nb = self.predecessor(&probe)?;
            let done = nb.key == Key::Low;
            probe = nb.key.clone();
            out.push(nb);
            if done {
                break;
            }
        }
        Ok(out)
    }

    /// Up to `limit` successive successors of `key`, stopping at `HIGH`
    /// (mirror of [`predecessor_chain`](GapMap::predecessor_chain)).
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] if `key` is `HIGH`.
    pub fn successor_chain(&self, key: &Key, limit: usize) -> Result<Vec<NeighborReply>, RepError> {
        // `limit` may come straight off the wire: never size from it.
        let mut out = Vec::with_capacity(limit.min(4096));
        let mut probe = key.clone();
        while out.len() < limit {
            let nb = self.successor(&probe)?;
            let done = nb.key == Key::High;
            probe = nb.key.clone();
            out.push(nb);
            if done {
                break;
            }
        }
        Ok(out)
    }

    /// `DirRepInsert(x, v, z)`: creates an entry for `x` with version `v` and
    /// value `z`, or updates the entry if one exists (Fig. 6).
    ///
    /// Creating an entry splits the containing gap; both halves keep the old
    /// gap's version (§2).
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] if `x` is a sentinel.
    pub fn insert(
        &mut self,
        key: &Key,
        version: Version,
        value: Value,
    ) -> Result<InsertOutcome, RepError> {
        let u = match key {
            Key::User(u) => u.clone(),
            s => {
                return Err(RepError::SentinelViolation {
                    key: s.clone(),
                    op: "insert",
                })
            }
        };
        if let Some(rec) = self.entries.get_mut(u.as_bytes()) {
            let old_version = rec.version;
            let old_value = std::mem::replace(&mut rec.value, value);
            rec.version = version;
            return Ok(InsertOutcome::Updated {
                old_version,
                old_value,
            });
        }
        let split = self.gap_version_below(&u);
        self.entries.insert(
            u,
            EntryRecord {
                version,
                value,
                gap_after: split,
            },
        );
        Ok(InsertOutcome::Created {
            split_gap_version: split,
        })
    }

    /// `DirRepCoalesce(l, h, v)`: deletes all entries strictly between `l`
    /// and `h` and assigns version `v` to the resulting single gap (Fig. 6).
    ///
    /// # Errors
    ///
    /// * [`RepError::InvalidRange`] if `l >= h`.
    /// * [`RepError::NoSuchBoundary`] if a non-sentinel boundary has no entry
    ///   ("An error is indicated if entries do not exist for keys l and h").
    pub fn coalesce(
        &mut self,
        low: &Key,
        high: &Key,
        version: Version,
    ) -> Result<CoalesceOutcome, RepError> {
        if low >= high {
            return Err(RepError::InvalidRange {
                low: low.clone(),
                high: high.clone(),
            });
        }
        if !self.contains(low) {
            return Err(RepError::NoSuchBoundary { key: low.clone() });
        }
        if !self.contains(high) {
            return Err(RepError::NoSuchBoundary { key: high.clone() });
        }

        let lower_bound: Bound<&[u8]> = match low {
            Key::Low => Bound::Unbounded,
            Key::User(u) => Bound::Excluded(u.as_bytes()),
            Key::High => unreachable!("low < high excludes HIGH"),
        };
        let upper_bound: Bound<&[u8]> = match high {
            Key::High => Bound::Unbounded,
            Key::User(u) => Bound::Excluded(u.as_bytes()),
            Key::Low => unreachable!("low < high excludes LOW"),
        };
        let doomed: Vec<UserKey> = self
            .entries
            .range::<[u8], _>((lower_bound, upper_bound))
            .map(|(k, _)| k.clone())
            .collect();
        let removed: Vec<RemovedEntry> = doomed
            .into_iter()
            .map(|k| {
                let rec = self.entries.remove(k.as_bytes()).expect("key just seen");
                RemovedEntry {
                    key: k,
                    version: rec.version,
                    value: rec.value,
                    gap_after: rec.gap_after,
                }
            })
            .collect();

        let old_gap_version = match low {
            Key::Low => std::mem::replace(&mut self.low_gap, version),
            Key::User(u) => {
                let rec = self
                    .entries
                    .get_mut(u.as_bytes())
                    .expect("boundary checked above");
                std::mem::replace(&mut rec.gap_after, version)
            }
            Key::High => unreachable!(),
        };

        Ok(CoalesceOutcome {
            removed,
            old_gap_version,
        })
    }

    /// Iterates over stored entries in key order as
    /// `(key, version, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (&UserKey, Version, &Value)> + '_ {
        self.entries.iter().map(|(k, r)| (k, r.version, &r.value))
    }

    /// Version of the leading gap (between `LOW` and the first entry).
    pub fn low_gap(&self) -> Version {
        self.low_gap
    }

    /// Visits stored entries with byte keys in `[low, high)` in key order as
    /// `(key, version, value, gap_after)`. An unbounded side (`None`) runs
    /// to the corresponding sentinel. Unlike [`iter`](GapMap::iter) this
    /// exposes each entry's trailing-gap version, so range summaries (the
    /// repair subsystem's subtree hashes) cover gap-only divergence too.
    pub fn range_scan(
        &self,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        visit: &mut dyn FnMut(&UserKey, Version, &Value, Version),
    ) {
        let lower = match low {
            Some(b) => Bound::Included(b),
            None => Bound::Unbounded,
        };
        let upper = match high {
            Some(b) => Bound::Excluded(b),
            None => Bound::Unbounded,
        };
        for (k, rec) in self.entries.range::<[u8], _>((lower, upper)) {
            visit(k, rec.version, &rec.value, rec.gap_after);
        }
    }

    /// Iterates over the gaps in key order. A map with `n` entries yields
    /// exactly `n + 1` gaps tiling the key space.
    pub fn gaps(&self) -> impl Iterator<Item = GapInfo> + '_ {
        let firsts = std::iter::once((Key::Low, self.low_gap));
        let rest = self
            .entries
            .iter()
            .map(|(k, r)| (Key::User(k.clone()), r.gap_after));
        let lowers: Vec<(Key, Version)> = firsts.chain(rest).collect();
        let uppers: Vec<Key> = self
            .entries
            .keys()
            .map(|k| Key::User(k.clone()))
            .chain(std::iter::once(Key::High))
            .collect();
        lowers
            .into_iter()
            .zip(uppers)
            .map(|((lower, version), upper)| GapInfo {
                lower,
                upper,
                version,
            })
    }

    /// Checks structural invariants; returns a description of the first
    /// violation. Intended for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let gaps: Vec<GapInfo> = self.gaps().collect();
        if gaps.len() != self.len() + 1 {
            return Err(format!(
                "expected {} gaps for {} entries, found {}",
                self.len() + 1,
                self.len(),
                gaps.len()
            ));
        }
        if gaps.first().map(|g| &g.lower) != Some(&Key::Low) {
            return Err("first gap must start at LOW".into());
        }
        if gaps.last().map(|g| &g.upper) != Some(&Key::High) {
            return Err("last gap must end at HIGH".into());
        }
        for w in gaps.windows(2) {
            if w[0].upper != w[1].lower {
                return Err(format!("gaps not contiguous: {:?} then {:?}", w[0], w[1]));
            }
        }
        for g in &gaps {
            if g.lower >= g.upper {
                return Err(format!("empty or inverted gap {g:?}"));
            }
        }
        Ok(())
    }
}

/// Recovery and undo primitives.
///
/// These bypass the `DirRep*` semantics and are meant for the transaction
/// manager's rollback path and write-ahead-log replay, which must restore a
/// representative to a byte-exact prior state.
impl GapMap {
    /// Reinstates an entry with an exact record, as captured in a
    /// [`RemovedEntry`] or an update's old state. Overwrites any existing
    /// record for the key.
    pub fn restore_entry(
        &mut self,
        key: UserKey,
        version: Version,
        value: Value,
        gap_after: Version,
    ) {
        self.entries.insert(
            key,
            EntryRecord {
                version,
                value,
                gap_after,
            },
        );
    }

    /// Rewrites an entry's version and value, leaving its `gap_after`
    /// untouched (undo of an `Updated` insert, whose gap structure never
    /// changed). Returns `false` if no entry exists for the key.
    pub fn update_entry_raw(&mut self, key: &UserKey, version: Version, value: Value) -> bool {
        match self.entries.get_mut(key.as_bytes()) {
            Some(rec) => {
                rec.version = version;
                rec.value = value;
                true
            }
            None => false,
        }
    }

    /// Removes an entry record outright (undo of a `Created` insert). The
    /// containing gap's version is untouched, which exactly reverses the gap
    /// split. Returns `true` if the entry existed.
    pub fn remove_entry_raw(&mut self, key: &UserKey) -> bool {
        self.entries.remove(key.as_bytes()).is_some()
    }

    /// Sets the version of the gap immediately after `low` (undo of a
    /// coalesce's gap assignment). `low` must be `LOW` or an existing entry.
    ///
    /// # Errors
    ///
    /// [`RepError::NoSuchBoundary`] if `low` is a user key with no entry, or
    /// [`RepError::SentinelViolation`] if `low` is `HIGH`.
    pub fn set_gap_after(&mut self, low: &Key, version: Version) -> Result<(), RepError> {
        match low {
            Key::Low => {
                self.low_gap = version;
                Ok(())
            }
            Key::User(u) => match self.entries.get_mut(u.as_bytes()) {
                Some(rec) => {
                    rec.gap_after = version;
                    Ok(())
                }
                None => Err(RepError::NoSuchBoundary { key: low.clone() }),
            },
            Key::High => Err(RepError::SentinelViolation {
                key: Key::High,
                op: "set_gap_after",
            }),
        }
    }

    /// Version of the gap containing a key that is **not** stored — i.e. the
    /// `gap_after` of the closest entry below it, or the first gap's version.
    fn gap_version_below(&self, u: &UserKey) -> Version {
        self.entries
            .range::<[u8], _>((Bound::Unbounded, Bound::Excluded(u.as_bytes())))
            .next_back()
            .map(|(_, rec)| rec.gap_after)
            .unwrap_or(self.low_gap)
    }
}

impl fmt::Debug for GapMap {
    /// Renders the representative in the style of the paper's figures:
    /// `[LOW |0| "a"(v1) |0| "c"(v1) |0| HIGH]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[LOW |{}|", self.low_gap)?;
        for (k, rec) in &self.entries {
            write!(f, " {k:?}(v{}) |{}|", rec.version, rec.gap_after)?;
        }
        write!(f, " HIGH]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn uk(s: &str) -> UserKey {
        UserKey::from(s)
    }
    fn v(n: u64) -> Version {
        Version::new(n)
    }
    fn val(s: &str) -> Value {
        Value::from(s)
    }

    /// Builds the paper's Figure 1 representative: entries "a" and "c" with
    /// version 1, all gaps version 0.
    fn figure1() -> GapMap {
        let mut m = GapMap::new();
        m.insert(&k("a"), v(1), val("A")).unwrap();
        m.insert(&k("c"), v(1), val("C")).unwrap();
        m
    }

    #[test]
    fn new_map_is_single_gap() {
        let m = GapMap::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        let gaps: Vec<_> = m.gaps().collect();
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].lower, Key::Low);
        assert_eq!(gaps[0].upper, Key::High);
        assert_eq!(gaps[0].version, Version::ZERO);
        m.check_invariants().unwrap();
    }

    #[test]
    fn lookup_present_and_absent() {
        let m = figure1();
        let a = m.lookup(&k("a"));
        assert!(a.is_present());
        assert_eq!(a.version(), v(1));
        assert_eq!(a.value(), Some(&val("A")));

        let b = m.lookup(&k("b"));
        assert!(!b.is_present());
        assert_eq!(b.version(), v(0));
        assert_eq!(b.value(), None);
    }

    #[test]
    fn sentinels_always_present_with_version_zero() {
        let m = figure1();
        for s in [Key::Low, Key::High] {
            let r = m.lookup(&s);
            assert!(r.is_present());
            assert_eq!(r.version(), Version::ZERO);
        }
        assert!(m.contains(&Key::Low));
        assert!(m.contains(&Key::High));
    }

    #[test]
    fn version_of_is_total_over_key_space() {
        let m = figure1();
        assert_eq!(m.version_of(&Key::Low), v(0));
        assert_eq!(m.version_of(&k("0")), v(0)); // gap (LOW, a)
        assert_eq!(m.version_of(&k("a")), v(1)); // entry
        assert_eq!(m.version_of(&k("b")), v(0)); // gap (a, c)
        assert_eq!(m.version_of(&k("c")), v(1)); // entry
        assert_eq!(m.version_of(&k("zzz")), v(0)); // gap (c, HIGH)
        assert_eq!(m.version_of(&Key::High), v(0));
    }

    #[test]
    fn figure4_insert_splits_gap_keeping_version() {
        // Insert "b" with version = gap version + 1; both halves of the
        // split gap keep version 0 (paper Figure 4).
        let mut m = figure1();
        let gap = m.lookup(&k("b")).version();
        let out = m.insert(&k("b"), gap.next(), val("B")).unwrap();
        assert_eq!(
            out,
            InsertOutcome::Created {
                split_gap_version: v(0)
            }
        );
        assert_eq!(m.version_of(&k("b")), v(1));
        // Gap (a, b) and (b, c) both version 0.
        let gaps: Vec<_> = m.gaps().collect();
        assert_eq!(gaps.len(), 4);
        assert!(gaps.iter().all(|g| g.version == v(0)));
        m.check_invariants().unwrap();
    }

    #[test]
    fn figure5_coalesce_after_delete() {
        // Representative B of Figure 4: a(1), b(1), c(1). Deleting "b"
        // coalesces (a, c) with version 2 (paper Figure 5).
        let mut m = figure1();
        m.insert(&k("b"), v(1), val("B")).unwrap();
        let out = m.coalesce(&k("a"), &k("c"), v(2)).unwrap();
        assert_eq!(out.removed.len(), 1);
        assert_eq!(out.removed[0].key, uk("b"));
        assert_eq!(out.removed[0].version, v(1));
        assert_eq!(out.old_gap_version, v(0));
        assert_eq!(m.version_of(&k("b")), v(2));
        assert!(!m.contains(&k("b")));
        m.check_invariants().unwrap();
    }

    #[test]
    fn coalesce_on_representative_without_entry_assigns_gap() {
        // Representative C of Figure 4 never had "b": coalesce still bumps
        // the (a, c) gap version to 2.
        let mut m = figure1();
        let out = m.coalesce(&k("a"), &k("c"), v(2)).unwrap();
        assert!(out.removed.is_empty());
        assert_eq!(m.version_of(&k("b")), v(2));
    }

    #[test]
    fn update_replaces_version_and_value() {
        let mut m = figure1();
        let out = m.insert(&k("a"), v(5), val("A2")).unwrap();
        assert_eq!(
            out,
            InsertOutcome::Updated {
                old_version: v(1),
                old_value: val("A"),
            }
        );
        assert_eq!(m.lookup(&k("a")).version(), v(5));
        assert_eq!(m.lookup(&k("a")).value(), Some(&val("A2")));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn insert_sentinel_rejected() {
        let mut m = GapMap::new();
        for s in [Key::Low, Key::High] {
            let e = m.insert(&s, v(1), val("x")).unwrap_err();
            assert!(matches!(e, RepError::SentinelViolation { .. }));
        }
    }

    #[test]
    fn predecessor_walks_entries_and_sentinel() {
        let m = figure1();
        let p = m.predecessor(&k("b")).unwrap();
        assert_eq!(p.key, k("a"));
        assert_eq!(p.entry_version, v(1));
        assert_eq!(p.gap_version, v(0));

        // Predecessor of an existing entry is the previous entry.
        let p = m.predecessor(&k("c")).unwrap();
        assert_eq!(p.key, k("a"));

        // Below the first entry, the predecessor is LOW.
        let p = m.predecessor(&k("A")).unwrap();
        assert_eq!(p.key, Key::Low);
        assert_eq!(p.entry_version, Version::ZERO);
        assert_eq!(p.gap_version, v(0));

        // Predecessor of HIGH is the last entry.
        let p = m.predecessor(&Key::High).unwrap();
        assert_eq!(p.key, k("c"));
    }

    #[test]
    fn successor_walks_entries_and_sentinel() {
        let m = figure1();
        let s = m.successor(&k("b")).unwrap();
        assert_eq!(s.key, k("c"));
        assert_eq!(s.entry_version, v(1));
        assert_eq!(s.gap_version, v(0));

        let s = m.successor(&k("a")).unwrap();
        assert_eq!(s.key, k("c"));

        let s = m.successor(&k("zzz")).unwrap();
        assert_eq!(s.key, Key::High);

        let s = m.successor(&Key::Low).unwrap();
        assert_eq!(s.key, k("a"));
        assert_eq!(s.gap_version, v(0));
    }

    #[test]
    fn neighbor_of_wrong_sentinel_rejected() {
        let m = figure1();
        assert!(matches!(
            m.predecessor(&Key::Low),
            Err(RepError::SentinelViolation { .. })
        ));
        assert!(matches!(
            m.successor(&Key::High),
            Err(RepError::SentinelViolation { .. })
        ));
    }

    #[test]
    fn neighbor_gap_versions_distinguish_gaps() {
        // Build: a |7| c |9| e  (distinct gap versions via coalesce).
        let mut m = GapMap::new();
        for key in ["a", "c", "e"] {
            m.insert(&k(key), v(1), val(key)).unwrap();
        }
        m.coalesce(&k("a"), &k("c"), v(7)).unwrap();
        m.coalesce(&k("c"), &k("e"), v(9)).unwrap();

        let p = m.predecessor(&k("d")).unwrap();
        assert_eq!(p.key, k("c"));
        assert_eq!(p.gap_version, v(9));

        let s = m.successor(&k("b")).unwrap();
        assert_eq!(s.key, k("c"));
        assert_eq!(s.gap_version, v(7));

        // Successor of an entry: the gap after it.
        let s = m.successor(&k("a")).unwrap();
        assert_eq!(s.gap_version, v(7));
        let s = m.successor(&k("c")).unwrap();
        assert_eq!(s.gap_version, v(9));
    }

    #[test]
    fn predecessor_chain_walks_to_low() {
        let mut m = GapMap::new();
        for key in ["b", "d", "f"] {
            m.insert(&k(key), v(1), val(key)).unwrap();
        }
        m.coalesce(&k("b"), &k("d"), v(5)).unwrap();
        let chain = m.predecessor_chain(&k("e"), 10).unwrap();
        let keys: Vec<Key> = chain.iter().map(|n| n.key.clone()).collect();
        assert_eq!(keys, vec![k("d"), k("b"), Key::Low]);
        // Gap versions along the walk: e sits in gap (d, f) = v0; the gap
        // (b, d) was coalesced to v5; (LOW, b) is untouched.
        assert_eq!(chain[0].gap_version, v(0), "gap (d, f) contains e");
        assert_eq!(chain[1].key, k("b"));
        assert_eq!(chain[1].gap_version, v(5), "gap (b, d) was coalesced to 5");
        assert_eq!(chain[2].gap_version, v(0), "gap (LOW, b) untouched");
        // Limit respected.
        assert_eq!(m.predecessor_chain(&k("e"), 2).unwrap().len(), 2);
        // Chain equals repeated single calls.
        let mut probe = k("e");
        for nb in m.predecessor_chain(&k("e"), 10).unwrap() {
            assert_eq!(m.predecessor(&probe).unwrap(), nb);
            probe = nb.key;
        }
    }

    #[test]
    fn successor_chain_walks_to_high() {
        let mut m = GapMap::new();
        for key in ["b", "d"] {
            m.insert(&k(key), v(1), val(key)).unwrap();
        }
        let chain = m.successor_chain(&k("a"), 10).unwrap();
        let keys: Vec<Key> = chain.iter().map(|n| n.key.clone()).collect();
        assert_eq!(keys, vec![k("b"), k("d"), Key::High]);
        assert_eq!(m.successor_chain(&Key::Low, 1).unwrap().len(), 1);
        // Chain equals repeated single calls.
        let mut probe = Key::Low;
        for nb in m.successor_chain(&Key::Low, 10).unwrap() {
            assert_eq!(m.successor(&probe).unwrap(), nb);
            probe = nb.key;
        }
        // Sentinel start errors mirror the single-call API.
        assert!(m.predecessor_chain(&Key::Low, 3).is_err());
        assert!(m.successor_chain(&Key::High, 3).is_err());
    }

    #[test]
    fn chain_limit_bounds_the_walk_and_sizes_nothing() {
        // A limit is whatever the caller (or the wire) says; reserving that
        // many results up front aborted the process on `u32::MAX`.
        let mut m = GapMap::new();
        m.insert(&k("b"), v(1), val("b")).unwrap();
        let whole = |chain: Vec<NeighborReply>| chain.into_iter().map(|n| n.key).collect();
        let down: Vec<Key> = whole(m.predecessor_chain(&Key::High, usize::MAX).unwrap());
        assert_eq!(down, vec![k("b"), Key::Low]);
        let up: Vec<Key> = whole(m.successor_chain(&Key::Low, u32::MAX as usize).unwrap());
        assert_eq!(up, vec![k("b"), Key::High]);
    }

    #[test]
    fn coalesce_requires_existing_boundaries() {
        let mut m = figure1();
        let e = m.coalesce(&k("b"), &k("c"), v(2)).unwrap_err();
        assert_eq!(e, RepError::NoSuchBoundary { key: k("b") });
        let e = m.coalesce(&k("a"), &k("x"), v(2)).unwrap_err();
        assert_eq!(e, RepError::NoSuchBoundary { key: k("x") });
    }

    #[test]
    fn coalesce_rejects_inverted_range() {
        let mut m = figure1();
        let e = m.coalesce(&k("c"), &k("a"), v(2)).unwrap_err();
        assert!(matches!(e, RepError::InvalidRange { .. }));
        let e = m.coalesce(&k("a"), &k("a"), v(2)).unwrap_err();
        assert!(matches!(e, RepError::InvalidRange { .. }));
        let e = m.coalesce(&Key::High, &Key::Low, v(1)).unwrap_err();
        assert!(matches!(e, RepError::InvalidRange { .. }));
    }

    #[test]
    fn coalesce_with_sentinel_boundaries_empties_map() {
        let mut m = figure1();
        let out = m.coalesce(&Key::Low, &Key::High, v(3)).unwrap();
        assert_eq!(out.removed.len(), 2);
        assert!(m.is_empty());
        assert_eq!(m.version_of(&k("anything")), v(3));
        m.check_invariants().unwrap();
    }

    #[test]
    fn coalesce_removes_multiple_ghosts_in_order() {
        let mut m = GapMap::new();
        for key in ["a", "b", "c", "d", "e"] {
            m.insert(&k(key), v(1), val(key)).unwrap();
        }
        let out = m.coalesce(&k("a"), &k("e"), v(4)).unwrap();
        let removed: Vec<_> = out.removed.iter().map(|r| r.key.clone()).collect();
        assert_eq!(removed, vec![uk("b"), uk("c"), uk("d")]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.version_of(&k("c")), v(4));
    }

    #[test]
    fn restore_entry_undoes_coalesce() {
        let mut m = GapMap::new();
        for key in ["a", "b", "c"] {
            m.insert(&k(key), v(1), val(key)).unwrap();
        }
        let before = m.clone();
        let out = m.coalesce(&k("a"), &k("c"), v(9)).unwrap();
        // Undo: restore removed entries, then the old gap version.
        for r in out.removed {
            m.restore_entry(r.key, r.version, r.value, r.gap_after);
        }
        m.set_gap_after(&k("a"), out.old_gap_version).unwrap();
        assert_eq!(m, before);
    }

    #[test]
    fn remove_entry_raw_undoes_created_insert() {
        let mut m = figure1();
        let before = m.clone();
        m.insert(&k("b"), v(1), val("B")).unwrap();
        assert!(m.remove_entry_raw(&uk("b")));
        assert_eq!(m, before);
        assert!(!m.remove_entry_raw(&uk("b")));
    }

    #[test]
    fn update_entry_raw_undoes_updated_insert() {
        let mut m = figure1();
        let before = m.clone();
        let out = m.insert(&k("a"), v(9), val("A9")).unwrap();
        let InsertOutcome::Updated {
            old_version,
            old_value,
        } = out
        else {
            panic!("expected update")
        };
        assert!(m.update_entry_raw(&uk("a"), old_version, old_value));
        assert_eq!(m, before);
        assert!(!m.update_entry_raw(&uk("missing"), v(1), val("x")));
    }

    #[test]
    fn set_gap_after_validates_boundary() {
        let mut m = figure1();
        assert!(m.set_gap_after(&Key::Low, v(5)).is_ok());
        assert_eq!(m.version_of(&k("0")), v(5));
        assert!(matches!(
            m.set_gap_after(&k("nope"), v(1)),
            Err(RepError::NoSuchBoundary { .. })
        ));
        assert!(matches!(
            m.set_gap_after(&Key::High, v(1)),
            Err(RepError::SentinelViolation { .. })
        ));
    }

    #[test]
    fn gaps_tile_key_space() {
        let mut m = GapMap::new();
        for key in ["d", "b", "f"] {
            m.insert(&k(key), v(1), val(key)).unwrap();
        }
        let gaps: Vec<_> = m.gaps().collect();
        assert_eq!(gaps.len(), 4);
        assert_eq!(gaps[0].lower, Key::Low);
        assert_eq!(gaps[0].upper, k("b"));
        assert_eq!(gaps[1].lower, k("b"));
        assert_eq!(gaps[1].upper, k("d"));
        assert_eq!(gaps[3].upper, Key::High);
        m.check_invariants().unwrap();
    }

    #[test]
    fn debug_render_matches_paper_style() {
        let m = figure1();
        let s = format!("{m:?}");
        assert!(s.starts_with("[LOW |0|"), "{s}");
        assert!(s.contains("k\"a\"(v1)"), "{s}");
        assert!(s.ends_with("HIGH]"), "{s}");
    }

    #[test]
    fn iter_yields_entries_in_key_order() {
        let mut m = GapMap::new();
        for key in ["m", "a", "z"] {
            m.insert(&k(key), v(2), val(key)).unwrap();
        }
        let keys: Vec<String> = m.iter().map(|(k, _, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
        for (_, ver, _) in m.iter() {
            assert_eq!(ver, v(2));
        }
    }
}
