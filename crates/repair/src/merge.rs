//! Pointwise merge of two views of one key interval under the paper's
//! version rule.
//!
//! A [`BucketView`] is one representative's full knowledge of an open key
//! interval `(after, before)`: the gap version extending into it from
//! `after` (`lead_gap`), plus every entry strictly inside with its
//! `gap_after`. Merging two views is a pointwise maximum over the key
//! space — at every point the higher version wins, a present entry beats an
//! absent gap at equal version (equal versions denote identical data, and
//! the insert rule gives an entry a version strictly above the gap it split,
//! so the tie can only arise between two copies of the same fact).
//!
//! The merged gap over an interval between two merged boundaries is the
//! **span maximum**: the largest version among all gap segments of either
//! view overlapping that open interval. This is exact, not conservative:
//! any segment overlapping the interval asserts "no key in this overlap as
//! of version v", and in any state reachable by the paper's update rules
//! the deletion that created the highest such segment coalesced the whole
//! merged interval (its interior keys are either merged entries — which
//! bound the interval — or ghosts it dominates).
//!
//! The receiver realises a ghost removal or a gap raise by coalescing its
//! own neighbours, so the merged facts only hold if those neighbours are
//! the interval's boundaries or merged entries. The repairer therefore
//! pulls intervals whose ends are keys the receiver holds ([`RepairPlan`]
//! carries them, and the apply refuses any step whose neighbours fall
//! outside).

use repdir_core::{Key, UserKey, Value, Version};

/// One stored entry of an interval together with the gap version directly
/// above it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketEntry {
    pub key: UserKey,
    pub version: Version,
    pub value: Value,
    /// Version of the gap between this entry and the next boundary.
    pub gap_after: Version,
}

/// A representative's complete view of one open key interval.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BucketView {
    /// Version of the gap extending into the interval from its lower end
    /// (the directory's `low_gap` when that end is `LOW`).
    pub lead_gap: Version,
    /// Entries strictly inside the interval, in ascending key order.
    pub entries: Vec<BucketEntry>,
}

impl BucketView {
    /// Approximate serialized size, used for wire-cost accounting.
    pub fn wire_bytes(&self) -> u64 {
        let mut n = 8u64; // lead gap
        for e in &self.entries {
            n += e.key.len() as u64 + e.value.len() as u64 + 24;
        }
        n
    }
}

/// What one representative must do to reach the merged state of the open
/// interval `(after, before)`. All versions are pinned — apply installs
/// them verbatim, it never mints new ones, which is exactly why repair
/// needs no quorum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairPlan {
    /// Lower end of the interval: a key the receiver held when the plan was
    /// computed, or `LOW`.
    pub after: Key,
    /// Upper end of the interval: a key the receiver held, or `HIGH`.
    pub before: Key,
    /// Entries to install (insert or overwrite) at the given version.
    pub installs: Vec<(UserKey, Version, Value)>,
    /// Local entries dominated by a merged gap: remove by coalescing the
    /// immediate neighbours at the covering gap version.
    pub ghosts: Vec<(UserKey, Version)>,
    /// Gaps directly above the given key (`after` or an entry) whose
    /// version must rise to the given target.
    pub gap_raises: Vec<(Key, Version)>,
}

impl RepairPlan {
    /// An empty plan over `(after, before)`.
    pub fn new(after: Key, before: Key) -> Self {
        RepairPlan {
            after,
            before,
            installs: Vec::new(),
            ghosts: Vec::new(),
            gap_raises: Vec::new(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.installs.is_empty() && self.ghosts.is_empty() && self.gap_raises.is_empty()
    }
}

/// The gap version covering `key` in `view`, assuming `key` is not one of
/// the view's entries.
fn gap_at(view: &BucketView, key: &UserKey) -> Version {
    let idx = view.entries.partition_point(|e| e.key < *key);
    if idx == 0 {
        view.lead_gap
    } else {
        view.entries[idx - 1].gap_after
    }
}

/// Maximum gap version among `view`'s segments overlapping the open
/// interval `(lo, hi)`; `None` bounds mean the view's interval ends.
fn span_max(view: &BucketView, lo: Option<&UserKey>, hi: Option<&UserKey>) -> Version {
    // Segment i runs between boundary i-1 and boundary i of the view
    // (boundaries are its entries; segment 0 starts at the interval's lower
    // end, segment n ends at its upper end). Open-interval overlap:
    // seg.lo < hi && lo < seg.hi.
    let n = view.entries.len();
    let mut best = Version::ZERO;
    for i in 0..=n {
        let seg_lo = if i == 0 {
            None
        } else {
            Some(&view.entries[i - 1].key)
        };
        let seg_hi = view.entries.get(i).map(|e| &e.key);
        let below_hi = match (seg_lo, hi) {
            (_, None) | (None, _) => true,
            (Some(a), Some(b)) => a < b,
        };
        let above_lo = match (lo, seg_hi) {
            (None, _) | (_, None) => true,
            (Some(a), Some(b)) => a < b,
        };
        if below_hi && above_lo {
            let v = if i == 0 {
                view.lead_gap
            } else {
                view.entries[i - 1].gap_after
            };
            best = best.max(v);
        }
    }
    best
}

/// Pointwise merge of two views of the same interval: at every key the
/// higher version wins (present beats absent at equal version); every
/// merged gap interval carries the span maximum of both sides.
pub fn merge_bucket(local: &BucketView, remote: &BucketView) -> BucketView {
    // Union of entry keys, ascending.
    let mut keys: Vec<&UserKey> = local
        .entries
        .iter()
        .chain(remote.entries.iter())
        .map(|e| &e.key)
        .collect();
    keys.sort();
    keys.dedup();

    let find = |view: &'_ BucketView, k: &UserKey| -> Option<usize> {
        view.entries.binary_search_by(|e| e.key.cmp(k)).ok()
    };

    // Decide presence per key: (version, is_entry), present ranked above
    // absent at equal version.
    let mut winners: Vec<(UserKey, Version, Value)> = Vec::new();
    for k in keys {
        let mut best: Option<(Version, &BucketEntry)> = None;
        let mut best_gap = Version::ZERO;
        for view in [local, remote] {
            match find(view, k) {
                Some(i) => {
                    let e = &view.entries[i];
                    if best.is_none_or(|(v, _)| e.version >= v) {
                        best = Some((e.version, e));
                    }
                }
                None => best_gap = best_gap.max(gap_at(view, k)),
            }
        }
        if let Some((v, e)) = best {
            // Present survives unless a gap strictly dominates it.
            if best_gap <= v {
                winners.push((e.key.clone(), v, e.value.clone()));
            }
        }
    }

    // Gap versions over the merged intervals.
    let lead_hi = winners.first().map(|(k, _, _)| k);
    let lead_gap = span_max(local, None, lead_hi).max(span_max(remote, None, lead_hi));
    let entries = winners
        .iter()
        .enumerate()
        .map(|(i, (k, v, val))| {
            let hi = winners.get(i + 1).map(|(nk, _, _)| nk);
            let gap_after = span_max(local, Some(k), hi).max(span_max(remote, Some(k), hi));
            BucketEntry {
                key: k.clone(),
                version: *v,
                value: val.clone(),
                gap_after,
            }
        })
        .collect();
    BucketView { lead_gap, entries }
}

/// What `local`, the receiver's view of `(after, before)`, must apply to
/// reach `merged`.
pub fn plan_bucket(
    after: &Key,
    before: &Key,
    local: &BucketView,
    merged: &BucketView,
) -> RepairPlan {
    let mut plan = RepairPlan::new(after.clone(), before.clone());

    let find_local = |k: &UserKey| -> Option<&BucketEntry> {
        local
            .entries
            .binary_search_by(|e| e.key.cmp(k))
            .ok()
            .map(|i| &local.entries[i])
    };

    for me in &merged.entries {
        match find_local(&me.key) {
            Some(le) => {
                if le.version < me.version {
                    plan.installs
                        .push((me.key.clone(), me.version, me.value.clone()));
                }
                if me.gap_after > le.gap_after {
                    plan.gap_raises
                        .push((Key::User(me.key.clone()), me.gap_after));
                }
            }
            None => {
                // Present wins ties against gaps, hence >=.
                if me.version >= gap_at(local, &me.key) {
                    plan.installs
                        .push((me.key.clone(), me.version, me.value.clone()));
                }
                // A fresh install splits the local gap it lands in; raise
                // its upper half if the merged gap is ahead.
                if me.gap_after > gap_at(local, &me.key) {
                    plan.gap_raises
                        .push((Key::User(me.key.clone()), me.gap_after));
                }
            }
        }
    }

    for le in &local.entries {
        let in_merged = merged
            .entries
            .binary_search_by(|e| e.key.cmp(&le.key))
            .is_ok();
        if !in_merged {
            plan.ghosts.push((le.key.clone(), gap_at(merged, &le.key)));
        }
    }

    if merged.lead_gap > local.lead_gap {
        plan.gap_raises.push((after.clone(), merged.lead_gap));
    }

    plan
}

/// Convenience: merge `local` with `remote`, both views of `(after,
/// before)`, and plan the local repair.
pub fn diff_bucket(
    after: &Key,
    before: &Key,
    local: &BucketView,
    remote: &BucketView,
) -> RepairPlan {
    plan_bucket(after, before, local, &merge_bucket(local, remote))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &[u8]) -> UserKey {
        UserKey::new(s)
    }

    fn val(s: &[u8]) -> Value {
        Value::new(s)
    }

    fn v(n: u64) -> Version {
        Version::new(n)
    }

    fn entry(key: &[u8], version: u64, gap_after: u64) -> BucketEntry {
        BucketEntry {
            key: k(key),
            version: v(version),
            value: val(&[key[0], version as u8]),
            gap_after: v(gap_after),
        }
    }

    fn view(lead: u64, entries: Vec<BucketEntry>) -> BucketView {
        BucketView {
            lead_gap: v(lead),
            entries,
        }
    }

    /// The plan over the whole key space, `(LOW, HIGH)`.
    fn diff(local: &BucketView, remote: &BucketView) -> RepairPlan {
        diff_bucket(&Key::Low, &Key::High, local, remote)
    }

    #[test]
    fn newer_remote_entry_is_installed_at_its_pinned_version() {
        let local = view(0, vec![entry(b"a", 2, 0)]);
        let remote = view(0, vec![entry(b"a", 7, 0)]);
        let plan = diff(&local, &remote);
        assert_eq!(plan.installs.len(), 1);
        assert_eq!(plan.installs[0].0, k(b"a"));
        assert_eq!(plan.installs[0].1, v(7));
        assert!(plan.ghosts.is_empty());
        assert!(plan.gap_raises.is_empty());
        // The stale side learning nothing new plans nothing.
        assert!(diff(&remote, &local).is_empty());
    }

    #[test]
    fn equal_versions_are_identical_and_need_no_repair() {
        let a = view(3, vec![entry(b"a", 5, 3), entry(b"c", 8, 3)]);
        assert!(diff(&a, &a.clone()).is_empty());
        assert_eq!(merge_bucket(&a, &a), a);
    }

    #[test]
    fn dominating_gap_turns_local_entry_into_ghost() {
        // Remote deleted "b" with a coalesce at version 9; local still has
        // the entry at version 2.
        let local = view(0, vec![entry(b"b", 2, 0)]);
        let remote = view(9, vec![]);
        let merged = merge_bucket(&local, &remote);
        assert!(merged.entries.is_empty());
        assert_eq!(merged.lead_gap, v(9));
        let plan = plan_bucket(&Key::Low, &Key::High, &local, &merged);
        assert_eq!(plan.ghosts, vec![(k(b"b"), v(9))]);
        assert!(plan.installs.is_empty());
        assert_eq!(plan.gap_raises, vec![(Key::Low, v(9))]);
    }

    #[test]
    fn entry_beats_gap_on_equal_version_and_resurrects_after_higher_insert() {
        // Local saw the delete at 9; remote saw the later re-insert at 10.
        let local = view(9, vec![]);
        let remote = view(9, vec![entry(b"b", 10, 9)]);
        let plan = diff(&local, &remote);
        assert_eq!(plan.installs.len(), 1);
        assert_eq!(plan.installs[0].1, v(10));
        // Equal version: present wins the tie (same fact, two encodings).
        let plan = diff(&view(10, vec![]), &view(9, vec![entry(b"b", 10, 9)]));
        assert_eq!(plan.installs.len(), 1);
        // Strictly higher gap: the delete is newer, entry stays dead.
        let plan = diff(&view(11, vec![]), &view(9, vec![entry(b"b", 10, 9)]));
        assert!(plan.installs.is_empty());
    }

    #[test]
    fn gap_raises_are_anchored_at_the_entry_or_the_interval_start() {
        let local = view(1, vec![entry(b"a", 5, 2)]);
        let remote = view(1, vec![entry(b"a", 5, 8)]);
        let plan = diff(&local, &remote);
        assert!(plan.installs.is_empty());
        assert_eq!(plan.gap_raises, vec![(Key::User(k(b"a")), v(8))]);
        // The lead gap belongs to the interval's lower end, whatever it is.
        let (after, before) = (Key::User(k(b"m")), Key::User(k(b"q")));
        let plan = diff_bucket(&after, &before, &view(1, vec![]), &view(6, vec![]));
        assert_eq!(plan.gap_raises, vec![(after.clone(), v(6))]);
        assert_eq!((plan.after, plan.before), (after, before));
    }

    #[test]
    fn span_max_folds_ghost_subgaps_into_the_merged_interval() {
        // Local: entries a(v4, gap 8 above). Remote: one delete at 9
        // covering everything. The merged bucket is empty with lead 9 —
        // the ghost's sub-gaps (both strictly below 9) are absorbed.
        let local = view(3, vec![entry(b"a", 4, 8)]);
        let remote = view(9, vec![]);
        let merged = merge_bucket(&local, &remote);
        assert!(merged.entries.is_empty());
        assert_eq!(merged.lead_gap, v(9));
        // Symmetric case: the surviving neighbours bound the interval and
        // the ghost's two adjacent segments feed the span max.
        let local = view(
            1,
            vec![entry(b"a", 5, 2), entry(b"b", 3, 6), entry(b"d", 7, 1)],
        );
        let remote = view(1, vec![entry(b"a", 5, 7), entry(b"d", 7, 1)]);
        let merged = merge_bucket(&local, &remote);
        // "b" (v3) is dominated by remote's (a,d) gap at 7.
        assert_eq!(
            merged
                .entries
                .iter()
                .map(|e| e.key.clone())
                .collect::<Vec<_>>(),
            vec![k(b"a"), k(b"d")]
        );
        // Merged (a,d) gap = max(local a.gap_after=2, local b.gap_after=6,
        // remote a.gap_after=7) = 7.
        assert_eq!(merged.entries[0].gap_after, v(7));
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let a = view(2, vec![entry(b"a", 5, 2), entry(b"c", 3, 6)]);
        let b = view(4, vec![entry(b"c", 9, 1), entry(b"e", 2, 4)]);
        let ab = merge_bucket(&a, &b);
        let ba = merge_bucket(&b, &a);
        assert_eq!(ab, ba);
        assert_eq!(merge_bucket(&ab, &b), ab);
        assert_eq!(merge_bucket(&ab, &a), ab);
        // A view that already matches the merge plans nothing.
        assert!(plan_bucket(&Key::Low, &Key::High, &ab, &ab).is_empty());
    }

    #[test]
    fn install_into_fresh_gap_raises_the_split_upper_half() {
        // Remote has entry b(v5) with gap 4 above; local never saw it and
        // holds a flat gap at 1. Installing b splits local's gap — the
        // upper half must then rise to 4.
        let local = view(1, vec![]);
        let remote = view(1, vec![entry(b"b", 5, 4)]);
        let plan = diff(&local, &remote);
        assert_eq!(plan.installs.len(), 1);
        assert_eq!(plan.gap_raises, vec![(Key::User(k(b"b")), v(4))]);
    }
}
