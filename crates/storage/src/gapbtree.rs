//! A B+-tree holding gap-versioned directory entries.
//!
//! The paper's Discussion (§5) prescribes this representation: "We envision
//! that directories could be represented as B-trees. Version numbers for
//! gaps could be stored in fields in their bounding entries." [`GapBTree`]
//! does exactly that — each leaf record carries the version of the gap
//! *after* its entry, and the tree stores the first gap's version directly —
//! and offers the same operation set as
//! [`GapMap`](repdir_core::GapMap), against which it is cross-checked by
//! property tests.
//!
//! The tree is a textbook B+-tree: entries live in leaves, internal nodes
//! hold separator keys, inserts split upward, deletes borrow from or merge
//! with siblings.

use std::fmt;

use repdir_core::{
    CoalesceOutcome, GapInfo, InsertOutcome, Key, LookupReply, NeighborReply, RemovedEntry,
    RepError, UserKey, Value, Version,
};

/// One leaf record: the entry plus the version of the gap following it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct LeafRec {
    version: Version,
    value: Value,
    gap_after: Version,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Node {
    Leaf {
        entries: Vec<(UserKey, LeafRec)>,
    },
    Internal {
        /// `separators[i]` bounds: every key in `children[i]` is `<
        /// separators[i]`, every key in `children[i+1]` is `>=`.
        separators: Vec<UserKey>,
        children: Vec<Node>,
    },
}

impl Node {
    fn key_count(&self) -> usize {
        match self {
            Node::Leaf { entries } => entries.len(),
            Node::Internal { separators, .. } => separators.len(),
        }
    }
}

/// A gap-versioned B+-tree directory representative state.
///
/// Functionally identical to [`GapMap`](repdir_core::GapMap); use this when
/// the §5 B-tree representation (ordered pages, logarithmic descent) is
/// wanted, e.g. for large directories.
///
/// # Examples
///
/// ```
/// use repdir_core::{Key, Value, Version};
/// use repdir_storage::GapBTree;
///
/// let mut t = GapBTree::new(8);
/// for i in 0..100u64 {
///     t.insert(&Key::from(i), Version::new(1), Value::from("v"))?;
/// }
/// assert_eq!(t.len(), 100);
/// assert!(t.lookup(&Key::from(42u64)).is_present());
/// # Ok::<(), repdir_core::RepError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct GapBTree {
    order: usize,
    low_gap: Version,
    root: Node,
    len: usize,
}

impl GapBTree {
    /// Creates an empty tree. `order` is the maximum number of keys per
    /// node; nodes hold at least `order / 2` keys (root exempt).
    ///
    /// # Panics
    ///
    /// Panics if `order < 3`.
    pub fn new(order: usize) -> Self {
        assert!(order >= 3, "B-tree order must be at least 3");
        GapBTree {
            order,
            low_gap: Version::ZERO,
            root: Node::Leaf {
                entries: Vec::new(),
            },
            len: 0,
        }
    }

    /// The tree's node order (max keys per node).
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether an entry exists for `key`. Sentinels are always "present".
    pub fn contains(&self, key: &Key) -> bool {
        match key {
            Key::Low | Key::High => true,
            Key::User(u) => self.get(u).is_some(),
        }
    }

    /// The version associated with any key (entry, containing gap, or zero
    /// for sentinels).
    pub fn version_of(&self, key: &Key) -> Version {
        self.lookup(key).version()
    }

    /// `DirRepLookup(x)` — see [`GapMap::lookup`](repdir_core::GapMap::lookup).
    pub fn lookup(&self, key: &Key) -> LookupReply {
        match key {
            Key::Low | Key::High => LookupReply::Present {
                version: Version::ZERO,
                value: Value::empty(),
            },
            Key::User(u) => match self.get(u) {
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

    /// `DirRepPredecessor(x)` — see
    /// [`GapMap::predecessor`](repdir_core::GapMap::predecessor).
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] if `x` is `LOW`.
    pub fn predecessor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        match key {
            Key::Low => Err(RepError::SentinelViolation {
                key: Key::Low,
                op: "predecessor",
            }),
            Key::User(u) => Ok(self.pred_reply(Some(u))),
            Key::High => Ok(self.pred_reply(None)),
        }
    }

    /// `DirRepSuccessor(x)` — see
    /// [`GapMap::successor`](repdir_core::GapMap::successor).
    ///
    /// # Errors
    ///
    /// [`RepError::SentinelViolation`] if `x` is `HIGH`.
    pub fn successor(&self, key: &Key) -> Result<NeighborReply, RepError> {
        let (succ_entry, gap_version) = match key {
            Key::High => {
                return Err(RepError::SentinelViolation {
                    key: Key::High,
                    op: "successor",
                })
            }
            Key::Low => (self.min_entry(), self.low_gap),
            Key::User(u) => {
                let gap = match self.get(u) {
                    Some(rec) => rec.gap_after,
                    None => self.gap_version_below(u),
                };
                (self.succ_of(&self.root, u), gap)
            }
        };
        Ok(match succ_entry {
            Some((k, rec)) => NeighborReply::entry(k, rec.version, &rec.value, gap_version),
            None => NeighborReply::sentinel(Key::High, gap_version),
        })
    }

    /// `DirRepInsert(x, v, z)` — see
    /// [`GapMap::insert`](repdir_core::GapMap::insert).
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
        if let Some(rec) = self.get_mut(&u) {
            let old_version = rec.version;
            let old_value = std::mem::replace(&mut rec.value, value);
            rec.version = version;
            return Ok(InsertOutcome::Updated {
                old_version,
                old_value,
            });
        }
        let split_gap_version = self.gap_version_below(&u);
        let rec = LeafRec {
            version,
            value,
            gap_after: split_gap_version,
        };
        let order = self.order;
        if let Some((sep, right)) = insert_rec(&mut self.root, u, rec, order) {
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Internal {
                    separators: Vec::new(),
                    children: Vec::new(),
                },
            );
            self.root = Node::Internal {
                separators: vec![sep],
                children: vec![old_root, right],
            };
        }
        self.len += 1;
        Ok(InsertOutcome::Created { split_gap_version })
    }

    /// `DirRepCoalesce(l, h, v)` — see
    /// [`GapMap::coalesce`](repdir_core::GapMap::coalesce).
    ///
    /// # Errors
    ///
    /// [`RepError::InvalidRange`] / [`RepError::NoSuchBoundary`] as for
    /// [`GapMap::coalesce`](repdir_core::GapMap::coalesce).
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

        // Collect doomed keys by a bounded tree descent (only subtrees
        // intersecting the open interval are visited).
        let mut doomed: Vec<UserKey> = Vec::new();
        collect_open_range(&self.root, low.as_user(), high.as_user(), &mut doomed);
        let mut removed = Vec::with_capacity(doomed.len());
        for k in doomed {
            let rec = self.remove(&k).expect("key enumerated above");
            removed.push(RemovedEntry {
                key: k,
                version: rec.version,
                value: rec.value,
                gap_after: rec.gap_after,
            });
        }
        let old_gap_version = match low {
            Key::Low => std::mem::replace(&mut self.low_gap, version),
            Key::User(u) => {
                let rec = self.get_mut(u).expect("boundary checked above");
                std::mem::replace(&mut rec.gap_after, version)
            }
            Key::High => unreachable!("low < high"),
        };
        Ok(CoalesceOutcome {
            removed,
            old_gap_version,
        })
    }

    /// All entries in key order as `(key, version, value)` clones.
    pub fn iter_collect(&self) -> Vec<(UserKey, Version, Value)> {
        self.iter()
            .map(|(k, v, val)| (k.clone(), v, val.clone()))
            .collect()
    }

    /// Lazily iterates entries in key order without copying.
    pub fn iter(&self) -> Iter<'_> {
        let mut stack = Vec::new();
        push_leftmost(&self.root, &mut stack);
        Iter { stack }
    }

    /// Version of the leading gap (between `LOW` and the first entry).
    pub fn low_gap(&self) -> Version {
        self.low_gap
    }

    /// Visits entries with byte keys in `[low, high)` in key order as
    /// `(key, version, value, gap_after)`, pruning subtrees entirely
    /// outside the range via separator keys. `None` bounds run to the
    /// corresponding sentinel. The `gap_after` versions let range
    /// summaries (repair subtree hashes) cover gap-only divergence.
    pub fn range_scan(
        &self,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        visit: &mut dyn FnMut(&UserKey, Version, &Value, Version),
    ) {
        visit_closed_open_range(&self.root, low, high, visit);
    }

    /// The gaps in key order; a tree with `n` entries yields `n + 1` gaps.
    pub fn gaps(&self) -> Vec<GapInfo> {
        let mut entries = Vec::with_capacity(self.len);
        collect_full(&self.root, &mut entries);
        let mut out = Vec::with_capacity(entries.len() + 1);
        let mut lower = Key::Low;
        let mut version = self.low_gap;
        for (k, rec) in entries {
            out.push(GapInfo {
                lower: lower.clone(),
                upper: Key::User(k.clone()),
                version,
            });
            lower = Key::User(k);
            version = rec.gap_after;
        }
        out.push(GapInfo {
            lower,
            upper: Key::High,
            version,
        });
        out
    }

    /// Checks structural invariants (sorted keys, uniform depth, node
    /// occupancy, separator bounds); returns the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut leaf_depth = None;
        check_node(&self.root, true, self.order, 0, &mut leaf_depth, None, None)?;
        let collected = self.iter_collect();
        if collected.len() != self.len {
            return Err(format!(
                "len {} but {} entries reachable",
                self.len,
                collected.len()
            ));
        }
        for w in collected.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(format!("keys out of order: {:?} then {:?}", w[0].0, w[1].0));
            }
        }
        Ok(())
    }
}

/// Recovery and undo primitives matching
/// [`GapMap`](repdir_core::GapMap)'s.
impl GapBTree {
    /// Reinstates an entry with an exact record. Overwrites any existing
    /// record for the key.
    pub fn restore_entry(
        &mut self,
        key: UserKey,
        version: Version,
        value: Value,
        gap_after: Version,
    ) {
        if let Some(rec) = self.get_mut(&key) {
            rec.version = version;
            rec.value = value;
            rec.gap_after = gap_after;
            return;
        }
        let rec = LeafRec {
            version,
            value,
            gap_after,
        };
        let order = self.order;
        if let Some((sep, right)) = insert_rec(&mut self.root, key, rec, order) {
            let old_root = std::mem::replace(
                &mut self.root,
                Node::Leaf {
                    entries: Vec::new(),
                },
            );
            self.root = Node::Internal {
                separators: vec![sep],
                children: vec![old_root, right],
            };
        }
        self.len += 1;
    }

    /// Removes an entry record outright. Returns `true` if it existed.
    pub fn remove_entry_raw(&mut self, key: &UserKey) -> bool {
        self.remove(key).is_some()
    }

    /// Rewrites an entry's version and value, leaving `gap_after` untouched.
    pub fn update_entry_raw(&mut self, key: &UserKey, version: Version, value: Value) -> bool {
        match self.get_mut(key) {
            Some(rec) => {
                rec.version = version;
                rec.value = value;
                true
            }
            None => false,
        }
    }

    /// Sets the version of the gap immediately after `low`.
    ///
    /// # Errors
    ///
    /// As [`GapMap::set_gap_after`](repdir_core::GapMap::set_gap_after).
    pub fn set_gap_after(&mut self, low: &Key, version: Version) -> Result<(), RepError> {
        match low {
            Key::Low => {
                self.low_gap = version;
                Ok(())
            }
            Key::User(u) => match self.get_mut(&u.clone()) {
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

    fn get(&self, key: &UserKey) -> Option<&LeafRec> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { entries } => {
                    return entries
                        .binary_search_by(|(k, _)| k.cmp(key))
                        .ok()
                        .map(|i| &entries[i].1);
                }
                Node::Internal {
                    separators,
                    children,
                } => {
                    node = &children[child_index(separators, key)];
                }
            }
        }
    }

    fn get_mut(&mut self, key: &UserKey) -> Option<&mut LeafRec> {
        let mut node = &mut self.root;
        loop {
            match node {
                Node::Leaf { entries } => {
                    return match entries.binary_search_by(|(k, _)| k.cmp(key)) {
                        Ok(i) => Some(&mut entries[i].1),
                        Err(_) => None,
                    };
                }
                Node::Internal {
                    separators,
                    children,
                } => {
                    let idx = child_index(separators, key);
                    node = &mut children[idx];
                }
            }
        }
    }

    fn remove(&mut self, key: &UserKey) -> Option<LeafRec> {
        let order = self.order;
        let removed = remove_rec(&mut self.root, key, order);
        if removed.is_some() {
            self.len -= 1;
            // Collapse a root that shrank to one child.
            if let Node::Internal { children, .. } = &mut self.root {
                if children.len() == 1 {
                    let only = children.pop().expect("one child");
                    self.root = only;
                }
            }
        }
        removed
    }

    /// Largest entry strictly below `bound` (`None` bound = global max).
    fn pred_of<'a>(
        &'a self,
        node: &'a Node,
        bound: Option<&UserKey>,
    ) -> Option<(&'a UserKey, &'a LeafRec)> {
        match node {
            Node::Leaf { entries } => {
                let idx = match bound {
                    Some(b) => match entries.binary_search_by(|(k, _)| k.cmp(b)) {
                        Ok(i) | Err(i) => i,
                    },
                    None => entries.len(),
                };
                idx.checked_sub(1).map(|i| (&entries[i].0, &entries[i].1))
            }
            Node::Internal {
                separators,
                children,
            } => {
                let start = match bound {
                    Some(b) => child_index(separators, b),
                    None => children.len() - 1,
                };
                // Search the child that could contain the predecessor; on
                // miss, fall back to the rightmost entry of earlier children.
                for i in (0..=start).rev() {
                    let b = if i == start { bound } else { None };
                    if let Some(found) = self.pred_of(&children[i], b) {
                        return Some(found);
                    }
                }
                None
            }
        }
    }

    /// Smallest entry strictly above `key`.
    fn succ_of<'a>(&'a self, node: &'a Node, key: &UserKey) -> Option<(&'a UserKey, &'a LeafRec)> {
        match node {
            Node::Leaf { entries } => {
                let idx = match entries.binary_search_by(|(k, _)| k.cmp(key)) {
                    Ok(i) => i + 1,
                    Err(i) => i,
                };
                entries.get(idx).map(|(k, r)| (k, r))
            }
            Node::Internal {
                separators,
                children,
            } => {
                let start = child_index(separators, key);
                for (i, child) in children.iter().enumerate().skip(start) {
                    let found = if i == start {
                        self.succ_of(child, key)
                    } else {
                        min_of(child)
                    };
                    if found.is_some() {
                        return found;
                    }
                }
                None
            }
        }
    }

    fn min_entry(&self) -> Option<(&UserKey, &LeafRec)> {
        min_of(&self.root)
    }

    fn pred_reply(&self, bound: Option<&UserKey>) -> NeighborReply {
        match self.pred_of(&self.root, bound) {
            Some((k, rec)) => NeighborReply::entry(k, rec.version, &rec.value, rec.gap_after),
            None => NeighborReply::sentinel(Key::Low, self.low_gap),
        }
    }

    fn gap_version_below(&self, u: &UserKey) -> Version {
        match self.pred_of(&self.root, Some(u)) {
            Some((_, rec)) => rec.gap_after,
            None => self.low_gap,
        }
    }
}

impl fmt::Debug for GapBTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GapBTree(order={}) [LOW |{}|", self.order, self.low_gap)?;
        for (k, v, _) in self.iter_collect() {
            let rec = self.get(&k).expect("iterated key exists");
            write!(f, " {k:?}(v{v}) |{}|", rec.gap_after)?;
        }
        write!(f, " HIGH]")
    }
}

/// Index of the child that may contain `key`: first separator `> key` ends
/// the scan. Keys equal to a separator go right.
fn child_index(separators: &[UserKey], key: &UserKey) -> usize {
    match separators.binary_search(key) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

fn min_of(node: &Node) -> Option<(&UserKey, &LeafRec)> {
    match node {
        Node::Leaf { entries } => entries.first().map(|(k, r)| (k, r)),
        Node::Internal { children, .. } => children.iter().find_map(min_of),
    }
}

/// In-order borrow iterator over the tree (see [`GapBTree::iter`]).
#[derive(Debug)]
pub struct Iter<'a> {
    /// Frames of `(node, next index)` — for leaves the next entry, for
    /// internal nodes the next child to descend into.
    stack: Vec<(&'a Node, usize)>,
}

fn push_leftmost<'a>(mut node: &'a Node, stack: &mut Vec<(&'a Node, usize)>) {
    loop {
        match node {
            Node::Leaf { .. } => {
                stack.push((node, 0));
                return;
            }
            Node::Internal { children, .. } => {
                stack.push((node, 1));
                node = &children[0];
            }
        }
    }
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a UserKey, Version, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, idx) = self.stack.last_mut()?;
            match node {
                Node::Leaf { entries } => {
                    if let Some((k, rec)) = entries.get(*idx) {
                        *idx += 1;
                        return Some((k, rec.version, &rec.value));
                    }
                    self.stack.pop();
                }
                Node::Internal { children, .. } => {
                    if *idx < children.len() {
                        let child = &children[*idx];
                        *idx += 1;
                        push_leftmost(child, &mut self.stack);
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

/// Collects keys strictly inside `(low, high)` — `None` bounds mean the
/// corresponding sentinel. Prunes subtrees entirely outside the range via
/// separator keys.
fn collect_open_range(
    node: &Node,
    low: Option<&UserKey>,
    high: Option<&UserKey>,
    out: &mut Vec<UserKey>,
) {
    match node {
        Node::Leaf { entries } => {
            for (k, _) in entries {
                if low.is_some_and(|lo| k <= lo) {
                    continue;
                }
                if high.is_some_and(|hi| k >= hi) {
                    break;
                }
                out.push(k.clone());
            }
        }
        Node::Internal {
            separators,
            children,
        } => {
            // Child i spans (separators[i-1], separators[i]); skip children
            // whose span cannot intersect the open interval.
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    // Keys in this child are >= separators[i-1]; if that
                    // bound already reaches high, nothing here qualifies.
                    if high.is_some_and(|hi| &separators[i - 1] >= hi) {
                        break;
                    }
                }
                if i < separators.len() {
                    // Keys in this child are < separators[i]; if that stays
                    // at or below low, skip ahead.
                    if low.is_some_and(|lo| &separators[i] <= lo) {
                        continue;
                    }
                }
                collect_open_range(child, low, high, out);
            }
        }
    }
}

/// Visits entries with keys in `[low, high)` — `None` bounds mean the
/// corresponding sentinel. Prunes subtrees entirely outside the range via
/// separator keys (same descent as [`collect_open_range`], but inclusive
/// on the low side and exposing the full leaf record).
fn visit_closed_open_range(
    node: &Node,
    low: Option<&[u8]>,
    high: Option<&[u8]>,
    visit: &mut dyn FnMut(&UserKey, Version, &Value, Version),
) {
    match node {
        Node::Leaf { entries } => {
            for (k, rec) in entries {
                if low.is_some_and(|lo| k.as_bytes() < lo) {
                    continue;
                }
                if high.is_some_and(|hi| k.as_bytes() >= hi) {
                    break;
                }
                visit(k, rec.version, &rec.value, rec.gap_after);
            }
        }
        Node::Internal {
            separators,
            children,
        } => {
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    // Keys in this child are >= separators[i-1]; if that
                    // bound already reaches high, nothing here qualifies.
                    if high.is_some_and(|hi| separators[i - 1].as_bytes() >= hi) {
                        break;
                    }
                }
                if i < separators.len() {
                    // Keys in this child are < separators[i]; if that stays
                    // at or below low, skip ahead (low is inclusive, so a
                    // separator equal to low still excludes this child).
                    if low.is_some_and(|lo| separators[i].as_bytes() <= lo) {
                        continue;
                    }
                }
                visit_closed_open_range(child, low, high, visit);
            }
        }
    }
}

fn collect_full(node: &Node, out: &mut Vec<(UserKey, LeafRec)>) {
    match node {
        Node::Leaf { entries } => out.extend(entries.iter().cloned()),
        Node::Internal { children, .. } => {
            for c in children {
                collect_full(c, out);
            }
        }
    }
}

/// Inserts a fresh record (key known absent). Returns `Some((separator,
/// right-node))` if the node split.
fn insert_rec(
    node: &mut Node,
    key: UserKey,
    rec: LeafRec,
    order: usize,
) -> Option<(UserKey, Node)> {
    match node {
        Node::Leaf { entries } => {
            let idx = entries
                .binary_search_by(|(k, _)| k.cmp(&key))
                .expect_err("insert_rec requires an absent key");
            entries.insert(idx, (key, rec));
            if entries.len() <= order {
                return None;
            }
            let right_entries = entries.split_off(entries.len() / 2);
            let sep = right_entries[0].0.clone();
            Some((
                sep,
                Node::Leaf {
                    entries: right_entries,
                },
            ))
        }
        Node::Internal {
            separators,
            children,
        } => {
            let idx = child_index(separators, &key);
            let split = insert_rec(&mut children[idx], key, rec, order)?;
            separators.insert(idx, split.0);
            children.insert(idx + 1, split.1);
            if separators.len() <= order {
                return None;
            }
            // Split the internal node: the middle separator moves up.
            let mid = separators.len() / 2;
            let up = separators[mid].clone();
            let right_seps = separators.split_off(mid + 1);
            separators.pop(); // `up` moves to the parent
            let right_children = children.split_off(mid + 1);
            Some((
                up,
                Node::Internal {
                    separators: right_seps,
                    children: right_children,
                },
            ))
        }
    }
}

fn min_keys(order: usize) -> usize {
    order / 2
}

/// Removes `key` from the subtree; rebalances children that underflow.
fn remove_rec(node: &mut Node, key: &UserKey, order: usize) -> Option<LeafRec> {
    match node {
        Node::Leaf { entries } => match entries.binary_search_by(|(k, _)| k.cmp(key)) {
            Ok(i) => Some(entries.remove(i).1),
            Err(_) => None,
        },
        Node::Internal {
            separators,
            children,
        } => {
            let idx = child_index(separators, key);
            let removed = remove_rec(&mut children[idx], key, order)?;
            if children[idx].key_count() < min_keys(order) {
                rebalance(separators, children, idx, order);
            }
            Some(removed)
        }
    }
}

/// Restores occupancy of `children[idx]` by borrowing from a sibling or
/// merging with one.
fn rebalance(separators: &mut Vec<UserKey>, children: &mut Vec<Node>, idx: usize, order: usize) {
    let min = min_keys(order);
    // Try borrowing from the left sibling.
    if idx > 0 && children[idx - 1].key_count() > min {
        let (left_slice, right_slice) = children.split_at_mut(idx);
        let left = &mut left_slice[idx - 1];
        let cur = &mut right_slice[0];
        match (left, cur) {
            (Node::Leaf { entries: le }, Node::Leaf { entries: ce }) => {
                let moved = le.pop().expect("left has > min keys");
                separators[idx - 1] = moved.0.clone();
                ce.insert(0, moved);
            }
            (
                Node::Internal {
                    separators: ls,
                    children: lc,
                },
                Node::Internal {
                    separators: cs,
                    children: cc,
                },
            ) => {
                // Rotate: parent separator comes down, left's last separator
                // goes up, left's last child moves over.
                let up = ls.pop().expect("left has > min keys");
                let down = std::mem::replace(&mut separators[idx - 1], up);
                cs.insert(0, down);
                cc.insert(0, lc.pop().expect("internal node has children"));
            }
            _ => unreachable!("siblings at the same depth share a kind"),
        }
        return;
    }
    // Try borrowing from the right sibling.
    if idx + 1 < children.len() && children[idx + 1].key_count() > min {
        let (left_slice, right_slice) = children.split_at_mut(idx + 1);
        let cur = &mut left_slice[idx];
        let right = &mut right_slice[0];
        match (cur, right) {
            (Node::Leaf { entries: ce }, Node::Leaf { entries: re }) => {
                let moved = re.remove(0);
                ce.push(moved);
                separators[idx] = re[0].0.clone();
            }
            (
                Node::Internal {
                    separators: cs,
                    children: cc,
                },
                Node::Internal {
                    separators: rs,
                    children: rc,
                },
            ) => {
                let up = rs.remove(0);
                let down = std::mem::replace(&mut separators[idx], up);
                cs.push(down);
                cc.push(rc.remove(0));
            }
            _ => unreachable!("siblings at the same depth share a kind"),
        }
        return;
    }
    // Merge with a sibling (prefer left).
    let merge_left = idx > 0;
    let (li, ri) = if merge_left {
        (idx - 1, idx)
    } else {
        (idx, idx + 1)
    };
    let right = children.remove(ri);
    let sep = separators.remove(li);
    match (&mut children[li], right) {
        (Node::Leaf { entries: le }, Node::Leaf { entries: re }) => {
            le.extend(re);
        }
        (
            Node::Internal {
                separators: ls,
                children: lc,
            },
            Node::Internal {
                separators: rs,
                children: rc,
            },
        ) => {
            ls.push(sep);
            ls.extend(rs);
            lc.extend(rc);
        }
        _ => unreachable!("siblings at the same depth share a kind"),
    }
}

#[allow(clippy::too_many_arguments)]
fn check_node(
    node: &Node,
    is_root: bool,
    order: usize,
    depth: usize,
    leaf_depth: &mut Option<usize>,
    lower: Option<&UserKey>,
    upper: Option<&UserKey>,
) -> Result<(), String> {
    let within =
        |k: &UserKey| -> bool { lower.is_none_or(|lo| k >= lo) && upper.is_none_or(|hi| k < hi) };
    match node {
        Node::Leaf { entries } => {
            if let Some(d) = *leaf_depth {
                if d != depth {
                    return Err(format!("leaf depth {depth} != {d}"));
                }
            } else {
                *leaf_depth = Some(depth);
            }
            if !is_root && entries.len() < min_keys(order) {
                return Err(format!("leaf underflow: {}", entries.len()));
            }
            if entries.len() > order {
                return Err(format!("leaf overflow: {}", entries.len()));
            }
            for (k, _) in entries {
                if !within(k) {
                    return Err(format!("leaf key {k:?} outside separator bounds"));
                }
            }
            Ok(())
        }
        Node::Internal {
            separators,
            children,
        } => {
            if children.len() != separators.len() + 1 {
                return Err("child/separator count mismatch".into());
            }
            if !is_root && separators.len() < min_keys(order) {
                return Err(format!("internal underflow: {}", separators.len()));
            }
            if separators.len() > order {
                return Err(format!("internal overflow: {}", separators.len()));
            }
            for w in separators.windows(2) {
                if w[0] >= w[1] {
                    return Err("separators out of order".into());
                }
            }
            for s in separators {
                if !within(s) {
                    return Err(format!("separator {s:?} outside bounds"));
                }
            }
            for (i, child) in children.iter().enumerate() {
                let lo = if i == 0 {
                    lower
                } else {
                    Some(&separators[i - 1])
                };
                let hi = if i == separators.len() {
                    upper
                } else {
                    Some(&separators[i])
                };
                check_node(child, false, order, depth + 1, leaf_depth, lo, hi)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repdir_core::{GapMap, INLINE_VALUE_MAX};

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn ku(n: u64) -> Key {
        Key::from(n)
    }
    fn v(n: u64) -> Version {
        Version::new(n)
    }
    fn val(s: &str) -> Value {
        Value::from(s)
    }

    #[test]
    fn empty_tree_is_one_gap() {
        let t = GapBTree::new(4);
        assert!(t.is_empty());
        let gaps = t.gaps();
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].lower, Key::Low);
        assert_eq!(gaps[0].upper, Key::High);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_many_splits_and_stays_sorted() {
        let mut t = GapBTree::new(4);
        // Insert in a scrambled deterministic order.
        let mut keys: Vec<u64> = (0..200).collect();
        let mut rng = 12345u64;
        for i in (1..keys.len()).rev() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (rng >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &n in &keys {
            t.insert(&ku(n), v(1), val("x")).unwrap();
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 200);
        let collected = t.iter_collect();
        for (i, (key, _, _)) in collected.iter().enumerate() {
            assert_eq!(*key, UserKey::from_u64(i as u64));
        }
    }

    #[test]
    fn lookup_entry_and_gap() {
        let mut t = GapBTree::new(3);
        t.insert(&k("a"), v(1), val("A")).unwrap();
        t.insert(&k("c"), v(1), val("C")).unwrap();
        assert!(t.lookup(&k("a")).is_present());
        let gap = t.lookup(&k("b"));
        assert!(!gap.is_present());
        assert_eq!(gap.version(), v(0));
        assert!(t.lookup(&Key::Low).is_present());
        assert_eq!(t.version_of(&k("zz")), v(0));
    }

    #[test]
    fn neighbors_match_gapmap_semantics() {
        let mut t = GapBTree::new(3);
        let mut m = GapMap::new();
        // "j" holds a value of exactly the inline bound, "l" one byte more.
        let sized = |key: &str| match key {
            "j" => Value::from(vec![b'j'; INLINE_VALUE_MAX]),
            "l" => Value::from(vec![b'l'; INLINE_VALUE_MAX + 1]),
            _ => val(key),
        };
        for key in ["b", "d", "f", "h", "j", "l", "n"] {
            t.insert(&k(key), v(1), sized(key)).unwrap();
            m.insert(&k(key), v(1), sized(key)).unwrap();
        }
        assert_eq!(t.successor(&k("i")).unwrap().value, Some(sized("j")));
        assert_eq!(t.predecessor(&k("m")).unwrap().value, None);
        assert_eq!(t.successor(&k("k")).unwrap().value, None);
        assert_eq!(t.successor(&k("m")).unwrap().value, Some(val("n")));
        assert_eq!(t.successor(&k("n")).unwrap().value, None, "HIGH");
        t.coalesce(&k("d"), &k("h"), v(5)).unwrap();
        m.coalesce(&k("d"), &k("h"), v(5)).unwrap();
        for probe in ["a", "b", "c", "e", "g", "h", "i", "m", "n", "z"] {
            assert_eq!(
                t.predecessor(&k(probe)).unwrap(),
                m.predecessor(&k(probe)).unwrap(),
                "pred({probe})"
            );
            assert_eq!(
                t.successor(&k(probe)).unwrap(),
                m.successor(&k(probe)).unwrap(),
                "succ({probe})"
            );
        }
        assert_eq!(
            t.predecessor(&Key::High).unwrap(),
            m.predecessor(&Key::High).unwrap()
        );
        assert_eq!(
            t.successor(&Key::Low).unwrap(),
            m.successor(&Key::Low).unwrap()
        );
        assert!(t.predecessor(&Key::Low).is_err());
        assert!(t.successor(&Key::High).is_err());
    }

    #[test]
    fn coalesce_removes_range_and_sets_gap() {
        let mut t = GapBTree::new(3);
        for n in 0..50u64 {
            t.insert(&ku(n), v(1), val("x")).unwrap();
        }
        let out = t.coalesce(&ku(10), &ku(30), v(9)).unwrap();
        assert_eq!(out.removed.len(), 19);
        assert_eq!(t.len(), 31);
        assert_eq!(t.version_of(&ku(20)), v(9));
        assert_eq!(t.version_of(&ku(10)), v(1));
        t.check_invariants().unwrap();
        let gaps = t.gaps();
        assert_eq!(gaps.len(), t.len() + 1);
    }

    #[test]
    fn coalesce_boundary_errors_match_gapmap() {
        let mut t = GapBTree::new(4);
        t.insert(&k("a"), v(1), val("A")).unwrap();
        assert!(matches!(
            t.coalesce(&k("a"), &k("a"), v(1)),
            Err(RepError::InvalidRange { .. })
        ));
        assert!(matches!(
            t.coalesce(&k("a"), &k("zz"), v(1)),
            Err(RepError::NoSuchBoundary { .. })
        ));
        assert!(matches!(
            t.coalesce(&k("0"), &k("a"), v(1)),
            Err(RepError::NoSuchBoundary { .. })
        ));
    }

    #[test]
    fn deletion_rebalances_down_to_empty() {
        let mut t = GapBTree::new(3);
        for n in 0..100u64 {
            t.insert(&ku(n), v(1), val("x")).unwrap();
        }
        // Remove everything via coalesce of the full range.
        let out = t.coalesce(&Key::Low, &Key::High, v(2)).unwrap();
        assert_eq!(out.removed.len(), 100);
        assert!(t.is_empty());
        t.check_invariants().unwrap();
        assert_eq!(t.version_of(&ku(3)), v(2));
    }

    #[test]
    fn alternating_insert_remove_keeps_invariants() {
        let mut t = GapBTree::new(4);
        for round in 0..10u64 {
            for n in 0..40u64 {
                t.insert(&ku(round * 1000 + n), v(round), val("x")).unwrap();
            }
            t.check_invariants().unwrap();
            // Coalesce away the middle of this round's keys.
            t.coalesce(&ku(round * 1000 + 5), &ku(round * 1000 + 35), v(round + 1))
                .unwrap();
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 10 * (40 - 29));
    }

    #[test]
    fn update_existing_key() {
        let mut t = GapBTree::new(4);
        t.insert(&k("a"), v(1), val("A")).unwrap();
        let out = t.insert(&k("a"), v(2), val("A2")).unwrap();
        assert_eq!(
            out,
            InsertOutcome::Updated {
                old_version: v(1),
                old_value: val("A"),
            }
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&k("a")).version(), v(2));
    }

    #[test]
    fn sentinel_mutations_rejected() {
        let mut t = GapBTree::new(4);
        assert!(t.insert(&Key::Low, v(1), val("x")).is_err());
        assert!(t.insert(&Key::High, v(1), val("x")).is_err());
        assert!(t.set_gap_after(&Key::High, v(1)).is_err());
        assert!(t.set_gap_after(&k("missing"), v(1)).is_err());
        assert!(t.set_gap_after(&Key::Low, v(3)).is_ok());
        assert_eq!(t.version_of(&k("q")), v(3));
    }

    #[test]
    fn recovery_primitives_round_trip() {
        let mut t = GapBTree::new(4);
        for key in ["a", "b", "c"] {
            t.insert(&k(key), v(1), val(key)).unwrap();
        }
        let before = t.clone();
        let out = t.coalesce(&k("a"), &k("c"), v(9)).unwrap();
        for r in out.removed {
            t.restore_entry(r.key, r.version, r.value, r.gap_after);
        }
        t.set_gap_after(&k("a"), out.old_gap_version).unwrap();
        assert_eq!(t.iter_collect(), before.iter_collect());
        assert_eq!(t.gaps(), before.gaps());

        assert!(t.update_entry_raw(&UserKey::from("b"), v(7), val("B7")));
        assert_eq!(t.lookup(&k("b")).version(), v(7));
        assert!(t.remove_entry_raw(&UserKey::from("b")));
        assert!(!t.remove_entry_raw(&UserKey::from("b")));
    }

    #[test]
    fn lazy_iter_matches_order_and_supports_partial_reads() {
        let mut t = GapBTree::new(3);
        for n in [5u64, 1, 9, 3, 7, 2, 8] {
            t.insert(&ku(n), v(n), val("x")).unwrap();
        }
        let keys: Vec<u64> = t
            .iter()
            .map(|(k, _, _)| u64::from_be_bytes(k.as_bytes().try_into().unwrap()))
            .collect();
        assert_eq!(keys, vec![1, 2, 3, 5, 7, 8, 9]);
        // Versions ride along.
        for (k, ver, _) in t.iter() {
            let n = u64::from_be_bytes(k.as_bytes().try_into().unwrap());
            assert_eq!(ver, v(n));
        }
        // Partial consumption works (lazy).
        let first_two: Vec<_> = t.iter().take(2).map(|(k, _, _)| k.clone()).collect();
        assert_eq!(first_two.len(), 2);
        // Empty tree yields nothing.
        assert_eq!(GapBTree::new(4).iter().count(), 0);
    }

    #[test]
    fn debug_render_is_nonempty() {
        let mut t = GapBTree::new(4);
        t.insert(&k("a"), v(1), val("A")).unwrap();
        let s = format!("{t:?}");
        assert!(s.contains("LOW"));
        assert!(s.contains("HIGH"));
    }

    #[test]
    fn matches_gapmap_on_mixed_workload() {
        // Deterministic fuzz: the tree must agree with GapMap op-for-op.
        let mut t = GapBTree::new(4);
        let mut m = GapMap::new();
        let mut rng = 987654321u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 16
        };
        for step in 0..2000 {
            let key = ku(next() % 64);
            match next() % 4 {
                0 | 1 => {
                    let ver = v(step);
                    let r1 = t.insert(&key, ver, val("x"));
                    let r2 = m.insert(&key, ver, val("x"));
                    assert_eq!(r1, r2);
                }
                2 => {
                    // Coalesce between two existing entries (or sentinels).
                    let lo = m.predecessor(&key).map(|n| n.key).unwrap_or(Key::Low);
                    let hi = m.successor(&key).map(|n| n.key).unwrap_or(Key::High);
                    if lo < hi {
                        let r1 = t.coalesce(&lo, &hi, v(step));
                        let r2 = m.coalesce(&lo, &hi, v(step));
                        assert_eq!(r1, r2);
                    }
                }
                _ => {
                    assert_eq!(t.lookup(&key), m.lookup(&key));
                    assert_eq!(t.predecessor(&key), m.predecessor(&key));
                    assert_eq!(t.successor(&key), m.successor(&key));
                }
            }
            if step % 100 == 0 {
                t.check_invariants().unwrap();
                assert_eq!(t.len(), m.len());
            }
        }
        let tree_entries = t.iter_collect();
        let map_entries: Vec<_> = m
            .iter()
            .map(|(k, ver, val)| (k.clone(), ver, val.clone()))
            .collect();
        assert_eq!(tree_entries, map_entries);
    }

    #[test]
    #[should_panic(expected = "order must be at least 3")]
    fn tiny_order_rejected() {
        GapBTree::new(2);
    }
}
