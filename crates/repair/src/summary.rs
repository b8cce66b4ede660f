//! Summary tree: per-bucket digests over `(key, version, gap_after)`.
//!
//! The key space is split into 256 leaf buckets by the first key byte
//! (bucket 0 additionally owns the empty key and the directory's leading
//! gap). With fanout 16 that yields a three-level tree: one root, 16
//! level-1 groups, 256 leaves. A summary exchange ships one level of 16
//! digests, so a fully synchronised pair of representatives settles a
//! repair round after a single 16-digest comparison.
//!
//! Digests deliberately hash versions but not values: the paper's update
//! rule guarantees equal versions carry identical data, so `(key, version)`
//! pairs — plus the gap versions that encode deletions — fully determine
//! the state. `count` rides along as a cheap cross-check and lets callers
//! report how many entries a mismatched subtree covers.

use std::sync::Mutex;

use repdir_core::Version;

/// Number of leaf buckets (one per possible first key byte).
pub const BUCKETS: usize = 256;

/// Children per internal node.
pub const FANOUT: usize = 16;

/// Number of level-1 groups (`BUCKETS / FANOUT`).
pub const GROUPS: usize = BUCKETS / FANOUT;

/// A summary of one subtree: an order-sensitive hash plus the number of
/// entries it covers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Hash over every `(key, version, gap_after)` in the subtree (and the
    /// leading gap version for subtrees containing bucket 0).
    pub hash: u64,
    /// Number of directory entries in the subtree.
    pub count: u64,
}

/// splitmix64 finalizer — avalanches a 64-bit word.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Hash contribution of a single stored entry. Contributions are combined
/// by XOR inside a bucket, so bucket hashes are order-independent and can
/// be maintained incrementally (insert = XOR in, remove = XOR out).
pub fn entry_digest(key: &[u8], version: Version, gap_after: Version) -> u64 {
    let mut h = fnv1a(key);
    h = mix64(h ^ version.get().wrapping_mul(0xA24B_AED4_963E_E407));
    mix64(h ^ gap_after.get().wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

/// Hash contribution of the directory's leading gap (the segment starting
/// at `LOW`). Folded into bucket 0 only.
pub fn low_gap_digest(v: Version) -> u64 {
    mix64(v.get() ^ 0x01BA_D5EE_D0DD_BA11)
}

/// Leaf bucket owning `key` (its first byte; the empty key lands in 0).
pub fn bucket_of(key: &[u8]) -> u8 {
    key.first().copied().unwrap_or(0)
}

/// Inclusive lower key bound of bucket `b`, or `None` for "from LOW"
/// (bucket 0 must also cover the empty key, which no one-byte bound can).
pub fn bucket_low(b: u8) -> Option<[u8; 1]> {
    (b > 0).then_some([b])
}

/// Exclusive upper key bound of bucket `b`, or `None` for "to HIGH".
pub fn bucket_high(b: u8) -> Option<[u8; 1]> {
    b.checked_add(1).map(|n| [n])
}

/// Order-sensitive fold of child digests into a parent digest.
pub fn fold_children(children: &[Digest]) -> Digest {
    let mut hash: u64 = 0x0005_EED0_F5EA_5A11;
    let mut count: u64 = 0;
    for c in children {
        hash = mix64(hash ^ c.hash ^ c.count.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        count += c.count;
    }
    Digest { hash, count }
}

struct CacheInner {
    digests: [Digest; BUCKETS],
    dirty: [bool; BUCKETS],
}

/// Incrementally maintained leaf digests for one representative.
///
/// The representative marks buckets dirty as it applies operations
/// (`mark` on insert, `mark_span` on coalesce, `mark_all` on abort or
/// recovery) and hands a recompute closure to [`children`] when a repair
/// peer asks for a summary level; only dirty buckets are rescanned.
///
/// [`children`]: SummaryCache::children
pub struct SummaryCache {
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for SummaryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("summary lock");
        let dirty = inner.dirty.iter().filter(|&&d| d).count();
        f.debug_struct("SummaryCache")
            .field("dirty_buckets", &dirty)
            .finish()
    }
}

impl Default for SummaryCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SummaryCache {
    /// A cache with every bucket dirty (first read scans the whole state).
    pub fn new() -> Self {
        SummaryCache {
            inner: Mutex::new(CacheInner {
                digests: [Digest::default(); BUCKETS],
                dirty: [true; BUCKETS],
            }),
        }
    }

    /// Marks the bucket owning `key` dirty.
    pub fn mark(&self, key: &[u8]) {
        let mut inner = self.inner.lock().expect("summary lock");
        inner.dirty[bucket_of(key) as usize] = true;
    }

    /// Marks every bucket in the inclusive span dirty. Callers map a
    /// coalesce range `(low, high)` to `bucket_of(low)..=bucket_of(high)`
    /// with sentinels at 0 / 255.
    pub fn mark_span(&self, lo: u8, hi: u8) {
        let mut inner = self.inner.lock().expect("summary lock");
        for b in lo..=hi {
            inner.dirty[b as usize] = true;
        }
    }

    /// Marks everything dirty (abort undo, recovery, checkpoint reload).
    pub fn mark_all(&self) {
        let mut inner = self.inner.lock().expect("summary lock");
        inner.dirty = [true; BUCKETS];
    }

    /// The digests of one tree level's children under `path`, refreshing
    /// dirty leaves through `recompute`.
    ///
    /// * `level` 0: the root's children — `GROUPS` folded group digests
    ///   (`path` ignored, conventionally 0).
    /// * `level` 1: the [`FANOUT`] leaf digests of group `path`.
    ///
    /// Unknown levels or out-of-range paths return an empty vector, which
    /// peers treat as a protocol mismatch.
    pub fn children(
        &self,
        level: u8,
        path: u8,
        recompute: &mut dyn FnMut(u8) -> Digest,
    ) -> Vec<Digest> {
        let mut inner = self.inner.lock().expect("summary lock");
        let refresh = |inner: &mut CacheInner,
                       range: std::ops::Range<usize>,
                       recompute: &mut dyn FnMut(u8) -> Digest| {
            for b in range {
                if inner.dirty[b] {
                    inner.digests[b] = recompute(b as u8);
                    inner.dirty[b] = false;
                }
            }
        };
        match level {
            0 => {
                refresh(&mut inner, 0..BUCKETS, recompute);
                (0..GROUPS)
                    .map(|g| fold_children(&inner.digests[g * FANOUT..(g + 1) * FANOUT]))
                    .collect()
            }
            1 if (path as usize) < GROUPS => {
                let g = path as usize;
                refresh(&mut inner, g * FANOUT..(g + 1) * FANOUT, recompute);
                inner.digests[g * FANOUT..(g + 1) * FANOUT].to_vec()
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> Version {
        Version::new(n)
    }

    #[test]
    fn bucket_bounds_partition_the_key_space() {
        assert_eq!(bucket_low(0), None);
        assert_eq!(bucket_low(7), Some([7]));
        assert_eq!(bucket_high(254), Some([255]));
        assert_eq!(bucket_high(255), None);
        // Every one-byte prefix lands in its own bucket; the empty key in 0.
        assert_eq!(bucket_of(b""), 0);
        assert_eq!(bucket_of(b"\x00zzz"), 0);
        assert_eq!(bucket_of(b"\xffa"), 255);
        for b in 0..=255u8 {
            assert_eq!(bucket_of(&[b, 1, 2]), b);
        }
    }

    #[test]
    fn entry_digest_is_sensitive_to_each_field() {
        let base = entry_digest(b"key", v(3), v(1));
        assert_ne!(base, entry_digest(b"kez", v(3), v(1)));
        assert_ne!(base, entry_digest(b"key", v(4), v(1)));
        assert_ne!(base, entry_digest(b"key", v(3), v(2)));
        assert_eq!(base, entry_digest(b"key", v(3), v(1)));
    }

    #[test]
    fn fold_is_order_sensitive_and_sums_counts() {
        let a = Digest { hash: 1, count: 2 };
        let b = Digest { hash: 9, count: 5 };
        let ab = fold_children(&[a, b]);
        let ba = fold_children(&[b, a]);
        assert_ne!(ab.hash, ba.hash);
        assert_eq!(ab.count, 7);
        assert_eq!(ba.count, 7);
    }

    #[test]
    fn cache_recomputes_only_dirty_buckets() {
        let cache = SummaryCache::new();
        let mut calls = vec![0u32; BUCKETS];
        // First level-0 read scans everything.
        let l0 = cache.children(0, 0, &mut |b| {
            calls[b as usize] += 1;
            Digest {
                hash: b as u64,
                count: 1,
            }
        });
        assert_eq!(l0.len(), GROUPS);
        assert!(calls.iter().all(|&c| c == 1));
        // A clean re-read recomputes nothing.
        let l0_again = cache.children(0, 0, &mut |b| {
            calls[b as usize] += 1;
            Digest {
                hash: b as u64,
                count: 1,
            }
        });
        assert_eq!(l0, l0_again);
        assert!(calls.iter().all(|&c| c == 1));
        // Dirtying one key refreshes exactly its bucket, and only the
        // owning group's digest moves.
        cache.mark(b"\x23x");
        let l0_after = cache.children(0, 0, &mut |b| {
            calls[b as usize] += 1;
            Digest {
                hash: 999,
                count: 1,
            }
        });
        assert_eq!(calls[0x23], 2);
        assert_eq!(
            calls.iter().map(|&c| c as u64).sum::<u64>(),
            BUCKETS as u64 + 1
        );
        for g in 0..GROUPS {
            if g == 0x2 {
                assert_ne!(l0[g], l0_after[g]);
            } else {
                assert_eq!(l0[g], l0_after[g]);
            }
        }
    }

    #[test]
    fn level_one_returns_leaf_digests_for_the_group() {
        let cache = SummaryCache::new();
        let leaves = cache.children(1, 3, &mut |b| Digest {
            hash: b as u64,
            count: b as u64,
        });
        assert_eq!(leaves.len(), FANOUT);
        for (i, d) in leaves.iter().enumerate() {
            assert_eq!(d.hash, (3 * FANOUT + i) as u64);
        }
        // Root folds the same leaves.
        let l0 = cache.children(0, 0, &mut |b| Digest {
            hash: b as u64,
            count: b as u64,
        });
        assert_eq!(l0[3], fold_children(&leaves));
        // Out-of-range requests are empty, not panics.
        assert!(cache.children(1, 16, &mut |_| Digest::default()).is_empty());
        assert!(cache.children(2, 0, &mut |_| Digest::default()).is_empty());
    }

    #[test]
    fn mark_span_dirties_the_inclusive_range() {
        let cache = SummaryCache::new();
        // Settle the cache.
        cache.children(0, 0, &mut |_| Digest::default());
        let mut touched = Vec::new();
        cache.mark_span(10, 12);
        cache.children(0, 0, &mut |b| {
            touched.push(b);
            Digest::default()
        });
        assert_eq!(touched, vec![10, 11, 12]);
    }
}
