//! The benchmark's key space: 2^14 slots, 8-byte keys, 64-byte values.

use std::ops::Range;

use repdir::core::{Key, UserKey, Value};

use crate::stats::SplitMix64;

/// Number of key slots. Even slots are preloaded, odd slots are insert
/// targets.
pub const SLOTS: u64 = 1 << 14;

/// Bytes per value.
pub const VALUE_LEN: usize = 64;

/// Slots sit in the top 14 bits of the big-endian key, so key order is slot
/// order *and* the leading byte (the repair summary's bucket) takes all 256
/// values. `from_u64(slot)` would put every key in bucket 0 and turn each
/// repair pull into a full copy.
const SLOT_SHIFT: u32 = 50;

pub fn user_key(slot: u64) -> UserKey {
    debug_assert!(slot < SLOTS);
    UserKey::from_u64(slot << SLOT_SHIFT)
}

pub fn key_of(slot: u64) -> Key {
    Key::from(user_key(slot))
}

/// The contiguous slot range client `client` of `clients` owns.
pub fn stripe(client: u64, clients: u64) -> Range<u64> {
    let width = SLOTS / clients;
    client * width..(client + 1) * width
}

/// A fresh 64-byte value.
pub fn value(rng: &mut SplitMix64) -> Value {
    let mut bytes = Vec::with_capacity(VALUE_LEN);
    for _ in 0..VALUE_LEN / 8 {
        bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    Value::from(bytes)
}

/// `count` preloaded slots, evenly spread over `range` and all even.
pub fn preload_slots(range: Range<u64>, count: u64) -> impl Iterator<Item = u64> {
    let step = ((range.end - range.start) / count).max(2) & !1;
    (0..count).map(move |i| range.start + i * step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn key_order_is_slot_order() {
        let mut prev = user_key(0);
        for slot in 1..SLOTS {
            let next = user_key(slot);
            assert!(prev < next, "slot {slot}");
            assert_eq!(next.len(), 8);
            prev = next;
        }
    }

    #[test]
    fn keys_cover_every_summary_bucket() {
        let buckets: BTreeSet<u8> = (0..SLOTS).map(|s| user_key(s).as_bytes()[0]).collect();
        assert_eq!(buckets.len(), 256);
        // And evenly: 64 slots per leading byte.
        let in_first = (0..SLOTS)
            .filter(|&s| user_key(s).as_bytes()[0] == 0)
            .count();
        assert_eq!(in_first, (SLOTS / 256) as usize);
    }

    #[test]
    fn stripes_partition_the_slots() {
        assert_eq!(stripe(0, 1), 0..SLOTS);
        assert_eq!(stripe(0, 2), 0..SLOTS / 2);
        assert_eq!(stripe(1, 2), SLOTS / 2..SLOTS);
    }

    #[test]
    fn preload_is_even_and_inside_the_stripe() {
        let full: Vec<u64> = preload_slots(stripe(1, 2), 4096).collect();
        assert_eq!(full.len(), 4096);
        assert!(full.iter().all(|s| s % 2 == 0 && stripe(1, 2).contains(s)));
        assert!(full.windows(2).all(|w| w[0] < w[1]));
        let sparse: Vec<u64> = preload_slots(0..SLOTS, 512).collect();
        assert_eq!(sparse.len(), 512);
        assert_eq!(sparse[1] - sparse[0], 32);
        assert!(sparse.iter().all(|s| s % 2 == 0 && *s < SLOTS));
    }

    #[test]
    fn values_are_64_bytes_and_seeded() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        let va = value(&mut a);
        assert_eq!(va.len(), VALUE_LEN);
        assert_eq!(va, value(&mut b));
        assert_ne!(va, value(&mut a));
    }
}
