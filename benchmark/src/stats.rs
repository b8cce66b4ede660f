//! Seeded randomness and order statistics. `--seed` reaches the benchmark
//! only through [`SplitMix64`], so one seed always gives one op stream.

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and good enough to pick
/// op kinds, slots and value bytes.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An independent generator for sub-stream `stream` (one per client).
    pub fn fork(&self, stream: u64) -> SplitMix64 {
        let mut parent = SplitMix64(self.0 ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix64(parent.next_u64())
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`); `0.0` for
/// an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted values (mean of the middle pair for an even count);
/// `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 33 samples: p95 is the 32nd, one short of the maximum.
        let w: Vec<u64> = (1..=33).collect();
        assert_eq!(percentile(&w, 0.95), 32.0);
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let root = SplitMix64::new(42);
        assert_ne!(root.fork(0).next_u64(), root.fork(1).next_u64());
        assert_eq!(root.fork(1).next_u64(), root.fork(1).next_u64());
        assert!((0..1000).all(|_| a.below(10) < 10));
    }
}
