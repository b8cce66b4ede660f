//! Shared atomic metric primitives: counters, fixed-bucket latency
//! histograms, and reply-time EWMAs. Every handle is a cheap `Arc` clone of
//! the underlying atomics, so instrumented code resolves a name once and
//! records lock-free afterwards.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing event counter. Cloning shares the value.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (tests and `reset_message_counts`-style views).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Overwrites the value — turns the counter into a gauge for
    /// level-style readings (e.g. a driver's current backoff interval).
    /// Monotone counters never call this.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: upper bounds 1, 2, 4, … 2²⁰ microseconds
/// (≈1.05 s), plus one overflow bucket.
pub const BUCKET_COUNT: usize = 22;

/// Upper bound (inclusive, in microseconds) of bucket `i`; the final bucket
/// catches everything larger.
pub(crate) fn bucket_bound_us(i: usize) -> u64 {
    if i + 1 >= BUCKET_COUNT {
        u64::MAX
    } else {
        1u64 << i
    }
}

fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        // Smallest i with us <= 2^i.
        let i = (64 - (us - 1).leading_zeros()) as usize;
        i.min(BUCKET_COUNT - 1)
    }
}

#[derive(Debug, Default)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum_us: AtomicU64,
}

/// A fixed-bucket latency histogram over power-of-two microsecond bounds.
/// Recording is two relaxed adds and a store-free bucket increment; reads
/// are approximate (buckets are not sampled atomically as a set), which is
/// fine for monitoring and for the quantile gates in the benches.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records a duration.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros() as u64);
    }

    /// Records a sample in microseconds.
    pub fn record_us(&self, us: u64) {
        self.0.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.0.sum_us.load(Ordering::Relaxed)
    }

    /// Mean sample, microseconds (`None` when empty).
    pub fn mean_us(&self) -> Option<f64> {
        match self.count() {
            0 => None,
            n => Some(self.sum_us() as f64 / n as f64),
        }
    }

    /// Approximate quantile (`0.0 ..= 1.0`): the upper bound of the bucket
    /// holding the q-th sample, so the estimate errs high by at most one
    /// power of two. `None` when empty.
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        let snap = self.snapshot();
        let total = snap.count;
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in snap.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_bound_us(i));
            }
        }
        Some(bucket_bound_us(BUCKET_COUNT - 1))
    }

    /// A point-in-time copy of the bucket contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum_us: self.sum_us(),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Plain-data copy of a [`Histogram`], diffable for tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples, microseconds.
    pub sum_us: u64,
    /// Per-bucket sample counts (see [`BUCKET_COUNT`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Bucket-wise `self - earlier` (saturating), for windowed assertions.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_us: self.sum_us.saturating_sub(earlier.sum_us),
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
        }
    }
}

/// Number of outcomes after which an [`Avail`] window halves both counters,
/// so old outcomes decay geometrically instead of dominating forever.
pub const AVAIL_WINDOW: u64 = 64;

/// A windowed success-rate tracker: `successes / total` over roughly the
/// last [`AVAIL_WINDOW`] outcomes. Both counts live packed in one atomic
/// (successes in the high 32 bits, total in the low 32), updated by CAS so
/// concurrent recorders never lock; when the window fills, the total and
/// the misses halve (a lone miss rounds away, so it is forgotten after one
/// window of successes), giving an exponential decay with the same flavor
/// as [`Ewma`] but over boolean outcomes.
#[derive(Clone, Debug, Default)]
pub struct Avail(Arc<AtomicU64>);

fn avail_pack(successes: u64, total: u64) -> u64 {
    (successes << 32) | total
}

fn avail_unpack(packed: u64) -> (u64, u64) {
    (packed >> 32, packed & 0xFFFF_FFFF)
}

impl Avail {
    /// A fresh tracker with no outcomes recorded.
    pub fn new() -> Self {
        Avail::default()
    }

    /// Records one ping/RPC outcome.
    pub fn record(&self, ok: bool) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let (mut successes, mut total) = avail_unpack(cur);
            if total >= AVAIL_WINDOW {
                // Halve the *misses*, rounding down: halving successes and
                // total would keep `total - successes` at 1 for ever, and a
                // member that missed once would never read as clean again.
                let misses = (total - successes) / 2;
                total /= 2;
                successes = total - misses;
            }
            successes += ok as u64;
            total += 1;
            match self.0.compare_exchange_weak(
                cur,
                avail_pack(successes, total),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// The windowed success rate in `0.0 ..= 1.0`; `None` before the first
    /// outcome.
    pub fn rate(&self) -> Option<f64> {
        let (successes, total) = avail_unpack(self.0.load(Ordering::Relaxed));
        match total {
            0 => None,
            t => Some(successes as f64 / t as f64),
        }
    }

    /// How many outcomes the current window holds (saturates at
    /// [`AVAIL_WINDOW`]).
    pub fn samples(&self) -> u64 {
        avail_unpack(self.0.load(Ordering::Relaxed)).1
    }

    /// Forgets all outcomes.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Sentinel bit pattern for "no sample yet" (a NaN, never produced by
/// recording non-negative samples).
const EWMA_EMPTY: u64 = u64::MAX;

#[derive(Debug)]
struct EwmaInner {
    bits: AtomicU64,
    alpha: f64,
}

/// An exponentially weighted moving average of latency samples
/// (microseconds), stored as `f64` bits in one atomic so concurrent
/// recorders never lock. The first sample seeds the average; each later
/// sample `x` moves it to `alpha * x + (1 - alpha) * avg`.
#[derive(Clone, Debug)]
pub struct Ewma(Arc<EwmaInner>);

impl Default for Ewma {
    fn default() -> Self {
        Ewma::new(0.3)
    }
}

impl Ewma {
    /// A fresh EWMA with the given smoothing factor (`0 < alpha <= 1`;
    /// larger alpha forgets faster).
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma(Arc::new(EwmaInner {
            bits: AtomicU64::new(EWMA_EMPTY),
            alpha,
        }))
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.0.alpha
    }

    /// Records a duration sample.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros() as f64);
    }

    /// Records a sample in microseconds.
    pub fn record_us(&self, x: f64) {
        let mut cur = self.0.bits.load(Ordering::Relaxed);
        loop {
            let next = if cur == EWMA_EMPTY {
                x
            } else {
                self.0.alpha * x + (1.0 - self.0.alpha) * f64::from_bits(cur)
            };
            match self.0.bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => cur = observed,
            }
        }
    }

    /// Current average in microseconds; `None` before the first sample.
    pub fn value_us(&self) -> Option<f64> {
        match self.0.bits.load(Ordering::Relaxed) {
            EWMA_EMPTY => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Forgets all samples.
    pub fn reset(&self) {
        self.0.bits.store(EWMA_EMPTY, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shared_across_clones() {
        let a = Counter::new();
        let b = a.clone();
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        a.reset();
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_powers_of_two() {
        // Each (sample, bucket) pair pins the boundary rule: bucket i holds
        // samples in (2^(i-1), 2^i], bucket 0 holds 0..=1.
        let cases = [
            (0u64, 0usize),
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (1024, 10),
            (1025, 11),
            (1 << 20, 20),
            ((1 << 20) + 1, 21),
            (u64::MAX, 21),
        ];
        for &(us, want) in &cases {
            assert_eq!(bucket_index(us), want, "sample {us}us");
            let h = Histogram::new();
            h.record_us(us);
            let snap = h.snapshot();
            assert_eq!(snap.buckets[want], 1, "sample {us}us lands in {want}");
            assert_eq!(snap.count, 1);
        }
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.mean_us(), None);
        for us in [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 3000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum_us(), 900 + 3000);
        // p50 of nine 100us samples and one 3000us: the 100us bucket's
        // upper bound (128).
        assert_eq!(h.quantile_us(0.5), Some(128));
        // p99 rounds up into the outlier's bucket (3000 <= 4096).
        assert_eq!(h.quantile_us(0.99), Some(4096));
        assert!((h.mean_us().unwrap() - 390.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_snapshot_diff_windows() {
        let h = Histogram::new();
        h.record_us(10);
        let before = h.snapshot();
        h.record_us(10);
        h.record_us(2000);
        let delta = h.snapshot().diff(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum_us, 2010);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn avail_tracks_windowed_success_rate() {
        let a = Avail::new();
        assert_eq!(a.rate(), None);
        a.record(true);
        assert_eq!(a.rate(), Some(1.0));
        a.record(false);
        assert_eq!(a.rate(), Some(0.5));
        for _ in 0..6 {
            a.record(true);
        }
        assert_eq!(a.rate(), Some(7.0 / 8.0));
        a.reset();
        assert_eq!(a.rate(), None);
        assert_eq!(a.samples(), 0);
    }

    #[test]
    fn avail_forgets_a_single_miss_after_a_window_of_successes() {
        let a = Avail::new();
        a.record(false);
        for _ in 0..2 * AVAIL_WINDOW {
            a.record(true);
        }
        assert_eq!(a.rate(), Some(1.0));
    }

    #[test]
    fn avail_halving_keeps_a_flaky_members_rate() {
        let a = Avail::new();
        for i in 0..10 * AVAIL_WINDOW {
            a.record(i % 2 == 0);
            if i >= AVAIL_WINDOW {
                let rate = a.rate().unwrap();
                assert!((rate - 0.5).abs() <= 0.02, "rate {rate} after {i}");
            }
        }
    }

    #[test]
    fn avail_window_halves_so_history_decays() {
        let a = Avail::new();
        for _ in 0..AVAIL_WINDOW {
            a.record(false);
        }
        assert_eq!(a.rate(), Some(0.0));
        assert_eq!(a.samples(), AVAIL_WINDOW);
        // Window is full: the next outcome halves the history, so a run of
        // successes pulls the rate up far faster than 1/(total) would.
        for _ in 0..AVAIL_WINDOW {
            a.record(true);
        }
        assert!(a.rate().unwrap() > 0.6, "rate {:?}", a.rate());
        assert!(a.samples() <= AVAIL_WINDOW);
    }

    #[test]
    fn avail_wraparound_reflects_only_the_trailing_window() {
        // Push the ring far past one window length in both directions: the
        // estimate must track the trailing outcomes and shed the old regime
        // geometrically, never averaging over the full history (a plain
        // success/total ratio over 4 windows would sit near 0.75 here).
        let a = Avail::new();
        for _ in 0..AVAIL_WINDOW {
            a.record(false);
        }
        for _ in 0..3 * AVAIL_WINDOW {
            a.record(true);
        }
        assert!(
            a.rate().unwrap() > 0.95,
            "3 windows of successes should dominate: {:?}",
            a.rate()
        );
        assert!(a.samples() <= AVAIL_WINDOW, "window stays bounded");
        // And back down: the success era decays just as fast.
        for _ in 0..3 * AVAIL_WINDOW {
            a.record(false);
        }
        assert!(
            a.rate().unwrap() < 0.05,
            "3 windows of failures should dominate: {:?}",
            a.rate()
        );
        assert!(a.samples() <= AVAIL_WINDOW);
    }

    #[test]
    fn avail_concurrent_recording_loses_nothing() {
        let a = Avail::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let a = a.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        a.record(true);
                    }
                });
            }
        });
        // All outcomes are successes: whatever halving happened, the rate
        // must be exactly 1.
        assert_eq!(a.rate(), Some(1.0));
    }

    #[test]
    fn ewma_first_sample_seeds_then_decays() {
        let e = Ewma::new(0.5);
        assert_eq!(e.value_us(), None);
        e.record_us(100.0);
        assert_eq!(e.value_us(), Some(100.0));
        e.record_us(200.0);
        assert_eq!(e.value_us(), Some(150.0));
        e.record_us(200.0);
        assert_eq!(e.value_us(), Some(175.0));
        e.reset();
        assert_eq!(e.value_us(), None);
    }

    #[test]
    fn ewma_decays_toward_new_level_geometrically() {
        // After k samples at a new level L, the distance to L shrinks by
        // (1-alpha)^k — the defining property of exponential decay.
        let e = Ewma::new(0.3);
        e.record_us(1000.0);
        for _ in 0..20 {
            e.record_us(0.0);
        }
        let want = 1000.0 * (0.7f64).powi(20);
        assert!((e.value_us().unwrap() - want).abs() < 1e-6);
    }

    #[test]
    fn ewma_concurrent_recording_stays_in_range() {
        let e = Ewma::new(0.2);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        e.record_us(50.0);
                    }
                });
            }
        });
        // Every sample is 50, so the average must converge to exactly 50
        // regardless of interleaving.
        assert!((e.value_us().unwrap() - 50.0).abs() < 1e-9);
    }
}
