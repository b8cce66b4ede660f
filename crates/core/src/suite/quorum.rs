//! Quorum selection policies.
//!
//! The algorithm is correct for *any* choice of quorum members (every read
//! quorum intersects every write quorum by construction), so the policy is a
//! pure performance knob:
//!
//! * [`RandomPolicy`] reproduces the paper's simulations, where "the members
//!   of quorums … were selected randomly from a uniform distribution" (§4);
//! * [`StickyPolicy`] models §5's observation that "if the memberships of
//!   write quorums change infrequently, coalescing during deletions will not
//!   be costly", behaving like a moving-primary scheme;
//! * [`FixedPolicy`] always prefers the same ordering (a degenerate sticky
//!   policy — a true primary-copy-like assignment);
//! * [`LocalityPolicy`] reproduces Figure 16: transactions pick quorums near
//!   their key range so reads are local and remote writes spread evenly;
//! * [`LatencyPolicy`] closes the loop with the obs subsystem: it orders
//!   members by their measured reply-time EWMA, so a read quorum costs the
//!   R-th *fastest* member's latency instead of a random draw's.

use crate::error::QuorumKind;
use crate::key::Key;
use crate::rng::SplitMix64;
use repdir_obs::{Avail, Ewma};

/// Chooses the order in which representatives are asked to join a quorum.
///
/// `candidates` returns member indices in preference order; the suite walks
/// the list, pinging each member, until enough votes are gathered. Returning
/// fewer than `n` indices is allowed — the suite appends the remaining
/// members in index order as a fallback, so a policy can express only a
/// preference prefix.
pub trait QuorumPolicy {
    /// Preference ordering for the given quorum kind over `n` members.
    /// `hint` is the key the operation concerns, when there is one, enabling
    /// locality-aware choices.
    fn candidates(&mut self, kind: QuorumKind, n: usize, hint: Option<&Key>) -> Vec<usize>;

    /// Offers the policy live per-member availability handles (member `i`
    /// described by `avails[i]`). `DirSuite::set_policy` calls this with the
    /// suite's windowed success-rate trackers; availability-aware policies
    /// ([`LatencyPolicy`]) keep the handles and discount their ranking,
    /// everything else ignores the hint.
    fn observe_availability(&mut self, _avails: &[Avail]) {}
}

impl<P: QuorumPolicy + ?Sized> QuorumPolicy for Box<P> {
    fn candidates(&mut self, kind: QuorumKind, n: usize, hint: Option<&Key>) -> Vec<usize> {
        (**self).candidates(kind, n, hint)
    }

    fn observe_availability(&mut self, avails: &[Avail]) {
        (**self).observe_availability(avails)
    }
}

/// Uniform random quorum selection (the paper's §4 simulation setup).
///
/// Each call draws an independent random permutation of the members, so
/// successive operations land on uncorrelated quorums — the worst case for
/// ghost accumulation, as §5 notes.
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    rng: SplitMix64,
}

impl RandomPolicy {
    /// Creates a policy with a deterministic seed (experiments are
    /// reproducible given the seed).
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: SplitMix64::new(seed),
        }
    }
}

impl QuorumPolicy for RandomPolicy {
    fn candidates(&mut self, _kind: QuorumKind, n: usize, _hint: Option<&Key>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        self.rng.shuffle(&mut order);
        order
    }
}

/// Mostly-stable quorum selection: keeps a preferred permutation and
/// reshuffles it only with probability `change_prob` per operation.
///
/// With `change_prob = 0` this never changes (see [`FixedPolicy`]); with
/// `change_prob = 1` it degenerates to [`RandomPolicy`]. The ablation
/// benchmark sweeps this knob to quantify §5's claim that infrequent quorum
/// changes make coalescing cheap.
#[derive(Clone, Debug)]
pub struct StickyPolicy {
    rng: SplitMix64,
    change_prob: f64,
    order: Vec<usize>,
}

impl StickyPolicy {
    /// Creates a sticky policy; `change_prob` is the per-operation
    /// probability of re-drawing the preferred permutation.
    pub fn new(seed: u64, change_prob: f64) -> Self {
        StickyPolicy {
            rng: SplitMix64::new(seed),
            change_prob,
            order: Vec::new(),
        }
    }
}

impl QuorumPolicy for StickyPolicy {
    fn candidates(&mut self, _kind: QuorumKind, n: usize, _hint: Option<&Key>) -> Vec<usize> {
        if self.order.len() != n {
            self.order = (0..n).collect();
            self.rng.shuffle(&mut self.order);
        } else if self.rng.next_bool(self.change_prob) {
            self.rng.shuffle(&mut self.order);
        }
        self.order.clone()
    }
}

/// A fixed preference ordering — representative 0 is always asked first
/// unless an explicit order is supplied. Failures still rotate later members
/// in, so this behaves like a primary with automatic failover.
#[derive(Clone, Debug, Default)]
pub struct FixedPolicy {
    order: Vec<usize>,
}

impl FixedPolicy {
    /// Prefers members in index order `0, 1, 2, …`.
    pub fn new() -> Self {
        FixedPolicy::default()
    }

    /// Prefers members in the given order.
    pub fn with_order(order: Vec<usize>) -> Self {
        FixedPolicy { order }
    }
}

impl QuorumPolicy for FixedPolicy {
    fn candidates(&mut self, _kind: QuorumKind, n: usize, _hint: Option<&Key>) -> Vec<usize> {
        if self.order.is_empty() {
            (0..n).collect()
        } else {
            self.order.iter().copied().filter(|&i| i < n).collect()
        }
    }
}

/// Figure 16's locality-aware policy.
///
/// The key space is split at `pivot`: operations on keys below the pivot
/// prefer the `low_members` (reading locally), operations at or above it
/// prefer the `high_members`. For writes — which need votes beyond the local
/// group — the non-local members are appended in rotating order so "the
/// non-local write … is evenly distributed among the remote representatives"
/// (§5).
#[derive(Clone, Debug)]
pub struct LocalityPolicy {
    pivot: Key,
    low_members: Vec<usize>,
    high_members: Vec<usize>,
    rotation: usize,
}

impl LocalityPolicy {
    /// Creates a locality policy splitting the key space at `pivot` between
    /// two groups of members.
    pub fn new(pivot: Key, low_members: Vec<usize>, high_members: Vec<usize>) -> Self {
        LocalityPolicy {
            pivot,
            low_members,
            high_members,
            rotation: 0,
        }
    }
}

impl QuorumPolicy for LocalityPolicy {
    fn candidates(&mut self, kind: QuorumKind, n: usize, hint: Option<&Key>) -> Vec<usize> {
        let is_low = match hint {
            Some(k) => *k < self.pivot,
            None => true,
        };
        let (local, remote) = if is_low {
            (&self.low_members, &self.high_members)
        } else {
            (&self.high_members, &self.low_members)
        };
        let mut order: Vec<usize> = local.iter().copied().filter(|&i| i < n).collect();
        if kind == QuorumKind::Write && !remote.is_empty() {
            // Rotate through remote members so remote write load spreads
            // evenly (Fig. 16: "either B1 or B2").
            let len = remote.len();
            for j in 0..len {
                let idx = remote[(self.rotation + j) % len];
                if idx < n {
                    order.push(idx);
                }
            }
            self.rotation = (self.rotation + 1) % len;
        }
        order
    }
}

/// Latency-aware quorum selection, driven by the suite's per-member
/// reply-time EWMAs (see `DirSuite::latency_policy`).
///
/// Members the policy has never seen a sample for sort *first*: they get
/// pinged, earn a sample, and from then on compete on measured latency.
/// After a few operations every member has been probed and quorums settle
/// on the R (or W) lowest-EWMA members — the fan-out wave then costs the
/// R-th fastest member's reply time. Samples keep flowing from the quorums
/// the policy itself selects, so a member that degrades is re-ranked and a
/// recovered member is re-discovered the next time the ranking probes it.
///
/// Given availability handles ([`LatencyPolicy::with_availability`] or
/// [`QuorumPolicy::observe_availability`]), the ranking key becomes
/// *availability-discounted* latency: `ewma / max(avail, floor)`. A member
/// answering in 1 ms but
/// dropping half its requests ranks like a 2 ms member — the expected cost of
/// getting an answer out of it — so flaky members sink below merely slow
/// ones without waiting for the failure-penalty EWMA to saturate.
#[derive(Clone, Debug)]
pub struct LatencyPolicy {
    ewmas: Vec<Ewma>,
    avails: Vec<Avail>,
}

/// Floor applied to the availability divisor so a member observed at zero
/// availability gets a huge-but-finite key instead of dividing by zero.
const AVAIL_FLOOR: f64 = 1.0 / 64.0;

impl LatencyPolicy {
    /// Creates a policy over per-member EWMA handles (member `i` is ranked
    /// by `ewmas[i]`). Clone the handles out of the suite with
    /// `DirSuite::member_reply_ewmas`, or construct synthetic ones in
    /// tests.
    pub fn new(ewmas: Vec<Ewma>) -> Self {
        LatencyPolicy {
            ewmas,
            avails: Vec::new(),
        }
    }

    /// Creates a policy that ranks by availability-discounted latency:
    /// member `i`'s EWMA is divided by `avails[i]`'s observed success rate.
    /// Clone both handle vectors out of the suite
    /// (`DirSuite::member_reply_ewmas` / `DirSuite::member_avails`), or use
    /// `DirSuite::latency_policy`, which wires them for you.
    pub fn with_availability(ewmas: Vec<Ewma>, avails: Vec<Avail>) -> Self {
        LatencyPolicy { ewmas, avails }
    }

    /// The ranking key: unsampled members sort before every sampled one,
    /// and sampled members sort by EWMA divided by observed availability
    /// (1.0 when no availability handle or no outcome has been recorded).
    fn key(&self, i: usize) -> f64 {
        let base = self
            .ewmas
            .get(i)
            .and_then(Ewma::value_us)
            .unwrap_or(f64::NEG_INFINITY);
        match self.avails.get(i).and_then(Avail::rate) {
            // NEG_INFINITY / rate stays NEG_INFINITY: an unsampled member
            // still probes first even once availability data exists.
            Some(rate) => base / rate.max(AVAIL_FLOOR),
            None => base,
        }
    }
}

impl QuorumPolicy for LatencyPolicy {
    fn candidates(&mut self, _kind: QuorumKind, n: usize, _hint: Option<&Key>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        // Stable sort under a total order: ties (and the unsampled) keep
        // index order, and a NaN key (conceivable only from a poisoned EWMA
        // sample) sorts deterministically last instead of making the
        // comparator inconsistent, which `partial_cmp`'s `Equal` fallback
        // silently did.
        order.sort_by(|&a, &b| self.key(a).total_cmp(&self.key(b)));
        order
    }

    fn observe_availability(&mut self, avails: &[Avail]) {
        self.avails = avails.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(v: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        for &i in v {
            if i >= n || seen[i] {
                return false;
            }
            seen[i] = true;
        }
        v.len() == n
    }

    #[test]
    fn random_policy_is_uniform_permutation() {
        let mut p = RandomPolicy::new(1);
        let mut first_counts = vec![0u32; 4];
        for _ in 0..4000 {
            let c = p.candidates(QuorumKind::Read, 4, None);
            assert!(is_permutation(&c, 4));
            first_counts[c[0]] += 1;
        }
        for &c in &first_counts {
            assert!((800..1200).contains(&c), "not uniform: {first_counts:?}");
        }
    }

    #[test]
    fn random_policy_deterministic_from_seed() {
        let mut a = RandomPolicy::new(42);
        let mut b = RandomPolicy::new(42);
        for _ in 0..10 {
            assert_eq!(
                a.candidates(QuorumKind::Write, 5, None),
                b.candidates(QuorumKind::Write, 5, None)
            );
        }
    }

    #[test]
    fn sticky_policy_with_zero_change_never_moves() {
        let mut p = StickyPolicy::new(7, 0.0);
        let first = p.candidates(QuorumKind::Write, 5, None);
        for _ in 0..100 {
            assert_eq!(p.candidates(QuorumKind::Write, 5, None), first);
        }
    }

    #[test]
    fn sticky_policy_with_full_change_keeps_permuting() {
        let mut p = StickyPolicy::new(7, 1.0);
        let first = p.candidates(QuorumKind::Write, 6, None);
        let mut changed = false;
        for _ in 0..50 {
            let c = p.candidates(QuorumKind::Write, 6, None);
            assert!(is_permutation(&c, 6));
            changed |= c != first;
        }
        assert!(changed);
    }

    #[test]
    fn sticky_policy_adapts_to_member_count_change() {
        let mut p = StickyPolicy::new(3, 0.0);
        assert!(is_permutation(&p.candidates(QuorumKind::Read, 3, None), 3));
        assert!(is_permutation(&p.candidates(QuorumKind::Read, 5, None), 5));
    }

    #[test]
    fn fixed_policy_prefers_index_order() {
        let mut p = FixedPolicy::new();
        assert_eq!(p.candidates(QuorumKind::Read, 3, None), vec![0, 1, 2]);
        let mut p = FixedPolicy::with_order(vec![2, 0, 1, 9]);
        // Out-of-range entries are dropped.
        assert_eq!(p.candidates(QuorumKind::Write, 3, None), vec![2, 0, 1]);
    }

    #[test]
    fn locality_policy_reads_stay_local() {
        // Fig. 16: A1=0, A2=1 serve keys < "n"; B1=2, B2=3 serve the rest.
        let mut p = LocalityPolicy::new(Key::from("n"), vec![0, 1], vec![2, 3]);
        let low = p.candidates(QuorumKind::Read, 4, Some(&Key::from("c")));
        assert_eq!(low, vec![0, 1]);
        let high = p.candidates(QuorumKind::Read, 4, Some(&Key::from("x")));
        assert_eq!(high, vec![2, 3]);
    }

    #[test]
    fn locality_policy_writes_rotate_remote_members() {
        let mut p = LocalityPolicy::new(Key::from("n"), vec![0, 1], vec![2, 3]);
        let w1 = p.candidates(QuorumKind::Write, 4, Some(&Key::from("c")));
        let w2 = p.candidates(QuorumKind::Write, 4, Some(&Key::from("c")));
        assert_eq!(&w1[..2], &[0, 1]);
        assert_eq!(&w2[..2], &[0, 1]);
        // The first remote candidate alternates between B1 and B2.
        assert_ne!(w1[2], w2[2]);
        assert!([2, 3].contains(&w1[2]));
        assert!([2, 3].contains(&w2[2]));
    }

    #[test]
    fn latency_policy_orders_by_ewma_ascending() {
        let ewmas: Vec<Ewma> = (0..4).map(|_| Ewma::new(0.5)).collect();
        ewmas[0].record_us(300.0);
        ewmas[1].record_us(50.0);
        ewmas[2].record_us(9000.0);
        ewmas[3].record_us(120.0);
        let mut p = LatencyPolicy::new(ewmas);
        assert_eq!(p.candidates(QuorumKind::Read, 4, None), vec![1, 3, 0, 2]);
    }

    #[test]
    fn latency_policy_probes_unsampled_members_first() {
        let ewmas: Vec<Ewma> = (0..4).map(|_| Ewma::new(0.5)).collect();
        ewmas[0].record_us(10.0);
        ewmas[2].record_us(20.0);
        let mut p = LatencyPolicy::new(ewmas);
        // 1 and 3 have no samples: they lead (in index order) so the suite
        // pings them and they earn one.
        assert_eq!(p.candidates(QuorumKind::Read, 4, None), vec![1, 3, 0, 2]);
        // Once sampled, ranking is purely by measured latency.
        p.ewmas[1].record_us(15.0);
        p.ewmas[3].record_us(5.0);
        assert_eq!(p.candidates(QuorumKind::Read, 4, None), vec![3, 0, 1, 2]);
    }

    #[test]
    fn latency_policy_tracks_ewma_updates() {
        let ewmas: Vec<Ewma> = (0..2).map(|_| Ewma::new(1.0)).collect();
        ewmas[0].record_us(10.0);
        ewmas[1].record_us(20.0);
        let mut p = LatencyPolicy::new(ewmas);
        assert_eq!(p.candidates(QuorumKind::Write, 2, None), vec![0, 1]);
        // Member 0 degrades: the very next selection re-ranks.
        p.ewmas[0].record_us(500.0);
        assert_eq!(p.candidates(QuorumKind::Write, 2, None), vec![1, 0]);
    }

    #[test]
    fn boxed_policy_is_a_policy() {
        let mut p: Box<dyn QuorumPolicy> = Box::new(FixedPolicy::new());
        assert_eq!(p.candidates(QuorumKind::Read, 2, None), vec![0, 1]);
    }

    #[test]
    fn latency_policy_discounts_by_availability() {
        let ewmas: Vec<Ewma> = (0..3).map(|_| Ewma::new(1.0)).collect();
        ewmas[0].record_us(100.0);
        ewmas[1].record_us(150.0);
        ewmas[2].record_us(400.0);
        let avails: Vec<Avail> = (0..3).map(|_| Avail::new()).collect();
        for a in &avails {
            a.record(true);
        }
        let mut p = LatencyPolicy::with_availability(ewmas, avails.clone());
        // Fully available: pure latency order.
        assert_eq!(p.candidates(QuorumKind::Read, 3, None), vec![0, 1, 2]);
        // Member 0 starts dropping three quarters of its requests: its
        // discounted cost (100 / 0.25 = 400) ties the genuinely slow member
        // and the stable sort puts it after the healthy ones.
        for _ in 0..3 {
            avails[0].record(false);
        }
        assert_eq!(p.candidates(QuorumKind::Read, 3, None), vec![1, 0, 2]);
    }

    #[test]
    fn latency_policy_discount_keeps_unsampled_first() {
        let ewmas: Vec<Ewma> = (0..3).map(|_| Ewma::new(1.0)).collect();
        ewmas[0].record_us(10.0);
        ewmas[2].record_us(20.0);
        let avails: Vec<Avail> = (0..3).map(|_| Avail::new()).collect();
        avails[1].record(false); // failed before ever earning an EWMA sample
        let mut p = LatencyPolicy::with_availability(ewmas, avails);
        // NEG_INFINITY / rate is still NEG_INFINITY: member 1 probes first.
        assert_eq!(p.candidates(QuorumKind::Read, 3, None), vec![1, 0, 2]);
    }

    #[test]
    fn latency_policy_total_cmp_survives_nan_keys() {
        let ewmas: Vec<Ewma> = (0..3).map(|_| Ewma::new(1.0)).collect();
        ewmas[0].record_us(f64::NAN);
        ewmas[1].record_us(10.0);
        ewmas[2].record_us(20.0);
        let mut p = LatencyPolicy::new(ewmas);
        // A poisoned (NaN) EWMA must not panic or scramble the order:
        // total_cmp ranks NaN after every finite key, so the healthy
        // members come first and the result stays a permutation.
        let order = p.candidates(QuorumKind::Read, 3, None);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn observe_availability_wires_the_discount() {
        let ewmas: Vec<Ewma> = (0..2).map(|_| Ewma::new(1.0)).collect();
        ewmas[0].record_us(100.0);
        ewmas[1].record_us(120.0);
        let avails: Vec<Avail> = (0..2).map(|_| Avail::new()).collect();
        avails[0].record(false);
        avails[1].record(true);
        let mut p = LatencyPolicy::new(ewmas);
        assert_eq!(p.candidates(QuorumKind::Read, 2, None), vec![0, 1]);
        // The suite hands the handles over; the ranking flips.
        p.observe_availability(&avails);
        assert_eq!(p.candidates(QuorumKind::Read, 2, None), vec![1, 0]);
        // Policies without an override ignore the hint entirely.
        let mut fixed: Box<dyn QuorumPolicy> = Box::new(FixedPolicy::new());
        fixed.observe_availability(&[]);
        assert_eq!(fixed.candidates(QuorumKind::Read, 2, None), vec![0, 1]);
    }
}
