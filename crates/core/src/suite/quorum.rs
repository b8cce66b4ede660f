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
//!   their key range so reads are local and remote writes spread evenly.

use crate::error::QuorumKind;
use crate::key::Key;
use crate::rng::SplitMix64;

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
}

impl<P: QuorumPolicy + ?Sized> QuorumPolicy for Box<P> {
    fn candidates(&mut self, kind: QuorumKind, n: usize, hint: Option<&Key>) -> Vec<usize> {
        (**self).candidates(kind, n, hint)
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
    fn boxed_policy_is_a_policy() {
        let mut p: Box<dyn QuorumPolicy> = Box::new(FixedPolicy::new());
        assert_eq!(p.candidates(QuorumKind::Read, 2, None), vec![0, 1]);
    }
}
