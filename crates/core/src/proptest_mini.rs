//! A minimal, fully deterministic property-testing harness.
//!
//! The workspace builds offline with zero external crates, so this module
//! replaces the subset of `proptest` the test suite uses: strategies for
//! scalars, ranges, tuples and vectors, [`Just`], `prop_map`, weighted
//! [`prop_oneof!`](crate::prop_oneof), a [`proptest!`](crate::proptest)
//! test macro, and *shrinking-lite* — on failure, the harness minimises the
//! failing input by dropping list elements and walking scalars toward their
//! lower bound, then reports the smallest still-failing case.
//!
//! Determinism: every case is derived from [`ProptestConfig::seed`] via the
//! in-tree [`SplitMix64`] generator. The same seed always produces the
//! same case sequence, so a failure report's seed can be pinned in a
//! regression test. Set the `REPDIR_PROPTEST_SEED` environment variable to
//! explore other schedules without editing code.
//!
//! # Examples
//!
//! ```
//! use repdir_core::proptest_mini::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(64))]
//!
//!     #[test]
//!     fn addition_commutes(a in any::<u32>(), b in any::<u32>()) {
//!         prop_assert_eq!(a as u64 + b as u64, b as u64 + a as u64);
//!     }
//! }
//!
//! # fn main() {} // #[test] fns only run under the test harness
//! ```

// The doctest above demonstrates the `proptest!` macro, whose whole point
// is to expand `#[test]` functions; the example compiles but is not run as
// a test, which is exactly what its trailing `fn main` comment says.
#![allow(clippy::test_attr_in_doctest)]

use std::cell::Cell;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Once;

use crate::rng::SplitMix64;

/// Harness configuration: case count and master seed.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
    /// Master seed; every generated case derives from it deterministically.
    pub seed: u64,
    /// Upper bound on accepted shrink steps before reporting.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let seed = std::env::var("REPDIR_PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0x1983_0DA1); // Daniels & Spector, 1983.
        ProptestConfig {
            cases: 256,
            seed,
            max_shrink_iters: 4096,
        }
    }
}

impl ProptestConfig {
    /// The default configuration with `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..Default::default()
        }
    }
}

/// A generator of test inputs with optional shrink candidates.
///
/// `shrink` returns *simpler* variants of a failing value; the harness keeps
/// any candidate that still fails and repeats. Strategies that cannot invert
/// their construction (e.g. [`Map`], [`Union`]) return no candidates —
/// shrinking then happens at the enclosing vector/tuple level, which is
/// where most of the minimisation value lies.
pub trait Strategy {
    /// The generated input type.
    type Value: Clone + Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut SplitMix64) -> Self::Value;

    /// Simpler candidate replacements for `value` (possibly empty).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: Clone + Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`](crate::prop_oneof)).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy {
            inner: Rc::new(self),
        }
    }
}

// ---- scalar strategies ----

/// Types with a canonical whole-domain strategy, via [`any`].
pub trait Arbitrary: Clone + Debug + 'static {
    /// Generates a uniformly distributed value.
    fn arbitrary(rng: &mut SplitMix64) -> Self;
    /// Simpler candidates for shrinking.
    fn shrink_value(&self) -> Vec<Self>;
}

macro_rules! arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut SplitMix64) -> Self {
                rng.next_u64() as $t
            }
            fn shrink_value(&self) -> Vec<Self> {
                let mut out = Vec::new();
                if *self != 0 {
                    out.push(0);
                    if *self > 1 {
                        out.push(self / 2);
                        out.push(self - 1);
                    }
                }
                out.dedup();
                out
            }
        }
    )*};
}
arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut SplitMix64) -> Self {
        rng.next_u64() & 1 == 1
    }
    fn shrink_value(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut SplitMix64) -> Self {
        // Uniform in [0, 1): ample for workload parameters.
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
    fn shrink_value(&self) -> Vec<Self> {
        if *self != 0.0 {
            vec![0.0, self / 2.0]
        } else {
            Vec::new()
        }
    }
}

/// The whole-domain strategy for `T` (cf. `proptest::arbitrary::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Clone, Copy, Debug)]
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut SplitMix64) -> T {
        T::arbitrary(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        value.shrink_value()
    }
}

macro_rules! range_strategy_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut SplitMix64) -> $t {
                assert!(self.start < self.end, "empty range strategy {self:?}");
                let span = (self.end - self.start) as u64;
                self.start + rng.next_below(span) as $t
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let mut out = Vec::new();
                if *value > self.start {
                    out.push(self.start);
                    let mid = self.start + (value - self.start) / 2;
                    if mid != self.start && mid != *value {
                        out.push(mid);
                    }
                    if value - 1 != self.start {
                        out.push(value - 1);
                    }
                }
                out
            }
        }
    )*};
}
range_strategy_uint!(u8, u16, u32, u64, usize);

impl Strategy for Range<i32> {
    type Value = i32;
    fn generate(&self, rng: &mut SplitMix64) -> i32 {
        assert!(self.start < self.end, "empty range strategy {self:?}");
        let span = (self.end as i64 - self.start as i64) as u64;
        (self.start as i64 + rng.next_below(span) as i64) as i32
    }
    fn shrink(&self, value: &i32) -> Vec<i32> {
        if *value > self.start {
            vec![self.start, self.start + (value - self.start) / 2]
        } else {
            Vec::new()
        }
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut SplitMix64) -> f64 {
        assert!(self.start < self.end, "empty range strategy {self:?}");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
    fn shrink(&self, value: &f64) -> Vec<f64> {
        if *value > self.start {
            vec![self.start, self.start + (value - self.start) / 2.0]
        } else {
            Vec::new()
        }
    }
}

/// The strategy that always yields one value (cf. `proptest::strategy::Just`).
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut SplitMix64) -> T {
        self.0.clone()
    }
}

// ---- combinators ----

/// Strategy mapping another strategy's output (see [`Strategy::prop_map`]).
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: Clone + Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut SplitMix64) -> U {
        (self.f)(self.inner.generate(rng))
    }
    // Not invertible: shrinking happens at the enclosing collection level.
}

/// A type-erased, reference-counted strategy.
pub struct BoxedStrategy<V> {
    inner: Rc<dyn Strategy<Value = V>>,
}

impl<V> Clone for BoxedStrategy<V> {
    fn clone(&self) -> Self {
        BoxedStrategy {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<V> Debug for BoxedStrategy<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BoxedStrategy")
    }
}

impl<V: Clone + Debug> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut SplitMix64) -> V {
        self.inner.generate(rng)
    }
    fn shrink(&self, value: &V) -> Vec<V> {
        self.inner.shrink(value)
    }
}

/// A weighted choice among strategies (built by
/// [`prop_oneof!`](crate::prop_oneof)).
#[derive(Clone, Debug)]
pub struct Union<V> {
    arms: Vec<(u32, BoxedStrategy<V>)>,
    total_weight: u64,
}

impl<V: Clone + Debug> Union<V> {
    /// Builds a union; weights must sum to a positive value.
    pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
        let total_weight = arms.iter().map(|(w, _)| *w as u64).sum();
        assert!(total_weight > 0, "prop_oneof! needs positive total weight");
        Union { arms, total_weight }
    }
}

impl<V: Clone + Debug> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut SplitMix64) -> V {
        let mut pick = rng.next_below(self.total_weight);
        for (weight, arm) in &self.arms {
            if pick < *weight as u64 {
                return arm.generate(rng);
            }
            pick -= *weight as u64;
        }
        unreachable!("pick is below the total weight");
    }
    // The generating arm is unknown at shrink time: no candidates.
}

macro_rules! tuple_strategy {
    ($(($($s:ident / $v:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut SplitMix64) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = candidate;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )*};
}
tuple_strategy! {
    (S0/v0/0)
    (S0/v0/0, S1/v1/1)
    (S0/v0/0, S1/v1/1, S2/v2/2)
    (S0/v0/0, S1/v1/1, S2/v2/2, S3/v3/3)
    (S0/v0/0, S1/v1/1, S2/v2/2, S3/v3/3, S4/v4/4)
    (S0/v0/0, S1/v1/1, S2/v2/2, S3/v3/3, S4/v4/4, S5/v5/5)
}

/// Collection strategies (`collection::vec`).
pub mod collection {
    use super::*;

    /// A strategy for vectors whose length is uniform in `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut SplitMix64) -> Vec<S::Value> {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let min = self.size.start;
            let mut out: Vec<Vec<S::Value>> = Vec::new();
            // Structural shrinks first: shorter lists localise failures
            // faster than simpler elements.
            if value.len() > min {
                out.push(value[..min].to_vec()); // minimal prefix
                let half = (value.len() + min) / 2;
                if half < value.len() && half > min {
                    out.push(value[..half].to_vec());
                }
                // Dropping single elements, spread across the list.
                let step = (value.len() / 8).max(1);
                for i in (0..value.len()).step_by(step) {
                    let mut shorter = value.clone();
                    shorter.remove(i);
                    out.push(shorter);
                }
            }
            // Element-wise shrinks at a few positions.
            for i in 0..value.len().min(8) {
                for candidate in self.element.shrink(&value[i]) {
                    let mut next = value.clone();
                    next[i] = candidate;
                    out.push(next);
                }
            }
            out
        }
    }
}

// ---- runner ----

thread_local! {
    static QUIET_PANICS: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once, process-wide) a panic hook that suppresses output while a
/// thread is probing candidate cases, so shrinking does not spam the log.
fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET_PANICS.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

fn fails<V: Clone>(test: &impl Fn(V), value: &V) -> Option<String> {
    QUIET_PANICS.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| test(value.clone())));
    QUIET_PANICS.with(|q| q.set(false));
    result.err().map(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_owned()
        }
    })
}

/// Runs `test` against `config.cases` generated inputs, shrinking and
/// reporting the minimal failing case. Used by the
/// [`proptest!`](crate::proptest) macro; call directly for programmatic
/// harnesses.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) on the first input whose
/// minimised form still fails, with a reproduction seed in the message.
pub fn run<S: Strategy>(config: ProptestConfig, strategy: S, test: impl Fn(S::Value)) {
    install_quiet_hook();
    let mut master = SplitMix64::new(config.seed);
    for case in 0..config.cases {
        let mut case_rng = master.fork();
        let value = strategy.generate(&mut case_rng);
        if let Some(first_message) = fails(&test, &value) {
            let (minimal, message, steps) = shrink_loop(
                &strategy,
                &test,
                value,
                first_message,
                config.max_shrink_iters,
            );
            panic!(
                "proptest-mini: property failed at case #{case} (seed {:#x}; \
                 set REPDIR_PROPTEST_SEED to reproduce)\n\
                 minimal failing input (after {steps} shrink steps):\n{minimal:#?}\n\
                 panic: {message}",
                config.seed
            );
        }
    }
}

fn shrink_loop<S: Strategy>(
    strategy: &S,
    test: &impl Fn(S::Value),
    mut current: S::Value,
    mut message: String,
    max_iters: u32,
) -> (S::Value, String, u32) {
    let mut steps = 0;
    'outer: while steps < max_iters {
        for candidate in strategy.shrink(&current) {
            if let Some(m) = fails(test, &candidate) {
                current = candidate;
                message = m;
                steps += 1;
                continue 'outer;
            }
        }
        break; // no candidate still fails: minimal
    }
    (current, message, steps)
}

/// Asserts a condition inside a property (alias for `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (alias for `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property (alias for `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Weighted or uniform choice among strategies producing one value type.
///
/// ```
/// use repdir_core::proptest_mini::prelude::*;
///
/// let uniform = prop_oneof![0u8..10, 50u8..60];
/// let weighted = prop_oneof![3 => 0u8..10, 1 => 50u8..60];
/// # let _ = (uniform, weighted);
/// ```
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::proptest_mini::Union::new(vec![
            $(($weight, $crate::proptest_mini::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::proptest_mini::Union::new(vec![
            $((1, $crate::proptest_mini::Strategy::boxed($strategy))),+
        ])
    };
}

/// Declares deterministic property tests (cf. `proptest::proptest!`).
///
/// Each `fn name(arg in strategy, ...) { body }` becomes a `#[test]`
/// running `body` against generated inputs, shrinking failures.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::proptest_mini::run(
                    $config,
                    ($($strategy,)+),
                    |($($arg,)+)| $body,
                );
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::proptest_mini::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name( $($arg in $strategy),+ ) $body
            )*
        }
    };
}

/// Everything a property-test file needs, in one glob import.
///
/// Re-exports the [`Strategy`] trait, [`any`], [`ProptestConfig`], the
/// macros, and this module under the name `proptest` so call sites written
/// against the upstream crate (`proptest::collection::vec(...)`) compile
/// unchanged.
pub mod prelude {
    pub use super::{any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, Union};
    pub use crate::proptest_mini as proptest;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::rng::SplitMix64;

    #[test]
    fn same_seed_same_cases() {
        let strat = proptest::collection::vec((any::<u8>(), 0u32..100), 1..20);
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..50 {
            assert_eq!(
                Strategy::generate(&strat, &mut a),
                Strategy::generate(&strat, &mut b)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let strat = proptest::collection::vec(any::<u64>(), 5..20);
        let a = Strategy::generate(&strat, &mut SplitMix64::new(1));
        let b = Strategy::generate(&strat, &mut SplitMix64::new(2));
        assert_ne!(a, b);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..500 {
            let v = (3usize..10).generate(&mut rng);
            assert!((3..10).contains(&v));
            let f = (0.25f64..0.75).generate(&mut rng);
            assert!((0.25..0.75).contains(&f));
            let i = (-5i32..5).generate(&mut rng);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn union_honours_weights_roughly() {
        let strat = prop_oneof![9 => 0u8..1, 1 => 1u8..2];
        let mut rng = SplitMix64::new(11);
        let hits = (0..1000).filter(|_| strat.generate(&mut rng) == 0).count();
        assert!(hits > 800, "weight-9 arm hit only {hits}/1000");
    }

    #[test]
    fn vec_strategy_lengths_in_range() {
        let strat = proptest::collection::vec(any::<bool>(), 2..6);
        let mut rng = SplitMix64::new(3);
        for _ in 0..200 {
            let v = strat.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
    }

    #[test]
    fn shrinking_minimises_a_vec_failure() {
        // Property "no element is >= 200" fails; the minimal counterexample
        // is a single offending element at the minimum length.
        let strat = proptest::collection::vec(0u32..1000, 1..40);
        let mut rng = SplitMix64::new(5);
        let failing = loop {
            let v = strat.generate(&mut rng);
            if v.iter().any(|&x| x >= 200) {
                break v;
            }
        };
        let test = |v: Vec<u32>| assert!(v.iter().all(|&x| x < 200));
        super::install_quiet_hook();
        let (minimal, _, _) = super::shrink_loop(&strat, &test, failing, String::new(), 4096);
        assert_eq!(minimal.len(), 1, "minimal case is one element: {minimal:?}");
        assert!(minimal[0] >= 200);
    }

    #[test]
    fn scalar_shrink_walks_to_lower_bound() {
        // Failing predicate: x >= 57. Minimal failing value must be 57.
        let strat = 0u32..1000;
        let test = |x: u32| assert!(x < 57);
        super::install_quiet_hook();
        let (minimal, _, _) = super::shrink_loop(&strat, &test, 999, String::new(), 4096);
        assert_eq!(minimal, 57);
    }

    #[test]
    fn run_passes_a_true_property() {
        super::run(
            ProptestConfig::with_cases(64),
            (proptest::collection::vec(any::<u8>(), 1..30),),
            |(v,)| {
                let doubled: Vec<u16> = v.iter().map(|&x| x as u16 * 2).collect();
                prop_assert_eq!(doubled.len(), v.len());
                prop_assert!(doubled.iter().all(|&x| x % 2 == 0));
            },
        );
    }

    #[test]
    fn run_reports_failures_with_minimal_input() {
        let result = std::panic::catch_unwind(|| {
            super::run(
                ProptestConfig::with_cases(256),
                (proptest::collection::vec(0u32..100, 1..30),),
                |(v,)| prop_assert!(v.iter().sum::<u32>() < 50),
            );
        });
        let message = match result {
            Err(p) => *p.downcast::<String>().expect("string panic"),
            Ok(()) => panic!("property should have failed"),
        };
        assert!(message.contains("proptest-mini"), "got: {message}");
        assert!(message.contains("minimal failing input"), "got: {message}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro itself: multiple args, trailing comma, doc comments.
        #[test]
        fn macro_generates_runnable_tests(
            xs in proptest::collection::vec(any::<u8>(), 1..10),
            flag in any::<bool>(),
            scale in 1usize..4,
        ) {
            let total: usize = xs.iter().map(|&x| x as usize * scale).sum();
            prop_assert!(total <= 255 * 10 * 4);
            if flag {
                prop_assert_ne!(xs.len(), 0);
            }
        }
    }
}
