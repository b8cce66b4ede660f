//! # repdir-workload
//!
//! Workload generation, simulation, and measurement for replicated
//! directories — everything behind the paper's §4 evaluation and the
//! benchmark harness:
//!
//! * [`sim`] — the steady-state uniform-random simulation of §4, producing
//!   the three deletion statistics of Figures 14 and 15
//!   ([`SimParams`], [`run_sim`], [`SimReport`]);
//! * [`stats`] — [`RunningStat`] (avg/max/σ, the Figure 15 aggregates) and
//!   [`Histogram`] (the §4 search-step distribution);
//! * [`availability`] — closed-form and Monte-Carlo quorum availability
//!   (the §1/§5 tunability claims), including the unanimous-update
//!   comparison;
//! * [`locality`] — the Figure 16 experiment: local reads, evenly spread
//!   remote writes;
//! * [`concurrency`] — threaded throughput of the transactional stack and
//!   the single-version file baseline's conflict behaviour;
//! * [`adapter`] — the paper's algorithm behind the baselines'
//!   [`DirectoryOps`](repdir_baselines::DirectoryOps) interface, plus an
//!   empirical availability driver;
//! * [`spec`] — the directory's executable sequential specification
//!   ([`Spec`](spec::Spec), one [`Op`](spec::Op) type, the suite's per-key
//!   error rules) and the named key [`Shape`](spec::Shape)s property tests
//!   draw from, including shapes that straddle the summary buckets, the
//!   64-entry chunk, the 512-entry pull cap and the 64-byte inline bound.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapter;
pub mod analytic;
pub mod availability;
pub mod concurrency;
pub mod keys;
pub mod locality;
pub mod sim;
pub mod spec;
pub mod stats;

pub use adapter::{empirical_availability, SuiteDirectory, TrialOutcome};
pub use analytic::{analytic_delete_stats, AnalyticStats};
pub use availability::{
    monte_carlo_availability, suite_availability, symmetric_availability, unanimous_availability,
    weighted_availability,
};
pub use concurrency::{
    gifford_interleaved_conflicts, repdir_throughput, skewed_contention, ConflictReport,
    ThroughputReport,
};
pub use keys::Zipf;
pub use locality::{run_locality, LocalityReport};
pub use sim::{run_sim, PolicyKind, SimParams, SimReport};
pub use stats::{Histogram, RunningStat};
