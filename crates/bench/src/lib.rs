//! # repdir-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation; see the `fig14`, `fig15`, `fig16`, `availability`,
//! `concurrency`, and `ablation_quorum` binaries and the self-timed
//! benches (`suite_ops`, `gapmap`, `rangelock`, `storage`) built on
//! [`harness`]. `EXPERIMENTS.md` at the workspace root records
//! paper-vs-measured results. The benches that run a suite over the
//! simulated network share their fixture and counters through [`fabric`].

pub mod fabric;
pub mod harness;

pub use harness::{Bencher, BenchmarkGroup, BenchmarkId, Criterion};
pub use repdir_workload as workload;
