//! # repdir-bench
//!
//! Binaries regenerating every table and figure of the paper's
//! evaluation: see the `fig14`, `fig15`, `fig16`, `availability`,
//! `concurrency`, and `ablation_quorum` binaries, and the gated count
//! benches (`suite_latency`, `scan_bench`, `ingest_bench`,
//! `latency_policy`, `repair_bench`). `EXPERIMENTS.md` at the workspace
//! root records paper-vs-measured results. The binaries that run a suite
//! over the simulated network share their fixture and counters through
//! [`fabric`]. Per-layer timings of the gap map, storage, range locks and
//! in-process suite operations are the benchmark's probe sheet
//! (`benchmark/src/probes.rs`).

pub mod fabric;
