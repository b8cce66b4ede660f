//! # repdir-baselines
//!
//! Every replication strategy §2 of *An Algorithm for Replicated
//! Directories* surveys or warns about, implemented against a common
//! [`DirectoryOps`] interface so the workload driver and benchmarks can
//! compare them with the paper's algorithm:
//!
//! * [`UnanimousDirectory`] — unanimous update: reads anywhere, writes
//!   everywhere; update availability collapses as replicas are added.
//! * [`PrimaryCopyDirectory`] — primary/secondary copies with asynchronous
//!   relay: stale secondary reads and lost updates on failover.
//! * [`FileSuite`] / [`GiffordFileDirectory`] — Gifford's weighted voting
//!   for files, and a directory stored as one replicated file: correct but
//!   with a single version serializing all modifications.
//! * [`StaticPartitionDirectory`] — per-range version voting with *static*
//!   ranges: deletion works, concurrency capped by the partition count.
//! * [`NaiveEntryDirectory`] — per-entry versions with no gap versions: the
//!   delete ambiguity of Figures 1–3, the widen-the-quorum mitigation, its
//!   reduced availability, and a history where stale data resurrects.
//!
//! [`reference`](mod@reference) holds the slower forms of the paper's own algorithm that
//! tests and benches compare `DirSuite` against: serialized waves, a scan
//! of one search per entry, per-key bulk writes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod common;
mod gifford_file;
mod naive_entry;
mod primary_copy;
pub mod reference;
mod static_partition;
mod unanimous;

pub use common::{BaselineError, DirectoryOps};
pub use gifford_file::{FileSuite, GiffordFileDirectory};
pub use naive_entry::NaiveEntryDirectory;
pub use primary_copy::PrimaryCopyDirectory;
pub use static_partition::StaticPartitionDirectory;
pub use unanimous::UnanimousDirectory;
