//! # repdir-core
//!
//! A faithful implementation of **"An Algorithm for Replicated Directories"**
//! (Daniels & Spector, PODC 1983 / CMU-CS-83-123): weighted-voting
//! replication for directory objects in which **every possible key** carries
//! a version number on every replica.
//!
//! ## The problem
//!
//! Gifford's weighted voting replicates files by giving each replica
//! ("representative") a version number; reads consult `R` votes, writes `W`
//! votes, with `R + W` greater than the total so quorums always intersect.
//! Applied naively to a directory, a single version number per replica
//! serializes all modifications. Versioning each *entry* instead breaks
//! deletion: a replica holding a stale (ghost) entry answers "present with
//! version v" while another answers "not present" — with no version on the
//! "not present" reply, the client cannot tell which is current (paper §2,
//! Figures 1–3).
//!
//! ## The algorithm
//!
//! Partition the key space dynamically: each stored entry is a partition of
//! its own, and each *gap* between adjacent entries is a partition with its
//! own version number. "Not present" replies then carry the gap's version
//! and can be compared against "present" replies. Insertions split a gap
//! (both halves keep its version); deletions *coalesce* the range between
//! the deleted key's **real predecessor** and **real successor** — the
//! nearest keys present in the suite — into one gap whose new version
//! exceeds every version previously associated with any key in the range.
//!
//! ## Crate layout
//!
//! * [`Key`], [`UserKey`], [`Value`], [`Version`] — vocabulary types, with
//!   the `LOW`/`HIGH` sentinels of §3.1.
//! * [`GapMap`] — the gap-versioned state of one representative, with the
//!   five `DirRep*` operations of Fig. 6.
//! * [`RepClient`] / [`LocalRep`] — the RPC surface of a representative and
//!   an in-process implementation; `repdir-replica` provides transactional
//!   and networked implementations.
//! * [`suite::DirSuite`] — the replicated directory: quorum collection,
//!   `DirSuiteLookup/Insert/Update/Delete` and the real-neighbor searches
//!   (Figs. 8, 9, 12, 13).
//! * [`suite::SuiteConfig`] — votes and quorum sizes, enforcing
//!   `R + W > total` and `2W > total`.
//! * [`suite::quorum`] — random (the paper's §4 setup), sticky (§5's
//!   moving-primary observation), fixed, and locality (Fig. 16) policies.
//!
//! ## Quick example
//!
//! ```
//! use repdir_core::suite::{DirSuite, SuiteConfig};
//! use repdir_core::{Key, Value};
//!
//! // A 3-representative suite with read and write quorums of 2 ("3-2-2").
//! let mut dir = DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2)?, 7)?;
//!
//! dir.insert(&Key::from("passwd"), &Value::from("inode 41"))?;
//! assert!(dir.lookup(&Key::from("passwd"))?.present);
//!
//! dir.delete(&Key::from("passwd"))?;
//! assert!(!dir.lookup(&Key::from("passwd"))?.present);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bytes;
mod error;
mod gapmap;
mod key;
pub mod proptest_mini;
mod rep;
pub mod rng;
pub mod suite;
pub mod sync;
mod value;
mod version;

pub use error::{ConfigError, QuorumKind, RepError, SuiteError};
pub use gapmap::{
    CoalesceOutcome, GapInfo, GapMap, InsertOutcome, LookupReply, NeighborReply, RemovedEntry,
    INLINE_VALUE_MAX,
};
pub use key::{Key, UserKey};
pub use rep::{Completion, Done, LocalRep, Op, RepClient, RepId, RepResult, Reply};
pub use suite::{BulkWriteOutcome, DirSuite, QuorumSession, SuiteConfig};
pub use value::Value;
pub use version::Version;
