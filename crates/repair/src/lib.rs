//! Anti-entropy for replicated directories: summary-tree reconciliation.
//!
//! The paper's quorum intersection guarantees every *read* sees the latest
//! version, but a representative that missed writes (partition, drop,
//! restart) converges back only when a write quorum happens to land on it —
//! until then it keeps voting with stale versions. This crate closes that
//! gap with a background reconciliation protocol in the style of directory
//! reconciliation / Merkle-tree anti-entropy:
//!
//! * each representative maintains a [`SummaryCache`] — a fanout-16 summary
//!   tree of [`Digest`]s over 256 key-range buckets, hashing every stored
//!   entry's `(key, version, gap_after)` triple (and the leading gap), kept
//!   incrementally via dirty marks on apply;
//! * a [`Repairer`] periodically picks a peer, compares summary levels
//!   root-down, and pulls each run of mismatched buckets as one open key
//!   interval ([`RepairPeer::pull_range`]) whose ends are keys the
//!   receiver holds, so every coalesce the apply realises stays inside a
//!   span the source reported; a reply carries at most
//!   [`MAX_PULL_ENTRIES`] entries, and an interval with more is merged in
//!   steps, each ending at the last key its reply carried;
//! * [`merge_bucket`] computes the pointwise-latest state of two views of
//!   an interval and [`plan_bucket`] turns it into a [`RepairPlan`] of
//!   entry installs at **pinned** version numbers, ghost removals, and
//!   gap-version raises;
//! * a [`RepairDriver`] closes the loop automatically: it drains its
//!   member's votes from the shared stale-vote queue, which wakes it, into
//!   bucket-targeted pulls (two messages per divergent bucket, no walk),
//!   falls back to summary sweeps when the queue is dry — the same pull,
//!   one per run of dirty buckets — and adapts the sweep interval
//!   ([`Pacing`]) — geometric backoff while quiescent, snap-back to the
//!   floor on stale votes, applied repairs, or a member-recovery signal.
//!
//! Soundness rests on the paper's version-number update rule: at every
//! point of the key space the version only grows, a higher version always
//! wins, and equal versions denote identical data. Merging two replica
//! states pointwise by "higher version wins" therefore needs **no quorum**
//! — repair transfers facts the suite already committed, never invents
//! versions, and is idempotent.
//!
//! The crate is deliberately below the replica layer: it depends only on
//! core types and obs, and talks to concrete representatives through the
//! [`RepairPeer`] / [`RepairTarget`] traits (implemented in
//! `repdir-replica` for in-process and networked reps).

mod driver;
mod merge;
mod repairer;
mod summary;

pub use driver::{DriverHandle, DriverWaker, Pacer, Pacing, RepairDriver, TickStats};
pub use merge::{diff_bucket, merge_bucket, plan_bucket, BucketEntry, BucketView, RepairPlan};
pub use repairer::{
    ApplyStats, RepairError, RepairPeer, RepairTarget, Repairer, RoundStats, MAX_PULL_ENTRIES,
};
pub use summary::{
    bucket_high, bucket_low, bucket_of, entry_digest, low_gap_digest, Digest, SummaryCache,
    BUCKETS, FANOUT,
};
