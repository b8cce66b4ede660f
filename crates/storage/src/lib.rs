//! # repdir-storage
//!
//! Recoverable storage for directory representatives — the substrate the
//! paper assumes ("transactional storage systems … are assumed to hold each
//! representative", §2; representatives must "store critical information in
//! a fashion that recovers from failures", §3.1):
//!
//! * [`SimDisk`] — a simulated append-only disk with explicit sync barriers
//!   and crash/torn-write injection;
//! * [`wal`] — the write-ahead log: CRC-framed records
//!   ([`WalRecord`]), torn-tail-tolerant decoding, and
//!   commit-order replay;
//! * [`DurableState`] — a gap-versioned map wired to the WAL with
//!   per-transaction undo, commit-time sync, and crash recovery;
//! * [`UndoRecord`] with [`undo_for_insert`] / [`undo_for_coalesce`] /
//!   [`apply_undo`] — exact inverses of the two mutating `DirRep*`
//!   operations, the undo log [`DurableState`] replays in reverse on abort;
//! * [`GapBTree`] — the B-tree representation the paper prescribes in §5,
//!   with gap versions stored in their bounding entries, functionally
//!   interchangeable with [`GapMap`](repdir_core::GapMap);
//! * [`crc32`] — record checksumming.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod crc;
mod durable;
mod gapbtree;
mod simdisk;
mod state;
pub mod wal;

pub use crc::crc32;
pub use durable::DurableState;
pub use gapbtree::GapBTree;
pub use simdisk::SimDisk;
pub use state::{apply_undo, undo_for_coalesce, undo_for_insert, Backend, DirState, UndoRecord};
pub use wal::{decode_log, encode_record, replay, stale_votes_after, Wal, WalError, WalRecord};
