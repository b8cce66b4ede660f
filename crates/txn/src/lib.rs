//! # repdir-txn
//!
//! Transaction management for directory representatives.
//!
//! The paper assumes each representative is held by a transactional storage
//! system: "consistency and recovery are mainly the responsibility of
//! transactional storage systems, which are assumed to hold each
//! representative" (§2), and representatives "must synchronize concurrent
//! operations performed by different transactions and store critical
//! information in a fashion that recovers from failures" (§3.1). This crate
//! supplies that substrate's coordination half:
//!
//! * [`TxnManager`] — id allocation and the undo log of every active
//!   transaction (a finished one is forgotten);
//! * [`UndoRecord`] with [`undo_for_insert`] / [`undo_for_coalesce`] /
//!   [`apply_undo`] — exact inverses of the two mutating `DirRep*`
//!   operations, applied in reverse on abort;
//! * re-exported [`TxnId`] — the lock-owner identity shared with
//!   `repdir-rangelock`, whose youngest-victim deadlock policy relies on
//!   this crate's monotonic id allocation.
//!
//! Durability (write-ahead logging, crash recovery) lives in
//! `repdir-storage`; the wiring of locks + undo + state into a serving
//! representative lives in `repdir-replica`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod manager;
mod undo;

pub use manager::TxnManager;
pub use repdir_rangelock::TxnId;
pub use undo::{apply_undo, undo_for_coalesce, undo_for_insert, UndoRecord};
