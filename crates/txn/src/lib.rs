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
//! * [`TxnManager`] — id allocation and the set of active transactions (a
//!   finished one is forgotten);
//! * re-exported [`TxnId`] — the lock-owner identity shared with
//!   `repdir-rangelock`, whose wait-die policy reads the age this crate
//!   gives each transaction: a fresh one per [`TxnManager::begin`], the
//!   same one for every retry ([`TxnManager::next_attempt`]).
//!
//! Undo and durability (the undo log, write-ahead logging, crash recovery)
//! live in `repdir-storage`; the wiring of locks + storage into a serving
//! representative lives in `repdir-replica`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod manager;

pub use manager::TxnManager;
pub use repdir_rangelock::TxnId;
