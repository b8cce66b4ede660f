//! # repdir-rangelock
//!
//! Type-specific range locking for directory representatives, exactly as
//! specified in §3.1 of *An Algorithm for Replicated Directories*:
//!
//! * two lock classes, [`LockMode::Lookup`] (`RepLookup(σ, τ)`) and
//!   [`LockMode::Modify`] (`RepModify(σ, τ)`), each covering a whole
//!   [`KeyRange`];
//! * the compatibility relation of the paper's Figure 7
//!   ([`compatible`]): lookups never conflict with lookups; anything
//!   involving a modify conflicts exactly when the ranges intersect;
//! * a blocking [`RangeLockTable`] with all-at-once release, giving strict
//!   two-phase locking when drivers release only at commit/abort;
//! * wait-die deadlock prevention, decided from the table's own holders: a
//!   request waits only for holders no older than it ([`TxnId::age`]) and
//!   fails at once on an older one, so no cycle of waits can form, inside
//!   one table or across representatives that share nothing.
//!
//! Combined with two-phase locking this "is sufficiently strong to
//! guarantee that the actions of transactions operating on a directory
//! representative are serializable" (§3.1, citing Traiger et al.); since
//! every participating node is serializable, the global schedule is too —
//! the property the suite's correctness argument (§3.3) relies on.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod range;
mod table;

pub use range::{compatible, KeyRange, LockMode};
pub use table::{LockError, LockStats, RangeLockTable, TxnId};
