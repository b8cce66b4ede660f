//! # repdir-replica
//!
//! The full directory-representative server and the client plumbing that
//! connects it to the core suite algorithm.
//!
//! A [`TransactionalRep`] combines the three substrates the paper assumes a
//! representative to have (§3.1):
//!
//! * gap-versioned state, durable through a write-ahead log
//!   (`repdir-storage`),
//! * the Figure-6/Figure-7 range locking discipline (`repdir-rangelock`),
//! * transactional undo and lifecycle (`repdir-txn`).
//!
//! [`SessionClient`] exposes one transaction's view of a representative as a
//! [`RepClient`](repdir_core::RepClient), so the generic
//! [`DirSuite`](repdir_core::suite::DirSuite) runs over it unchanged.
//! [`serve_rep`] / [`RemoteSessionClient`] do the same across the simulated
//! network (`repdir-net`), using the binary wire [`codec`].
//!
//! [`ReplicatedDirectory`] packages everything into a service with
//! begin/commit/abort transactions, deadlock-victim retry, failure
//! injection, and crash recovery.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;

mod client;
mod directory;
mod remote;
mod repair;
mod server;

pub use client::SessionClient;
pub use directory::{DirTxn, ReplicatedDirectory};
pub use remote::{serve_rep, RemoteSessionClient};
pub use repair::{LocalRepairPeer, RemoteRepairPeer, RepTarget};
pub use server::TransactionalRep;
