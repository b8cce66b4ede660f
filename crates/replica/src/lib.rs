//! # repdir-replica
//!
//! The full directory-representative server, the transactions that span
//! representatives, and the client plumbing that connects both to the core
//! suite algorithm.
//!
//! A [`TransactionalRep`] combines the substrates the paper assumes a
//! representative to have (§3.1):
//!
//! * gap-versioned state with transactional undo, durable through a
//!   write-ahead log (`repdir-storage`),
//! * the Figure-6/Figure-7 range locking discipline (`repdir-rangelock`).
//!
//! [`SessionClient`] exposes one transaction's view of a representative as a
//! [`RepClient`](repdir_core::RepClient), so the generic
//! [`DirSuite`](repdir_core::suite::DirSuite) runs over it unchanged.
//! [`serve_rep`] / [`RemoteSessionClient`] do the same across the simulated
//! network (`repdir-net`), using the binary wire [`codec`].
//!
//! [`ReplicatedDirectory`] packages everything into a service with
//! begin/commit/abort transactions numbered by [`txn::TxnManager`],
//! wait-die retry, failure injection and crash recovery. One
//! [`run`](ReplicatedDirectory::run)/[`begin`](ReplicatedDirectory::begin)/
//! [`DirTxn`] path serves members of either kind ([`Members`]):
//! [`InProcess`] representatives, called directly, or [`Networked`] ones
//! behind `serve_rep`, whose `Begin`, `Commit` and `Abort` are one RPC
//! scatter round each.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod txn;

mod client;
mod directory;
mod remote;
mod repair;
mod server;

pub use client::SessionClient;
pub use directory::{DirTxn, InProcess, Members, ReplicatedDirectory};
pub use remote::{serve_rep, Networked, RemoteSessionClient};
pub use repair::{LocalRepairPeer, RemoteRepairPeer, RepTarget};
pub use server::TransactionalRep;
