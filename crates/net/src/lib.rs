//! # repdir-net
//!
//! A simulated network substrate for replicated-directory experiments.
//!
//! The paper's operations are expressed as remote procedure calls —
//! `Send(<procedure invocation>) to (<object instance>)` (§3) — with "error
//! responses, such as timeouts … not considered". This crate supplies that
//! RPC primitive over an in-process message fabric **with** the failure
//! modes a real deployment faces, so the suite algorithm is exercised
//! against them:
//!
//! * [`Network`] / [`Endpoint`] — registration, mailboxes, and delivery with
//!   configurable latency ([`LatencyModel`]), message drop and duplication
//!   ([`FaultPlan`]), and partitions ([`Network::partition`]);
//! * [`RpcClient`] / [`serve`] — correlated request/response with deadlines,
//!   stale-reply discarding, and scatter-gather concurrency: a router thread
//!   demultiplexes replies by correlation id, so one client supports any
//!   number of concurrent in-flight calls ([`RpcClient::call_async`]) and
//!   N-way fan-out with replies in arrival order ([`RpcClient::scatter`]).
//!
//! Substitution note (see `DESIGN.md`): the repro hint suggests tokio; the
//! offline crate set excludes it, so replica simulation runs on
//! `std::thread` + `std::sync::mpsc`, which serves laptop-scale suites
//! equally well.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fabric;
mod rpc;

pub use fabric::{Endpoint, Envelope, FaultPlan, LatencyModel, MsgKind, NetStats, Network, NodeId};
pub use rpc::{
    pack_parts, serve, unpack_parts, PendingReply, RpcClient, RpcError, RpcResult, Scatter,
    ServerHandle,
};
