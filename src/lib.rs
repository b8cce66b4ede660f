//! # repdir
//!
//! Umbrella crate for the `repdir` workspace — a full reproduction of
//! Daniels & Spector, *An Algorithm for Replicated Directories* (PODC
//! 1983): weighted-voting replication for directories with per-range (gap)
//! version numbers.
//!
//! Each subsystem lives in its own crate, re-exported here under a module
//! of the same name:
//!
//! | module | contents |
//! |--------|----------|
//! | [`obs`] | zero-dependency metrics and tracing: counters, histograms, EWMAs, spans |
//! | [`core`] | keys/versions/values, the gap-versioned map, the suite algorithm |
//! | [`rangelock`] | Figure-7 range locking, two-phase locking, wait-die deadlock prevention |
//! | [`txn`] | transaction ids, lifecycle, undo |
//! | [`storage`] | simulated disk, write-ahead log, recovery, gap-versioned B-tree |
//! | [`net`] | simulated network with latency/drops/partitions and RPC |
//! | [`replica`] | the transactional representative server and clients |
//! | [`repair`] | anti-entropy: summary trees, range pulls bounded by the receiver's own keys, merge planning, the background repair driver |
//! | [`baselines`] | unanimous update, primary copy, Gifford file voting, static partitions, naive per-entry versions |
//! | [`workload`] | simulation driver, statistics, availability and locality experiments |
//!
//! ## Quickstart
//!
//! ```
//! use repdir::core::suite::{DirSuite, SuiteConfig};
//! use repdir::core::{Key, Value};
//!
//! let mut dir = DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2)?, 7)?;
//! dir.insert(&Key::from("motd"), &Value::from("hello"))?;
//! assert!(dir.lookup(&Key::from("motd"))?.present);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use repdir_baselines as baselines;
pub use repdir_core as core;
pub use repdir_net as net;
pub use repdir_obs as obs;
pub use repdir_rangelock as rangelock;
pub use repdir_repair as repair;
pub use repdir_replica as replica;
pub use repdir_storage as storage;
pub use repdir_txn as txn;
pub use repdir_workload as workload;
