//! Error types for representative and suite operations.
//!
//! The paper's pseudocode elides error responses ("error responses, such as
//! timeouts, are not considered in these examples", §3); a real system cannot,
//! so every failure mode of the algorithm is represented here.

use std::error::Error;
use std::fmt;

use crate::key::Key;

/// Errors returned by operations on a single directory representative
/// (`DirRep*` in the paper's Fig. 6).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RepError {
    /// `DirRepCoalesce(l, h, ..)` requires entries (or sentinels) at both
    /// boundaries; `key` had none ("An error is indicated if entries do not
    /// exist for keys l and h", Fig. 6).
    NoSuchBoundary {
        /// The boundary key that had no entry.
        key: Key,
    },
    /// The operation attempted to mutate a sentinel (`LOW`/`HIGH`), or asked
    /// for the predecessor of `LOW` / successor of `HIGH`.
    SentinelViolation {
        /// The offending key.
        key: Key,
        /// The operation that rejected it.
        op: &'static str,
    },
    /// A range operation received boundaries out of order (`l >= h`).
    InvalidRange {
        /// Lower boundary supplied.
        low: Key,
        /// Upper boundary supplied.
        high: Key,
    },
    /// The representative is down, partitioned away, or timed out. Quorum
    /// collection skips such representatives.
    Unavailable,
    /// A lock could not be granted within the deadline: a younger (or
    /// same-age) conflicting transaction held it throughout. The caller
    /// should abort and retry.
    LockTimeout,
    /// An older transaction holds a conflicting lock, so this one was
    /// refused rather than allowed to wait (wait-die: no cycle of waits can
    /// form). The caller should abort and retry under the same age.
    Deadlock,
    /// The enclosing transaction was already aborted.
    TransactionAborted,
    /// The underlying storage failed (simulated I/O error, crashed disk, …).
    Storage(String),
}

impl fmt::Display for RepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepError::NoSuchBoundary { key } => {
                write!(f, "coalesce boundary {key:?} has no entry")
            }
            RepError::SentinelViolation { key, op } => {
                write!(f, "operation {op} not permitted on sentinel {key:?}")
            }
            RepError::InvalidRange { low, high } => {
                write!(f, "invalid range: {low:?} is not below {high:?}")
            }
            RepError::Unavailable => f.write_str("representative unavailable"),
            RepError::LockTimeout => f.write_str("lock wait timed out"),
            RepError::Deadlock => {
                f.write_str("deadlock avoided; an older transaction holds the lock")
            }
            RepError::TransactionAborted => f.write_str("transaction already aborted"),
            RepError::Storage(msg) => write!(f, "storage failure: {msg}"),
        }
    }
}

impl Error for RepError {}

/// Which quorum could not be gathered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QuorumKind {
    /// A read quorum of `R` votes.
    Read,
    /// A write quorum of `W` votes.
    Write,
}

impl fmt::Display for QuorumKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumKind::Read => f.write_str("read"),
            QuorumKind::Write => f.write_str("write"),
        }
    }
}

/// Errors returned by operations on a directory suite (`DirSuite*` in the
/// paper's §3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SuiteError {
    /// Not enough representatives were reachable to assemble the quorum.
    QuorumUnavailable {
        /// Read or write quorum.
        kind: QuorumKind,
        /// Votes required.
        needed: u32,
        /// Votes actually gathered from reachable representatives.
        gathered: u32,
    },
    /// `insert` found an existing entry for the key (paper Fig. 9
    /// `ReportError`).
    AlreadyExists {
        /// The key that already has an entry.
        key: Key,
    },
    /// `update`/`delete` found no entry for the key.
    NotFound {
        /// The key that has no entry.
        key: Key,
    },
    /// The operation was given a sentinel key; only user keys may be stored.
    SentinelKey {
        /// The offending key.
        key: Key,
    },
    /// A representative operation failed mid-quorum and the suite could not
    /// complete the operation.
    Rep(RepError),
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::QuorumUnavailable {
                kind,
                needed,
                gathered,
            } => write!(
                f,
                "cannot gather {kind} quorum: need {needed} votes, only {gathered} reachable"
            ),
            SuiteError::AlreadyExists { key } => write!(f, "entry already exists for {key:?}"),
            SuiteError::NotFound { key } => write!(f, "no entry for {key:?}"),
            SuiteError::SentinelKey { key } => {
                write!(f, "sentinel {key:?} cannot be used as an entry key")
            }
            SuiteError::Rep(e) => write!(f, "representative operation failed: {e}"),
        }
    }
}

impl Error for SuiteError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SuiteError::Rep(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RepError> for SuiteError {
    fn from(e: RepError) -> Self {
        SuiteError::Rep(e)
    }
}

/// Errors constructing a suite configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `R + W` must exceed the total votes so every read quorum intersects
    /// every write quorum (Gifford's rule, §2).
    ReadWriteTooSmall {
        /// Configured read quorum size.
        read: u32,
        /// Configured write quorum size.
        write: u32,
        /// Sum of all representative votes.
        total: u32,
    },
    /// `2W` must exceed the total votes so any two write quorums intersect.
    WriteWriteTooSmall {
        /// Configured write quorum size.
        write: u32,
        /// Sum of all representative votes.
        total: u32,
    },
    /// A suite needs at least one representative with at least one vote.
    NoVotes,
    /// A quorum size of zero is meaningless.
    ZeroQuorum,
    /// The number of representative clients does not match the number of
    /// vote assignments in the configuration.
    MemberCountMismatch {
        /// Representative clients supplied.
        clients: usize,
        /// Vote assignments in the configuration.
        votes: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ReadWriteTooSmall { read, write, total } => write!(
                f,
                "R + W must exceed total votes: {read} + {write} <= {total}"
            ),
            ConfigError::WriteWriteTooSmall { write, total } => {
                write!(f, "2W must exceed total votes: 2*{write} <= {total}")
            }
            ConfigError::NoVotes => f.write_str("suite has no votes assigned"),
            ConfigError::ZeroQuorum => f.write_str("quorum sizes must be at least 1"),
            ConfigError::MemberCountMismatch { clients, votes } => write!(
                f,
                "{clients} representative clients but {votes} vote assignments"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_error_display_mentions_key() {
        let e = RepError::NoSuchBoundary {
            key: Key::from("b"),
        };
        assert!(e.to_string().contains('b'));
        let e = RepError::SentinelViolation {
            key: Key::Low,
            op: "insert",
        };
        assert!(e.to_string().contains("insert"));
        assert!(e.to_string().contains("LOW"));
    }

    #[test]
    fn suite_error_wraps_rep_error_with_source() {
        let e = SuiteError::from(RepError::Unavailable);
        assert!(matches!(e, SuiteError::Rep(RepError::Unavailable)));
        assert!(Error::source(&e).is_some());
        assert!(e.to_string().contains("unavailable"));
    }

    #[test]
    fn quorum_unavailable_display() {
        let e = SuiteError::QuorumUnavailable {
            kind: QuorumKind::Write,
            needed: 2,
            gathered: 1,
        };
        let s = e.to_string();
        assert!(s.contains("write"));
        assert!(s.contains('2'));
        assert!(s.contains('1'));
    }

    #[test]
    fn config_errors_display() {
        assert!(ConfigError::ReadWriteTooSmall {
            read: 1,
            write: 1,
            total: 3
        }
        .to_string()
        .contains("R + W"));
        assert!(ConfigError::WriteWriteTooSmall { write: 1, total: 3 }
            .to_string()
            .contains("2W"));
        assert!(!ConfigError::NoVotes.to_string().is_empty());
        assert!(!ConfigError::ZeroQuorum.to_string().is_empty());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RepError>();
        assert_send_sync::<SuiteError>();
        assert_send_sync::<ConfigError>();
    }
}
