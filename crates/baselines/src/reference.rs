//! Slower reference forms of what `DirSuite` does in fewer rounds, composed
//! from its public API: what the equivalence tests compare against and the
//! benches report speed-ups over. None of them is a mode of the suite.

use repdir_core::suite::DirSuite;
use repdir_core::{
    BulkWriteOutcome, Key, Op, RepClient, RepId, RepResult, Reply, SuiteError, UserKey, Value,
};

/// A client whose requests complete before `start` returns: it forwards
/// `id` and `execute` and keeps [`RepClient::start`]'s inline default, so a
/// suite of these awaits each member's reply before it asks the next — a
/// wave with a window of one. Same requests, same counters, serialized.
#[derive(Debug)]
pub struct Inline<C>(pub C);

impl<C: RepClient> RepClient for Inline<C> {
    fn id(&self) -> RepId {
        self.0.id()
    }

    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        self.0.execute(ops)
    }
}

/// Lists the suite one `real_successor` search per entry: a quorum
/// collection and a chain wave per hop, and a value lookup for an entry
/// whose value is too large to ride the chain.
///
/// # Errors
///
/// As [`DirSuite::real_successor`].
pub fn per_hop_scan<C: RepClient>(
    suite: &mut DirSuite<C>,
) -> Result<Vec<(UserKey, Value)>, SuiteError> {
    let mut out = Vec::new();
    let mut probe = Key::Low;
    loop {
        let next = suite.real_successor(&probe)?;
        match next.key {
            Key::User(entry) => {
                out.push((entry.clone(), next.value.expect("an entry has a value")));
                probe = Key::User(entry);
            }
            _ => return Ok(out),
        }
    }
}

/// [`DirSuite::insert`] per entry, in order, stopping at the first error.
///
/// # Errors
///
/// As [`DirSuite::insert`], for the first offending key.
pub fn insert_per_key<C: RepClient>(
    suite: &mut DirSuite<C>,
    entries: &[(Key, Value)],
) -> Result<BulkWriteOutcome, SuiteError> {
    let mut versions = Vec::with_capacity(entries.len());
    for (key, value) in entries {
        versions.push(suite.insert(key, value)?.version);
    }
    Ok(BulkWriteOutcome { versions })
}

/// [`DirSuite::delete`] per key, in order, stopping at the first error.
///
/// # Errors
///
/// As [`DirSuite::delete`], for the first offending key.
pub fn delete_per_key<C: RepClient>(
    suite: &mut DirSuite<C>,
    keys: &[Key],
) -> Result<BulkWriteOutcome, SuiteError> {
    let mut versions = Vec::with_capacity(keys.len());
    for key in keys {
        versions.push(suite.delete(key)?.gap_version);
    }
    Ok(BulkWriteOutcome { versions })
}
