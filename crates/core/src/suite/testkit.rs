#![cfg(test)]
//! Fixtures the suite's unit tests share.

use super::{DirSuite, FixedPolicy, QuorumPolicy, SuiteConfig};
use crate::gapmap::INLINE_VALUE_MAX;
use crate::key::Key;
use crate::rep::{LocalRep, Op, RepClient, RepId, RepResult, Reply};
use crate::value::Value;

pub(super) fn k(s: &str) -> Key {
    Key::from(s)
}
pub(super) fn val(s: &str) -> Value {
    Value::from(s)
}

/// `s` padded to one byte more than a chain carries: a value a scan must
/// fetch with a `Lookup`.
pub(super) fn big(s: &str) -> Value {
    let mut bytes = s.as_bytes().to_vec();
    bytes.resize(INLINE_VALUE_MAX + 1, b'.');
    Value::from(bytes)
}

pub(super) fn suite_322(seed: u64) -> DirSuite<LocalRep> {
    DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2).unwrap(), seed).unwrap()
}

pub(super) fn fixed(order: &[usize]) -> Box<dyn QuorumPolicy + Send> {
    Box::new(FixedPolicy::with_order(order.to_vec()))
}

/// Forwards to a [`LocalRep`] but kills the rep once a shared fuse
/// counts down to zero across data operations — the mid-walk failure window
/// session re-validation exists for. Pings never tick the fuse, so the
/// fixture controls exactly how deep into a walk the member dies.
pub(super) struct DiesAfterCalls {
    inner: LocalRep,
    fuse: std::sync::Arc<std::sync::atomic::AtomicI64>,
}

impl DiesAfterCalls {
    fn tick(&self) {
        if self.fuse.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) == 1 {
            self.inner.set_available(false);
        }
    }
}

impl RepClient for DiesAfterCalls {
    fn id(&self) -> RepId {
        self.inner.id()
    }
    fn execute(&self, ops: &[Op]) -> RepResult<Vec<Reply>> {
        if ops.is_empty() {
            return self.inner.execute(ops);
        }
        // Every operation ticks on its own, so a member can die half-way
        // through a list.
        let mut replies = Vec::with_capacity(ops.len());
        for op in ops {
            self.tick();
            replies.extend(self.inner.execute(std::slice::from_ref(op))?);
        }
        Ok(replies)
    }
}

pub(super) fn fused_suite() -> (
    DirSuite<DiesAfterCalls>,
    Vec<std::sync::Arc<std::sync::atomic::AtomicI64>>,
) {
    fused_suite_of(val)
}

/// [`fused_suite`] whose entry for `key` holds `value(key)`.
pub(super) fn fused_suite_of(
    value: fn(&str) -> Value,
) -> (
    DirSuite<DiesAfterCalls>,
    Vec<std::sync::Arc<std::sync::atomic::AtomicI64>>,
) {
    // Fuses start deeply negative: effectively disarmed through setup.
    let fuses: Vec<std::sync::Arc<std::sync::atomic::AtomicI64>> = (0..3)
        .map(|_| std::sync::Arc::new(std::sync::atomic::AtomicI64::new(i64::MIN / 2)))
        .collect();
    let clients: Vec<DiesAfterCalls> = fuses
        .iter()
        .enumerate()
        .map(|(i, fuse)| DiesAfterCalls {
            inner: LocalRep::new(RepId(i as u32)),
            fuse: fuse.clone(),
        })
        .collect();
    let cfg = SuiteConfig::symmetric(3, 2, 2).unwrap();
    let mut s = DirSuite::new(clients, cfg, fixed(&[0, 1, 2])).unwrap();
    for key in ["a", "b", "c", "d", "e", "f"] {
        s.insert(&k(key), &value(key)).unwrap();
    }
    (s, fuses)
}
