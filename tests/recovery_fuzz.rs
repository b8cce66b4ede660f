//! Property-based crash-recovery testing: for any operation stream and any
//! crash point (including torn writes at arbitrary byte offsets), recovery
//! must reconstruct exactly the state as of the last durable commit.

use repdir::core::proptest_mini::collection::vec;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::{GapMap, Version};
use repdir::storage::{DurableState, SimDisk};
use repdir::txn::TxnId;
use repdir::workload::spec::{self, Kind, Op, Shape};
use std::sync::Arc;

/// Inserts, which overwrite at this level, and deletes, which coalesce the
/// range around their key.
const MIX: &[(u32, Kind)] = &[(1, Kind::Insert), (1, Kind::Delete)];

/// Both properties' shapes: the old dense keys and spread.
fn shapes(dense_cases: u32) -> Vec<(Shape, u32)> {
    vec![(Shape::DenseU8(16), dense_cases), (Shape::Spread(16), 24)]
}

fn apply(st: &mut DurableState, op: &Op, txn: TxnId, version: Version) {
    match op {
        Op::Insert(k, v) => {
            st.insert(txn, k, version, v.clone()).expect("insert");
        }
        Op::Delete(k) => {
            let lo = st.predecessor(k).expect("pred").key;
            let hi = st.successor(k).expect("succ").key;
            if lo < hi {
                st.coalesce(txn, &lo, &hi, version).expect("coalesce");
            }
        }
        op => unreachable!("{op:?} is not in the mix"),
    }
}

/// Run a sequence of single-op transactions; crash with an arbitrary
/// surviving prefix of the unsynced tail; recovery must equal the state at
/// the last commit. Shapes: `dense_u8` (96 cases) and `spread`.
#[test]
fn recovery_equals_last_committed_state() {
    spec::check(
        &shapes(96),
        |shape| {
            (
                vec(shape.op(MIX), 0..30),
                vec(shape.op(MIX), 0..10),
                0usize..4096,
            )
        },
        |_, (committed_ops, uncommitted_ops, survive_bytes)| {
            let disk = Arc::new(SimDisk::new());
            let mut st = DurableState::new(Arc::clone(&disk));
            let mut txn = 0u64;
            let mut version = 0u64;

            // Committed transactions (each synced at commit).
            for op in &committed_ops {
                txn += 1;
                version += 1;
                let t = TxnId(txn);
                st.begin(t);
                apply(&mut st, op, t, Version::new(version));
                st.commit(t);
            }
            let durable_state: GapMap = st.map().clone();

            // One in-flight transaction that never commits.
            txn += 1;
            let t = TxnId(txn);
            st.begin(t);
            for op in &uncommitted_ops {
                version += 1;
                apply(&mut st, op, t, Version::new(version));
            }

            // Crash with an arbitrary number of unsynced bytes surviving
            // (possibly tearing a record mid-frame).
            disk.crash(survive_bytes);
            let recovered = DurableState::recover(disk).expect("recover");
            prop_assert_eq!(recovered.map(), durable_state);
            recovered.map().check_invariants().expect("invariants");
        },
    );
}

/// Repeated crash/recover cycles with work in between never lose committed
/// data or resurrect uncommitted data. Shapes: `dense_u8` (96 cases) and
/// `spread`.
#[test]
fn repeated_crashes_are_stable() {
    spec::check(
        &shapes(96),
        |shape| vec((vec(shape.op(MIX), 1..8), 0usize..512), 1..6),
        |_, rounds| {
            let mut disk = Arc::new(SimDisk::new());
            let mut expected = GapMap::new();
            let mut txn = 0u64;
            let mut version = 0u64;
            for (ops, survive) in rounds {
                let mut st = DurableState::recover(Arc::clone(&disk)).expect("recover");
                prop_assert_eq!(st.map(), expected.clone());
                for op in &ops {
                    txn += 1;
                    version += 1;
                    let t = TxnId(txn);
                    st.begin(t);
                    apply(&mut st, op, t, Version::new(version));
                    st.commit(t);
                }
                expected = st.map().clone();
                let d = Arc::clone(st.disk());
                d.crash(survive);
                disk = d;
            }
            let final_state = DurableState::recover(disk).expect("final recover");
            prop_assert_eq!(final_state.map(), expected);
        },
    );
}
