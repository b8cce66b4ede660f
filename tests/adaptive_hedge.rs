//! Equivalence tests for adaptive wave provisioning.
//!
//! Wave sizing changes *how many* candidates a quorum wave asks — never what
//! a quorum means: by the paper's §3.1 intersection argument, any member set
//! whose votes reach the threshold is a valid quorum, and every read quorum
//! sees the current version of every key. These tests pin the consequence:
//! on a fault-free fabric the suite agrees op-for-op with the sequential
//! spec, and every operation sends exactly the requests the
//! analysis says (a wave is the minimal prefix while every member answers).

use repdir::core::proptest_mini::collection::vec;
use repdir::core::proptest_mini::prelude::*;
use repdir::core::suite::{DirSuite, SuiteConfig};
use repdir::workload::spec::{self, Answer, Op, Shape, Spec, POINT};

/// The suite agrees op-for-op with the sequential spec, and on a
/// fault-free fabric every wave is the minimal prefix: each operation sends
/// (pings plus data — a point operation's collection carries its request,
/// so pings alone do not count what collections spend) the band the
/// analysis allows it: lookup R, insert and update R + W (R when the lookup
/// refuses them), delete R + 2W (R when the key is absent) plus at most one
/// request per chain a ghost made a walk fetch beyond wave A's. Shapes:
/// `dense_u8` (48 cases), `spread` and `inline_straddle`.
#[test]
fn adaptive_and_hedged_match_baseline_and_model() {
    spec::check(
        &[
            (Shape::DenseU8(16), 48),
            (Shape::Spread(16), 12),
            (Shape::InlineStraddle(16), 12),
        ],
        |shape| (vec(shape.op(POINT), 1..60), any::<u64>(), 0usize..3),
        |_, (ops, seed, cfg_choice)| {
            let (n, r, w) = [(3, 2, 2), (4, 2, 3), (5, 3, 3)][cfg_choice];
            let config = SuiteConfig::symmetric(n, r, w).expect("legal");
            let (r, w) = (u64::from(r), u64::from(w));
            let mut suite = DirSuite::in_process(config, seed).expect("suite");
            let mut spec = Spec::new();
            for op in &ops {
                suite.reset_message_counts();
                // A delete's chains beyond wave A's widen its band.
                let (reply, refills) = match op {
                    Op::Delete(key) => match suite.delete(key) {
                        Ok(out) => {
                            let chains = u64::from(out.pred_rpcs + out.succ_rpcs);
                            (Ok(Answer::Done), chains - 2 * r)
                        }
                        Err(e) => (Err(e), 0),
                    },
                    op => (op.run(&mut suite), 0),
                };
                let expect = spec.apply(op);
                prop_assert_eq!(&reply, &expect, "{:?}", op);
                let (least, most) = match (op, expect) {
                    (Op::Lookup(_), _) | (_, Err(_)) => (r, r),
                    (Op::Delete(_), Ok(_)) => (r + 2 * w, r + 2 * w + refills),
                    _ => (r + w, r + w),
                };
                let sent: u64 = suite
                    .ping_counts()
                    .iter()
                    .chain(&suite.message_counts())
                    .sum();
                prop_assert!(
                    (least..=most).contains(&sent),
                    "{:?} sent {} requests, analysis says {}..={}",
                    op,
                    sent,
                    least,
                    most
                );
            }
        },
    );
}
