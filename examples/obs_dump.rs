//! Metrics dump: what the obs subsystem sees during a short workload.
//!
//! Runs a handful of operations against a 3-2-2 suite — including a brief
//! partition so reads observe stale votes (`repair.stale_votes_observed`)
//! — then an anti-entropy catch-up between two representatives, and prints
//! the two registries that recorded them: the suite's own (per-member
//! message/ping counters, reply-time EWMAs, quorum wave counts, operation
//! spans) and the repairer's own (`repair.rounds` /
//! `repair.subtrees_walked` / `repair.pulls` / `repair.keys_pulled` /
//! `repair.bytes`). There is no process-wide registry: each object that
//! records owns its registry and hands it out.
//!
//! ```text
//! cargo run --example obs_dump            # human-readable text
//! cargo run --example obs_dump -- --json  # machine-readable JSON
//! ```

use repdir::core::suite::{DirSuite, SuiteConfig};
use repdir::core::{Key, RepId, Value, Version};
use repdir::repair::Repairer;
use repdir::replica::{LocalRepairPeer, RepTarget, TransactionalRep};
use repdir::txn::TxnId;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = std::env::args().any(|a| a == "--json");

    let mut dir = DirSuite::in_process(SuiteConfig::symmetric(3, 2, 2)?, 42)?;
    for name in ["passwd", "motd", "hosts", "group"] {
        dir.insert(
            &Key::from(name),
            &Value::from(format!("inode {name}").as_str()),
        )?;
    }
    dir.update(&Key::from("motd"), &Value::from("inode 99"))?;
    for _ in 0..8 {
        dir.lookup(&Key::from("passwd"))?;
    }
    dir.delete(&Key::from("hosts"))?;
    // Partition member 2 for one write, heal, and read until a quorum
    // straddles it: the stale votes land in `repair.stale_votes_observed`
    // and the queue drains through `take_stale_votes`.
    dir.member(2).set_available(false);
    dir.update(&Key::from("motd"), &Value::from("inode 100"))?;
    dir.member(2).set_available(true);
    for _ in 0..8 {
        dir.lookup(&Key::from("motd"))?;
    }
    let stale = dir.take_stale_votes();

    // Anti-entropy between two representatives fills in the repairer's
    // `repair.*` counters: a fresh rep pulls the whole directory from a
    // seeded peer through the summary tree.
    let fresh = TransactionalRep::new(RepId(10));
    let seeded = TransactionalRep::new(RepId(11));
    let txn = TxnId(1);
    seeded.begin(txn)?;
    for (i, name) in ["passwd", "motd", "group"].iter().enumerate() {
        seeded.insert(
            txn,
            &Key::from(*name),
            Version::new(i as u64 + 1),
            &Value::from(*name),
        )?;
    }
    seeded.commit(txn)?;
    let repairer = Repairer::new(
        Arc::new(RepTarget::new(Arc::clone(&fresh))),
        vec![Box::new(LocalRepairPeer::new(seeded))],
    );
    let quiesce = repairer.run_until_quiescent(4);

    // Per-suite registry: everything the coordinator recorded. The same
    // numbers back `message_counts()` / `ping_counts()` /
    // `member_reply_ewmas()`.
    let suite_obs = dir.obs();
    // The repairer's registry: what the catch-up walked and pulled.
    let repair_obs = repairer.registry();

    if json {
        println!(
            "{{\"suite\": {}, \"repair\": {}}}",
            suite_obs.render_json(),
            repair_obs.render_json()
        );
    } else {
        println!(
            "stale votes drained for read-repair: {} (repair quiesced after {} sweeps)\n",
            stale.len(),
            quiesce.sweeps
        );
        println!("== suite registry ==\n{}", suite_obs.render_text());
        println!("== repairer registry ==\n{}", repair_obs.render_text());
    }
    Ok(())
}
