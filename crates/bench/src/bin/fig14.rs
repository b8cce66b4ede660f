//! Regenerates the paper's **Figure 14**: the three deletion statistics for
//! ~100-entry directories under varying suite configurations, 10 000
//! operations each, with uniformly random keys and quorums.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin fig14
//! ```

use repdir_core::suite::SuiteConfig;
use repdir_workload::{analytic_delete_stats, run_sim, SimParams};

fn main() {
    let configs: &[(u32, u32, u32)] = &[
        (1, 1, 1),
        (2, 1, 2),
        (3, 2, 2),
        (3, 1, 3),
        (4, 2, 3),
        (4, 3, 3),
        (4, 1, 4),
        (5, 3, 3),
        (5, 2, 4),
        (5, 1, 5),
        (7, 4, 4),
    ];

    println!("Figure 14: simulation averages, ~100-entry directories, 10 000 ops each");
    println!("(uniform random keys and quorum members; seeds fixed for reproducibility)");
    println!();
    println!(
        "{:<8} {:>24} {:>24} {:>24}",
        "suite", "entries-coalesced", "deletes-coalescing", "inserts-coalescing"
    );
    println!(
        "{:<8} {:>24} {:>24} {:>24}",
        "", "meas. / model", "meas. / model", "meas. / model"
    );
    for &(n, r, w) in configs {
        let config = SuiteConfig::symmetric(n, r, w).expect("legal configuration");
        let label = config.describe();
        let params =
            SimParams::figure14(config, 0x14_000 + n as u64 * 100 + r as u64 * 10 + w as u64);
        let report = run_sim(&params);
        // §5's "simple analytic model", for comparison.
        let model = analytic_delete_stats(n, w, params.update_fraction);
        println!(
            "{:<8} {:>12.2} / {:<9.2} {:>12.2} / {:<9.2} {:>12.2} / {:<9.2}",
            label,
            report.entries_coalesced.mean(),
            model.entries_in_range,
            report.deletions_while_coalescing.mean(),
            model.deletions_while_coalescing,
            report.insertions_while_coalescing.mean(),
            model.insertions_while_coalescing,
        );
    }
    println!();
    println!("Paper's qualitative expectations (§4):");
    println!("  * W = N rows (x-1-x) do no extra work: no ghosts ever form.");
    println!("  * Wider spreads (larger N - W) accumulate more ghosts per delete.");
    println!("  * All averages stay small — the delete overhead 'is low'.");
}
