//! Regenerates the paper's **Figure 15**: detailed statistics for 3-2-2
//! suites at 100 / 1 000 / 10 000 entries, 100 000 operations each —
//! average, maximum, and standard deviation of the three deletion
//! statistics, plus the §4 search-step distribution behind the
//! message-batching claim.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin fig15
//! ```

use repdir_workload::{run_sim, SimParams, SimReport};

/// One Figure 15 row: size label plus (avg, max, σ) triples for the three
/// statistics.
type PaperRow = (&'static str, [f64; 3], [f64; 3], [f64; 3]);

/// The paper's Figure 15 values for side-by-side comparison.
const PAPER: &[PaperRow] = &[
    // size, entries-coalesced (avg max sd), deletions (avg max sd), insertions (avg max sd)
    (
        "100",
        [1.33, 9.0, 0.87],
        [0.88, 8.0, 1.05],
        [0.44, 2.0, 0.59],
    ),
    (
        "1000",
        [1.32, 12.0, 0.86],
        [0.87, 11.0, 1.04],
        [0.45, 2.0, 0.59],
    ),
    (
        "10000",
        [1.20, 9.0, 0.76],
        [0.67, 9.0, 0.90],
        [0.53, 2.0, 0.64],
    ),
];

fn main() {
    println!("Figure 15: three 3-2-2 directory suites, 100 000 ops each");
    println!();
    let sizes = [100usize, 1_000, 10_000];
    let mut reports = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        eprintln!("running {size}-entry simulation…");
        let params = SimParams::figure15(size, 0x15_000 + i as u64);
        reports.push(run_sim(&params));
    }

    println!(
        "{:<30} {:>24} {:>24} {:>24}",
        "", "100 entries", "1000 entries", "10000 entries"
    );
    print_stat_row(
        "Entries in ranges coalesced",
        &reports,
        |r| r.entries_coalesced,
        PAPER.iter().map(|p| p.1).collect(),
    );
    print_stat_row(
        "Deletions while coalescing",
        &reports,
        |r| r.deletions_while_coalescing,
        PAPER.iter().map(|p| p.2).collect(),
    );
    print_stat_row(
        "Insertions while coalescing",
        &reports,
        |r| r.insertions_while_coalescing,
        PAPER.iter().map(|p| p.3).collect(),
    );

    println!();
    println!("Search-step distribution per delete (pred + succ loop iterations):");
    println!("(the §4 claim: batching 3 predecessor/successor results per message");
    println!(" usually resolves the search in one RPC round — i.e. mass at <= 6)");
    for (size, report) in sizes.iter().zip(&reports) {
        let h = &report.search_steps;
        let frac_1round = h.fraction_at_most(6);
        print!("  {size:>6} entries: ");
        for (steps, count) in h.buckets() {
            print!("{steps}:{count} ");
        }
        println!("  -> P(steps <= 6) = {frac_1round:.4}");
    }
    println!();
    println!("Per-representative entry counts at end (ghost load):");
    for (size, report) in sizes.iter().zip(&reports) {
        println!(
            "  {size:>6} entries: final size {} reps {:?}",
            report.final_size, report.rep_entry_counts
        );
    }
}

fn print_stat_row(
    label: &str,
    reports: &[SimReport],
    get: impl Fn(&SimReport) -> repdir_workload::RunningStat,
    paper: Vec<[f64; 3]>,
) {
    print!("{label:<30}");
    for r in reports {
        let s = get(r);
        print!(
            " {:>9.2} {:>6} {:>7.2}",
            s.mean(),
            s.max() as u64,
            s.std_dev()
        );
    }
    println!();
    print!("{:<30}", "  (paper)");
    for p in paper {
        print!(" {:>9.2} {:>6} {:>7.2}", p[0], p[1] as u64, p[2]);
    }
    println!();
}
