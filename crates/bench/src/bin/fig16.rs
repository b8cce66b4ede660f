//! Regenerates the paper's **Figure 16** (§5): a 4-2-3 suite with locality
//! — Type A transactions work on the low half of the key space near
//! representatives A1/A2, Type B on the high half near B1/B2. All
//! inquiries should be served locally, and each modification's single
//! non-local write should spread evenly over the two remote
//! representatives.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin fig16
//! ```

use repdir_workload::run_locality;

fn main() {
    let ops = 20_000;
    println!("Figure 16: locality-aware quorum assignment on a 4-2-3 suite");
    println!("reps: A1=0, A2=1 (local to Type A), B1=2, B2=3 (local to Type B)");
    println!("{ops} transactions, half Type A (low keys), half Type B (high keys)");
    println!();
    let report = run_locality(ops, 0x16_000);

    println!("inquiries:      {}", report.inquiries);
    println!("modifications:  {}", report.modifications);
    println!();
    println!(
        "inquiry RPCs:   {:>8} local, {:>8} remote  -> read locality {:.1}%",
        report.local_read_rpcs,
        report.remote_read_rpcs,
        100.0 * report.read_locality()
    );
    println!(
        "write RPCs:     {:>8} local, {:>8} remote",
        report.local_write_rpcs, report.remote_write_rpcs
    );
    println!();
    println!("remote write RPCs per representative (evenness of the non-local write):");
    for (i, count) in report.remote_write_per_member.iter().enumerate() {
        let name = match i {
            0 => "A1",
            1 => "A2",
            2 => "B1",
            _ => "B2",
        };
        println!("  {name}: {count}");
    }
    println!();
    println!("Paper's claims (§5): 'all inquiries can be done locally and the");
    println!("non-local write … is evenly distributed among the remote");
    println!("representatives.'");
}
