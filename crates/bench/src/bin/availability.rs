//! Availability of reads and writes as a function of per-replica
//! availability — the quorum-tunability claims of §1/§2/§5, with
//! unanimous update as the degenerate comparison and an empirical
//! cross-check against the running system.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin availability
//! ```

use repdir_core::suite::SuiteConfig;
use repdir_workload::{
    empirical_availability, suite_availability, unanimous_availability, SuiteDirectory,
};

fn main() {
    let ps = [0.5, 0.8, 0.9, 0.95, 0.99];
    let configs: &[(u32, u32, u32)] = &[(3, 2, 2), (3, 1, 3), (5, 3, 3), (5, 2, 4), (5, 1, 5)];

    println!("Analytic read/write availability (closed form, independent failures)");
    println!();
    print!("{:<22}", "strategy");
    for p in ps {
        print!("  p={p:<12}");
    }
    println!();
    for &(n, r, w) in configs {
        let config = SuiteConfig::symmetric(n, r, w).expect("legal");
        print!("{:<22}", format!("suite {}", config.describe()));
        for p in ps {
            let (ra, wa) = suite_availability(&config, p);
            print!("  R{ra:.4}/W{wa:.4}");
        }
        println!();
    }
    for n in [3u32, 5] {
        print!("{:<22}", format!("unanimous n={n}"));
        for p in ps {
            let (ra, wa) = unanimous_availability(n, p);
            print!("  R{ra:.4}/W{wa:.4}");
        }
        println!();
    }

    println!();
    println!("Empirical cross-check: 3-2-2 suite, 20 000 ops per cell,");
    println!("replicas independently up with probability p before each op");
    println!();
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "p", "read meas.", "read exact", "write meas.", "write exact"
    );
    for p in ps {
        let cfg = SuiteConfig::symmetric(3, 2, 2).expect("legal");
        let (r_exact, w_exact) = suite_availability(&cfg, p);
        let mut dir = SuiteDirectory::new(cfg.clone(), 0xA11);
        let read = empirical_availability(
            &mut dir,
            |d, i, up| d.set_available(i, up),
            3,
            p,
            true,
            20_000,
            1,
        );
        let mut dir = SuiteDirectory::new(cfg, 0xA12);
        let write = empirical_availability(
            &mut dir,
            |d, i, up| d.set_available(i, up),
            3,
            p,
            false,
            20_000,
            2,
        );
        println!(
            "{:<8} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            p,
            read.availability(),
            r_exact,
            write.availability(),
            w_exact
        );
    }

    println!();
    println!("Takeaways matching the paper: quorum sizes trade read vs write");
    println!("availability (compare 3-2-2 with 3-1-3); unanimous update's write");
    println!("availability collapses as replicas are added; a 3-2-2 suite");
    println!("tolerates any single failure for both reads and writes.");
}
