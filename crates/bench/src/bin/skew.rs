//! §2's warning about static partitioning under skewed access, measured:
//! "If a small number of ranges were used, then at most that number of
//! transactions could modify a directory concurrently … an uneven
//! distribution of accesses could limit concurrency."
//!
//! Eight concurrent read-modify-write clients per round over 1 000 keys;
//! conflicts counted by the real static-partition version check vs the
//! same-key collisions that per-entry range locking would serialize.
//!
//! ```text
//! cargo run --release -p repdir-bench --bin skew
//! ```

use repdir_workload::skewed_contention;

fn main() {
    println!("Concurrent RMW conflict rate: static partitions vs per-entry ranges");
    println!("(8 clients/round, 500 rounds, 1000 keys, 3-2-2 replication)");
    println!();
    println!(
        "{:<12} {:>12} {:>22} {:>22}",
        "partitions", "zipf θ", "partition conflicts", "same-key collisions"
    );
    for &partitions in &[2usize, 4, 16, 64] {
        for &theta in &[0.0, 0.8, 0.99, 1.2] {
            let (partition, key) =
                skewed_contention(partitions, 1000, 8, 500, theta, 0x5E3 + partitions as u64);
            println!(
                "{:<12} {:>12} {:>21.1}% {:>21.1}%",
                partitions,
                theta,
                100.0 * partition.conflict_rate(),
                100.0 * key.conflict_rate()
            );
        }
    }
    println!();
    println!("Expected shape: per-entry (same-key) contention stays near zero at");
    println!("every skew; static-partition contention is already visible with");
    println!("uniform access at few partitions and explodes under skew even with");
    println!("many partitions — the §2 warning quantified.");
}
