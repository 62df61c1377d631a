//! `migration` bench: cross-shard VB migration under concurrent lock-free
//! readers (`vbi_sim::service_run::migration_run`) over readers × shards ×
//! churn intensity.
//!
//! Exercises the §4.2.2 flexibility claim end to end: a churn thread moves
//! whole VBs between MTL shards through the engine's `Op::Migrate` while
//! reader threads hammer the same VBs through one shared session — every
//! read is asserted byte-exact in-process, so the sweep doubles as a
//! correctness check. The final line is a machine-readable JSON summary
//! (tag `BENCH_migration`) so future PRs can track the trajectory. It is
//! the one host-throughput sweep outside the `perf` benchmark, which has no
//! sharded workload yet; it retires into that workload's rows (ROADMAP
//! item 7(b)).
//!
//! Run with `cargo bench -p vbi-bench --bench migration`; set
//! `VBI_MIGRATION_READS` to change the per-reader load count (default
//! 20 000). On a single-CPU host the reader-scaling diagonal is flat; the
//! migrations/sec column and the epoch-fallback (cache-miss) counter are
//! the signal there.

use vbi_core::telemetry::{bench_line, JsonValue as J};
use vbi_sim::service_run::{migration_run, MigrationRunConfig};

fn main() {
    let reads_per_thread = std::env::var("VBI_MIGRATION_READS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(20_000);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // (readers, shards, migrations) sweep. The first point is the quiet
    // baseline (almost no churn); the diagonal scales readers with shards;
    // the final pair isolates churn intensity at fixed parallelism.
    let sweep: [(usize, usize, usize); 5] =
        [(1, 2, 8), (2, 2, 100), (4, 4, 100), (4, 4, 400), (8, 4, 400)];

    println!(
        "{:>7} {:>7} {:>11} {:>12} {:>12} {:>11} {:>11}",
        "readers", "shards", "migrations", "reads/sec", "moves/sec", "epoch-miss", "torn"
    );
    let mut results = Vec::new();
    for (readers, shards, migrations) in sweep {
        let config = MigrationRunConfig {
            readers,
            shards,
            reads_per_thread,
            migrations,
            ..MigrationRunConfig::default()
        };
        let report = migration_run(&config);
        println!(
            "{:>7} {:>7} {:>11} {:>12.0} {:>12.1} {:>11} {:>11}",
            readers,
            shards,
            migrations,
            report.reads_per_sec,
            report.migrations_per_sec,
            report.cache.misses,
            report.cache.torn_retries,
        );
        results.push(report);
    }

    let entries: Vec<String> = results.iter().map(|r| r.to_json()).collect();
    println!(
        "{}",
        bench_line(
            "migration",
            &[
                ("host_cpus", J::U(host_cpus as u64)),
                ("reads_per_thread", J::U(reads_per_thread as u64)),
                ("results", J::Raw(format!("[{}]", entries.join(",")))),
            ],
        )
    );
}
