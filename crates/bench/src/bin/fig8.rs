//! Regenerates Figure 8 (and Table 2): quad-core multiprogrammed weighted
//! speedup, normalized to Native.
//!
//! Every (bundle, system) run is independent, so the sweep fans out over
//! `std::thread::scope` workers: one stage computes each bundle's Native
//! baselines in parallel, a second computes every (bundle, system)
//! weighted speedup in parallel. Output order stays deterministic because
//! workers are joined in spawn order.

use std::thread;

use vbi_bench::figure_config;
use vbi_sim::engine::{EngineConfig, RunResult};
use vbi_sim::multicore::{run_alone_native, run_bundle};
use vbi_sim::report::mean;
use vbi_sim::systems::SystemKind;
use vbi_sim::workloads::bundles::{bundle, bundle_names, BUNDLES};
use vbi_sim::workloads::trace::WorkloadSpec;

pub fn main() {
    let base = figure_config();
    // Quad-core runs split the trace budget per app.
    let cfg = EngineConfig { accesses: base.accesses / 2, warmup: base.warmup / 2, ..base };

    vbi_bench::header("Table 2: Multiprogrammed workload bundles");
    for (name, apps) in BUNDLES {
        println!("{name}  {}", apps.join(", "));
    }

    let systems = vec![
        SystemKind::Native2M,
        SystemKind::Virtual,
        SystemKind::Virtual2M,
        SystemKind::VbiFull,
        SystemKind::PerfectTlb,
    ];

    // Stage 1: per-bundle Native baselines (alone + shared), in parallel.
    let names = bundle_names();
    let baselines: Vec<(Vec<WorkloadSpec>, Vec<RunResult>, f64)> = thread::scope(|s| {
        let workers: Vec<_> = names
            .iter()
            .map(|&name| {
                let cfg = &cfg;
                s.spawn(move || {
                    eprintln!("[fig8] {name} baselines ...");
                    let apps = bundle(name).expect("table 2 bundle");
                    let alone = run_alone_native(&apps, cfg);
                    let native_ws =
                        run_bundle(name, SystemKind::Native, &apps, cfg).weighted_speedup(&alone);
                    (apps, alone, native_ws)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("baseline worker")).collect()
    });

    // Stage 2: every (bundle, system) weighted speedup, in parallel.
    let rows: Vec<(&str, Vec<f64>)> = thread::scope(|s| {
        let workers: Vec<Vec<_>> = names
            .iter()
            .zip(&baselines)
            .map(|(&name, (apps, alone, native_ws))| {
                systems
                    .iter()
                    .map(|&system| {
                        let cfg = &cfg;
                        s.spawn(move || {
                            let ws = run_bundle(name, system, apps, cfg).weighted_speedup(alone);
                            ws / native_ws
                        })
                    })
                    .collect()
            })
            .collect();
        names
            .iter()
            .zip(workers)
            .map(|(&name, row)| {
                (name, row.into_iter().map(|w| w.join().expect("bundle worker")).collect())
            })
            .collect()
    });

    vbi_bench::header(
        "Figure 8: Multiprogrammed workload performance (weighted speedup normalized to Native)",
    );
    print!("{:<8}", "bundle");
    for s in &systems {
        print!("{:>14}", s.label());
    }
    println!();
    println!("{}", "-".repeat(8 + 14 * systems.len()));
    for (name, row) in &rows {
        print!("{name:<8}");
        for v in row {
            print!("{v:>14.2}");
        }
        println!();
    }
    println!("{}", "-".repeat(8 + 14 * systems.len()));
    print!("{:<8}", "AVG");
    for i in 0..systems.len() {
        let avg = mean(&rows.iter().map(|(_, r)| r[i]).collect::<Vec<f64>>());
        print!("{avg:>14.2}");
    }
    println!();
}
