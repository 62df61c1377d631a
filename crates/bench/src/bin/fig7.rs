//! Regenerates Figure 7: performance with large pages, normalized to
//! Native-2M. The figure shows a subset of the benchmarks; the averages
//! (AVG, AVG-no-mcf) cover all Figure 6 benchmarks, as in the paper.

use vbi_bench::figure_config;
use vbi_sim::engine::run;
use vbi_sim::report::SpeedupTable;
use vbi_sim::systems::SystemKind;
use vbi_sim::workloads::spec::{benchmark, FIG6_BENCHMARKS, FIG7_BENCHMARKS};

pub fn main() {
    let cfg = figure_config();
    let systems = vec![
        SystemKind::Virtual2M,
        SystemKind::EnigmaHw2M,
        SystemKind::VbiFull,
        SystemKind::PerfectTlb,
    ];

    let mut results = Vec::new();
    for name in FIG6_BENCHMARKS {
        let spec = benchmark(name).expect("figure benchmark exists");
        eprintln!("[fig7] {name} ...");
        results.push(run(SystemKind::Native2M, &spec, &cfg));
        for &system in &systems {
            results.push(run(system, &spec, &cfg));
        }
    }

    let table = SpeedupTable::from_runs(SystemKind::Native2M, systems.clone(), &results);
    vbi_bench::header("Figure 7: Performance with large pages (normalized to Native-2M)");
    println!("(figure rows; averages computed over all Figure 6 benchmarks)\n");
    print!("{:<16}", "workload");
    for s in &systems {
        print!("{:>14}", s.label());
    }
    println!();
    println!("{}", "-".repeat(16 + 14 * systems.len()));
    for name in FIG7_BENCHMARKS {
        print!("{name:<16}");
        for &s in &systems {
            print!("{:>14.2}", table.cell(name, s).expect("cell exists"));
        }
        println!();
    }
    println!("{}", "-".repeat(16 + 14 * systems.len()));
    print!("{:<16}", "AVG");
    for v in table.averages() {
        print!("{v:>14.2}");
    }
    println!();
    print!("{:<16}", "AVG-no-mcf");
    for v in table.averages_excluding("mcf") {
        print!("{v:>14.2}");
    }
    println!();
}
