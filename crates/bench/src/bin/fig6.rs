//! Regenerates Figure 6: performance of systems with 4 KiB pages,
//! normalized to Native, for each benchmark plus AVG and AVG-no-mcf.

use vbi_bench::figure_config;
use vbi_sim::engine::run;
use vbi_sim::report::SpeedupTable;
use vbi_sim::systems::SystemKind;
use vbi_sim::workloads::spec::{benchmark, FIG6_BENCHMARKS};

pub fn main() {
    let cfg = figure_config();
    let systems = vec![
        SystemKind::Virtual,
        SystemKind::Vivt,
        SystemKind::Vbi1,
        SystemKind::Vbi2,
        SystemKind::VbiFull,
        SystemKind::PerfectTlb,
    ];

    let mut results = Vec::new();
    for name in FIG6_BENCHMARKS {
        let spec = benchmark(name).expect("figure benchmark exists");
        eprintln!("[fig6] {name} ...");
        results.push(run(SystemKind::Native, &spec, &cfg));
        for &system in &systems {
            results.push(run(system, &spec, &cfg));
        }
    }

    let table = SpeedupTable::from_runs(SystemKind::Native, systems, &results);
    vbi_bench::header("Figure 6: Performance of systems with 4 KB pages (normalized to Native)");
    print!("{}", table.render_with_exclusion("", "mcf"));
}
