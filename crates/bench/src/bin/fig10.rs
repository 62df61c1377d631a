//! Regenerates Figure 10: VBI TL-DRAM performance, normalized to the
//! hotness-unaware TL-DRAM mapping, with the IDEAL oracle as upper bound.

use vbi_bench::figure_config;
use vbi_sim::engine::run;
use vbi_sim::hetero::memory::{HeteroKind, Policy};
use vbi_sim::report::mean;
use vbi_sim::systems::SystemKind;
use vbi_sim::workloads::spec::{hetero_benchmark, HETERO_BENCHMARKS};

pub fn main() {
    let kind = HeteroKind::TlDram;
    let cfg = figure_config();
    let mut vbi_speedups = Vec::new();
    let mut ideal_speedups = Vec::new();

    vbi_bench::header(
        "Figure 10: Performance of VBI TL-DRAM (normalized to hotness-unaware mapping)",
    );
    println!("{:<16}{:>14}{:>14}", "workload", "VBI", "IDEAL");
    println!("{}", "-".repeat(44));
    for name in HETERO_BENCHMARKS {
        let spec = hetero_benchmark(name).expect("hetero benchmark exists");
        eprintln!("[fig10] {name} ...");
        let unaware = run(SystemKind::Hetero(kind, Policy::Unaware), &spec, &cfg);
        let vbi = run(SystemKind::Hetero(kind, Policy::VbiHotness), &spec, &cfg);
        let ideal = run(SystemKind::Hetero(kind, Policy::Ideal), &spec, &cfg);
        let vs = vbi.speedup_over(&unaware);
        let is = ideal.speedup_over(&unaware);
        println!("{name:<16}{vs:>14.2}{is:>14.2}");
        vbi_speedups.push(vs);
        ideal_speedups.push(is);
    }
    println!("{}", "-".repeat(44));
    println!("{:<16}{:>14.2}{:>14.2}", "AVG", mean(&vbi_speedups), mean(&ideal_speedups));
}
