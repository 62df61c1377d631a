//! Use case 2 (§7.3): hotness-aware data placement in heterogeneous
//! memories. The MTL observes every main-memory access, ranks VBs by access
//! density, and migrates the hottest ones into the fast region — something
//! an OS cannot do at this granularity or rate.
//!
//! Run with: `cargo run --release --example heterogeneous_memory`

use vbi::hetero::memory::{HeteroKind, HeteroMemory, Policy, PAGE_BYTES};
use vbi::sim::engine::{run, EngineConfig, RunResult};
use vbi::sim::systems::SystemKind;
use vbi::workloads::spec::hetero_benchmark;

fn main() {
    // First, the mechanism in isolation: a small hot VB and a large cold VB
    // over a PCM-DRAM hybrid with room for only one of them in DRAM.
    let mut memory =
        HeteroMemory::new(HeteroKind::PcmDram, 64 * PAGE_BYTES, Policy::VbiHotness, 500);
    memory.register_region(0, 32 * PAGE_BYTES); // hot: fits the fast region
    memory.register_region(1, 4096 * PAGE_BYTES); // cold: does not

    for round in 0..200u64 {
        for page in 0..32 {
            memory.place(0, page * PAGE_BYTES);
        }
        memory.place(1, (round * 131) % 4096 * PAGE_BYTES);
    }
    let stats = memory.stats();
    println!(
        "mechanism: hot VB selected = {}, fast-access fraction = {:.0}%, migrations = {}",
        memory.hot_regions().contains(&0),
        stats.fast_fraction() * 100.0,
        stats.pages_migrated
    );

    // Then the experiment shape of Figures 9 and 10 on one benchmark: the
    // same machine and run loop as every other figure, with the DDR3 memory
    // swapped for a two-speed one.
    let cfg = EngineConfig { accesses: 40_000, warmup: 4_000, seed: 2020, phys_frames: 1 << 20 };
    let spec = hetero_benchmark("sphinx3").expect("known benchmark");
    for kind in [HeteroKind::PcmDram, HeteroKind::TlDram] {
        let [unaware, vbi, ideal] = [Policy::Unaware, Policy::VbiHotness, Policy::Ideal]
            .map(|policy| run(SystemKind::Hetero(kind, policy), &spec, &cfg));
        let fast = |r: &RunResult| r.hetero.expect("a two-speed memory").fast_fraction() * 100.0;
        println!(
            "{kind:?} on sphinx3: VBI {:.2}x, IDEAL {:.2}x over hotness-unaware \
             (fast fractions {:.0}% / {:.0}% / {:.0}%)",
            vbi.speedup_over(&unaware),
            ideal.speedup_over(&unaware),
            fast(&unaware),
            fast(&vbi),
            fast(&ideal),
        );
    }
}
