//! Heterogeneous-memory experiments (Figures 9 and 10): their parameters
//! and the IDEAL oracle.
//!
//! Use case 2 (§7.3): the same VBI front end (inherently virtual caches, no
//! front-end translation), but the memory behind the MTL is two-speed. What
//! is compared is purely the *placement policy*, run by
//! [`engine::run`](crate::engine::run) as a
//! [`SystemKind::Hetero`](crate::systems::SystemKind): hotness-unaware first
//! touch, VBI's VB-granularity hotness migration, and the IDEAL page-level
//! oracle, profiled from the same trace ("oracle knowledge").

use crate::hetero::hotness::HotnessTracker;
use crate::hetero::memory::{HeteroKind, PAGE_BYTES};
use crate::mem::hierarchy::{CacheHierarchy, HitLevel};
use crate::systems::packed_layout;
use crate::workloads::trace::WorkloadSpec;

use crate::engine::EngineConfig;

/// Fast-region capacity used in the experiments. Both are deliberately much
/// smaller than the workload footprints (as in the paper, where DRAM is a
/// small fraction of PCM and TL-DRAM's near segment a small fraction of each
/// subarray), so placement quality actually matters.
pub(crate) fn fast_bytes_for(kind: HeteroKind) -> u64 {
    match kind {
        // A DRAM cache-like fast region in front of PCM.
        HeteroKind::PcmDram => 128 << 20,
        // TL-DRAM's near segment is a small slice of every subarray
        // (tens of rows out of 512), so its aggregate capacity is a much
        // smaller fraction of memory.
        HeteroKind::TlDram => 64 << 20,
    }
}

/// Epoch length (main-memory accesses between placement decisions).
pub(crate) const EPOCH_ACCESSES: u64 = 10_000;

/// The IDEAL oracle's page ranking: it sees the future, so it profiles the
/// LLC-miss stream of the whole run (warm-up included) through the caches
/// alone, over the layout the run's caches see.
pub(crate) fn ideal_ranking(
    spec: &WorkloadSpec,
    config: &EngineConfig,
) -> Vec<((usize, u64), u64)> {
    let mut profiler = HotnessTracker::new();
    let mut caches = CacheHierarchy::per_core_default();
    let sizes: Vec<u64> = spec.regions.iter().map(|r| r.bytes).collect();
    let bases = packed_layout(&sizes);
    for access in spec.trace(config.seed).take(config.warmup + config.accesses) {
        let line = bases[access.region] + access.offset;
        if caches.access(line, access.is_write).level == HitLevel::Memory {
            profiler.record(access.region, access.offset / PAGE_BYTES);
        }
    }
    profiler.rank_pages()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run, RunResult};
    use crate::hetero::memory::Policy;
    use crate::systems::SystemKind;
    use crate::workloads::spec::{benchmark, hetero_benchmark};

    fn quick() -> EngineConfig {
        EngineConfig { accesses: 40_000, warmup: 4_000, seed: 11, phys_frames: 1 << 20 }
    }

    fn run_hetero(kind: HeteroKind, policy: Policy, name: &str, cfg: &EngineConfig) -> RunResult {
        run(SystemKind::Hetero(kind, policy), &hetero_benchmark(name).unwrap(), cfg)
    }

    #[test]
    fn vbi_placement_beats_unaware_on_skewed_workloads() {
        // sphinx3 is strongly hot/cold.
        let unaware = run_hetero(HeteroKind::PcmDram, Policy::Unaware, "sphinx3", &quick());
        let vbi = run_hetero(HeteroKind::PcmDram, Policy::VbiHotness, "sphinx3", &quick());
        assert!(vbi.speedup_over(&unaware) > 1.0, "vbi {} vs unaware {}", vbi.ipc(), unaware.ipc());
    }

    #[test]
    fn ideal_is_an_upper_bound_for_unaware() {
        let unaware = run_hetero(HeteroKind::TlDram, Policy::Unaware, "milc", &quick());
        let ideal = run_hetero(HeteroKind::TlDram, Policy::Ideal, "milc", &quick());
        assert!(ideal.speedup_over(&unaware) >= 0.95, "{}", ideal.speedup_over(&unaware));
    }

    #[test]
    fn warm_up_write_backs_reach_the_memory() {
        // milc evicts dirty lines from the LLC within its first 20 000
        // accesses. A run that is all warm-up must show every LLC miss and
        // every LLC write-back of those accesses at the memory.
        let spec = benchmark("milc").unwrap();
        let cfg = EngineConfig { accesses: 0, warmup: 20_000, ..quick() };
        let mut caches = CacheHierarchy::per_core_default();
        let sizes: Vec<u64> = spec.regions.iter().map(|r| r.bytes).collect();
        let bases = packed_layout(&sizes);
        let (mut misses, mut writebacks) = (0, 0);
        for access in spec.trace(cfg.seed).take(cfg.warmup) {
            let r = caches.access(bases[access.region] + access.offset, access.is_write);
            misses += (r.level == HitLevel::Memory) as u64;
            writebacks += r.llc_writebacks.len() as u64;
        }
        assert!(writebacks > 0, "milc's warm-up evicts dirty lines");
        let stats = run_hetero(HeteroKind::PcmDram, Policy::Unaware, "milc", &cfg).hetero.unwrap();
        assert_eq!(stats.fast_accesses + stats.slow_accesses, misses + writebacks);
    }

    #[test]
    fn runs_report_fast_fractions() {
        let r = run_hetero(HeteroKind::PcmDram, Policy::VbiHotness, "hmmer", &quick());
        let fast_fraction = r.hetero.unwrap().fast_fraction();
        assert!((0.0..=1.0).contains(&fast_fraction));
        assert!(r.cycles > 0 && r.instructions > 0);
    }
}
