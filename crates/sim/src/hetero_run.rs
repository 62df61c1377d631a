//! Heterogeneous-memory experiments (Figures 9 and 10).
//!
//! Use case 2 (§7.3): the same VBI front end (inherently virtual caches, no
//! front-end translation), but the memory behind the MTL is two-speed. What
//! is compared is purely the *placement policy*: hotness-unaware first
//! touch, VBI's VB-granularity hotness migration, and the IDEAL page-level
//! oracle. The oracle is built from a profiling pass over the same trace,
//! mirroring the paper's "oracle knowledge" formulation.

use crate::hetero::hotness::HotnessTracker;
use crate::hetero::memory::{HeteroKind, HeteroMemory, Policy, PAGE_BYTES};
use crate::mem::hierarchy::{CacheHierarchy, HitLevel};
use crate::workloads::trace::WorkloadSpec;

use crate::engine::EngineConfig;

/// Result of one heterogeneous-memory run.
#[derive(Debug, Clone)]
pub struct HeteroRunResult {
    /// Benchmark name.
    pub(crate) workload: &'static str,
    /// Architecture.
    pub(crate) kind: HeteroKind,
    /// Instructions committed.
    pub(crate) instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Fraction of main-memory accesses served by the fast region.
    pub fast_fraction: f64,
}

impl HeteroRunResult {
    /// Instructions per cycle.
    pub(crate) fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }

    /// Speedup over a baseline run of the same workload and architecture.
    pub fn speedup_over(&self, baseline: &HeteroRunResult) -> f64 {
        assert_eq!(self.workload, baseline.workload);
        assert_eq!(self.kind, baseline.kind);
        self.ipc() / baseline.ipc()
    }
}

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

/// Runs one workload on a heterogeneous memory under `policy`.
pub fn run_hetero(
    kind: HeteroKind,
    policy: Policy,
    spec: &WorkloadSpec,
    config: &EngineConfig,
) -> HeteroRunResult {
    let fast_bytes = fast_bytes_for(kind);
    let mut memory = HeteroMemory::new(kind, fast_bytes, policy, EPOCH_ACCESSES);
    for (i, region) in spec.regions.iter().enumerate() {
        memory.register_region(i, region.bytes);
    }

    // The IDEAL oracle sees the future: profile the LLC-miss stream first.
    if policy == Policy::Ideal {
        let mut profiler = HotnessTracker::new();
        let mut caches = CacheHierarchy::per_core_default();
        let bases = region_bases(spec);
        for access in spec.trace(config.seed).take(config.warmup + config.accesses) {
            let line = bases[access.region] + access.offset;
            if caches.access(line, access.is_write).level == HitLevel::Memory {
                profiler.record(access.region, access.offset / PAGE_BYTES);
            }
        }
        memory.set_oracle(&profiler.rank_pages());
    }

    let mut caches = CacheHierarchy::per_core_default();
    let bases = region_bases(spec);
    let mut trace = spec.trace(config.seed);

    for access in trace.by_ref().take(config.warmup) {
        let line = bases[access.region] + access.offset;
        let r = caches.access(line, access.is_write);
        if r.level == HitLevel::Memory {
            memory.access(access.region, access.offset, access.is_write);
        }
    }

    let mut instructions = 0u64;
    let mut cycles_x4 = 0u64;
    let migration_before = memory.stats().migration_cycles;
    for access in trace.take(config.accesses) {
        instructions += access.gap as u64 + 1;
        cycles_x4 += access.gap as u64;
        let line = bases[access.region] + access.offset;
        let r = caches.access(line, access.is_write);
        let mut stall = r.latency;
        if r.level == HitLevel::Memory {
            stall += memory.access(access.region, access.offset, access.is_write);
        }
        for wb in r.llc_writebacks {
            // Writebacks occupy the device off the critical path.
            let region = bases.iter().rposition(|&b| b <= wb).unwrap_or(0);
            memory.access(region, wb - bases[region], true);
        }
        let exposed = if access.dependent { stall as f64 } else { stall as f64 / spec.mlp };
        cycles_x4 += (exposed * 4.0) as u64;
    }
    // Migration traffic steals device time from the application.
    let migration_cycles = memory.stats().migration_cycles - migration_before;
    cycles_x4 += migration_cycles * 4;

    let stats = memory.stats();
    HeteroRunResult {
        workload: spec.name,
        kind,
        instructions,
        cycles: (cycles_x4 / 4).max(1),
        fast_fraction: stats.fast_fraction(),
    }
}

/// Lays regions out back to back in a line-address space for the cache
/// model (identity per region; the hetero memory does its own placement).
fn region_bases(spec: &WorkloadSpec) -> Vec<u64> {
    let mut bases = Vec::with_capacity(spec.regions.len());
    let mut cursor = 0u64;
    for r in &spec.regions {
        bases.push(cursor);
        cursor += r.bytes.next_multiple_of(PAGE_BYTES) + PAGE_BYTES;
    }
    bases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec::benchmark;

    fn quick() -> EngineConfig {
        EngineConfig { accesses: 40_000, warmup: 4_000, seed: 11, phys_frames: 1 << 20 }
    }

    #[test]
    fn vbi_placement_beats_unaware_on_skewed_workloads() {
        let spec = benchmark("sphinx3").unwrap(); // strongly hot/cold
        let unaware = run_hetero(HeteroKind::PcmDram, Policy::Unaware, &spec, &quick());
        let vbi = run_hetero(HeteroKind::PcmDram, Policy::VbiHotness, &spec, &quick());
        assert!(vbi.speedup_over(&unaware) > 1.0, "vbi {} vs unaware {}", vbi.ipc(), unaware.ipc());
    }

    #[test]
    fn ideal_is_an_upper_bound_for_unaware() {
        let spec = benchmark("milc").unwrap();
        let unaware = run_hetero(HeteroKind::TlDram, Policy::Unaware, &spec, &quick());
        let ideal = run_hetero(HeteroKind::TlDram, Policy::Ideal, &spec, &quick());
        assert!(ideal.speedup_over(&unaware) >= 0.95, "{}", ideal.speedup_over(&unaware));
    }

    #[test]
    fn runs_report_fast_fractions() {
        let spec = benchmark("hmmer").unwrap();
        let r = run_hetero(HeteroKind::PcmDram, Policy::VbiHotness, &spec, &quick());
        assert!(r.fast_fraction >= 0.0 && r.fast_fraction <= 1.0);
        assert!(r.cycles > 0 && r.instructions > 0);
    }
}
