//! The trace-driven execution engine.
//!
//! Replays a workload's access stream against one system configuration and
//! produces cycle counts. The core model follows the paper's setup (Table
//! 1): a 4-wide out-of-order core whose 128-entry ROB overlaps independent
//! misses. Committed instructions cost `1/4` cycle each; memory stalls are
//! divided by the workload's memory-level-parallelism factor except for
//! serially dependent (pointer-chasing) accesses, which expose their full
//! latency.

use vbi_workloads::trace::WorkloadSpec;

use crate::systems::{build_system, SystemCounters, SystemKind};

/// Issue width of the modelled core (Table 1: 4-wide OOO).
pub const ISSUE_WIDTH: u64 = 4;

/// Engine parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Memory accesses replayed after warm-up.
    pub accesses: usize,
    /// Warm-up accesses (caches/TLBs filled, counters then reset).
    pub warmup: usize,
    /// Trace seed (same seed = same trace across systems).
    pub seed: u64,
    /// Physical memory size in 4 KiB frames.
    pub phys_frames: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { accesses: 100_000, warmup: 10_000, seed: 42, phys_frames: 1 << 20 }
    }
}

impl EngineConfig {
    /// A faster configuration for smoke tests.
    pub fn quick() -> Self {
        Self { accesses: 20_000, warmup: 2_000, ..Self::default() }
    }
}

/// Result of one single-core run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Benchmark name.
    pub workload: &'static str,
    /// System configuration.
    pub system: SystemKind,
    /// Instructions committed (memory + non-memory).
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// System counters after warm-up.
    pub counters: SystemCounters,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.instructions as f64 / self.cycles.max(1) as f64
    }

    /// Speedup of this run over a baseline run of the same workload.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        assert_eq!(self.workload, baseline.workload, "speedups compare like with like");
        self.ipc() / baseline.ipc()
    }
}

/// Runs `spec` on `system_kind` and returns the result.
pub fn run(system_kind: SystemKind, spec: &WorkloadSpec, config: &EngineConfig) -> RunResult {
    let mut system = build_system(system_kind, config.phys_frames);
    let sizes: Vec<u64> = spec.regions.iter().map(|r| r.bytes).collect();
    system.attach_regions(&sizes);

    // Initialization phase: programs write their data before reading it.
    // One store per initialized page allocates physical memory everywhere
    // and leaves only genuinely fresh allocations eligible for VBI's
    // zero-line path.
    for (i, region) in spec.regions.iter().enumerate() {
        let pages = region.bytes >> 12;
        let init_pages = (pages as f64 * region.init_fraction).round() as u64;
        for k in 0..init_pages {
            // Spread initialized pages evenly over the region so the
            // initialized subset is unbiased with respect to any access
            // pattern (prefix-writing would systematically overlap patterns
            // that also start at offset zero).
            let page = if region.init_fraction >= 1.0 {
                k
            } else {
                ((k as f64 / region.init_fraction) as u64).min(pages - 1)
            };
            let _ = system.access(i, page << 12, true);
        }
    }

    let mut trace = spec.trace(config.seed);
    // Warm-up: fill caches, TLBs, and allocations; then reset counters.
    for access in trace.by_ref().take(config.warmup) {
        let _ = system.access(access.region, access.offset, access.is_write);
    }
    system.reset_counters();

    let mut instructions: u64 = 0;
    let mut cycles_x4: u64 = 0; // fixed-point: quarter cycles
    for access in trace.take(config.accesses) {
        // Non-memory instructions retire at the issue width.
        instructions += access.gap as u64 + 1;
        cycles_x4 += access.gap as u64;

        let stall = system.access(access.region, access.offset, access.is_write) as f64;
        // Independent misses overlap in the ROB; dependent ones serialize.
        let exposed = if access.dependent { stall } else { stall / spec.mlp };
        cycles_x4 += (exposed * 4.0) as u64;
    }

    RunResult {
        workload: spec.name,
        system: system_kind,
        instructions,
        cycles: (cycles_x4 / 4).max(1),
        counters: system.counters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbi_workloads::spec::benchmark;

    fn quick() -> EngineConfig {
        EngineConfig { accesses: 5_000, warmup: 500, seed: 7, phys_frames: 1 << 19 }
    }

    #[test]
    fn runs_are_deterministic() {
        let spec = benchmark("bzip2").unwrap();
        let a = run(SystemKind::Native, &spec, &quick());
        let b = run(SystemKind::Native, &spec, &quick());
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
    }

    #[test]
    fn perfect_tlb_is_at_least_as_fast_as_native() {
        let spec = benchmark("mcf").unwrap();
        let native = run(SystemKind::Native, &spec, &quick());
        let perfect = run(SystemKind::PerfectTlb, &spec, &quick());
        assert!(
            perfect.ipc() >= native.ipc(),
            "perfect {} vs native {}",
            perfect.ipc(),
            native.ipc()
        );
    }

    #[test]
    fn virtualization_slows_native_down() {
        let spec = benchmark("mcf").unwrap();
        let native = run(SystemKind::Native, &spec, &quick());
        let virt = run(SystemKind::Virtual, &spec, &quick());
        assert!(virt.ipc() < native.ipc());
    }

    #[test]
    fn vbi_outperforms_native_on_tlb_hostile_workloads() {
        let spec = benchmark("mcf").unwrap();
        let native = run(SystemKind::Native, &spec, &quick());
        let vbi = run(SystemKind::Vbi2, &spec, &quick());
        assert!(vbi.speedup_over(&native) > 1.2, "VBI-2 speedup {}", vbi.speedup_over(&native));
    }

    #[test]
    fn ipc_is_bounded_by_issue_width() {
        let spec = benchmark("namd").unwrap();
        let r = run(SystemKind::PerfectTlb, &spec, &quick());
        assert!(r.ipc() <= ISSUE_WIDTH as f64 + 1e-9);
        assert!(r.ipc() > 0.1);
    }
}
