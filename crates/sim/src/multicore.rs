//! Quad-core multiprogrammed simulation (Figure 8, Table 2).
//!
//! Four applications run on four private `Machine`s: each has its own
//! caches, translation state and memory controller, a quarter of physical
//! memory and the full per-app access count, and nothing is shared between
//! them. Following the paper, the reported metric is the *weighted speedup*
//! normalized to `Native`:
//!
//! ```text
//! WS(system) = (1/4) * Σ_i IPC_i(system, shared) / IPC_i(Native, alone)
//! ```

use crate::workloads::trace::WorkloadSpec;

use crate::engine::{run, EngineConfig, RunResult};
use crate::systems::SystemKind;

/// Result of one quad-core bundle run.
#[derive(Debug, Clone)]
pub struct BundleResult {
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

/// Runs a four-app bundle on `system_kind`, each app on its own machine
/// with a quarter of physical memory.
pub fn run_bundle(
    bundle: &'static str,
    system_kind: SystemKind,
    apps: &[WorkloadSpec],
    config: &EngineConfig,
) -> BundleResult {
    assert_eq!(apps.len(), 4, "{bundle}: a Figure 8 bundle is four apps");
    let quarter = EngineConfig { phys_frames: config.phys_frames / 4, ..config.clone() };
    BundleResult { apps: run_each(system_kind, apps, &quarter) }
}

/// Runs each app of a bundle alone on `Native` with the full machine — the
/// normalization denominators of Figure 8.
pub fn run_alone_native(apps: &[WorkloadSpec], config: &EngineConfig) -> Vec<RunResult> {
    run_each(SystemKind::Native, apps, config)
}

/// Runs app `i` of `apps` on its own machine, with trace seed `seed + i`.
fn run_each(
    system_kind: SystemKind,
    apps: &[WorkloadSpec],
    config: &EngineConfig,
) -> Vec<RunResult> {
    let seeded = |i: usize| EngineConfig { seed: config.seed + i as u64, ..config.clone() };
    apps.iter().enumerate().map(|(i, spec)| run(system_kind, spec, &seeded(i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::bundles::bundle;

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
