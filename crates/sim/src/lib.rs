//! # vbi-sim — end-to-end system simulator for the VBI reproduction
//!
//! Replays `vbi-workloads` traces against the ten system configurations of
//! the paper's evaluation (§7) and reports paper-shaped speedup tables:
//!
//! * [`systems`] — `Native`, `Native-2M`, `Virtual`, `Virtual-2M`,
//!   `Perfect TLB`, `VIVT`, `Enigma-HW-2M`, `VBI-1`, `VBI-2`, `VBI-Full`;
//! * [`engine`] — the single-core trace engine (4-wide core, MLP-overlapped
//!   stalls, warm-up + measurement);
//! * [`multicore`] — quad-core bundles and weighted speedup (Figure 8);
//! * [`hetero_run`] — PCM-DRAM and TL-DRAM placement experiments
//!   (Figures 9-10);
//! * [`service_run`] — the deterministic trace replay the equivalence
//!   suite pushes through `System` and `vbi-service`, and the cross-shard
//!   migration driver (host throughput of the front ends is `perf`'s job,
//!   `BENCHMARK.json`);
//! * [`report`] — speedup tables with `AVG` / `AVG-no-mcf` rows.
//!
//! ```no_run
//! use vbi_sim::engine::{run, EngineConfig};
//! use vbi_sim::systems::SystemKind;
//! use vbi_workloads::spec::benchmark;
//!
//! let spec = benchmark("mcf").expect("known");
//! let cfg = EngineConfig::quick();
//! let native = run(SystemKind::Native, &spec, &cfg);
//! let vbi = run(SystemKind::VbiFull, &spec, &cfg);
//! println!("VBI-Full speedup on mcf: {:.2}x", vbi.speedup_over(&native));
//! ```

pub mod engine;
pub mod hetero_run;
pub mod multicore;
pub mod report;
pub mod service_run;
pub mod systems;

pub use engine::{run, EngineConfig, RunResult};
pub use hetero_run::{run_hetero, HeteroRunResult};
pub use multicore::{run_alone_native, run_bundle, BundleResult};
pub use report::{geomean, mean, SpeedupTable};
pub use systems::{build_system, Machine, SystemKind};
