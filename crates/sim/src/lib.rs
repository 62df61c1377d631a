//! # vbi-sim — the paper's §7 evaluation, reproduced
//!
//! Replays seeded workload traces against the system configurations of the
//! paper's evaluation (§7) and reports paper-shaped speedup tables. The
//! crate holds the whole reproduction, from the memory substrate up:
//!
//! * [`mem`] — caches, DRAM/PCM/TL-DRAM timing and the one memory below
//!   them, devices at address ranges behind a controller (Table 1);
//! * [`baselines`] — conventional x86-64 MMUs, nested (2D) page walks and
//!   Enigma;
//! * [`workloads`] — seeded synthetic SPEC / TailBench / Graph 500
//!   stand-ins;
//! * [`hetero`] — PCM-DRAM and TL-DRAM placement policies;
//! * [`systems`] — `Native`, `Native-2M`, `Virtual`, `Virtual-2M`,
//!   `Perfect TLB`, `VIVT`, `Enigma-HW-2M`, `VBI-1`, `VBI-2`, `VBI-Full`,
//!   and `Hetero`, VBI's untranslated front end over a two-speed memory;
//! * [`engine`] — the one run loop of all five figures: a 4-wide core,
//!   MLP-overlapped stalls, init phase, warm-up and measurement;
//! * [`multicore`] — the four apps of a bundle and weighted speedup
//!   (Figure 8);
//! * [`hetero_run`] — the parameters of the PCM-DRAM and TL-DRAM placement
//!   experiments (Figures 9-10) and their IDEAL oracle;
//! * [`report`] — speedup tables with `AVG` / `AVG-no-mcf` rows.
//!
//! It depends on `vbi-core` and the seeded `rand` alone: the concurrent
//! service is not part of the reproduction.
//!
//! ```no_run
//! use vbi_sim::engine::{run, EngineConfig};
//! use vbi_sim::systems::SystemKind;
//! use vbi_sim::workloads::spec::benchmark;
//!
//! let spec = benchmark("mcf").expect("known");
//! let cfg = EngineConfig { accesses: 20_000, warmup: 2_000, ..EngineConfig::default() };
//! let native = run(SystemKind::Native, &spec, &cfg);
//! let vbi = run(SystemKind::VbiFull, &spec, &cfg);
//! println!("VBI-Full speedup on mcf: {:.2}x", vbi.speedup_over(&native));
//! ```

pub mod baselines;
pub mod engine;
pub mod hetero;
pub mod hetero_run;
pub mod mem;
pub mod multicore;
pub mod report;
pub mod systems;
pub mod workloads;
