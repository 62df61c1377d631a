//! Heterogeneous-memory management for the reproduction.
//!
//! Use case 2 of the paper (§7.3): extracting performance from
//! heterogeneous main memories by mapping frequently accessed data to the
//! fast region. Because the MTL owns physical placement and observes every
//! main-memory access, VBI can track hotness at VB granularity and migrate
//! VBs without OS involvement.
//!
//! * `hotness` — the MTL's per-VB and per-page access counters;
//! * [`memory`] — PCM-DRAM hybrid and TL-DRAM memories with three placement
//!   policies: hotness-unaware (baseline), VBI hotness-driven migration,
//!   and an IDEAL page-placement oracle;
//! * `backend` ([`SlowTierBackend`]) — a slow-tier `PressureBackend` that prices the MTL's
//!   eviction / fault-in traffic with the [`memory`] latency model (§3.4).
//!
//! ```
//! use vbi_sim::hetero::memory::{HeteroKind, HeteroMemory, Policy};
//!
//! let mut mem = HeteroMemory::new(HeteroKind::TlDram, 1 << 20, Policy::VbiHotness, 1000);
//! mem.register_region(0, 64 << 10);
//! let cycles = mem.access(0, 0);
//! assert!(cycles > 0);
//! ```

pub(crate) mod backend;
pub(crate) mod hotness;
pub mod memory;

pub use backend::SlowTierBackend;
pub use memory::HeteroKind;
