//! Heterogeneous-memory management for the reproduction.
//!
//! Use case 2 of the paper (§7.3): extracting performance from
//! heterogeneous main memories by mapping frequently accessed data to the
//! fast region. Because the MTL owns physical placement and observes every
//! main-memory access, VBI can track hotness at VB granularity and migrate
//! VBs without OS involvement.
//!
//! * `hotness` — the MTL's per-VB and per-page access counters;
//! * [`memory`] — page placement for PCM-DRAM hybrid and TL-DRAM memories
//!   under three policies: hotness-unaware (baseline), VBI hotness-driven
//!   migration, and an IDEAL page-placement oracle. It returns device
//!   addresses; the devices themselves are `mem`'s one memory type.
//!
//! ```
//! use vbi_sim::hetero::memory::{HeteroKind, HeteroMemory, Policy};
//!
//! let mut mem = HeteroMemory::new(HeteroKind::TlDram, 1 << 20, Policy::VbiHotness, 1000);
//! mem.register_region(0, 64 << 10);
//! let line = mem.place(0, 0);
//! assert_eq!(line % 64, 0, "a device line address");
//! assert_eq!(mem.stats().fast_accesses + mem.stats().slow_accesses, 1);
//! ```

pub(crate) mod hotness;
pub mod memory;

pub use memory::HeteroKind;
