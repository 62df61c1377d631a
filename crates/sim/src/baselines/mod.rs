//! Conventional virtual-memory baselines.
//!
//! The comparison systems of the paper's evaluation (§7.2), built from
//! scratch:
//!
//! * `page_table` — x86-64-style 4-level radix tables with 4 KiB or 2 MiB
//!   pages (`Native`, `Native-2M`);
//! * `mmu` — the Table 1 TLB hierarchy (64/32-entry FA L1, 512-entry 4-way
//!   L2), a 32-entry page-walk cache, demand paging, and the unrealistic
//!   `Perfect TLB`;
//! * `nested` — two-dimensional page walks with a nested TLB (`Virtual`,
//!   `Virtual-2M`);
//! * `enigma` — Enigma's intermediate address space with a 16K-entry
//!   centralized translation cache and hardware walks (`Enigma-HW-2M`);
//! * `alloc` — first-touch frame allocation shared by all baselines.
//!
//! Each MMU reports, per translation, exactly what the timing simulator
//! needs: which TLB level hit and the physical addresses of every
//! page-table access, so walks can be played through the cache hierarchy
//! and DRAM like any other memory traffic.

pub(crate) mod alloc;
pub(crate) mod enigma;
pub(crate) mod mmu;
pub(crate) mod nested;
pub(crate) mod page_table;

pub use nested::NestedMmu;
pub use page_table::PageSize;
