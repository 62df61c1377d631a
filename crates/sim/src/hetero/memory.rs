//! Heterogeneous main memory with pluggable placement policies (§7.3).
//!
//! [`HeteroMemory`] places the pages of a two-speed memory (PCM-DRAM hybrid
//! or TL-DRAM) under a policy deciding which pages live in the fast region;
//! the memory's devices (`mem::Memory`) then serve the lines it returns:
//!
//! * [`Policy::Unaware`] — the baseline: pages are scattered across fast and
//!   slow memory in proportion to capacity, uncorrelated with hotness (the
//!   paper's mapping that "does not necessarily map the frequently-accessed
//!   data to the fast region").
//! * [`Policy::VbiHotness`] — the paper's mechanism: the MTL counts accesses
//!   per VB and, at every epoch boundary, migrates the densest VBs into the
//!   fast region.
//! * [`Policy::Ideal`] — the oracle: page-granularity placement from a
//!   profiling pass; the hottest pages occupy fast memory from the start
//!   and never migrate.

use std::collections::{HashMap, HashSet};

use crate::mem::cache::LINE_BYTES;
use crate::mem::timing::DeviceTiming;
use crate::mem::Memory;

use super::hotness::HotnessTracker;

/// Page granularity used for placement (4 KiB, the MTL's base allocation
/// unit).
pub const PAGE_BYTES: u64 = 4096;

/// The two heterogeneous architectures evaluated in §7.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeteroKind {
    /// PCM main memory with a small DRAM fast region (Ramos et al. \[107\]).
    PcmDram,
    /// TL-DRAM: near (fast) and far (slow) segments (Lee et al. \[74\]).
    TlDram,
}

impl HeteroKind {
    /// The memory of this kind: the fast device over the first `fast_bytes`
    /// of the address space and the slow device above them.
    pub(crate) fn memory(self, fast_bytes: u64) -> Memory {
        let (fast, slow) = match self {
            HeteroKind::PcmDram => (DeviceTiming::ddr3_1600(), DeviceTiming::pcm_800()),
            HeteroKind::TlDram => (DeviceTiming::tldram_near(), DeviceTiming::tldram_far()),
        };
        Memory::new(&[(0, fast), (fast_bytes, slow)])
    }
}

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Hotness-unaware first-touch placement (the normalization baseline of
    /// Figures 9 and 10).
    Unaware,
    /// VBI: VB-granularity hotness tracking with epoch migration.
    VbiHotness,
    /// Oracle page placement (the IDEAL bars).
    Ideal,
}

/// Statistics for a heterogeneous memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeteroStats {
    /// Accesses served from the fast region.
    pub fast_accesses: u64,
    /// Accesses served from the slow region.
    pub slow_accesses: u64,
    /// Pages migrated between regions.
    pub pages_migrated: u64,
    /// Cycles spent on migration traffic.
    pub(crate) migration_cycles: u64,
}

impl HeteroStats {
    /// Fraction of accesses served fast.
    pub fn fast_fraction(&self) -> f64 {
        let total = self.fast_accesses + self.slow_accesses;
        if total == 0 {
            0.0
        } else {
            self.fast_accesses as f64 / total as f64
        }
    }
}

/// Page placement and migration for a heterogeneous main memory: it maps
/// each region's pages to device addresses, the first `fast_bytes` of which
/// are fast.
///
/// # Examples
///
/// ```
/// use vbi_sim::hetero::memory::{HeteroKind, HeteroMemory, Policy};
///
/// let mut mem = HeteroMemory::new(HeteroKind::PcmDram, 1 << 20, Policy::VbiHotness, 10_000);
/// mem.register_region(0, 64 << 10);
/// let line = mem.place(0, 64);
/// assert_eq!(line % 4096, 64, "a line keeps its offset in the page");
/// assert_eq!(mem.stats().fast_accesses + mem.stats().slow_accesses, 1);
/// ```
#[derive(Debug)]
pub struct HeteroMemory {
    fast_bytes: u64,
    policy: Policy,
    /// Total registered region bytes (sets the unaware policy's fast share).
    total_bytes: u64,
    /// Pages currently resident in the fast region.
    fast_pages: HashSet<(usize, u64)>,
    /// Assigned device address per page (stable between migrations).
    addresses: HashMap<(usize, u64), u64>,
    fast_cursor: u64,
    slow_cursor: u64,
    tracker: HotnessTracker,
    epoch_len: u64,
    /// Regions currently selected as hot (for VbiHotness).
    hot_regions: HashSet<usize>,
    /// Oracle placement, if the policy is `Ideal`.
    oracle_fast: HashSet<(usize, u64)>,
    stats: HeteroStats,
    /// Cycles charged per migrated page (reading the slow copy and writing
    /// the fast one, line by line).
    migration_cycles_per_page: u64,
}

impl HeteroMemory {
    /// Creates a heterogeneous memory with `fast_bytes` of fast capacity and
    /// an epoch of `epoch_len` main-memory accesses.
    pub fn new(kind: HeteroKind, fast_bytes: u64, policy: Policy, epoch_len: u64) -> Self {
        let migration_cycles_per_page = match kind {
            HeteroKind::PcmDram => 128,
            HeteroKind::TlDram => 24,
        };
        Self {
            fast_bytes,
            policy,
            total_bytes: 0,
            fast_pages: HashSet::new(),
            addresses: HashMap::new(),
            fast_cursor: 0,
            slow_cursor: fast_bytes,
            tracker: HotnessTracker::new(),
            epoch_len,
            hot_regions: HashSet::new(),
            oracle_fast: HashSet::new(),
            stats: HeteroStats::default(),
            // Page migration uses in-DRAM bulk copy (RowClone [117] /
            // LISA [22], which §4.4 cites for exactly this purpose). In
            // TL-DRAM, near and far segments share bitlines, so the copy is
            // a couple of row cycles; across PCM-DRAM it is an inter-device
            // transfer and costs more.
            migration_cycles_per_page,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> HeteroStats {
        self.stats
    }

    /// Registers a region (VB) and its size before use.
    pub fn register_region(&mut self, region: usize, bytes: u64) {
        self.total_bytes += bytes;
        self.tracker.register_region(region, bytes);
    }

    /// Hotness-unaware placement: a deterministic hash scatters pages across
    /// fast and slow memory in proportion to fast capacity, uncorrelated
    /// with access frequency.
    fn unaware_is_fast(&self, region: usize, page: u64) -> bool {
        let mut h = (region as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(page.wrapping_mul(0xd1b5_4a32_d192_ed03));
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        let total = self.total_bytes.max(1);
        (h % total) < self.fast_bytes.min(total)
    }

    /// Installs the oracle's page set (hottest pages first-fit into fast
    /// capacity), for [`Policy::Ideal`]. Typically produced by a profiling
    /// run's [`HotnessTracker::rank_pages`].
    pub(crate) fn set_oracle(&mut self, ranked_pages: &[((usize, u64), u64)]) {
        let capacity_pages = self.fast_bytes / PAGE_BYTES;
        self.oracle_fast =
            ranked_pages.iter().take(capacity_pages as usize).map(|(k, _)| *k).collect();
    }

    fn is_fast(&self, region: usize, page: u64) -> bool {
        match self.policy {
            Policy::Unaware => self.fast_pages.contains(&(region, page)),
            Policy::VbiHotness => self.hot_regions.contains(&region),
            Policy::Ideal => self.oracle_fast.contains(&(region, page)),
        }
    }

    /// First-touch placement decision.
    fn place_new(&mut self, region: usize, page: u64) -> bool {
        match self.policy {
            Policy::Unaware => {
                let fast = self.unaware_is_fast(region, page);
                if fast {
                    self.fast_pages.insert((region, page));
                }
                fast
            }
            Policy::VbiHotness => self.hot_regions.contains(&region),
            Policy::Ideal => self.oracle_fast.contains(&(region, page)),
        }
    }

    fn assign_address(&mut self, fast: bool) -> u64 {
        if fast {
            let addr = self.fast_cursor % self.fast_bytes;
            self.fast_cursor += PAGE_BYTES;
            addr
        } else {
            let addr = self.slow_cursor;
            self.slow_cursor += PAGE_BYTES;
            addr
        }
    }

    /// Places one main-memory access (an LLC miss or writeback) `offset`
    /// bytes into `region`, returning the device address of its line.
    pub fn place(&mut self, region: usize, offset: u64) -> u64 {
        let page = offset / PAGE_BYTES;
        self.tracker.record(region, page);

        // First-touch placement.
        let key = (region, page);
        if !self.addresses.contains_key(&key) {
            let fast = self.place_new(region, page);
            let addr = self.assign_address(fast);
            self.addresses.insert(key, addr);
        }

        // Migration check: a page whose desired region changed since its
        // address was assigned is moved (VbiHotness only; Unaware never
        // reconsiders and Ideal is fixed but consulted on first touch).
        let want_fast = self.is_fast(region, page);
        let addr = self.addresses[&key];
        let have_fast = addr < self.fast_bytes;
        let addr = if want_fast != have_fast && self.policy == Policy::VbiHotness {
            let new_addr = self.assign_address(want_fast);
            self.addresses.insert(key, new_addr);
            self.stats.pages_migrated += 1;
            self.stats.migration_cycles += self.migration_cycles_per_page;
            new_addr
        } else {
            addr
        };

        if addr < self.fast_bytes {
            self.stats.fast_accesses += 1;
        } else {
            self.stats.slow_accesses += 1;
        }

        // Epoch boundary: re-rank VBs by access density and choose the hot
        // set that fits fast capacity.
        if self.policy == Policy::VbiHotness && self.tracker.epoch_accesses() >= self.epoch_len {
            self.rebalance();
        }
        addr + (offset % PAGE_BYTES) / LINE_BYTES * LINE_BYTES
    }

    /// Recomputes the hot-VB set from this epoch's density ranking.
    ///
    /// Incumbent VBs get a 30% density bonus (hysteresis): re-migrating a
    /// whole VB is expensive, so the set only changes when a challenger is
    /// clearly hotter. This prevents oscillation between near-equal VBs.
    fn rebalance(&mut self) {
        let mut ranked = self.tracker.rank_regions_by_density();
        for (region, density) in &mut ranked {
            if self.hot_regions.contains(region) {
                *density *= 1.3;
            }
        }
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("densities are finite"));
        let mut budget = self.fast_bytes;
        let mut new_hot = HashSet::new();
        for (region, _) in ranked {
            let bytes = self.tracker.region_bytes(region);
            if bytes > 0 && bytes <= budget {
                budget -= bytes;
                new_hot.insert(region);
            }
        }
        self.hot_regions = new_hot;
        self.tracker.new_epoch();
    }

    /// The current hot-VB set (for inspection in tests and reports).
    pub fn hot_regions(&self) -> &HashSet<usize> {
        &self.hot_regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_cold_trace(mem: &mut HeteroMemory, rounds: usize) {
        // Region 0: small and hot. Region 1: large and cold.
        mem.register_region(0, 16 * PAGE_BYTES);
        mem.register_region(1, 4096 * PAGE_BYTES);
        for round in 0..rounds {
            for page in 0..16u64 {
                mem.place(0, page * PAGE_BYTES);
            }
            // One cold touch per round, wandering.
            mem.place(1, ((round as u64 * 37) % 4096) * PAGE_BYTES);
        }
    }

    #[test]
    fn vbi_policy_learns_the_hot_region() {
        let mut mem =
            HeteroMemory::new(HeteroKind::PcmDram, 64 * PAGE_BYTES, Policy::VbiHotness, 100);
        hot_cold_trace(&mut mem, 200);
        assert!(mem.hot_regions().contains(&0), "small hot region selected");
        assert!(!mem.hot_regions().contains(&1), "large cold region rejected");
        assert!(mem.stats().fast_fraction() > 0.7, "{}", mem.stats().fast_fraction());
    }

    #[test]
    fn unaware_policy_scatters_in_proportion_to_capacity() {
        // Fast region = 1/4 of the footprint.
        let mut mem =
            HeteroMemory::new(HeteroKind::PcmDram, 64 * PAGE_BYTES, Policy::Unaware, 1 << 60);
        mem.register_region(0, 256 * PAGE_BYTES);
        for page in 0..256u64 {
            mem.place(0, page * PAGE_BYTES);
        }
        let s = mem.stats();
        let frac = s.fast_fraction();
        assert!((0.12..0.40).contains(&frac), "fast fraction {frac} should be near 1/4");
        assert_eq!(s.pages_migrated, 0, "unaware never migrates");
    }

    #[test]
    fn unaware_placement_is_uncorrelated_with_hotness() {
        // The hot pages (low page numbers) should be fast no more often
        // than the cold ones.
        let mut mem =
            HeteroMemory::new(HeteroKind::PcmDram, 128 * PAGE_BYTES, Policy::Unaware, 1 << 60);
        mem.register_region(0, 512 * PAGE_BYTES);
        let mut hot_fast = 0;
        let mut cold_fast = 0;
        for page in 0..512u64 {
            let before = mem.stats().fast_accesses;
            mem.place(0, page * PAGE_BYTES);
            let went_fast = mem.stats().fast_accesses > before;
            if page < 64 {
                hot_fast += went_fast as u32;
            } else {
                cold_fast += went_fast as u32;
            }
        }
        // Proportions should be similar (~25% each), not skewed to hot.
        let hot_rate = hot_fast as f64 / 64.0;
        let cold_rate = cold_fast as f64 / 448.0;
        assert!((hot_rate - cold_rate).abs() < 0.2, "hot {hot_rate} vs cold {cold_rate}");
    }

    #[test]
    fn ideal_oracle_places_hot_pages_fast_immediately() {
        let mut mem = HeteroMemory::new(HeteroKind::TlDram, 2 * PAGE_BYTES, Policy::Ideal, 100);
        mem.register_region(0, 64 * PAGE_BYTES);
        mem.set_oracle(&[((0, 7), 1000), ((0, 9), 500), ((0, 1), 10)]);
        mem.place(0, 7 * PAGE_BYTES);
        mem.place(0, 9 * PAGE_BYTES);
        mem.place(0, PAGE_BYTES); // beyond fast capacity
        assert_eq!(mem.stats().fast_accesses, 2);
        assert_eq!(mem.stats().slow_accesses, 1);
    }

    #[test]
    fn migration_is_counted_and_charged() {
        let mut mem =
            HeteroMemory::new(HeteroKind::PcmDram, 64 * PAGE_BYTES, Policy::VbiHotness, 50);
        hot_cold_trace(&mut mem, 100);
        let s = mem.stats();
        assert!(s.pages_migrated > 0);
        assert_eq!(s.migration_cycles, s.pages_migrated * 128);
    }
}
