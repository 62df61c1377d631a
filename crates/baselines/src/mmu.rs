//! The conventional MMU: TLB hierarchy, page-walk cache, and demand paging.
//!
//! Reproduces the translation front end of the paper's `Native` and
//! `Native-2M` baselines with the Table 1 structures: a fully associative
//! 64-entry L1 D-TLB for 4 KiB pages (32-entry for 2 MiB), a 512-entry
//! 4-way L2 TLB, and a 32-entry fully associative page-walk cache that
//! short-circuits the upper levels of the radix walk.

use vbi_core::tlb::Tlb;

use crate::alloc::FrameAlloc;
use crate::page_table::{PageSize, PageTable, WalkStep};

/// Latency charged when the L2 TLB (not the L1) supplies a translation.
pub const L2_TLB_LATENCY: u64 = 7;

/// Timing-relevant events of one baseline translation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MmuEvents {
    /// The L1 TLB supplied the translation (no cost; lookup overlaps L1
    /// cache access).
    pub l1_tlb_hit: bool,
    /// The L2 TLB supplied it (costs [`L2_TLB_LATENCY`]).
    pub l2_tlb_hit: bool,
    /// Physical addresses of page-table entries the walker had to read
    /// (empty on TLB hits; shortened by page-walk-cache hits).
    pub walk_accesses: Vec<u64>,
    /// A page was allocated on demand (first touch).
    pub allocated: bool,
}

/// Result of one baseline translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmuTranslation {
    /// The physical address.
    pub paddr: u64,
    /// What it cost.
    pub events: MmuEvents,
}

/// The two-level TLB hierarchy of Table 1.
#[derive(Debug, Clone)]
pub struct TlbHierarchy {
    l1: Tlb<u64, u64>,
    l2: Tlb<u64, u64>,
}

impl TlbHierarchy {
    /// Builds the hierarchy for a page size (L1 capacity differs, Table 1).
    pub fn new(page_size: PageSize) -> Self {
        let l1_entries = match page_size {
            PageSize::Kb4 => 64,
            PageSize::Mb2 => 32,
        };
        Self { l1: Tlb::fully_associative(l1_entries), l2: Tlb::new(512, 4) }
    }

    /// Looks up a virtual page number. Returns the frame and which level
    /// hit.
    pub fn lookup(&mut self, vpn: u64) -> Option<(u64, bool)> {
        if let Some(frame) = self.l1.lookup(&vpn) {
            return Some((frame, true));
        }
        if let Some(frame) = self.l2.lookup(&vpn) {
            // Fill upward.
            self.l1.insert(vpn, frame);
            return Some((frame, false));
        }
        None
    }

    /// Installs a translation in both levels.
    pub fn insert(&mut self, vpn: u64, frame: u64) {
        self.l1.insert(vpn, frame);
        self.l2.insert(vpn, frame);
    }
}

/// The 32-entry fully associative page-walk cache (Table 1), caching
/// interior page-table entries keyed by `(level, va-prefix)`.
#[derive(Debug, Clone)]
pub struct PageWalkCache {
    cache: Tlb<(u32, u64), ()>,
}

impl PageWalkCache {
    /// Creates the Table 1 configuration.
    pub fn new() -> Self {
        Self { cache: Tlb::fully_associative(32) }
    }

    /// Given the full walk path (root first), returns the steps that must
    /// actually access memory — everything below the deepest cached interior
    /// entry — and caches the interior entries of the path.
    pub fn filter<'a>(&mut self, steps: &'a [WalkStep]) -> &'a [WalkStep] {
        let interior = steps.len().saturating_sub(1);
        // Find the deepest interior step already cached.
        let mut start = 0;
        for (i, step) in steps[..interior].iter().enumerate().rev() {
            if self.cache.lookup(&(step.level, step.prefix)).is_some() {
                start = i + 1;
                break;
            }
        }
        for step in &steps[..interior] {
            self.cache.insert((step.level, step.prefix), ());
        }
        &steps[start..]
    }
}

impl Default for PageWalkCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The complete conventional MMU with demand paging: the paper's `Native`
/// (4 KiB) and `Native-2M` baselines.
///
/// # Examples
///
/// ```
/// use vbi_baselines::mmu::NativeMmu;
/// use vbi_baselines::page_table::PageSize;
///
/// let mut mmu = NativeMmu::new(PageSize::Kb4, 1 << 20);
/// let first = mmu.translate(0x1000);
/// assert!(first.events.allocated);
/// assert_eq!(first.events.walk_accesses.len(), 4);
/// let second = mmu.translate(0x1008);
/// assert!(second.events.l1_tlb_hit);
/// assert_eq!(second.paddr, first.paddr + 8);
/// ```
#[derive(Debug, Clone)]
pub struct NativeMmu {
    page_table: PageTable,
    tlbs: TlbHierarchy,
    pwc: PageWalkCache,
    frames: FrameAlloc,
    page_size: PageSize,
}

impl NativeMmu {
    /// Creates an MMU with an empty address space over `phys_frames` frames.
    pub fn new(page_size: PageSize, phys_frames: u64) -> Self {
        let mut frames = FrameAlloc::new(phys_frames);
        let page_table = PageTable::new(page_size, &mut frames);
        Self {
            page_table,
            tlbs: TlbHierarchy::new(page_size),
            pwc: PageWalkCache::new(),
            frames,
            page_size,
        }
    }

    /// Translates a virtual address, allocating the page on first touch
    /// (demand paging).
    pub fn translate(&mut self, vaddr: u64) -> MmuTranslation {
        let vpn = vaddr >> self.page_size.bits();
        let offset = vaddr & (self.page_size.bytes() - 1);

        if let Some((frame, l1)) = self.tlbs.lookup(vpn) {
            return MmuTranslation {
                paddr: (frame << 12) + offset,
                events: MmuEvents { l1_tlb_hit: l1, l2_tlb_hit: !l1, ..Default::default() },
            };
        }

        // TLB miss: walk, demand-allocating if needed.
        let mut walk = self.page_table.walk(vaddr);
        let mut allocated = false;
        if walk.frame.is_none() {
            let frame = match self.page_size {
                PageSize::Kb4 => self.frames.frame(),
                PageSize::Mb2 => self.frames.contiguous(512),
            };
            self.page_table.map(vaddr, frame, &mut self.frames);
            allocated = true;
            walk = self.page_table.walk(vaddr);
        }
        let frame = walk.frame.expect("just mapped");
        let charged = self.pwc.filter(&walk.steps);
        let walk_accesses: Vec<u64> = charged.iter().map(|s| s.entry_addr).collect();
        self.tlbs.insert(vpn, frame);
        MmuTranslation {
            paddr: (frame << 12) + offset,
            events: MmuEvents { walk_accesses, allocated, ..Default::default() },
        }
    }
}

/// The unrealistic `Perfect TLB` comparison point: translation is free and
/// always hits; pages are still demand-allocated so physical layout matches
/// the other baselines.
#[derive(Debug, Clone)]
pub struct PerfectMmu {
    inner: NativeMmu,
}

impl PerfectMmu {
    /// Creates a perfect-TLB MMU over `phys_frames` frames.
    pub fn new(phys_frames: u64) -> Self {
        Self { inner: NativeMmu::new(PageSize::Kb4, phys_frames) }
    }

    /// Translates with zero translation cost.
    pub fn translate(&mut self, vaddr: u64) -> u64 {
        // Use the page table directly; no TLB or walk costs are reported.
        if let Some(paddr) = self.inner.page_table.translate(vaddr) {
            return paddr;
        }
        let frame = self.inner.frames.frame();
        self.inner.page_table.map(vaddr, frame, &mut self.inner.frames);
        (frame << 12) + (vaddr & 0xfff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_walks_four_levels() {
        let mut mmu = NativeMmu::new(PageSize::Kb4, 1 << 20);
        let t = mmu.translate(0x7000_0000);
        assert_eq!(t.events.walk_accesses.len(), 4);
        assert!(t.events.allocated);
        assert!(!t.events.l1_tlb_hit);
    }

    #[test]
    fn two_mb_walks_are_shorter() {
        let mut mmu = NativeMmu::new(PageSize::Mb2, 1 << 20);
        let t = mmu.translate(0x7000_0000);
        assert_eq!(t.events.walk_accesses.len(), 3);
    }

    #[test]
    fn tlb_hit_after_walk() {
        let mut mmu = NativeMmu::new(PageSize::Kb4, 1 << 20);
        mmu.translate(0x1000);
        let t = mmu.translate(0x1800);
        assert!(t.events.l1_tlb_hit);
        assert!(t.events.walk_accesses.is_empty());
    }

    #[test]
    fn l2_tlb_catches_l1_evictions() {
        let mut mmu = NativeMmu::new(PageSize::Kb4, 1 << 20);
        // Touch 65 pages: page 0 falls out of the 64-entry L1 but stays in
        // the 512-entry L2.
        for page in 0..65u64 {
            mmu.translate(page << 12);
        }
        let t = mmu.translate(0);
        assert!(t.events.l2_tlb_hit, "L2 should catch it");
    }

    #[test]
    fn pwc_shortens_neighbouring_walks() {
        let mut mmu = NativeMmu::new(PageSize::Kb4, 1 << 20);
        mmu.translate(0x0000); // full walk, fills the PWC
                               // Evict page 1's translation from the TLBs? It was never inserted;
                               // page 1 is a fresh page in the same leaf table.
        let t = mmu.translate(0x1000);
        assert_eq!(t.events.walk_accesses.len(), 1, "PWC skips the three interior levels");
    }

    #[test]
    fn two_mb_reach_is_512x() {
        let mut mmu4 = NativeMmu::new(PageSize::Kb4, 1 << 20);
        let mut mmu2 = NativeMmu::new(PageSize::Mb2, 1 << 20);
        // Stride through 16 MiB; count allocations and walks.
        let sweep = |mmu: &mut NativeMmu| {
            let events: Vec<MmuEvents> =
                (0..(16 << 20)).step_by(4096).map(|addr| mmu.translate(addr).events).collect();
            let allocated = events.iter().filter(|e| e.allocated).count();
            let walks = events.iter().filter(|e| !e.l1_tlb_hit && !e.l2_tlb_hit).count();
            (allocated, walks)
        };
        let (allocated4, walks4) = sweep(&mut mmu4);
        let (allocated2, walks2) = sweep(&mut mmu2);
        assert_eq!((allocated2, allocated4), (8, 4096));
        assert!(walks2 < walks4 / 100);
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let mut mmu = NativeMmu::new(PageSize::Kb4, 1 << 20);
        let a = mmu.translate(0x1000).paddr;
        let b = mmu.translate(0x2000).paddr;
        assert_ne!(a >> 12, b >> 12);
    }

    #[test]
    fn perfect_mmu_translates_consistently() {
        let mut mmu = PerfectMmu::new(1 << 20);
        let a = mmu.translate(0x1234);
        let b = mmu.translate(0x1234);
        assert_eq!(a, b);
        let c = mmu.translate(0x2234);
        assert_ne!(a >> 12, c >> 12);
    }
}
