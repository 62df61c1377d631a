//! Two-dimensional (nested) page walks for virtualized baselines.
//!
//! In a virtual machine, the guest page table maps gVA→gPA and the host
//! (extended/nested) page table maps gPA→hPA. Serving a TLB miss requires a
//! *two-dimensional* walk: every guest page-table access is itself a guest
//! physical address that must be translated by a full host walk, giving up
//! to `levels * (levels + 1) + levels = 24` memory accesses for 4-level
//! tables (§1) — the dominant overhead of the paper's `Virtual` baselines.
//!
//! A nested TLB caches gPA→hPA translations of recently used guest-table
//! pages (the "2D page walk cache" the paper adds to `Virtual-2M` \[14\]).

use vbi_core::tlb::Tlb;

use crate::alloc::FrameAlloc;
use crate::mmu::{MmuEvents, MmuTranslation, PageWalkCache, TlbHierarchy};
use crate::page_table::{PageSize, PageTable};

/// A virtualized MMU: guest and host page tables plus the combined TLB
/// hierarchy — the paper's `Virtual` and `Virtual-2M` baselines.
///
/// # Examples
///
/// ```
/// use vbi_baselines::nested::NestedMmu;
/// use vbi_baselines::page_table::PageSize;
///
/// let mut mmu = NestedMmu::new(PageSize::Kb4, 1 << 20);
/// let cold = mmu.translate(0x5000);
/// // A cold 2D walk costs many more accesses than the native walk's 4.
/// assert!(cold.events.walk_accesses.len() > 4);
/// assert!(mmu.translate(0x5000).events.l1_tlb_hit);
/// ```
#[derive(Debug, Clone)]
pub struct NestedMmu {
    guest_pt: PageTable,
    host_pt: PageTable,
    /// Guest "physical" frame allocator (the emulated physical memory).
    guest_frames: FrameAlloc,
    /// Host physical frame allocator.
    host_frames: FrameAlloc,
    /// Combined gVA→hPA TLBs (what the hardware caches).
    tlbs: TlbHierarchy,
    /// Host-side page-walk cache for host-table interior entries.
    host_pwc: PageWalkCache,
    /// Nested TLB: gPA page → host frame, used for guest-table accesses.
    nested_tlb: Tlb<u64, u64>,
    page_size: PageSize,
}

impl NestedMmu {
    /// Creates a virtualized MMU. Guest and host use the same page size
    /// (the paper's `Virtual` uses 4 KiB everywhere, `Virtual-2M` 2 MiB
    /// everywhere).
    pub fn new(page_size: PageSize, phys_frames: u64) -> Self {
        let mut host_frames = FrameAlloc::new(phys_frames);
        let host_pt = PageTable::new(page_size, &mut host_frames);
        // The guest's page tables live in guest-physical memory; the guest
        // sees an emulated physical space as large as host memory.
        let mut guest_frames = FrameAlloc::new(phys_frames);
        let guest_pt = PageTable::new(page_size, &mut guest_frames);
        Self {
            guest_pt,
            host_pt,
            guest_frames,
            host_frames,
            tlbs: TlbHierarchy::new(page_size),
            host_pwc: PageWalkCache::new(),
            nested_tlb: Tlb::fully_associative(32),
            page_size,
        }
    }

    /// Translates a gPA to an hPA, appending the host-walk accesses to
    /// `accesses`. Demand-allocates host memory. Uses the nested TLB when
    /// `for_table` (guest-table accesses show high locality).
    fn host_translate(&mut self, gpa: u64, accesses: &mut Vec<u64>, for_table: bool) -> u64 {
        let gpn = gpa >> self.page_size.bits();
        if for_table {
            if let Some(hframe) = self.nested_tlb.lookup(&gpn) {
                return (hframe << 12) + (gpa & (self.page_size.bytes() - 1));
            }
        }
        let mut walk = self.host_pt.walk(gpa);
        if walk.frame.is_none() {
            let frame = match self.page_size {
                PageSize::Kb4 => self.host_frames.frame(),
                PageSize::Mb2 => self.host_frames.contiguous(512),
            };
            self.host_pt.map(gpa, frame, &mut self.host_frames);
            walk = self.host_pt.walk(gpa);
        }
        let charged = self.host_pwc.filter(&walk.steps);
        accesses.extend(charged.iter().map(|s| s.entry_addr));
        let hframe = walk.frame.expect("just mapped");
        if for_table {
            self.nested_tlb.insert(gpn, hframe);
        }
        (hframe << 12) + (gpa & (self.page_size.bytes() - 1))
    }

    /// Translates a guest virtual address to a host physical address.
    pub fn translate(&mut self, gva: u64) -> MmuTranslation {
        let vpn = gva >> self.page_size.bits();
        let offset = gva & (self.page_size.bytes() - 1);

        if let Some((hframe, l1)) = self.tlbs.lookup(vpn) {
            return MmuTranslation {
                paddr: (hframe << 12) + offset,
                events: MmuEvents { l1_tlb_hit: l1, l2_tlb_hit: !l1, ..Default::default() },
            };
        }

        // Two-dimensional walk.
        let mut accesses = Vec::new();

        // Ensure the guest mapping exists (guest demand paging, costless:
        // the guest OS's own bookkeeping is not on the simulated path).
        let mut allocated = false;
        if !self.guest_pt.is_mapped(gva) {
            let gframe = match self.page_size {
                PageSize::Kb4 => self.guest_frames.frame(),
                PageSize::Mb2 => self.guest_frames.contiguous(512),
            };
            self.guest_pt.map(gva, gframe, &mut self.guest_frames);
            allocated = true;
        }

        // Each guest-walk step reads a guest-table entry at a gPA, which
        // first needs a host walk of its own.
        let guest_walk = self.guest_pt.walk(gva);
        for step in &guest_walk.steps {
            let entry_hpa = self.host_translate(step.entry_addr, &mut accesses, true);
            accesses.push(entry_hpa);
        }
        // Finally translate the data gPA through the host table.
        let gpa = (guest_walk.frame.expect("guest mapped above") << 12) + offset;
        let hpa = self.host_translate(gpa, &mut accesses, false);

        self.tlbs.insert(vpn, hpa >> 12);
        MmuTranslation {
            paddr: hpa,
            events: MmuEvents { walk_accesses: accesses, allocated, ..Default::default() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_2d_walk_costs_up_to_24_accesses() {
        let mut mmu = NestedMmu::new(PageSize::Kb4, 1 << 20);
        let t = mmu.translate(0x7f00_0000);
        // 4 guest steps x (host walk + entry) + final host walk. The very
        // first host walk is cold (4 accesses); later ones are filtered by
        // the host PWC and nested TLB, so the total is between 5 and 24.
        let n = t.events.walk_accesses.len();
        assert!(n >= 9, "cold 2D walk should be expensive, got {n}");
        assert!(n <= 24, "bounded by the 2D maximum, got {n}");
    }

    #[test]
    fn warm_2d_walks_are_cheaper_than_cold() {
        let mut mmu = NestedMmu::new(PageSize::Kb4, 1 << 20);
        let cold = mmu.translate(0x1000_0000).events.walk_accesses.len();
        // A neighbouring page misses the TLB but reuses guest-table pages
        // via the nested TLB and host PWC.
        let warm = mmu.translate(0x1000_1000).events.walk_accesses.len();
        assert!(warm < cold, "warm {warm} vs cold {cold}");
    }

    #[test]
    fn virtual_walks_cost_more_than_native() {
        let mut nested = NestedMmu::new(PageSize::Kb4, 1 << 20);
        let mut native = crate::mmu::NativeMmu::new(PageSize::Kb4, 1 << 20);
        let n = nested.translate(0x4000_0000).events.walk_accesses.len();
        let m = native.translate(0x4000_0000).events.walk_accesses.len();
        assert!(n > m * 2, "nested {n} vs native {m}");
    }

    #[test]
    fn tlb_hides_the_2d_walk() {
        let mut mmu = NestedMmu::new(PageSize::Kb4, 1 << 20);
        mmu.translate(0x2000);
        let t = mmu.translate(0x2040);
        assert!(t.events.l1_tlb_hit);
        assert!(t.events.walk_accesses.is_empty());
    }

    #[test]
    fn translations_are_stable() {
        let mut mmu = NestedMmu::new(PageSize::Mb2, 1 << 20);
        let a = mmu.translate(0x12_3456);
        mmu.tlbs = TlbHierarchy::new(PageSize::Mb2); // force a second walk
        let b = mmu.translate(0x12_3456);
        assert_eq!(a.paddr, b.paddr);
    }
}
