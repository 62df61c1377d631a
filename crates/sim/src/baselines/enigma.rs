//! Enigma \[137\]: deferred translation through an intermediate address space.
//!
//! Enigma is the paper's closest prior work (`Enigma-HW-2M` in Figure 7). It
//! assigns each allocation a range of a system-wide unique *intermediate
//! address* (IA) space; caches are indexed by IA, and IA→physical
//! translation is deferred to a centralized translation cache (CTC) at the
//! memory controller. Unlike VBI, the mapping granularity is a fixed page
//! size, translation structures are conventional, and — in the original
//! design — a CTC miss traps to the OS. Following §7.2.2, this
//! implementation models the *enhanced* variant the paper compares against:
//! a 16K-entry CTC with hardware-managed walks and 2 MiB pages.

use vbi_core::tlb::Tlb;

use super::alloc::FrameAlloc;
use super::page_table::{PageSize, PageTable};

/// `Enigma-HW-2M` maps IA space in 2 MiB pages.
const PAGE_SIZE: PageSize = PageSize::Mb2;

/// Result of an Enigma translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EnigmaTranslation {
    /// The physical address.
    pub(crate) paddr: u64,
    /// Whether the CTC supplied the mapping.
    pub(crate) ctc_hit: bool,
    /// Memory accesses performed by the hardware walk (empty on CTC hits).
    pub(crate) walk_accesses: Vec<u64>,
}

/// The Enigma memory controller: CTC + hardware-walked IA-to-physical table.
///
/// Like VBI, Enigma pays no translation cost in front of the caches; its
/// costs appear only at the memory controller. Unlike VBI there is no
/// per-object structure choice: every mapping is a fixed-size page in one
/// conventional multi-level table.
#[derive(Debug, Clone)]
pub(crate) struct EnigmaController {
    table: PageTable,
    frames: FrameAlloc,
    ctc: Tlb<u64, u64>,
}

impl EnigmaController {
    /// Creates the `Enigma-HW-2M` configuration: 16K-entry CTC, 2 MiB pages.
    pub(crate) fn new(phys_frames: u64) -> Self {
        let mut frames = FrameAlloc::new(phys_frames);
        let table = PageTable::new(PAGE_SIZE, &mut frames);
        Self { table, frames, ctc: Tlb::new(16 * 1024, 8) }
    }

    /// Translates an intermediate address at the memory controller,
    /// demand-allocating physical memory on first touch.
    pub(crate) fn translate(&mut self, ia: u64) -> EnigmaTranslation {
        let ipn = ia >> PAGE_SIZE.bits();
        let offset = ia & (PAGE_SIZE.bytes() - 1);
        if let Some(frame) = self.ctc.lookup(&ipn) {
            return EnigmaTranslation {
                paddr: (frame << 12) + offset,
                ctc_hit: true,
                walk_accesses: Vec::new(),
            };
        }
        let mut walk = self.table.walk(ia);
        if walk.frame.is_none() {
            let frame = self.frames.contiguous(512);
            self.table.map(ia, frame, &mut self.frames);
            walk = self.table.walk(ia);
        }
        let walk_accesses: Vec<u64> = walk.steps.iter().map(|s| s.entry_addr).collect();
        let frame = walk.frame.expect("just mapped");
        self.ctc.insert(ipn, frame);
        EnigmaTranslation { paddr: (frame << 12) + offset, ctc_hit: false, walk_accesses }
    }
}

/// Allocates system-wide unique intermediate-address ranges to memory
/// objects (Enigma's allocation-time assignment).
#[derive(Debug, Clone, Default)]
pub(crate) struct IaSpace {
    next: u64,
}

impl IaSpace {
    /// Creates an empty IA space.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Assigns a contiguous IA range of `bytes`, aligned to 2 MiB so large
    /// pages apply.
    pub(crate) fn assign(&mut self, bytes: u64) -> u64 {
        let base = self.next.next_multiple_of(2 << 20);
        self.next = base + bytes;
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctc_hits_after_first_walk() {
        let mut e = EnigmaController::new(1 << 20);
        let a = e.translate(0x123_4567);
        assert!(!a.ctc_hit);
        assert_eq!(a.walk_accesses.len(), 3, "2 MiB pages walk three levels");
        let b = e.translate(0x123_4568);
        assert!(b.ctc_hit);
        assert_eq!(b.paddr, a.paddr + 1);
    }

    #[test]
    fn huge_ctc_covers_large_footprints() {
        let mut e = EnigmaController::new(1 << 22);
        // Touch 4 GiB at 2 MiB granularity: 2048 pages, far below 16K CTC
        // entries. Second sweep must be all hits.
        for ia in (0..(4u64 << 30)).step_by(2 << 20) {
            e.translate(ia);
        }
        assert!((0..(4u64 << 30)).step_by(2 << 20).all(|ia| e.translate(ia).ctc_hit));
    }

    #[test]
    fn ia_ranges_never_overlap() {
        let mut space = IaSpace::new();
        let a = space.assign(1000);
        let b = space.assign(5 << 20);
        let c = space.assign(64);
        assert!(a + 1000 <= b);
        assert!(b + (5 << 20) <= c);
        assert_eq!(b % (2 << 20), 0);
    }

    #[test]
    fn distinct_ia_pages_get_distinct_frames() {
        let mut e = EnigmaController::new(1 << 20);
        let a = e.translate(0).paddr;
        let b = e.translate(2 << 20).paddr;
        assert_ne!(a >> 21, b >> 21);
    }
}
