//! x86-64-style multi-level page tables (the baselines' translation
//! structure).
//!
//! A four-level radix tree with 9-bit fanout maps 48-bit virtual addresses
//! at 4 KiB granularity (4 accesses per walk) or 2 MiB granularity (leaf at
//! the third level, 3 accesses per walk). Each node occupies one physical
//! frame so walk accesses carry real physical addresses, allowing them to be
//! played through the cache hierarchy and page-walk caches exactly as the
//! paper's simulator does.

use crate::alloc::FrameAlloc;

/// Baseline page sizes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4 KiB pages: 4-level walks.
    Kb4,
    /// 2 MiB pages: 3-level walks, 512x TLB reach.
    Mb2,
}

impl PageSize {
    /// log2 of the page size.
    pub const fn bits(self) -> u32 {
        match self {
            PageSize::Kb4 => 12,
            PageSize::Mb2 => 21,
        }
    }

    /// Page size in bytes.
    pub const fn bytes(self) -> u64 {
        1 << self.bits()
    }

    /// Number of table levels in a walk.
    pub const fn walk_levels(self) -> u32 {
        match self {
            PageSize::Kb4 => 4,
            PageSize::Mb2 => 3,
        }
    }
}

/// One step of a page walk: the table level (0 = root/PML4) and the physical
/// address of the entry read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkStep {
    /// Level from the root (0 = PML4).
    pub level: u32,
    /// Physical address of the entry.
    pub entry_addr: u64,
    /// Virtual-address prefix identifying this entry (for page-walk caches).
    pub prefix: u64,
}

/// Result of a page walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PtWalk {
    /// The translated base frame of the page, if mapped.
    pub frame: Option<u64>,
    /// Every step of the walk, root first.
    pub steps: Vec<WalkStep>,
}

#[derive(Debug, Clone)]
struct PtNode {
    addr: u64,
    children: Vec<Option<Box<PtNode>>>,
    leaves: Vec<Option<u64>>,
}

impl PtNode {
    fn new(addr: u64, leaf_level: bool) -> Self {
        if leaf_level {
            Self { addr, children: Vec::new(), leaves: vec![None; 512] }
        } else {
            Self { addr, children: (0..512).map(|_| None).collect(), leaves: Vec::new() }
        }
    }
}

/// A per-process page table.
///
/// # Examples
///
/// ```
/// use vbi_baselines::alloc::FrameAlloc;
/// use vbi_baselines::page_table::{PageSize, PageTable};
///
/// let mut frames = FrameAlloc::new(1 << 20);
/// let mut pt = PageTable::new(PageSize::Kb4, &mut frames);
/// pt.map(0x7fff_0000, 42, &mut frames);
/// let walk = pt.walk(0x7fff_0123);
/// assert_eq!(walk.frame, Some(42));
/// assert_eq!(walk.steps.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct PageTable {
    page_size: PageSize,
    root: Box<PtNode>,
}

impl PageTable {
    /// Creates an empty table, allocating the root node.
    pub fn new(page_size: PageSize, frames: &mut FrameAlloc) -> Self {
        let root_frame = frames.frame();
        Self { page_size, root: Box::new(PtNode::new(root_frame << 12, false)) }
    }

    fn index_at(&self, vaddr: u64, level: u32) -> usize {
        let levels = self.page_size.walk_levels();
        let shift = self.page_size.bits() + 9 * (levels - 1 - level);
        ((vaddr >> shift) & 0x1ff) as usize
    }

    fn prefix_at(&self, vaddr: u64, level: u32) -> u64 {
        let levels = self.page_size.walk_levels();
        let shift = self.page_size.bits() + 9 * (levels - 1 - level);
        vaddr >> shift
    }

    /// Walks the table for `vaddr`, recording every entry touched. A walk of
    /// an unmapped region stops at the missing node.
    pub fn walk(&self, vaddr: u64) -> PtWalk {
        let levels = self.page_size.walk_levels();
        let mut steps = Vec::with_capacity(levels as usize);
        let mut node = self.root.as_ref();
        for level in 0..levels {
            let index = self.index_at(vaddr, level);
            steps.push(WalkStep {
                level,
                entry_addr: node.addr + (index as u64) * 8,
                prefix: self.prefix_at(vaddr, level),
            });
            if level == levels - 1 {
                return PtWalk { frame: node.leaves[index], steps };
            }
            match node.children[index].as_deref() {
                Some(child) => node = child,
                None => return PtWalk { frame: None, steps },
            }
        }
        unreachable!("loop returns at the leaf level")
    }

    /// Maps the page containing `vaddr` to `frame` (a 4 KiB frame number;
    /// for 2 MiB pages it must be 512-frame aligned), allocating interior
    /// nodes on demand.
    ///
    /// # Panics
    ///
    /// Panics if the mapping already exists (double map is an OS-model bug)
    /// or a 2 MiB frame is misaligned.
    pub fn map(&mut self, vaddr: u64, frame: u64, frames: &mut FrameAlloc) {
        if self.page_size == PageSize::Mb2 {
            assert_eq!(frame % 512, 0, "2 MiB pages need 512-frame alignment");
        }
        let levels = self.page_size.walk_levels();
        let indices: Vec<usize> = (0..levels).map(|l| self.index_at(vaddr, l)).collect();
        let mut node = self.root.as_mut();
        for level in 0..levels {
            let index = indices[level as usize];
            if level == levels - 1 {
                assert!(node.leaves[index].is_none(), "double map of {vaddr:#x}");
                node.leaves[index] = Some(frame);
                return;
            }
            if node.children[index].is_none() {
                let addr = frames.frame() << 12;
                node.children[index] = Some(Box::new(PtNode::new(addr, level + 2 == levels)));
            }
            node = node.children[index].as_mut().expect("just ensured");
        }
    }

    /// Whether the page containing `vaddr` is mapped.
    pub fn is_mapped(&self, vaddr: u64) -> bool {
        self.walk(vaddr).frame.is_some()
    }

    /// Translates a full virtual address to a physical address, if mapped.
    pub fn translate(&self, vaddr: u64) -> Option<u64> {
        let frame = self.walk(vaddr).frame?;
        Some((frame << 12) + (vaddr & (self.page_size.bytes() - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(size: PageSize) -> (PageTable, FrameAlloc) {
        let mut frames = FrameAlloc::new(1 << 20);
        let pt = PageTable::new(size, &mut frames);
        (pt, frames)
    }

    #[test]
    fn walk_depth_matches_page_size() {
        let (mut pt, mut frames) = setup(PageSize::Kb4);
        pt.map(0, 1, &mut frames);
        assert_eq!(pt.walk(0).steps.len(), 4);

        let (mut pt2, mut frames2) = setup(PageSize::Mb2);
        pt2.map(0, 512, &mut frames2);
        assert_eq!(pt2.walk(0).steps.len(), 3);
    }

    #[test]
    fn translation_adds_page_offset() {
        let (mut pt, mut frames) = setup(PageSize::Kb4);
        pt.map(0x1234_5000, 99, &mut frames);
        assert_eq!(pt.translate(0x1234_5678), Some((99 << 12) + 0x678));
        assert_eq!(pt.translate(0x9999_9999), None);
    }

    #[test]
    fn two_mb_pages_cover_wide_ranges() {
        let (mut pt, mut frames) = setup(PageSize::Mb2);
        pt.map(0x4000_0000, 1024, &mut frames);
        // Every address within the 2 MiB page translates.
        assert_eq!(pt.translate(0x4000_0000), Some(1024 << 12));
        assert_eq!(pt.translate(0x401f_ffff), Some((1024 << 12) + 0x1f_ffff));
        assert!(!pt.is_mapped(0x4020_0000));
    }

    #[test]
    fn unmapped_walks_stop_early() {
        let (pt, _) = setup(PageSize::Kb4);
        let walk = pt.walk(0xdead_beef);
        assert_eq!(walk.frame, None);
        assert_eq!(walk.steps.len(), 1, "nothing below the root exists yet");
    }

    #[test]
    fn sibling_pages_share_interior_nodes() {
        let (mut pt, mut frames) = setup(PageSize::Kb4);
        let before = frames.used();
        pt.map(0x1000, 1, &mut frames);
        let after_first = frames.used();
        pt.map(0x2000, 2, &mut frames);
        assert_eq!(frames.used(), after_first, "same leaf table");
        assert_eq!(after_first - before, 3, "three interior nodes below the root");
    }

    #[test]
    fn steps_have_distinct_physical_addresses() {
        let (mut pt, mut frames) = setup(PageSize::Kb4);
        pt.map(0x7f00_0000_1000, 7, &mut frames);
        let walk = pt.walk(0x7f00_0000_1000);
        let mut addrs: Vec<u64> = walk.steps.iter().map(|s| s.entry_addr).collect();
        addrs.dedup();
        assert_eq!(addrs.len(), 4);
    }

    #[test]
    #[should_panic(expected = "double map")]
    fn double_map_panics() {
        let (mut pt, mut frames) = setup(PageSize::Kb4);
        pt.map(0, 1, &mut frames);
        pt.map(0, 2, &mut frames);
    }
}
