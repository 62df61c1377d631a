//! Per-VB address translation structures (§4.5.2, §5.2).
//!
//! Unlike conventional systems, where one page-table format is shared by the
//! OS and hardware, the MTL owns translation outright and picks a structure
//! per VB:
//!
//! * **Direct** — the whole VB maps to one contiguous physical region; a
//!   single MTL-TLB entry covers the entire VB and walks cost zero memory
//!   accesses. Used for 4 KiB VBs and for VBs whose early reservation
//!   succeeded.
//! * **Single-level** — one flat table of per-4 KiB-page entries; every walk
//!   costs exactly one memory access. Used for 128 KiB and 4 MiB VBs.
//! * **Multi-level** — a radix tree with 512-way (9-bit) fanout like x86-64,
//!   but only as deep as the VB's size requires, so smaller VBs take fewer
//!   accesses per walk than a fixed four-level table.
//!
//! Leaf entries can be *unmapped* (no physical backing yet — delayed
//! allocation returns zero lines for these), *mapped* (optionally
//! copy-on-write after `clone_vb`), or *swapped* to a backing-store slot.

use crate::addr::SizeClass;
use crate::buddy::Order;
use crate::error::{Result, VbiError};
use crate::frame_cache::FrameAllocator;
use crate::phys::{Frame, PhysAddr, FRAME_SHIFT};

/// Fanout bits per multi-level table node (512 eight-byte entries per 4 KiB
/// node, like x86-64).
pub const LEVEL_BITS: u32 = 9;

/// A backing-store slot index for swapped-out pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwapSlot(pub u64);

/// The state of one 4 KiB page of a VB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageEntry {
    /// No physical memory is backing the page; reads observe zero.
    Unmapped,
    /// The page maps to `frame`; `cow` marks copy-on-write sharing created by
    /// `clone_vb`.
    Mapped {
        /// Backing frame.
        frame: Frame,
        /// Whether the frame is shared copy-on-write.
        cow: bool,
    },
    /// The page's contents live in the backing store.
    Swapped(SwapSlot),
}

/// The structure type recorded in the VB's VIT entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TranslationKind {
    /// Whole-VB contiguous mapping.
    Direct,
    /// One flat table; one access per walk.
    SingleLevel,
    /// Radix tree of the given depth; `depth` accesses per walk.
    MultiLevel {
        /// Number of table levels.
        depth: u32,
    },
}

impl TranslationKind {
    /// The static structure-selection policy evaluated in the paper (§5.2):
    /// 4 KiB VBs are direct-mapped, 128 KiB and 4 MiB VBs use a single-level
    /// table, and larger VBs use a multi-level table just deep enough to map
    /// the VB with 4 KiB pages.
    pub fn static_policy(size_class: SizeClass) -> TranslationKind {
        match size_class {
            SizeClass::Kib4 => TranslationKind::Direct,
            SizeClass::Kib128 | SizeClass::Mib4 => TranslationKind::SingleLevel,
            sc => TranslationKind::MultiLevel { depth: multi_level_depth(sc) },
        }
    }

    /// Worst-case number of table memory accesses per walk.
    pub fn walk_accesses(self) -> u32 {
        match self {
            TranslationKind::Direct => 0,
            TranslationKind::SingleLevel => 1,
            TranslationKind::MultiLevel { depth } => depth,
        }
    }
}

/// Number of radix levels needed to map a VB of `size_class` with 4 KiB
/// pages and 9-bit fanout.
pub fn multi_level_depth(size_class: SizeClass) -> u32 {
    let page_bits = size_class.offset_bits() - FRAME_SHIFT;
    page_bits.div_ceil(LEVEL_BITS).max(1)
}

/// What a walk found for the requested page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOutcome {
    /// Translation succeeded; the byte lives at the returned frame.
    Mapped {
        /// Backing frame.
        frame: Frame,
        /// Copy-on-write marking.
        cow: bool,
    },
    /// No physical memory backs the page yet.
    Unmapped,
    /// The page is swapped out to the returned slot.
    Swapped(SwapSlot),
}

/// Result of walking a translation structure: the outcome plus the physical
/// addresses of every table entry the walker had to read (the
/// translation-related memory accesses the evaluation counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkResult {
    /// What the walk found.
    pub outcome: WalkOutcome,
    /// Table-entry addresses read, in order.
    pub table_accesses: Vec<PhysAddr>,
}

/// An interior or leaf node of a multi-level structure. Opaque outside the
/// crate; exposed only because enum variant fields are public.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct Node {
    frame: Frame,
    children: Vec<Option<Box<Node>>>,
    leaves: Vec<PageEntry>,
    is_leaf_level: bool,
}

impl Node {
    fn new(frame: Frame, fanout: usize, is_leaf_level: bool) -> Self {
        if is_leaf_level {
            Self {
                frame,
                children: Vec::new(),
                leaves: vec![PageEntry::Unmapped; fanout],
                is_leaf_level,
            }
        } else {
            Self {
                frame,
                children: (0..fanout).map(|_| None).collect(),
                leaves: Vec::new(),
                is_leaf_level,
            }
        }
    }

    fn entry_addr(&self, index: usize) -> PhysAddr {
        self.frame.base().offset((index * 8) as u64)
    }
}

/// A per-VB translation structure.
#[derive(Debug, Clone)]
pub enum TranslationStructure {
    /// Whole-VB contiguous mapping at 4 KiB granularity within one reserved
    /// region. `base` is `None` until the first allocation materialises the
    /// region; `present` tracks which pages have been allocated so far.
    Direct {
        /// First frame of the contiguous region (set on first allocation).
        base: Option<Frame>,
        /// Per-page allocated bit.
        present: Vec<bool>,
        /// Per-page copy-on-write marking (COW resolution of one page must
        /// not disturb the sharing state of its neighbours).
        cow: Vec<bool>,
    },
    /// One flat array of page entries stored in `table_frames`.
    SingleLevel {
        /// Frames holding the table itself (for walk timing and freeing).
        table_frames: Vec<Frame>,
        /// Per-page entries.
        entries: Vec<PageEntry>,
    },
    /// Radix tree; interior nodes allocated lazily.
    MultiLevel {
        /// Tree depth (levels of table accesses per walk).
        depth: u32,
        /// Total pages mapped by the structure.
        pages: u64,
        /// Root node (always materialised).
        root: Box<Node>,
    },
}

impl TranslationStructure {
    /// Creates a direct-mapped structure for a VB of `size_class`. No
    /// physical memory is consumed until the region is materialised.
    pub fn direct(size_class: SizeClass) -> Self {
        let pages = size_class.pages() as usize;
        TranslationStructure::Direct {
            base: None,
            present: vec![false; pages],
            cow: vec![false; pages],
        }
    }

    /// Creates a single-level structure, allocating its table frames.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::OutOfPhysicalMemory`] if the table cannot be
    /// allocated.
    pub fn single_level(size_class: SizeClass, frames: &mut FrameAllocator) -> Result<Self> {
        let pages = size_class.pages();
        let table_bytes = pages * 8;
        let table_frame_count = table_bytes.div_ceil(1 << FRAME_SHIFT).max(1);
        let order = table_frame_count.next_power_of_two().trailing_zeros() as Order;
        let base = frames.allocate_table(order).ok_or(VbiError::OutOfPhysicalMemory)?;
        let table_frames = (0..table_frame_count).map(|i| base.offset(i)).collect();
        Ok(TranslationStructure::SingleLevel {
            table_frames,
            entries: vec![PageEntry::Unmapped; pages as usize],
        })
    }

    /// Creates a multi-level structure of the depth required by
    /// `size_class`, allocating only the root node.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::OutOfPhysicalMemory`] if the root cannot be
    /// allocated.
    pub fn multi_level(size_class: SizeClass, frames: &mut FrameAllocator) -> Result<Self> {
        let depth = multi_level_depth(size_class);
        let pages = size_class.pages();
        let root_frame = frames.allocate_table(0).ok_or(VbiError::OutOfPhysicalMemory)?;
        let fanout = Self::fanout_at(depth, 0, pages);
        Ok(TranslationStructure::MultiLevel {
            depth,
            pages,
            root: Box::new(Node::new(root_frame, fanout, depth == 1)),
        })
    }

    fn fanout_at(depth: u32, level: u32, pages: u64) -> usize {
        // The top level may be narrower than 512 when the VB's page count
        // does not fill a full level; lower levels are full width.
        if level == 0 {
            let below_bits = LEVEL_BITS * (depth - 1);
            let top_entries = (pages >> below_bits).max(1);
            top_entries.min(1 << LEVEL_BITS) as usize
        } else {
            1 << LEVEL_BITS
        }
    }

    /// The structure's kind, as recorded in the VIT.
    pub fn kind(&self) -> TranslationKind {
        match self {
            TranslationStructure::Direct { .. } => TranslationKind::Direct,
            TranslationStructure::SingleLevel { .. } => TranslationKind::SingleLevel,
            TranslationStructure::MultiLevel { depth, .. } => {
                TranslationKind::MultiLevel { depth: *depth }
            }
        }
    }

    /// Total pages the structure can map.
    pub fn pages(&self) -> u64 {
        match self {
            TranslationStructure::Direct { present, .. } => present.len() as u64,
            TranslationStructure::SingleLevel { entries, .. } => entries.len() as u64,
            TranslationStructure::MultiLevel { pages, .. } => *pages,
        }
    }

    /// Whether a direct structure has been materialised (has a base frame).
    pub fn direct_base(&self) -> Option<Frame> {
        match self {
            TranslationStructure::Direct { base, .. } => *base,
            _ => None,
        }
    }

    /// Sets the contiguous base region of a direct structure (early
    /// reservation success).
    ///
    /// # Panics
    ///
    /// Panics if called on a non-direct structure or one already based.
    pub fn set_direct_base(&mut self, frame: Frame) {
        match self {
            TranslationStructure::Direct { base: base @ None, .. } => *base = Some(frame),
            TranslationStructure::Direct { .. } => panic!("direct base already set"),
            _ => panic!("set_direct_base on a table-based structure"),
        }
    }

    /// Walks the structure for `page`, returning the outcome and the table
    /// accesses performed.
    ///
    /// # Panics
    ///
    /// Panics if `page` is beyond the VB (the CVT bounds check runs first, so
    /// an out-of-range page here is an MTL bug).
    pub fn walk(&self, page: u64) -> WalkResult {
        assert!(page < self.pages(), "walk of page {page} beyond VB");
        match self {
            TranslationStructure::Direct { base, present, cow } => {
                let outcome = match base {
                    Some(b) if present[page as usize] => {
                        WalkOutcome::Mapped { frame: b.offset(page), cow: cow[page as usize] }
                    }
                    _ => WalkOutcome::Unmapped,
                };
                WalkResult { outcome, table_accesses: Vec::new() }
            }
            TranslationStructure::SingleLevel { table_frames, entries } => {
                let byte = page * 8;
                let table_frame = table_frames[(byte >> FRAME_SHIFT) as usize];
                let addr = table_frame.base().offset(byte & ((1 << FRAME_SHIFT) - 1));
                WalkResult {
                    outcome: entry_outcome(entries[page as usize]),
                    table_accesses: vec![addr],
                }
            }
            TranslationStructure::MultiLevel { depth, root, .. } => {
                let mut accesses = Vec::with_capacity(*depth as usize);
                let mut node = root.as_ref();
                for level in 0..*depth {
                    let shift = LEVEL_BITS * (*depth - 1 - level);
                    let index = ((page >> shift) & ((1 << LEVEL_BITS) - 1)) as usize;
                    if node.is_leaf_level {
                        accesses.push(node.entry_addr(index));
                        return WalkResult {
                            outcome: entry_outcome(node.leaves[index]),
                            table_accesses: accesses,
                        };
                    }
                    accesses.push(node.entry_addr(index));
                    match node.children.get(index).and_then(|c| c.as_ref()) {
                        Some(child) => node = child,
                        None => {
                            return WalkResult {
                                outcome: WalkOutcome::Unmapped,
                                table_accesses: accesses,
                            }
                        }
                    }
                }
                unreachable!("leaf level is reached within depth iterations")
            }
        }
    }

    /// Reads a page's entry without recording accesses.
    pub fn entry(&self, page: u64) -> PageEntry {
        match self.walk(page).outcome {
            WalkOutcome::Mapped { frame, cow } => PageEntry::Mapped { frame, cow },
            WalkOutcome::Unmapped => PageEntry::Unmapped,
            WalkOutcome::Swapped(slot) => PageEntry::Swapped(slot),
        }
    }

    /// Sets a page's entry, allocating interior table nodes on demand.
    ///
    /// For direct structures the entry must agree with the contiguous layout
    /// (`frame == base + page`); the MTL guarantees this by construction.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::OutOfPhysicalMemory`] if an interior node cannot
    /// be allocated.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range pages or a direct-mapping violation.
    pub fn set_entry(
        &mut self,
        page: u64,
        entry: PageEntry,
        frames: &mut FrameAllocator,
    ) -> Result<()> {
        assert!(page < self.pages(), "set_entry of page {page} beyond VB");
        match self {
            TranslationStructure::Direct { base, present, cow } => match entry {
                PageEntry::Mapped { frame, cow: entry_cow } => {
                    let b = base.expect("direct structure must be based before mapping");
                    assert_eq!(frame, b.offset(page), "direct structures only map contiguously");
                    present[page as usize] = true;
                    cow[page as usize] = entry_cow;
                    Ok(())
                }
                PageEntry::Unmapped => {
                    present[page as usize] = false;
                    cow[page as usize] = false;
                    Ok(())
                }
                PageEntry::Swapped(_) => {
                    panic!("direct structures swap wholesale, not per page")
                }
            },
            TranslationStructure::SingleLevel { entries, .. } => {
                entries[page as usize] = entry;
                Ok(())
            }
            TranslationStructure::MultiLevel { depth, root, .. } => {
                let depth = *depth;
                let mut node = root.as_mut();
                for level in 0..depth {
                    let shift = LEVEL_BITS * (depth - 1 - level);
                    let index = ((page >> shift) & ((1 << LEVEL_BITS) - 1)) as usize;
                    if node.is_leaf_level {
                        node.leaves[index] = entry;
                        return Ok(());
                    }
                    if node.children[index].is_none() {
                        let frame =
                            frames.allocate_table(0).ok_or(VbiError::OutOfPhysicalMemory)?;
                        let child_is_leaf = level + 2 == depth;
                        node.children[index] =
                            Some(Box::new(Node::new(frame, 1 << LEVEL_BITS, child_is_leaf)));
                    }
                    node = node.children[index].as_mut().expect("just ensured");
                }
                unreachable!("leaf level is reached within depth iterations")
            }
        }
    }

    /// Marks every mapped page copy-on-write (the `clone_vb` fast path).
    pub fn mark_all_cow(&mut self) {
        match self {
            TranslationStructure::Direct { present, cow, .. } => {
                for (c, &p) in cow.iter_mut().zip(present.iter()) {
                    *c |= p;
                }
            }
            TranslationStructure::SingleLevel { entries, .. } => {
                for e in entries {
                    if let PageEntry::Mapped { cow, .. } = e {
                        *cow = true;
                    }
                }
            }
            TranslationStructure::MultiLevel { root, .. } => mark_cow_rec(root),
        }
    }

    /// Iterates `(page, frame, cow)` over all mapped pages.
    pub fn mapped_pages(&self) -> Vec<(u64, Frame, bool)> {
        let mut out = Vec::new();
        match self {
            TranslationStructure::Direct { base, present, cow } => {
                if let Some(b) = base {
                    for (i, &p) in present.iter().enumerate() {
                        if p {
                            out.push((i as u64, b.offset(i as u64), cow[i]));
                        }
                    }
                }
            }
            TranslationStructure::SingleLevel { entries, .. } => {
                for (i, e) in entries.iter().enumerate() {
                    if let PageEntry::Mapped { frame, cow } = e {
                        out.push((i as u64, *frame, *cow));
                    }
                }
            }
            TranslationStructure::MultiLevel { depth, root, .. } => {
                collect_mapped_rec(root, 0, *depth, 0, &mut out);
            }
        }
        out
    }

    /// Iterates `(page, slot)` over all swapped pages.
    pub fn swapped_pages(&self) -> Vec<(u64, SwapSlot)> {
        let mut out = Vec::new();
        match self {
            TranslationStructure::Direct { .. } => {}
            TranslationStructure::SingleLevel { entries, .. } => {
                for (i, e) in entries.iter().enumerate() {
                    if let PageEntry::Swapped(slot) = e {
                        out.push((i as u64, *slot));
                    }
                }
            }
            TranslationStructure::MultiLevel { depth, root, .. } => {
                collect_swapped_rec(root, 0, *depth, 0, &mut out);
            }
        }
        out
    }

    /// Frames occupied by the structure's own tables.
    pub fn table_frames(&self) -> Vec<Frame> {
        match self {
            TranslationStructure::Direct { .. } => Vec::new(),
            TranslationStructure::SingleLevel { table_frames, .. } => table_frames.clone(),
            TranslationStructure::MultiLevel { root, .. } => {
                let mut out = Vec::new();
                collect_frames_rec(root, &mut out);
                out
            }
        }
    }

    /// Releases the structure's table frames back to the allocator. Data
    /// frames are the MTL's responsibility (it must unmap or free them based
    /// on COW sharing).
    pub fn release_tables(self, frames: &mut FrameAllocator) {
        match self {
            TranslationStructure::Direct { .. } => {}
            TranslationStructure::SingleLevel { table_frames, .. } => {
                let order =
                    (table_frames.len() as u64).next_power_of_two().trailing_zeros() as Order;
                frames.free_table(table_frames[0], order);
            }
            TranslationStructure::MultiLevel { root, .. } => {
                release_nodes_rec(*root, frames);
            }
        }
    }
}

fn entry_outcome(entry: PageEntry) -> WalkOutcome {
    match entry {
        PageEntry::Unmapped => WalkOutcome::Unmapped,
        PageEntry::Mapped { frame, cow } => WalkOutcome::Mapped { frame, cow },
        PageEntry::Swapped(slot) => WalkOutcome::Swapped(slot),
    }
}

fn mark_cow_rec(node: &mut Node) {
    if node.is_leaf_level {
        for e in &mut node.leaves {
            if let PageEntry::Mapped { cow, .. } = e {
                *cow = true;
            }
        }
    } else {
        for child in node.children.iter_mut().flatten() {
            mark_cow_rec(child);
        }
    }
}

fn collect_mapped_rec(
    node: &Node,
    level: u32,
    depth: u32,
    base_page: u64,
    out: &mut Vec<(u64, Frame, bool)>,
) {
    let shift = LEVEL_BITS * (depth - 1 - level);
    if node.is_leaf_level {
        for (i, e) in node.leaves.iter().enumerate() {
            if let PageEntry::Mapped { frame, cow } = e {
                out.push((base_page + ((i as u64) << shift), *frame, *cow));
            }
        }
    } else {
        for (i, child) in node.children.iter().enumerate() {
            if let Some(child) = child {
                collect_mapped_rec(child, level + 1, depth, base_page + ((i as u64) << shift), out);
            }
        }
    }
}

fn collect_swapped_rec(
    node: &Node,
    level: u32,
    depth: u32,
    base_page: u64,
    out: &mut Vec<(u64, SwapSlot)>,
) {
    let shift = LEVEL_BITS * (depth - 1 - level);
    if node.is_leaf_level {
        for (i, e) in node.leaves.iter().enumerate() {
            if let PageEntry::Swapped(slot) = e {
                out.push((base_page + ((i as u64) << shift), *slot));
            }
        }
    } else {
        for (i, child) in node.children.iter().enumerate() {
            if let Some(child) = child {
                collect_swapped_rec(
                    child,
                    level + 1,
                    depth,
                    base_page + ((i as u64) << shift),
                    out,
                );
            }
        }
    }
}

fn collect_frames_rec(node: &Node, out: &mut Vec<Frame>) {
    out.push(node.frame);
    for child in node.children.iter().flatten() {
        collect_frames_rec(child, out);
    }
}

fn release_nodes_rec(node: Node, frames: &mut FrameAllocator) {
    frames.free_table(node.frame, 0);
    for child in node.children.into_iter().flatten() {
        release_nodes_rec(*child, frames);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VbiConfig;

    fn frames() -> FrameAllocator {
        // 256 MiB of frames.
        FrameAllocator::new(&VbiConfig { phys_frames: 1 << 16, ..VbiConfig::default() })
    }

    #[test]
    fn static_policy_matches_the_paper() {
        assert_eq!(TranslationKind::static_policy(SizeClass::Kib4), TranslationKind::Direct);
        assert_eq!(TranslationKind::static_policy(SizeClass::Kib128), TranslationKind::SingleLevel);
        assert_eq!(TranslationKind::static_policy(SizeClass::Mib4), TranslationKind::SingleLevel);
        assert_eq!(
            TranslationKind::static_policy(SizeClass::Mib128),
            TranslationKind::MultiLevel { depth: 2 }
        );
        assert_eq!(
            TranslationKind::static_policy(SizeClass::Gib4),
            TranslationKind::MultiLevel { depth: 3 }
        );
        assert_eq!(
            TranslationKind::static_policy(SizeClass::Tib128),
            TranslationKind::MultiLevel { depth: 4 }
        );
    }

    #[test]
    fn depths_shrink_with_vb_size() {
        // §4.5.2: smaller VBs require fewer accesses to serve a TLB miss.
        let mut last = u32::MAX;
        for sc in SizeClass::ALL.into_iter().rev() {
            let d = TranslationKind::static_policy(sc).walk_accesses();
            assert!(d <= last);
            last = d;
        }
        assert_eq!(TranslationKind::static_policy(SizeClass::Kib4).walk_accesses(), 0);
    }

    #[test]
    fn direct_structure_maps_contiguously() {
        let mut b = frames();
        let mut ts = TranslationStructure::direct(SizeClass::Kib4);
        assert_eq!(ts.walk(0).outcome, WalkOutcome::Unmapped);
        ts.set_direct_base(Frame(100));
        ts.set_entry(0, PageEntry::Mapped { frame: Frame(100), cow: false }, &mut b).unwrap();
        match ts.walk(0).outcome {
            WalkOutcome::Mapped { frame, .. } => assert_eq!(frame, Frame(100)),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(ts.walk(0).table_accesses.is_empty(), "direct walks touch no tables");
    }

    #[test]
    #[should_panic(expected = "only map contiguously")]
    fn direct_structure_rejects_non_contiguous_mapping() {
        let mut b = frames();
        let mut ts = TranslationStructure::direct(SizeClass::Kib128);
        ts.set_direct_base(Frame(100));
        ts.set_entry(3, PageEntry::Mapped { frame: Frame(999), cow: false }, &mut b).unwrap();
    }

    #[test]
    fn single_level_walks_cost_one_access() {
        let mut b = frames();
        let mut ts = TranslationStructure::single_level(SizeClass::Mib4, &mut b).unwrap();
        assert_eq!(ts.pages(), 1024);
        ts.set_entry(1023, PageEntry::Mapped { frame: Frame(7), cow: false }, &mut b).unwrap();
        let walk = ts.walk(1023);
        assert_eq!(walk.table_accesses.len(), 1);
        assert_eq!(walk.outcome, WalkOutcome::Mapped { frame: Frame(7), cow: false });
        // 1024 entries * 8 B = 2 frames of table.
        assert_eq!(ts.table_frames().len(), 2);
        // Entry 1023 lives in the second table frame.
        let addr = walk.table_accesses[0];
        assert_eq!(Frame::containing(addr), ts.table_frames()[1]);
    }

    #[test]
    fn multi_level_walks_report_each_level() {
        let mut b = frames();
        // 4 GiB VB: 2^20 pages, depth 3.
        let mut ts = TranslationStructure::multi_level(SizeClass::Gib4, &mut b).unwrap();
        assert_eq!(ts.kind(), TranslationKind::MultiLevel { depth: 3 });
        ts.set_entry(0xabcde, PageEntry::Mapped { frame: Frame(42), cow: false }, &mut b).unwrap();
        let walk = ts.walk(0xabcde);
        assert_eq!(walk.table_accesses.len(), 3);
        assert_eq!(walk.outcome, WalkOutcome::Mapped { frame: Frame(42), cow: false });
        // A walk of an unmapped region stops at the missing interior node.
        let missing = ts.walk(0);
        assert_eq!(missing.outcome, WalkOutcome::Unmapped);
        assert!(missing.table_accesses.len() <= 3);
    }

    #[test]
    fn multi_level_allocates_interior_nodes_lazily() {
        let mut b = frames();
        let free_before = b.free_frames();
        let mut ts = TranslationStructure::multi_level(SizeClass::Gib4, &mut b).unwrap();
        let after_root = b.free_frames();
        assert_eq!(free_before - after_root, 1, "only the root is allocated eagerly");
        ts.set_entry(0, PageEntry::Mapped { frame: Frame(1), cow: false }, &mut b).unwrap();
        // Mapping one page created the level-1 and leaf nodes.
        assert_eq!(after_root - b.free_frames(), 2);
        assert_eq!(ts.table_frames().len(), 3);
    }

    #[test]
    fn swapped_entries_roundtrip() {
        let mut b = frames();
        let mut ts = TranslationStructure::single_level(SizeClass::Kib128, &mut b).unwrap();
        ts.set_entry(5, PageEntry::Swapped(SwapSlot(99)), &mut b).unwrap();
        assert_eq!(ts.walk(5).outcome, WalkOutcome::Swapped(SwapSlot(99)));
        assert_eq!(ts.swapped_pages(), vec![(5, SwapSlot(99))]);
    }

    #[test]
    fn mark_all_cow_covers_every_mapped_page() {
        let mut b = frames();
        let mut ts = TranslationStructure::multi_level(SizeClass::Mib128, &mut b).unwrap();
        for page in [0u64, 511, 512, 32767] {
            ts.set_entry(page, PageEntry::Mapped { frame: Frame(page + 1), cow: false }, &mut b)
                .unwrap();
        }
        ts.mark_all_cow();
        let mapped = ts.mapped_pages();
        assert_eq!(mapped.len(), 4);
        assert!(mapped.iter().all(|(_, _, cow)| *cow));
    }

    #[test]
    fn mapped_pages_reports_correct_page_numbers() {
        let mut b = frames();
        let mut ts = TranslationStructure::multi_level(SizeClass::Gib4, &mut b).unwrap();
        let pages = [0u64, 1, 511, 512, 262144, 1048575];
        for &p in &pages {
            ts.set_entry(p, PageEntry::Mapped { frame: Frame(p), cow: false }, &mut b).unwrap();
        }
        let mut got: Vec<u64> = ts.mapped_pages().into_iter().map(|(p, _, _)| p).collect();
        got.sort_unstable();
        assert_eq!(got, pages);
    }

    #[test]
    fn release_tables_returns_all_frames() {
        let mut b = frames();
        let before = b.free_frames();
        let mut ts = TranslationStructure::multi_level(SizeClass::Gib4, &mut b).unwrap();
        for p in 0..2048 {
            ts.set_entry(p, PageEntry::Mapped { frame: Frame(p), cow: false }, &mut b).unwrap();
        }
        ts.release_tables(&mut b);
        assert_eq!(b.free_frames(), before);

        let before = b.free_frames();
        let ts = TranslationStructure::single_level(SizeClass::Mib4, &mut b).unwrap();
        ts.release_tables(&mut b);
        assert_eq!(b.free_frames(), before);
    }

    #[test]
    fn walk_accesses_match_kind() {
        let mut b = frames();
        for sc in [SizeClass::Mib128, SizeClass::Gib4, SizeClass::Tib4] {
            let mut ts = TranslationStructure::multi_level(sc, &mut b).unwrap();
            ts.set_entry(0, PageEntry::Mapped { frame: Frame(1), cow: false }, &mut b).unwrap();
            assert_eq!(ts.walk(0).table_accesses.len() as u32, ts.kind().walk_accesses(), "{sc}");
        }
    }
}
