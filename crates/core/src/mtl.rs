//! The Memory Translation Layer (MTL): hardware-managed physical memory
//! allocation and VBI-to-physical address translation (§4.5, §5).
//!
//! The MTL lives in the memory controller. It owns the VB Info Tables, the
//! physical-frame allocator, the per-VB translation structures, the MTL TLBs,
//! and the backing store. The processor side (CVT checks) never consults it;
//! the MTL is invoked only on last-level-cache misses and dirty writebacks,
//! which is precisely what makes VBI's deferred translation possible.
//!
//! Three optimizations from §5 are implemented here and can be toggled via
//! [`VbiConfig`]:
//!
//! 1. **Delayed physical allocation** (§5.1): reads of never-written regions
//!    return a zero line without allocating or accessing DRAM; allocation
//!    happens on the first dirty writeback.
//! 2. **Flexible translation structures** (§5.2): direct, single-level, or
//!    multi-level per VB (see [`crate::translate`]).
//! 3. **Early reservation** (§5.3): on a VB's first allocation the MTL tries
//!    to reserve the whole VB contiguously (direct mapping, one TLB entry);
//!    under pressure, reserved-but-unused frames can be stolen by other VBs,
//!    demoting the owner to a table-based structure if its contiguity breaks.
//!    The runs and who owns which frame are kept in `reservation.rs`, which
//!    alone edits them; the MTL calls its verbs.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::Bound::{self, Excluded, Unbounded};

use crate::addr::{SizeClass, VbiAddress, Vbuid};
use crate::buddy::Order;
use crate::config::VbiConfig;
use crate::error::{Result, VbiError};
use crate::frame_cache::{FrameAllocator, POOL_HEADROOM};
use crate::phys::{Frame, PhysAddr, PhysicalMemory, FRAME_BYTES};
use crate::reservation::Reservations;
use crate::stats::MtlStats;
use crate::swap::{BackingStore, PressureBackend};
use crate::tlb::Tlb;
use crate::translate::{PageEntry, SwapSlot, TranslationKind, TranslationStructure, WalkOutcome};
use crate::vb::VbProperties;
use crate::vit::VbInfoTables;
use crate::vm::VmId;

/// The kind of request reaching the MTL. Under VBI the memory controller
/// sees only LLC miss fills (`Read`) and dirty-line writebacks (`Writeback`);
/// instruction fetches are `Read`s at this level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtlAccess {
    /// An LLC miss that must return data.
    Read,
    /// A dirty cache line being written back to memory.
    Writeback,
}

/// Where the requested data is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslateResult {
    /// Translation produced a physical address; DRAM must be accessed.
    Mapped(PhysAddr),
    /// The region has no physical backing yet; the MTL returns a zero cache
    /// line and no DRAM access happens (§5.1).
    ZeroLine,
}

/// Timing-relevant events observed while serving one translation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TranslationEvents {
    /// The MTL TLB (page-grain or whole-VB) supplied the mapping.
    pub mtl_tlb_hit: bool,
    /// The VIT cache supplied the translation-structure pointer.
    pub vit_cache_hit: bool,
    /// Memory accesses performed to tables (VIT entry + walk levels).
    pub table_accesses: Vec<PhysAddr>,
    /// A 4 KiB region was allocated while serving this request.
    pub allocated: bool,
    /// A page was brought in from the backing store.
    pub swapped_in: bool,
    /// A copy-on-write copy was resolved.
    pub cow_copy: bool,
}

/// Result of [`Mtl::translate`]: the data location plus timing events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Translation {
    /// Where the data is.
    pub result: TranslateResult,
    /// What it cost.
    pub events: TranslationEvents,
}

/// Which resident pages one pass of the eviction sweep may evict.
#[derive(Debug, Clone, Copy)]
struct SweepPass {
    /// The pass takes pages of pinned VBs only (`true`) or of unpinned VBs
    /// only (`false`).
    pinned: bool,
    /// No page of this VB.
    exclude: Option<Vbuid>,
    /// Not this page.
    protect: Option<(Vbuid, u64)>,
}

/// The Memory Translation Layer.
///
/// # Examples
///
/// ```
/// use vbi_core::addr::SizeClass;
/// use vbi_core::config::VbiConfig;
/// use vbi_core::mtl::Mtl;
/// use vbi_core::vb::VbProperties;
/// use vbi_core::vm::VmId;
///
/// let mut mtl = Mtl::new(VbiConfig::vbi_full());
/// let vb = mtl.find_free_vb(SizeClass::Kib128, VmId::HOST)?;
/// mtl.enable_vb(vb, VbProperties::NONE)?;
/// mtl.write_u64(vb.address(0x40)?, 99)?;
/// assert_eq!(mtl.read_u64(vb.address(0x40)?)?, 99);
/// # Ok::<(), vbi_core::VbiError>(())
/// ```
#[derive(Debug)]
pub struct Mtl {
    config: VbiConfig,
    /// Every free frame of this MTL, and the only way to one.
    frames: FrameAllocator,
    mem: PhysicalMemory,
    vits: VbInfoTables,
    vit_cache: Tlb<Vbuid, TranslationKind>,
    page_tlb: Tlb<(Vbuid, u64), (Frame, bool)>,
    direct_tlb: Tlb<Vbuid, Frame>,
    /// Early reservation's runs (§5.3), changed only through their verbs.
    reservations: Reservations,
    /// Share counts for live data frames (1 = sole owner; >1 = COW-shared):
    /// each entry counts the resident pages that map the frame, and a frame
    /// no page maps has no entry ([`Mtl::audit`] checks both).
    frame_shares: HashMap<u64, u32>,
    swap: Box<dyn PressureBackend>,
    /// The resident-page index: exactly the `(vbuid, page)` pairs that have
    /// a frame right now, in the order the eviction sweep visits them. The
    /// MTL performs every map, unmap, swap-out and fault-in itself (§3.4,
    /// §5), so it keeps the set current at the places a page gains or loses
    /// its frame instead of rediscovering it from the translation
    /// structures; [`Mtl::audit`] checks it against that scan.
    resident: BTreeSet<(Vbuid, u64)>,
    /// Per-page reference bits, set on every translation of a resident page
    /// (the access information only the MTL sees, §2) and consumed by the
    /// clock / second-chance eviction sweep. Always a subset of `resident`:
    /// a page that loses its frame loses its bit. Functional state, not a
    /// counter: `reset_stats` leaves it alone.
    ref_bits: HashSet<(Vbuid, u64)>,
    /// The last page the eviction sweep visited (it need not be resident
    /// any more — usually the sweep has just evicted it); the next sweep
    /// resumes with the first resident page after it, so victims rotate
    /// through the resident set.
    clock_hand: Option<(Vbuid, u64)>,
    stats: MtlStats,
    /// Which slice of every size class's VBID space this MTL serves: shard
    /// `shard_index` of `2^shard_bits` (§6.2 partitions VBs among MTLs by
    /// the high-order VBID bits). A standalone MTL is shard 0 of 1.
    shard_index: u64,
    shard_bits: u32,
    /// Evict with the test module's `reference_sweep` — the scan, sort and
    /// sweep the resident index replaced — so a differential test can hold
    /// the two against each other on every reclaim, implicit ones included.
    #[cfg(test)]
    sweep_by_scan: bool,
}

impl Mtl {
    /// Creates an MTL managing `config.phys_frames` frames of memory.
    pub fn new(config: VbiConfig) -> Self {
        Self::for_shard(config, 0, 1)
    }

    /// Creates an MTL owning shard `shard_index` of `shard_count` — the
    /// home-MTL partitioning of §6.2, where the high-order bits of a VBID
    /// name the MTL that manages the VB. [`Mtl::find_free_vb`] only returns
    /// VBs homed on this shard, so a set of `for_shard` MTLs carves the VB
    /// space into disjoint slices (each shard still brings its own
    /// `config.phys_frames` of physical memory).
    ///
    /// `for_shard(config, 0, 1)` is exactly [`Mtl::new`].
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is not a power of two in `[1, 256]` or
    /// `shard_index >= shard_count`.
    pub fn for_shard(config: VbiConfig, shard_index: usize, shard_count: usize) -> Self {
        assert!(
            shard_count.is_power_of_two() && (1..=256).contains(&shard_count),
            "shard count must be a power of two in [1, 256]"
        );
        assert!(shard_index < shard_count, "shard index {shard_index} of {shard_count}");
        Self {
            frames: FrameAllocator::new(&config),
            mem: PhysicalMemory::new(config.phys_frames),
            vits: VbInfoTables::new(),
            vit_cache: Tlb::fully_associative(config.vit_cache_entries),
            page_tlb: Tlb::new(config.mtl_tlb_entries, config.mtl_tlb_ways),
            direct_tlb: Tlb::fully_associative(config.mtl_direct_tlb_entries),
            reservations: Reservations::default(),
            frame_shares: HashMap::new(),
            swap: Box::new(BackingStore::new()),
            resident: BTreeSet::new(),
            ref_bits: HashSet::new(),
            clock_hand: None,
            stats: MtlStats::default(),
            shard_index: shard_index as u64,
            shard_bits: shard_count.trailing_zeros(),
            #[cfg(test)]
            sweep_by_scan: false,
            config,
        }
    }

    /// The shard a VBUID is homed on in a `shard_count`-way partition: the
    /// high-order `log2(shard_count)` bits of its VBID. Deterministic — the
    /// same VBUID always routes to the same shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is not a power of two in `[1, 256]`.
    pub fn shard_of(vbuid: Vbuid, shard_count: usize) -> usize {
        assert!(
            shard_count.is_power_of_two() && (1..=256).contains(&shard_count),
            "shard count must be a power of two in [1, 256]"
        );
        let bits = shard_count.trailing_zeros();
        let shift = vbuid.size_class().vbid_bits() - bits;
        (vbuid.vbid() >> shift) as usize
    }

    /// This MTL's `(shard_index, shard_count)`; `(0, 1)` for a standalone
    /// MTL.
    pub fn shard(&self) -> (usize, usize) {
        (self.shard_index as usize, 1usize << self.shard_bits)
    }

    /// Whether `vbuid` is homed on this shard.
    pub fn owns(&self, vbuid: Vbuid) -> bool {
        let shift = vbuid.size_class().vbid_bits() - self.shard_bits;
        (vbuid.vbid() >> shift) == self.shard_index
    }

    /// The active configuration.
    pub fn config(&self) -> &VbiConfig {
        &self.config
    }

    /// Accumulated statistics, with the frame cache's counters folded in.
    pub fn stats(&self) -> MtlStats {
        let mut stats = self.stats;
        let cache = self.frames.cache_stats();
        stats.frame_cache_hits = cache.cache_hits;
        stats.frame_cache_misses = cache.cache_misses;
        stats.frame_cache_refills = cache.refills;
        stats.frame_cache_flushes = cache.flushes;
        stats.frame_cache_batch_frees = cache.batch_frees;
        stats
    }

    /// Translation TLB counters (page-granularity + whole-VB direct TLBs,
    /// merged) — the structure-level view behind [`MtlStats::tlb_hits`].
    pub fn tlb_stats(&self) -> crate::tlb::TlbStats {
        let mut t = self.page_tlb.stats();
        t.merge(&self.direct_tlb.stats());
        t
    }

    /// Clears statistics (simulation warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.stats = MtlStats::default();
        self.frames.reset_stats();
        self.vit_cache.reset_stats();
        self.page_tlb.reset_stats();
        self.direct_tlb.reset_stats();
    }

    /// Frames currently free, wherever the allocator keeps them (see
    /// [`FrameAllocator::free_frames`]).
    pub fn free_frames(&self) -> u64 {
        self.frames.free_frames()
    }

    /// Returns every cached frame to the allocator's pool and reports how
    /// many moved — the hook tests use to compare pool-level occupancy with
    /// a cache-disabled run. Nothing in the MTL depends on it.
    pub fn flush_frame_cache(&mut self) -> u64 {
        self.frames.drain()
    }

    /// External fragmentation of the free pool at `order`: the fraction of
    /// it not usable for a contiguous block of `2^order` frames (see
    /// [`FrameAllocator::fragmentation`]).
    pub fn fragmentation(&self, order: Order) -> f64 {
        self.frames.fragmentation(order)
    }

    /// Number of payload-bearing pages currently in the backing store
    /// (zero pages occupy slots but hold no data).
    pub fn swap_occupancy(&self) -> usize {
        self.swap.len() - self.swap.zero_len()
    }

    /// The backing store behind this MTL (occupancy reporting).
    pub fn backing(&self) -> &dyn PressureBackend {
        self.swap.as_ref()
    }

    /// Mutable access to the backing store (administration; the MTL itself
    /// drives it through the swap paths).
    pub fn backing_mut(&mut self) -> &mut dyn PressureBackend {
        self.swap.as_mut()
    }

    /// Replaces the backing store behind this MTL — how a slow-tier model
    /// (see `vbi-hetero`) is installed. Refused once pages have been
    /// swapped out: live slots would dangle in the old store.
    pub fn set_backing(&mut self, backend: Box<dyn PressureBackend>) -> Result<()> {
        if !self.swap.is_empty() {
            return Err(VbiError::SwapFailure { reason: "backing store has live slots" });
        }
        self.swap = backend;
        Ok(())
    }

    // --- VB lifecycle -------------------------------------------------------

    /// Scans the VITs for a free VB of `size_class` in `vm`'s VBID slice
    /// (the OS side of `request_vb`, §4.2; §6.1's slice is the whole class
    /// when [`VbiConfig::vm_id_bits`] is 0). A sharded MTL
    /// ([`Mtl::for_shard`]) only returns VBs homed on its own VBID slice, so
    /// the VB lies in both.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::OutOfVirtualBlocks`] when the class (or the
    /// VM's and this shard's slice of it) is exhausted.
    pub fn find_free_vb(&self, size_class: SizeClass, vm: VmId) -> Result<Vbuid> {
        let slice = size_class.vb_count() >> self.shard_bits;
        let lo = self.shard_index * slice;
        let in_vm = self.config.vm_partition().vbids(vm, size_class);
        self.vits.find_free_in(size_class, lo.max(in_vm.start), (lo + slice).min(in_vm.end))
    }

    /// Executes `enable_vb VBUID, props` (§4.2): marks the VB enabled in its
    /// VIT with the given property bitvector.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbAlreadyEnabled`] if the VB is enabled.
    pub fn enable_vb(&mut self, vbuid: Vbuid, props: VbProperties) -> Result<()> {
        self.vits.enable(vbuid, props)
    }

    /// Executes `disable_vb VBUID` (§4.2.4): destroys all state of the VB —
    /// translation structure, physical frames (respecting copy-on-write
    /// sharing), reservation, swap slots, and TLB/VIT-cache entries.
    ///
    /// The caller (OS) is responsible for having invalidated the VB's cache
    /// lines; this function returns the VBUID whose lines must be (lazily)
    /// cleaned, mirroring the paper's background cleanup.
    ///
    /// # Errors
    ///
    /// [`VbiError::VbNotEnabled`] or [`VbiError::VbInUse`].
    pub fn disable_vb(&mut self, vbuid: Vbuid) -> Result<Vbuid> {
        let entry = self.vits.disable(vbuid)?;
        if let Some(structure) = entry.translation {
            for (page, frame, _) in structure.mapped_pages() {
                self.release_data_frame(frame);
                self.resident.remove(&(vbuid, page));
                self.ref_bits.remove(&(vbuid, page));
            }
            for (_, slot) in structure.swapped_pages() {
                self.swap.discard(slot);
            }
            structure.release_tables(&mut self.frames);
        }
        self.teardown_reservation(vbuid);
        self.page_tlb.invalidate_matching(|(vb, _)| *vb == vbuid);
        self.direct_tlb.invalidate(&vbuid);
        self.vit_cache.invalidate(&vbuid);
        Ok(vbuid)
    }

    /// Increments the VB's reference count (the MTL side of `attach`).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] if the VB is not enabled.
    pub fn add_ref(&mut self, vbuid: Vbuid) -> Result<u32> {
        self.vits.add_ref(vbuid)
    }

    /// Decrements the VB's reference count (the MTL side of `detach`).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] if the VB is not enabled.
    pub fn remove_ref(&mut self, vbuid: Vbuid) -> Result<u32> {
        self.vits.remove_ref(vbuid)
    }

    /// The VB's property bitvector.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] if the VB is not enabled.
    pub fn props(&self, vbuid: Vbuid) -> Result<VbProperties> {
        Ok(self.vits.entry(vbuid)?.props)
    }

    /// The VB's current reference count (number of attached clients).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] for disabled VBs.
    pub fn ref_count(&self, vbuid: Vbuid) -> Result<u32> {
        Ok(self.vits.entry(vbuid)?.refcount)
    }

    /// The VB's current translation-structure kind (`None` before first
    /// allocation).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] if the VB is not enabled.
    pub fn translation_kind(&self, vbuid: Vbuid) -> Result<Option<TranslationKind>> {
        Ok(self.vits.entry(vbuid)?.translation_kind())
    }

    /// Executes `clone_vb SVBUID, DVBUID` (§4.4): makes `dst` a copy-on-write
    /// clone of `src`. All mapped pages become shared and COW-marked in both
    /// VBs; data is copied lazily on the first write to either side. Pages of
    /// `src` that are swapped out are duplicated in the backing store.
    ///
    /// # Errors
    ///
    /// [`VbiError::VbNotEnabled`] for either VB, or
    /// [`VbiError::CloneSizeMismatch`] when size classes differ.
    pub fn clone_vb(&mut self, src: Vbuid, dst: Vbuid) -> Result<()> {
        if src.size_class() != dst.size_class() {
            return Err(VbiError::CloneSizeMismatch { source: src, destination: dst });
        }
        self.vits.entry(dst)?; // dst must be enabled

        // Take the source structure, mark it COW, rebuild a structure for dst.
        let Some(mut src_structure) = self.vits.entry_mut(src)?.translation.take() else {
            self.stats.vbs_cloned += 1;
            return Ok(()); // nothing allocated yet; nothing to share
        };
        src_structure.mark_all_cow();

        // A clone shares the source's frames, which are not the clone's own
        // contiguous region, so the clone's structure is table-based from
        // the start. All fallible work happens before any share is
        // accounted, so a failed clone can restore the source untouched
        // (the COW marking only costs a copy on the next write).
        let mut dst_structure = match self.table_structure_for(dst.size_class()) {
            Ok(structure) => structure,
            Err(e) => {
                self.vits.entry_mut(src)?.translation = Some(src_structure);
                return Err(e);
            }
        };
        let mut dup_slots = Vec::new();
        if let Err(e) = self.build_clone_entries(&src_structure, &mut dst_structure, &mut dup_slots)
        {
            // Unwind: nothing is shared yet — drop the duplicated swap
            // slots and the clone's table nodes, put the source back.
            for slot in dup_slots {
                self.swap.discard(slot);
            }
            dst_structure.release_tables(&mut self.frames);
            self.vits.entry_mut(src)?.translation = Some(src_structure);
            return Err(e);
        }
        // Infallible from here: account the shares (every shared page is
        // now resident in the clone too), publish both structures.
        for (page, frame, _) in src_structure.mapped_pages() {
            *self.frame_shares.entry(frame.0).or_insert(1) += 1;
            self.resident.insert((dst, page));
        }
        self.vits.entry_mut(src)?.translation = Some(src_structure);
        self.vits.entry_mut(dst)?.translation = Some(dst_structure);
        // COW marking invalidates cached translations of the source.
        self.page_tlb.invalidate_matching(|(vb, _)| *vb == src);
        self.direct_tlb.invalidate(&src);
        self.stats.vbs_cloned += 1;
        Ok(())
    }

    /// The fallible half of [`Mtl::clone_vb`]: fills the clone's structure
    /// with COW-shared mappings and duplicated swap slots, recording each
    /// duplicate so a failed clone can discard it again.
    fn build_clone_entries(
        &mut self,
        src_structure: &TranslationStructure,
        dst_structure: &mut TranslationStructure,
        dup_slots: &mut Vec<SwapSlot>,
    ) -> Result<()> {
        for (page, frame, _) in src_structure.mapped_pages() {
            dst_structure.set_entry(
                page,
                PageEntry::Mapped { frame, cow: true },
                &mut self.frames,
            )?;
        }
        for (page, slot) in src_structure.swapped_pages() {
            let dup = self.swap.duplicate(slot)?;
            dup_slots.push(dup);
            dst_structure.set_entry(page, PageEntry::Swapped(dup), &mut self.frames)?;
        }
        Ok(())
    }

    /// Copies the resident contents of `from` (homed on `src`) into the
    /// freshly enabled, same-sized `to` — the data-movement half of §4.2.2's
    /// "seamlessly migrate/copy VBs" and §6.2's cross-MTL migration, run by
    /// the op engine's `Op::Migrate`. `dst` is the destination's home MTL
    /// when it differs from the source's (`None` = both VBs live on `src`:
    /// a migration to the shard the VB is already homed on).
    ///
    /// The copy goes page by page and skips never-allocated pages, so
    /// delayed allocation survives the migration; swapped-out source pages
    /// are faulted back in and copied. The caller redirects CVT entries and
    /// disables `from` afterwards.
    ///
    /// # Errors
    ///
    /// Any translation error on either MTL.
    pub fn migrate_contents(
        src: &mut Mtl,
        mut dst: Option<&mut Mtl>,
        from: Vbuid,
        to: Vbuid,
    ) -> Result<()> {
        if from.size_class() != to.size_class() {
            return Err(VbiError::CloneSizeMismatch { source: from, destination: to });
        }
        for page in 0..from.size_class().pages() {
            let src_addr = from.address(page << 12)?;
            // A read probe swaps the page in if needed; unbacked pages stay
            // unbacked on the destination too.
            let backed = matches!(
                src.translate(src_addr, MtlAccess::Read)?.result,
                TranslateResult::Mapped(_)
            );
            if !backed {
                continue;
            }
            for line in 0..(4096 / 8) {
                let offset = (page << 12) + line * 8;
                let value = src.read_u64(from.address(offset)?)?;
                if value != 0 {
                    let to_addr = to.address(offset)?;
                    match dst.as_deref_mut() {
                        Some(dst) => dst.write_u64(to_addr, value)?,
                        None => src.write_u64(to_addr, value)?,
                    }
                }
            }
        }
        src.stats.vbs_migrated += 1;
        Ok(())
    }

    /// Executes `promote_vb SVBUID, LVBUID` (§4.4): moves all translation
    /// state of the smaller VB `src` into the larger, freshly enabled VB
    /// `dst`, so the early portion of `dst` maps to the same physical memory
    /// as `src`. `src` is left enabled but empty; the OS detaches and
    /// disables it afterwards.
    ///
    /// # Errors
    ///
    /// [`VbiError::VbNotEnabled`] for either VB, or
    /// [`VbiError::PromoteNotLarger`] when `dst` is not a larger class.
    pub fn promote_vb(&mut self, src: Vbuid, dst: Vbuid) -> Result<()> {
        if dst.size_class() <= src.size_class() {
            return Err(VbiError::PromoteNotLarger { source: src, destination: dst });
        }
        self.vits.entry(dst)?;
        let Some(src_structure) = self.vits.entry_mut(src)?.translation.take() else {
            self.stats.promotions += 1;
            return Ok(()); // nothing to move
        };
        let (mut dst_structure, dst_was_fresh) = match self.vits.entry_mut(dst)?.translation.take()
        {
            Some(s) => (s, false),
            None => match self.table_structure_for(dst.size_class()) {
                Ok(s) => (s, true),
                Err(e) => {
                    self.vits.entry_mut(src)?.translation = Some(src_structure);
                    return Err(e);
                }
            },
        };
        // Fallible phase: copy every entry into the destination. On failure
        // the source still owns all frames and swap slots, so unwinding is
        // unsetting what was copied and restoring both structures.
        let mut copied = Vec::new();
        let filled = (|| -> Result<()> {
            for (page, frame, cow) in src_structure.mapped_pages() {
                dst_structure.set_entry(
                    page,
                    PageEntry::Mapped { frame, cow },
                    &mut self.frames,
                )?;
                copied.push(page);
            }
            for (page, slot) in src_structure.swapped_pages() {
                dst_structure.set_entry(page, PageEntry::Swapped(slot), &mut self.frames)?;
                copied.push(page);
            }
            Ok(())
        })();
        if let Err(e) = filled {
            if dst_was_fresh {
                dst_structure.release_tables(&mut self.frames);
            } else {
                for page in copied {
                    // Unsetting a just-set entry walks existing nodes only.
                    let _ = dst_structure.set_entry(page, PageEntry::Unmapped, &mut self.frames);
                }
                self.vits.entry_mut(dst)?.translation = Some(dst_structure);
            }
            self.vits.entry_mut(src)?.translation = Some(src_structure);
            return Err(e);
        }
        // The source's resident pages are the destination's now. Their
        // reference bits go with the emptied source (a bit is only ever
        // consumed for a resident page, and the next translation of the
        // destination's page sets its own).
        for (page, _, _) in src_structure.mapped_pages() {
            self.resident.remove(&(src, page));
            self.ref_bits.remove(&(src, page));
            self.resident.insert((dst, page));
        }
        src_structure.release_tables(&mut self.frames);
        // The source's reservation goes: its used frames now belong to the
        // destination's pages and are freed through them.
        self.teardown_reservation(src);
        self.vits.entry_mut(dst)?.translation = Some(dst_structure);
        self.page_tlb.invalidate_matching(|(vb, _)| *vb == src);
        self.direct_tlb.invalidate(&src);
        self.vit_cache.invalidate(&src);
        self.stats.promotions += 1;
        Ok(())
    }

    // --- translation --------------------------------------------------------

    /// Translates a VBI address for an LLC miss or writeback — the MTL's
    /// main entry point (§4.2.3 steps 7-9).
    ///
    /// # Errors
    ///
    /// [`VbiError::VbNotEnabled`] for addresses in disabled VBs, or
    /// [`VbiError::OutOfPhysicalMemory`] when allocation is required and
    /// neither free nor reclaimable memory exists.
    pub fn translate(&mut self, addr: VbiAddress, access: MtlAccess) -> Result<Translation> {
        self.stats.translation_requests += 1;
        // Keep a small cushion of unreserved frames so internal allocations
        // (table nodes, COW copies) never dead-end while reservations hold
        // free memory hostage (priority 3 of §5.3 applied to the pool).
        self.replenish_pool();
        let vbuid = addr.vbuid();
        let page = addr.page_index();
        let line_offset = addr.offset() & (FRAME_BYTES - 1);
        let mut events = TranslationEvents::default();

        // 1. MTL TLB lookup (whole-VB entries first, then page-grain).
        if let Some(base) = self.direct_tlb.lookup(&vbuid) {
            // A direct hit still consults the VB's functional state: an
            // unallocated region must yield a zero line (not a stale frame),
            // and a writeback to a copy-on-write region must resolve first.
            let entry = self.vits.entry(vbuid)?;
            let outcome = entry.translation.as_ref().map(|s| s.walk(page).outcome);
            if let Some(WalkOutcome::Mapped { cow, .. }) = outcome {
                let needs_cow = cow && access == MtlAccess::Writeback;
                if !needs_cow {
                    self.stats.tlb_hits += 1;
                    events.mtl_tlb_hit = true;
                    self.ref_bits.insert((vbuid, page));
                    return Ok(Translation {
                        result: TranslateResult::Mapped(
                            base.offset(page).base().offset(line_offset),
                        ),
                        events,
                    });
                }
            }
            // Fall through to the slow path to allocate, zero-fill, or copy.
        } else if let Some((frame, cow)) = self.page_tlb.lookup(&(vbuid, page)) {
            let needs_cow = cow && access == MtlAccess::Writeback;
            if !needs_cow {
                self.stats.tlb_hits += 1;
                events.mtl_tlb_hit = true;
                self.ref_bits.insert((vbuid, page));
                return Ok(Translation {
                    result: TranslateResult::Mapped(frame.base().offset(line_offset)),
                    events,
                });
            }
            // Writeback to a COW page: resolve below via the walk path.
        }

        // 2. VIT cache: locate the translation structure. A miss costs one
        //    memory access to the VB Info Table.
        let entry = self.vits.entry(vbuid)?;
        let kind = entry.translation_kind();
        match (self.vit_cache.lookup(&vbuid), kind) {
            (Some(_), _) => {
                events.vit_cache_hit = true;
                self.stats.vit_cache_hits += 1;
            }
            (None, k) => {
                self.stats.vit_cache_misses += 1;
                events.table_accesses.push(self.vits.entry_addr(vbuid));
                if let Some(k) = k {
                    self.vit_cache.insert(vbuid, k);
                }
            }
        }

        // 3. Walk (or create) the translation structure.
        self.stats.walks += 1;
        let (outcome, walk_accesses) = match &self.vits.entry(vbuid)?.translation {
            Some(structure) => {
                let walk = structure.walk(page);
                (Some(walk.outcome), walk.table_accesses)
            }
            None => (None, Vec::new()),
        };
        self.stats.walk_table_accesses += walk_accesses.len() as u64;
        events.table_accesses.extend(walk_accesses);

        let result = match (outcome, access) {
            // Mapped, read: done. Mapped COW, writeback: copy first.
            (Some(WalkOutcome::Mapped { frame, cow }), access) => {
                let frame = if cow && access == MtlAccess::Writeback {
                    events.cow_copy = true;
                    self.resolve_cow(vbuid, page, frame)?
                } else {
                    frame
                };
                self.fill_tlb(vbuid, page, frame);
                TranslateResult::Mapped(frame.base().offset(line_offset))
            }
            // Swapped: bring the page back (the paper interrupts the OS to
            // copy from storage; we model the copy directly).
            (Some(WalkOutcome::Swapped(slot)), _) => {
                let frame = self.swap_in(vbuid, page, slot)?;
                self.stats.faults_in += 1;
                events.swapped_in = true;
                events.allocated = true;
                self.fill_tlb(vbuid, page, frame);
                TranslateResult::Mapped(frame.base().offset(line_offset))
            }
            // Unmapped read under delayed allocation: zero line, no DRAM
            // access, no allocation (§5.1).
            (None | Some(WalkOutcome::Unmapped), MtlAccess::Read)
                if self.config.delayed_allocation =>
            {
                self.stats.zero_line_returns += 1;
                TranslateResult::ZeroLine
            }
            // Otherwise allocate now (VBI-1 reads, or any writeback).
            (None | Some(WalkOutcome::Unmapped), access) => {
                let frame = self.allocate_and_map(vbuid, page)?;
                events.allocated = true;
                if access == MtlAccess::Writeback {
                    self.stats.delayed_allocations += 1;
                }
                self.fill_tlb(vbuid, page, frame);
                TranslateResult::Mapped(frame.base().offset(line_offset))
            }
        };
        Ok(Translation { result, events })
    }

    fn fill_tlb(&mut self, vbuid: Vbuid, page: u64, frame: Frame) {
        // Every resident translation marks its page referenced: the access
        // bits the eviction policy's second-chance sweep consumes.
        self.ref_bits.insert((vbuid, page));
        // Whole-VB entries for fully direct VBs; page-grain otherwise.
        let entry = self.vits.entry(vbuid).expect("caller verified enabled");
        match entry.translation.as_ref() {
            Some(s) => {
                if let Some(base) = s.direct_base() {
                    self.direct_tlb.insert(vbuid, base);
                } else {
                    let cow = matches!(s.entry(page), PageEntry::Mapped { cow: true, .. });
                    self.page_tlb.insert((vbuid, page), (frame, cow));
                }
            }
            None => {
                self.page_tlb.insert((vbuid, page), (frame, false));
            }
        }
    }

    // --- functional data access ----------------------------------------------

    /// Functional read of a byte. Reads of unallocated regions return zero
    /// (the zero-line path).
    ///
    /// # Errors
    ///
    /// Any translation error.
    pub fn read_u8(&mut self, addr: VbiAddress) -> Result<u8> {
        match self.translate(addr, MtlAccess::Read)?.result {
            TranslateResult::Mapped(pa) => Ok(self.mem.read_u8(pa)),
            TranslateResult::ZeroLine => Ok(0),
        }
    }

    /// Functional write of a byte. Writes allocate (they model the eventual
    /// dirty-line writeback reaching the MTL).
    ///
    /// # Errors
    ///
    /// Any translation error.
    pub fn write_u8(&mut self, addr: VbiAddress, value: u8) -> Result<()> {
        match self.translate(addr, MtlAccess::Writeback)?.result {
            TranslateResult::Mapped(pa) => {
                self.mem.write_u8(pa, value);
                Ok(())
            }
            TranslateResult::ZeroLine => unreachable!("writebacks always allocate"),
        }
    }

    /// Functional read of a little-endian `u64` (handles page straddling).
    ///
    /// # Errors
    ///
    /// Any translation error, including out-of-VB straddles.
    pub fn read_u64(&mut self, addr: VbiAddress) -> Result<u64> {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.offset_by(i as u64)?)?;
        }
        Ok(u64::from_le_bytes(bytes))
    }

    /// Functional write of a little-endian `u64` (handles page straddling).
    ///
    /// # Errors
    ///
    /// Any translation error, including out-of-VB straddles.
    pub fn write_u64(&mut self, addr: VbiAddress, value: u64) -> Result<()> {
        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(addr.offset_by(i as u64)?, b)?;
        }
        Ok(())
    }

    // --- capacity management --------------------------------------------------

    /// Moves one mapped page of `vbuid` to the backing store, freeing its
    /// frame (the MTL half of the paper's capacity-management system calls).
    ///
    /// The VB's translation structure stays in its VIT entry while the
    /// backend runs, so a backend that panics mid-store costs the VB only
    /// the payload it had already been handed: that one page stays mapped
    /// and reads zero, every other page and all frame accounting survive.
    ///
    /// # Errors
    ///
    /// [`VbiError::VbNotEnabled`], or [`VbiError::SwapFailure`] if the page
    /// is not currently mapped or belongs to a direct-mapped VB (direct VBs
    /// are demoted before swapping).
    pub fn swap_out_page(&mut self, vbuid: Vbuid, page: u64) -> Result<()> {
        // Direct structures swap per-page only after demotion to tables.
        if let Some(TranslationKind::Direct) = self.vits.entry(vbuid)?.translation_kind() {
            match self.demote_in_place(vbuid, None) {
                // Every frame in the machine holds data, so the demotion
                // table cannot be funded the normal way. Eviction must
                // still make progress ("need a frame to free a frame"):
                // swap the victim out first and let its own frame pay for
                // the table.
                Err(VbiError::OutOfPhysicalMemory) => {
                    return self.swap_out_direct_self_funded(vbuid, page);
                }
                demoted => demoted?,
            }
        }
        let (frame, slot) = self.write_back(vbuid, page)?;
        let structure =
            self.vits.entry_mut(vbuid)?.translation.as_mut().expect("write_back saw the page");
        structure.set_entry(page, PageEntry::Swapped(slot), &mut self.frames)?;
        self.release_data_frame(frame);
        self.note_swapped_out(vbuid, page);
        Ok(())
    }

    /// The backing-store half of a swap-out: checks that `page` is mapped
    /// and not copy-on-write shared, hands its payload to the backend and
    /// returns the frame it still occupies and the slot that now holds it.
    /// The mapping is untouched — on error (the backend is full and handed
    /// the page back) the page simply stays resident.
    fn write_back(&mut self, vbuid: Vbuid, page: u64) -> Result<(Frame, SwapSlot)> {
        let entry = self.vits.entry(vbuid)?.translation.as_ref().map(|s| s.entry(page));
        let Some(PageEntry::Mapped { frame, cow }) = entry else {
            return Err(VbiError::SwapFailure { reason: "page not mapped" });
        };
        if cow && self.frame_shares.get(&frame.0).copied().unwrap_or(1) > 1 {
            return Err(VbiError::SwapFailure { reason: "page is copy-on-write shared" });
        }
        let full =
            VbiError::BackingStoreFull { capacity_pages: self.swap.capacity_pages().unwrap_or(0) };
        let slot = match self.mem.take_frame(frame) {
            Some(data) => match self.swap.try_store(data) {
                Ok(slot) => {
                    self.stats.writebacks += 1;
                    slot
                }
                Err(data) => {
                    self.mem.put_frame(frame, data);
                    return Err(full);
                }
            },
            None => self.swap.try_store_zero().ok_or(full)?,
        };
        Ok((frame, slot))
    }

    /// The bookkeeping every completed swap-out ends with: the page has no
    /// frame any more, so it leaves the TLB, the resident index and the
    /// reference bits.
    fn note_swapped_out(&mut self, vbuid: Vbuid, page: u64) {
        self.page_tlb.invalidate(&(vbuid, page));
        self.resident.remove(&(vbuid, page));
        self.ref_bits.remove(&(vbuid, page));
        self.stats.pages_swapped_out += 1;
    }

    /// Swaps `page` out of a direct-mapped VB when physical memory is so
    /// exhausted that the demotion table cannot be allocated: the victim's
    /// data goes to the backing store first, its frame is released, and the
    /// demotion then funds its table from that very frame, recording the
    /// victim as `Swapped` in the new table. Restricted to size classes
    /// whose single-level table fits one frame, which makes funding — and
    /// therefore the demotion — infallible once the frame is released, so
    /// no rollback of the committed swap store is ever needed.
    ///
    /// As in [`Mtl::swap_out_page`], the structure is in its VIT entry
    /// while the backend runs; on error the VB is as it was.
    fn swap_out_direct_self_funded(&mut self, vbuid: Vbuid, page: u64) -> Result<()> {
        let size_class = vbuid.size_class();
        let one_frame_table = !matches!(
            TranslationKind::static_policy(size_class),
            TranslationKind::MultiLevel { .. }
        ) && size_class.pages() * 8 <= FRAME_BYTES;
        if !one_frame_table {
            // A multi-frame demotion could still dead-end after the single
            // freed frame; without a safe rollback the only sound answer is
            // the original error. The page stays resident.
            return Err(VbiError::OutOfPhysicalMemory);
        }
        let (frame, slot) = self.write_back(vbuid, page)?;
        // The released frame lands either as a Reserved slot (released to
        // the pool by the demotion's funding loop) or with the allocator —
        // either way the one-frame table allocation succeeds.
        self.release_data_frame(frame);
        self.demote_in_place(vbuid, Some((page, slot)))
            .expect("the victim's own frame funds a one-frame demotion table");
        self.note_swapped_out(vbuid, page);
        Ok(())
    }

    /// Reclaims up to `count` pages by swapping out mapped pages of enabled
    /// VBs other than `exclude`, preferring non-pinned VBs. Returns how many
    /// pages were reclaimed.
    pub fn reclaim_pages(&mut self, count: usize, exclude: Vbuid) -> usize {
        self.reclaim_policy(count, Some(exclude), None)
    }

    /// Policy-evicts up to `count` resident pages with no VB excluded — the
    /// ballooning / quota form of §3.4's capacity management. Returns how
    /// many pages were evicted.
    pub fn reclaim_frames(&mut self, count: usize) -> usize {
        self.reclaim_policy(count, None, None)
    }

    /// Policy-evicts up to `count` resident pages while protecting a single
    /// page — the engine's evict-on-allocation-failure path, which must be
    /// free to evict *other* pages of the faulting VB (a VB larger than
    /// physical memory can only make progress by self-eviction) but must
    /// never evict the page being accessed.
    pub fn reclaim_for(&mut self, vbuid: Vbuid, page: u64, count: usize) -> usize {
        self.reclaim_policy(count, None, Some((vbuid, page)))
    }

    /// Donor half of cross-shard frame borrowing: permanently cedes up to
    /// `count` frames of this shard's capacity, evicting resident pages
    /// first if the free pool is short. Returns how many frames were ceded
    /// (the adoptee must [`Mtl::adopt_frames`] exactly that many to conserve
    /// global capacity).
    ///
    /// The ceded frames stay registered inside this shard's allocator as
    /// permanently allocated blocks; frame indices are shard-local, so
    /// capacity moves as a *count*, never as addresses.
    pub fn donate_frames(&mut self, count: usize) -> u64 {
        let free = self.frames.free_frames() as usize;
        if free < count {
            self.reclaim_frames(count - free);
        }
        self.frames.retire(count as u64)
    }

    /// Adoptee half of cross-shard frame borrowing: grows this shard's
    /// physical capacity by `count` fresh frames (minted at the end of the
    /// shard-local frame range), all immediately free.
    pub fn adopt_frames(&mut self, count: u64) {
        self.frames.grow(count);
        self.mem.grow(count);
    }

    /// The eviction sweep behind every reclaim entry point.
    ///
    /// The sweep walks the resident index — the ordered set of
    /// `(vbuid, page)` pairs that have a frame, which the MTL keeps current
    /// as it maps, unmaps, swaps out and faults in — from the persistent
    /// clock hand, one `O(log n)` range step per page visited. A VB that is
    /// excluded, or pinned when the pass wants unpinned ones (or the
    /// reverse), is stepped over whole with one range jump.
    ///
    /// Victim order is deterministic because the key order is: candidates
    /// come up sorted by `(vbuid, page)` and rotated to resume after the
    /// hand, so identically-driven MTLs (the 1-shard service vs `System`
    /// equivalence, split-vs-combined stats runs) pick identical victims
    /// regardless of hash-map iteration order. The sweep is clock /
    /// second-chance (§3.4): a set reference bit buys the page one sweep of
    /// grace (the bit is cleared and the hand moves on). Unpinned VBs are
    /// always swept before pinned ones.
    ///
    /// Two laps bound each pass: the first clears reference bits, the
    /// second can no longer be refused by them. A lap covers the candidates
    /// as they stood when the pass began — the sweep only ever removes
    /// pages it has already visited. The hand rests on the last page
    /// visited, which is the page just evicted when the sweep met its
    /// count; when both laps run out first it rests on the last page of the
    /// first lap, evicted or not, so the next sweep starts where this one
    /// did.
    fn reclaim_policy(
        &mut self,
        count: usize,
        exclude: Option<Vbuid>,
        protect: Option<(Vbuid, u64)>,
    ) -> usize {
        debug_assert_eq!(self.audit(), Ok(()));
        #[cfg(test)]
        if self.sweep_by_scan {
            return self.reference_sweep(count, exclude, protect);
        }
        let mut reclaimed = 0;
        // Two passes: first unpinned VBs, then (reluctantly) pinned ones.
        for pinned in [false, true] {
            let pass = SweepPass { pinned, exclude, protect };
            let start = self.clock_hand;
            let lap_one_end = self.sweep_lap(pass, start, count, &mut reclaimed);
            if reclaimed < count && lap_one_end.is_some() {
                self.sweep_lap(pass, start, count, &mut reclaimed);
                if reclaimed < count {
                    // Both laps ran out: park the hand where lap one ended,
                    // even if that page has since been evicted.
                    self.clock_hand = lap_one_end;
                }
            }
        }
        reclaimed
    }

    /// One lap of a sweep pass: visits the pass's candidates from the page
    /// after `start` to the end of the index, then from the beginning up to
    /// `start` itself, evicting until `reclaimed` reaches `count`. Returns
    /// the last page visited (`None` when it visited none).
    fn sweep_lap(
        &mut self,
        pass: SweepPass,
        start: Option<(Vbuid, u64)>,
        count: usize,
        reclaimed: &mut usize,
    ) -> Option<(Vbuid, u64)> {
        let mut after = start.map_or(Unbounded, Excluded);
        let mut wrapped = false;
        let mut last = None;
        while *reclaimed < count {
            let key = match self.next_candidate(after, pass) {
                Some(key) if !wrapped || Some(key) <= start => key,
                None if !wrapped && start.is_some() => {
                    (after, wrapped) = (Unbounded, true);
                    continue;
                }
                _ => break,
            };
            after = Excluded(key);
            last = Some(key);
            self.clock_hand = last;
            if self.ref_bits.remove(&key) {
                continue;
            }
            if self.swap_out_page(key.0, key.1).is_ok() {
                *reclaimed += 1;
                self.stats.evictions += 1;
            }
        }
        last
    }

    /// The first resident page after `after` that `pass` may evict.
    fn next_candidate(
        &self,
        mut after: Bound<(Vbuid, u64)>,
        pass: SweepPass,
    ) -> Option<(Vbuid, u64)> {
        loop {
            let &(vb, page) = self.resident.range((after, Unbounded)).next()?;
            let pinned = self.vits.entry(vb).is_ok_and(|e| e.props.contains(VbProperties::PINNED));
            after = if Some(vb) == pass.exclude || pinned != pass.pinned {
                // Over the whole VB in one jump: no page index reaches
                // `u64::MAX`.
                Excluded((vb, u64::MAX))
            } else if Some((vb, page)) == pass.protect {
                Excluded((vb, page))
            } else {
                return Some((vb, page));
            };
        }
    }

    /// Every mapped page of every enabled VB with the frame it maps, in
    /// `(vbuid, page)` order, read off the translation structures — what
    /// the resident index must equal, and what the sweep used to rebuild
    /// on every call.
    fn scan_mapped_pages(&self) -> Vec<((Vbuid, u64), Frame)> {
        let mut mapped = Vec::new();
        for vb in self.vits.enabled_vbs() {
            if let Some(s) = self.vits.entry(vb).ok().and_then(|e| e.translation.as_ref()) {
                mapped.extend(s.mapped_pages().into_iter().map(|(p, frame, _)| ((vb, p), frame)));
            }
        }
        mapped.sort_unstable_by_key(|&(key, _)| key);
        mapped
    }

    /// Checks the residency and frame bookkeeping against the translation
    /// structures and the allocator:
    ///
    /// * the resident index holds exactly the mapped pages of the enabled
    ///   VBs;
    /// * `frame_shares` is the multiset of frames those pages map — every
    ///   entry counts the pages naming its frame, and no frame is counted
    ///   that no page maps;
    /// * every reference bit belongs to a resident page;
    /// * early reservation's counts of unused slots (per run and
    ///   machine-wide) equal the reserved slots of its runs, and its owner
    ///   map holds exactly the reserved and used slots of live runs, each
    ///   naming its own run;
    /// * frame conservation: the frames the allocator has out (neither
    ///   free nor retired by a donation) are as many as the data frames in
    ///   `frame_shares`, the reserved-but-unused slots of every reservation
    ///   and the table frames of every enabled VB's translation structure
    ///   together.
    ///
    /// Costs a full scan of every translation structure; meant for tests
    /// and debug builds (the eviction sweep asserts it on entry there).
    ///
    /// # Errors
    ///
    /// A description of the first law found broken.
    pub fn audit(&self) -> core::result::Result<(), String> {
        let mapped = self.scan_mapped_pages();
        if !mapped.iter().map(|(key, _)| key).eq(self.resident.iter()) {
            let scanned: BTreeSet<_> = mapped.iter().map(|&(key, _)| key).collect();
            return Err(format!(
                "resident index out of step with the translation structures: \
                 indexed but not mapped {:?}, mapped but not indexed {:?}",
                self.resident.difference(&scanned).collect::<Vec<_>>(),
                scanned.difference(&self.resident).collect::<Vec<_>>(),
            ));
        }
        let mut frames: Vec<u64> = mapped.iter().map(|(_, frame)| frame.0).collect();
        frames.sort_unstable();
        let mut distinct = 0;
        for sharers in frames.chunk_by(|a, b| a == b) {
            distinct += 1;
            let counted = self.frame_shares.get(&sharers[0]).copied();
            if counted != Some(sharers.len() as u32) {
                return Err(format!(
                    "frame {}: {} resident pages map it, frame_shares counts {counted:?}",
                    sharers[0],
                    sharers.len(),
                ));
            }
        }
        if distinct != self.frame_shares.len() {
            return Err(format!(
                "frame_shares counts {} frames, resident pages map {distinct}",
                self.frame_shares.len(),
            ));
        }
        if let Some(stray) = self.ref_bits.iter().find(|key| !self.resident.contains(key)) {
            return Err(format!("reference bit on non-resident page {stray:?}"));
        }
        self.reservations.audit()?;
        let data = self.frame_shares.len();
        let reserved = self.reservations.unused();
        let table: usize = self
            .vits
            .enabled_vbs()
            .filter_map(|vb| self.vits.entry(vb).ok()?.translation.as_ref())
            .map(|structure| structure.table_frames().len())
            .sum();
        let held = self.frames.held_frames();
        if held != (data + reserved + table) as u64 {
            return Err(format!(
                "frame conservation: the allocator has {held} frames out, the MTL accounts for \
                 {data} data + {reserved} reserved and unused + {table} table",
            ));
        }
        Ok(())
    }

    /// Binds file contents to a VB (memory-mapped files, §3.4): each page of
    /// `pages` is stored in the backing store and recorded as swapped-out, so
    /// the first access faults it in like any swapped page.
    ///
    /// # Errors
    ///
    /// [`VbiError::VbNotEnabled`], [`VbiError::OffsetOutOfRange`] for pages
    /// beyond the VB, or allocation failures while building the structure.
    pub fn bind_file(
        &mut self,
        vbuid: Vbuid,
        pages: impl IntoIterator<Item = (u64, Box<[u8; FRAME_BYTES as usize]>)>,
    ) -> Result<()> {
        self.vits.entry(vbuid)?;
        let mut structure = match self.vits.entry_mut(vbuid)?.translation.take() {
            Some(s) => s,
            None => self.table_structure_for(vbuid.size_class())?,
        };
        let result = (|| {
            for (page, data) in pages {
                if page >= structure.pages() {
                    return Err(VbiError::OffsetOutOfRange { vbuid, offset: page * FRAME_BYTES });
                }
                let slot = self.swap.try_store(data).map_err(|_| VbiError::BackingStoreFull {
                    capacity_pages: self.swap.capacity_pages().unwrap_or(0),
                })?;
                structure.set_entry(page, PageEntry::Swapped(slot), &mut self.frames)?;
            }
            Ok(())
        })();
        self.vits.entry_mut(vbuid)?.translation = Some(structure);
        result
    }

    // --- internals -------------------------------------------------------------

    /// The static-policy structure, but never direct (used when contiguity
    /// is not guaranteed).
    fn table_structure_for(&mut self, size_class: SizeClass) -> Result<TranslationStructure> {
        match TranslationKind::static_policy(size_class) {
            TranslationKind::Direct | TranslationKind::SingleLevel => {
                TranslationStructure::single_level(size_class, &mut self.frames)
            }
            TranslationKind::MultiLevel { .. } => {
                TranslationStructure::multi_level(size_class, &mut self.frames)
            }
        }
    }

    /// Builds a table-based replacement for a structure that must give up
    /// direct mapping, preserving all entries. The caller drops the original
    /// (direct structures own no table frames). When `replace` names a page,
    /// that page's entry is written as `Swapped` in the new table instead of
    /// copying its original mapping — the self-funding eviction path swaps
    /// the victim out *before* demoting so its frame can pay for the table.
    fn demote_structure(
        &mut self,
        size_class: SizeClass,
        structure: &TranslationStructure,
        replace: Option<(u64, SwapSlot)>,
    ) -> Result<TranslationStructure> {
        let mut table = self.table_structure_for(size_class)?;
        for (page, frame, cow) in structure.mapped_pages() {
            if replace.is_some_and(|(victim, _)| victim == page) {
                continue;
            }
            if let Err(e) =
                table.set_entry(page, PageEntry::Mapped { frame, cow }, &mut self.frames)
            {
                table.release_tables(&mut self.frames);
                return Err(e);
            }
        }
        for (page, slot) in structure.swapped_pages().into_iter().chain(replace) {
            if let Err(e) = table.set_entry(page, PageEntry::Swapped(slot), &mut self.frames) {
                table.release_tables(&mut self.frames);
                return Err(e);
            }
        }
        self.stats.demotions += 1;
        Ok(table)
    }

    /// Ensures the VB has a translation structure, running the
    /// early-reservation attempt on first allocation (§5.3).
    fn ensure_structure(&mut self, vbuid: Vbuid) -> Result<()> {
        if self.vits.entry(vbuid)?.translation.is_some() {
            return Ok(());
        }
        let size_class = vbuid.size_class();
        let run = if self.config.early_reservation {
            // A one-frame run is an ordinary data frame (the hot path of
            // 4 KiB VB request/release churn); a longer one needs
            // contiguity, which the allocator clears the way for itself.
            let run = self.frames.allocate_run(size_class.pages().trailing_zeros() as Order);
            if run.is_some() {
                self.stats.reservations_full += 1;
            } else {
                self.stats.reservations_partial += 1;
            }
            run
        } else if TranslationKind::static_policy(size_class) == TranslationKind::Direct {
            // A 4 KiB VB is a single frame: direct by construction. The frame
            // is held as a one-slot reservation until `allocate_page_frame`
            // marks it used, keeping the accounting uniform with early
            // reservation.
            Some(self.allocate_raw_frame(vbuid)?)
        } else {
            None
        };
        // A reserved run, one slot per page, direct-maps the VB.
        let structure = match run {
            Some(base) => {
                self.reservations.reserve(vbuid, base, size_class.pages());
                let mut structure = TranslationStructure::direct(size_class);
                structure.set_direct_base(base);
                structure
            }
            None => self.table_structure_for(size_class)?,
        };
        self.vits.entry_mut(vbuid)?.translation = Some(structure);
        Ok(())
    }

    /// Allocates one frame honouring the three-level priority of §5.3:
    /// (1) frames reserved for this VB, (2) unreserved free frames,
    /// (3) frames reserved for other VBs (stealing).
    fn allocate_page_frame(&mut self, vbuid: Vbuid, page: u64) -> Result<Frame> {
        // Priority 1: the slot the VB's own reservation holds for the page.
        let frame = match self.reservations.take_own(vbuid, page) {
            Some(frame) => frame,
            None => self.allocate_raw_frame(vbuid)?,
        };
        self.frame_shares.insert(frame.0, 1);
        self.stats.pages_allocated += 1;
        Ok(frame)
    }

    /// Priorities 2 (unreserved free frame) and 3 (steal from another VB's
    /// reservation), retried once after swapping a page out.
    ///
    /// Stealing a reserved-but-unallocated frame does NOT break the owner's
    /// direct mapping: "a VB is considered directly mapped as long as all
    /// its allocated memory is mapped to a single contiguous region"
    /// (§5.3). The owner demotes lazily, only if it later needs the stolen
    /// slot (see `map_allocated`).
    fn allocate_raw_frame(&mut self, vbuid: Vbuid) -> Result<Frame> {
        for retry in [false, true] {
            if retry && self.reclaim_pages(1, vbuid) == 0 {
                break;
            }
            if let Some(frame) = self.frames.allocate() {
                return Ok(frame);
            }
            if let Some(frame) = self.reservations.steal(vbuid) {
                self.stats.frames_stolen += 1;
                return Ok(frame);
            }
        }
        Err(VbiError::OutOfPhysicalMemory)
    }

    /// Tops the allocator's free pool up to [`POOL_HEADROOM`] frames
    /// (priority 3 of §5.3 applied to the pool). Cached frames are the
    /// cheapest source; after them, reserved-but-unused frames of any
    /// reservation. Owners stay direct-mapped (their allocated memory is
    /// untouched); they demote lazily if they ever need the released slots.
    fn replenish_pool(&mut self) {
        self.frames.top_up_pool(POOL_HEADROOM);
        while self.frames.pool_frames() < POOL_HEADROOM {
            if !self.release_one_reserved_frame() {
                break;
            }
        }
    }

    /// Releases one reserved frame of any reservation into the free pool.
    fn release_one_reserved_frame(&mut self) -> bool {
        let Some(frame) = self.reservations.release_largest() else { return false };
        self.frames.free_to_pool(frame);
        self.stats.frames_stolen += 1;
        true
    }

    /// Builds the table-based replacement for `vbuid`'s direct structure,
    /// funding the table frames from the VB's own reserved frames when the
    /// allocator cannot.
    fn demote_with_fallback(
        &mut self,
        vbuid: Vbuid,
        structure: &TranslationStructure,
        replace: Option<(u64, SwapSlot)>,
    ) -> Result<TranslationStructure> {
        // A demotion of a densely mapped VB may need many table frames (one
        // leaf node per 512 mapped pages); keep funding the attempt from the
        // owner's — or anyone's — reserved frames until it fits or memory is
        // truly exhausted. (A failed attempt means the magazines are empty
        // too: a table block looks there before it gives up.)
        for _ in 0..4096 {
            match self.demote_structure(vbuid.size_class(), structure, replace) {
                Ok(table) => return Ok(table),
                Err(_) => {
                    let own = self.reservations.release_from(vbuid, 64);
                    own.iter().for_each(|&frame| self.frames.free_to_pool(frame));
                    if !own.is_empty() {
                        continue;
                    }
                    let mut released = false;
                    for _ in 0..64 {
                        released |= self.release_one_reserved_frame();
                    }
                    if !released {
                        return Err(VbiError::OutOfPhysicalMemory);
                    }
                }
            }
        }
        Err(VbiError::OutOfPhysicalMemory)
    }

    /// Demotes `vbuid`'s direct structure to tables where it sits, in its
    /// VIT entry (see [`Mtl::demote_structure`] for `replace`). On error the
    /// VB keeps the structure it had — dropping it would silently unmap the
    /// whole VB.
    fn demote_in_place(&mut self, vbuid: Vbuid, replace: Option<(u64, SwapSlot)>) -> Result<()> {
        let structure =
            self.vits.entry_mut(vbuid)?.translation.take().expect("caller saw a direct structure");
        let demoted = self.demote_with_fallback(vbuid, &structure, replace);
        let entry = self.vits.entry_mut(vbuid)?;
        match demoted {
            Ok(table) => {
                entry.translation = Some(table);
                self.direct_tlb.invalidate(&vbuid);
                self.vit_cache.invalidate(&vbuid);
                Ok(())
            }
            Err(e) => {
                entry.translation = Some(structure);
                Err(e)
            }
        }
    }

    /// Maps the freshly allocated `frame` at `page` of `vbuid` and indexes
    /// the page as resident; on error the frame is released again.
    fn map_allocated(&mut self, vbuid: Vbuid, page: u64, frame: Frame) -> Result<()> {
        let mapped = (|| {
            // A direct structure can only map its own contiguous region; if
            // the frame came from elsewhere (stolen slot or pressure),
            // demote first.
            let structure = self.vits.entry(vbuid)?.translation.as_ref().expect("caller ensured");
            let contiguous = structure.direct_base().map(|base| base.offset(page));
            if structure.kind() == TranslationKind::Direct && contiguous != Some(frame) {
                self.demote_in_place(vbuid, None)?;
            }
            let structure = self.vits.entry_mut(vbuid)?.translation.as_mut().expect("still there");
            structure.set_entry(page, PageEntry::Mapped { frame, cow: false }, &mut self.frames)
        })();
        match mapped {
            Ok(()) => {
                self.resident.insert((vbuid, page));
            }
            Err(_) => self.release_data_frame(frame),
        }
        mapped
    }

    /// Allocates physical memory for `page` of `vbuid` and maps it.
    fn allocate_and_map(&mut self, vbuid: Vbuid, page: u64) -> Result<Frame> {
        self.ensure_structure(vbuid)?;
        let frame = self.allocate_page_frame(vbuid, page)?;
        self.map_allocated(vbuid, page, frame)?;
        self.mem.zero_frame(frame);
        Ok(frame)
    }

    fn swap_in(&mut self, vbuid: Vbuid, page: u64, slot: SwapSlot) -> Result<Frame> {
        let frame = self.allocate_page_frame(vbuid, page)?;
        // Only consume the swap slot once the mapping is committed: a
        // failure here leaves the entry Swapped and the data retrievable.
        self.map_allocated(vbuid, page, frame)?;
        if let Some(data) = self.swap.load(slot) {
            self.mem.put_frame(frame, data);
        } else {
            self.mem.zero_frame(frame);
        }
        self.stats.pages_swapped_in += 1;
        Ok(frame)
    }

    fn resolve_cow(&mut self, vbuid: Vbuid, page: u64, frame: Frame) -> Result<Frame> {
        let shares = self.frame_shares.get(&frame.0).copied().unwrap_or(1);
        let result = (|| {
            // Sole owner again: just clear the COW mark. Otherwise copy.
            let mut private = frame;
            if shares > 1 {
                // Copying breaks a direct VB's contiguity; demote before
                // touching any shared state so failures leave the VB intact.
                if let Some(TranslationKind::Direct) = self.vits.entry(vbuid)?.translation_kind() {
                    let structure =
                        self.vits.entry_mut(vbuid)?.translation.take().expect("kind known");
                    match self.demote_structure(vbuid.size_class(), &structure, None) {
                        Ok(table) => {
                            self.vits.entry_mut(vbuid)?.translation = Some(table);
                            self.direct_tlb.invalidate(&vbuid);
                            self.vit_cache.invalidate(&vbuid);
                        }
                        Err(e) => {
                            self.vits.entry_mut(vbuid)?.translation = Some(structure);
                            return Err(e);
                        }
                    }
                }
                // The structure is in its VIT entry while this runs: the
                // allocation may sweep for a victim, and the sweep's audit
                // reads every VB's structure.
                private = self.allocate_page_frame(vbuid, page)?;
                self.mem.copy_frame(frame, private);
                *self.frame_shares.get_mut(&frame.0).expect("shared frame is tracked") -= 1;
                self.stats.cow_copies += 1;
            }
            let structure = self
                .vits
                .entry_mut(vbuid)?
                .translation
                .as_mut()
                .expect("mapped page has structure");
            structure.set_entry(
                page,
                PageEntry::Mapped { frame: private, cow: false },
                &mut self.frames,
            )?;
            Ok(private)
        })();
        self.page_tlb.invalidate(&(vbuid, page));
        result
    }

    /// Drops one reference to a data frame, freeing it when unshared. Frames
    /// inside a live reservation return to `Reserved`; others go back to the
    /// allocator.
    fn release_data_frame(&mut self, frame: Frame) {
        let shares = self.frame_shares.get_mut(&frame.0).expect("live data frame is tracked");
        *shares -= 1;
        if *shares > 0 {
            return;
        }
        self.frame_shares.remove(&frame.0);
        self.mem.zero_frame(frame);
        if !self.reservations.give_back(frame) {
            self.frames.free(frame);
        }
    }

    /// Dissolves a VB's reservation, freeing its still-reserved frames
    /// through the magazines (one-frame VB churn frees its frame here).
    fn teardown_reservation(&mut self, vbuid: Vbuid) {
        for frame in self.reservations.teardown(vbuid) {
            self.frames.free(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(variant: fn() -> VbiConfig) -> VbiConfig {
        VbiConfig { phys_frames: 4096, ..variant() } // 16 MiB
    }

    fn mtl(variant: fn() -> VbiConfig) -> Mtl {
        Mtl::new(small_config(variant))
    }

    fn enabled_vb(mtl: &mut Mtl, sc: SizeClass) -> Vbuid {
        let vb = mtl.find_free_vb(sc, VmId::HOST).unwrap();
        mtl.enable_vb(vb, VbProperties::NONE).unwrap();
        vb
    }

    #[test]
    fn write_then_read_roundtrips() {
        for variant in [VbiConfig::vbi_1, VbiConfig::vbi_2, VbiConfig::vbi_full] {
            let mut m = mtl(variant);
            let vb = enabled_vb(&mut m, SizeClass::Kib128);
            let addr = vb.address(0x4008).unwrap();
            m.write_u64(addr, 0xfeed_f00d).unwrap();
            assert_eq!(m.read_u64(addr).unwrap(), 0xfeed_f00d);
        }
    }

    #[test]
    fn reads_of_untouched_regions_are_zero() {
        let mut m = mtl(VbiConfig::vbi_full);
        let vb = enabled_vb(&mut m, SizeClass::Mib4);
        assert_eq!(m.read_u64(vb.address(123_456).unwrap()).unwrap(), 0);
    }

    #[test]
    fn donate_and_adopt_transfer_capacity_between_mtls() {
        let mut donor = mtl(VbiConfig::vbi_1);
        let mut adoptee = mtl(VbiConfig::vbi_1);
        let total_before = donor.free_frames() + adoptee.free_frames();

        let moved = donor.donate_frames(64);
        assert_eq!(moved, 64);
        adoptee.adopt_frames(moved);
        assert_eq!(donor.free_frames() + adoptee.free_frames(), total_before);

        // The adopted capacity is genuinely usable for data.
        let vb = enabled_vb(&mut adoptee, SizeClass::Kib128);
        let addr = vb.address(0).unwrap();
        adoptee.write_u64(addr, 0xabc).unwrap();
        assert_eq!(adoptee.read_u64(addr).unwrap(), 0xabc);
        // Retired and adopted frames are in the conservation law.
        assert_eq!(donor.audit(), Ok(()));
        assert_eq!(adoptee.audit(), Ok(()));
    }

    #[test]
    fn donation_reclaims_resident_pages_when_the_free_pool_is_short() {
        let mut donor = Mtl::new(VbiConfig { phys_frames: 16, ..VbiConfig::vbi_1() });
        let vb = enabled_vb(&mut donor, SizeClass::Kib128);
        // Fill most of the pool with mapped data pages.
        for page in 0..12u64 {
            donor.write_u64(vb.address(page * 4096).unwrap(), page).unwrap();
        }
        let free = donor.free_frames();
        let want = free as usize + 4; // more than is free: forces eviction
        let moved = donor.donate_frames(want);
        assert_eq!(moved, want as u64, "eviction funds the shortfall");
        assert!(donor.stats().evictions >= 4);
        // Evicted payloads went to the backing store, not into the void.
        assert!(donor.swap_occupancy() >= 3);
        assert_eq!(donor.audit(), Ok(()));
    }

    #[test]
    fn delayed_allocation_defers_until_writeback() {
        let mut m = mtl(VbiConfig::vbi_2);
        let vb = enabled_vb(&mut m, SizeClass::Kib128);
        let free_before = m.free_frames();
        // Reads allocate nothing under VBI-2.
        for page in 0..8 {
            let t = m.translate(vb.address(page * 4096).unwrap(), MtlAccess::Read).unwrap();
            assert_eq!(t.result, TranslateResult::ZeroLine);
        }
        assert_eq!(m.free_frames(), free_before);
        assert_eq!(m.stats().zero_line_returns, 8);
        // The first writeback allocates exactly the 4 KiB region (plus the
        // VB's single-level table on first touch).
        let t = m.translate(vb.address(0).unwrap(), MtlAccess::Writeback).unwrap();
        assert!(matches!(t.result, TranslateResult::Mapped(_)));
        assert!(t.events.allocated);
        assert_eq!(m.stats().delayed_allocations, 1);
        assert_eq!(free_before - m.free_frames(), 2, "one data frame + one table frame");
    }

    #[test]
    fn vbi_1_allocates_on_read() {
        let mut m = mtl(VbiConfig::vbi_1);
        let vb = enabled_vb(&mut m, SizeClass::Kib128);
        let t = m.translate(vb.address(0).unwrap(), MtlAccess::Read).unwrap();
        assert!(matches!(t.result, TranslateResult::Mapped(_)));
        assert!(t.events.allocated);
        assert_eq!(m.stats().zero_line_returns, 0);
    }

    #[test]
    fn early_reservation_direct_maps_whole_vbs() {
        let mut m = mtl(VbiConfig::vbi_full);
        let vb = enabled_vb(&mut m, SizeClass::Mib4); // 1024 pages, fits in 4096
        m.write_u64(vb.address(0).unwrap(), 1).unwrap();
        assert_eq!(m.translation_kind(vb).unwrap(), Some(TranslationKind::Direct));
        assert_eq!(m.stats().reservations_full, 1);
        // Pages of a direct VB are physically contiguous.
        let t0 = m.translate(vb.address(0).unwrap(), MtlAccess::Read).unwrap();
        m.write_u64(vb.address(5 * 4096).unwrap(), 2).unwrap();
        let t5 = m.translate(vb.address(5 * 4096).unwrap(), MtlAccess::Read).unwrap();
        let (TranslateResult::Mapped(p0), TranslateResult::Mapped(p5)) = (t0.result, t5.result)
        else {
            panic!("expected mapped");
        };
        assert_eq!(p5.to_bits() - p0.to_bits(), 5 * 4096);
    }

    #[test]
    fn early_reservation_falls_back_when_too_big() {
        let mut m = mtl(VbiConfig::vbi_full);
        // A 128 MiB VB (32768 pages) cannot fit in 4096 frames.
        let vb = enabled_vb(&mut m, SizeClass::Mib128);
        m.write_u64(vb.address(0).unwrap(), 1).unwrap();
        assert!(matches!(
            m.translation_kind(vb).unwrap(),
            Some(TranslationKind::MultiLevel { depth: 2 })
        ));
        assert_eq!(m.stats().reservations_partial, 1);
        // Only a run that was actually reserved leaves a reservation.
        assert!(m.reservations.is_empty());
        assert_eq!(m.audit(), Ok(()));
    }

    #[test]
    fn direct_vbs_hit_the_whole_vb_tlb() {
        let mut m = mtl(VbiConfig::vbi_full);
        let vb = enabled_vb(&mut m, SizeClass::Mib4);
        m.write_u64(vb.address(0).unwrap(), 1).unwrap();
        m.write_u64(vb.address(100 * 4096).unwrap(), 2).unwrap();
        m.reset_stats();
        // Different pages of the same VB hit the single whole-VB entry.
        for page in [0u64, 7, 100, 1023] {
            let t = m.translate(vb.address(page * 4096).unwrap(), MtlAccess::Read).unwrap();
            if page == 0 || page == 100 {
                assert!(t.events.mtl_tlb_hit, "page {page}");
            }
        }
        assert!(m.stats().tlb_hits >= 2);
    }

    #[test]
    fn walks_count_table_accesses() {
        let mut m = mtl(VbiConfig::vbi_1);
        let vb = enabled_vb(&mut m, SizeClass::Mib128); // depth-2 multi-level
        let addr = vb.address(12345 * 4096).unwrap();
        m.write_u64(addr, 3).unwrap();
        m.reset_stats();
        m.page_tlb.flush();
        m.vit_cache.flush();
        let t = m.translate(addr, MtlAccess::Read).unwrap();
        assert!(!t.events.mtl_tlb_hit);
        // 1 VIT access (cache miss) + 2 levels of walk.
        assert_eq!(t.events.table_accesses.len(), 3);
        // A second access hits the MTL TLB: zero table accesses.
        let t2 = m.translate(addr, MtlAccess::Read).unwrap();
        assert!(t2.events.mtl_tlb_hit);
        assert!(t2.events.table_accesses.is_empty());
    }

    #[test]
    fn disable_returns_all_memory() {
        for variant in [VbiConfig::vbi_1, VbiConfig::vbi_2, VbiConfig::vbi_full] {
            let mut m = mtl(variant);
            let free0 = m.free_frames();
            let vb = enabled_vb(&mut m, SizeClass::Mib4);
            for page in (0..1024).step_by(37) {
                m.write_u64(vb.address(page * 4096).unwrap(), page).unwrap();
            }
            assert!(m.free_frames() < free0);
            m.disable_vb(vb).unwrap();
            assert_eq!(m.free_frames(), free0, "variant leaked frames");
        }
    }

    #[test]
    fn disable_requires_detached() {
        let mut m = mtl(VbiConfig::vbi_full);
        let vb = enabled_vb(&mut m, SizeClass::Kib4);
        m.add_ref(vb).unwrap();
        assert!(matches!(m.disable_vb(vb), Err(VbiError::VbInUse { .. })));
        m.remove_ref(vb).unwrap();
        m.disable_vb(vb).unwrap();
        assert!(matches!(
            m.translate(vb.address(0).unwrap(), MtlAccess::Read),
            Err(VbiError::VbNotEnabled(_))
        ));
    }

    #[test]
    fn clone_shares_then_copies_on_write() {
        let mut m = mtl(VbiConfig::vbi_full);
        let src = enabled_vb(&mut m, SizeClass::Kib128);
        let dst = enabled_vb(&mut m, SizeClass::Kib128);
        m.write_u64(src.address(0).unwrap(), 111).unwrap();
        m.write_u64(src.address(8 * 4096).unwrap(), 222).unwrap();
        let free_before_clone = m.free_frames();
        m.clone_vb(src, dst).unwrap();
        // Cloning costs table frames only, no data copies.
        assert!(free_before_clone - m.free_frames() <= 1);
        assert_eq!(m.read_u64(dst.address(0).unwrap()).unwrap(), 111);
        assert_eq!(m.read_u64(dst.address(8 * 4096).unwrap()).unwrap(), 222);
        // Writing the clone leaves the source untouched.
        m.write_u64(dst.address(0).unwrap(), 999).unwrap();
        assert_eq!(m.stats().cow_copies, 1);
        assert_eq!(m.read_u64(dst.address(0).unwrap()).unwrap(), 999);
        assert_eq!(m.read_u64(src.address(0).unwrap()).unwrap(), 111);
        // Writing the source also copies (it was marked COW too).
        m.write_u64(src.address(8 * 4096).unwrap(), 333).unwrap();
        assert_eq!(m.read_u64(dst.address(8 * 4096).unwrap()).unwrap(), 222);
    }

    #[test]
    fn clone_size_mismatch_is_rejected() {
        let mut m = mtl(VbiConfig::vbi_full);
        let a = enabled_vb(&mut m, SizeClass::Kib4);
        let b = enabled_vb(&mut m, SizeClass::Kib128);
        assert!(matches!(m.clone_vb(a, b), Err(VbiError::CloneSizeMismatch { .. })));
    }

    #[test]
    fn clone_then_disable_both_frees_everything() {
        let mut m = mtl(VbiConfig::vbi_full);
        let free0 = m.free_frames();
        let src = enabled_vb(&mut m, SizeClass::Kib128);
        let dst = enabled_vb(&mut m, SizeClass::Kib128);
        m.write_u64(src.address(0).unwrap(), 1).unwrap();
        m.clone_vb(src, dst).unwrap();
        m.write_u64(dst.address(0).unwrap(), 2).unwrap(); // COW copy
        m.disable_vb(src).unwrap();
        m.disable_vb(dst).unwrap();
        assert_eq!(m.free_frames(), free0);
    }

    #[test]
    fn promote_preserves_data_and_grows_the_vb() {
        let mut m = mtl(VbiConfig::vbi_full);
        let small = enabled_vb(&mut m, SizeClass::Kib128);
        m.write_u64(small.address(16).unwrap(), 77).unwrap();
        let large = enabled_vb(&mut m, SizeClass::Mib4);
        m.promote_vb(small, large).unwrap();
        assert_eq!(m.read_u64(large.address(16).unwrap()).unwrap(), 77);
        // The region beyond the old VB is usable.
        m.write_u64(large.address(2 << 20).unwrap(), 88).unwrap();
        assert_eq!(m.read_u64(large.address(2 << 20).unwrap()).unwrap(), 88);
        assert_eq!(m.stats().promotions, 1);
        // The small VB can now be disabled without disturbing the large one.
        m.disable_vb(small).unwrap();
        assert_eq!(m.read_u64(large.address(16).unwrap()).unwrap(), 77);
    }

    #[test]
    fn promote_requires_larger_class() {
        let mut m = mtl(VbiConfig::vbi_full);
        let a = enabled_vb(&mut m, SizeClass::Mib4);
        let b = enabled_vb(&mut m, SizeClass::Mib4);
        assert!(matches!(m.promote_vb(a, b), Err(VbiError::PromoteNotLarger { .. })));
    }

    #[test]
    fn swap_out_and_back_in_preserves_data() {
        let mut m = mtl(VbiConfig::vbi_full);
        let vb = enabled_vb(&mut m, SizeClass::Kib128);
        let addr = vb.address(3 * 4096).unwrap();
        m.write_u64(addr, 4242).unwrap();
        m.swap_out_page(vb, 3).unwrap();
        assert_eq!(m.swap_occupancy(), 1);
        assert_eq!(m.read_u64(addr).unwrap(), 4242);
        assert_eq!(m.swap_occupancy(), 0);
        assert_eq!(m.stats().pages_swapped_out, 1);
        assert_eq!(m.stats().pages_swapped_in, 1);
    }

    #[test]
    fn memory_pressure_triggers_reclaim() {
        // 48 frames of memory; two 32-page VBs want more than that together.
        let config = VbiConfig { phys_frames: 48, ..VbiConfig::vbi_2() };
        let mut m = Mtl::new(config);
        let a = enabled_vb(&mut m, SizeClass::Kib128); // 32 pages
        let b = enabled_vb(&mut m, SizeClass::Kib128);
        for page in 0..32 {
            m.write_u64(a.address(page * 4096).unwrap(), page).unwrap();
        }
        for page in 0..32 {
            m.write_u64(b.address(page * 4096).unwrap(), 1000 + page).unwrap();
        }
        assert!(m.stats().pages_swapped_out > 0, "pressure must swap");
        // All data survives the shuffle.
        for page in 0..32 {
            assert_eq!(m.read_u64(a.address(page * 4096).unwrap()).unwrap(), page);
            assert_eq!(m.read_u64(b.address(page * 4096).unwrap()).unwrap(), 1000 + page);
        }
    }

    #[test]
    fn stealing_demotes_the_reservation_owner() {
        // Memory fits one full 4 MiB reservation (1024 pages) plus a bit.
        let config = VbiConfig { phys_frames: 1100, ..VbiConfig::vbi_full() };
        let mut m = Mtl::new(config);
        let owner = enabled_vb(&mut m, SizeClass::Mib4);
        m.write_u64(owner.address(0).unwrap(), 1).unwrap();
        assert_eq!(m.translation_kind(owner).unwrap(), Some(TranslationKind::Direct));
        // A second VB needs more than the unreserved remainder.
        let thief = enabled_vb(&mut m, SizeClass::Kib128);
        for page in 0..32 {
            m.write_u64(thief.address(page * 4096).unwrap(), page).unwrap();
        }
        // Fill more of the thief's demand to force stealing.
        let thief2 = enabled_vb(&mut m, SizeClass::Mib4);
        for page in 0..128 {
            m.write_u64(thief2.address(page * 4096).unwrap(), page).unwrap();
        }
        assert!(m.stats().frames_stolen > 0, "reserved frames must be stolen");
        // Stealing unallocated frames does not break the owner's direct
        // mapping (§5.3): all its *allocated* memory is still contiguous.
        assert_eq!(m.translation_kind(owner).unwrap(), Some(TranslationKind::Direct));
        // But when the owner touches a page whose reserved slot was stolen,
        // it must take a non-contiguous frame and demote to a table.
        let mut page = 1u64;
        while m.translation_kind(owner).unwrap() == Some(TranslationKind::Direct) && page < 1024 {
            m.write_u64(owner.address(page * 4096).unwrap(), page).unwrap();
            page += 1;
        }
        assert!(m.stats().demotions > 0, "owner demotes on first stolen-slot touch");
        assert_ne!(m.translation_kind(owner).unwrap(), Some(TranslationKind::Direct));
        // Owner's data is intact.
        assert_eq!(m.read_u64(owner.address(0).unwrap()).unwrap(), 1);
        for p in 1..page {
            assert_eq!(m.read_u64(owner.address(p * 4096).unwrap()).unwrap(), p);
        }
    }

    #[test]
    fn tearing_down_a_raided_reservation_leaves_its_stolen_frames_alone() {
        let mut m = Mtl::new(VbiConfig { phys_frames: 64, ..VbiConfig::vbi_full() });
        // Two 32-page runs reserve the whole machine; the next translation
        // finds the free pool empty and raids one of them for its cushion.
        let a = enabled_vb(&mut m, SizeClass::Kib128);
        let b = enabled_vb(&mut m, SizeClass::Kib128);
        m.write_u64(a.address(0).unwrap(), 1).unwrap();
        m.write_u64(b.address(0).unwrap(), 2).unwrap();
        m.write_u64(a.address(4096).unwrap(), 3).unwrap();
        assert!(m.stats().frames_stolen >= 16);
        let raided = [a, b]
            .into_iter()
            .find(|&vb| !m.reservations.stolen_frames(vb).is_empty())
            .expect("one run was raided");
        // A 4 KiB VB reserves one of the released frames.
        let small = enabled_vb(&mut m, SizeClass::Kib4);
        m.write_u64(small.address(0).unwrap(), 4).unwrap();
        let frame = m.reservations.base(small);
        assert!(m.reservations.stolen_frames(raided).contains(&frame), "a released frame");
        assert_eq!(m.reservations.owner(frame), Some(small));
        // The frame is `small`'s now, and the raided VB's teardown must not
        // strip that: `small`'s freed page would go to the pool instead of
        // back to its reservation, and its next touch would cost a demotion.
        m.disable_vb(raided).unwrap();
        assert_eq!(m.reservations.owner(frame), Some(small));
        assert_eq!(m.audit(), Ok(()));
    }

    #[test]
    fn a_steal_takes_the_last_unused_slot_of_the_largest_run() {
        let drive = || {
            let mut m = Mtl::new(VbiConfig { phys_frames: 2048, ..VbiConfig::vbi_full() });
            // Two direct VBs with unused reserved slots, and a VB too large
            // to reserve, so its pages come from the pool or a steal.
            let large = enabled_vb(&mut m, SizeClass::Mib4);
            let small = enabled_vb(&mut m, SizeClass::Kib128);
            let thief = enabled_vb(&mut m, SizeClass::Mib128);
            for vb in [large, small, thief] {
                m.write_u64(vb.address(0).unwrap(), 1).unwrap();
            }
            // Retire every free frame: with the pool empty, the thief's next
            // page (in the leaf table it already has) must be stolen.
            m.donate_frames(m.free_frames() as usize);
            let expected = *m.reservations.unused_frames(large).last().unwrap();
            let stolen = m.stats().frames_stolen;
            assert_eq!(m.allocate_and_map(thief, 1), Ok(expected));
            assert_eq!(m.stats().frames_stolen, stolen + 1);
            assert_eq!(m.reservations.stolen_frames(large), [expected]);
            // Both owners then touch their last page: only `large` lost that
            // slot, so only `large` demotes.
            for vb in [large, small] {
                let last = vb.size_class().pages() - 1;
                m.write_u64(vb.address(last << 12).unwrap(), last).unwrap();
            }
            assert_ne!(m.translation_kind(large).unwrap(), Some(TranslationKind::Direct));
            assert_eq!(m.translation_kind(small).unwrap(), Some(TranslationKind::Direct));
            assert_eq!(m.audit(), Ok(()));
            m
        };
        let (first, second) = (drive(), drive());
        assert_eq!(first.stats(), second.stats());
        assert_eq!(first.free_frames(), second.free_frames());
    }

    #[test]
    fn file_backed_vbs_fault_in_from_the_store() {
        let mut m = mtl(VbiConfig::vbi_full);
        let vb = enabled_vb(&mut m, SizeClass::Kib128);
        let mut page0 = Box::new([0u8; FRAME_BYTES as usize]);
        page0[0] = 0xaa;
        let mut page5 = Box::new([0u8; FRAME_BYTES as usize]);
        page5[8] = 0xbb;
        m.bind_file(vb, vec![(0, page0), (5, page5)]).unwrap();
        let t = m.translate(vb.address(0).unwrap(), MtlAccess::Read).unwrap();
        assert!(t.events.swapped_in, "first touch faults the file page in");
        assert_eq!(m.read_u8(vb.address(0).unwrap()).unwrap(), 0xaa);
        assert_eq!(m.read_u8(vb.address(5 * 4096 + 8).unwrap()).unwrap(), 0xbb);
        // Unbound pages read zero.
        assert_eq!(m.read_u8(vb.address(4096).unwrap()).unwrap(), 0);
    }

    #[test]
    fn vit_cache_filters_vit_accesses() {
        let mut m = mtl(VbiConfig::vbi_1);
        let vb = enabled_vb(&mut m, SizeClass::Kib128);
        m.write_u64(vb.address(0).unwrap(), 1).unwrap();
        m.reset_stats();
        m.page_tlb.flush();
        for _ in 0..10 {
            m.page_tlb.flush(); // force walks, keep VIT cache warm
            m.translate(vb.address(0).unwrap(), MtlAccess::Read).unwrap();
        }
        let s = m.stats();
        assert!(s.vit_cache_hits >= 9);
        assert!(s.vit_cache_misses <= 1);
    }

    #[test]
    fn out_of_memory_is_reported_when_swap_cannot_help() {
        // One VB wants more than everything and there is nothing to reclaim
        // (reclaim excludes the requester).
        let config = VbiConfig { phys_frames: 16, ..VbiConfig::vbi_2() };
        let mut m = Mtl::new(config);
        let vb = enabled_vb(&mut m, SizeClass::Kib128); // 32 pages > 16 frames
        let mut saw_oom = false;
        for page in 0..32 {
            match m.write_u64(vb.address(page * 4096).unwrap(), page) {
                Ok(()) => {}
                Err(VbiError::OutOfPhysicalMemory) => {
                    saw_oom = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_oom);
    }

    #[test]
    fn failed_clone_restores_the_source() {
        // vbi_2: no early reservation, so memory really runs dry.
        let config = VbiConfig { phys_frames: 16, ..VbiConfig::vbi_2() };
        let mut m = Mtl::new(config);
        let src = enabled_vb(&mut m, SizeClass::Kib128);
        m.write_u64(src.address(0).unwrap(), 7777).unwrap();
        // Exhaust physical memory so the clone's table allocation must fail.
        let hog = enabled_vb(&mut m, SizeClass::Kib128);
        for page in 0..32u64 {
            if m.write_u64(hog.address(page << 12).unwrap(), 1).is_err() {
                break;
            }
        }
        let free_before = m.free_frames();
        let dst = m.find_free_vb(SizeClass::Kib128, VmId::HOST).unwrap();
        m.enable_vb(dst, VbProperties::NONE).unwrap();
        assert!(matches!(m.clone_vb(src, dst), Err(VbiError::OutOfPhysicalMemory)));
        // The aborted clone changed nothing: the source still reads its
        // data (its taken structure was restored), no frames moved, no
        // clone was counted.
        assert_eq!(m.read_u64(src.address(0).unwrap()).unwrap(), 7777);
        assert_eq!(m.free_frames(), free_before);
        assert_eq!(m.stats().vbs_cloned, 0);
    }

    #[test]
    fn failed_promote_restores_the_source() {
        let config = VbiConfig { phys_frames: 16, ..VbiConfig::vbi_2() };
        let mut m = Mtl::new(config);
        let src = enabled_vb(&mut m, SizeClass::Kib128);
        m.write_u64(src.address(8).unwrap(), 31337).unwrap();
        let hog = enabled_vb(&mut m, SizeClass::Kib128);
        for page in 0..32u64 {
            if m.write_u64(hog.address(page << 12).unwrap(), 1).is_err() {
                break;
            }
        }
        let free_before = m.free_frames();
        // A 4 MiB destination needs a single-level table — an allocation
        // that must fail on the exhausted machine.
        let dst = m.find_free_vb(SizeClass::Mib4, VmId::HOST).unwrap();
        m.enable_vb(dst, VbProperties::NONE).unwrap();
        assert!(matches!(m.promote_vb(src, dst), Err(VbiError::OutOfPhysicalMemory)));
        assert_eq!(m.read_u64(src.address(8).unwrap()).unwrap(), 31337);
        assert_eq!(m.free_frames(), free_before);
        assert_eq!(m.stats().promotions, 0);
    }

    #[test]
    fn translation_is_stable_across_tlb_flushes() {
        let mut m = mtl(VbiConfig::vbi_full);
        let vb = enabled_vb(&mut m, SizeClass::Mib4);
        let addr = vb.address(77 * 4096 + 128).unwrap();
        m.write_u64(addr, 5).unwrap();
        let t1 = m.translate(addr, MtlAccess::Read).unwrap();
        m.page_tlb.flush();
        m.direct_tlb.flush();
        m.vit_cache.flush();
        let t2 = m.translate(addr, MtlAccess::Read).unwrap();
        assert_eq!(t1.result, t2.result, "flushes never change the mapping");
    }

    #[test]
    fn sharded_mtls_carve_disjoint_vbid_slices() {
        let config = small_config(VbiConfig::vbi_full);
        for shards in [4, 8] {
            let mut mtls: Vec<Mtl> =
                (0..shards).map(|i| Mtl::for_shard(config.clone(), i, shards)).collect();
            for sc in [SizeClass::Kib4, SizeClass::Kib128, SizeClass::Gib4, SizeClass::Tib128] {
                let slice = sc.vb_count() / shards as u64;
                let mut seen = Vec::new();
                for (i, m) in mtls.iter_mut().enumerate() {
                    let vb = m.find_free_vb(sc, VmId::HOST).unwrap();
                    m.enable_vb(vb, VbProperties::NONE).unwrap();
                    assert_eq!(Mtl::shard_of(vb, shards), i, "{vb}");
                    assert!(m.owns(vb));
                    assert_eq!(vb.vbid() / slice, i as u64, "slice by high VBID bits");
                    seen.push(vb);
                }
                seen.dedup();
                assert_eq!(seen.len(), shards, "no VBUID collisions across shards");
            }
        }
    }

    #[test]
    fn shard_zero_of_one_behaves_like_a_standalone_mtl() {
        let mut a = Mtl::new(small_config(VbiConfig::vbi_full));
        let mut b = Mtl::for_shard(small_config(VbiConfig::vbi_full), 0, 1);
        for _ in 0..3 {
            let va = a.find_free_vb(SizeClass::Kib128, VmId::HOST).unwrap();
            let vb = b.find_free_vb(SizeClass::Kib128, VmId::HOST).unwrap();
            assert_eq!(va, vb);
            a.enable_vb(va, VbProperties::NONE).unwrap();
            b.enable_vb(vb, VbProperties::NONE).unwrap();
            a.write_u64(va.address(8).unwrap(), 1).unwrap();
            b.write_u64(vb.address(8).unwrap(), 1).unwrap();
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.shard(), (0, 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_shard_counts_panic() {
        let _ = Mtl::for_shard(VbiConfig::vbi_full(), 0, 3);
    }

    /// The in-memory store with two dials: a capacity in pages, and a
    /// write-back that panics.
    #[derive(Debug, Default)]
    struct TestBacking {
        store: BackingStore,
        capacity: Option<usize>,
        /// Which `try_store` call (1-based) panics.
        panic_on_store: Option<u64>,
        stores: u64,
    }

    impl TestBacking {
        fn is_full(&self) -> bool {
            self.capacity.is_some_and(|cap| self.store.len() >= cap)
        }
    }

    impl PressureBackend for TestBacking {
        fn try_store(
            &mut self,
            data: crate::swap::PageData,
        ) -> core::result::Result<SwapSlot, crate::swap::PageData> {
            self.stores += 1;
            if Some(self.stores) == self.panic_on_store {
                panic!("injected backing-store fault");
            }
            if self.is_full() {
                return Err(data);
            }
            Ok(self.store.store(data))
        }
        fn try_store_zero(&mut self) -> Option<SwapSlot> {
            (!self.is_full()).then(|| self.store.store_zero())
        }
        fn load(&mut self, slot: SwapSlot) -> Option<crate::swap::PageData> {
            self.store.load(slot)
        }
        fn peek(&self, slot: SwapSlot) -> Option<&crate::swap::PageData> {
            self.store.peek(slot)
        }
        fn duplicate(&mut self, slot: SwapSlot) -> Result<SwapSlot> {
            if self.is_full() {
                return Err(VbiError::BackingStoreFull {
                    capacity_pages: self.capacity.unwrap_or(0) as u64,
                });
            }
            Ok(self.store.duplicate(slot))
        }
        fn discard(&mut self, slot: SwapSlot) {
            self.store.discard(slot);
        }
        fn len(&self) -> usize {
            self.store.len()
        }
        fn zero_len(&self) -> usize {
            self.store.zero_len()
        }
        fn stored_bytes(&self) -> u64 {
            self.store.stored_bytes()
        }
        fn capacity_pages(&self) -> Option<u64> {
            self.capacity.map(|cap| cap as u64)
        }
    }

    fn swap_out_unwinds(m: &mut Mtl, vb: Vbuid, page: u64) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.swap_out_page(vb, page)))
            .is_err()
    }

    #[test]
    fn a_panicking_write_back_costs_one_payload_not_the_vb() {
        let mut m = Mtl::new(VbiConfig { phys_frames: 64, ..VbiConfig::vbi_full() });
        m.set_backing(Box::new(TestBacking { panic_on_store: Some(1), ..Default::default() }))
            .unwrap();
        let vb = enabled_vb(&mut m, SizeClass::Kib128);
        for page in 0..16u64 {
            m.write_u64(vb.address(page << 12).unwrap(), 100 + page).unwrap();
        }
        assert!(swap_out_unwinds(&mut m, vb, 0), "the first write-back panics");
        // The structure was in its VIT entry while the backend ran.
        assert_eq!(m.translation_kind(vb).unwrap(), Some(TranslationKind::SingleLevel));
        m.audit().unwrap();
        // Only the payload the backend had been handed is gone.
        assert_eq!(m.read_u64(vb.address(0).unwrap()).unwrap(), 0);
        for page in 1..16u64 {
            assert_eq!(m.read_u64(vb.address(page << 12).unwrap()).unwrap(), 100 + page);
        }
        // The backend works again, and so does eviction.
        m.swap_out_page(vb, 5).unwrap();
        assert_eq!(m.read_u64(vb.address(5 << 12).unwrap()).unwrap(), 105);
        m.audit().unwrap();
        m.disable_vb(vb).unwrap();
        assert_eq!(m.free_frames(), 64, "every frame comes back");
        assert_eq!(m.backing().len(), 0);
    }

    #[test]
    fn a_panicking_self_funded_write_back_leaves_the_direct_vb_whole() {
        let mut m = Mtl::new(VbiConfig { phys_frames: 64, ..VbiConfig::vbi_full() });
        m.set_backing(Box::new(TestBacking { panic_on_store: Some(1), ..Default::default() }))
            .unwrap();
        let direct = enabled_vb(&mut m, SizeClass::Kib128);
        for page in 0..16u64 {
            m.write_u64(direct.address(page << 12).unwrap(), 100 + page).unwrap();
        }
        // Fill every other frame — the free pool and the direct VB's unused
        // reservation — with a second VB's pages, stopping short of the
        // first eviction.
        let filler = enabled_vb(&mut m, SizeClass::Mib4);
        let reserved_left = |m: &Mtl| !m.reservations.unused_frames(direct).is_empty();
        let mut page = 0u64;
        while m.free_frames() > 0 || reserved_left(&m) {
            m.write_u64(filler.address(page << 12).unwrap(), page).unwrap();
            page += 1;
        }
        assert_eq!(m.stats().evictions, 0);
        assert_eq!(m.translation_kind(direct).unwrap(), Some(TranslationKind::Direct));

        // No frame is left for the demotion table, so the swap-out takes
        // the self-funded path, and its write-back panics.
        assert!(swap_out_unwinds(&mut m, direct, 0));
        assert_eq!(m.translation_kind(direct).unwrap(), Some(TranslationKind::Direct));
        m.audit().unwrap();
        for page in 1..16u64 {
            assert_eq!(m.read_u64(direct.address(page << 12).unwrap()).unwrap(), 100 + page);
        }
        // A second attempt completes the self-funded demotion.
        m.swap_out_page(direct, 1).unwrap();
        assert_eq!(m.translation_kind(direct).unwrap(), Some(TranslationKind::SingleLevel));
        m.audit().unwrap();
        assert_eq!(m.read_u64(direct.address(1 << 12).unwrap()).unwrap(), 101);
        m.disable_vb(direct).unwrap();
        m.disable_vb(filler).unwrap();
        assert_eq!(m.free_frames(), 64, "every frame comes back");
    }

    impl Mtl {
        /// The eviction sweep as it was before the resident index: rebuild
        /// the sorted candidate list from the translation structure of
        /// every enabled VB, rotate it to the hand, and make two laps over
        /// the list as it stood when the pass began.
        pub(super) fn reference_sweep(
            &mut self,
            count: usize,
            exclude: Option<Vbuid>,
            protect: Option<(Vbuid, u64)>,
        ) -> usize {
            let mut reclaimed = 0;
            for allow_pinned in [false, true] {
                if reclaimed >= count {
                    break;
                }
                let pinned =
                    |vb| self.vits.entry(vb).is_ok_and(|e| e.props.contains(VbProperties::PINNED));
                let candidates: Vec<(Vbuid, u64)> = self
                    .scan_mapped_pages()
                    .into_iter()
                    .map(|(key, _)| key)
                    .filter(|&(vb, _)| Some(vb) != exclude && pinned(vb) == allow_pinned)
                    .filter(|key| Some(*key) != protect)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let start = match self.clock_hand {
                    Some(hand) => candidates.partition_point(|c| *c <= hand),
                    None => 0,
                };
                let n = candidates.len();
                for step in 0..2 * n {
                    if reclaimed >= count {
                        break;
                    }
                    let (vb, page) = candidates[(start + step) % n];
                    self.clock_hand = Some((vb, page));
                    if self.ref_bits.remove(&(vb, page)) {
                        continue;
                    }
                    if self.swap_out_page(vb, page).is_ok() {
                        reclaimed += 1;
                        self.stats.evictions += 1;
                    }
                }
            }
            reclaimed
        }
    }

    /// xorshift64*: `vbi-core` has no dependencies, and the differential
    /// stream only has to be seeded and varied.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
        }

        fn pick<T: Copy>(&mut self, from: &[T]) -> T {
            from[self.below(from.len() as u64) as usize]
        }
    }

    /// Two MTLs built alike and driven by one seeded stream; `index` evicts
    /// by the resident index, `scan` by [`Mtl::reference_sweep`].
    struct Differential {
        index: Mtl,
        scan: Mtl,
        live: Vec<Vbuid>,
    }

    impl Differential {
        fn new(swap_pages: Option<usize>) -> Self {
            let build = |sweep_by_scan| {
                let config = VbiConfig { phys_frames: 96, ..VbiConfig::vbi_full() };
                let mut m = Mtl::new(config);
                m.set_backing(Box::new(TestBacking { capacity: swap_pages, ..Default::default() }))
                    .unwrap();
                m.sweep_by_scan = sweep_by_scan;
                m
            };
            Self { index: build(false), scan: build(true), live: Vec::new() }
        }

        /// Runs `op` on both MTLs and holds every piece of state the sweep
        /// reads or writes against its twin.
        fn both<R: PartialEq + std::fmt::Debug>(
            &mut self,
            what: &str,
            op: impl Fn(&mut Mtl) -> R,
        ) -> R {
            let (by_index, by_scan) = (op(&mut self.index), op(&mut self.scan));
            assert_eq!(by_index, by_scan, "{what}: results differ");
            assert_eq!(self.index.clock_hand, self.scan.clock_hand, "{what}: clock hand");
            assert_eq!(self.index.resident, self.scan.resident, "{what}: resident set");
            assert_eq!(self.index.ref_bits, self.scan.ref_bits, "{what}: reference bits");
            assert_eq!(self.index.stats(), self.scan.stats(), "{what}: stats");
            assert_eq!(self.index.free_frames(), self.scan.free_frames(), "{what}: free frames");
            assert_eq!(self.index.audit(), Ok(()), "{what}");
            assert_eq!(self.scan.audit(), Ok(()), "{what}");
            by_index
        }

        fn enable(&mut self, size_class: SizeClass, props: VbProperties) -> Vbuid {
            let vb = self.both("enable", |m| {
                let vb = m.find_free_vb(size_class, VmId::HOST).unwrap();
                m.enable_vb(vb, props).unwrap();
                vb
            });
            self.live.push(vb);
            vb
        }

        fn disable(&mut self, vb: Vbuid) {
            self.both("disable", |m| m.disable_vb(vb)).unwrap();
            self.live.retain(|live| *live != vb);
        }

        fn step(&mut self, rng: &mut Rng) {
            const CLASSES: [SizeClass; 3] = [SizeClass::Kib4, SizeClass::Kib128, SizeClass::Mib4];
            // From one page to more than is ever resident (both laps run out).
            const COUNTS: [usize; 6] = [1, 1, 2, 5, 8, 200];
            let roll = rng.below(100);
            if self.live.len() < 3 || (roll < 6 && self.live.len() < 10) {
                let props =
                    if rng.below(4) == 0 { VbProperties::PINNED } else { VbProperties::NONE };
                self.enable(rng.pick(&CLASSES), props);
                return;
            }
            let vb = rng.pick(&self.live);
            let page = rng.below(vb.size_class().pages().min(48));
            let addr = vb.address(page << 12).unwrap();
            match roll {
                0..=44 => {
                    let value = rng.below(u64::MAX);
                    self.both("write", |m| m.write_u64(addr, value)).ok();
                }
                45..=64 => {
                    self.both("read", |m| m.read_u64(addr)).ok();
                }
                65..=68 => self.disable(vb),
                69..=72 => {
                    let clone = self.enable(vb.size_class(), VbProperties::NONE);
                    self.both("clone", |m| m.clone_vb(vb, clone)).ok();
                }
                73..=76 if vb.size_class() < SizeClass::Mib4 => {
                    let larger = self.enable(SizeClass::Mib4, VbProperties::NONE);
                    if self.both("promote", |m| m.promote_vb(vb, larger)).is_ok() {
                        self.disable(vb);
                    }
                }
                73..=84 => {
                    let count = rng.pick(&COUNTS);
                    self.both("reclaim_pages", |m| m.reclaim_pages(count, vb));
                }
                85..=92 => {
                    let count = rng.pick(&COUNTS);
                    self.both("reclaim_frames", |m| m.reclaim_frames(count));
                }
                _ => {
                    let count = rng.pick(&COUNTS);
                    self.both("reclaim_for", |m| m.reclaim_for(vb, page, count));
                }
            }
        }
    }

    #[test]
    fn the_index_sweep_picks_the_reference_sweeps_victims() {
        // An unbounded backing store, then one so small that sweeps meet
        // `BackingStoreFull` half way.
        for swap_pages in [None, Some(40)] {
            for seed in 1..=4u64 {
                let mut pair = Differential::new(swap_pages);
                let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                for _ in 0..1500 {
                    pair.step(&mut rng);
                }
                let stats = pair.index.stats();
                assert!(stats.evictions > 100, "{swap_pages:?} seed {seed}: {stats:?}");
                assert!(stats.faults_in > 0 && stats.demotions > 0 && stats.cow_copies > 0);
                assert!(stats.vbs_cloned > 0 && stats.promotions > 0);
            }
        }
    }
}
