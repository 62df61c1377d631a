//! The ten system configurations of the evaluation (§7.2).
//!
//! Every system is one [`Machine`]: a cache hierarchy, DDR3 memory, the
//! memory controller's table cache and a translator. Given one trace record
//! it returns the stall cycles the access exposes to the core and keeps
//! counters. The systems differ only in the translator, which fixes where
//! translation sits, where its walk references go, and how many of its
//! cycles hide behind the LLC lookup (`CacheTiming`'s `llc`, 31 cycles):
//!
//! | system | translator | placement | walk references | overlap |
//! |---|---|---|---|---|
//! | `Native`, `Native-2M` | `Native`: TLBs + 4/3-level walk + PWC | before L1 | caches | — |
//! | `Virtual`, `Virtual-2M` | `Nested`: TLBs + two-dimensional walk | before L1 | caches | — |
//! | `Perfect TLB` | `Perfect`: free | before L1 | none | — |
//! | `VIVT` | `Vivt`: TLBs + 4-level walk + PWC | LLC miss | caches | LLC |
//! | `Enigma-HW-2M` | `Enigma`: 16K CTC + HW walk | LLC miss | table cache | none |
//! | `VBI-1/2/Full` | `Vbi`: MTL (per-VB structures) | LLC miss | table cache | LLC |
//!
//! At an LLC miss the caches see virtual, intermediate or VBI addresses, and
//! each LLC write-back is translated too. What else follows, written once:
//!
//! - A TLB miss counts whenever the translator reports one (so `VIVT`'s
//!   write-back translations count theirs).
//! - Every walk reference is a translation access. One read through the
//!   caches services its own LLC write-backs without counting them as DRAM
//!   accesses.
//! - `VBI`'s CVT-cache miss reads `0x10_0000 + 16·region` through the
//!   caches: a translation access only if it reaches memory, and its LLC
//!   write-backs are dropped.
//! - A zero line (§5.1) is neither read on a demand miss nor written back.
//! - Regions are laid out by `layout_regions`, Enigma's `IaSpace`, or as
//!   one VB each (`VBI`, whose warm-up boundary also resets the MTL's stats).

use vbi_baselines::enigma::{EnigmaController, IaSpace};
use vbi_baselines::mmu::{MmuTranslation, NativeMmu, PerfectMmu, L2_TLB_LATENCY};
use vbi_baselines::nested::NestedMmu;
use vbi_baselines::page_table::PageSize;
use vbi_core::addr::{SizeClass, VbiAddress};
use vbi_core::client::{ClientId, Cvt, CvtEntry};
use vbi_core::config::VbiConfig;
use vbi_core::cvt_cache::{ClientCvtCache, CvtCache};
use vbi_core::mtl::{Mtl, MtlAccess, TranslateResult};
use vbi_core::perm::Rwx;
use vbi_core::vb::VbProperties;
use vbi_core::vm::VmId;
use vbi_mem_sim::controller::MemoryController;
use vbi_mem_sim::hierarchy::{CacheHierarchy, HitLevel};
use vbi_mem_sim::timing::CacheTiming;
use vbi_mem_sim::Cache;

/// The systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// x86-64 with 4 KiB pages.
    Native,
    /// x86-64 with 2 MiB pages.
    Native2M,
    /// Virtual machine, 4 KiB pages everywhere (2D walks).
    Virtual,
    /// Virtual machine, 2 MiB pages everywhere, with a nested walk cache.
    Virtual2M,
    /// Native with no L1 TLB misses (no translation overhead at all).
    PerfectTlb,
    /// Native but with virtually indexed, virtually tagged caches.
    Vivt,
    /// Enigma with a 16K-entry CTC, hardware walks, and 2 MiB pages.
    EnigmaHw2M,
    /// VBI with flexible 4 KiB-granularity translation structures.
    Vbi1,
    /// VBI-1 plus delayed physical allocation.
    Vbi2,
    /// VBI-2 plus early reservation (direct mapping).
    VbiFull,
}

impl SystemKind {
    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Native => "Native",
            SystemKind::Native2M => "Native-2M",
            SystemKind::Virtual => "Virtual",
            SystemKind::Virtual2M => "Virtual-2M",
            SystemKind::PerfectTlb => "Perfect TLB",
            SystemKind::Vivt => "VIVT",
            SystemKind::EnigmaHw2M => "Enigma-HW-2M",
            SystemKind::Vbi1 => "VBI-1",
            SystemKind::Vbi2 => "VBI-2",
            SystemKind::VbiFull => "VBI-Full",
        }
    }

    /// All systems, in figure order.
    pub const ALL: [SystemKind; 10] = [
        SystemKind::Native,
        SystemKind::Native2M,
        SystemKind::Virtual,
        SystemKind::Virtual2M,
        SystemKind::PerfectTlb,
        SystemKind::Vivt,
        SystemKind::EnigmaHw2M,
        SystemKind::Vbi1,
        SystemKind::Vbi2,
        SystemKind::VbiFull,
    ];
}

/// Counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemCounters {
    /// L1 TLB misses (front-end systems only).
    pub tlb_misses: u64,
    /// LLC misses reaching memory/MTL.
    pub llc_misses: u64,
    /// Total demand DRAM accesses.
    pub dram_accesses: u64,
    /// Total translation-related memory accesses.
    pub translation_accesses: u64,
    /// Zero-line returns (VBI-2+).
    pub zero_lines: u64,
}

/// Builds the system for a kind, sized for `phys_frames` frames of memory.
pub fn build_system(kind: SystemKind, phys_frames: u64) -> Machine {
    let vbi = |config: VbiConfig| Translator::vbi(VbiConfig { phys_frames, ..config });
    Machine::new(match kind {
        SystemKind::Native => Translator::Native(NativeMmu::new(PageSize::Kb4, phys_frames)),
        SystemKind::Native2M => Translator::Native(NativeMmu::new(PageSize::Mb2, phys_frames)),
        SystemKind::Virtual => Translator::Nested(NestedMmu::new(PageSize::Kb4, phys_frames)),
        SystemKind::Virtual2M => Translator::Nested(NestedMmu::new(PageSize::Mb2, phys_frames)),
        SystemKind::PerfectTlb => Translator::Perfect(PerfectMmu::new(phys_frames)),
        SystemKind::Vivt => Translator::Vivt(NativeMmu::new(PageSize::Kb4, phys_frames)),
        SystemKind::EnigmaHw2M => Translator::Enigma(EnigmaController::new(phys_frames)),
        SystemKind::Vbi1 => vbi(VbiConfig::vbi_1()),
        SystemKind::Vbi2 => vbi(VbiConfig::vbi_2()),
        SystemKind::VbiFull => vbi(VbiConfig::vbi_full()),
    })
}

/// Lays regions out in a virtual address space with guard gaps, 2 MiB-aligned
/// so large pages apply cleanly.
fn layout_regions(sizes: &[u64]) -> Vec<u64> {
    let mut bases = Vec::with_capacity(sizes.len());
    // Start high so virtual addresses never collide with physical addresses
    // in systems whose cache hierarchy sees both (VIVT walks).
    let mut cursor: u64 = 1 << 40;
    for &size in sizes {
        cursor = cursor.next_multiple_of(2 << 20);
        bases.push(cursor);
        cursor += size.next_multiple_of(2 << 20) + (2 << 20);
    }
    bases
}

/// Base of the in-memory CVT a VBI CVT-cache miss reads (16 B an entry).
const CVT_BASE: u64 = 0x10_0000;

/// The one client a VBI run executes as.
const CLIENT: ClientId = ClientId(1);

/// Hit latency of the memory controller's table cache.
const TABLE_CACHE_HIT_CYCLES: u64 = 12;

/// One translator call, before its walk is played.
#[derive(Default)]
struct Translation {
    /// The physical line, or `None` for a zero line.
    paddr: Option<u64>,
    /// The L1 TLB missed.
    l1_miss: bool,
    /// The L2 TLB supplied the translation.
    l2_hit: bool,
    /// Translation-structure references the walk made.
    walks: Vec<u64>,
}

impl From<MmuTranslation> for Translation {
    fn from(t: MmuTranslation) -> Self {
        Translation {
            paddr: Some(t.paddr),
            l1_miss: !t.events.l1_tlb_hit,
            l2_hit: t.events.l2_tlb_hit,
            walks: t.events.walk_accesses,
        }
    }
}

/// What translates. The variant also fixes the placement, the walk path and
/// the overlap (the module table).
enum Translator {
    Native(NativeMmu),
    Nested(NestedMmu),
    Perfect(PerfectMmu),
    Vivt(NativeMmu),
    Enigma(EnigmaController),
    /// The MTL behind a direct-mapped CVT cache, refilled from the client's
    /// CVT entries (one per region, built by `attach_regions`).
    Vbi {
        mtl: Box<Mtl>,
        cvt_cache: CvtCache,
        entries: Vec<CvtEntry>,
    },
}

impl Translator {
    fn vbi(config: VbiConfig) -> Self {
        let cvt_cache = CvtCache::new(config.cvt_cache_slots);
        Translator::Vbi { mtl: Box::new(Mtl::new(config)), cvt_cache, entries: Vec::new() }
    }

    /// Translation sits behind the caches (at an LLC miss), not before L1.
    fn at_llc_miss(&self) -> bool {
        matches!(self, Translator::Vivt(_) | Translator::Enigma(_) | Translator::Vbi { .. })
    }

    /// Walk references go to the memory controller's table cache rather than
    /// through the cache hierarchy (a CPU-side walker's path).
    fn walks_at_controller(&self) -> bool {
        matches!(self, Translator::Enigma(_) | Translator::Vbi { .. })
    }

    /// Cycles of a demand translation hidden behind the LLC lookup.
    fn overlap(&self) -> u64 {
        match self {
            Translator::Vivt(_) | Translator::Vbi { .. } => CacheTiming::default().llc,
            _ => 0,
        }
    }

    fn translate(&mut self, addr: u64, writeback: bool) -> Translation {
        match self {
            Translator::Native(mmu) | Translator::Vivt(mmu) => mmu.translate(addr).into(),
            Translator::Nested(mmu) => mmu.translate(addr).into(),
            Translator::Perfect(mmu) => {
                Translation { paddr: Some(mmu.translate(addr)), ..Default::default() }
            }
            Translator::Enigma(ctc) => {
                let t = ctc.translate(addr);
                Translation { paddr: Some(t.paddr), walks: t.walk_accesses, ..Default::default() }
            }
            Translator::Vbi { mtl, .. } => {
                let access = if writeback { MtlAccess::Writeback } else { MtlAccess::Read };
                let t = mtl.translate(VbiAddress(addr), access).expect("sim VBs are enabled");
                let paddr = match t.result {
                    TranslateResult::Mapped(pa) => Some(pa.to_bits()),
                    TranslateResult::ZeroLine => None,
                };
                let walks = t.events.table_accesses.iter().map(|pa| pa.to_bits()).collect();
                Translation { paddr, walks, ..Default::default() }
            }
        }
    }
}

/// A complete single-core memory system: address layout, caches, a
/// translator and a memory controller.
pub struct Machine {
    caches: CacheHierarchy,
    memory: MemoryController,
    /// A small SRAM cache at the memory controller holding translation
    /// entries: the working memory of the MTL's "programmable low-power core"
    /// (§4.5.3; Pinnacle-class controllers have such SRAM). Enigma's
    /// centralized translation cache gets the same structure.
    table_cache: Cache,
    translator: Translator,
    /// Each region's base in the address space the caches see.
    bases: Vec<u64>,
    counters: SystemCounters,
}

impl Machine {
    fn new(translator: Translator) -> Self {
        Self {
            caches: CacheHierarchy::per_core_default(),
            memory: MemoryController::ddr3_1600(),
            table_cache: Cache::new(256 << 10, 8),
            translator,
            bases: Vec::new(),
            counters: SystemCounters::default(),
        }
    }

    /// Registers the workload's regions (sizes in bytes) before the run.
    pub fn attach_regions(&mut self, sizes: &[u64]) {
        self.bases = match &mut self.translator {
            Translator::Enigma(_) => {
                let mut space = IaSpace::new();
                sizes.iter().map(|&size| space.assign(size)).collect()
            }
            Translator::Vbi { mtl, entries, .. } => {
                let mut cvt = Cvt::new(CLIENT, sizes.len());
                let mut bases = Vec::with_capacity(sizes.len());
                for &size in sizes {
                    let sc = SizeClass::smallest_fitting(size).expect("workloads fit a size class");
                    let vb = mtl.find_free_vb(sc, VmId::HOST).expect("plenty of VBs");
                    mtl.enable_vb(vb, VbProperties::NONE).expect("fresh VB");
                    mtl.add_ref(vb).expect("enabled");
                    let index = cvt.attach(vb, Rwx::ALL).expect("one entry per region");
                    entries.push(*cvt.entry(index).expect("just attached"));
                    bases.push(vb.to_bits());
                }
                bases
            }
            _ => layout_regions(sizes),
        };
    }

    /// Plays one access and returns the stall cycles it exposes to the core
    /// (before MLP overlap).
    pub fn access(&mut self, region: usize, offset: u64, is_write: bool) -> u64 {
        let mut stall = self.check_cvt(region);
        let mut addr = self.bases[region] + offset;
        if !self.translator.at_llc_miss() {
            let (paddr, cycles) = self.translate(addr, false);
            addr = paddr.expect("front-end translators always map");
            stall += cycles;
        }
        let data = self.caches.access(addr, is_write);
        stall += data.latency;
        if data.level == HitLevel::Memory {
            self.counters.llc_misses += 1;
            let (paddr, cycles) = self.at_memory(addr, false);
            stall += cycles;
            match paddr {
                Some(pa) => {
                    stall += self.memory.service(pa);
                    self.counters.dram_accesses += 1;
                }
                None => self.counters.zero_lines += 1,
            }
        }
        for wb in data.llc_writebacks {
            // Write-backs leave the critical path but occupy the device.
            if let (Some(pa), _) = self.at_memory(wb, true) {
                self.memory.service(pa);
                self.counters.dram_accesses += 1;
            }
        }
        stall
    }

    /// Accumulated counters.
    pub fn counters(&self) -> SystemCounters {
        self.counters
    }

    /// Resets counters at the warm-up boundary (cache/TLB state persists).
    pub fn reset_counters(&mut self) {
        self.counters = SystemCounters::default();
        if let Translator::Vbi { mtl, .. } = &mut self.translator {
            mtl.reset_stats();
        }
    }

    /// VBI's protection check: a CVT-cache miss reads the in-memory entry
    /// through the caches and refills the cache. Returns its cycles.
    fn check_cvt(&mut self, region: usize) -> u64 {
        let Translator::Vbi { cvt_cache, entries, .. } = &mut self.translator else {
            return 0;
        };
        if cvt_cache.lookup(CLIENT, region).is_some() {
            return 0;
        }
        cvt_cache.fill(CLIENT, region, entries[region]);
        let entry_addr = CVT_BASE + 16 * region as u64;
        let check = self.caches.access(entry_addr, false);
        if check.level != HitLevel::Memory {
            return check.latency;
        }
        self.counters.translation_accesses += 1;
        check.latency + self.memory.service(entry_addr)
    }

    /// The physical line for a cache line leaving the hierarchy, and the
    /// exposed cycles of translating it there (none before L1).
    fn at_memory(&mut self, addr: u64, writeback: bool) -> (Option<u64>, u64) {
        if !self.translator.at_llc_miss() {
            return (Some(addr), 0);
        }
        let (paddr, cycles) = self.translate(addr, writeback);
        (paddr, cycles.saturating_sub(self.translator.overlap()))
    }

    /// Runs the translator and plays its walk; returns the physical line
    /// (`None` for a zero line) and the cycles spent.
    fn translate(&mut self, addr: u64, writeback: bool) -> (Option<u64>, u64) {
        let t = self.translator.translate(addr, writeback);
        if t.l1_miss {
            self.counters.tlb_misses += 1;
        }
        let mut stall = if t.l2_hit { L2_TLB_LATENCY } else { 0 };
        let at_controller = self.translator.walks_at_controller();
        for pa in t.walks {
            self.counters.translation_accesses += 1;
            if at_controller {
                stall += TABLE_CACHE_HIT_CYCLES;
                if !self.table_cache.access(pa, false).hit {
                    stall += self.memory.service(pa);
                }
            } else {
                // A CPU-side walker: page-table entries are cacheable.
                let read = self.caches.access(pa, false);
                stall += read.latency;
                if read.level == HitLevel::Memory {
                    stall += self.memory.service(pa);
                }
                for wb in read.llc_writebacks {
                    self.memory.service(wb);
                }
            }
        }
        (t.paddr, stall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAMES: u64 = 1 << 18; // 1 GiB

    fn touch(system: &mut Machine, n: u64) -> u64 {
        let mut stall = 0;
        for i in 0..n {
            stall += system.access(0, (i * 64) % (1 << 20), i % 4 == 0);
        }
        stall
    }

    #[test]
    fn all_systems_build_and_run() {
        // Each system's stall over the same accesses, pinned. The cold walks
        // at the start expose every translator's placement, walk path and
        // overlap, which no figure run does for Enigma (its CTC is warm
        // after the init phase).
        let pinned = [78746, 78534, 79562, 78876, 78250, 78628, 78441, 78488, 43144, 43144];
        for (kind, pin) in SystemKind::ALL.into_iter().zip(pinned) {
            let mut system = build_system(kind, FRAMES);
            system.attach_regions(&[1 << 20, 1 << 16]);
            assert_eq!(touch(&mut system, 1000), pin, "{}", kind.label());
            let _ = system.access(1, 0, true);
        }
    }

    #[test]
    fn perfect_tlb_beats_native_on_tlb_hostile_streams() {
        let mut native = build_system(SystemKind::Native, FRAMES);
        let mut perfect = build_system(SystemKind::PerfectTlb, FRAMES);
        native.attach_regions(&[256 << 20]);
        perfect.attach_regions(&[256 << 20]);
        let mut native_stall = 0;
        let mut perfect_stall = 0;
        // Page-stride pattern: every access a new page.
        for i in 0..20_000u64 {
            let off = (i * 4096 * 7) % (256 << 20);
            native_stall += native.access(0, off, false);
            perfect_stall += perfect.access(0, off, false);
        }
        assert!(native_stall > perfect_stall, "{native_stall} vs {perfect_stall}");
        assert!(native.counters().translation_accesses > 0);
        assert_eq!(perfect.counters().translation_accesses, 0);
    }

    #[test]
    fn virtual_walks_cost_more_than_native_walks() {
        let mut native = build_system(SystemKind::Native, FRAMES);
        let mut virt = build_system(SystemKind::Virtual, FRAMES);
        native.attach_regions(&[256 << 20]);
        virt.attach_regions(&[256 << 20]);
        for i in 0..20_000u64 {
            let off = (i * 4096 * 7) % (256 << 20);
            native.access(0, off, false);
            virt.access(0, off, false);
        }
        assert!(virt.counters().translation_accesses > native.counters().translation_accesses * 2);
    }

    #[test]
    fn vbi2_returns_zero_lines_for_untouched_data() {
        let mut vbi = build_system(SystemKind::Vbi2, FRAMES);
        vbi.attach_regions(&[64 << 20]);
        // Pure reads over fresh memory: all LLC misses become zero lines.
        for i in 0..1000u64 {
            vbi.access(0, i * 4096, false);
        }
        let zero_lines = vbi.counters().zero_lines;
        assert!(zero_lines > 900, "{zero_lines}");
        assert_eq!(vbi.counters().dram_accesses, 0);
    }

    #[test]
    fn vbi_full_direct_maps_and_avoids_walks() {
        let mut vbi = build_system(SystemKind::VbiFull, FRAMES);
        vbi.attach_regions(&[64 << 20]);
        // Write everything once (allocates), then re-read with cold caches.
        for i in 0..10_000u64 {
            vbi.access(0, i * 4096 % (64 << 20), true);
        }
        vbi.reset_counters();
        for i in 0..10_000u64 {
            vbi.access(0, (i * 4096 * 13) % (64 << 20), false);
        }
        let c = vbi.counters();
        // Direct-mapped VB: the whole-VB TLB entry serves almost every miss.
        assert!(
            c.translation_accesses < c.llc_misses / 10,
            "translation {} vs misses {}",
            c.translation_accesses,
            c.llc_misses
        );
    }
}
