//! Configuration for the VBI reference implementation.

use crate::phys::FRAME_BYTES;
use crate::vm::VmPartition;

/// Sizes and policy knobs for an MTL + processor-side VBI instance.
///
/// The defaults reproduce the configuration evaluated in the paper: 64-entry
/// direct-mapped CVT caches (§4.3), an MTL TLB equal in capacity to the
/// baseline's two-level DTLB hierarchy (64 + 512 entries, Table 1), and the
/// 4 KiB base allocation granularity of §4.5.2. The two policy booleans
/// select between the paper's three evaluated variants:
///
/// | variant  | `delayed_allocation` | `early_reservation` |
/// |----------|----------------------|---------------------|
/// | VBI-1    | `false`              | `false`             |
/// | VBI-2    | `true`               | `false`             |
/// | VBI-Full | `true`               | `true`              |
#[derive(Debug, Clone, PartialEq)]
pub struct VbiConfig {
    /// Physical memory size in 4 KiB frames.
    pub phys_frames: u64,
    /// Maximum entries per Client-VB Table.
    pub cvt_capacity: usize,
    /// Slots in each per-core direct-mapped CVT cache.
    pub cvt_cache_slots: usize,
    /// Entries in the MTL's VIT cache.
    pub vit_cache_entries: usize,
    /// Entries in the MTL's page-granularity TLB.
    pub mtl_tlb_entries: usize,
    /// Associativity of the MTL's page-granularity TLB.
    pub mtl_tlb_ways: usize,
    /// Entries in the MTL's whole-VB (direct-mapping) TLB.
    pub mtl_direct_tlb_entries: usize,
    /// Delay physical allocation until a dirty LLC eviction (§5.1, VBI-2+).
    pub delayed_allocation: bool,
    /// Reserve contiguous physical memory for whole VBs up front (§5.3,
    /// VBI-Full).
    pub early_reservation: bool,
    /// Bits of the VBID reserved for virtual-machine IDs (§6.1); 0 disables
    /// VM partitioning, 5 supports 31 VMs + host as in Figure 5. The engine
    /// places every VB inside its VM's slice ([`VbiConfig::vm_partition`]).
    pub vm_id_bits: u32,
    /// Record per-op counters and latency histograms at `execute`
    /// boundaries (the [`crate::telemetry`] metrics registry). Cheap —
    /// a few relaxed atomics per op — and togglable at runtime through
    /// [`crate::Telemetry::set_metrics`].
    pub telemetry_metrics: bool,
    /// Record compact [`crate::TraceEvent`]s into the per-shard trace
    /// rings. Off by default; togglable at runtime through
    /// [`crate::Telemetry::set_tracing`].
    pub telemetry_tracing: bool,
    /// Capacity of each per-shard trace ring, in events (oldest events are
    /// overwritten once full).
    pub trace_capacity: usize,
    /// Front the buddy allocator with the per-MTL magazine frame cache
    /// (see [`crate::frame_cache`]) so order-0 allocate/free churn skips
    /// the buddy's split/coalesce bookkeeping. No production caller sets it
    /// `false`: that is the buddy-only reference side of the two properties
    /// in `tests/frame_cache_equivalence.rs`, and the switch itself is
    /// pinned by `perf`'s direct-call layer (`FrameCache::new(bool, ..)`),
    /// which is why it stays. It is read inside
    /// [`crate::frame_cache::FrameCache`] only; the MTL never branches on
    /// it.
    pub frame_cache: bool,
    /// Capacity of each of the frame cache's two magazines, in frames.
    pub frame_cache_magazine: usize,
    /// Upper bound on frames pulled from the buddy per cache refill
    /// (clamped to the magazine size).
    pub frame_cache_refill: usize,
}

impl VbiConfig {
    /// The paper's VBI-1 variant: flexible 4 KiB-granularity translation and
    /// inherently virtual caches only.
    pub fn vbi_1() -> Self {
        Self { delayed_allocation: false, early_reservation: false, ..Self::default() }
    }

    /// The paper's VBI-2 variant: VBI-1 plus delayed physical allocation.
    pub fn vbi_2() -> Self {
        Self { delayed_allocation: true, early_reservation: false, ..Self::default() }
    }

    /// The paper's VBI-Full variant: VBI-2 plus early reservation (direct
    /// mapping for most VBs).
    pub fn vbi_full() -> Self {
        Self { delayed_allocation: true, early_reservation: true, ..Self::default() }
    }

    /// Physical memory size in bytes.
    pub fn phys_bytes(&self) -> u64 {
        self.phys_frames * FRAME_BYTES
    }

    /// The §6.1 partition of VBIDs and client IDs among VMs that
    /// `vm_id_bits` describes.
    pub fn vm_partition(&self) -> VmPartition {
        VmPartition::new(self.vm_id_bits)
    }
}

impl Default for VbiConfig {
    /// Defaults: 4 GiB of physical memory, 1024-entry CVTs, 64-slot CVT
    /// caches, 32-entry VIT cache, 512-entry 4-way MTL page TLB plus a
    /// 64-entry direct-VB TLB, both optimizations on (VBI-Full).
    fn default() -> Self {
        Self {
            phys_frames: 1 << 20, // 4 GiB
            cvt_capacity: 1024,
            cvt_cache_slots: 64,
            vit_cache_entries: 32,
            mtl_tlb_entries: 512,
            mtl_tlb_ways: 4,
            mtl_direct_tlb_entries: 64,
            delayed_allocation: true,
            early_reservation: true,
            vm_id_bits: 0,
            telemetry_metrics: true,
            telemetry_tracing: false,
            trace_capacity: 4096,
            frame_cache: true,
            frame_cache_magazine: 32,
            frame_cache_refill: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_set_policy_bits() {
        assert!(!VbiConfig::vbi_1().delayed_allocation);
        assert!(!VbiConfig::vbi_1().early_reservation);
        assert!(VbiConfig::vbi_2().delayed_allocation);
        assert!(!VbiConfig::vbi_2().early_reservation);
        assert!(VbiConfig::vbi_full().delayed_allocation);
        assert!(VbiConfig::vbi_full().early_reservation);
    }

    #[test]
    fn default_matches_paper_structures() {
        let c = VbiConfig::default();
        assert_eq!(c.cvt_cache_slots, 64);
        assert_eq!(c.phys_bytes(), 4 << 30);
    }
}
