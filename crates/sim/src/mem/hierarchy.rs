//! The three-level on-chip cache hierarchy of Table 1.
//!
//! L1 32 KiB/8-way (4 cy), L2 256 KiB/8-way (8 cy), LLC 2 MiB-per-core/16-way
//! (31 cy), 64 B lines, write-back and write-allocate at every level. Dirty
//! evictions propagate downward; dirty LLC evictions are returned to the
//! caller, because under VBI those are precisely the events that trigger
//! physical memory allocation (§5.1).

use super::cache::Cache;
use super::timing::CacheTiming;

/// Where in the hierarchy an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HitLevel {
    /// L1 hit.
    L1,
    /// L2 hit.
    L2,
    /// Last-level cache hit.
    Llc,
    /// Missed everywhere; must go to memory (through the MTL under VBI).
    Memory,
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HierarchyAccess {
    /// Where the line was found.
    pub(crate) level: HitLevel,
    /// Cycles spent reaching that level (memory service time excluded).
    pub(crate) latency: u64,
    /// Dirty lines evicted from the LLC by this access (line addresses).
    pub(crate) llc_writebacks: Vec<u64>,
}

/// A three-level cache hierarchy.
#[derive(Debug, Clone)]
pub(crate) struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
    llc: Cache,
    timing: CacheTiming,
}

impl CacheHierarchy {
    /// Builds a hierarchy with explicit cache geometries.
    pub(crate) fn new(l1: Cache, l2: Cache, llc: Cache, timing: CacheTiming) -> Self {
        Self { l1, l2, llc, timing }
    }

    /// The paper's per-core configuration: 32 KiB/8w L1, 256 KiB/8w L2,
    /// 2 MiB/16w LLC slice.
    pub(crate) fn per_core_default() -> Self {
        Self::new(
            Cache::new(32 << 10, 8),
            Cache::new(256 << 10, 8),
            Cache::new(2 << 20, 16),
            CacheTiming::default(),
        )
    }

    /// Accesses the hierarchy. Fills every level on the way back (inclusive
    /// allocation) and propagates dirty evictions downward.
    pub(crate) fn access(&mut self, addr: u64, write: bool) -> HierarchyAccess {
        let mut llc_writebacks = Vec::new();
        let t = self.timing;

        let l1 = self.l1.access(addr, write);
        if let Some(victim) = l1.writeback {
            // L1 dirty eviction lands in L2.
            let wb = self.l2.access(victim, true);
            if let Some(victim2) = wb.writeback {
                let wb2 = self.llc.access(victim2, true);
                if let Some(out) = wb2.writeback {
                    llc_writebacks.push(out);
                }
            }
        }
        if l1.hit {
            return HierarchyAccess { level: HitLevel::L1, latency: t.l1, llc_writebacks };
        }

        let l2 = self.l2.access(addr, write);
        if let Some(victim) = l2.writeback {
            let wb = self.llc.access(victim, true);
            if let Some(out) = wb.writeback {
                llc_writebacks.push(out);
            }
        }
        if l2.hit {
            return HierarchyAccess { level: HitLevel::L2, latency: t.l1 + t.l2, llc_writebacks };
        }

        let llc = self.llc.access(addr, write);
        if let Some(out) = llc.writeback {
            llc_writebacks.push(out);
        }
        if llc.hit {
            return HierarchyAccess {
                level: HitLevel::Llc,
                latency: t.l1 + t.l2 + t.llc,
                llc_writebacks,
            };
        }
        HierarchyAccess { level: HitLevel::Memory, latency: t.l1 + t.l2 + t.llc, llc_writebacks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_fill_inclusively() {
        let mut h = CacheHierarchy::per_core_default();
        assert_eq!(h.access(0, false).level, HitLevel::Memory);
        assert_eq!(h.access(0, false).level, HitLevel::L1);
    }

    #[test]
    fn latencies_accumulate_per_level() {
        let mut h = CacheHierarchy::per_core_default();
        assert_eq!(h.access(0, false).latency, 43); // 4 + 8 + 31 to miss
        assert_eq!(h.access(0, false).latency, 4);
        // Evict 0 from L1 only: walk more lines than L1 ways in its set.
        for i in 1..=8 {
            h.access(i << 12, false); // same L1 set (32 KiB / 8w = 4 KiB sets)
        }
        let back = h.access(0, false);
        assert!(matches!(back.level, HitLevel::L2 | HitLevel::Llc));
        assert!(back.latency > 4);
    }

    #[test]
    fn dirty_llc_evictions_surface() {
        // Tiny hierarchy so evictions are easy to force.
        let mut h = CacheHierarchy::new(
            Cache::new(128, 1),
            Cache::new(256, 1),
            Cache::new(512, 1),
            CacheTiming::default(),
        );
        h.access(0, true);
        // Conflict 0 out of every level: LLC has 8 sets, so line 512*k maps
        // to set 0 of the LLC.
        let mut writebacks = Vec::new();
        for k in 1..=4 {
            writebacks.extend(h.access(k * 512, true).llc_writebacks);
        }
        assert!(writebacks.contains(&0), "dirty line 0 must eventually leave the LLC");
    }

    #[test]
    fn write_read_sequence_stays_cached() {
        let mut h = CacheHierarchy::per_core_default();
        h.access(0x40, true);
        for _ in 0..100 {
            assert_eq!(h.access(0x40, false).level, HitLevel::L1);
        }
    }
}
