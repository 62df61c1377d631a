//! Counters collected by the Memory Translation Layer.

/// MTL statistics: translation traffic, optimization hit counts, and
/// memory-management events.
///
/// The evaluation (§7.2) is driven by exactly these counters: the number of
/// translation requests reaching the MTL, how many were filtered by the MTL
/// TLB, how many table accesses the walks cost, and how many main-memory
/// accesses were avoided outright by delayed allocation's zero-line returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MtlStats {
    /// Translation requests received (LLC misses + dirty writebacks).
    pub translation_requests: u64,
    /// Requests satisfied by the MTL TLBs (page-grain or whole-VB).
    pub tlb_hits: u64,
    /// Requests that needed a translation-structure walk.
    pub walks: u64,
    /// Total table-entry memory accesses performed by walks.
    pub walk_table_accesses: u64,
    /// VIT cache hits while locating translation structures.
    pub vit_cache_hits: u64,
    /// VIT cache misses (each costs one memory access to the VIT).
    pub vit_cache_misses: u64,
    /// Reads of never-allocated regions answered with a zero line (§5.1).
    pub zero_line_returns: u64,
    /// 4 KiB regions allocated.
    pub pages_allocated: u64,
    /// Allocations deferred to a dirty-eviction writeback (§5.1).
    pub delayed_allocations: u64,
    /// Whole-VB early reservations that succeeded contiguously (§5.3).
    pub reservations_full: u64,
    /// Early reservations that fell back to sparse extents (§5.3).
    pub reservations_partial: u64,
    /// Frames taken from another VB's reservation under memory pressure.
    pub frames_stolen: u64,
    /// Copy-on-write page copies performed after `clone_vb`.
    pub cow_copies: u64,
    /// Pages moved to the backing store.
    pub pages_swapped_out: u64,
    /// Pages brought back from the backing store.
    pub pages_swapped_in: u64,
    /// VBs promoted to a larger size class.
    pub promotions: u64,
    /// VBs cloned copy-on-write (`clone_vb`, §4.4).
    pub vbs_cloned: u64,
    /// VBs whose contents were migrated to a VB homed elsewhere (§6.2);
    /// counted on the source MTL.
    pub vbs_migrated: u64,
    /// Direct-mapped VBs demoted to table-based structures (reservation
    /// stolen or contiguity broken).
    pub demotions: u64,
    /// Pages evicted by the reclaim policy (clock / second-chance) to
    /// relieve memory pressure (§3.4).
    pub evictions: u64,
    /// Swapped-out pages whose payload had to be written back to the
    /// backing store (all-zero pages are dropped for free).
    pub writebacks: u64,
    /// Translations that found the page swapped out and faulted it back
    /// into a frame.
    pub faults_in: u64,
    /// Order-0 allocations served from the magazine frame cache without
    /// touching the buddy allocator (see [`crate::frame_cache`]).
    pub frame_cache_hits: u64,
    /// Order-0 allocations the frame cache had to send to the buddy.
    pub frame_cache_misses: u64,
    /// Batch refills the frame cache pulled from the buddy.
    pub frame_cache_refills: u64,
    /// Times cached frames were returned to the buddy by policy (an
    /// order > 0 reservation, a table block the buddy alone could not
    /// fund, a donation, a free-pool top-up).
    pub frame_cache_flushes: u64,
    /// Full magazines the frame cache returned to the buddy in bulk.
    pub frame_cache_batch_frees: u64,
}

impl MtlStats {
    /// Accumulates another stats block into this one, field by field.
    ///
    /// Sharded deployments (`vbi-service`) run one MTL per shard; merging
    /// the per-shard counters yields the same totals a single MTL would
    /// have reported for the combined traffic.
    pub fn merge(&mut self, other: &MtlStats) {
        let MtlStats {
            translation_requests,
            tlb_hits,
            walks,
            walk_table_accesses,
            vit_cache_hits,
            vit_cache_misses,
            zero_line_returns,
            pages_allocated,
            delayed_allocations,
            reservations_full,
            reservations_partial,
            frames_stolen,
            cow_copies,
            pages_swapped_out,
            pages_swapped_in,
            promotions,
            vbs_cloned,
            vbs_migrated,
            demotions,
            evictions,
            writebacks,
            faults_in,
            frame_cache_hits,
            frame_cache_misses,
            frame_cache_refills,
            frame_cache_flushes,
            frame_cache_batch_frees,
        } = other;
        self.translation_requests += translation_requests;
        self.tlb_hits += tlb_hits;
        self.walks += walks;
        self.walk_table_accesses += walk_table_accesses;
        self.vit_cache_hits += vit_cache_hits;
        self.vit_cache_misses += vit_cache_misses;
        self.zero_line_returns += zero_line_returns;
        self.pages_allocated += pages_allocated;
        self.delayed_allocations += delayed_allocations;
        self.reservations_full += reservations_full;
        self.reservations_partial += reservations_partial;
        self.frames_stolen += frames_stolen;
        self.cow_copies += cow_copies;
        self.pages_swapped_out += pages_swapped_out;
        self.pages_swapped_in += pages_swapped_in;
        self.promotions += promotions;
        self.vbs_cloned += vbs_cloned;
        self.vbs_migrated += vbs_migrated;
        self.demotions += demotions;
        self.evictions += evictions;
        self.writebacks += writebacks;
        self.faults_in += faults_in;
        self.frame_cache_hits += frame_cache_hits;
        self.frame_cache_misses += frame_cache_misses;
        self.frame_cache_refills += frame_cache_refills;
        self.frame_cache_flushes += frame_cache_flushes;
        self.frame_cache_batch_frees += frame_cache_batch_frees;
    }

    /// Fraction of translation requests served without a walk.
    pub fn tlb_hit_rate(&self) -> f64 {
        if self.translation_requests == 0 {
            return 1.0;
        }
        self.tlb_hits as f64 / self.translation_requests as f64
    }

    /// Mean table accesses per walk (0 when no walk happened).
    pub fn accesses_per_walk(&self) -> f64 {
        if self.walks == 0 {
            return 0.0;
        }
        self.walk_table_accesses as f64 / self.walks as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_denominators() {
        let s = MtlStats::default();
        assert_eq!(s.tlb_hit_rate(), 1.0);
        assert_eq!(s.accesses_per_walk(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let s = MtlStats {
            translation_requests: 10,
            tlb_hits: 9,
            walks: 1,
            walk_table_accesses: 3,
            ..Default::default()
        };
        assert!((s.tlb_hit_rate() - 0.9).abs() < 1e-12);
        assert!((s.accesses_per_walk() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_every_field() {
        let a = MtlStats {
            translation_requests: 1,
            tlb_hits: 2,
            walks: 3,
            walk_table_accesses: 4,
            vit_cache_hits: 5,
            vit_cache_misses: 6,
            zero_line_returns: 7,
            pages_allocated: 8,
            delayed_allocations: 9,
            reservations_full: 10,
            reservations_partial: 11,
            frames_stolen: 12,
            cow_copies: 13,
            pages_swapped_out: 14,
            pages_swapped_in: 15,
            promotions: 16,
            vbs_cloned: 17,
            vbs_migrated: 18,
            demotions: 19,
            evictions: 20,
            writebacks: 21,
            faults_in: 22,
            frame_cache_hits: 23,
            frame_cache_misses: 24,
            frame_cache_refills: 25,
            frame_cache_flushes: 26,
            frame_cache_batch_frees: 27,
        };
        let mut merged = a;
        merged.merge(&a);
        assert_eq!(merged.translation_requests, 2);
        assert_eq!(merged.walk_table_accesses, 8);
        assert_eq!(merged.vbs_cloned, 34);
        assert_eq!(merged.vbs_migrated, 36);
        assert_eq!(merged.demotions, 38);
        assert_eq!(merged.evictions, 40);
        assert_eq!(merged.writebacks, 42);
        assert_eq!(merged.faults_in, 44);
        assert_eq!(merged.frame_cache_hits, 46);
        assert_eq!(merged.frame_cache_misses, 48);
        assert_eq!(merged.frame_cache_refills, 50);
        assert_eq!(merged.frame_cache_flushes, 52);
        assert_eq!(merged.frame_cache_batch_frees, 54);
        // Merging the zero block is the identity.
        let mut b = a;
        b.merge(&MtlStats::default());
        assert_eq!(b, a);
    }

    #[test]
    fn merge_equals_a_combined_runs_counters() {
        use crate::addr::SizeClass;
        use crate::config::VbiConfig;
        use crate::mtl::Mtl;
        use crate::vb::VbProperties;
        use crate::vm::VmId;

        let config = VbiConfig { phys_frames: 4096, ..VbiConfig::vbi_full() };
        let setup = |m: &mut Mtl| {
            let a = m.find_free_vb(SizeClass::Kib128, VmId::HOST).unwrap();
            m.enable_vb(a, VbProperties::NONE).unwrap();
            let b = m.find_free_vb(SizeClass::Mib4, VmId::HOST).unwrap();
            m.enable_vb(b, VbProperties::NONE).unwrap();
            (a, b)
        };
        let phase_a = |m: &mut Mtl, vb: crate::addr::Vbuid| {
            for page in 0..8u64 {
                m.write_u64(vb.address(page << 12).unwrap(), page).unwrap();
            }
            for page in 0..8u64 {
                assert_eq!(m.read_u64(vb.address(page << 12).unwrap()).unwrap(), page);
            }
        };
        let phase_b = |m: &mut Mtl, vb: crate::addr::Vbuid| {
            // Reads of untouched pages take the zero-line path; sparse
            // writes then allocate.
            for page in (0..64u64).step_by(7) {
                assert_eq!(m.read_u64(vb.address(page << 12).unwrap()).unwrap(), 0);
            }
            for page in (0..64u64).step_by(13) {
                m.write_u64(vb.address(page << 12).unwrap(), page).unwrap();
            }
        };
        let phase_c = |m: &mut Mtl, src: crate::addr::Vbuid| {
            // COW-clone `src`, then migrate its contents into a fresh
            // same-class VB (the 1-MTL degenerate case) — the ops behind
            // the `vbs_cloned` / `vbs_migrated` counters.
            let clone = m.find_free_vb(src.size_class(), VmId::HOST).unwrap();
            m.enable_vb(clone, VbProperties::NONE).unwrap();
            m.clone_vb(src, clone).unwrap();
            let dest = m.find_free_vb(src.size_class(), VmId::HOST).unwrap();
            m.enable_vb(dest, VbProperties::NONE).unwrap();
            Mtl::migrate_contents(m, None, src, dest).unwrap();
            assert_eq!(m.read_u64(dest.address(3 << 12).unwrap()).unwrap(), 3);
            dest
        };
        let phase_d = |m: &mut Mtl, b: crate::addr::Vbuid, dest: crate::addr::Vbuid| {
            // Pressure phase: policy-evict a few resident pages, then touch
            // every page that could have been the victim so the evicted
            // ones fault back in.
            let evicted = m.reclaim_frames(4);
            assert_eq!(evicted, 4);
            for page in (0..64u64).step_by(13) {
                assert_eq!(m.read_u64(b.address(page << 12).unwrap()).unwrap(), page);
            }
            for page in 1..8u64 {
                assert_eq!(m.read_u64(dest.address(page << 12).unwrap()).unwrap(), page);
            }
        };

        // One MTL runs all phases back to back: the combined counters.
        let mut combined = Mtl::new(config.clone());
        let (a, b) = setup(&mut combined);
        phase_a(&mut combined, a);
        phase_b(&mut combined, b);
        let dest = phase_c(&mut combined, a);
        phase_d(&mut combined, b, dest);
        let total = combined.stats();

        // An identical MTL snapshots per phase (reset_stats clears only the
        // counters, not the functional state) and merges the snapshots.
        let mut split = Mtl::new(config);
        let (a, b) = setup(&mut split);
        phase_a(&mut split, a);
        let first = split.stats();
        split.reset_stats();
        phase_b(&mut split, b);
        let second = split.stats();
        split.reset_stats();
        let dest = phase_c(&mut split, a);
        let third = split.stats();
        split.reset_stats();
        phase_d(&mut split, b, dest);
        let mut merged = first;
        merged.merge(&second);
        merged.merge(&third);
        merged.merge(&split.stats());

        assert_eq!(merged, total);
        assert!(total.translation_requests > 0 && total.zero_line_returns > 0);
        assert_eq!(total.vbs_cloned, 1);
        assert_eq!(total.vbs_migrated, 1);
        assert_eq!(total.evictions, 4);
        assert_eq!(total.faults_in, 4, "every evicted page was touched again");
        assert!(total.writebacks > 0, "evicted payloads were written back");
    }
}
