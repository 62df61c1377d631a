//! Property-based tests on the workspace's core invariants.

use proptest::prelude::*;

use vbi::core::buddy::BuddyAllocator;
use vbi::core::phys::Frame;
use vbi::core::translate::{PageEntry, TranslationStructure};
use vbi::core::vm::VmId;
use vbi::core::FrameAllocator;
use vbi::{Rwx, SizeClass, System, VbProperties, VbiConfig, Vbuid};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// VBI addresses round-trip: (class, vbid, offset) -> bits -> back.
    #[test]
    fn vbi_addresses_roundtrip(
        class_id in 0u8..8,
        vbid_seed in any::<u64>(),
        offset_seed in any::<u64>(),
    ) {
        let sc = SizeClass::from_id(class_id).unwrap();
        let vbid = vbid_seed % sc.vb_count();
        let offset = offset_seed % sc.bytes();
        let vb = Vbuid::new(sc, vbid);
        let addr = vb.address(offset).unwrap();
        prop_assert_eq!(addr.vbuid(), vb);
        prop_assert_eq!(addr.offset(), offset);
        prop_assert_eq!(addr.size_class(), sc);
        prop_assert_eq!(addr.page_index(), offset >> 12);
    }

    /// Distinct VBs never produce the same VBI address.
    #[test]
    fn distinct_vbs_never_alias(
        a_class in 0u8..8, a_vbid in 0u64..64, a_off in any::<u64>(),
        b_class in 0u8..8, b_vbid in 0u64..64, b_off in any::<u64>(),
    ) {
        let a = Vbuid::new(SizeClass::from_id(a_class).unwrap(), a_vbid);
        let b = Vbuid::new(SizeClass::from_id(b_class).unwrap(), b_vbid);
        prop_assume!(a != b);
        let addr_a = a.address(a_off % a.bytes()).unwrap();
        let addr_b = b.address(b_off % b.bytes()).unwrap();
        prop_assert_ne!(addr_a, addr_b);
    }

    /// The buddy allocator never double-allocates, never loses frames, and
    /// always merges back to full capacity.
    #[test]
    fn buddy_allocator_conserves_frames(
        total_exp in 6u32..12,
        ops in prop::collection::vec((0u32..4, any::<u8>()), 1..80),
    ) {
        let total = 1u64 << total_exp;
        let mut buddy = BuddyAllocator::new(total);
        let mut live: Vec<(Frame, u32)> = Vec::new();
        let mut covered: std::collections::HashSet<u64> = std::collections::HashSet::new();

        for (order, action) in ops {
            if action % 2 == 0 || live.is_empty() {
                if let Some(frame) = buddy.allocate(order) {
                    // Natural alignment and no overlap with live blocks.
                    prop_assert_eq!(frame.0 % (1 << order), 0);
                    for i in 0..(1u64 << order) {
                        prop_assert!(covered.insert(frame.0 + i), "double allocation");
                    }
                    live.push((frame, order));
                }
            } else {
                let idx = (action as usize) % live.len();
                let (frame, order) = live.swap_remove(idx);
                for i in 0..(1u64 << order) {
                    covered.remove(&(frame.0 + i));
                }
                buddy.free(frame, order);
            }
            prop_assert_eq!(buddy.free_frames(), total - covered.len() as u64);
        }
        for (frame, order) in live {
            buddy.free(frame, order);
        }
        prop_assert_eq!(buddy.free_frames(), total);
    }

    /// Translation structures map and walk consistently for any page set.
    #[test]
    fn translation_structures_are_consistent(
        pages in prop::collection::hash_set(0u64..32768, 1..40),
    ) {
        let mut frames =
            FrameAllocator::new(&VbiConfig { phys_frames: 1 << 16, ..VbiConfig::default() });
        let mut ts = TranslationStructure::multi_level(SizeClass::Mib128, &mut frames).unwrap();
        let mut expected = std::collections::HashMap::new();
        for (i, &page) in pages.iter().enumerate() {
            let frame = Frame(40_000 + i as u64);
            ts.set_entry(page, PageEntry::Mapped { frame, cow: false }, &mut frames).unwrap();
            expected.insert(page, frame);
        }
        for page in 0..32768u64 {
            match (ts.entry(page), expected.get(&page)) {
                (PageEntry::Mapped { frame, .. }, Some(&want)) => prop_assert_eq!(frame, want),
                (PageEntry::Unmapped, None) => {}
                (got, want) => prop_assert!(false, "page {}: {:?} vs {:?}", page, got, want),
            }
        }
        // Walk accesses never exceed the structure's depth.
        for &page in &pages {
            let walk = ts.walk(page);
            prop_assert!(walk.table_accesses.len() as u32 <= ts.kind().walk_accesses());
        }
        ts.release_tables(&mut frames);
    }

    /// Functional memory semantics: an arbitrary interleaving of writes and
    /// reads over multiple VBs behaves like a plain map.
    #[test]
    fn system_behaves_like_memory(
        ops in prop::collection::vec((0usize..3, 0u64..256, any::<u64>(), any::<bool>()), 1..60),
    ) {
        let system = System::new(VbiConfig { phys_frames: 1 << 14, ..VbiConfig::vbi_full() });
        let client = system.create_client().unwrap();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                client
                    .request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE)
                    .unwrap()
            })
            .collect();
        let mut model: std::collections::HashMap<(usize, u64), u64> =
            std::collections::HashMap::new();

        for (vb, slot, value, is_write) in ops {
            let addr = handles[vb].at(slot * 8);
            if is_write {
                client.store_u64(addr, value).unwrap();
                model.insert((vb, slot), value);
            } else {
                let got = client.load_u64(addr).unwrap();
                let want = model.get(&(vb, slot)).copied().unwrap_or(0);
                prop_assert_eq!(got, want, "vb {} slot {}", vb, slot);
            }
        }
    }

    /// Clone + write interleavings keep source and destination independent.
    #[test]
    fn cow_clones_are_independent(
        writes in prop::collection::vec((0u64..32, any::<u64>(), any::<bool>()), 1..40),
    ) {
        let system = System::new(VbiConfig { phys_frames: 1 << 14, ..VbiConfig::vbi_full() });
        let client = system.create_client().unwrap();
        let src = client
            .request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE)
            .unwrap();
        // Populate source.
        for page in 0..32u64 {
            client.store_u64(src.at(page * 4096), page).unwrap();
        }
        // Clone via the MTL and attach.
        let dst_vbuid = system.mtl().find_free_vb(src.vbuid.size_class(), VmId::HOST).unwrap();
        system.mtl_mut().enable_vb(dst_vbuid, VbProperties::NONE).unwrap();
        system.mtl_mut().clone_vb(src.vbuid, dst_vbuid).unwrap();
        let dst_index = client.attach(dst_vbuid, Rwx::READ_WRITE).unwrap();

        let mut src_model: Vec<u64> = (0..32).collect();
        let mut dst_model: Vec<u64> = (0..32).collect();
        for (page, value, to_src) in writes {
            if to_src {
                client.store_u64(src.at(page * 4096), value).unwrap();
                src_model[page as usize] = value;
            } else {
                let addr = vbi::VirtualAddress::new(dst_index, page * 4096);
                client.store_u64(addr, value).unwrap();
                dst_model[page as usize] = value;
            }
        }
        for page in 0..32u64 {
            prop_assert_eq!(
                client.load_u64(src.at(page * 4096)).unwrap(),
                src_model[page as usize]
            );
            let addr = vbi::VirtualAddress::new(dst_index, page * 4096);
            prop_assert_eq!(
                client.load_u64(addr).unwrap(),
                dst_model[page as usize]
            );
        }
    }
}

// --- telemetry histograms ---------------------------------------------------

use vbi::core::telemetry::{bucket_index, bucket_upper_bound, Histogram, HISTOGRAM_BUCKETS};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging two histograms is exactly equivalent to recording both
    /// sample streams into one: same buckets, count, sum, max, and
    /// therefore same percentiles.
    #[test]
    fn histogram_merge_equals_combined_recording(
        a in prop::collection::vec(any::<u64>(), 0..200),
        b in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut combined = Histogram::new();
        for &v in &a {
            ha.record(v);
            combined.record(v);
        }
        for &v in &b {
            hb.record(v);
            combined.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), combined.count());
        prop_assert_eq!(ha.sum(), combined.sum());
        prop_assert_eq!(ha.max(), combined.max());
        for i in 0..HISTOGRAM_BUCKETS {
            prop_assert_eq!(ha.bucket(i), combined.bucket(i), "bucket {} diverged", i);
        }
        for p in [50.0, 90.0, 99.0, 99.9] {
            prop_assert_eq!(ha.percentile(p), combined.percentile(p));
        }
    }

    /// Percentile is monotone non-decreasing in p, bounded by the exact
    /// max, and 0 on an empty histogram.
    #[test]
    fn histogram_percentile_monotone_in_p(
        samples in prop::collection::vec(0u64..1 << 40, 0..300),
        // Per-mille points, sorted below: f64 strategies aren't in the
        // vendored proptest, so drive p through integers.
        ps_mille in prop::collection::vec(0u32..1001, 2..8),
    ) {
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut ps_mille = ps_mille;
        ps_mille.sort_unstable();
        let mut prev = 0u64;
        for &pm in &ps_mille {
            let p = f64::from(pm) / 10.0;
            let q = h.percentile(p);
            prop_assert!(q >= prev, "percentile({}) = {} < {}", p, q, prev);
            prop_assert!(q <= h.max());
            prev = q;
        }
        if samples.is_empty() {
            prop_assert_eq!(h.percentile(50.0), 0);
        }
    }

    /// Log-bucket boundaries are exact at powers of two: bucket i covers
    /// [2^(i-1), 2^i - 1], so every 2^k starts a fresh bucket (2^k - 1
    /// lands one bucket lower) and the bucket's upper bound is 2^(k+1) - 1.
    /// A stream of identical power-of-two samples reports that power
    /// exactly at every percentile (the tail bucket reports the true max).
    #[test]
    fn histogram_bucket_boundaries_exact_at_powers_of_two(k in 0u32..40, n in 1u64..64) {
        let v = 1u64 << k;
        prop_assert_eq!(bucket_index(v), bucket_index(v - 1) + 1);
        prop_assert_eq!(bucket_upper_bound(bucket_index(v)), 2 * v - 1);
        if k >= 1 {
            prop_assert_eq!(bucket_index(v + 1), bucket_index(v));
        }
        let mut h = Histogram::new();
        for _ in 0..n {
            h.record(v);
        }
        prop_assert_eq!(h.bucket(bucket_index(v)), n);
        for p in [50.0, 99.0, 99.9, 100.0] {
            prop_assert_eq!(h.percentile(p), v);
        }
    }
}
