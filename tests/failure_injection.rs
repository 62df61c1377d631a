//! Failure-injection tests: exhaust each resource and verify the system
//! degrades with clean errors and intact data, never corruption.

use vbi::core::os::{BinaryImage, Os, Section, SectionKind};
use vbi::core::swap::{PageData, PressureBackend};
use vbi::core::translate::SwapSlot;
use vbi::core::vm::VmId;
use vbi::{Rwx, SizeClass, System, VbProperties, VbiConfig, VbiError};

/// A backing store with no room at all: it refuses every store.
#[derive(Debug)]
struct FullBackend;

impl PressureBackend for FullBackend {
    fn try_store(&mut self, data: PageData) -> Result<SwapSlot, PageData> {
        Err(data)
    }

    fn try_store_zero(&mut self) -> Option<SwapSlot> {
        None
    }

    fn load(&mut self, _: SwapSlot) -> Option<PageData> {
        None
    }

    fn peek(&self, _: SwapSlot) -> Option<&PageData> {
        None
    }

    fn duplicate(&mut self, _: SwapSlot) -> vbi::Result<SwapSlot> {
        Err(VbiError::BackingStoreFull { capacity_pages: 0 })
    }

    fn discard(&mut self, _: SwapSlot) {}

    fn len(&self) -> usize {
        0
    }

    fn zero_len(&self) -> usize {
        0
    }

    fn stored_bytes(&self) -> u64 {
        0
    }

    fn capacity_pages(&self) -> Option<u64> {
        Some(0)
    }
}

#[test]
fn cvt_exhaustion_is_a_clean_error() {
    let system =
        System::new(VbiConfig { phys_frames: 1 << 14, cvt_capacity: 4, ..VbiConfig::vbi_full() });
    let client = system.create_client().unwrap();
    for _ in 0..4 {
        client.request_vb(4096, VbProperties::NONE, Rwx::READ).unwrap();
    }
    let err = client.request_vb(4096, VbProperties::NONE, Rwx::READ);
    assert!(matches!(err, Err(VbiError::CvtFull(_))));
    // The failed request must not leak an enabled VB: the next release and
    // re-request cycle still works.
    client.release_vb(0).unwrap();
    client.request_vb(4096, VbProperties::NONE, Rwx::READ).unwrap();
}

#[test]
fn client_id_exhaustion_and_recycling() {
    let system = System::new(VbiConfig { phys_frames: 1 << 12, ..VbiConfig::vbi_full() });
    // Client IDs recycle through destruction.
    let a = system.create_client().unwrap();
    let a_id = a.id();
    a.destroy().unwrap();
    let b = system.create_client().unwrap();
    assert_eq!(a_id, b.id(), "released IDs are reused");
}

#[test]
fn oom_during_write_leaves_prior_data_intact() {
    // With a zero-capacity backing store the pressure path cannot spill, so
    // exhausting physical memory must still surface a clean OOM.
    let system = System::new(VbiConfig { phys_frames: 24, ..VbiConfig::vbi_1() });
    system.mtl_mut().set_backing(Box::new(FullBackend)).unwrap();
    let client = system.create_client().unwrap();
    let vb = client.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    let mut written = Vec::new();
    for page in 0..32u64 {
        match client.store_u64(vb.at(page << 12), page + 1) {
            Ok(()) => written.push(page),
            Err(VbiError::OutOfPhysicalMemory) => break,
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(!written.is_empty(), "some writes must succeed");
    assert!(written.len() < 32, "memory must run out");
    for page in written {
        assert_eq!(client.load_u64(vb.at(page << 12)).unwrap(), page + 1);
    }
}

#[test]
fn same_workload_succeeds_when_the_backing_store_can_absorb_it() {
    // The counterpart of `oom_during_write_leaves_prior_data_intact`: with
    // the default (unbounded) backing store, the engine's pressure path
    // self-evicts and the oversubscribed working set completes byte-exactly.
    let system = System::new(VbiConfig { phys_frames: 24, ..VbiConfig::vbi_1() });
    let client = system.create_client().unwrap();
    let vb = client.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    for page in 0..32u64 {
        client.store_u64(vb.at(page << 12), page + 1).unwrap();
    }
    for page in 0..32u64 {
        assert_eq!(client.load_u64(vb.at(page << 12)).unwrap(), page + 1);
    }
    let stats = system.mtl().stats();
    assert!(stats.evictions > 0, "32 pages cannot fit 24 frames: {stats:?}");
    assert!(stats.faults_in > 0, "{stats:?}");
}

#[test]
fn double_enable_and_double_disable_are_rejected() {
    let system = System::new(VbiConfig { phys_frames: 1 << 12, ..VbiConfig::vbi_full() });
    let vb = system.mtl().find_free_vb(SizeClass::Kib4, VmId::HOST).unwrap();
    system.mtl_mut().enable_vb(vb, VbProperties::NONE).unwrap();
    assert!(matches!(
        system.mtl_mut().enable_vb(vb, VbProperties::NONE),
        Err(VbiError::VbAlreadyEnabled(_))
    ));
    system.mtl_mut().disable_vb(vb).unwrap();
    assert!(matches!(system.mtl_mut().disable_vb(vb), Err(VbiError::VbNotEnabled(_))));
}

#[test]
fn detach_of_unattached_vb_fails_without_corruption() {
    let system = System::new(VbiConfig { phys_frames: 1 << 12, ..VbiConfig::vbi_full() });
    let a = system.create_client().unwrap();
    let b = system.create_client().unwrap();
    let vb = a.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    // b never attached: detaching must fail and leave a's access intact.
    assert!(b.detach(vb.vbuid).is_err());
    a.store_u64(vb.at(0), 5).unwrap();
    assert_eq!(a.load_u64(vb.at(0)).unwrap(), 5);
}

#[test]
fn promotion_at_the_top_class_is_rejected() {
    let system = System::new(VbiConfig { phys_frames: 1 << 12, ..VbiConfig::vbi_full() });
    let vb = system.mtl().find_free_vb(SizeClass::Tib128, VmId::HOST).unwrap();
    system.mtl_mut().enable_vb(vb, VbProperties::NONE).unwrap();
    let other = system.mtl().find_free_vb(SizeClass::Tib128, VmId::HOST).unwrap();
    system.mtl_mut().enable_vb(other, VbProperties::NONE).unwrap();
    assert!(matches!(
        system.mtl_mut().promote_vb(vb, other),
        Err(VbiError::PromoteNotLarger { .. })
    ));
}

#[test]
fn swap_thrash_under_extreme_pressure_preserves_data() {
    // Two VBs, each bigger than half of memory, accessed alternately: pages
    // ping-pong through the backing store.
    let system = System::new(VbiConfig { phys_frames: 28, ..VbiConfig::vbi_2() });
    let client = system.create_client().unwrap();
    let a = client.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    let b = client.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    for round in 0..3u64 {
        for page in 0..16u64 {
            client.store_u64(a.at(page << 12), round * 100 + page).unwrap();
            client.store_u64(b.at(page << 12), round * 200 + page).unwrap();
        }
    }
    for page in 0..16u64 {
        assert_eq!(client.load_u64(a.at(page << 12)).unwrap(), 200 + page);
        assert_eq!(client.load_u64(b.at(page << 12)).unwrap(), 400 + page);
    }
    assert!(system.mtl().stats().pages_swapped_out > 0);
    assert_eq!(system.audit(), Ok(()));
}

#[test]
fn pinned_vbs_are_swapped_only_as_a_last_resort() {
    let system = System::new(VbiConfig { phys_frames: 48, ..VbiConfig::vbi_2() });
    let client = system.create_client().unwrap();
    let pinned = client.request_vb(64 << 10, VbProperties::PINNED, Rwx::READ_WRITE).unwrap();
    for page in 0..16u64 {
        client.store_u64(pinned.at(page << 12), page).unwrap();
    }
    let victim = client.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    for page in 0..16u64 {
        client.store_u64(victim.at(page << 12), page).unwrap();
    }
    // Pressure from a third VB should prefer swapping the unpinned one.
    let third = client.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    for page in 0..8u64 {
        client.store_u64(third.at(page << 12), page).unwrap();
    }
    // All data is intact regardless of who got swapped.
    for page in 0..16u64 {
        assert_eq!(client.load_u64(pinned.at(page << 12)).unwrap(), page);
        assert_eq!(client.load_u64(victim.at(page << 12)).unwrap(), page);
    }
    assert_eq!(system.audit(), Ok(()));
}

#[test]
fn process_destruction_mid_pressure_releases_swap() {
    let mut os = Os::new(VbiConfig { phys_frames: 64, ..VbiConfig::vbi_2() });
    let image = BinaryImage {
        name: "hog".into(),
        sections: vec![Section { kind: SectionKind::Data, contents: vec![0; 64] }],
    };
    let p1 = os.create_process(&image).unwrap();
    let h1 = os.create_heap(p1, 128 << 10, VbProperties::NONE).unwrap();
    let s1 = os.process(p1).unwrap().session().clone();
    for page in 0..24u64 {
        s1.store_u64(h1.at(page << 12), page).unwrap();
    }
    let p2 = os.create_process(&image).unwrap();
    let h2 = os.create_heap(p2, 128 << 10, VbProperties::NONE).unwrap();
    let s2 = os.process(p2).unwrap().session().clone();
    for page in 0..24u64 {
        s2.store_u64(h2.at(page << 12), 100 + page).unwrap();
    }
    // Destroy the first process: its swap slots and frames are released.
    os.destroy_process(p1).unwrap();
    for page in 0..24u64 {
        assert_eq!(s2.load_u64(h2.at(page << 12)).unwrap(), 100 + page);
    }
    assert_eq!(os.system().audit(), Ok(()));
}
