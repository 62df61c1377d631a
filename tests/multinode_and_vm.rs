//! Integration tests for the system-architecture extensions: virtual
//! machines (§6.1) and multi-node MTLs (§6.2), exercised together with the
//! rest of the stack. §6.2's machine is the sharded `VbiService`: one MTL
//! per shard, each VB homed on the shard its high VBID bits name.

use vbi::core::vm::{VirtualMachine, VmId, VmPartition};
use vbi::service::{ServiceConfig, VbiService};
use vbi::{Rwx, SizeClass, System, VbProperties, VbiConfig, VirtualAddress};

#[test]
fn thirty_one_guests_coexist() {
    let system =
        System::new(VbiConfig { phys_frames: 1 << 16, vm_id_bits: 5, ..VbiConfig::vbi_full() });
    let partition = VmPartition::new(5);
    let mut vms: Vec<VirtualMachine> =
        (1..=31).map(|i| VirtualMachine::new(VmId(i), partition)).collect();

    let mut handles = Vec::new();
    for vm in &mut vms {
        let guest = vm.create_guest_client(&system).unwrap();
        let vb = vm.find_free_vb(&system, SizeClass::Kib4).unwrap();
        system.mtl_mut().enable_vb(vb, VbProperties::NONE).unwrap();
        let idx = guest.attach(vb, Rwx::READ_WRITE).unwrap();
        guest.store_u64(VirtualAddress::new(idx, 0), vm.id().0 as u64).unwrap();
        handles.push((guest, idx, vm.id().0 as u64));
    }
    // Every guest reads back its own value: full isolation.
    for (guest, idx, want) in handles {
        assert_eq!(guest.load_u64(VirtualAddress::new(idx, 0)).unwrap(), want);
    }
}

#[test]
fn guest_and_host_vbs_never_collide() {
    let partition = VmPartition::new(5);
    let mut seen = std::collections::HashSet::new();
    for vm in 0..32u8 {
        for local in 0..8u64 {
            let vb = partition.vbuid(VmId(vm), SizeClass::Mib4, local).unwrap();
            assert!(seen.insert(vb), "collision at vm {vm} local {local}");
        }
    }
}

#[test]
fn multinode_machine_places_and_migrates() {
    // Four nodes (§6.2): four home MTLs of 4096 frames each.
    let svc = VbiService::new(ServiceConfig::new(
        4,
        VbiConfig { phys_frames: 4 * 4096, ..VbiConfig::vbi_full() },
    ));
    let baseline = svc.free_frames();
    let app = svc.create_client().unwrap();
    let allocated =
        || -> Vec<u64> { svc.shard_stats().iter().map(|s| s.pages_allocated).collect() };
    // Since `before`, shard `home` allocated `pages` pages and no other
    // shard allocated any.
    let assert_allocated_only_on = |before: &[u64], home: usize, pages: u64| {
        for (shard, (now, then)) in allocated().iter().zip(before).enumerate() {
            let want = if shard == home { pages } else { 0 };
            assert_eq!(now - then, want, "pages allocated on shard {shard}");
        }
    };

    // A "process" on node 1 gets a VB homed there (placed by migrating a
    // fresh, never-written VB) and writes every fifth page: only node 1
    // allocates, one frame per page written.
    let before = allocated();
    let vb = app.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    let vb = app.migrate(vb.cvt_index, 1).unwrap();
    assert_eq!(svc.shard_of(vb.vbuid), 1);
    let written: Vec<u64> = (0..32).step_by(5).collect();
    for &page in &written {
        app.store_u64(vb.at(page << 12), 1000 + page).unwrap();
    }
    assert_allocated_only_on(&before, 1, written.len() as u64);

    // Phase change: the process moves to node 2; the OS migrates the VB.
    // Delayed allocation survives: the destination allocates exactly the
    // pages that were written.
    let before = allocated();
    let moved = app.migrate(vb.cvt_index, 2).unwrap();
    assert_eq!(moved.cvt_index, vb.cvt_index, "the program's pointer stays valid");
    assert_eq!(svc.shard_of(moved.vbuid), 2);
    assert_allocated_only_on(&before, 2, written.len() as u64);
    for page in 0..32u64 {
        let want = if written.contains(&page) { 1000 + page } else { 0 };
        assert_eq!(app.load_u64(moved.at(page << 12)).unwrap(), want, "page {page}");
    }
    // The zero-line reads of the unwritten pages allocated nothing.
    assert_allocated_only_on(&before, 2, written.len() as u64);

    // Releasing the VB returns every frame, node 1's included.
    app.release_vb(moved.cvt_index).unwrap();
    assert_eq!(svc.free_frames(), baseline);
    assert_eq!(svc.audit(), Ok(()));
}
