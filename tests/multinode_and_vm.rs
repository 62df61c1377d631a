//! Integration tests for the system-architecture extensions: virtual
//! machines (§6.1) and multi-node MTLs (§6.2), exercised together with the
//! rest of the stack. §6.2's machine is the sharded `VbiService`: one MTL
//! per shard, each VB homed on the shard its high VBID bits name.

use vbi::core::vm::{VirtualMachine, VmId, VmPartition};
use vbi::service::{ServiceConfig, VbiService};
use vbi::{ClientId, Mtl, Rwx, SizeClass, System, VbProperties, VbiConfig, VbiError};

#[test]
fn thirty_one_guests_coexist() {
    let system =
        System::new(VbiConfig { phys_frames: 1 << 16, vm_id_bits: 5, ..VbiConfig::vbi_full() });
    let mut vms: Vec<VirtualMachine> =
        (1..=31).map(|i| VirtualMachine::new(&system, VmId(i)).unwrap()).collect();

    let mut handles = Vec::new();
    for vm in &mut vms {
        let guest = vm.create_guest_client().unwrap();
        let vb = guest.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        assert!(vm.owns(vb.vbuid));
        guest.store_u64(vb.at(0), vm.id().0 as u64).unwrap();
        handles.push((guest, vb, vm.id().0 as u64));
    }
    // Every guest reads back its own value: full isolation.
    for (guest, vb, want) in handles {
        assert_eq!(guest.load_u64(vb.at(0)).unwrap(), want);
    }
}

/// §6.1 is a placement rule of the engine: whatever a guest asks for —
/// a fresh VB, a clone, a promotion — lands in its VM's VBID slice, and a
/// host request never reuses a slot of a guest's slice, not even one a
/// guest VB has just vacated.
#[test]
fn guest_vbs_stay_in_their_vm_slice() {
    let system =
        System::new(VbiConfig { phys_frames: 1 << 12, vm_id_bits: 5, ..VbiConfig::vbi_full() });
    let mut vm = VirtualMachine::new(&system, VmId(3)).unwrap();
    let host_vm = VirtualMachine::new(&system, VmId::HOST).unwrap();
    let guest = vm.create_guest_client().unwrap();
    let host = system.create_client().unwrap();

    let vb = guest.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    guest.store_u64(vb.at(0), 33).unwrap();
    assert!(vm.owns(vb.vbuid), "request_vb placed {}", vb.vbuid);
    let clone = guest.clone_vb(vb.cvt_index).unwrap();
    assert!(vm.owns(clone.vbuid), "clone_vb placed {}", clone.vbuid);
    // Promotion disables the 4 KiB source: its slot is free again.
    let promoted = guest.promote(vb.cvt_index).unwrap();
    assert!(vm.owns(promoted.vbuid), "promote placed {}", promoted.vbuid);
    assert_eq!(guest.load_u64(promoted.at(0)).unwrap(), 33);

    for _ in 0..4 {
        let mine = host.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        assert!(host_vm.owns(mine.vbuid), "the host was handed {}", mine.vbuid);
    }
    assert_eq!(system.audit(), Ok(()));
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

/// §6.1's VM ID and §6.2's home shard both take the top VBID bits, so with
/// 5 VM-ID bits on a 4-shard machine VMs 8k…8k+7 all home on shard k, and a
/// service places a guest's VBs where its VM slice meets a shard's.
#[test]
fn vm_and_shard_bits_coincide() {
    let partition = VmPartition::new(5);
    for v in 0..32u8 {
        for sc in SizeClass::ALL {
            for local in [0, partition.vbs_per_vm(sc) - 1] {
                let vb = partition.vbuid(VmId(v), sc, local).unwrap();
                assert_eq!(Mtl::shard_of(vb, 4), usize::from(v / 8), "vm {v}, {sc}");
            }
        }
    }

    let svc = VbiService::new(ServiceConfig::new(
        4,
        VbiConfig { phys_frames: 4 * 1024, vm_id_bits: 5, ..VbiConfig::vbi_full() },
    ));
    let (first_client, _) = partition.client_range(VmId(9));
    let guest = svc.create_client_with_id(ClientId(first_client)).unwrap();
    for _ in 0..4 {
        let vb = guest.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        assert_eq!(partition.vm_of(vb.vbuid), VmId(9));
        assert_eq!(svc.shard_of(vb.vbuid), 1);
    }
    // No shard but 1 holds a slot of VM 9's slice: its VBs cannot move.
    let vb = guest.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    assert!(matches!(guest.migrate(vb.cvt_index, 2), Err(VbiError::OutOfVirtualBlocks(_))));
    assert_eq!(svc.audit(), Ok(()));
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
