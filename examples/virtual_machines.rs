//! Virtual machines on VBI (§6.1): partitioning the global VBI address
//! space by VM ID so guest accesses need no nested translation.
//!
//! Run with: `cargo run --example virtual_machines`

use vbi::core::vm::{VirtualMachine, VmId};
use vbi::{Rwx, SizeClass, System, VbProperties, VbiConfig, VirtualAddress};

fn main() -> vbi::Result<()> {
    // Figure 5's layout: 5 VM-ID bits = 31 guests + the host.
    let system = System::new(VbiConfig { vm_id_bits: 5, ..VbiConfig::vbi_full() });
    let partition = system.config().vm_partition();

    println!(
        "partition: {} VMs, {} x 4 GiB VBs each",
        partition.vm_count(),
        partition.vbs_per_vm(SizeClass::Gib4)
    );

    let mut vm1 = VirtualMachine::new(&system, VmId(1))?;
    let mut vm2 = VirtualMachine::new(&system, VmId(2))?;

    // Each guest OS creates clients inside its own slice without
    // coordinating with the host; guest processes get ordinary sessions,
    // and their requests land in their VM's slice of the VB space.
    let guest1 = vm1.create_guest_client()?;
    let guest2 = vm2.create_guest_client()?;

    let vb1 = guest1.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE)?;
    let vb2 = guest2.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE)?;
    println!("vm1 allocated {}; vm2 allocated {}", vb1.vbuid, vb2.vbuid);
    assert!(vm1.owns(vb1.vbuid) && !vm1.owns(vb2.vbuid));

    // Guest memory accesses are plain VBI accesses: protection at the CVT,
    // translation at the memory controller. No two-dimensional page walk
    // exists anywhere in this path.
    let (i1, i2) = (vb1.cvt_index, vb2.cvt_index);
    guest1.store_u64(VirtualAddress::new(i1, 0), 0xAAAA)?;
    guest2.store_u64(VirtualAddress::new(i2, 0), 0xBBBB)?;
    assert_eq!(guest1.load_u64(VirtualAddress::new(i1, 0))?, 0xAAAA);
    assert_eq!(guest2.load_u64(VirtualAddress::new(i2, 0))?, 0xBBBB);
    println!("guest accesses translated once, directly — no 2D walks");

    // Isolation: guest 2 has no CVT entry for guest 1's VB.
    let stolen = guest2.load_u64(VirtualAddress::new(i2 + 1, 0));
    println!("guest2 probing beyond its CVT: {stolen:?}");
    assert!(stolen.is_err());

    // Compare with the conventional virtualized baseline: a cold guest
    // translation costs a two-dimensional walk of up to 24 accesses.
    let mut nested = vbi::baselines::NestedMmu::new(vbi::baselines::PageSize::Kb4, 1 << 20);
    let cold = nested.translate(0x7000_0000);
    println!(
        "for contrast, a cold 2D page walk in a conventional VM touched {} \
         page-table entries",
        cold.events.walk_accesses.len()
    );
    Ok(())
}
