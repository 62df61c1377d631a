//! Virtual-machine support: partitioning the VBI address space (§6.1).
//!
//! VBI isolates virtual machines by partitioning the global VBI address
//! space: the top [`VbiConfig::vm_id_bits`] bits of a VBID (five in the
//! paper's Figure 5, supporting 31 VMs plus the host as VM 0) name the
//! owning VM. Client IDs are partitioned the same way. Placement is the
//! engine's: a `request_vb` lands in the VM that owns the requesting
//! client's ID, and `clone_vb`/`promote` land in the source VB's VM, so a
//! guest's VBs stay inside its slice by construction. Once a guest process
//! is attached to its VBs, its memory accesses are ordinary VBI accesses —
//! no nested translation, no two-dimensional page walks.
//!
//! [`VbiConfig::vm_id_bits`]: crate::config::VbiConfig::vm_id_bits

use core::fmt;
use core::ops::Range;

use crate::addr::{SizeClass, Vbuid};
use crate::client::{ClientId, ClientIdAllocator};
use crate::error::{Result, VbiError};
use crate::session::ClientSession;
use crate::system::System;

/// A virtual-machine ID within the partitioned VBI space. ID 0 is the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u8);

impl VmId {
    /// The host partition.
    pub const HOST: VmId = VmId(0);
}

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0 {
            f.write_str("host")
        } else {
            write!(f, "vm#{}", self.0)
        }
    }
}

/// Partitions VBIDs and client IDs among virtual machines. A machine's
/// partition is [`crate::VbiConfig::vm_partition`].
///
/// With `vm_id_bits = 5` (Figure 5), each size class's VBID space is split
/// into 32 equal slices: the VM ID occupies the top five VBID bits, so for
/// the 4 GiB class the address is `100 | VM ID (5b) | VBID (24b) | offset
/// (32b)`.
///
/// # Examples
///
/// ```
/// use vbi_core::addr::SizeClass;
/// use vbi_core::vm::{VmId, VmPartition};
///
/// let part = VmPartition::new(5);
/// let vb = part.vbuid(VmId(3), SizeClass::Gib4, 7)?;
/// assert_eq!(part.vm_of(vb), VmId(3));
/// assert_eq!(part.local_vbid(vb), 7);
/// # Ok::<(), vbi_core::VbiError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmPartition {
    vm_id_bits: u32,
}

impl VmPartition {
    /// Creates a partitioning scheme with `vm_id_bits` bits of VM ID
    /// (supporting `2^vm_id_bits - 1` guests plus the host).
    ///
    /// # Panics
    ///
    /// Panics if `vm_id_bits` exceeds the smallest class's VBID width budget
    /// (8 bits keeps every class usable).
    pub fn new(vm_id_bits: u32) -> Self {
        assert!(vm_id_bits <= 8, "at most 8 VM-ID bits supported");
        Self { vm_id_bits }
    }

    /// Number of VMs supported, including the host.
    pub fn vm_count(&self) -> u32 {
        1 << self.vm_id_bits
    }

    /// Number of VBs of `size_class` available to each VM.
    pub fn vbs_per_vm(&self, size_class: SizeClass) -> u64 {
        size_class.vb_count() >> self.vm_id_bits
    }

    /// Builds the global VBUID for a VM-local VBID.
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidVmId`] if the VM ID does not fit the partition, or
    /// [`VbiError::OutOfVirtualBlocks`] if `local_vbid` exceeds the VM's
    /// slice.
    pub fn vbuid(&self, vm: VmId, size_class: SizeClass, local_vbid: u64) -> Result<Vbuid> {
        if u32::from(vm.0) >= self.vm_count() {
            return Err(VbiError::InvalidVmId(vm.0));
        }
        let per_vm = self.vbs_per_vm(size_class);
        if local_vbid >= per_vm {
            return Err(VbiError::OutOfVirtualBlocks(size_class));
        }
        let shift = size_class.vbid_bits() - self.vm_id_bits;
        Ok(Vbuid::new(size_class, ((vm.0 as u64) << shift) | local_vbid))
    }

    /// The VM that owns a VB.
    pub fn vm_of(&self, vbuid: Vbuid) -> VmId {
        let shift = vbuid.size_class().vbid_bits() - self.vm_id_bits;
        VmId((vbuid.vbid() >> shift) as u8)
    }

    /// The VM-local VBID of a VB.
    pub fn local_vbid(&self, vbuid: Vbuid) -> u64 {
        let shift = vbuid.size_class().vbid_bits() - self.vm_id_bits;
        vbuid.vbid() & ((1u64 << shift) - 1)
    }

    /// The VBIDs of `size_class` in `vm`'s slice (the whole class with no
    /// VM-ID bits).
    pub fn vbids(&self, vm: VmId, size_class: SizeClass) -> Range<u64> {
        let per_vm = self.vbs_per_vm(size_class);
        let lo = u64::from(vm.0) * per_vm;
        lo..lo + per_vm
    }

    /// The VM whose client-ID range holds `client`.
    pub fn vm_of_client(&self, client: ClientId) -> VmId {
        VmId((u32::from(client.0) >> (16 - self.vm_id_bits)) as u8)
    }

    /// An allocator of `vm`'s client IDs.
    pub fn client_ids(&self, vm: VmId) -> ClientIdAllocator {
        let (start, end) = self.client_range(vm);
        ClientIdAllocator::with_range(start, end)
    }

    /// The client-ID range assigned to a VM (client IDs are partitioned the
    /// same way as VBIDs, over the 16-bit client space).
    pub fn client_range(&self, vm: VmId) -> (u16, u32) {
        let per_vm = (1u32 << 16) >> self.vm_id_bits;
        let start = per_vm * u32::from(vm.0);
        (start as u16, start + per_vm)
    }
}

/// A guest virtual machine on a [`System`]: a slice of the VBI space plus
/// its own client-ID range, both taken from the system's
/// [`crate::VbiConfig::vm_partition`]. The guest OS creates clients inside
/// its range without coordinating with the host; their `request_vb`s land
/// in the VM's VBID slice because the engine places by client ID (§6.1).
#[derive(Debug)]
pub struct VirtualMachine {
    system: System,
    vm: VmId,
    partition: VmPartition,
    clients: ClientIdAllocator,
}

impl VirtualMachine {
    /// Creates the guest-side state for `vm` on `system`.
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidVmId`] if the system's partition has no VM `vm`.
    pub fn new(system: &System, vm: VmId) -> Result<Self> {
        let partition = system.config().vm_partition();
        if u32::from(vm.0) >= partition.vm_count() {
            return Err(VbiError::InvalidVmId(vm.0));
        }
        Ok(Self { system: system.clone(), vm, partition, clients: partition.client_ids(vm) })
    }

    /// The VM's ID.
    pub fn id(&self) -> VmId {
        self.vm
    }

    /// Creates a guest process: a client inside the VM's client-ID slice,
    /// returned as a session like any native client.
    ///
    /// # Errors
    ///
    /// [`VbiError::OutOfClients`] when the slice is exhausted.
    pub fn create_guest_client(&mut self) -> Result<ClientSession<System>> {
        let id = self.clients.allocate()?;
        self.system.create_client_with_id(id)
    }

    /// Whether `vbuid` belongs to this VM's slice.
    pub fn owns(&self, vbuid: Vbuid) -> bool {
        self.partition.vm_of(vbuid) == self.vm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VbiConfig;
    use crate::perm::Rwx;
    use crate::telemetry::OpKind;
    use crate::vb::VbProperties;

    #[test]
    fn figure5_layout() {
        // Figure 5: 4 GiB class, 3-bit size ID, 5-bit VM ID, 24-bit VBID,
        // 32-bit offset.
        let part = VmPartition::new(5);
        assert_eq!(SizeClass::Gib4.vbid_bits(), 29);
        assert_eq!(part.vbs_per_vm(SizeClass::Gib4), 1 << 24);
        let vb = part.vbuid(VmId(5), SizeClass::Gib4, 3).unwrap();
        let bits = vb.to_bits();
        assert_eq!(bits >> 61, 0b100, "size ID for 4 GiB");
        assert_eq!((bits >> 56) & 0x1f, 5, "VM ID sits below the size ID");
    }

    #[test]
    fn partition_roundtrips() {
        let part = VmPartition::new(5);
        for vm in [0u8, 1, 17, 31] {
            for sc in [SizeClass::Kib4, SizeClass::Gib4, SizeClass::Tib128] {
                let vb = part.vbuid(VmId(vm), sc, 42).unwrap();
                assert_eq!(part.vm_of(vb), VmId(vm));
                assert_eq!(part.local_vbid(vb), 42);
            }
        }
    }

    #[test]
    fn out_of_range_vms_and_vbids_are_rejected() {
        let part = VmPartition::new(5);
        assert!(matches!(part.vbuid(VmId(32), SizeClass::Kib4, 0), Err(VbiError::InvalidVmId(32))));
        assert!(part
            .vbuid(VmId(0), SizeClass::Tib128, part.vbs_per_vm(SizeClass::Tib128))
            .is_err());
    }

    #[test]
    fn client_ranges_do_not_overlap() {
        let part = VmPartition::new(5);
        let (s0, e0) = part.client_range(VmId(0));
        let (s1, e1) = part.client_range(VmId(1));
        assert_eq!(e0, s1 as u32);
        assert_eq!(e1 - s1 as u32, e0 - s0 as u32);
        let (_, last_end) = part.client_range(VmId(31));
        assert_eq!(last_end, 1 << 16);
    }

    #[test]
    fn guests_allocate_in_their_own_slices() {
        let system =
            System::new(VbiConfig { phys_frames: 4096, vm_id_bits: 5, ..VbiConfig::vbi_full() });
        let mut vm1 = VirtualMachine::new(&system, VmId(1)).unwrap();
        let mut vm2 = VirtualMachine::new(&system, VmId(2)).unwrap();

        let c1 = vm1.create_guest_client().unwrap();
        let c2 = vm2.create_guest_client().unwrap();
        assert_ne!(c1.id(), c2.id());

        let requests = || system.snapshot().op(OpKind::RequestVb).map_or(0, |op| op.count);
        let before = requests();
        let vb1 = c1.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        assert_eq!(requests(), before + 1, "a guest's request_vb is one engine op");
        let vb2 = c2.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();

        assert!(vm1.owns(vb1.vbuid) && !vm1.owns(vb2.vbuid));
        assert!(vm2.owns(vb2.vbuid) && !vm2.owns(vb1.vbuid));

        // A guest process accesses its VB like any native process: same
        // translation path, no nested walk.
        c1.store_u64(vb1.at(0), 77).unwrap();
        assert_eq!(c1.load_u64(vb1.at(0)).unwrap(), 77);
    }

    #[test]
    fn guest_client_slice_exhaustion() {
        let system =
            System::new(VbiConfig { phys_frames: 256, vm_id_bits: 8, ..VbiConfig::vbi_full() });
        let mut vm = VirtualMachine::new(&system, VmId(255)).unwrap();
        // 2^16 / 2^8 = 256 clients per VM.
        for _ in 0..256 {
            vm.create_guest_client().unwrap();
        }
        assert!(matches!(vm.create_guest_client(), Err(VbiError::OutOfClients)));
    }

    #[test]
    fn host_clients_stay_in_the_host_range() {
        let system =
            System::new(VbiConfig { phys_frames: 256, vm_id_bits: 8, ..VbiConfig::vbi_full() });
        for _ in 0..256 {
            system.create_client().unwrap();
        }
        assert!(matches!(system.create_client(), Err(VbiError::OutOfClients)));
        let mut vm = VirtualMachine::new(&system, VmId(1)).unwrap();
        assert_eq!(vm.create_guest_client().unwrap().id(), ClientId(256));
    }

    #[test]
    fn vms_outside_the_partition_are_rejected() {
        let system = System::new(VbiConfig { phys_frames: 256, ..VbiConfig::vbi_full() });
        assert!(VirtualMachine::new(&system, VmId::HOST).is_ok());
        assert!(matches!(VirtualMachine::new(&system, VmId(1)), Err(VbiError::InvalidVmId(1))));
    }

    #[test]
    fn client_ids_map_to_their_vm() {
        let part = VmPartition::new(5);
        for vm in [0u8, 1, 9, 31] {
            let (start, end) = part.client_range(VmId(vm));
            assert_eq!(part.vm_of_client(ClientId(start)), VmId(vm));
            assert_eq!(part.vm_of_client(ClientId((end - 1) as u16)), VmId(vm));
        }
        assert_eq!(VmPartition::new(0).vm_of_client(ClientId(u16::MAX)), VmId::HOST);
        assert_eq!(VmPartition::new(0).vbids(VmId::HOST, SizeClass::Kib4), 0..1 << 49);
    }
}
