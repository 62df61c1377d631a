//! OS model: process lifetimes on top of VBI (§3.4, §4.4).
//!
//! The OS under VBI no longer manages page tables or physical memory; it
//! keeps exactly two duties: *protection* (which client may attach to which
//! VB) and *policy* (loading binaries, forking, shared libraries,
//! memory-mapped files). This module implements those duties against
//! [`System`], holding one [`ClientSession`] per process (plus its own
//! privileged session for loading):
//!
//! * **Process creation** — one VB per binary section, loaded by the OS
//!   attaching itself with write permission, copying, and detaching.
//! * **Shared libraries** — library code lives in one VB shared by all
//!   processes; per-process static data sits at CVT index `code + 1`, so
//!   library code addresses it with `+1` CVT-relative addressing and no
//!   load-time relocation.
//! * **Fork** — the child's CVT mirrors the parent's indices (pointers stay
//!   valid); private VBs are cloned copy-on-write with `clone_vb`.
//! * **Heap** — `malloc`/`free` manage offsets inside a data VB; when a VB
//!   fills up, the OS transparently promotes it to the next size class.
//! * **Memory-mapped files** — a file is associated with a VB of its size;
//!   offsets map 1:1 (§3.4).

use std::collections::HashMap;

use crate::client::{ClientId, VirtualAddress};
use crate::error::{Result, VbiError};
use crate::perm::Rwx;
use crate::phys::FRAME_BYTES;
use crate::session::ClientSession;
use crate::system::{System, VbHandle};
use crate::vb::VbProperties;

/// A process ID in the OS model (distinct from the hardware client ID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

/// The kind of a binary section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Executable code (mapped execute-only).
    Code,
    /// Read-only static data.
    RoData,
    /// Writable static data.
    Data,
}

impl SectionKind {
    fn perms(self) -> Rwx {
        match self {
            SectionKind::Code => Rwx::READ_EXECUTE,
            SectionKind::RoData => Rwx::READ,
            SectionKind::Data => Rwx::READ_WRITE,
        }
    }

    fn props(self) -> VbProperties {
        match self {
            SectionKind::Code => VbProperties::CODE | VbProperties::READ_ONLY,
            SectionKind::RoData => VbProperties::READ_ONLY,
            SectionKind::Data => VbProperties::NONE,
        }
    }
}

/// One section of a binary image.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section kind, which determines permissions and properties.
    pub kind: SectionKind,
    /// Raw contents copied into the section's VB at load time.
    pub contents: Vec<u8>,
}

/// A loadable binary: a name plus its sections.
#[derive(Debug, Clone)]
pub struct BinaryImage {
    /// Program name (diagnostic only).
    pub name: String,
    /// Sections, loaded in order; the CVT indices of a process's sections
    /// follow this order.
    pub sections: Vec<Section>,
}

/// A shared library registered with the OS: shared code plus a template for
/// each process's private static data.
#[derive(Debug, Clone)]
pub struct LibraryImage {
    /// Library name used by processes to request linking.
    pub name: String,
    /// Executable code, loaded once and shared.
    pub code: Vec<u8>,
    /// Per-process static data template, copied into a fresh VB per process.
    pub static_data: Vec<u8>,
}

#[derive(Debug, Clone)]
struct HeapState {
    /// Bump pointer within the VB.
    brk: u64,
    /// Recycled blocks: offset -> size.
    free_list: Vec<(u64, u64)>,
}

/// Per-process bookkeeping.
#[derive(Debug, Clone)]
pub struct Process {
    pid: Pid,
    session: ClientSession<System>,
    name: String,
    /// Section handles in binary order.
    sections: Vec<VbHandle>,
    /// CVT indices of VBs shared with other processes (library code, shared
    /// memory) — fork must not clone these.
    shared_indices: Vec<usize>,
    /// Heap allocator state per heap VB (keyed by CVT index).
    heaps: HashMap<usize, HeapState>,
}

impl Process {
    /// The process ID.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The process's session — its memory API surface.
    pub fn session(&self) -> &ClientSession<System> {
        &self.session
    }

    /// The hardware client ID backing this process (op plumbing).
    pub fn client(&self) -> ClientId {
        self.session.id()
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Section handles, in binary order.
    pub fn sections(&self) -> &[VbHandle] {
        &self.sections
    }
}

/// Result of a `malloc`: the virtual address of the block. If the allocation
/// forced a VB promotion, `promoted` carries the new handle (the CVT index —
/// and hence all existing pointers — is unchanged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Address of the first byte of the block.
    pub address: VirtualAddress,
    /// Size of the block.
    pub size: u64,
    /// Set when the containing VB was promoted to satisfy this request.
    pub promoted: Option<VbHandle>,
}

/// The OS model.
///
/// # Examples
///
/// ```
/// use vbi_core::os::{BinaryImage, Os, Section, SectionKind};
/// use vbi_core::VbiConfig;
///
/// # fn main() -> Result<(), vbi_core::VbiError> {
/// let mut os = Os::new(VbiConfig::vbi_full());
/// let image = BinaryImage {
///     name: "hello".into(),
///     sections: vec![Section { kind: SectionKind::Code, contents: vec![0x90; 64] }],
/// };
/// let pid = os.create_process(&image)?;
/// let code = os.process(pid)?.sections()[0];
/// assert_eq!(os.process(pid)?.session().fetch(code.at(0))?, 0x90);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Os {
    system: System,
    os_session: ClientSession<System>,
    processes: HashMap<Pid, Process>,
    libraries: HashMap<String, (LibraryImage, VbHandle)>,
    next_pid: u32,
}

impl Os {
    /// Boots the OS model: creates the system and the OS's own client (the
    /// privileged session used for loading).
    ///
    /// # Panics
    ///
    /// Panics if the OS client cannot be created (impossible on a fresh
    /// system).
    pub fn new(config: crate::config::VbiConfig) -> Self {
        let system = System::new(config);
        let os_session = system.create_client().expect("fresh system has client IDs");
        Self {
            system,
            os_session,
            processes: HashMap::new(),
            libraries: HashMap::new(),
            next_pid: 1,
        }
    }

    /// The underlying system (for inspection and direct MTL access).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The OS's own privileged session.
    pub fn os_session(&self) -> &ClientSession<System> {
        &self.os_session
    }

    /// Looks up a live process.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] for unknown PIDs.
    pub fn process(&self, pid: Pid) -> Result<&Process> {
        self.processes.get(&pid).ok_or(VbiError::InvalidClient(ClientId(pid.0 as u16)))
    }

    /// Number of live processes.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Loads contents into a freshly enabled VB using the paper's loading
    /// protocol: the OS attaches itself with write permission, copies, and
    /// detaches (§4.4, "Process Creation").
    fn load_vb(&mut self, bytes: u64, props: VbProperties, contents: &[u8]) -> Result<VbHandle> {
        let handle = self.os_session.request_vb(bytes, props, Rwx::READ_WRITE)?;
        self.os_session.store_bytes(handle.at(0), contents)?;
        // Detach the OS but keep the VB enabled for the target process: the
        // OS detach would drop the refcount to zero, so the caller attaches
        // the process first.
        Ok(handle)
    }

    fn os_detach(&mut self, handle: VbHandle) -> Result<()> {
        self.os_session.detach(handle.vbuid)?;
        Ok(())
    }

    /// Creates a process from a binary image (§4.4): one VB per section,
    /// loaded by the OS and attached to the new client with section-specific
    /// permissions.
    ///
    /// # Errors
    ///
    /// Any allocation, attach, or load error.
    pub fn create_process(&mut self, image: &BinaryImage) -> Result<Pid> {
        let session = self.system.create_client()?;
        let pid = Pid(self.next_pid);
        self.next_pid += 1;

        let mut sections = Vec::with_capacity(image.sections.len());
        for section in &image.sections {
            let bytes = (section.contents.len() as u64).max(1);
            let loaded = self.load_vb(bytes, section.kind.props(), &section.contents)?;
            let index = session.attach(loaded.vbuid, section.kind.perms())?;
            self.os_detach(loaded)?;
            sections.push(VbHandle { cvt_index: index, vbuid: loaded.vbuid });
        }

        self.processes.insert(
            pid,
            Process {
                pid,
                session,
                name: image.name.clone(),
                sections,
                shared_indices: Vec::new(),
                heaps: HashMap::new(),
            },
        );
        Ok(pid)
    }

    /// Destroys a process (§4.4): detaches all VBs (disabling those whose
    /// reference count reaches zero) and frees the client ID.
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidClient`] for unknown PIDs.
    pub fn destroy_process(&mut self, pid: Pid) -> Result<()> {
        let process =
            self.processes.remove(&pid).ok_or(VbiError::InvalidClient(ClientId(pid.0 as u16)))?;
        process.session.destroy()
    }

    /// Registers a shared library: its code is loaded once into a shared VB.
    ///
    /// # Errors
    ///
    /// Any allocation or load error.
    pub fn register_library(&mut self, library: LibraryImage) -> Result<()> {
        let bytes = (library.code.len() as u64).max(1);
        let handle =
            self.load_vb(bytes, VbProperties::CODE | VbProperties::READ_ONLY, &library.code)?;
        // The OS keeps its attachment so the library VB stays referenced
        // even when no process currently links it.
        self.libraries.insert(library.name.clone(), (library, handle));
        Ok(())
    }

    /// Links a registered library into a process (§4.4, "Shared Libraries"):
    /// attaches the shared code VB and places a fresh per-process static-data
    /// VB at the *next* CVT index, enabling `+1` CVT-relative addressing.
    /// Returns the handle of the library code VB in this process.
    ///
    /// # Errors
    ///
    /// [`VbiError::SwapFailure`] (reused as "unknown library") if the library
    /// was never registered, plus any attach error.
    pub fn link_library(&mut self, pid: Pid, name: &str) -> Result<VbHandle> {
        let (library, shared) = self
            .libraries
            .get(name)
            .map(|(l, h)| (l.clone(), *h))
            .ok_or(VbiError::SwapFailure { reason: "unknown library" })?;
        let session = self.process(pid)?.session().clone();

        // Attach the shared code VB.
        let code_index = session.attach(shared.vbuid, Rwx::READ_EXECUTE)?;
        // The very next CVT index receives the private static data.
        let data_bytes = (library.static_data.len() as u64).max(1);
        let data = self.load_vb(data_bytes, VbProperties::LIBRARY_DATA, &library.static_data)?;
        session.attach_at(code_index + 1, data.vbuid, Rwx::READ_WRITE)?;
        self.os_detach(data)?;

        let process = self.processes.get_mut(&pid).expect("checked above");
        process.shared_indices.push(code_index);
        Ok(VbHandle { cvt_index: code_index, vbuid: shared.vbuid })
    }

    /// Forks a process (§4.4): the child's CVT mirrors the parent's indices;
    /// shared VBs are re-attached, private VBs are cloned copy-on-write via
    /// `clone_vb`. Returns the child PID.
    ///
    /// # Errors
    ///
    /// Any clone, enable, or attach error.
    pub fn fork(&mut self, pid: Pid) -> Result<Pid> {
        let parent = self.process(pid)?.clone();
        let child = self.system.create_client()?;
        let child_pid = Pid(self.next_pid);
        self.next_pid += 1;

        let entries: Vec<(usize, crate::addr::Vbuid, Rwx)> = self
            .system
            .cvt(parent.client())?
            .iter()
            .map(|(i, e)| (i, e.vbuid(), e.permissions()))
            .collect();

        let mut child_sections = Vec::new();
        for (index, vbuid, perms) in entries {
            // Only the library-code VBs themselves are shared; the private
            // static-data VBs at `code index + 1` are cloned like any other
            // private VB.
            let is_shared = parent.shared_indices.contains(&index);
            if is_shared {
                // Shared VB (library code): both processes attach to the
                // same VB at the same index.
                child.attach_at(index, vbuid, perms)?;
            } else {
                // Private VB: enable a clone of the same size class and
                // attach it at the same index so pointers stay valid.
                let clone = self.system.mtl().find_free_vb(vbuid.size_class())?;
                let props = self.system.mtl().props(vbuid)?;
                self.system.mtl_mut().enable_vb(clone, props)?;
                self.system.mtl_mut().clone_vb(vbuid, clone)?;
                child.attach_at(index, clone, perms)?;
                if parent.sections.iter().any(|s| s.cvt_index == index) {
                    child_sections.push(VbHandle { cvt_index: index, vbuid: clone });
                }
            }
        }

        self.processes.insert(
            child_pid,
            Process {
                pid: child_pid,
                session: child,
                name: parent.name.clone(),
                sections: child_sections,
                shared_indices: parent.shared_indices.clone(),
                heaps: parent.heaps.clone(),
            },
        );
        Ok(child_pid)
    }

    /// Creates a heap VB for a process: the target of subsequent
    /// [`Os::malloc`]/[`Os::free`] calls.
    ///
    /// # Errors
    ///
    /// Any allocation error.
    pub fn create_heap(&mut self, pid: Pid, bytes: u64, props: VbProperties) -> Result<VbHandle> {
        let handle = self.process(pid)?.session().request_vb(bytes, props, Rwx::READ_WRITE)?;
        let process = self.processes.get_mut(&pid).expect("checked above");
        process.heaps.insert(handle.cvt_index, HeapState { brk: 0, free_list: Vec::new() });
        Ok(handle)
    }

    /// `malloc(index, size)` (§4.2.1): allocates `size` bytes inside the heap
    /// VB at CVT index `heap`. If the VB is full, the OS transparently
    /// promotes it to the next size class (§4.4, "VB Promotion") — existing
    /// pointers remain valid because the CVT index is unchanged.
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidCvtIndex`] for a non-heap index, or promotion
    /// errors when the VB is at the largest class.
    pub fn malloc(&mut self, pid: Pid, heap: usize, size: u64) -> Result<Allocation> {
        let session = self.process(pid)?.session().clone();
        let client = session.id();
        let vb_size = self.system.cvt(client)?.entry(heap)?.vbuid().bytes();
        let size = size.max(8).next_multiple_of(8);

        let process = self.processes.get_mut(&pid).expect("checked above");
        let state = process
            .heaps
            .get_mut(&heap)
            .ok_or(VbiError::InvalidCvtIndex { client, index: heap })?;

        // First fit from the free list.
        if let Some(pos) = state.free_list.iter().position(|(_, s)| *s >= size) {
            let (offset, block) = state.free_list.remove(pos);
            if block > size {
                state.free_list.push((offset + size, block - size));
            }
            return Ok(Allocation {
                address: VirtualAddress::new(heap, offset),
                size,
                promoted: None,
            });
        }

        // Bump allocation, promoting as needed.
        if state.brk + size <= vb_size {
            let offset = state.brk;
            state.brk += size;
            return Ok(Allocation {
                address: VirtualAddress::new(heap, offset),
                size,
                promoted: None,
            });
        }

        // Out of space: promote, then retry the bump.
        let promoted = session.promote(heap)?;
        let process = self.processes.get_mut(&pid).expect("still live");
        let state = process.heaps.get_mut(&heap).expect("still a heap");
        let offset = state.brk;
        state.brk += size;
        if offset + size > promoted.vbuid.bytes() {
            return Err(VbiError::OutOfPhysicalMemory);
        }
        Ok(Allocation {
            address: VirtualAddress::new(heap, offset),
            size,
            promoted: Some(promoted),
        })
    }

    /// `free(index, ptr, size)`: returns a block to the heap's free list.
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidCvtIndex`] for a non-heap index.
    pub fn free(&mut self, pid: Pid, allocation: Allocation) -> Result<()> {
        let client = self.process(pid)?.client();
        let heap = allocation.address.cvt_index();
        let process = self.processes.get_mut(&pid).expect("checked above");
        let state = process
            .heaps
            .get_mut(&heap)
            .ok_or(VbiError::InvalidCvtIndex { client, index: heap })?;
        state.free_list.push((allocation.address.offset(), allocation.size));
        Ok(())
    }

    /// Maps a file into a process (§3.4, "Memory-Mapped Files"): a VB of the
    /// file's size is enabled, the file's pages are bound as swapped-out
    /// contents, and offsets within the VB map 1:1 to file offsets.
    ///
    /// # Errors
    ///
    /// Any allocation or attach error.
    pub fn mmap_file(&mut self, pid: Pid, contents: &[u8], perms: Rwx) -> Result<VbHandle> {
        let handle = self.process(pid)?.session().request_vb(
            (contents.len() as u64).max(1),
            VbProperties::FILE_BACKED,
            perms,
        )?;
        let pages = contents.chunks(FRAME_BYTES as usize).enumerate().map(|(i, chunk)| {
            let mut page = Box::new([0u8; FRAME_BYTES as usize]);
            page[..chunk.len()].copy_from_slice(chunk);
            (i as u64, page)
        });
        self.system.mtl_mut().bind_file(handle.vbuid, pages)?;
        Ok(handle)
    }

    /// Shares an existing VB with another process (pipes / shared memory,
    /// §3.4 "True Sharing"). Returns the CVT index in the target process.
    ///
    /// # Errors
    ///
    /// Any attach error.
    pub fn share_vb(&mut self, from: Pid, handle: VbHandle, to: Pid, perms: Rwx) -> Result<usize> {
        let _ = self.process(from)?;
        let index = self.process(to)?.session().attach(handle.vbuid, perms)?;
        let process = self.processes.get_mut(&to).expect("checked above");
        process.shared_indices.push(index);
        Ok(index)
    }
}

/// Helper: how many 4 KiB pages a byte count spans.
pub fn pages_for(bytes: u64) -> u64 {
    bytes.div_ceil(FRAME_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SizeClass;
    use crate::config::VbiConfig;

    fn os() -> Os {
        Os::new(VbiConfig { phys_frames: 8192, ..VbiConfig::vbi_full() })
    }

    fn trivial_image(name: &str) -> BinaryImage {
        BinaryImage {
            name: name.into(),
            sections: vec![
                Section { kind: SectionKind::Code, contents: vec![0xc3; 128] },
                Section { kind: SectionKind::Data, contents: vec![1, 2, 3, 4] },
            ],
        }
    }

    #[test]
    fn process_creation_loads_sections() {
        let mut os = os();
        let pid = os.create_process(&trivial_image("a.out")).unwrap();
        let process = os.process(pid).unwrap();
        let session = process.session().clone();
        let code = process.sections()[0];
        let data = process.sections()[1];
        assert_eq!(session.fetch(code.at(0)).unwrap(), 0xc3);
        assert_eq!(session.load_u8(data.at(2)).unwrap(), 3);
        // Code is not writable by the process.
        assert!(matches!(session.store_u8(code.at(0), 0), Err(VbiError::PermissionDenied { .. })));
    }

    #[test]
    fn kernel_data_is_protected_from_processes() {
        let mut os = os();
        // The OS keeps a private VB.
        let secret =
            os.os_session().request_vb(4096, VbProperties::KERNEL, Rwx::READ_WRITE).unwrap();
        os.os_session().store_u64(secret.at(0), 0x5ec3e7).unwrap();

        let pid = os.create_process(&trivial_image("attacker")).unwrap();
        let session = os.process(pid).unwrap().session().clone();
        // The process has no CVT entry for the kernel VB; its own indices
        // do not reach it.
        for index in 0..8 {
            let va = VirtualAddress::new(index, 0);
            if let Ok(value) = session.load_u64(va) {
                assert_ne!(value, 0x5ec3e7);
            }
        }
    }

    #[test]
    fn destroy_process_releases_memory() {
        let mut os = os();
        let free0 = os.system().mtl().free_frames();
        let pid = os.create_process(&trivial_image("tmp")).unwrap();
        let heap = os.create_heap(pid, 64 << 10, VbProperties::NONE).unwrap();
        os.process(pid).unwrap().session().store_u64(heap.at(0), 1).unwrap();
        os.destroy_process(pid).unwrap();
        assert_eq!(os.system().mtl().free_frames(), free0);
        assert_eq!(os.process_count(), 0);
    }

    #[test]
    fn shared_library_uses_plus_one_addressing() {
        let mut os = os();
        os.register_library(LibraryImage {
            name: "libm".into(),
            code: vec![0xaa; 64],
            static_data: vec![7, 7, 7, 7],
        })
        .unwrap();

        let p1 = os.create_process(&trivial_image("one")).unwrap();
        let p2 = os.create_process(&trivial_image("two")).unwrap();
        let lib1 = os.link_library(p1, "libm").unwrap();
        let lib2 = os.link_library(p2, "libm").unwrap();

        // Both processes share the same code VB...
        assert_eq!(lib1.vbuid, lib2.vbuid);

        // ...and each reaches its own static data at code index + 1.
        let s1 = os.process(p1).unwrap().session().clone();
        let s2 = os.process(p2).unwrap().session().clone();
        let data1 = lib1.at(0).cvt_relative(1);
        let data2 = lib2.at(0).cvt_relative(1);
        s1.store_u8(data1, 0x11).unwrap();
        s2.store_u8(data2, 0x22).unwrap();
        assert_eq!(s1.load_u8(data1).unwrap(), 0x11);
        assert_eq!(s2.load_u8(data2).unwrap(), 0x22);
    }

    #[test]
    fn fork_clones_private_memory_copy_on_write() {
        let mut os = os();
        let parent = os.create_process(&trivial_image("shell")).unwrap();
        let heap = os.create_heap(parent, 64 << 10, VbProperties::NONE).unwrap();
        let ps = os.process(parent).unwrap().session().clone();
        ps.store_u64(heap.at(0), 1234).unwrap();

        let child = os.fork(parent).unwrap();
        let cs = os.process(child).unwrap().session().clone();
        // Same pointer (CVT index + offset) works in the child.
        assert_eq!(cs.load_u64(heap.at(0)).unwrap(), 1234);
        // Writes are private.
        cs.store_u64(heap.at(0), 5678).unwrap();
        assert_eq!(ps.load_u64(heap.at(0)).unwrap(), 1234);
        assert_eq!(cs.load_u64(heap.at(0)).unwrap(), 5678);
    }

    #[test]
    fn fork_shares_library_code() {
        let mut os = os();
        os.register_library(LibraryImage {
            name: "libc".into(),
            code: vec![0xbb; 32],
            static_data: vec![0; 8],
        })
        .unwrap();
        let parent = os.create_process(&trivial_image("init")).unwrap();
        let lib = os.link_library(parent, "libc").unwrap();
        let child = os.fork(parent).unwrap();
        let cc = os.process(child).unwrap().client();
        // The child's CVT entry at the library index names the same VB.
        let child_entry = os.system().cvt(cc).unwrap().entry(lib.cvt_index).unwrap().vbuid();
        assert_eq!(child_entry, lib.vbuid);
    }

    #[test]
    fn malloc_free_reuse() {
        let mut os = os();
        let pid = os.create_process(&trivial_image("allocd")).unwrap();
        let heap = os.create_heap(pid, 64 << 10, VbProperties::NONE).unwrap();
        let a = os.malloc(pid, heap.cvt_index, 100).unwrap();
        let b = os.malloc(pid, heap.cvt_index, 100).unwrap();
        assert_ne!(a.address, b.address);
        os.free(pid, a).unwrap();
        let c = os.malloc(pid, heap.cvt_index, 64).unwrap();
        assert_eq!(c.address.offset(), a.address.offset(), "freed block is reused");
    }

    #[test]
    fn malloc_promotes_when_the_vb_fills() {
        let mut os = os();
        let pid = os.create_process(&trivial_image("grower")).unwrap();
        let heap = os.create_heap(pid, 4 << 10, VbProperties::NONE).unwrap();
        assert_eq!(heap.vbuid.size_class(), SizeClass::Kib4);
        let session = os.process(pid).unwrap().session().clone();

        let a = os.malloc(pid, heap.cvt_index, 3 << 10).unwrap();
        session.store_u64(a.address, 42).unwrap();
        assert!(a.promoted.is_none());

        // This one does not fit in 4 KiB: the VB is promoted to 128 KiB.
        let b = os.malloc(pid, heap.cvt_index, 2 << 10).unwrap();
        let promoted = b.promoted.expect("promotion happened");
        assert_eq!(promoted.vbuid.size_class(), SizeClass::Kib128);
        assert_eq!(promoted.cvt_index, heap.cvt_index, "pointers stay valid");
        // Old data is still there through the same pointer.
        assert_eq!(session.load_u64(a.address).unwrap(), 42);
    }

    #[test]
    fn mmap_file_reads_file_contents() {
        let mut os = os();
        let pid = os.create_process(&trivial_image("pager")).unwrap();
        let mut contents = vec![0u8; 10_000];
        contents[0] = 0x10;
        contents[9_999] = 0x99;
        let handle = os.mmap_file(pid, &contents, Rwx::READ_WRITE).unwrap();
        let session = os.process(pid).unwrap().session();
        assert_eq!(session.load_u8(handle.at(0)).unwrap(), 0x10);
        assert_eq!(session.load_u8(handle.at(9_999)).unwrap(), 0x99);
        assert_eq!(session.load_u8(handle.at(5_000)).unwrap(), 0);
    }

    #[test]
    fn share_vb_gives_coherent_view() {
        let mut os = os();
        let p1 = os.create_process(&trivial_image("writer")).unwrap();
        let p2 = os.create_process(&trivial_image("reader")).unwrap();
        let heap = os.create_heap(p1, 4096, VbProperties::NONE).unwrap();
        let idx2 = os.share_vb(p1, heap, p2, Rwx::READ).unwrap();
        os.process(p1).unwrap().session().store_u64(heap.at(8), 2020).unwrap();
        assert_eq!(
            os.process(p2).unwrap().session().load_u64(VirtualAddress::new(idx2, 8)).unwrap(),
            2020
        );
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(4096), 1);
        assert_eq!(pages_for(4097), 2);
    }
}
