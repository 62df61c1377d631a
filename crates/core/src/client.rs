//! Memory clients and Client-VB Tables (CVTs).
//!
//! A *memory client* is any entity that allocates and uses memory: the OS,
//! a native process, or a process inside a virtual machine (§4.1.2). Each
//! client has a 16-bit system-wide ID and an OS-managed *Client-VB Table*
//! whose entries record which VBs the client may access and with what RWX
//! permissions. Programs address memory as `{CVT index, offset}`; the CVT
//! indirection is what lets VBI migrate or clone a VB without relocating any
//! pointers (§4.2.2).

use core::fmt;

use crate::addr::{VbiAddress, Vbuid};
use crate::error::{Result, VbiError};
use crate::perm::{AccessKind, Rwx};

/// A 16-bit memory-client ID (the paper's implementation supports 2^16
/// clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u16);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// One entry of a Client-VB Table: `{valid, VBUID, RWX}` (§4.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CvtEntry {
    valid: bool,
    vbuid: Vbuid,
    permissions: Rwx,
}

impl CvtEntry {
    /// Bit position of the valid flag in the packed representation.
    const VALID_BIT: u64 = 1 << 3;

    /// Whether the entry currently names an attached VB.
    pub fn is_valid(&self) -> bool {
        self.valid
    }

    /// Packs the entry into one `u64`: the VBUID occupies the address-layout
    /// bits (its low 12 bits are always zero — no size class has fewer than
    /// 12 offset bits), leaving room for the three RWX bits and the valid
    /// flag at the bottom. This is the word the lock-free CVT cache
    /// ([`crate::cvt_cache::SeqCvtCache`]) publishes atomically.
    #[inline]
    pub fn to_bits(&self) -> u64 {
        self.vbuid.to_bits()
            | if self.valid { Self::VALID_BIT } else { 0 }
            | u64::from(self.permissions.to_bits())
    }

    /// Unpacks an entry produced by [`CvtEntry::to_bits`].
    #[inline]
    pub fn from_bits(bits: u64) -> CvtEntry {
        CvtEntry {
            valid: bits & Self::VALID_BIT != 0,
            // 3-bit size IDs always decode; the flag bits sit inside the
            // offset field, which `from_bits` ignores.
            vbuid: Vbuid::from_bits(bits).expect("3-bit size IDs always decode"),
            permissions: Rwx::from_bits(bits as u8),
        }
    }

    /// The attached VB.
    pub fn vbuid(&self) -> Vbuid {
        self.vbuid
    }

    /// The granted permissions.
    pub fn permissions(&self) -> Rwx {
        self.permissions
    }
}

/// A two-part virtual address as generated by a process: `{CVT index,
/// offset}` (§4.2.2).
///
/// # Examples
///
/// ```
/// use vbi_core::client::VirtualAddress;
///
/// let va = VirtualAddress::new(3, 0x40);
/// assert_eq!(va.cvt_index(), 3);
/// assert_eq!(va.offset(), 0x40);
/// assert_eq!(va.offset_by(0x10).offset(), 0x50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VirtualAddress {
    cvt_index: usize,
    offset: u64,
}

impl VirtualAddress {
    /// Creates a virtual address from a CVT index and an intra-VB offset.
    pub const fn new(cvt_index: usize, offset: u64) -> Self {
        Self { cvt_index, offset }
    }

    /// The CVT index (the program's handle on the VB).
    pub const fn cvt_index(&self) -> usize {
        self.cvt_index
    }

    /// The byte offset within the VB.
    pub const fn offset(&self) -> u64 {
        self.offset
    }

    /// The address `delta` bytes later in the same VB. Bounds are checked at
    /// access time against the CVT entry, not here.
    pub const fn offset_by(&self, delta: u64) -> VirtualAddress {
        VirtualAddress { cvt_index: self.cvt_index, offset: self.offset + delta }
    }

    /// CVT-relative addressing (§4.4): the same offset in the VB named by
    /// `delta` CVT entries later. Shared-library code uses `+1` to reach its
    /// per-process static data without load-time relocation.
    pub const fn cvt_relative(&self, delta: isize) -> VirtualAddress {
        VirtualAddress { cvt_index: self.cvt_index.wrapping_add_signed(delta), offset: self.offset }
    }
}

impl fmt::Display for VirtualAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{cvt:{}, off:{:#x}}}", self.cvt_index, self.offset)
    }
}

/// An OS-managed Client-VB Table.
///
/// `attach` fills the first invalid entry (or appends), returning the entry's
/// index — exactly the value `request_vb` hands back to the program as its
/// pointer to the VB. `detach` clears the valid bit, leaving a hole that a
/// later attach may reuse.
#[derive(Debug, Clone)]
pub struct Cvt {
    client: ClientId,
    entries: Vec<CvtEntry>,
    capacity: usize,
}

impl Cvt {
    /// Creates an empty CVT for `client` holding at most `capacity` entries.
    pub fn new(client: ClientId, capacity: usize) -> Self {
        Self { client, entries: Vec::new(), capacity }
    }

    /// The owning client.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of slots currently in use (valid entries).
    pub fn attached_count(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Number of slots materialised (valid or not); the table's length in
    /// memory.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entry has ever been attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Implements the `attach` instruction: adds an entry for `vbuid` with
    /// `permissions`, reusing an invalid slot if one exists, and returns the
    /// CVT index.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::CvtFull`] when the table is at capacity.
    pub fn attach(&mut self, vbuid: Vbuid, permissions: Rwx) -> Result<usize> {
        let entry = CvtEntry { valid: true, vbuid, permissions };
        if let Some(i) = self.entries.iter().position(|e| !e.valid) {
            self.entries[i] = entry;
            return Ok(i);
        }
        if self.entries.len() >= self.capacity {
            return Err(VbiError::CvtFull(self.client));
        }
        self.entries.push(entry);
        Ok(self.entries.len() - 1)
    }

    /// Attaches at a *specific* index, as the OS does when forking (child CVT
    /// entries must mirror the parent's indices so pointers stay valid) and
    /// when placing shared-library data at `code index + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::CvtFull`] if `index` is at or beyond capacity.
    pub fn attach_at(&mut self, index: usize, vbuid: Vbuid, permissions: Rwx) -> Result<()> {
        if index >= self.capacity {
            return Err(VbiError::CvtFull(self.client));
        }
        while self.entries.len() <= index {
            self.entries.push(CvtEntry { valid: false, vbuid, permissions: Rwx::NONE });
        }
        self.entries[index] = CvtEntry { valid: true, vbuid, permissions };
        Ok(())
    }

    /// Implements the `detach` instruction: invalidates the entry for
    /// `vbuid`, returning its index.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] if no valid entry names `vbuid`.
    pub fn detach(&mut self, vbuid: Vbuid) -> Result<usize> {
        match self.entries.iter().position(|e| e.valid && e.vbuid == vbuid) {
            Some(i) => {
                self.entries[i].valid = false;
                Ok(i)
            }
            None => Err(VbiError::VbNotEnabled(vbuid)),
        }
    }

    /// Invalidates the entry at `index`, returning the VB it named.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidCvtIndex`] for an out-of-range or invalid
    /// entry.
    pub fn detach_index(&mut self, index: usize) -> Result<Vbuid> {
        let entry = self.entry_mut(index)?;
        entry.valid = false;
        Ok(entry.vbuid)
    }

    /// Looks up a valid entry.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidCvtIndex`] for an out-of-range index or an
    /// invalid entry.
    pub fn entry(&self, index: usize) -> Result<&CvtEntry> {
        self.entries
            .get(index)
            .filter(|e| e.valid)
            .ok_or(VbiError::InvalidCvtIndex { client: self.client, index })
    }

    fn entry_mut(&mut self, index: usize) -> Result<&mut CvtEntry> {
        let client = self.client;
        self.entries
            .get_mut(index)
            .filter(|e| e.valid)
            .ok_or(VbiError::InvalidCvtIndex { client, index })
    }

    /// Rewrites *every* valid entry naming `old` to name `new`, returning
    /// the redirected indices — the §4.2.2 remap ("seamlessly migrate/copy
    /// VBs by just updating the VBUID of the corresponding CVT entry").
    /// This is the *one* CVT-rewrite primitive behind VB promotion,
    /// cloning, and migration: callers invalidate the returned indices in
    /// the client's CVT cache and move the matching reference counts.
    pub fn redirect_all(&mut self, old: Vbuid, new: Vbuid) -> Vec<usize> {
        let mut redirected = Vec::new();
        for (i, entry) in self.entries.iter_mut().enumerate() {
            if entry.valid && entry.vbuid == old {
                entry.vbuid = new;
                redirected.push(i);
            }
        }
        redirected
    }

    /// The full protection + bounds check the CPU performs on every access
    /// (§4.2.3): index validity, RWX permission, and `offset < size`.
    /// On success returns the translated VBI address.
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidCvtIndex`], [`VbiError::PermissionDenied`], or
    /// [`VbiError::OffsetOutOfRange`].
    pub fn check_access(&self, va: VirtualAddress, kind: AccessKind) -> Result<VbiAddress> {
        let entry = self.entry(va.cvt_index())?;
        let required = kind.required();
        if !entry.permissions.allows(required) {
            return Err(VbiError::PermissionDenied {
                client: self.client,
                vbuid: entry.vbuid,
                required,
                granted: entry.permissions,
            });
        }
        entry.vbuid.address(va.offset())
    }

    /// Iterates over `(index, entry)` for all valid entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CvtEntry)> {
        self.entries.iter().enumerate().filter(|(_, e)| e.valid)
    }
}

/// Allocates and recycles the system's 16-bit client IDs within one VM's
/// sub-range, which is how VBI partitions client IDs among virtual machines
/// (§6.1; see [`crate::vm::VmPartition::client_ids`]).
#[derive(Debug, Clone)]
pub struct ClientIdAllocator {
    next: u32,
    end: u32,
    recycled: Vec<u16>,
}

impl ClientIdAllocator {
    /// Allocator over `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds 2^16.
    pub fn with_range(start: u16, end: u32) -> Self {
        assert!((start as u32) < end && end <= 1 << 16, "bad client-ID range");
        Self { next: start as u32, end, recycled: Vec::new() }
    }

    /// Hands out a fresh (or recycled) client ID.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::OutOfClients`] when the range is exhausted.
    pub fn allocate(&mut self) -> Result<ClientId> {
        if let Some(id) = self.recycled.pop() {
            return Ok(ClientId(id));
        }
        if self.next >= self.end {
            return Err(VbiError::OutOfClients);
        }
        let id = self.next as u16;
        self.next += 1;
        Ok(ClientId(id))
    }

    /// Returns an ID to the pool (process destruction, §4.4).
    pub fn release(&mut self, id: ClientId) {
        self.recycled.push(id.0);
    }

    /// Number of IDs still available.
    pub fn available(&self) -> usize {
        (self.end - self.next) as usize + self.recycled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SizeClass;

    fn vb(vbid: u64) -> Vbuid {
        Vbuid::new(SizeClass::Kib128, vbid)
    }

    #[test]
    fn client_id_display() {
        assert_eq!(ClientId(2).to_string(), "client#2");
    }

    #[test]
    fn attach_returns_indices_in_order() {
        let mut cvt = Cvt::new(ClientId(1), 8);
        assert_eq!(cvt.attach(vb(0), Rwx::READ).unwrap(), 0);
        assert_eq!(cvt.attach(vb(1), Rwx::READ_WRITE).unwrap(), 1);
        assert_eq!(cvt.attached_count(), 2);
    }

    #[test]
    fn detach_leaves_a_reusable_hole() {
        let mut cvt = Cvt::new(ClientId(1), 8);
        cvt.attach(vb(0), Rwx::READ).unwrap();
        cvt.attach(vb(1), Rwx::READ).unwrap();
        assert_eq!(cvt.detach(vb(0)).unwrap(), 0);
        assert!(cvt.entry(0).is_err());
        // The hole is reused by the next attach.
        assert_eq!(cvt.attach(vb(2), Rwx::ALL).unwrap(), 0);
        assert_eq!(cvt.entry(0).unwrap().vbuid(), vb(2));
    }

    #[test]
    fn capacity_is_enforced() {
        let mut cvt = Cvt::new(ClientId(3), 2);
        cvt.attach(vb(0), Rwx::READ).unwrap();
        cvt.attach(vb(1), Rwx::READ).unwrap();
        assert_eq!(cvt.attach(vb(2), Rwx::READ), Err(VbiError::CvtFull(ClientId(3))));
    }

    #[test]
    fn attach_at_supports_fork_layout() {
        let mut cvt = Cvt::new(ClientId(1), 8);
        cvt.attach_at(5, vb(9), Rwx::READ_WRITE).unwrap();
        assert_eq!(cvt.entry(5).unwrap().vbuid(), vb(9));
        assert!(cvt.entry(4).is_err(), "padding entries are invalid");
        assert!(cvt.attach_at(8, vb(1), Rwx::READ).is_err());
    }

    #[test]
    fn check_access_enforces_permissions() {
        let mut cvt = Cvt::new(ClientId(7), 8);
        let i = cvt.attach(vb(4), Rwx::READ).unwrap();
        let va = VirtualAddress::new(i, 64);
        let addr = cvt.check_access(va, AccessKind::Read).unwrap();
        assert_eq!(addr.vbuid(), vb(4));
        assert_eq!(addr.offset(), 64);
        let err = cvt.check_access(va, AccessKind::Write).unwrap_err();
        assert!(matches!(err, VbiError::PermissionDenied { required, .. }
            if required == Rwx::WRITE));
    }

    #[test]
    fn check_access_enforces_bounds() {
        let mut cvt = Cvt::new(ClientId(7), 8);
        let i = cvt.attach(vb(4), Rwx::ALL).unwrap();
        let too_far = VirtualAddress::new(i, 128 << 10);
        assert!(matches!(
            cvt.check_access(too_far, AccessKind::Read),
            Err(VbiError::OffsetOutOfRange { .. })
        ));
    }

    #[test]
    fn check_access_rejects_bad_indices() {
        let cvt = Cvt::new(ClientId(7), 8);
        assert!(matches!(
            cvt.check_access(VirtualAddress::new(0, 0), AccessKind::Read),
            Err(VbiError::InvalidCvtIndex { .. })
        ));
    }

    #[test]
    fn redirect_all_rewrites_every_matching_entry() {
        let mut cvt = Cvt::new(ClientId(1), 8);
        let a = cvt.attach(vb(0), Rwx::READ_WRITE).unwrap();
        cvt.attach(vb(5), Rwx::READ).unwrap();
        let b = cvt.attach(vb(0), Rwx::READ).unwrap();
        let gone = cvt.attach(vb(0), Rwx::READ).unwrap();
        cvt.detach_index(gone).unwrap();
        assert_eq!(cvt.redirect_all(vb(0), vb(9)), vec![a, b]);
        assert_eq!(cvt.entry(a).unwrap().vbuid(), vb(9));
        assert_eq!(cvt.entry(b).unwrap().vbuid(), vb(9));
        // Permissions survive; unrelated and invalid entries are untouched.
        assert_eq!(cvt.entry(a).unwrap().permissions(), Rwx::READ_WRITE);
        assert_eq!(cvt.entry(1).unwrap().vbuid(), vb(5));
        assert!(cvt.entry(gone).is_err());
        assert!(cvt.redirect_all(vb(0), vb(9)).is_empty(), "nothing left to remap");
    }

    #[test]
    fn cvt_relative_addressing() {
        let va = VirtualAddress::new(4, 0x100);
        assert_eq!(va.cvt_relative(1).cvt_index(), 5);
        assert_eq!(va.cvt_relative(-2).cvt_index(), 2);
        assert_eq!(va.cvt_relative(1).offset(), 0x100);
    }

    #[test]
    fn client_ids_allocate_and_recycle() {
        let mut alloc = ClientIdAllocator::with_range(10, 13);
        let a = alloc.allocate().unwrap();
        let b = alloc.allocate().unwrap();
        let c = alloc.allocate().unwrap();
        assert_eq!((a.0, b.0, c.0), (10, 11, 12));
        assert_eq!(alloc.allocate(), Err(VbiError::OutOfClients));
        alloc.release(b);
        assert_eq!(alloc.allocate().unwrap(), b);
        assert_eq!(alloc.available(), 0);
    }

    #[test]
    fn iter_visits_only_valid_entries() {
        let mut cvt = Cvt::new(ClientId(1), 8);
        cvt.attach(vb(0), Rwx::READ).unwrap();
        cvt.attach(vb(1), Rwx::READ).unwrap();
        cvt.detach(vb(0)).unwrap();
        let seen: Vec<_> = cvt.iter().map(|(i, e)| (i, e.vbuid())).collect();
        assert_eq!(seen, vec![(1, vb(1))]);
    }
}
