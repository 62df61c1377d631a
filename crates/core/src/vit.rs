//! VB Info Tables (VITs): the MTL's per-VB metadata store (§4.5.1).
//!
//! The MTL keeps one VIT per size class, indexed by VBID. Each entry stores
//! the VB's enable bit, property bitvector, reference count (number of
//! attached clients), and the type of — and pointer to — its translation
//! structure. Tables grow only up to the largest-VBID enabled VB of their
//! class; the OS bounds table growth by reusing previously disabled VBs.

use std::collections::BTreeMap;

use crate::addr::{SizeClass, Vbuid, SIZE_CLASS_COUNT};
use crate::error::{Result, VbiError};
use crate::phys::PhysAddr;
use crate::translate::{TranslationKind, TranslationStructure};
use crate::vb::VbProperties;

/// One VB Info Table entry (§4.5.1).
#[derive(Debug, Clone, Default)]
pub struct VitEntry {
    /// Whether the VB is currently assigned to a process.
    pub enabled: bool,
    /// Property bitvector supplied by `enable_vb`.
    pub props: VbProperties,
    /// Number of clients attached to the VB.
    pub refcount: u32,
    /// The VB's translation structure. `None` until the first physical
    /// allocation, since the structure's type and pointer are "updated in
    /// its VIT entry at the time of physical memory allocation".
    pub translation: Option<TranslationStructure>,
}

impl VitEntry {
    /// The translation-structure type field of the entry.
    pub fn translation_kind(&self) -> Option<TranslationKind> {
        self.translation.as_ref().map(TranslationStructure::kind)
    }
}

/// The set of VB Info Tables, one per size class.
///
/// # Examples
///
/// ```
/// use vbi_core::addr::SizeClass;
/// use vbi_core::vb::VbProperties;
/// use vbi_core::vit::VbInfoTables;
///
/// let mut vits = VbInfoTables::new();
/// let vb = vits.find_free(SizeClass::Kib128)?;
/// vits.enable(vb, VbProperties::CODE)?;
/// assert!(vits.entry(vb)?.enabled);
/// # Ok::<(), vbi_core::VbiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VbInfoTables {
    /// Sparse per-class tables. A `BTreeMap` (rather than a dense array)
    /// keeps the model practical for VBIDs scattered across the ID space —
    /// e.g. the high VBIDs produced by VM partitioning (§6.1) — while
    /// behaving identically to the paper's bounded, index-addressed tables.
    tables: [BTreeMap<u64, VitEntry>; SIZE_CLASS_COUNT],
}

impl VbInfoTables {
    /// Creates empty tables.
    pub fn new() -> Self {
        Self { tables: Default::default() }
    }

    /// Scans for a free (never-used or disabled) VB of `size_class`,
    /// preferring to reuse disabled entries so the table stays short.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::OutOfVirtualBlocks`] when the class is exhausted
    /// (practically unreachable given 2^14..2^49 VBs per class).
    pub fn find_free(&self, size_class: SizeClass) -> Result<Vbuid> {
        self.find_free_in(size_class, 0, size_class.vb_count())
    }

    /// Scans for a free VB of `size_class` whose VBID falls in `[lo, hi)` —
    /// the partitioned variant the MTL uses (§6.1 gives each VM, and §6.2
    /// each home MTL, a contiguous VBID range named by the high-order VBID
    /// bits; a VB is placed in the intersection).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::OutOfVirtualBlocks`] when the slice is exhausted.
    pub fn find_free_in(&self, size_class: SizeClass, lo: u64, hi: u64) -> Result<Vbuid> {
        if lo >= hi {
            return Err(VbiError::OutOfVirtualBlocks(size_class));
        }
        let table = &self.tables[size_class.id() as usize];
        // Prefer a previously used, now-disabled slot.
        if let Some((&vbid, _)) = table.range(lo..hi).find(|(_, e)| !e.enabled) {
            return Ok(Vbuid::new(size_class, vbid));
        }
        // Otherwise the smallest never-used VBID of the slice.
        let mut next = lo;
        for &vbid in table.range(lo..hi).map(|(k, _)| k) {
            if vbid == next {
                next += 1;
            } else if vbid > next {
                break;
            }
        }
        if next >= hi.min(size_class.vb_count()) {
            return Err(VbiError::OutOfVirtualBlocks(size_class));
        }
        Ok(Vbuid::new(size_class, next))
    }

    /// Marks `vbuid` enabled with `props` (the `enable_vb` instruction's VIT
    /// update, §4.5.1). The reference count starts at zero and the
    /// translation pointer empty.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbAlreadyEnabled`] if the VB is already enabled.
    pub fn enable(&mut self, vbuid: Vbuid, props: VbProperties) -> Result<()> {
        let table = &mut self.tables[vbuid.size_class().id() as usize];
        let entry = table.entry(vbuid.vbid()).or_default();
        if entry.enabled {
            return Err(VbiError::VbAlreadyEnabled(vbuid));
        }
        *entry = VitEntry { enabled: true, props, refcount: 0, translation: None };
        Ok(())
    }

    /// Clears the entry for `vbuid`, returning the old entry so the MTL can
    /// release its physical resources.
    ///
    /// # Errors
    ///
    /// [`VbiError::VbNotEnabled`] if the VB is not enabled, or
    /// [`VbiError::VbInUse`] if clients are still attached.
    pub fn disable(&mut self, vbuid: Vbuid) -> Result<VitEntry> {
        let entry = self.entry_mut(vbuid)?;
        if entry.refcount > 0 {
            return Err(VbiError::VbInUse { vbuid, refcount: entry.refcount });
        }
        Ok(core::mem::take(entry))
    }

    /// Immutable access to an enabled VB's entry.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] for disabled or never-enabled VBs.
    pub fn entry(&self, vbuid: Vbuid) -> Result<&VitEntry> {
        self.tables[vbuid.size_class().id() as usize]
            .get(&vbuid.vbid())
            .filter(|e| e.enabled)
            .ok_or(VbiError::VbNotEnabled(vbuid))
    }

    /// Mutable access to an enabled VB's entry.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] for disabled or never-enabled VBs.
    pub fn entry_mut(&mut self, vbuid: Vbuid) -> Result<&mut VitEntry> {
        self.tables[vbuid.size_class().id() as usize]
            .get_mut(&vbuid.vbid())
            .filter(|e| e.enabled)
            .ok_or(VbiError::VbNotEnabled(vbuid))
    }

    /// Increments the reference count (`attach`).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] if the VB is not enabled.
    pub fn add_ref(&mut self, vbuid: Vbuid) -> Result<u32> {
        let entry = self.entry_mut(vbuid)?;
        entry.refcount += 1;
        Ok(entry.refcount)
    }

    /// Decrements the reference count (`detach`), returning the new count so
    /// the OS can `disable_vb` at zero.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::VbNotEnabled`] if the VB is not enabled.
    ///
    /// # Panics
    ///
    /// Panics if the count is already zero (an OS attach/detach pairing bug).
    pub fn remove_ref(&mut self, vbuid: Vbuid) -> Result<u32> {
        let entry = self.entry_mut(vbuid)?;
        assert!(entry.refcount > 0, "detach of {vbuid} with zero refcount");
        entry.refcount -= 1;
        Ok(entry.refcount)
    }

    /// Number of entries materialised for a size class (the table's length).
    pub fn table_len(&self, size_class: SizeClass) -> usize {
        self.tables[size_class.id() as usize].len()
    }

    /// Iterates over all enabled VBs, smallest class and VBID first.
    pub fn enabled_vbs(&self) -> impl Iterator<Item = Vbuid> + '_ {
        SizeClass::ALL.into_iter().flat_map(move |sc| {
            self.tables[sc.id() as usize]
                .iter()
                .filter(|(_, e)| e.enabled)
                .map(move |(&vbid, _)| Vbuid::new(sc, vbid))
        })
    }

    /// Physical address of a VIT entry, for walk-timing purposes. VITs live
    /// in a reserved region of physical memory; each size class gets a fixed
    /// stride-64 slab, mirroring the paper's "reserved region" for
    /// VBI-related tables.
    pub fn entry_addr(&self, vbuid: Vbuid) -> PhysAddr {
        const VIT_REGION_BASE: u64 = 0x100_0000; // 16 MiB, above CVT region
        const PER_CLASS_SPAN: u64 = 0x10_0000; // 1 MiB per class
        PhysAddr(
            VIT_REGION_BASE
                + vbuid.size_class().id() as u64 * PER_CLASS_SPAN
                + vbuid.vbid() * 64 % PER_CLASS_SPAN,
        )
    }
}

impl Default for VbInfoTables {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_free_prefers_reuse() {
        let mut vits = VbInfoTables::new();
        let a = vits.find_free(SizeClass::Kib4).unwrap();
        assert_eq!(a.vbid(), 0);
        vits.enable(a, VbProperties::NONE).unwrap();
        let b = vits.find_free(SizeClass::Kib4).unwrap();
        assert_eq!(b.vbid(), 1);
        vits.enable(b, VbProperties::NONE).unwrap();
        vits.disable(a).unwrap();
        // The disabled slot is reused before the table grows.
        assert_eq!(vits.find_free(SizeClass::Kib4).unwrap(), a);
        assert_eq!(vits.table_len(SizeClass::Kib4), 2);
    }

    #[test]
    fn enable_twice_fails() {
        let mut vits = VbInfoTables::new();
        let vb = Vbuid::new(SizeClass::Mib4, 3);
        vits.enable(vb, VbProperties::NONE).unwrap();
        assert_eq!(vits.enable(vb, VbProperties::NONE), Err(VbiError::VbAlreadyEnabled(vb)));
    }

    #[test]
    fn disable_requires_zero_refcount() {
        let mut vits = VbInfoTables::new();
        let vb = Vbuid::new(SizeClass::Kib128, 0);
        vits.enable(vb, VbProperties::NONE).unwrap();
        vits.add_ref(vb).unwrap();
        assert!(matches!(
            vits.disable(vb),
            Err(VbiError::VbInUse { vbuid: v, refcount: 1 }) if v == vb
        ));
        assert_eq!(vits.remove_ref(vb).unwrap(), 0);
        assert!(vits.disable(vb).is_ok());
        assert!(vits.entry(vb).is_err());
    }

    #[test]
    fn refcounts_track_attach_detach() {
        let mut vits = VbInfoTables::new();
        let vb = Vbuid::new(SizeClass::Kib4, 9);
        vits.enable(vb, VbProperties::NONE).unwrap();
        assert_eq!(vits.add_ref(vb).unwrap(), 1);
        assert_eq!(vits.add_ref(vb).unwrap(), 2);
        assert_eq!(vits.remove_ref(vb).unwrap(), 1);
    }

    #[test]
    fn props_are_stored() {
        let mut vits = VbInfoTables::new();
        let vb = Vbuid::new(SizeClass::Gib4, 1);
        let props = VbProperties::BANDWIDTH_SENSITIVE | VbProperties::READ_ONLY;
        vits.enable(vb, props).unwrap();
        assert_eq!(vits.entry(vb).unwrap().props, props);
        assert_eq!(vits.entry(vb).unwrap().translation_kind(), None);
    }

    #[test]
    fn enabled_vbs_enumerates_across_classes() {
        let mut vits = VbInfoTables::new();
        let a = Vbuid::new(SizeClass::Kib4, 2);
        let b = Vbuid::new(SizeClass::Tib4, 0);
        vits.enable(a, VbProperties::NONE).unwrap();
        vits.enable(b, VbProperties::NONE).unwrap();
        let all: Vec<_> = vits.enabled_vbs().collect();
        assert_eq!(all, vec![a, b]);
    }

    #[test]
    fn entry_addrs_differ_between_classes() {
        let vits = VbInfoTables::new();
        let a = vits.entry_addr(Vbuid::new(SizeClass::Kib4, 0));
        let b = vits.entry_addr(Vbuid::new(SizeClass::Kib128, 0));
        assert_ne!(a, b);
    }
}
