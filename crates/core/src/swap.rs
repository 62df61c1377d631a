//! Backing store for swapped-out VB data (§3.4, "Physical Memory Capacity
//! Management").
//!
//! When the MTL runs out of physical memory it moves page-sized regions of
//! VBs to the backing store and records the slot in the VB's translation
//! structure. The same mechanism backs memory-mapped files: a file is a set
//! of pre-populated slots associated with a VB.
//!
//! The store behind a shard is pluggable: [`PressureBackend`] abstracts the
//! slot operations the MTL needs, so the default in-memory [`BackingStore`]
//! can be swapped for a capacity-bounded one without the MTL noticing.

use std::collections::{HashMap, HashSet};

use crate::error::Result;
use crate::phys::FRAME_BYTES;
use crate::translate::SwapSlot;

/// One page-sized payload as stored by a backend.
pub type PageData = Box<[u8; FRAME_BYTES as usize]>;

/// The slot operations a shard's MTL needs from its backing store.
///
/// Implementations model the swap device / slow memory tier behind a shard.
/// Zero pages are first-class: they occupy a slot (so translation
/// bookkeeping is uniform) but carry no payload, and implementations report
/// them separately from payload-bearing slots.
///
/// `try_store` hands the page back on failure instead of dropping it, so a
/// capacity-bounded backend never loses data: the MTL returns the page to
/// its frame and surfaces [`crate::VbiError::BackingStoreFull`].
pub trait PressureBackend: std::fmt::Debug + Send + Sync {
    /// Stores a page, returning its slot — or the page itself when the
    /// backend is out of capacity.
    fn try_store(&mut self, data: PageData) -> core::result::Result<SwapSlot, PageData>;

    /// Stores a logically zero page (no payload). `None` when the backend
    /// is out of capacity.
    fn try_store_zero(&mut self) -> Option<SwapSlot>;

    /// Removes and returns a slot's data. `None` means the slot held a
    /// logically zero page (or was never stored).
    fn load(&mut self, slot: SwapSlot) -> Option<PageData>;

    /// Reads a slot without consuming it (copy-on-write cloning of swapped
    /// pages; file-backed VBs that keep the file authoritative).
    fn peek(&self, slot: SwapSlot) -> Option<&PageData>;

    /// Duplicates a slot's contents into a fresh slot (cloning a VB with
    /// swapped-out pages).
    fn duplicate(&mut self, slot: SwapSlot) -> Result<SwapSlot>;

    /// Discards a slot (VB disabled while pages were swapped out).
    fn discard(&mut self, slot: SwapSlot);

    /// Live slots, payload-bearing and zero alike.
    fn len(&self) -> usize;

    /// Whether no slots are live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live slots holding a logically zero page.
    fn zero_len(&self) -> usize;

    /// Payload bytes held (zero slots contribute nothing).
    fn stored_bytes(&self) -> u64;

    /// Capacity in pages, `None` when unbounded.
    fn capacity_pages(&self) -> Option<u64> {
        None
    }
}

/// An in-memory stand-in for the swap device / file system.
///
/// # Examples
///
/// ```
/// use vbi_core::swap::BackingStore;
///
/// let mut store = BackingStore::new();
/// let slot = store.store(Box::new([7u8; 4096]));
/// let data = store.load(slot).expect("slot exists");
/// assert_eq!(data[0], 7);
/// ```
///
/// Occupancy accounting distinguishes payload-bearing slots from zero
/// pages, which are tracked but cost no bytes:
///
/// ```
/// use vbi_core::swap::BackingStore;
///
/// let mut store = BackingStore::new();
/// store.store(Box::new([1u8; 4096]));
/// store.store_zero();
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.zero_len(), 1);
/// assert_eq!(store.stored_bytes(), 4096);
/// ```
#[derive(Debug, Default)]
pub struct BackingStore {
    slots: HashMap<u64, PageData>,
    zero_slots: HashSet<u64>,
    next_slot: u64,
}

impl BackingStore {
    /// Creates an empty backing store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores a page, returning its slot.
    pub fn store(&mut self, data: PageData) -> SwapSlot {
        let slot = SwapSlot(self.next_slot);
        self.next_slot += 1;
        self.slots.insert(slot.0, data);
        slot
    }

    /// Stores a logically zero page (no payload needed).
    pub fn store_zero(&mut self) -> SwapSlot {
        let slot = SwapSlot(self.next_slot);
        self.next_slot += 1;
        self.zero_slots.insert(slot.0);
        slot
    }

    /// Removes and returns a slot's data. `None` means the slot held a
    /// logically zero page (or was never stored).
    pub fn load(&mut self, slot: SwapSlot) -> Option<PageData> {
        self.zero_slots.remove(&slot.0);
        self.slots.remove(&slot.0)
    }

    /// Reads a slot without consuming it (used by copy-on-write cloning of
    /// swapped pages and by file-backed VBs that keep the file authoritative).
    pub fn peek(&self, slot: SwapSlot) -> Option<&PageData> {
        self.slots.get(&slot.0)
    }

    /// Duplicates a slot's contents into a fresh slot (cloning a VB with
    /// swapped-out pages).
    pub fn duplicate(&mut self, slot: SwapSlot) -> SwapSlot {
        match self.slots.get(&slot.0).cloned() {
            Some(data) => self.store(data),
            None => self.store_zero(),
        }
    }

    /// Discards a slot (VB disabled while pages were swapped out).
    pub fn discard(&mut self, slot: SwapSlot) {
        self.zero_slots.remove(&slot.0);
        self.slots.remove(&slot.0);
    }

    /// Number of slots currently holding data.
    pub fn occupied(&self) -> usize {
        self.slots.len()
    }

    /// Live slots, payload-bearing and zero alike.
    ///
    /// ```
    /// use vbi_core::swap::BackingStore;
    ///
    /// let mut store = BackingStore::new();
    /// let data = store.store(Box::new([3u8; 4096]));
    /// let zero = store.store_zero();
    /// assert_eq!(store.len(), 2);
    /// store.discard(zero);
    /// store.discard(data);
    /// assert!(store.is_empty());
    /// ```
    pub fn len(&self) -> usize {
        self.slots.len() + self.zero_slots.len()
    }

    /// Whether no slots are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live slots holding a logically zero page.
    pub fn zero_len(&self) -> usize {
        self.zero_slots.len()
    }

    /// Payload bytes held; zero pages are tracked but cost nothing.
    ///
    /// ```
    /// use vbi_core::swap::BackingStore;
    ///
    /// let mut store = BackingStore::new();
    /// assert_eq!(store.stored_bytes(), 0);
    /// let slot = store.store(Box::new([8u8; 4096]));
    /// assert_eq!(store.stored_bytes(), 4096);
    /// store.load(slot);
    /// assert_eq!(store.stored_bytes(), 0);
    /// ```
    pub fn stored_bytes(&self) -> u64 {
        self.slots.len() as u64 * FRAME_BYTES
    }
}

impl PressureBackend for BackingStore {
    fn try_store(&mut self, data: PageData) -> core::result::Result<SwapSlot, PageData> {
        Ok(self.store(data))
    }

    fn try_store_zero(&mut self) -> Option<SwapSlot> {
        Some(self.store_zero())
    }

    fn load(&mut self, slot: SwapSlot) -> Option<PageData> {
        BackingStore::load(self, slot)
    }

    fn peek(&self, slot: SwapSlot) -> Option<&PageData> {
        BackingStore::peek(self, slot)
    }

    fn duplicate(&mut self, slot: SwapSlot) -> Result<SwapSlot> {
        Ok(BackingStore::duplicate(self, slot))
    }

    fn discard(&mut self, slot: SwapSlot) {
        BackingStore::discard(self, slot);
    }

    fn len(&self) -> usize {
        BackingStore::len(self)
    }

    fn zero_len(&self) -> usize {
        BackingStore::zero_len(self)
    }

    fn stored_bytes(&self) -> u64 {
        BackingStore::stored_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_load_roundtrip() {
        let mut s = BackingStore::new();
        let mut page = Box::new([0u8; 4096]);
        page[100] = 42;
        let slot = s.store(page);
        let back = s.load(slot).unwrap();
        assert_eq!(back[100], 42);
        assert!(s.load(slot).is_none(), "load consumes the slot");
    }

    #[test]
    fn zero_slots_have_no_payload() {
        let mut s = BackingStore::new();
        let slot = s.store_zero();
        assert!(s.peek(slot).is_none());
        assert_eq!(s.len(), 1, "the zero slot is live until loaded");
        assert!(s.load(slot).is_none());
        assert_eq!(s.occupied(), 0);
        assert_eq!(s.len(), 0, "load consumed the zero slot");
    }

    #[test]
    fn duplicate_copies_contents() {
        let mut s = BackingStore::new();
        let slot = s.store(Box::new([9u8; 4096]));
        let dup = s.duplicate(slot);
        assert_ne!(slot, dup);
        assert_eq!(s.peek(slot).unwrap()[0], 9);
        assert_eq!(s.peek(dup).unwrap()[0], 9);
    }

    #[test]
    fn slots_are_never_reused() {
        let mut s = BackingStore::new();
        let a = s.store_zero();
        s.discard(a);
        let b = s.store_zero();
        assert_ne!(a, b);
    }

    #[test]
    fn accounting_tracks_payload_and_zero_slots_separately() {
        let mut s = BackingStore::new();
        let d0 = s.store(Box::new([1u8; 4096]));
        let _d1 = s.store(Box::new([2u8; 4096]));
        let z = s.store_zero();
        assert_eq!(s.len(), 3);
        assert_eq!(s.zero_len(), 1);
        assert_eq!(s.occupied(), 2);
        assert_eq!(s.stored_bytes(), 2 * FRAME_BYTES);

        s.discard(z);
        assert_eq!(s.len(), 2);
        assert_eq!(s.zero_len(), 0);
        assert_eq!(s.stored_bytes(), 2 * FRAME_BYTES);

        s.load(d0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.stored_bytes(), FRAME_BYTES);
    }

    #[test]
    fn duplicating_a_zero_slot_stays_zero() {
        let mut s = BackingStore::new();
        let z = s.store_zero();
        let dup = s.duplicate(z);
        assert!(s.peek(dup).is_none());
        assert_eq!(s.zero_len(), 2);
        assert_eq!(s.stored_bytes(), 0);
    }

    #[test]
    fn trait_object_store_is_infallible_for_the_in_memory_model() {
        let mut s: Box<dyn PressureBackend> = Box::new(BackingStore::new());
        let slot = s.try_store(Box::new([5u8; 4096])).expect("unbounded");
        assert_eq!(s.peek(slot).unwrap()[0], 5);
        assert_eq!(s.capacity_pages(), None);
        assert!(!s.is_empty());
        let dup = s.duplicate(slot).expect("unbounded");
        s.discard(dup);
        assert_eq!(s.load(slot).unwrap()[0], 5);
        assert!(s.try_store_zero().is_some());
    }
}
