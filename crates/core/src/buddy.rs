//! Buddy allocator for physical frames.
//!
//! The MTL "uses the Buddy algorithm to manage free and reserved regions of
//! different size classes" (§5.3). This is a classic binary-buddy allocator
//! over 4 KiB frames: blocks are powers of two frames, splits are lazy, and
//! frees eagerly merge with the buddy block. Reservations (early reservation,
//! §5.3) are layered on top by the MTL — from the allocator's point of view a
//! reserved region is simply an allocated block the MTL hands back piecemeal.

use std::collections::{BTreeSet, HashMap};

use crate::phys::Frame;

/// A power-of-two block order: a block of order `k` spans `2^k` frames.
pub type Order = u32;

/// Classic binary-buddy allocator over physical frames.
///
/// # Examples
///
/// ```
/// use vbi_core::buddy::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(1024);
/// let a = buddy.allocate(0).expect("one frame");
/// let b = buddy.allocate(4).expect("sixteen frames");
/// assert_eq!(buddy.free_frames(), 1024 - 1 - 16);
/// buddy.free(a, 0);
/// buddy.free(b, 4);
/// assert_eq!(buddy.free_frames(), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    total_frames: u64,
    free_frames: u64,
    /// Free block start frames, indexed by order. `BTreeSet` keeps iteration
    /// deterministic (lowest address first), which keeps simulations
    /// reproducible run to run.
    free_lists: Vec<BTreeSet<u64>>,
    /// Currently allocated blocks (start frame -> order), used to validate
    /// frees and to answer occupancy queries.
    allocated: HashMap<u64, Order>,
}

impl BuddyAllocator {
    /// Creates an allocator managing frames `0..total_frames`.
    ///
    /// `total_frames` need not be a power of two; the range is covered by
    /// maximal naturally aligned blocks.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero.
    pub fn new(total_frames: u64) -> Self {
        assert!(total_frames > 0, "buddy allocator needs at least one frame");
        let max_order = 64 - total_frames.leading_zeros();
        let mut free_lists: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); max_order as usize + 1];

        // Greedily tile [0, total_frames) with maximal aligned blocks.
        let mut start = 0u64;
        while start < total_frames {
            let align_order = if start == 0 { max_order } else { start.trailing_zeros() };
            let remaining = total_frames - start;
            let fit_order = 63 - remaining.leading_zeros().min(63);
            let order = align_order.min(fit_order).min(max_order);
            free_lists[order as usize].insert(start);
            start += 1u64 << order;
        }

        Self { total_frames, free_frames: total_frames, free_lists, allocated: HashMap::new() }
    }

    /// Total frames under management.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Frames currently free.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Frames currently allocated.
    pub fn allocated_frames(&self) -> u64 {
        self.total_frames - self.free_frames
    }

    /// The largest order with a free block available, or `None` when empty.
    pub fn largest_free_order(&self) -> Option<Order> {
        (0..self.free_lists.len() as Order).rev().find(|&o| !self.free_lists[o as usize].is_empty())
    }

    /// Whether a contiguous block of `order` can be allocated right now.
    pub fn can_allocate(&self, order: Order) -> bool {
        self.free_lists.iter().enumerate().any(|(o, l)| o as Order >= order && !l.is_empty())
    }

    /// Allocates a naturally aligned block of `2^order` frames.
    ///
    /// Returns the first frame of the block, or `None` when no contiguous
    /// block of that size exists (the caller may then fall back to smaller
    /// orders or trigger reservation stealing / swapping).
    pub fn allocate(&mut self, order: Order) -> Option<Frame> {
        let max = self.free_lists.len() as Order;
        if order >= max {
            return None;
        }
        // Find the smallest free block that fits, then split it down.
        let mut found = None;
        for o in order..max {
            if let Some(&start) = self.free_lists[o as usize].iter().next() {
                found = Some((start, o));
                break;
            }
        }
        let (start, mut o) = found?;
        self.free_lists[o as usize].remove(&start);
        while o > order {
            o -= 1;
            // Keep the low half, release the high half.
            self.free_lists[o as usize].insert(start + (1u64 << o));
        }
        self.free_frames -= 1u64 << order;
        self.allocated.insert(start, order);
        Some(Frame(start))
    }

    /// Allocates a contiguous block of `2^order` frames but registers every
    /// frame as an *individual* order-0 allocation, so each can later be
    /// freed independently with `free(frame, 0)`.
    ///
    /// This is the primitive behind early reservation (§5.3): the MTL grabs
    /// a whole contiguous region for a VB, then hands frames out (or lets
    /// other VBs steal them) one at a time; buddy merging reassembles the
    /// region as frames come back.
    pub fn allocate_split(&mut self, order: Order) -> Option<Frame> {
        let base = self.allocate(order)?;
        self.allocated.remove(&base.0);
        for i in 0..(1u64 << order) {
            self.allocated.insert(base.0 + i, 0);
        }
        Some(base)
    }

    /// Frees a block previously returned by [`BuddyAllocator::allocate`],
    /// merging with its buddy as far as possible.
    ///
    /// # Panics
    ///
    /// Panics on a free that does not match a live allocation (double free,
    /// wrong order, or wrong address) — these indicate MTL bugs and must not
    /// be silently absorbed.
    pub fn free(&mut self, frame: Frame, order: Order) {
        match self.allocated.remove(&frame.0) {
            Some(o) if o == order => {}
            Some(o) => panic!("free of {frame} with order {order}, allocated with order {o}"),
            None => panic!("free of unallocated block at {frame}"),
        }
        self.free_frames += 1u64 << order;

        let mut start = frame.0;
        let mut order = order;
        let max = self.free_lists.len() as Order - 1;
        while order < max {
            let buddy = start ^ (1u64 << order);
            // Merge only if the buddy is wholly inside the managed range and
            // currently free at the same order.
            if buddy + (1u64 << order) <= self.total_frames
                && self.free_lists[order as usize].remove(&buddy)
            {
                start = start.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.free_lists[order as usize].insert(start);
    }

    /// Whether `frame` is the start of a live allocation of `order`.
    pub fn is_allocated(&self, frame: Frame, order: Order) -> bool {
        self.allocated.get(&frame.0) == Some(&order)
    }

    /// Permanently removes up to `count` free frames from circulation and
    /// returns how many were actually retired.
    ///
    /// Retired frames stay registered as allocated order-0 blocks forever, so
    /// the managed range and the buddy-merge bounds are unchanged — the
    /// capacity simply migrates to whichever allocator [`BuddyAllocator::grow`]s
    /// by the same amount. This is the donor half of cross-shard frame
    /// borrowing.
    pub fn retire_free(&mut self, count: u64) -> u64 {
        let mut retired = 0;
        while retired < count {
            match self.allocate(0) {
                Some(_) => retired += 1,
                None => break,
            }
        }
        retired
    }

    /// Extends the managed range by `count` fresh frames, all immediately
    /// free. The adoptee half of cross-shard frame borrowing: new frame
    /// indices are minted at the end of the existing range.
    pub fn grow(&mut self, count: u64) {
        for _ in 0..count {
            let idx = self.total_frames;
            self.total_frames = idx + 1;
            if self.free_lists.len() < (64 - self.total_frames.leading_zeros()) as usize + 1 {
                self.free_lists.push(BTreeSet::new());
            }
            // Reuse the free/merge path: register the new frame as a live
            // order-0 allocation, then free it so it coalesces with any
            // neighbouring free blocks.
            self.allocated.insert(idx, 0);
            self.free(Frame(idx), 0);
        }
    }

    /// External fragmentation measure: fraction of free memory *not* usable
    /// for a block of `order` (0.0 = can satisfy entirely with such blocks).
    pub fn fragmentation(&self, order: Order) -> f64 {
        if self.free_frames == 0 {
            return 0.0;
        }
        let usable: u64 = self
            .free_lists
            .iter()
            .enumerate()
            .filter(|(o, _)| *o as Order >= order)
            .map(|(o, l)| (l.len() as u64) << o)
            .sum();
        1.0 - usable as f64 / self.free_frames as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocator_is_fully_free() {
        let buddy = BuddyAllocator::new(4096);
        assert_eq!(buddy.free_frames(), 4096);
        assert_eq!(buddy.allocated_frames(), 0);
        assert_eq!(buddy.largest_free_order(), Some(12));
    }

    #[test]
    fn non_power_of_two_total_is_tiled() {
        let buddy = BuddyAllocator::new(1000);
        assert_eq!(buddy.free_frames(), 1000);
        // 1000 = 512 + 256 + 128 + 64 + 32 + 8
        assert_eq!(buddy.largest_free_order(), Some(9));
    }

    #[test]
    fn allocate_splits_and_free_merges() {
        let mut buddy = BuddyAllocator::new(16);
        let a = buddy.allocate(0).unwrap();
        assert_eq!(a, Frame(0));
        assert_eq!(buddy.free_frames(), 15);
        // The 16-frame block was split into 1+1+2+4+8.
        assert_eq!(buddy.largest_free_order(), Some(3));
        buddy.free(a, 0);
        assert_eq!(buddy.largest_free_order(), Some(4));
        assert_eq!(buddy.free_frames(), 16);
    }

    #[test]
    fn blocks_are_naturally_aligned() {
        let mut buddy = BuddyAllocator::new(64);
        let _ = buddy.allocate(0).unwrap();
        let b = buddy.allocate(3).unwrap();
        assert_eq!(b.0 % 8, 0, "order-3 block must be 8-frame aligned");
        let c = buddy.allocate(5).unwrap();
        assert_eq!(c.0 % 32, 0, "order-5 block must be 32-frame aligned");
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut buddy = BuddyAllocator::new(4);
        assert!(buddy.allocate(2).is_some());
        assert!(buddy.allocate(0).is_none());
        assert!(!buddy.can_allocate(0));
    }

    #[test]
    fn interleaved_alloc_free_preserves_accounting() {
        let mut buddy = BuddyAllocator::new(256);
        let mut live = Vec::new();
        for i in 0..32 {
            let order = (i % 3) as Order;
            live.push((buddy.allocate(order).unwrap(), order));
        }
        for (f, o) in live.drain(..).step_by(1) {
            buddy.free(f, o);
        }
        assert_eq!(buddy.free_frames(), 256);
        assert_eq!(buddy.largest_free_order(), Some(8));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_panics() {
        let mut buddy = BuddyAllocator::new(8);
        let a = buddy.allocate(1).unwrap();
        buddy.free(a, 1);
        buddy.free(a, 1);
    }

    #[test]
    #[should_panic(expected = "allocated with order")]
    fn wrong_order_free_panics() {
        let mut buddy = BuddyAllocator::new(8);
        let a = buddy.allocate(1).unwrap();
        buddy.free(a, 2);
    }

    #[test]
    fn allocate_split_frees_frame_by_frame() {
        let mut buddy = BuddyAllocator::new(64);
        let base = buddy.allocate_split(3).unwrap();
        assert_eq!(buddy.free_frames(), 56);
        for i in 0..8 {
            assert!(buddy.is_allocated(base.offset(i), 0));
        }
        // Free the frames in arbitrary order; buddies merge back.
        for i in [3u64, 0, 7, 1, 4, 2, 6, 5] {
            buddy.free(base.offset(i), 0);
        }
        assert_eq!(buddy.free_frames(), 64);
        assert_eq!(buddy.largest_free_order(), Some(6));
    }

    #[test]
    fn retire_free_takes_frames_out_of_circulation() {
        let mut buddy = BuddyAllocator::new(16);
        assert_eq!(buddy.retire_free(4), 4);
        assert_eq!(buddy.free_frames(), 12);
        assert_eq!(buddy.total_frames(), 16, "retired frames stay in the managed range");
        // Retiring more than is free retires only what exists.
        assert_eq!(buddy.retire_free(100), 12);
        assert_eq!(buddy.free_frames(), 0);
    }

    #[test]
    fn grow_mints_new_free_frames_at_the_end() {
        let mut buddy = BuddyAllocator::new(8);
        let a = buddy.allocate(3).unwrap();
        assert_eq!(buddy.free_frames(), 0);
        buddy.grow(8);
        assert_eq!(buddy.total_frames(), 16);
        assert_eq!(buddy.free_frames(), 8);
        let b = buddy.allocate(3).expect("grown capacity is allocatable");
        assert_eq!(b, Frame(8), "fresh indices are minted after the old range");
        buddy.free(a, 3);
        buddy.free(b, 3);
        assert_eq!(buddy.free_frames(), 16);
        assert_eq!(buddy.largest_free_order(), Some(4), "grown frames merge with old ones");
    }

    #[test]
    fn retire_then_grow_transfers_capacity() {
        let mut donor = BuddyAllocator::new(32);
        let mut adoptee = BuddyAllocator::new(8);
        let moved = donor.retire_free(8);
        adoptee.grow(moved);
        assert_eq!(donor.free_frames(), 24);
        assert_eq!(adoptee.free_frames(), 16);
        assert_eq!(donor.free_frames() + adoptee.free_frames(), 40, "net capacity is conserved");
    }

    #[test]
    fn fragmentation_metric() {
        let mut buddy = BuddyAllocator::new(16);
        assert_eq!(buddy.fragmentation(4), 0.0);
        let a = buddy.allocate(0).unwrap();
        // Free = 15 frames, none of them in an order-4 block.
        assert!(buddy.fragmentation(4) > 0.99);
        // But order-3 blocks can still use 8 of the 15.
        let f3 = buddy.fragmentation(3);
        assert!(f3 > 0.0 && f3 < 1.0);
        buddy.free(a, 0);
    }
}
