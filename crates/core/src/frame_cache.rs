//! The MTL's one allocator surface: [`FrameAllocator`], a buddy allocator
//! fronted by a magazine-style order-0 frame cache ([`FrameCache`]).
//!
//! Every allocating data-plane operation — first-touch stores, fault-ins,
//! copy-on-write resolutions, and the constant request/release churn of a
//! service under load — asks the buddy allocator for exactly one 4 KiB
//! frame. The buddy pays split/coalesce bookkeeping (ordered-set inserts
//! and removals across order lists) for what is overwhelmingly a
//! fixed-size workload, and it does so under the shard lock, so every
//! cycle spent there lengthens the critical section of the whole shard.
//!
//! [`FrameCache`] keeps that common cycle out of the buddy entirely. It is
//! the classic magazine design (Bonwick's slab/magazine allocator): two
//! bounded LIFO stacks of order-0 frames — the *loaded* magazine served
//! first and a *previous* magazine swapped in depot-style when the loaded
//! one runs empty or full — refilled in contiguous batches via
//! [`BuddyAllocator::allocate_split`] and drained back with bulk frees.
//! An allocate/free churn cycle that stays within the magazines touches
//! two `Vec` push/pops and nothing else.
//!
//! Cached frames remain registered as *allocated* order-0 blocks inside
//! the buddy, so the buddy's own invariants (double-free panics, merge
//! bounds) keep holding; [`FrameAllocator::free_frames`] stays exact by
//! summing `buddy free + cache len`.
//!
//! # One owner
//!
//! [`FrameAllocator`] holds the buddy and the magazines privately and
//! serves the three kinds of request the MTL makes, each finding the
//! frames it needs by itself: a **data frame** (through the magazines), a
//! **table block** (from the buddy proper, below the cache — and if the
//! buddy cannot fund it while the magazines hold frames, they are returned
//! and it is asked again) and a **contiguous run** (an early reservation;
//! order > 0 drains the magazines first, because scattered cached frames
//! can only hurt contiguity). No caller flushes, and none can forget to:
//! the cache is capacity-invisible because nothing outside this module can
//! reach past it.
//!
//! # The headroom rule
//!
//! The cache must never make the system fail an allocation that the bare
//! buddy would have satisfied. It only holds frames while the buddy keeps
//! a cushion of [`POOL_HEADROOM`] free frames of its own: refills never
//! pull the buddy below the cushion, and frees route straight to the buddy
//! whenever it is short. Under memory pressure the cache therefore drains
//! and becomes inert, so a table allocation almost never has to wait for
//! the magazines to be returned — and when it does, it finds them.

use crate::buddy::{BuddyAllocator, Order};
use crate::config::VbiConfig;
use crate::phys::Frame;

/// Counters for one [`FrameCache`] (folded into
/// [`crate::stats::MtlStats`] by the MTL).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCacheStats {
    /// Allocations served from a magazine (no buddy order-list work).
    pub cache_hits: u64,
    /// Allocations that had to go to the buddy (magazines empty and the
    /// headroom rule forbade — or the buddy could not fund — a refill).
    pub cache_misses: u64,
    /// Batch refills pulled from the buddy into the loaded magazine.
    pub refills: u64,
    /// Times cached frames were returned to the buddy by policy (an
    /// order > 0 run, a table block the buddy alone could not fund, a
    /// donation, a free-pool top-up).
    pub flushes: u64,
    /// Full magazines returned to the buddy in bulk on the free path.
    pub batch_frees: u64,
}

/// A per-MTL magazine cache of order-0 frames in front of the buddy.
#[derive(Debug)]
pub struct FrameCache {
    enabled: bool,
    /// Capacity of each magazine, in frames.
    magazine: usize,
    /// Upper bound on frames pulled from the buddy per refill.
    refill_batch: usize,
    /// The magazine currently served. LIFO: the most recently freed frame
    /// is handed out next (warmest frame, tightest reuse).
    loaded: Vec<Frame>,
    /// The depot magazine swapped in when `loaded` runs dry or full.
    previous: Vec<Frame>,
    stats: FrameCacheStats,
}

impl FrameCache {
    /// A cache with the given magazine capacity and refill batch;
    /// `enabled = false` turns every call into a buddy pass-through (the
    /// A/B baseline — no counters move).
    pub fn new(enabled: bool, magazine: usize, refill_batch: usize) -> Self {
        let magazine = magazine.max(1);
        Self {
            enabled,
            magazine,
            refill_batch: refill_batch.clamp(1, magazine),
            loaded: Vec::with_capacity(magazine),
            previous: Vec::with_capacity(magazine),
            stats: FrameCacheStats::default(),
        }
    }

    /// Frames currently held across both magazines.
    pub fn len(&self) -> u64 {
        (self.loaded.len() + self.previous.len()) as u64
    }

    /// Whether both magazines are empty.
    pub fn is_empty(&self) -> bool {
        self.loaded.is_empty() && self.previous.is_empty()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> FrameCacheStats {
        self.stats
    }

    /// Clears the counters (simulation warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.stats = FrameCacheStats::default();
    }

    /// Allocates one order-0 frame: loaded magazine, then depot swap, then
    /// a batch refill from the buddy (only while the buddy keeps
    /// `headroom` frames of its own), then the bare buddy.
    pub fn allocate(&mut self, buddy: &mut BuddyAllocator, headroom: u64) -> Option<Frame> {
        if !self.enabled {
            return buddy.allocate(0);
        }
        if let Some(frame) = self.loaded.pop() {
            self.stats.cache_hits += 1;
            return Some(frame);
        }
        if !self.previous.is_empty() {
            std::mem::swap(&mut self.loaded, &mut self.previous);
            self.stats.cache_hits += 1;
            return self.loaded.pop();
        }
        self.stats.cache_misses += 1;
        let free = buddy.free_frames();
        if free > headroom {
            let batch = (self.refill_batch as u64).min(free - headroom).max(1);
            self.refill(buddy, batch);
            self.stats.refills += 1;
            if let Some(frame) = self.loaded.pop() {
                return Some(frame);
            }
        }
        buddy.allocate(0)
    }

    /// Pulls up to `batch` frames from the buddy into the loaded magazine,
    /// preferring one contiguous power-of-two grab (`allocate_split`
    /// registers each frame as an individual order-0 allocation, so the
    /// cache can hand them back one at a time).
    fn refill(&mut self, buddy: &mut BuddyAllocator, batch: u64) {
        let mut remaining = batch;
        let order = 63 - batch.leading_zeros().min(63);
        if order > 0 {
            if let Some(base) = buddy.allocate_split(order as Order) {
                // LIFO pops hand out ascending addresses this way.
                for i in (0..(1u64 << order)).rev() {
                    self.loaded.push(Frame(base.0 + i));
                }
                remaining -= 1u64 << order;
            }
        }
        for _ in 0..remaining {
            match buddy.allocate(0) {
                Some(frame) => self.loaded.push(frame),
                None => break,
            }
        }
    }

    /// Frees one order-0 frame into the cache — unless the buddy is below
    /// its headroom cushion (the frame then goes straight back) or the
    /// cache is disabled. A full loaded magazine swaps with the depot; if
    /// both are full the depot magazine is bulk-freed to the buddy first.
    pub fn free(&mut self, buddy: &mut BuddyAllocator, frame: Frame, headroom: u64) {
        if !self.enabled || buddy.free_frames() < headroom {
            buddy.free(frame, 0);
            return;
        }
        if self.loaded.len() >= self.magazine {
            if self.previous.len() >= self.magazine {
                for f in self.previous.drain(..) {
                    buddy.free(f, 0);
                }
                self.stats.batch_frees += 1;
            }
            std::mem::swap(&mut self.loaded, &mut self.previous);
        }
        self.loaded.push(frame);
    }

    /// Returns every cached frame to the buddy and reports how many moved.
    pub fn flush(&mut self, buddy: &mut BuddyAllocator) -> u64 {
        let moved = self.len();
        if moved == 0 {
            return 0;
        }
        for f in self.loaded.drain(..).chain(self.previous.drain(..)) {
            buddy.free(f, 0);
        }
        self.stats.flushes += 1;
        moved
    }

    /// Moves cached frames into the buddy until its free pool reaches
    /// `target` or the cache empties — the cheapest replenishment source,
    /// tried before anyone's reservation is raided. Returns frames moved.
    pub fn drain_to(&mut self, buddy: &mut BuddyAllocator, target: u64) -> u64 {
        let mut moved = 0;
        while buddy.free_frames() < target {
            let Some(frame) = self.loaded.pop().or_else(|| self.previous.pop()) else { break };
            buddy.free(frame, 0);
            moved += 1;
        }
        if moved > 0 {
            self.stats.flushes += 1;
        }
        moved
    }
}

/// Cushion of free frames [`FrameAllocator`] keeps inside the buddy
/// proper, below the magazines. The MTL tops the pool up to this level on
/// every translation (releasing reserved-but-unused frames if it must), so
/// internal allocations — table nodes, COW copies — never dead-end while
/// reservations hold free memory hostage; the magazines honour the same
/// level (see *The headroom rule* in the module docs).
pub const POOL_HEADROOM: u64 = 16;

/// The physical-frame allocator of one MTL: the buddy and its magazines
/// behind one surface.
///
/// # Examples
///
/// ```
/// use vbi_core::{FrameAllocator, VbiConfig};
///
/// let mut frames = FrameAllocator::new(&VbiConfig { phys_frames: 1024, ..VbiConfig::default() });
/// let data = frames.allocate().expect("a data frame");
/// let table = frames.allocate_table(1).expect("a two-frame table block");
/// let run = frames.allocate_run(5).expect("a 32-frame reservation");
/// assert_eq!(frames.held_frames(), 1 + 2 + 32);
/// frames.free(data);
/// frames.free_table(table, 1);
/// for i in 0..32 {
///     frames.free(run.offset(i));
/// }
/// assert_eq!(frames.free_frames(), 1024);
/// ```
#[derive(Debug)]
pub struct FrameAllocator {
    buddy: BuddyAllocator,
    cache: FrameCache,
    /// Frames [`FrameAllocator::retire`] took out of circulation for good.
    retired: u64,
}

impl FrameAllocator {
    /// An allocator over `config.phys_frames` frames, its magazines sized
    /// (or switched off) by the `frame_cache*` fields.
    pub fn new(config: &VbiConfig) -> Self {
        Self {
            buddy: BuddyAllocator::new(config.phys_frames),
            cache: FrameCache::new(
                config.frame_cache,
                config.frame_cache_magazine,
                config.frame_cache_refill,
            ),
            retired: 0,
        }
    }

    /// Allocates one data frame: from the magazines, refilled from the
    /// buddy while it keeps [`POOL_HEADROOM`], else from the bare buddy.
    #[inline]
    pub fn allocate(&mut self) -> Option<Frame> {
        self.cache.allocate(&mut self.buddy, POOL_HEADROOM)
    }

    /// Frees one frame into the magazines (straight into the buddy while
    /// it is below its cushion).
    #[inline]
    pub fn free(&mut self, frame: Frame) {
        self.cache.free(&mut self.buddy, frame, POOL_HEADROOM);
    }

    /// Allocates a naturally aligned block of `2^order` frames for a
    /// translation table, from the buddy proper. A buddy that cannot fund
    /// it while the magazines hold frames gets them back and is asked
    /// again, so `None` means no such block exists anywhere.
    pub fn allocate_table(&mut self, order: Order) -> Option<Frame> {
        if let Some(base) = self.buddy.allocate(order) {
            return Some(base);
        }
        if self.cache.flush(&mut self.buddy) == 0 {
            return None;
        }
        self.buddy.allocate(order)
    }

    /// Frees a block [`FrameAllocator::allocate_table`] returned.
    pub fn free_table(&mut self, frame: Frame, order: Order) {
        self.buddy.free(frame, order);
    }

    /// Allocates `2^order` contiguous frames, each registered as its own
    /// order-0 allocation so the run can be handed back one frame at a time
    /// (early reservation, §5.3). A one-frame run is a data frame; a longer
    /// one drains the magazines first. A run larger than the machine is
    /// refused before anything is disturbed.
    pub fn allocate_run(&mut self, order: Order) -> Option<Frame> {
        if order == 0 {
            return self.allocate();
        }
        if order > self.buddy.total_frames().ilog2() {
            return None;
        }
        self.drain();
        self.buddy.allocate_split(order)
    }

    /// Frees one frame straight into the buddy's pool, past the magazines:
    /// a reserved frame released to raise the pool.
    pub fn free_to_pool(&mut self, frame: Frame) {
        self.buddy.free(frame, 0);
    }

    /// Moves cached frames into the pool until it holds `target` frames or
    /// the magazines are empty — the cheapest way to raise the pool, tried
    /// before anyone's reservation is raided.
    #[inline]
    pub fn top_up_pool(&mut self, target: u64) {
        self.cache.drain_to(&mut self.buddy, target);
    }

    /// Free frames in the buddy proper, below the magazines: what a table
    /// block can be cut from without draining.
    #[inline]
    pub fn pool_frames(&self) -> u64 {
        self.buddy.free_frames()
    }

    /// Permanently removes up to `count` free frames from circulation
    /// (cached ones included) and returns how many went — the donor half of
    /// cross-shard frame borrowing (see [`BuddyAllocator::retire_free`]).
    pub fn retire(&mut self, count: u64) -> u64 {
        self.drain();
        let retired = self.buddy.retire_free(count);
        self.retired += retired;
        retired
    }

    /// Extends the managed range by `count` fresh free frames — the adoptee
    /// half of frame borrowing.
    pub fn grow(&mut self, count: u64) {
        self.buddy.grow(count);
    }

    /// Frames free right now: the pool plus the magazines (cached frames
    /// are instantly allocatable, so the gauge is the same with the cache
    /// on or off).
    pub fn free_frames(&self) -> u64 {
        self.buddy.free_frames() + self.cache.len()
    }

    /// Frames under management, retired ones included.
    pub fn total_frames(&self) -> u64 {
        self.buddy.total_frames()
    }

    /// Frames out with a caller: neither free nor retired. The MTL's
    /// frame-conservation law ([`crate::Mtl::audit`]) holds this against
    /// the data, reserved and table frames it can account for.
    pub fn held_frames(&self) -> u64 {
        self.total_frames() - self.free_frames() - self.retired
    }

    /// External fragmentation of the pool at `order` (see
    /// [`BuddyAllocator::fragmentation`]). Cached frames count as
    /// allocated — they are scattered order-0 blocks by construction, so
    /// including them would only restate the cache size.
    pub fn fragmentation(&self, order: Order) -> f64 {
        self.buddy.fragmentation(order)
    }

    /// The magazines' counters.
    pub fn cache_stats(&self) -> FrameCacheStats {
        self.cache.stats()
    }

    /// Clears the magazines' counters (simulation warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// Returns every cached frame to the pool and reports how many moved.
    /// Nothing in the MTL needs to call this — each request above finds its
    /// own frames; it remains for tests that compare pool-level occupancy
    /// with a cache-disabled run.
    pub fn drain(&mut self) -> u64 {
        self.cache.flush(&mut self.buddy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> FrameCache {
        FrameCache::new(true, 8, 4)
    }

    #[test]
    fn churn_cycle_stays_inside_the_magazines() {
        let mut buddy = BuddyAllocator::new(256);
        let mut c = cache();
        let f = c.allocate(&mut buddy, 16).unwrap();
        // First allocation missed and refilled a batch.
        assert_eq!(c.stats().cache_misses, 1);
        assert_eq!(c.stats().refills, 1);
        let buddy_free = buddy.free_frames();
        for _ in 0..100 {
            c.free(&mut buddy, f, 16);
            assert_eq!(c.allocate(&mut buddy, 16), Some(f), "LIFO returns the warmest frame");
        }
        assert_eq!(buddy.free_frames(), buddy_free, "churn never touched the buddy");
        assert_eq!(c.stats().cache_hits, 100);
        assert_eq!(c.stats().cache_misses, 1);
    }

    #[test]
    fn conservation_across_refill_and_flush() {
        let mut buddy = BuddyAllocator::new(256);
        let mut c = cache();
        let frames: Vec<Frame> = (0..20).map(|_| c.allocate(&mut buddy, 16).unwrap()).collect();
        assert_eq!(buddy.free_frames() + c.len(), 256 - 20);
        for f in frames {
            c.free(&mut buddy, f, 16);
        }
        assert_eq!(buddy.free_frames() + c.len(), 256);
        c.flush(&mut buddy);
        assert!(c.is_empty());
        assert_eq!(buddy.free_frames(), 256, "every frame merged back");
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn overflowing_both_magazines_bulk_frees_the_depot() {
        let mut buddy = BuddyAllocator::new(256);
        let mut c = cache();
        let frames: Vec<Frame> = (0..24).map(|_| buddy.allocate(0).unwrap()).collect();
        for f in frames {
            c.free(&mut buddy, f, 16);
        }
        // 24 frees into 2×8 magazines: one depot bulk-free of 8 frames.
        assert_eq!(c.stats().batch_frees, 1);
        assert_eq!(c.len(), 16);
        assert_eq!(buddy.free_frames(), 256 - 24 + 8);
    }

    #[test]
    fn headroom_keeps_the_cache_inert_under_pressure() {
        let mut buddy = BuddyAllocator::new(20);
        let mut c = cache();
        // Only 20 frames with headroom 16: refills may pull at most down
        // to the cushion, and frees below the cushion bypass the cache.
        let a = c.allocate(&mut buddy, 16).unwrap();
        assert!(buddy.free_frames() >= 16, "refill respected the cushion");
        while !c.is_empty() {
            c.allocate(&mut buddy, 16).unwrap();
        }
        while buddy.free_frames() > 10 {
            buddy.allocate(0).unwrap();
        }
        c.free(&mut buddy, a, 16);
        assert_eq!(c.len(), 0, "free below headroom went straight to the buddy");
        // With the buddy short and the cache empty, allocation falls
        // through to the bare buddy.
        let before = c.stats().refills;
        assert!(c.allocate(&mut buddy, 16).is_some());
        assert_eq!(c.stats().refills, before, "no refill below the cushion");
    }

    #[test]
    fn drain_to_stops_at_the_target() {
        let mut buddy = BuddyAllocator::new(256);
        let mut c = cache();
        let held: Vec<Frame> = (0..240).map(|_| buddy.allocate(0).unwrap()).collect();
        for f in held.iter().take(12) {
            c.free(&mut buddy, *f, 16);
        }
        assert_eq!(c.len(), 12);
        let free = buddy.free_frames();
        assert_eq!(c.drain_to(&mut buddy, free + 5), 5);
        assert_eq!(c.len(), 7);
        assert_eq!(buddy.free_frames(), free + 5);
    }

    /// `frames` frames behind 2 × 8-frame magazines refilled 4 at a time.
    fn allocator(frames: u64) -> FrameAllocator {
        FrameAllocator::new(&VbiConfig {
            phys_frames: frames,
            frame_cache_magazine: 8,
            frame_cache_refill: 4,
            ..VbiConfig::default()
        })
    }

    /// The state the headroom rule makes rare and the verb-for-verb property
    /// in `tests/frame_cache_equivalence.rs` therefore does not reach: an
    /// empty pool under full magazines. A table block must find the cached
    /// frames by itself.
    #[test]
    fn a_table_block_the_pool_cannot_fund_gets_the_magazines_back() {
        let mut frames = allocator(64);
        let data: Vec<Frame> = (0..16).map(|_| frames.allocate().unwrap()).collect();
        for frame in data {
            frames.free(frame);
        }
        assert_eq!(frames.cache.len(), 16, "both magazines full");
        while frames.pool_frames() > 0 {
            frames.allocate_table(0).unwrap();
        }
        assert_eq!(frames.cache_stats().flushes, 0, "the pool funded every block so far");
        assert_eq!(frames.free_frames(), 16);

        for left in (0..16).rev() {
            assert!(frames.allocate_table(0).is_some());
            assert_eq!(frames.free_frames(), left);
        }
        assert_eq!(frames.cache_stats().flushes, 1, "one return, on the first miss");
        assert!(frames.cache.is_empty());
        assert_eq!(frames.allocate_table(0), None, "now no frame exists anywhere");
        assert_eq!(frames.held_frames(), 64);
    }

    #[test]
    fn a_two_frame_table_is_funded_from_halves_in_the_magazines() {
        let mut frames = allocator(64);
        for n in 0..64 {
            assert_eq!(frames.allocate_table(0), Some(Frame(n)));
        }
        // A pool of 16 singletons: at its cushion, so frees are cached, but
        // with no two-frame block to give.
        for n in (0..32).step_by(2) {
            frames.free_table(Frame(n), 0);
        }
        frames.free(Frame(41));
        frames.free(Frame(40));
        assert_eq!((frames.pool_frames(), frames.cache.len()), (16, 2));
        assert_eq!(frames.allocate_table(1), Some(Frame(40)), "the halves merged in the pool");
        assert_eq!(frames.cache_stats().flushes, 1);
        assert_eq!(frames.free_frames(), 16);
    }

    #[test]
    fn a_run_drains_the_magazines_unless_it_is_one_frame() {
        let mut frames = allocator(256);
        let first = frames.allocate().unwrap();
        frames.free(first);
        let hits = frames.cache_stats().cache_hits;
        assert_eq!(frames.allocate_run(0), Some(first), "a one-frame run is a data frame");
        assert_eq!(frames.cache_stats().cache_hits, hits + 1);
        assert!(!frames.cache.is_empty());
        assert_eq!(frames.free_frames(), 255);

        assert_eq!(frames.allocate_run(9), None, "larger than the machine");
        assert_eq!(frames.cache_stats().flushes, 0, "refused before anything was disturbed");

        let base = frames.allocate_run(5).expect("32 contiguous frames");
        assert_eq!(base.0 % 32, 0);
        assert_eq!(frames.cache_stats().flushes, 1);
        assert!(frames.cache.is_empty());
        assert_eq!(frames.free_frames(), 255 - 32);
        // Every frame of the run is its own allocation.
        frames.free(base.offset(3));
        assert_eq!(frames.free_frames(), 255 - 31);
    }

    #[test]
    fn retired_frames_are_neither_free_nor_held() {
        let mut frames = allocator(64);
        let held = frames.allocate().unwrap();
        assert!(!frames.cache.is_empty());
        assert_eq!(frames.retire(10), 10);
        assert!(frames.cache.is_empty(), "cached frames are donated like any other");
        assert_eq!(frames.cache_stats().flushes, 1);
        assert_eq!((frames.free_frames(), frames.held_frames()), (53, 1));
        assert_eq!(frames.retire(100), 53, "only what is free can go");
        assert_eq!((frames.free_frames(), frames.held_frames()), (0, 1));
        frames.grow(8);
        assert_eq!((frames.total_frames(), frames.free_frames(), frames.held_frames()), (72, 8, 1));
        frames.free(held);
        assert_eq!((frames.free_frames(), frames.held_frames()), (9, 0));
    }

    #[test]
    fn disabled_cache_is_a_pass_through() {
        let mut buddy = BuddyAllocator::new(64);
        let mut c = FrameCache::new(false, 8, 4);
        let f = c.allocate(&mut buddy, 16).unwrap();
        assert_eq!(buddy.free_frames(), 63);
        c.free(&mut buddy, f, 16);
        assert_eq!(buddy.free_frames(), 64);
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats(), FrameCacheStats::default(), "baseline moves no counters");
    }
}
