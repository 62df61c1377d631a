//! Generic set-associative TLB with true-LRU replacement.
//!
//! Used in two places: the MTL's translation lookaside buffers (§4.2.3, one
//! per mapping granularity, §5.2) and — via `vbi_sim::baselines` — the
//! conventional L1/L2 TLB hierarchy of the comparison systems. The TLB is
//! generic over its key so the same structure serves `(VBUID, page)` keys in
//! VBI, `(ASID, VPN)` keys in x86-64 baselines, and whole-VB keys for
//! direct-mapped VBs.

use core::fmt::Debug;
use core::hash::Hash;
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;

/// Statistics for a TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by fills.
    pub evictions: u64,
}

impl TlbStats {
    /// Accumulates another TLB's counters into this one (per-shard TLB
    /// stats aggregate into one report in sharded deployments).
    pub fn merge(&mut self, other: &TlbStats) {
        let TlbStats { hits, misses, evictions } = other;
        self.hits += hits;
        self.misses += misses;
        self.evictions += evictions;
    }

    /// Miss rate in `[0, 1]`; 0.0 for an untouched TLB.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Way<K, V> {
    key: K,
    value: V,
    /// Higher = more recently used.
    lru: u64,
}

/// A set-associative TLB mapping keys `K` to values `V` with LRU replacement.
///
/// `ways == capacity` gives a fully associative structure (used for the
/// paper's fully associative L1 TLBs and page-walk caches).
///
/// # Examples
///
/// ```
/// use vbi_core::tlb::Tlb;
///
/// let mut tlb: Tlb<u64, u64> = Tlb::new(64, 4);
/// assert_eq!(tlb.lookup(&0x1000), None);
/// tlb.insert(0x1000, 0xabc);
/// assert_eq!(tlb.lookup(&0x1000), Some(0xabc));
/// assert_eq!(tlb.stats().misses, 1);
/// assert_eq!(tlb.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb<K, V> {
    sets: Vec<Vec<Way<K, V>>>,
    ways: usize,
    tick: u64,
    stats: TlbStats,
}

impl<K: Eq + Hash + Clone + Debug, V: Clone> Tlb<K, V> {
    /// Creates a TLB with `capacity` total entries and `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, `ways` is zero, or `ways` does not
    /// divide `capacity`.
    pub fn new(capacity: usize, ways: usize) -> Self {
        assert!(capacity > 0 && ways > 0, "TLB needs capacity and ways");
        assert!(capacity.is_multiple_of(ways), "ways must divide capacity");
        let set_count = capacity / ways;
        Self {
            sets: (0..set_count).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Creates a fully associative TLB with `capacity` entries.
    pub fn fully_associative(capacity: usize) -> Self {
        Self::new(capacity, capacity)
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    fn set_index(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.sets.len()
    }

    /// Looks up `key`, recording a hit or miss and refreshing LRU state.
    pub fn lookup(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_index(key);
        match self.sets[set].iter_mut().find(|w| &w.key == key) {
            Some(way) => {
                way.lru = tick;
                self.stats.hits += 1;
                Some(way.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks for `key` without touching statistics or LRU state (used by
    /// invariants and tests).
    pub fn peek(&self, key: &K) -> Option<&V> {
        let set = self.set_index(key);
        self.sets[set].iter().find(|w| &w.key == key).map(|w| &w.value)
    }

    /// Inserts (or updates) a translation, evicting the set's LRU entry when
    /// full. Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let set_idx = self.set_index(&key);
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.key == key) {
            way.value = value;
            way.lru = tick;
            return None;
        }
        if set.len() < ways {
            set.push(Way { key, value, lru: tick });
            return None;
        }
        let victim = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.lru)
            .map(|(i, _)| i)
            .expect("full set has a victim");
        let old = core::mem::replace(&mut set[victim], Way { key, value, lru: tick });
        self.stats.evictions += 1;
        Some((old.key, old.value))
    }

    /// Removes a translation, returning its value if present.
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        let set = self.set_index(key);
        let pos = self.sets[set].iter().position(|w| &w.key == key)?;
        Some(self.sets[set].swap_remove(pos).value)
    }

    /// Removes every translation for which `predicate` holds (e.g. all pages
    /// of a disabled VB).
    pub fn invalidate_matching(&mut self, mut predicate: impl FnMut(&K) -> bool) -> usize {
        let mut removed = 0;
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|w| !predicate(&w.key));
            removed += before - set.len();
        }
        removed
    }

    /// Removes all translations.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets statistics (e.g. after warm-up) without flushing entries.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_miss_then_fill_then_hit() {
        let mut tlb: Tlb<u64, u64> = Tlb::new(16, 4);
        assert_eq!(tlb.lookup(&5), None);
        tlb.insert(5, 500);
        assert_eq!(tlb.lookup(&5), Some(500));
        assert_eq!(tlb.stats(), TlbStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn stats_merge_sums_counters() {
        let mut a = TlbStats { hits: 1, misses: 2, evictions: 3 };
        a.merge(&TlbStats { hits: 10, misses: 20, evictions: 30 });
        assert_eq!(a, TlbStats { hits: 11, misses: 22, evictions: 33 });
    }

    #[test]
    fn insert_updates_in_place() {
        let mut tlb: Tlb<u64, u64> = Tlb::new(4, 4);
        tlb.insert(1, 10);
        tlb.insert(1, 11);
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.lookup(&1), Some(11));
    }

    #[test]
    fn lru_evicts_the_oldest() {
        let mut tlb: Tlb<u64, u64> = Tlb::fully_associative(2);
        tlb.insert(1, 10);
        tlb.insert(2, 20);
        tlb.lookup(&1); // 2 becomes LRU
        let evicted = tlb.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert!(tlb.peek(&1).is_some());
        assert!(tlb.peek(&3).is_some());
    }

    #[test]
    fn sets_partition_the_key_space() {
        let mut tlb: Tlb<u64, u64> = Tlb::new(8, 2);
        for k in 0..64 {
            tlb.insert(k, k);
        }
        assert!(tlb.len() <= 8);
        for set in &tlb.sets {
            assert!(set.len() <= 2);
        }
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb: Tlb<u64, u64> = Tlb::new(8, 2);
        tlb.insert(1, 10);
        tlb.insert(2, 20);
        assert_eq!(tlb.invalidate(&1), Some(10));
        assert_eq!(tlb.invalidate(&1), None);
        tlb.flush();
        assert!(tlb.is_empty());
    }

    #[test]
    fn invalidate_matching_removes_a_vb() {
        let mut tlb: Tlb<(u64, u64), u64> = Tlb::new(16, 4);
        for page in 0..4 {
            tlb.insert((7, page), page);
            tlb.insert((8, page), page);
        }
        let removed = tlb.invalidate_matching(|(vb, _)| *vb == 7);
        assert_eq!(removed, 4);
        assert!(tlb.peek(&(7, 0)).is_none());
        assert!(tlb.peek(&(8, 0)).is_some());
    }

    #[test]
    fn peek_does_not_perturb_stats_or_lru() {
        let mut tlb: Tlb<u64, u64> = Tlb::fully_associative(2);
        tlb.insert(1, 10);
        tlb.insert(2, 20);
        let _ = tlb.peek(&1);
        // 1 is still LRU (insert order), so it is the victim.
        let evicted = tlb.insert(3, 30);
        assert_eq!(evicted, Some((1, 10)));
        assert_eq!(tlb.stats().hits, 0);
    }

    #[test]
    fn miss_rate() {
        let mut tlb: Tlb<u64, u64> = Tlb::new(4, 4);
        assert_eq!(tlb.stats().miss_rate(), 0.0);
        tlb.lookup(&1);
        tlb.insert(1, 1);
        tlb.lookup(&1);
        assert!((tlb.stats().miss_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ways must divide capacity")]
    fn bad_geometry_panics() {
        let _: Tlb<u64, u64> = Tlb::new(10, 4);
    }
}
