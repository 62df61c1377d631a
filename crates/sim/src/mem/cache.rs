//! A set-associative, write-back, write-allocate cache model.
//!
//! The cache is address-space agnostic: feed it VBI addresses and it behaves
//! as a virtually indexed, virtually tagged cache (legal under VBI because
//! VBI addresses are system-wide unique, §3.5); feed it physical addresses
//! and it behaves as the conventional PIPT cache of the baselines.

/// Cache line size in bytes (64 B throughout the paper's configuration).
pub(crate) const LINE_BYTES: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    lru: u64,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheAccess {
    /// Whether the line was present.
    pub(crate) hit: bool,
    /// Line address (not tag) of a dirty line evicted to make room, if any.
    pub(crate) writeback: Option<u64>,
}

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub(crate) struct Cache {
    sets: Vec<Vec<Line>>,
    ways: usize,
    set_bits: u32,
    tick: u64,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity and
    /// 64 B lines.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity_bytes / (64 * ways)` is a nonzero power of
    /// two.
    pub(crate) fn new(capacity_bytes: u64, ways: usize) -> Self {
        let lines = capacity_bytes / LINE_BYTES;
        let set_count = lines / ways as u64;
        assert!(
            set_count > 0 && set_count.is_power_of_two(),
            "cache geometry must give a power-of-two set count"
        );
        Self {
            sets: (0..set_count).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            set_bits: set_count.trailing_zeros(),
            tick: 0,
        }
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr / LINE_BYTES;
        let set = (line & ((1 << self.set_bits) - 1)) as usize;
        let tag = line >> self.set_bits;
        (set, tag)
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.set_bits) | set as u64) * LINE_BYTES
    }

    /// Accesses `addr`; on a miss the line is allocated (write-allocate) and
    /// the LRU victim evicted. `write` marks the line dirty.
    pub(crate) fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.tick += 1;
        let tick = self.tick;
        let (set_idx, tag) = self.split(addr);
        let ways = self.ways;
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            line.lru = tick;
            line.dirty |= write;
            return CacheAccess { hit: true, writeback: None };
        }

        if set.len() < ways {
            set.push(Line { tag, dirty: write, lru: tick });
            return CacheAccess { hit: false, writeback: None };
        }
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| i)
            .expect("full set has a victim");
        let victim =
            core::mem::replace(&mut set[victim_idx], Line { tag, dirty: write, lru: tick });
        let writeback = victim.dirty.then(|| self.line_addr(set_idx, victim.tag));
        CacheAccess { hit: false, writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn capacity_bytes(cache: &Cache) -> u64 {
        cache.sets.len() as u64 * cache.ways as u64 * LINE_BYTES
    }

    #[test]
    fn geometry_matches_table1() {
        assert_eq!(capacity_bytes(&Cache::new(32 << 10, 8)), 32 << 10);
        assert_eq!(capacity_bytes(&Cache::new(256 << 10, 8)), 256 << 10);
        assert_eq!(capacity_bytes(&Cache::new(8 << 20, 16)), 8 << 20);
    }

    #[test]
    fn hit_after_miss_same_line() {
        let mut c = Cache::new(4 << 10, 4);
        assert!(!c.access(100, false).hit);
        assert!(c.access(100, false).hit);
        assert!(c.access(127, false).hit, "same 64 B line");
        assert!(!c.access(128, false).hit, "next line");
    }

    #[test]
    fn dirty_eviction_reports_the_victim_address() {
        // 2 sets, 1 way: addresses 0 and 128 conflict (same set 0).
        let mut c = Cache::new(128, 1);
        c.access(0, true);
        let access = c.access(128, false);
        assert!(!access.hit);
        assert_eq!(access.writeback, Some(0));
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = Cache::new(128, 1);
        c.access(0, false);
        assert_eq!(c.access(128, false).writeback, None);
    }

    #[test]
    fn lru_within_a_set() {
        // 1 set, 2 ways: 0, 64, 128 all map to set 0.
        let mut c = Cache::new(128, 2);
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // 64 becomes LRU
        c.access(128, false); // evicts 64
        assert!(c.access(0, false).hit); // 128 becomes LRU
        assert!(c.access(128, false).hit);
        assert!(!c.access(64, false).hit);
    }

    #[test]
    fn write_hit_marks_dirty_for_later_eviction() {
        let mut c = Cache::new(128, 1);
        c.access(0, false);
        c.access(0, true); // hit, dirtied
        let access = c.access(128, false);
        assert_eq!(access.writeback, Some(0));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(192, 1); // three sets: not a power of two
    }
}
