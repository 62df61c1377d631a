//! Hotness tracking: the fine-grained runtime information the MTL sees.
//!
//! A core argument of the paper (§2, §7.3) is that the memory controller —
//! unlike the OS — observes every main-memory access and can therefore
//! track data hotness cheaply and react quickly. This module implements the
//! counters the MTL keeps: per-VB (region) access counts for VBI's
//! VB-granularity placement, and per-page counts used to build the IDEAL
//! oracle's profile.

use std::collections::HashMap;

/// Epoch-based access counters at VB and page granularity.
#[derive(Debug, Clone, Default)]
pub(crate) struct HotnessTracker {
    region_counts: HashMap<usize, u64>,
    page_counts: HashMap<(usize, u64), u64>,
    region_bytes: HashMap<usize, u64>,
    epoch_accesses: u64,
}

impl HotnessTracker {
    /// Creates an empty tracker.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers a region and its size (needed for density ranking).
    pub(crate) fn register_region(&mut self, region: usize, bytes: u64) {
        self.region_bytes.insert(region, bytes);
    }

    /// Records one main-memory access to `page` of `region`.
    pub(crate) fn record(&mut self, region: usize, page: u64) {
        *self.region_counts.entry(region).or_insert(0) += 1;
        *self.page_counts.entry((region, page)).or_insert(0) += 1;
        self.epoch_accesses += 1;
    }

    /// Accesses recorded this epoch.
    pub(crate) fn epoch_accesses(&self) -> u64 {
        self.epoch_accesses
    }

    /// Regions ranked by access *density* (accesses per byte, hottest
    /// first). Density, not raw count, is the right VB-granularity metric:
    /// a small, hot VB displaces less fast-memory capacity per access than
    /// a huge, lukewarm one.
    pub(crate) fn rank_regions_by_density(&self) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = self
            .region_counts
            .iter()
            .map(|(&region, &count)| {
                let bytes = self.region_bytes.get(&region).copied().unwrap_or(1).max(1);
                (region, count as f64 / bytes as f64)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("densities are finite"));
        ranked
    }

    /// Pages ranked by access count (hottest first) — the oracle's view.
    pub(crate) fn rank_pages(&self) -> Vec<((usize, u64), u64)> {
        let mut ranked: Vec<((usize, u64), u64)> =
            self.page_counts.iter().map(|(&k, &v)| (k, v)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked
    }

    /// Registered size of a region in bytes.
    pub(crate) fn region_bytes(&self, region: usize) -> u64 {
        self.region_bytes.get(&region).copied().unwrap_or(0)
    }

    /// Ends the epoch: clears counters but keeps region registrations.
    pub(crate) fn new_epoch(&mut self) {
        self.region_counts.clear();
        self.page_counts.clear();
        self.epoch_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut t = HotnessTracker::new();
        t.register_region(0, 4096);
        t.record(0, 0);
        t.record(0, 0);
        t.record(0, 1);
        assert_eq!(t.rank_regions_by_density(), vec![(0, 3.0 / 4096.0)]);
        assert_eq!(t.epoch_accesses(), 3);
    }

    #[test]
    fn density_ranking_prefers_small_hot_regions() {
        let mut t = HotnessTracker::new();
        t.register_region(0, 1 << 30); // huge, lukewarm
        t.register_region(1, 1 << 20); // small, hot
        for _ in 0..1000 {
            t.record(0, 0);
        }
        for _ in 0..500 {
            t.record(1, 0);
        }
        let ranked = t.rank_regions_by_density();
        assert_eq!(ranked[0].0, 1, "the small region has higher density");
    }

    #[test]
    fn page_ranking_is_by_count() {
        let mut t = HotnessTracker::new();
        t.register_region(0, 1 << 20);
        for _ in 0..10 {
            t.record(0, 5);
        }
        t.record(0, 9);
        let ranked = t.rank_pages();
        assert_eq!(ranked[0].0, (0, 5));
        assert_eq!(ranked[0].1, 10);
    }

    #[test]
    fn new_epoch_resets_counts_not_registrations() {
        let mut t = HotnessTracker::new();
        t.register_region(0, 4096);
        t.record(0, 0);
        t.new_epoch();
        assert!(t.rank_regions_by_density().is_empty());
        assert_eq!(t.region_bytes(0), 4096);
    }
}
