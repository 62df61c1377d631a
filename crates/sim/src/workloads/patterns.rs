//! Access-pattern generators.
//!
//! Each simulated data structure (one VB under VBI, one virtual region under
//! the baselines) is driven by one of these patterns. The patterns are the
//! first-order determinants of translation overhead: spatial locality sets
//! the TLB and row-buffer hit rates, and footprint sets TLB reach pressure.

use rand::rngs::SmallRng;
use rand::Rng;

/// How offsets within a region are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Pattern {
    /// Sequential streaming with the given stride in bytes (high spatial
    /// locality: row-buffer and TLB friendly).
    Sequential {
        /// Stride between consecutive accesses, in bytes.
        stride: u64,
    },
    /// Fixed large stride (touches many pages quickly; TLB hostile when the
    /// stride exceeds a page).
    Strided {
        /// Stride between consecutive accesses, in bytes.
        stride: u64,
    },
    /// Uniformly random offsets over the whole region (worst-case locality).
    RandomUniform,
    /// Hot/cold skew: a `hot_fraction` of the region receives
    /// `hot_probability` of the accesses — the working-set structure that
    /// hotness-aware placement (§7.3) exploits.
    HotCold {
        /// Fraction of the region that is hot, in `(0, 1]`.
        hot_fraction: f64,
        /// Probability that an access goes to the hot fraction.
        hot_probability: f64,
    },
    /// Dependent pointer chasing: uniformly random like `RandomUniform`, but
    /// semantically serialized (the engine applies no memory-level
    /// parallelism to these accesses).
    PointerChase,
    /// A *sparse* hot set: one cache line per page across `hot_pages` pages
    /// receives `hot_probability` of the accesses; the rest are uniform over
    /// the region. This is the mcf signature — a working set small enough to
    /// live in the LLC yet spread over so many pages that TLB reach is
    /// hopeless — and it is what makes translation overhead dominate
    /// conventional systems. Accesses are serially dependent (pointer
    /// chasing).
    SparseHot {
        /// Number of pages carrying one hot line each.
        hot_pages: u64,
        /// Probability that an access goes to the sparse hot set.
        hot_probability: f64,
    },
}

impl Pattern {
    /// Whether consecutive accesses are serially dependent.
    pub(crate) fn is_dependent(&self) -> bool {
        matches!(self, Pattern::PointerChase | Pattern::SparseHot { .. })
    }

    /// Generates the next offset within a region of `bytes` bytes, given
    /// the previous offset. `salt` identifies the region so that identical
    /// patterns in sibling regions produce decorrelated layouts (real data
    /// structures do not alias line-for-line).
    pub(crate) fn next_offset(
        &self,
        rng: &mut SmallRng,
        bytes: u64,
        previous: u64,
        salt: u64,
    ) -> u64 {
        debug_assert!(bytes > 0);
        match *self {
            Pattern::Sequential { stride } | Pattern::Strided { stride } => {
                (previous + stride) % bytes
            }
            Pattern::RandomUniform | Pattern::PointerChase => rng.gen_range(0..bytes) & !7,
            Pattern::SparseHot { hot_pages, hot_probability } => {
                let pages_in_region = (bytes >> 12).max(1);
                let hot_pages = hot_pages.min(pages_in_region);
                if rng.gen_bool(hot_probability) {
                    // Each hot index k maps to a stable, pseudo-random page
                    // and line: hot nodes are scattered through the
                    // structure with no alignment that a set index could
                    // resonate with, and the salt decorrelates sibling
                    // regions.
                    let k = rng.gen_range(0..hot_pages);
                    let h = (k + 1)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(salt.wrapping_mul(0xd1b5_4a32_d192_ed03));
                    let page = h % pages_in_region;
                    let line = (h >> 32) % 64 * 64;
                    page * 4096 + line
                } else {
                    rng.gen_range(0..bytes) & !7
                }
            }
            Pattern::HotCold { hot_fraction, hot_probability } => {
                let hot_bytes = ((bytes as f64 * hot_fraction) as u64).max(8);
                if rng.gen_bool(hot_probability) {
                    rng.gen_range(0..hot_bytes) & !7
                } else if hot_bytes < bytes {
                    (hot_bytes + rng.gen_range(0..(bytes - hot_bytes))) & !7
                } else {
                    rng.gen_range(0..bytes) & !7
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn sequential_wraps_at_region_end() {
        let p = Pattern::Sequential { stride: 64 };
        let mut r = rng();
        assert_eq!(p.next_offset(&mut r, 256, 0, 0), 64);
        assert_eq!(p.next_offset(&mut r, 256, 192, 0), 0);
    }

    #[test]
    fn random_offsets_stay_in_bounds_and_aligned() {
        let p = Pattern::RandomUniform;
        let mut r = rng();
        for _ in 0..1000 {
            let o = p.next_offset(&mut r, 4096, 0, 0);
            assert!(o < 4096);
            assert_eq!(o % 8, 0);
        }
    }

    #[test]
    fn hot_cold_skews_toward_the_hot_fraction() {
        let p = Pattern::HotCold { hot_fraction: 0.1, hot_probability: 0.9 };
        let mut r = rng();
        let bytes = 1 << 20;
        let hot_limit = bytes / 10;
        let hits = (0..10_000).filter(|_| p.next_offset(&mut r, bytes, 0, 0) < hot_limit).count();
        assert!(hits > 8_500, "{hits} of 10000 in the hot region");
    }

    #[test]
    fn determinism_per_seed() {
        let p = Pattern::RandomUniform;
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(p.next_offset(&mut a, 1 << 20, 0, 0), p.next_offset(&mut b, 1 << 20, 0, 0));
        }
    }

    #[test]
    fn only_pointer_chase_is_dependent() {
        assert!(Pattern::PointerChase.is_dependent());
        assert!(!Pattern::RandomUniform.is_dependent());
        assert!(!Pattern::Sequential { stride: 64 }.is_dependent());
    }
}
