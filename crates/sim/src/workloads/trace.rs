//! Trace records and the seeded trace generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use super::patterns::Pattern;

/// One simulated data structure (a VB under VBI; a contiguous virtual
/// region under the baselines).
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Region size in bytes.
    pub bytes: u64,
    /// Offset-generation pattern.
    pub(crate) pattern: Pattern,
    /// Fraction of accesses to this region that are writes.
    pub(crate) write_fraction: f64,
    /// Relative probability of an access landing in this region.
    pub(crate) weight: f64,
    /// Fraction of the region's pages written during the pre-measurement
    /// initialization phase. Fully initialized data (`1.0`) never benefits
    /// from delayed allocation's zero-line path; freshly allocated, sparsely
    /// constructed structures (mcf's network mid-build, chess transposition
    /// tables, GemsFDTD's per-timestep grids) are the cases where VBI-2's
    /// optimization fires, exactly as in the paper's traced regions.
    pub(crate) init_fraction: f64,
}

impl RegionSpec {
    /// Overrides the initialization fraction (constructor default is fully
    /// initialized).
    pub(crate) fn with_init(mut self, init_fraction: f64) -> Self {
        self.init_fraction = init_fraction;
        self
    }
}

/// One record of a memory trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Which region (index into the workload's region list).
    pub region: usize,
    /// Byte offset within the region.
    pub offset: u64,
    /// Whether this is a store.
    pub is_write: bool,
    /// Non-memory instructions executed since the previous access.
    pub(crate) gap: u32,
    /// Whether the access serially depends on the previous one (pointer
    /// chasing): the engine must not overlap its latency.
    pub(crate) dependent: bool,
}

/// A complete workload description: regions plus instruction-mix parameters.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Benchmark name as it appears in the paper's figures.
    pub(crate) name: &'static str,
    /// The data structures the program allocates.
    pub regions: Vec<RegionSpec>,
    /// Mean non-memory instructions between memory accesses.
    pub(crate) mean_gap: u32,
    /// Memory-level parallelism for independent accesses: how many misses
    /// the 128-entry ROB typically overlaps (1.0 = fully serialized).
    pub(crate) mlp: f64,
}

impl WorkloadSpec {
    /// Total footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.regions.iter().map(|r| r.bytes).sum()
    }

    /// Number of regions (== VBs the program requests under VBI).
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Creates the deterministic access-trace generator for this workload.
    pub fn trace(&self, seed: u64) -> TraceGenerator<'_> {
        TraceGenerator::new(self, seed)
    }
}

/// Deterministic, seeded generator of [`Access`] records.
///
/// # Examples
///
/// ```
/// use vbi_sim::workloads::spec::benchmark;
///
/// let spec = benchmark("mcf").expect("known benchmark");
/// let accesses: Vec<_> = spec.trace(1).take(100).collect();
/// assert_eq!(accesses.len(), 100);
/// // Traces are reproducible.
/// let again: Vec<_> = spec.trace(1).take(100).collect();
/// assert_eq!(accesses, again);
/// ```
#[derive(Debug)]
pub struct TraceGenerator<'a> {
    spec: &'a WorkloadSpec,
    rng: SmallRng,
    /// Last offset per region (for sequential/strided patterns).
    cursors: Vec<u64>,
    /// Cumulative region weights for sampling.
    cumulative: Vec<f64>,
}

impl<'a> TraceGenerator<'a> {
    /// Creates a generator with the given seed.
    pub(crate) fn new(spec: &'a WorkloadSpec, seed: u64) -> Self {
        let total: f64 = spec.regions.iter().map(|r| r.weight).sum();
        let mut acc = 0.0;
        let cumulative = spec
            .regions
            .iter()
            .map(|r| {
                acc += r.weight / total;
                acc
            })
            .collect();
        Self {
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0x5eed_0000),
            cursors: vec![0; spec.regions.len()],
            cumulative,
        }
    }
}

impl Iterator for TraceGenerator<'_> {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let pick: f64 = self.rng.gen();
        let region =
            self.cumulative.iter().position(|&c| pick <= c).unwrap_or(self.spec.regions.len() - 1);
        let r = &self.spec.regions[region];
        let offset =
            r.pattern.next_offset(&mut self.rng, r.bytes, self.cursors[region], region as u64);
        self.cursors[region] = offset;
        let is_write = self.rng.gen_bool(r.write_fraction);
        let mean = self.spec.mean_gap.max(1);
        let gap = self.rng.gen_range(1..=2 * mean);
        Some(Access { region, offset, is_write, gap, dependent: r.pattern.is_dependent() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "toy",
            regions: vec![
                RegionSpec {
                    bytes: 1 << 20,
                    pattern: Pattern::Sequential { stride: 64 },
                    write_fraction: 0.0,
                    weight: 3.0,
                    init_fraction: 1.0,
                },
                RegionSpec {
                    bytes: 1 << 16,
                    pattern: Pattern::RandomUniform,
                    write_fraction: 1.0,
                    weight: 1.0,
                    init_fraction: 1.0,
                },
            ],
            mean_gap: 4,
            mlp: 4.0,
        }
    }

    #[test]
    fn footprint_and_counts() {
        let s = spec();
        assert_eq!(s.footprint(), (1 << 20) + (1 << 16));
        assert_eq!(s.region_count(), 2);
    }

    #[test]
    fn weights_bias_region_selection() {
        let s = spec();
        let n = 10_000;
        let to_stream = s.trace(3).take(n).filter(|a| a.region == 0).count();
        let frac = to_stream as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "stream fraction {frac}");
    }

    #[test]
    fn write_fractions_apply_per_region() {
        let s = spec();
        for a in s.trace(4).take(1000) {
            match a.region {
                0 => assert!(!a.is_write),
                1 => assert!(a.is_write),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn offsets_respect_region_bounds() {
        let s = spec();
        for a in s.trace(5).take(5000) {
            assert!(a.offset < s.regions[a.region].bytes);
        }
    }

    #[test]
    fn gaps_are_positive_and_bounded() {
        let s = spec();
        for a in s.trace(6).take(1000) {
            assert!(a.gap >= 1 && a.gap <= 8);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec();
        let a: Vec<_> = s.trace(1).take(50).collect();
        let b: Vec<_> = s.trace(2).take(50).collect();
        assert_ne!(a, b);
    }
}
