//! Synthetic profiles for the paper's benchmarks (§7.1).
//!
//! The paper traces SimPoint regions of SPEC CPU 2006/2017, TailBench, and
//! Graph 500 with Pin. Those traces are not redistributable, so each
//! benchmark is modelled by a seeded synthetic generator reproducing its
//! first-order memory behaviour — footprint, number of allocated data
//! structures (= VBs), access patterns, write fraction, and memory-level
//! parallelism — which are what determine relative translation overhead.
//! The characterizations follow the workloads' well-documented behaviour
//! (e.g. mcf = pointer chasing over a GB-scale graph with an extreme TLB
//! miss rate; GemsFDTD = 195 allocations of 3D grids; lbm = streaming).
//!
//! Footprints are scaled to a 4 GiB simulated machine; the *ratios* between
//! footprint and TLB reach (2 MiB for the 4 KiB-page hierarchy of Table 1)
//! preserve each benchmark's TLB-pressure class.

use super::patterns::Pattern;
use super::trace::{RegionSpec, WorkloadSpec};

const MB: u64 = 1 << 20;

fn region(bytes: u64, pattern: Pattern, write_fraction: f64, weight: f64) -> RegionSpec {
    RegionSpec { bytes, pattern, write_fraction, weight, init_fraction: 1.0 }
}

/// A large logical structure allocated as `parts` separate chunks (as real
/// programs allocate per-bank/per-column arrays), with access weight decaying
/// geometrically by `skew` across chunks: `skew = 1.0` spreads accesses
/// evenly; smaller values concentrate them in the first chunks (a hot core).
fn banked(
    total_bytes: u64,
    parts: usize,
    pattern: Pattern,
    write_fraction: f64,
    total_weight: f64,
    skew: f64,
) -> Vec<RegionSpec> {
    let bytes = total_bytes / parts as u64;
    let raw: Vec<f64> = (0..parts).map(|i| skew.powi(i as i32)).collect();
    let norm: f64 = raw.iter().sum();
    raw.into_iter()
        .map(|w| region(bytes, pattern, write_fraction, total_weight * w / norm))
        .collect()
}

/// The benchmarks of Figure 6 (address translation, 4 KiB pages).
pub const FIG6_BENCHMARKS: [&str; 14] = [
    "astar",
    "bzip2",
    "GemsFDTD",
    "mcf",
    "milc",
    "namd",
    "sjeng",
    "bwaves-17",
    "deepsjeng-17",
    "lbm-17",
    "omnetpp-17",
    "img-dnn",
    "moses",
    "Graph 500",
];

/// The subset shown in Figure 7 (large pages); averages still use all of
/// [`FIG6_BENCHMARKS`].
pub const FIG7_BENCHMARKS: [&str; 8] =
    ["bzip2", "GemsFDTD", "mcf", "milc", "deepsjeng-17", "lbm-17", "img-dnn", "Graph 500"];

/// The benchmarks of Figures 9 and 10 (heterogeneous memory).
pub const HETERO_BENCHMARKS: [&str; 15] = [
    "astar",
    "bzip2",
    "GemsFDTD",
    "hmmer",
    "mcf",
    "milc",
    "soplex",
    "sphinx3",
    "bwaves-17",
    "lbm-17",
    "omnetpp-17",
    "xalancbmk-17",
    "img-dnn",
    "moses",
    "Graph 500",
];

/// Looks up a benchmark of Figures 9 and 10: as [`benchmark`], but with no
/// initialization phase, so every region starts unwritten.
pub fn hetero_benchmark(name: &str) -> Option<WorkloadSpec> {
    let mut spec = benchmark(name)?;
    for region in &mut spec.regions {
        region.init_fraction = 0.0;
    }
    Some(spec)
}

/// Looks up a benchmark profile by its figure label.
pub fn benchmark(name: &str) -> Option<WorkloadSpec> {
    let spec = match name {
        // SPEC CPU 2006 ------------------------------------------------------
        // astar: path-finding over pointer-linked graph regions; medium
        // footprint, poor locality.
        "astar" => WorkloadSpec {
            name: "astar",
            regions: vec![
                region(64 * MB, Pattern::PointerChase, 0.05, 3.5), // graph-core
                region(96 * MB, Pattern::PointerChase, 0.05, 1.5), // graph-rest
                region(
                    // open-list
                    24 * MB,
                    Pattern::HotCold { hot_fraction: 0.2, hot_probability: 0.8 },
                    0.45,
                    3.0,
                )
                .with_init(0.2),
                region(48 * MB, Pattern::RandomUniform, 0.10, 2.0).with_init(0.3), // way-map
            ],
            mean_gap: 4,
            mlp: 2.0,
        },
        // bzip2: block-sorting compression; hot working arrays with decent
        // locality plus a medium block buffer.
        "bzip2" => WorkloadSpec {
            name: "bzip2",
            regions: vec![
                region(
                    // block
                    96 * MB,
                    Pattern::HotCold { hot_fraction: 0.3, hot_probability: 0.85 },
                    0.35,
                    4.0,
                ),
                region(96 * MB, Pattern::RandomUniform, 0.40, 3.0), // sort-arrays
                region(16 * MB, Pattern::Sequential { stride: 64 }, 0.9, 1.0), // output
            ],
            mean_gap: 5,
            mlp: 3.0,
        },
        // GemsFDTD: finite-difference time domain over 3D grids; the paper
        // singles it out for allocating 195 VBs across timesteps.
        "GemsFDTD" => WorkloadSpec {
            name: "GemsFDTD",
            regions: (0..195)
                .map(|i| {
                    region(
                        // grid
                        4 * MB,
                        Pattern::Strided { stride: 4096 + 64 * ((i % 7) as u64) },
                        0.30,
                        if i % 13 == 0 { 3.0 } else { 1.0 },
                    )
                    // Grids are allocated fresh each timestep (§4.3): only a
                    // quarter of each is written before the traced region.
                    .with_init(0.25)
                })
                .collect(),
            mean_gap: 3,
            mlp: 4.0,
        },
        // mcf: single-depot vehicle scheduling; pointer chasing over a huge
        // network — the extreme TLB-miss outlier of Figure 6.
        "mcf" => WorkloadSpec {
            name: "mcf",
            regions: {
                // The network's hot nodes are one line per page across tens
                // of thousands of pages: LLC-resident, TLB-hopeless.
                let mut r = banked(
                    // network
                    768 * MB,
                    8,
                    Pattern::SparseHot { hot_pages: 3072, hot_probability: 0.9 },
                    0.12,
                    8.0,
                    0.55,
                )
                .into_iter()
                .map(|x| x.with_init(0.15))
                .collect::<Vec<_>>();
                r.extend(
                    banked(192 * MB, 4, Pattern::RandomUniform, 0.25, 1.5, 0.6) // arcs
                        .into_iter()
                        .map(|x| x.with_init(0.5)),
                );
                r
            },
            mean_gap: 2,
            mlp: 1.3,
        },
        // milc: lattice QCD; large strided sweeps over field arrays.
        "milc" => WorkloadSpec {
            name: "milc",
            regions: vec![
                region(64 * MB, Pattern::Strided { stride: 6 * 1024 }, 0.35, 2.0), // lattice-a0
                region(64 * MB, Pattern::Strided { stride: 6 * 1024 }, 0.35, 1.3), // lattice-a1
                region(64 * MB, Pattern::Strided { stride: 6 * 1024 }, 0.35, 0.7), // lattice-a2
                region(64 * MB, Pattern::Strided { stride: 10 * 1024 }, 0.35, 2.0), // lattice-b0
                region(64 * MB, Pattern::Strided { stride: 10 * 1024 }, 0.35, 1.3), // lattice-b1
                region(64 * MB, Pattern::Strided { stride: 10 * 1024 }, 0.35, 0.7), // lattice-b2
                region(64 * MB, Pattern::Sequential { stride: 64 }, 0.2, 1.0),     // gauge
            ],
            mean_gap: 3,
            mlp: 4.0,
        },
        // namd: molecular dynamics; small hot working set, cache friendly.
        "namd" => WorkloadSpec {
            name: "namd",
            regions: vec![
                region(
                    // atoms
                    24 * MB,
                    Pattern::HotCold { hot_fraction: 0.1, hot_probability: 0.95 },
                    0.30,
                    5.0,
                ),
                region(16 * MB, Pattern::Sequential { stride: 64 }, 0.10, 2.0), // pairlists
            ],
            mean_gap: 7,
            mlp: 4.0,
        },
        // sjeng: chess search; small tables, mostly cache resident.
        "sjeng" => WorkloadSpec {
            name: "sjeng",
            regions: vec![
                region(
                    // hash-table
                    40 * MB,
                    Pattern::HotCold { hot_fraction: 0.05, hot_probability: 0.9 },
                    0.40,
                    4.0,
                )
                .with_init(0.1),
                region(
                    // board-stack
                    2 * MB,
                    Pattern::HotCold { hot_fraction: 0.5, hot_probability: 0.95 },
                    0.50,
                    3.0,
                ),
            ],
            mean_gap: 8,
            mlp: 2.5,
        },
        // SPEC CPU 2017 ------------------------------------------------------
        // bwaves-17: blast-wave CFD; big streaming arrays.
        "bwaves-17" => WorkloadSpec {
            name: "bwaves-17",
            regions: vec![
                region(64 * MB, Pattern::Sequential { stride: 64 }, 0.4, 1.0), // field-a0
                region(64 * MB, Pattern::Sequential { stride: 64 }, 0.4, 1.0), // field-a1
                region(64 * MB, Pattern::Sequential { stride: 64 }, 0.4, 1.0), // field-a2
                region(64 * MB, Pattern::Sequential { stride: 64 }, 0.4, 1.0), // field-a3
                region(64 * MB, Pattern::Strided { stride: 8 * 1024 }, 0.3, 1.2), // field-b0
                region(64 * MB, Pattern::Strided { stride: 8 * 1024 }, 0.3, 0.8), // field-b1
                region(64 * MB, Pattern::Strided { stride: 8 * 1024 }, 0.3, 0.6), // field-b2
                region(64 * MB, Pattern::Strided { stride: 8 * 1024 }, 0.3, 0.4), // field-b3
                region(
                    // coeffs
                    32 * MB,
                    Pattern::HotCold { hot_fraction: 0.2, hot_probability: 0.8 },
                    0.1,
                    1.0,
                ),
            ],
            mean_gap: 3,
            mlp: 6.0,
        },
        // deepsjeng-17: deeper chess search with a large transposition table.
        "deepsjeng-17" => WorkloadSpec {
            name: "deepsjeng-17",
            regions: vec![
                region(80 * MB, Pattern::RandomUniform, 0.35, 2.4).with_init(0.15), // tt0
                region(80 * MB, Pattern::RandomUniform, 0.35, 1.6).with_init(0.15), // tt1
                region(80 * MB, Pattern::RandomUniform, 0.35, 1.2).with_init(0.15), // tt2
                region(80 * MB, Pattern::RandomUniform, 0.35, 0.8).with_init(0.15), // tt3
                region(
                    // stacks
                    4 * MB,
                    Pattern::HotCold { hot_fraction: 0.5, hot_probability: 0.95 },
                    0.50,
                    2.0,
                ),
            ],
            mean_gap: 5,
            mlp: 2.0,
        },
        // lbm-17: lattice-Boltzmann; pure streaming with heavy writes.
        "lbm-17" => WorkloadSpec {
            name: "lbm-17",
            regions: vec![
                region(110 * MB, Pattern::Sequential { stride: 64 }, 0.05, 2.0), // grid-src0
                region(110 * MB, Pattern::Sequential { stride: 64 }, 0.05, 2.0), // grid-src1
                region(110 * MB, Pattern::Sequential { stride: 64 }, 0.95, 2.0), // grid-dst0
                region(110 * MB, Pattern::Sequential { stride: 64 }, 0.95, 2.0), // grid-dst1
            ],
            mean_gap: 2,
            mlp: 8.0,
        },
        // omnetpp-17: discrete event simulation; pointer-heavy event heap.
        "omnetpp-17" => WorkloadSpec {
            name: "omnetpp-17",
            regions: vec![
                region(32 * MB, Pattern::PointerChase, 0.30, 3.5).with_init(0.4), // event-heap-hot
                region(96 * MB, Pattern::PointerChase, 0.30, 1.5).with_init(0.4), // event-heap-cold
                region(64 * MB, Pattern::RandomUniform, 0.20, 3.0),               // modules
                region(
                    // queues
                    16 * MB,
                    Pattern::HotCold { hot_fraction: 0.3, hot_probability: 0.85 },
                    0.50,
                    2.0,
                ),
            ],
            mean_gap: 4,
            mlp: 1.8,
        },
        // xalancbmk-17: XSLT processing; DOM pointer chasing.
        "xalancbmk-17" => WorkloadSpec {
            name: "xalancbmk-17",
            regions: vec![
                region(32 * MB, Pattern::PointerChase, 0.15, 3.5), // dom-hot
                region(160 * MB, Pattern::PointerChase, 0.15, 1.5), // dom-cold
                region(48 * MB, Pattern::RandomUniform, 0.25, 2.0), // strings
                region(
                    // stylesheet
                    8 * MB,
                    Pattern::HotCold { hot_fraction: 0.2, hot_probability: 0.9 },
                    0.05,
                    2.0,
                ),
            ],
            mean_gap: 4,
            mlp: 2.0,
        },
        // SPEC CPU 2006 (heterogeneous-memory set additions) -----------------
        // hmmer: profile HMM search; small hot matrices, compute bound.
        "hmmer" => WorkloadSpec {
            name: "hmmer",
            regions: vec![
                region(
                    // dp-matrix
                    12 * MB,
                    Pattern::HotCold { hot_fraction: 0.25, hot_probability: 0.95 },
                    0.55,
                    5.0,
                ),
                region(24 * MB, Pattern::Sequential { stride: 64 }, 0.02, 2.0), // sequences
            ],
            mean_gap: 8,
            mlp: 3.0,
        },
        // soplex: LP simplex; sparse matrix with mixed stride/random rows.
        "soplex" => WorkloadSpec {
            name: "soplex",
            regions: vec![
                region(48 * MB, Pattern::Strided { stride: 12 * 1024 }, 0.20, 2.8), // matrix-hot
                region(112 * MB, Pattern::Strided { stride: 12 * 1024 }, 0.20, 1.2), // matrix-cold
                region(64 * MB, Pattern::RandomUniform, 0.15, 3.0),                 // row-index
                region(
                    // basis
                    16 * MB,
                    Pattern::HotCold { hot_fraction: 0.3, hot_probability: 0.9 },
                    0.60,
                    2.0,
                ),
            ],
            mean_gap: 4,
            mlp: 2.5,
        },
        // sphinx3: speech recognition; read-mostly acoustic models with a
        // hot active list.
        "sphinx3" => WorkloadSpec {
            name: "sphinx3",
            regions: vec![
                region(
                    // acoustic-hot
                    24 * MB,
                    Pattern::HotCold { hot_fraction: 0.6, hot_probability: 0.9 },
                    0.02,
                    3.5,
                ),
                region(360 * MB, Pattern::RandomUniform, 0.02, 1.5), // acoustic-cold
                region(
                    // active-list
                    8 * MB,
                    Pattern::HotCold { hot_fraction: 0.4, hot_probability: 0.9 },
                    0.55,
                    3.0,
                ),
            ],
            mean_gap: 5,
            mlp: 3.0,
        },
        // TailBench -----------------------------------------------------------
        // img-dnn: handwriting recognition; dense layer weights streamed,
        // activations hot.
        "img-dnn" => WorkloadSpec {
            name: "img-dnn",
            regions: vec![
                region(64 * MB, Pattern::Sequential { stride: 64 }, 0.02, 2.2), // weights0
                region(64 * MB, Pattern::Sequential { stride: 64 }, 0.02, 1.6), // weights1
                region(64 * MB, Pattern::Sequential { stride: 64 }, 0.02, 1.2), // weights2
                region(
                    // activations
                    16 * MB,
                    Pattern::HotCold { hot_fraction: 0.5, hot_probability: 0.9 },
                    0.60,
                    3.0,
                ),
                region(32 * MB, Pattern::RandomUniform, 0.30, 1.0).with_init(0.2), // requests
            ],
            mean_gap: 3,
            mlp: 5.0,
        },
        // moses: statistical machine translation; phrase-table pointer
        // chasing over a large model.
        "moses" => WorkloadSpec {
            name: "moses",
            regions: vec![
                region(64 * MB, Pattern::PointerChase, 0.05, 4.0).with_init(0.9), // phrase-hot
                region(192 * MB, Pattern::PointerChase, 0.05, 2.0).with_init(0.9), // phrase-cold
                region(48 * MB, Pattern::RandomUniform, 0.05, 2.0),               // lm-hot
                region(80 * MB, Pattern::RandomUniform, 0.05, 1.0),               // lm-cold
                region(
                    // hypotheses
                    16 * MB,
                    Pattern::HotCold { hot_fraction: 0.3, hot_probability: 0.85 },
                    0.60,
                    2.0,
                )
                .with_init(0.1),
            ],
            mean_gap: 4,
            mlp: 1.8,
        },
        // Graph 500 ------------------------------------------------------------
        // BFS over a scale-free graph: random neighbour lookups across a
        // huge edge list; very TLB hostile.
        "Graph 500" => WorkloadSpec {
            name: "Graph 500",
            regions: vec![
                region(96 * MB, Pattern::RandomUniform, 0.02, 3.6).with_init(0.9), // edges-core
                region(416 * MB, Pattern::RandomUniform, 0.02, 2.4).with_init(0.9), // edges-rest
                region(
                    // vertices
                    96 * MB,
                    Pattern::HotCold { hot_fraction: 0.1, hot_probability: 0.6 },
                    0.40,
                    3.0,
                )
                .with_init(0.3),
                region(16 * MB, Pattern::Sequential { stride: 64 }, 0.70, 2.0) // frontier
                    .with_init(0.1),
            ],
            mean_gap: 2,
            mlp: 3.5,
        },
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every benchmark modelled.
    fn all_benchmarks() -> Vec<&'static str> {
        let mut names: Vec<&str> = FIG6_BENCHMARKS.into_iter().chain(HETERO_BENCHMARKS).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    #[test]
    fn every_figure_benchmark_resolves() {
        for name in all_benchmarks() {
            let spec = benchmark(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(spec.name, name);
            assert!(spec.footprint() > 0);
            assert!(spec.mlp >= 1.0);
        }
    }

    #[test]
    fn gemsfdtd_allocates_195_vbs() {
        // §4.3: GemsFDTD allocates 195 VBs; everything else fewer than 48.
        assert_eq!(benchmark("GemsFDTD").unwrap().region_count(), 195);
        for name in all_benchmarks() {
            if name != "GemsFDTD" {
                assert!(benchmark(name).unwrap().region_count() < 48, "{name}");
            }
        }
    }

    #[test]
    fn mcf_is_the_tlb_pressure_outlier() {
        let mcf = benchmark("mcf").unwrap();
        assert!(mcf.footprint() > 512 * MB);
        assert!(mcf.regions[0].pattern.is_dependent());
        assert!(mcf.mlp < 2.0);
    }

    #[test]
    fn small_benchmarks_fit_more_comfortably() {
        for small in ["namd", "sjeng", "hmmer"] {
            assert!(
                benchmark(small).unwrap().footprint() < 64 * MB,
                "{small} should be cache-friendlier"
            );
        }
    }

    #[test]
    fn footprints_fit_simulated_memory() {
        for name in all_benchmarks() {
            assert!(
                benchmark(name).unwrap().footprint() < 2 << 30,
                "{name} must fit a 4 GiB machine with room to spare"
            );
        }
    }

    #[test]
    fn unknown_names_return_none() {
        assert!(benchmark("quake").is_none());
    }
}
