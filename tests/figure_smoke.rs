//! Smoke tests of the figure harness paths at miniature scale: every
//! experiment binary's code path runs end to end and produces sane tables.

use vbi::hetero::memory::{HeteroKind, Policy};
use vbi::sim::engine::{run, EngineConfig};
use vbi::sim::multicore::{run_alone_native, run_bundle};
use vbi::sim::report::SpeedupTable;
use vbi::sim::systems::SystemKind;
use vbi::workloads::bundles::{bundle, bundle_names};
use vbi::workloads::spec::{benchmark, hetero_benchmark, FIG6_BENCHMARKS, HETERO_BENCHMARKS};

fn tiny() -> EngineConfig {
    EngineConfig { accesses: 2_000, warmup: 200, seed: 2020, phys_frames: 1 << 19 }
}

#[test]
fn figure6_path_produces_a_full_table() {
    let systems = vec![SystemKind::Virtual, SystemKind::Vbi2, SystemKind::PerfectTlb];
    let mut results = Vec::new();
    for name in FIG6_BENCHMARKS.into_iter().take(3) {
        let spec = benchmark(name).unwrap();
        results.push(run(SystemKind::Native, &spec, &tiny()));
        for &s in &systems {
            results.push(run(s, &spec, &tiny()));
        }
    }
    let table = SpeedupTable::from_runs(SystemKind::Native, systems, &results);
    assert_eq!(table.rows.len(), 3);
    let rendered = table.render_with_exclusion("Figure 6 smoke", "mcf");
    assert!(rendered.contains("AVG"));
    for (_, speedups) in &table.rows {
        for s in speedups {
            assert!(s.is_finite() && *s > 0.0);
        }
    }
}

#[test]
fn figure7_systems_all_run() {
    let spec = benchmark("GemsFDTD").unwrap();
    for kind in [SystemKind::Native2M, SystemKind::Virtual2M, SystemKind::EnigmaHw2M] {
        let r = run(kind, &spec, &tiny());
        assert!(r.cycles > 0 && r.ipc() > 0.0, "{}", kind.label());
    }
}

#[test]
fn figure8_bundles_resolve_and_run() {
    assert_eq!(bundle_names().len(), 6);
    let apps = bundle("wl6").unwrap();
    let alone = run_alone_native(&apps, &tiny());
    let shared = run_bundle("wl6", SystemKind::VbiFull, &apps, &tiny());
    let ws = shared.weighted_speedup(&alone);
    assert!(ws.is_finite() && ws > 0.0);
    assert_eq!(shared.apps.len(), 4);
}

#[test]
fn figure9_and_10_policies_all_run() {
    let spec = hetero_benchmark(HETERO_BENCHMARKS[0]).unwrap();
    for kind in [HeteroKind::PcmDram, HeteroKind::TlDram] {
        for policy in [Policy::Unaware, Policy::VbiHotness, Policy::Ideal] {
            let r = run(SystemKind::Hetero(kind, policy), &spec, &tiny());
            assert!(r.cycles > 0, "{kind:?} {policy:?}");
            assert!((0.0..=1.0).contains(&r.hetero.unwrap().fast_fraction()));
        }
    }
}

#[test]
fn figure9_and_10_cells_are_pinned() {
    // Both memories under all three policies on three of the hetero
    // benchmarks, each cell's counts pinned in `HETERO_PINS`. The warm-up is
    // long enough for milc to evict dirty lines from the LLC before the
    // measured accesses start.
    let cfg = EngineConfig { accesses: 4_000, warmup: 20_000, seed: 2020, phys_frames: 1 << 19 };
    for (name, kind, policy, pin) in HETERO_PINS {
        let spec = hetero_benchmark(name).unwrap();
        let r = run(SystemKind::Hetero(kind, policy), &spec, &cfg);
        let stats = r.hetero.unwrap();
        let got = [r.cycles, r.instructions, stats.fast_accesses, stats.slow_accesses];
        assert_eq!(got, pin, "{name} on {kind:?} under {policy:?}");
    }
}

#[test]
fn every_benchmark_runs_on_every_system_briefly() {
    // Every system and every benchmark at miniature scale: no panics, no
    // degenerate results. Two covering sweeps, not the 14 x 10 product: a
    // cell's cost is the init phase's one store per initialised page, not
    // the 400 accesses, so in the test profile (`opt-level = 1`) the product
    // is ~14 s of big-footprint set-up on one thread and the two sweeps
    // ~3 s (2-CPU x86-64 host). Every system runs the three small
    // footprints; every benchmark runs on one VBI and one conventional
    // system. The whole product runs in release in CI's `figures` job, at
    // `VBI_SIM_ACCESSES=20000` (`run_all`: fig6 is the 14 benchmarks x 7
    // systems, fig7 the same 14 x 5, of which it prints 8). The VBI column
    // is three quarters of the sweeps, so it gets a thread of its own.
    // Every cell's counts are pinned in `PINS`.
    let cfg = EngineConfig { accesses: 400, warmup: 50, seed: 7, phys_frames: 1 << 19 };
    let check = |name: &str, kind: SystemKind| {
        let r = run(kind, &benchmark(name).unwrap(), &cfg);
        let c = r.counters;
        let got = [
            r.cycles,
            c.tlb_misses,
            c.llc_misses,
            c.dram_accesses,
            c.translation_accesses,
            c.zero_lines,
        ];
        let pin = PINS.iter().find(|(n, s, _)| *n == name && *s == kind.label());
        assert_eq!(Some(got), pin.map(|p| p.2), "{name} on {}", kind.label());
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for name in FIG6_BENCHMARKS {
                check(name, SystemKind::VbiFull);
            }
        });
        for name in FIG6_BENCHMARKS {
            check(name, SystemKind::Native2M);
        }
        for name in ["sjeng", "namd", "deepsjeng-17"] {
            for kind in SystemKind::ALL {
                check(name, kind);
            }
        }
    });
}

#[test]
fn determinism_across_systems_shares_the_trace() {
    // The same seed must produce identical instruction counts on every
    // system (the trace is system-independent).
    let spec = benchmark("bzip2").unwrap();
    let a = run(SystemKind::Native, &spec, &tiny());
    let b = run(SystemKind::VbiFull, &spec, &tiny());
    assert_eq!(a.instructions, b.instructions);
}

/// The sweep's 52 distinct cells (58 runs; the three small benchmarks also
/// run on `VBI-Full` and `Native-2M` in the covering sweeps), each as
/// `(benchmark, system, [cycles, tlb_misses, llc_misses, dram_accesses,
/// translation_accesses, zero_lines])`. These are the figures' own counters
/// at a miniature length: a change that moves one moves a figure, so it
/// regenerates this table and says why.
#[rustfmt::skip]
const PINS: [(&str, &str, [u64; 6]); 52] = [
    ("astar", "VBI-Full", [33760, 0, 400, 268, 0, 137]),
    ("bzip2", "VBI-Full", [17106, 0, 400, 404, 0, 0]),
    ("GemsFDTD", "VBI-Full", [5882, 0, 400, 56, 310, 355]),
    ("mcf", "VBI-Full", [22774, 0, 394, 87, 0, 313]),
    ("milc", "VBI-Full", [12750, 0, 400, 579, 0, 0]),
    ("namd", "VBI-Full", [12235, 0, 398, 406, 0, 0]),
    ("sjeng", "VBI-Full", [8267, 0, 393, 23, 0, 370]),
    ("bwaves-17", "VBI-Full", [8062, 0, 400, 562, 0, 0]),
    ("deepsjeng-17", "VBI-Full", [14600, 0, 400, 132, 0, 271]),
    ("lbm-17", "VBI-Full", [4157, 0, 400, 404, 0, 0]),
    ("omnetpp-17", "VBI-Full", [29028, 0, 400, 275, 0, 130]),
    ("img-dnn", "VBI-Full", [7953, 0, 399, 363, 0, 42]),
    ("moses", "VBI-Full", [38445, 0, 400, 302, 273, 100]),
    ("Graph 500", "VBI-Full", [13843, 0, 400, 291, 315, 114]),
    ("astar", "Native-2M", [40881, 223, 400, 405, 0, 0]),
    ("bzip2", "Native-2M", [17418, 151, 400, 404, 0, 0]),
    ("GemsFDTD", "Native-2M", [13618, 319, 400, 410, 27, 0]),
    ("mcf", "Native-2M", [50836, 350, 394, 400, 61, 0]),
    ("milc", "Native-2M", [12712, 0, 400, 579, 0, 0]),
    ("namd", "Native-2M", [12348, 0, 398, 406, 0, 0]),
    ("sjeng", "Native-2M", [20887, 0, 393, 393, 0, 0]),
    ("bwaves-17", "Native-2M", [8005, 1, 400, 562, 0, 0]),
    ("deepsjeng-17", "Native-2M", [27024, 234, 400, 403, 2, 0]),
    ("lbm-17", "Native-2M", [4801, 0, 400, 404, 0, 0]),
    ("omnetpp-17", "Native-2M", [41131, 186, 400, 405, 0, 0]),
    ("img-dnn", "Native-2M", [8777, 0, 399, 405, 0, 0]),
    ("moses", "Native-2M", [43122, 245, 400, 402, 3, 0]),
    ("Graph 500", "Native-2M", [14864, 258, 400, 405, 26, 0]),
    ("sjeng", "Native", [21040, 368, 393, 393, 242, 0]),
    ("sjeng", "Virtual", [23732, 368, 393, 393, 1210, 0]),
    ("sjeng", "Virtual-2M", [20847, 0, 393, 393, 0, 0]),
    ("sjeng", "Perfect TLB", [19427, 0, 393, 393, 0, 0]),
    ("sjeng", "VIVT", [19934, 361, 393, 393, 267, 0]),
    ("sjeng", "Enigma-HW-2M", [20887, 0, 393, 393, 0, 0]),
    ("sjeng", "VBI-1", [19854, 0, 393, 393, 430, 0]),
    ("sjeng", "VBI-2", [9003, 0, 393, 23, 593, 370]),
    ("namd", "Native", [12770, 264, 398, 406, 226, 0]),
    ("namd", "Virtual", [14050, 264, 398, 406, 1130, 0]),
    ("namd", "Virtual-2M", [12260, 0, 398, 406, 0, 0]),
    ("namd", "Perfect TLB", [12323, 0, 398, 406, 0, 0]),
    ("namd", "VIVT", [12334, 272, 398, 406, 234, 0]),
    ("namd", "Enigma-HW-2M", [12348, 0, 398, 406, 0, 0]),
    ("namd", "VBI-1", [12235, 0, 398, 406, 466, 0]),
    ("namd", "VBI-2", [12323, 0, 398, 406, 465, 0]),
    ("deepsjeng-17", "Native", [29582, 400, 400, 403, 621, 0]),
    ("deepsjeng-17", "Virtual", [37244, 400, 400, 403, 2170, 0]),
    ("deepsjeng-17", "Virtual-2M", [27135, 234, 400, 403, 8, 0]),
    ("deepsjeng-17", "Perfect TLB", [22992, 0, 400, 403, 0, 0]),
    ("deepsjeng-17", "VIVT", [25075, 403, 400, 403, 609, 0]),
    ("deepsjeng-17", "Enigma-HW-2M", [26142, 0, 400, 403, 0, 0]),
    ("deepsjeng-17", "VBI-1", [32132, 0, 400, 403, 674, 0]),
    ("deepsjeng-17", "VBI-2", [23365, 0, 400, 132, 639, 271]),
];

/// Figures 9-10's cells at a miniature length, each as `(benchmark, memory,
/// policy, [cycles, instructions, fast_accesses, slow_accesses])`: the
/// figure's own cycle count and the memory's placement counts over the whole
/// run, warm-up included. A change that moves one moves a figure, so it
/// regenerates this table and says why.
#[rustfmt::skip]
const HETERO_PINS: [(&str, HeteroKind, Policy, [u64; 4]); 18] = [
    ("milc", HeteroKind::PcmDram, Policy::Unaware, [418195, 17933, 8619, 22473]),
    ("milc", HeteroKind::PcmDram, Policy::VbiHotness, [331613, 17933, 9643, 21449]),
    ("milc", HeteroKind::PcmDram, Policy::Ideal, [107595, 17933, 31092, 0]),
    ("milc", HeteroKind::TlDram, Policy::Unaware, [108915, 17933, 4371, 26721]),
    ("milc", HeteroKind::TlDram, Policy::VbiHotness, [105072, 17933, 4881, 26211]),
    ("milc", HeteroKind::TlDram, Policy::Ideal, [86788, 17933, 24487, 6605]),
    ("bwaves-17", HeteroKind::PcmDram, Policy::Unaware, [271847, 17900, 6365, 20104]),
    ("bwaves-17", HeteroKind::PcmDram, Policy::VbiHotness, [243890, 17900, 4763, 21706]),
    ("bwaves-17", HeteroKind::PcmDram, Policy::Ideal, [72698, 17900, 26469, 0]),
    ("bwaves-17", HeteroKind::TlDram, Policy::Unaware, [72742, 17900, 3370, 23099]),
    ("bwaves-17", HeteroKind::TlDram, Policy::VbiHotness, [73503, 17900, 1907, 24562]),
    ("bwaves-17", HeteroKind::TlDram, Policy::Ideal, [53661, 17900, 26469, 0]),
    ("sphinx3", HeteroKind::PcmDram, Policy::Unaware, [761505, 25937, 7700, 15498]),
    ("sphinx3", HeteroKind::PcmDram, Policy::VbiHotness, [309699, 25937, 10640, 12558]),
    ("sphinx3", HeteroKind::PcmDram, Policy::Ideal, [161750, 25937, 23198, 0]),
    ("sphinx3", HeteroKind::TlDram, Policy::Unaware, [163267, 25937, 3584, 19614]),
    ("sphinx3", HeteroKind::TlDram, Policy::VbiHotness, [125992, 25937, 10640, 12558]),
    ("sphinx3", HeteroKind::TlDram, Policy::Ideal, [109838, 25937, 23198, 0]),
];
