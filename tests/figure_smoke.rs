//! Smoke tests of the figure harness paths at miniature scale: every
//! experiment binary's code path runs end to end and produces sane tables.

use vbi::hetero::memory::{HeteroKind, Policy};
use vbi::sim::engine::{run, EngineConfig};
use vbi::sim::hetero_run::run_hetero;
use vbi::sim::multicore::{run_alone_native, run_bundle};
use vbi::sim::report::SpeedupTable;
use vbi::sim::systems::SystemKind;
use vbi::workloads::bundles::{bundle, bundle_names};
use vbi::workloads::spec::{benchmark, FIG6_BENCHMARKS, HETERO_BENCHMARKS};

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
    let spec = benchmark(HETERO_BENCHMARKS[0]).unwrap();
    for kind in [HeteroKind::PcmDram, HeteroKind::TlDram] {
        for policy in [Policy::Unaware, Policy::VbiHotness, Policy::Ideal] {
            let r = run_hetero(kind, policy, &spec, &tiny());
            assert!(r.cycles > 0, "{kind:?} {policy:?}");
            assert!((0.0..=1.0).contains(&r.fast_fraction));
        }
    }
}

#[test]
fn every_benchmark_runs_on_every_system_briefly() {
    // Every system and every benchmark at miniature scale: no panics, no
    // degenerate results. Two covering sweeps, not the 14 x 10 product: a
    // cell's cost in a debug build is the init phase's one store per
    // initialised page, not the 400 accesses, so the product is 80 s of
    // big-footprint set-up. Every system runs the three small footprints;
    // every benchmark runs on one VBI and one conventional system. The full
    // product at full length runs in release in CI's `figures` job
    // (`run_all`: fig6 is 14 benchmarks x 7 systems, fig7 8 x 5). The VBI
    // column is three quarters of what is left, so it gets a thread of its
    // own.
    let cfg = EngineConfig { accesses: 400, warmup: 50, seed: 7, phys_frames: 1 << 19 };
    let check = |name: &str, kind: SystemKind| {
        let r = run(kind, &benchmark(name).unwrap(), &cfg);
        assert!(r.cycles > 0 && r.instructions > 0, "{name} on {}", kind.label());
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
