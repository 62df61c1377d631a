//! Deterministic replay and the migration driver for the sharded service.
//!
//! Where [`crate::engine`] measures *simulated cycles* of one core, this
//! module drives the real [`vbi_core::System`] and `vbi-service` front
//! ends with workload traces. Two things live here, each because
//! something other than a throughput bench uses it:
//!
//! * [`trace_ops`] + [`replay`] — a fixed trace pushed single-threaded
//!   through any [`ClientSession`], so `tests/service_equivalence.rs` can
//!   compare the single-owner `System` and a service load-for-load and
//!   counter-for-counter;
//! * [`migration_run`] — readers hammering VBs while a churn thread
//!   migrates them between shards through the engine's `Op::Migrate`,
//!   asserting byte-exactness throughout; the driver of the `migration`
//!   bench in `vbi-bench`. It is the one host-throughput sweep left
//!   outside the `perf` benchmark (`BENCHMARK.json`), which has no sharded
//!   workload yet; it retires into that workload's rows when it lands
//!   (ROADMAP item 7(b)).
//!
//! Host throughput and latency of every front end — `System`,
//! `VbiService` (`execute` and `submit`), `VbiQueue`, `AsyncSession` —
//! are measured by `perf` alone.

use std::time::Instant;

use vbi_core::config::VbiConfig;
use vbi_core::perm::Rwx;
use vbi_core::session::{ClientSession, SessionHost};
use vbi_core::system::VbHandle;
use vbi_core::vb::VbProperties;
use vbi_service::{ServiceConfig, VbiService};
use vbi_workloads::trace::WorkloadSpec;

/// Cap on the per-region VB size of a replay: keeps the footprint bounded
/// while still exercising multi-page VBs.
pub const REGION_CAP: u64 = 4 << 20;

/// One replayable operation, fully resolved from a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into the workload's region list (one VB per region).
    pub region: usize,
    /// 8-byte-aligned offset within the (capped) region.
    pub offset: u64,
    /// Store (`true`) or load (`false`).
    pub is_write: bool,
}

/// Materializes `count` operations of `spec`'s trace with `seed` — the
/// fixed workload both sides of an equivalence comparison replay.
pub fn trace_ops(spec: &WorkloadSpec, seed: u64, count: usize) -> Vec<Op> {
    spec.trace(seed)
        .take(count)
        .map(|a| {
            let cap = spec.regions[a.region].bytes.min(REGION_CAP);
            Op { region: a.region, offset: (a.offset % (cap - 8)) & !7, is_write: a.is_write }
        })
        .collect()
}

/// Replays `ops` through `session` — a fresh client of a
/// [`System`](vbi_core::System) or of a [`VbiService`] — from one thread,
/// one VB per region of `spec`; returns every loaded value in op order.
/// The caller reads the MTL counters off the host it holds.
pub fn replay<H: SessionHost>(
    session: &ClientSession<H>,
    spec: &WorkloadSpec,
    ops: &[Op],
) -> Vec<u64> {
    let handles: Vec<VbHandle> = spec
        .regions
        .iter()
        .map(|r| {
            session
                .request_vb(r.bytes.min(REGION_CAP), VbProperties::NONE, Rwx::READ_WRITE)
                .expect("harness footprint fits the machine")
        })
        .collect();
    let mut loads = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let va = handles[op.region].at(op.offset);
        if op.is_write {
            session.store_u64(va, i as u64).expect("in-bounds store");
        } else {
            loads.push(session.load_u64(va).expect("in-bounds load"));
        }
    }
    loads
}

/// Configuration of one migration run ([`migration_run`]): N reader
/// threads hammering a set of VBs through clones of **one** session while
/// a churn thread migrates those same VBs between shards through the
/// engine's `Op::Migrate` — the §4.2.2 "seamless migration" claim under
/// concurrent lock-free readers.
#[derive(Debug, Clone)]
pub struct MigrationRunConfig {
    /// Reader threads sharing the one session.
    pub readers: usize,
    /// MTL shards the VBs migrate across (power of two, ≥ 2 to actually
    /// cross shards).
    pub shards: usize,
    /// Loads each reader performs.
    pub reads_per_thread: usize,
    /// Migrations the churn thread performs (round-robin over the VBs and
    /// destination shards).
    pub migrations: usize,
    /// VBs under churn.
    pub vbs: usize,
    /// Total physical frames of the machine.
    pub phys_frames: u64,
}

impl Default for MigrationRunConfig {
    fn default() -> Self {
        Self {
            readers: 4,
            shards: 4,
            reads_per_thread: 20_000,
            migrations: 200,
            vbs: 8,
            phys_frames: 1 << 16,
        }
    }
}

/// Report of one migration run.
#[derive(Debug, Clone)]
pub struct MigrationRunReport {
    /// Reader threads of the run.
    pub readers: usize,
    /// Shard count of the run.
    pub shards: usize,
    /// Loads completed across all readers: `readers * reads_per_thread`.
    /// A load retried through a remap window counts once here and once
    /// per retry in [`stale_retries`](Self::stale_retries).
    pub total_reads: u64,
    /// Migrations the churn thread completed.
    pub migrations: u64,
    /// Wall-clock seconds of the churn + read phase.
    pub elapsed_secs: f64,
    /// Reader throughput in loads per second.
    pub reads_per_sec: f64,
    /// Migration throughput (whole-VB moves per second).
    pub migrations_per_sec: f64,
    /// `MtlStats::vbs_migrated` summed across shards (must equal
    /// `migrations` — asserted by the run).
    pub vbs_migrated: u64,
    /// Reads that raced an in-flight remap and were retried: the check
    /// resolved the pre-remap entry and the load touched the drained
    /// source's afterlife (a clean `VbNotEnabled` in the disable window,
    /// or stale bytes if the freed VBUID was already re-placed). Each one
    /// converged to the byte-exact value on retry — a read that *stays*
    /// wrong fails the run.
    pub stale_retries: u64,
    /// CVT-cache delta of the run: every migration bumps the client's
    /// seqlock epoch, so `misses` counts the forced fallbacks and
    /// `torn_retries` the snapshots a racing rewrite tore.
    pub cache: vbi_core::cvt_cache::CvtCacheStats,
}

impl MigrationRunReport {
    /// One-line JSON rendering via the shared
    /// [`json_object`](vbi_core::telemetry::json_object) emitter: sorted
    /// keys, schema-stable.
    pub fn to_json(&self) -> String {
        use vbi_core::telemetry::JsonValue as J;
        vbi_core::telemetry::json_object(&[
            ("readers", J::U(self.readers as u64)),
            ("shards", J::U(self.shards as u64)),
            ("total_reads", J::U(self.total_reads)),
            ("migrations", J::U(self.migrations)),
            ("elapsed_secs", J::F(self.elapsed_secs, 6)),
            ("reads_per_sec", J::F(self.reads_per_sec, 0)),
            ("migrations_per_sec", J::F(self.migrations_per_sec, 1)),
            ("vbs_migrated", J::U(self.vbs_migrated)),
            ("stale_retries", J::U(self.stale_retries)),
            ("cache_misses", J::U(self.cache.misses)),
            ("torn_retries", J::U(self.cache.torn_retries)),
        ])
    }
}

/// The expected contents of migration-run slot `slot` of VB `vb` — constant
/// for the whole run, so every epoch of a migrated VB is byte-identical and
/// any deviation a reader observes is a lost write or a torn entry.
fn migration_pattern(vb: usize, slot: u64) -> u64 {
    0x5EED_0000_0000_0000 | ((vb as u64) << 32) | slot
}

/// Runs `config.readers` reader threads over `config.vbs` VBs while a churn
/// thread migrates those VBs round-robin across the shards, all through one
/// shared [`ClientSession`]. Readers
/// assert byte-exactness on every load: a load either observes the pattern
/// value or transiently raced the remap handover (a clean `VbNotEnabled`
/// in the disable window, or the drained source's afterlife if its VBUID
/// was re-placed) and must converge on retry — a torn entry or a value
/// that *stays* wrong fails the run. After the churn the whole footprint
/// is re-verified byte for byte.
///
/// # Panics
///
/// Panics if any read observes a persistently wrong value (a lost write),
/// if a migration fails, or if the migration counter diverges from the
/// churn count.
pub fn migration_run(config: &MigrationRunConfig) -> MigrationRunReport {
    use std::sync::atomic::{AtomicU64, Ordering};

    const SLOTS: u64 = 16;
    let service = VbiService::new(ServiceConfig::new(
        config.shards,
        VbiConfig { phys_frames: config.phys_frames, ..VbiConfig::vbi_full() },
    ));
    let session = service.create_client().expect("fresh service");
    let handles: Vec<VbHandle> = (0..config.vbs)
        .map(|vb| {
            let handle = session
                .request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE)
                .expect("footprint fits");
            for slot in 0..SLOTS {
                session.store_u64(handle.at(slot * 8), migration_pattern(vb, slot)).unwrap();
            }
            session.load_u64(handle.at(0)).expect("warm-up load");
            handle
        })
        .collect();
    let cache_before = session.cvt_cache_stats().expect("live client");
    let stats_before = service.stats();

    let stale_retries = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        // Churn: migrate VB i to shard (i + round) round-robin. The CVT
        // index — the program's pointer — never changes.
        {
            let session = session.clone();
            let handles = &handles;
            scope.spawn(move || {
                for m in 0..config.migrations {
                    let vb = m % handles.len();
                    let to = (vb + m / handles.len() + 1) % config.shards;
                    session.migrate(handles[vb].cvt_index, to).expect("migration succeeds");
                }
            });
        }
        for thread in 0..config.readers {
            let session = session.clone();
            let handles = &handles;
            let stale_retries = &stale_retries;
            scope.spawn(move || {
                for i in 0..config.reads_per_thread {
                    let vb = (i + thread) % handles.len();
                    let slot = (i as u64).wrapping_mul(7) % SLOTS;
                    let va = handles[vb].at(slot * 8);
                    let want = migration_pattern(vb, slot);
                    // Retry through the remap's disable window; a *wrong
                    // value* that survives retries is a real lost write.
                    let mut attempts = 0;
                    loop {
                        match session.load_u64(va) {
                            Ok(value) if value == want => break,
                            outcome => {
                                attempts += 1;
                                stale_retries.fetch_add(1, Ordering::Relaxed);
                                assert!(
                                    attempts < 1_000,
                                    "reader {thread}: VB {vb} slot {slot} stuck at {outcome:?}, \
                                     want {want:#x} — lost write or torn entry"
                                );
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Post-churn: the whole footprint is byte-exact through the (by now
    // several-times-redirected) CVT entries.
    for (vb, handle) in handles.iter().enumerate() {
        for slot in 0..SLOTS {
            assert_eq!(
                session.load_u64(handle.at(slot * 8)).unwrap(),
                migration_pattern(vb, slot),
                "VB {vb} slot {slot} lost its contents across migration"
            );
        }
    }
    let stats = service.stats();
    let vbs_migrated = stats.vbs_migrated - stats_before.vbs_migrated;
    assert_eq!(vbs_migrated, config.migrations as u64, "migration counter diverged");
    let cache_after = session.cvt_cache_stats().expect("live client");
    let total_reads = (config.readers * config.reads_per_thread) as u64;
    MigrationRunReport {
        readers: config.readers,
        shards: config.shards,
        total_reads,
        migrations: vbs_migrated,
        elapsed_secs: elapsed,
        reads_per_sec: if elapsed > 0.0 { total_reads as f64 / elapsed } else { 0.0 },
        migrations_per_sec: if elapsed > 0.0 { vbs_migrated as f64 / elapsed } else { 0.0 },
        vbs_migrated,
        stale_retries: stale_retries.load(Ordering::Relaxed),
        cache: vbi_core::cvt_cache::CvtCacheStats {
            lockfree_hits: cache_after.lockfree_hits - cache_before.lockfree_hits,
            locked_hits: cache_after.locked_hits - cache_before.locked_hits,
            misses: cache_after.misses - cache_before.misses,
            torn_retries: cache_after.torn_retries - cache_before.torn_retries,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbi_workloads::spec::benchmark;

    #[test]
    fn trace_ops_are_deterministic_and_aligned() {
        let spec = benchmark("mcf").unwrap();
        let a = trace_ops(&spec, 7, 500);
        let b = trace_ops(&spec, 7, 500);
        assert_eq!(a, b);
        for op in &a {
            assert_eq!(op.offset % 8, 0);
            assert!(op.offset + 8 <= spec.regions[op.region].bytes.min(REGION_CAP));
        }
    }

    #[test]
    fn migration_run_keeps_data_byte_exact_under_churn() {
        let report = migration_run(&MigrationRunConfig {
            readers: 2,
            shards: 4,
            reads_per_thread: 2_000,
            migrations: 40,
            vbs: 4,
            ..Default::default()
        });
        assert_eq!(report.total_reads, 4_000);
        assert_eq!(report.migrations, 40);
        assert_eq!(report.vbs_migrated, 40);
        // Every migration bumps the client's seqlock epoch via the CVT-slot
        // invalidation, so readers demonstrably fell back to the
        // authoritative path at least once.
        assert!(report.cache.misses > 0, "migrations must invalidate the published cache");
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"vbs_migrated\":40"), "{json}");
    }
}
