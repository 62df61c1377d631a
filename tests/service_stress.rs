//! Concurrency stress suite for the sharded memory service: many threads
//! hammering disjoint and shared VBs through `ClientSession` handles.
//!
//! Run under `--release` in CI so real interleavings are exercised; the
//! assertions are strict (no lost writes, permissions enforced from every
//! thread, shard routing a pure function of the VBUID, epoch-validated
//! reads never stale, cache-hit reads take zero client locks) rather than
//! timing based, so the suite is deterministic in what it checks.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::thread;

use vbi::core::ops::VbHandle;
use vbi::core::swap::PageData;
use vbi::core::telemetry::OpKind;
use vbi::core::translate::SwapSlot;
use vbi::{AccessKind, Op, OpOutput, Rwx, VbProperties, VbiConfig, VbiError, VirtualAddress};
use vbi_service::{
    thread_shared_lock_acquisitions, AsyncFront, BackingStore, Cqe, Executor, PressureBackend,
    ServiceConfig, ServiceSession, VbiQueue, VbiService,
};

const THREADS: usize = 8;

fn service(shards: usize) -> VbiService {
    VbiService::new(ServiceConfig::new(
        shards,
        VbiConfig { phys_frames: 1 << 16, ..VbiConfig::vbi_full() },
    ))
}

/// Every thread owns a private client + VB and hammers it; no write may be
/// lost, and the data must still be there when the main thread attaches to
/// each VB afterwards.
#[test]
fn disjoint_vbs_lose_no_writes() {
    let svc = service(4);
    const WRITES: u64 = 400;
    let vbs: Vec<_> = thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let svc = svc.clone();
                s.spawn(move || {
                    let client = svc.create_client().unwrap();
                    let vb =
                        client.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
                    for i in 0..WRITES {
                        client.store_u64(vb.at(i * 8), t * 1_000_000 + i).unwrap();
                    }
                    for i in 0..WRITES {
                        assert_eq!(
                            client.load_u64(vb.at(i * 8)).unwrap(),
                            t * 1_000_000 + i,
                            "thread {t} lost write {i}"
                        );
                    }
                    vb.vbuid
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    // Cross-thread visibility: a fresh client attaches to every VB and
    // re-verifies the data written by the worker threads.
    let auditor = svc.create_client().unwrap();
    for (t, vbuid) in vbs.iter().enumerate() {
        let index = auditor.attach(*vbuid, Rwx::READ).unwrap();
        for i in [0, WRITES / 2, WRITES - 1] {
            assert_eq!(
                auditor.load_u64(VirtualAddress::new(index, i * 8)).unwrap(),
                t as u64 * 1_000_000 + i,
                "auditor saw stale data of thread {t}"
            );
        }
    }
}

/// All threads share ONE VB (true sharing, §3.4) and write disjoint
/// 8-byte slots of it; after a barrier every thread verifies every other
/// thread's slots.
#[test]
fn shared_vb_disjoint_slots_lose_no_writes() {
    let svc = service(4);
    const SLOTS: u64 = 256;
    let owner = svc.create_client().unwrap();
    let vb = owner
        .request_vb((THREADS as u64) * SLOTS * 8, VbProperties::NONE, Rwx::READ_WRITE)
        .unwrap();
    let barrier = Barrier::new(THREADS);
    thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let svc = svc.clone();
            let barrier = &barrier;
            s.spawn(move || {
                let client = svc.create_client().unwrap();
                let index = client.attach(vb.vbuid, Rwx::READ_WRITE).unwrap();
                let base = t * SLOTS * 8;
                for i in 0..SLOTS {
                    client
                        .store_u64(VirtualAddress::new(index, base + i * 8), t * 7_000 + i)
                        .unwrap();
                }
                barrier.wait();
                // Verify the whole VB, including every other thread's slots.
                for other in 0..THREADS as u64 {
                    for i in 0..SLOTS {
                        let va = VirtualAddress::new(index, other * SLOTS * 8 + i * 8);
                        assert_eq!(
                            client.load_u64(va).unwrap(),
                            other * 7_000 + i,
                            "thread {t} read a lost write of thread {other}"
                        );
                    }
                }
            });
        }
    });
}

/// Permission checks hold from every thread: read-only sharers can read
/// but never write, while the owner keeps writing concurrently.
#[test]
fn permissions_are_enforced_cross_thread() {
    let svc = service(2);
    let owner = svc.create_client().unwrap();
    let vb = owner.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    owner.store_u64(vb.at(0), 42).unwrap();
    thread::scope(|s| {
        // Readers: loads succeed, stores are denied — every time.
        for _ in 0..THREADS {
            let svc = svc.clone();
            s.spawn(move || {
                let reader = svc.create_client().unwrap();
                let index = reader.attach(vb.vbuid, Rwx::READ).unwrap();
                let va = VirtualAddress::new(index, 0);
                for _ in 0..200 {
                    assert!(reader.load_u64(va).unwrap() >= 42);
                    match reader.store_u64(va, 0) {
                        Err(VbiError::PermissionDenied { .. }) => {}
                        other => panic!("read-only store must be denied, got {other:?}"),
                    }
                }
            });
        }
        // The owner keeps the cell monotonically increasing meanwhile.
        let writer = owner.clone();
        s.spawn(move || {
            for i in 0..200u64 {
                writer.store_u64(vb.at(0), 42 + i).unwrap();
            }
        });
    });
    // No denied store ever landed.
    assert!(owner.load_u64(vb.at(0)).unwrap() >= 42);
}

/// Shard routing is a pure function of the VBUID: every thread computes
/// the same home shard for the same VB, and traffic to a VB only ever
/// touches that shard's MTL.
#[test]
fn shard_routing_is_deterministic() {
    let svc = service(8);
    let client = svc.create_client().unwrap();
    let handles: Vec<_> = (0..16)
        .map(|_| client.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap())
        .collect();
    let reference: Vec<usize> = handles.iter().map(|h| svc.shard_of(h.vbuid)).collect();
    thread::scope(|s| {
        for _ in 0..THREADS {
            let svc = svc.clone();
            let handles = &handles;
            let reference = &reference;
            s.spawn(move || {
                for (h, want) in handles.iter().zip(reference) {
                    for _ in 0..100 {
                        assert_eq!(svc.shard_of(h.vbuid), *want, "routing of {} flapped", h.vbuid);
                    }
                }
            });
        }
    });
    // Traffic isolation: touching one VB moves only its home shard's counters.
    svc.reset_stats();
    client.store_u64(handles[0].at(0), 1).unwrap();
    for (shard, stats) in svc.shard_stats().iter().enumerate() {
        if shard == reference[0] {
            assert!(stats.translation_requests > 0, "home shard idle");
        } else {
            assert_eq!(stats.translation_requests, 0, "shard {shard} saw foreign traffic");
        }
    }
}

/// The batched submit path under concurrency: threads fire batches at a
/// shared VB's disjoint slots and at private VBs simultaneously; responses
/// arrive in order and no write is lost.
#[test]
fn concurrent_batches_lose_no_writes() {
    let svc = service(4);
    const SLOTS: u64 = 128;
    let owner = svc.create_client().unwrap();
    let shared = owner
        .request_vb((THREADS as u64) * SLOTS * 8, VbProperties::NONE, Rwx::READ_WRITE)
        .unwrap();
    thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let svc = svc.clone();
            s.spawn(move || {
                let session = svc.create_client().unwrap();
                let client = session.id();
                let shared_index = session.attach(shared.vbuid, Rwx::READ_WRITE).unwrap();
                let private =
                    session.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
                let base = t * SLOTS * 8;
                let mut batch = Vec::new();
                for i in 0..SLOTS {
                    batch.push(Op::StoreU64 {
                        client,
                        va: VirtualAddress::new(shared_index, base + i * 8),
                        value: t << 32 | i,
                    });
                    batch.push(Op::StoreU64 { client, va: private.at(i * 8), value: !i });
                }
                for r in svc.submit(&batch) {
                    assert_eq!(r, Ok(OpOutput::Unit));
                }
                let reads: Vec<Op> = (0..SLOTS)
                    .flat_map(|i| {
                        [
                            Op::LoadU64 {
                                client,
                                va: VirtualAddress::new(shared_index, base + i * 8),
                            },
                            Op::LoadU64 { client, va: private.at(i * 8) },
                        ]
                    })
                    .collect();
                let responses = svc.submit(&reads);
                for (i, pair) in responses.chunks(2).enumerate() {
                    let i = i as u64;
                    assert_eq!(pair[0], Ok(OpOutput::U64(t << 32 | i)), "thread {t} slot {i}");
                    assert_eq!(pair[1], Ok(OpOutput::U64(!i)), "thread {t} private slot {i}");
                }
            });
        }
    });
}

/// The completion-queue front end under fire: many submitter threads
/// pipeline tagged mixed ops (data plane + client churn) through one
/// [`VbiQueue`] while per-shard workers execute and every thread reaps
/// concurrently. Exactly one completion must come back per submission —
/// no lost, duplicated, or cross-wired tags — and every op's outcome must
/// be the expected one.
#[test]
fn queue_loses_no_completions() {
    const OPS_PER_THREAD: u64 = 300;
    let queue = VbiQueue::new(ServiceConfig::new(
        4,
        VbiConfig { phys_frames: 1 << 16, ..VbiConfig::vbi_full() },
    ));
    let reaped: Vec<Vec<Cqe>> = thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let queue = &queue;
                s.spawn(move || {
                    // Synchronous setup: pipelined ops must not depend on
                    // unreaped completions.
                    let session = queue.create_client().unwrap();
                    let client = session.id();
                    let vb =
                        session.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
                    let mut mine = Vec::new();
                    for i in 0..OPS_PER_THREAD {
                        let tag = (t << 32) | i;
                        let op = match i % 4 {
                            0 => Op::StoreU64 { client, va: vb.at((i % 64) * 8), value: t + i },
                            1 => Op::LoadU64 { client, va: vb.at((i % 64) * 8) },
                            2 => Op::StoreU8 { client, va: vb.at(4096 + i), value: t as u8 },
                            // An invalid index: errors must flow back as
                            // completions too.
                            _ => Op::LoadU64 { client, va: VirtualAddress::new(5000, 0) },
                        };
                        queue.submit(tag, op);
                        // Reap opportunistically so the rings stay shallow;
                        // completions may belong to any thread.
                        if let Some(cqe) = queue.try_reap() {
                            mine.push(cqe);
                        }
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    // Drain what nobody reaped, then account for every single tag.
    let mut all: Vec<Cqe> = reaped.into_iter().flatten().collect();
    all.extend(queue.drain());
    assert_eq!(all.len(), THREADS * OPS_PER_THREAD as usize, "completion count mismatch");
    let mut seen = HashSet::new();
    for cqe in &all {
        assert!(seen.insert(cqe.tag), "tag {} completed twice", cqe.tag);
        let i = cqe.tag & 0xffff_ffff;
        match i % 4 {
            0 | 2 => assert_eq!(cqe.result, Ok(OpOutput::Unit), "store {i} failed"),
            1 => assert!(matches!(cqe.result, Ok(OpOutput::U64(_))), "load {i} failed"),
            _ => assert!(
                matches!(cqe.result, Err(VbiError::InvalidCvtIndex { .. })),
                "bad-index op {i} must error"
            ),
        }
    }
    for t in 0..THREADS as u64 {
        for i in 0..OPS_PER_THREAD {
            assert!(seen.contains(&((t << 32) | i)), "tag {t}:{i} never completed");
        }
    }
}

/// Client and VB churn from many threads never leaks frames: after every
/// worker releases everything, the free-frame count returns to baseline.
#[test]
fn concurrent_churn_leaks_nothing() {
    let svc = service(4);
    let baseline = svc.free_frames();
    thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let svc = svc.clone();
            s.spawn(move || {
                for round in 0..20 {
                    let client = svc.create_client().unwrap();
                    let vb =
                        client.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
                    for i in 0..16 {
                        client.store_u64(vb.at(i * 512), t * 100 + round + i).unwrap();
                    }
                    client.destroy().unwrap();
                }
            });
        }
    });
    assert_eq!(svc.free_frames(), baseline, "churn leaked physical frames");
    assert!(svc.stats().pages_allocated > 0);
}

/// Pressure-free order-0 churn across threads: each cycle requests a
/// one-page VB, stores, loads it back, stores to a long-lived VB and
/// releases — one frame allocated and one freed on the worker's home shard
/// per cycle, which is the traffic the magazine frame cache fronts. With
/// memory ample (the free pool never falls to the cushion under which the
/// magazines are bypassed) steady-state churn must be served from them,
/// and every churned frame must come back.
#[test]
fn order0_churn_is_magazine_served_and_leaks_nothing() {
    const WORKERS: usize = 4;
    const CYCLES: u64 = 500;
    let svc = service(4);
    let cycle = |client: &ServiceSession, persistent: &VbHandle, value: u64| {
        let vb = client.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        client.store_u64(vb.at(0), value).unwrap();
        assert_eq!(client.load_u64(vb.at(0)).unwrap(), value, "stale churned read");
        client.store_u64(persistent.at(0), value).unwrap();
        client.release_vb(vb.cvt_index).unwrap();
    };
    let workers: Vec<_> = (0..WORKERS)
        .map(|_| {
            let client = svc.create_client().unwrap();
            let persistent =
                client.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
            // One warm-up cycle: first-touch table frames and the first
            // magazine refill land before the counters are snapped.
            cycle(&client, &persistent, 0);
            (client, persistent)
        })
        .collect();
    let before = svc.stats();
    let free_before = svc.free_frames();
    thread::scope(|s| {
        for (t, (client, persistent)) in workers.iter().enumerate() {
            s.spawn(move || {
                for i in 0..CYCLES {
                    cycle(client, persistent, t as u64 * CYCLES + i);
                }
            });
        }
    });
    let after = svc.stats();
    let hits = after.frame_cache_hits - before.frame_cache_hits;
    let misses = after.frame_cache_misses - before.frame_cache_misses;
    assert!(hits > misses, "churn must be magazine-served (hits {hits}, misses {misses})");
    assert_eq!(svc.free_frames(), free_before, "churn leaked physical frames");
    assert_eq!(svc.audit(), Ok(()));
}

/// The seqlock read path under attach/detach fire, seeded and byte-exact:
/// reader threads hammer `session.load_u64` through one shared session
/// while a writer thread detaches and re-attaches *different VBs at the
/// same CVT index*. Every read must observe exactly one of the two
/// epoch-consistent states — the X value, the Y value, or (in the gap
/// between detach and re-attach) a clean `InvalidCvtIndex` — never a torn
/// mix, never a value from a VB the entry no longer names.
#[test]
fn readers_never_observe_stale_translations_under_attach_detach() {
    const X_VALUE: u64 = 0xAAAA_AAAA_AAAA_AAAA;
    const Y_VALUE: u64 = 0xBBBB_BBBB_BBBB_BBBB;
    const READS_PER_THREAD: u64 = 30_000; // seeded, deterministic workload size
    const SWAPS: u64 = 2_000;

    let svc = service(4);
    let session = svc.create_client().unwrap();
    // Two VBs with distinct, constant contents.
    let x = session.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    let y = session.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    session.store_u64(x.at(0), X_VALUE).unwrap();
    session.store_u64(y.at(0), Y_VALUE).unwrap();
    // The contested entry: a dedicated index that the writer retargets
    // between X and Y for the whole run.
    let contested = session.attach(x.vbuid, Rwx::READ).unwrap();
    let va = VirtualAddress::new(contested, 0);

    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        // Writer: detach the contested entry (by index — the original
        // read-write attachments keep both VBs referenced and alive) and
        // re-attach the other VB at the same index — each step bumps the
        // client's epoch and invalidates the published cache slot.
        let writer = session.clone();
        let stop_flag = &stop;
        s.spawn(move || {
            for swap in 0..SWAPS {
                writer.release_vb(contested).unwrap();
                let next = if swap % 2 == 0 { y.vbuid } else { x.vbuid };
                writer.attach_at(contested, next, Rwx::READ).unwrap();
            }
            stop_flag.store(true, Ordering::Release);
        });
        // Readers: every load must be byte-exact pre- or post-epoch state.
        for t in 0..4u64 {
            let reader = session.clone();
            let stop_flag = &stop;
            s.spawn(move || {
                let mut reads = 0u64;
                while reads < READS_PER_THREAD && !stop_flag.load(Ordering::Acquire) {
                    match reader.load_u64(va) {
                        Ok(value) => assert!(
                            value == X_VALUE || value == Y_VALUE,
                            "thread {t}: torn/stale read {value:#x}"
                        ),
                        // The gap between detach and re-attach.
                        Err(VbiError::InvalidCvtIndex { .. }) => {}
                        Err(other) => panic!("thread {t}: unexpected error {other}"),
                    }
                    reads += 1;
                }
            });
        }
    });
    // The contested entry still resolves after the dust settles.
    let final_value = session.load_u64(va).unwrap();
    assert!(final_value == X_VALUE || final_value == Y_VALUE);
}

/// The remap acceptance proof: a VB migrated between shards (and a second
/// VB promoted through size classes) under concurrent lock-free readers
/// loses no writes and never exposes a torn CVT entry. Readers assert
/// *byte-exact pre/post states only* — every load either observes the
/// pattern written before the churn or transiently raced the remap
/// handover (a clean `VbNotEnabled` in the drained source's disable
/// window, or its afterlife if the freed VBUID was re-placed), which a
/// bounded retry resolves; a value that stays wrong is a lost write and
/// fails the test. Each remap bumps the client's seqlock epoch, which the
/// cache-miss counter (the forced fallbacks) observes, alongside any torn
/// snapshots the rewrite races produce.
#[test]
fn migration_under_lockfree_readers_is_byte_exact() {
    const SLOTS: u64 = 32;
    const MIGRATIONS: usize = 120;
    const PROMOTIONS: usize = 3;
    const READERS: usize = 4;
    const READS_PER_THREAD: usize = 20_000;
    let pattern = |slot: u64| 0xFACE_0000_0000_0000u64 | (slot * 0x0101);

    let svc = service(4);
    let session = svc.create_client().unwrap();
    // The migrating VB: constant pattern, warm published cache.
    let vb = session.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    for slot in 0..SLOTS {
        session.store_u64(vb.at(slot * 8), pattern(slot)).unwrap();
    }
    // The promoting VB: grows a size class per churn round.
    let small = session.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    session.store_u64(small.at(0), 0xB00C_0000_0000_0001).unwrap();
    session.load_u64(vb.at(0)).unwrap();
    session.load_u64(small.at(0)).unwrap();
    let cache_before = session.cvt_cache_stats().unwrap();

    let homes = thread::scope(|s| {
        // Churn: migrate `vb` round-robin across all shards, interleaving a
        // few promotions of `small` — the whole remap family racing the
        // lock-free read path.
        let churn = {
            let session = session.clone();
            let svc = svc.clone();
            s.spawn(move || {
                let mut homes = HashSet::new();
                homes.insert(svc.shard_of(vb.vbuid));
                for m in 0..MIGRATIONS {
                    let moved = session.migrate(vb.cvt_index, m % svc.shards()).unwrap();
                    homes.insert(svc.shard_of(moved.vbuid));
                    if m < PROMOTIONS {
                        session.promote(small.cvt_index).unwrap();
                    }
                }
                homes
            })
        };
        for t in 0..READERS {
            let reader = session.clone();
            s.spawn(move || {
                for i in 0..READS_PER_THREAD {
                    let (va, want) = if i % 4 == 0 {
                        (small.at(0), 0xB00C_0000_0000_0001)
                    } else {
                        let slot = (i as u64).wrapping_mul(13) % SLOTS;
                        (vb.at(slot * 8), pattern(slot))
                    };
                    let mut attempts = 0;
                    loop {
                        match reader.load_u64(va) {
                            Ok(v) if v == want => break,
                            outcome => {
                                // Transient: the drained source's disable
                                // window, or a stale snapshot the epoch
                                // bump is about to invalidate. Must
                                // converge; anything persistent is a lost
                                // write or torn entry.
                                attempts += 1;
                                assert!(
                                    attempts < 10_000,
                                    "reader {t}: {va} stuck at {outcome:?}, want {want:#x}"
                                );
                                thread::yield_now();
                            }
                        }
                    }
                }
            });
        }
        churn.join().unwrap()
    });

    // The VB really moved between shards, and the post state is byte-exact
    // through the same (never-changing) CVT indices.
    assert!(homes.len() > 1, "migration never left the home shard: {homes:?}");
    for slot in 0..SLOTS {
        assert_eq!(session.load_u64(vb.at(slot * 8)).unwrap(), pattern(slot), "slot {slot}");
    }
    assert_eq!(session.load_u64(small.at(0)).unwrap(), 0xB00C_0000_0000_0001);
    let stats = svc.stats();
    assert_eq!(stats.vbs_migrated, MIGRATIONS as u64);
    assert_eq!(stats.promotions, PROMOTIONS as u64);
    // Epoch bumps were observed: every remap invalidates the published
    // slot, so readers demonstrably fell back to the authoritative path
    // (counted as misses; torn snapshots additionally as torn_retries).
    let cache_after = session.cvt_cache_stats().unwrap();
    assert!(
        cache_after.misses > cache_before.misses,
        "remaps must force epoch-bump fallbacks ({} -> {})",
        cache_before.misses,
        cache_after.misses
    );
    assert!(cache_after.lockfree_hits > cache_before.lockfree_hits, "readers ran lock-free");
    assert!(cache_after.torn_retries >= cache_before.torn_retries);

    // The unified snapshot agrees with the surfaces it unifies: per-kind op
    // counts are exact (latency is sampled; counters are not), the stripe
    // counts partition the op total, and the snapshot's merged MTL view
    // matches `stats()`.
    let snap = svc.snapshot();
    assert_eq!(snap.op(OpKind::Migrate).unwrap().count, MIGRATIONS as u64);
    assert_eq!(snap.op(OpKind::Promote).unwrap().count, PROMOTIONS as u64);
    assert_eq!(
        snap.ops_per_stripe.iter().sum::<u64>(),
        snap.total_ops(),
        "stripe counts must partition the op total"
    );
    assert_eq!(snap.mtl.vbs_migrated, stats.vbs_migrated);
    assert_eq!(snap.mtl.promotions, stats.promotions);
}

/// The acceptance-criterion proof: once the CVT cache is warm, reads
/// through `ClientSession` clones on many threads perform **zero**
/// client-mutex acquisitions — the client-lock counter does not move, and
/// every one of those reads is accounted as a lock-free hit.
#[test]
fn warm_cache_hit_reads_take_zero_client_locks() {
    const READERS: usize = 8;
    const READS_PER_THREAD: usize = 5_000;

    let svc = service(4);
    let session = svc.create_client().unwrap();
    let vbs: Vec<_> = (0..8)
        .map(|i| {
            let vb = session.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
            session.store_u64(vb.at(0), i).unwrap();
            vb
        })
        .collect();
    // Warm: one read per index fills the published cache (locked fills).
    for vb in &vbs {
        session.load_u64(vb.at(0)).unwrap();
    }

    let locks_before = svc.client_lock_acquisitions(session.id()).unwrap();
    let hits_before = session.cvt_cache_stats().unwrap().lockfree_hits;
    thread::scope(|s| {
        for t in 0..READERS {
            let reader = session.clone();
            let vbs = &vbs;
            s.spawn(move || {
                for i in 0..READS_PER_THREAD {
                    let pick = (i + t) % vbs.len();
                    assert_eq!(reader.load_u64(vbs[pick].at(0)).unwrap(), pick as u64);
                }
            });
        }
    });
    let locks_after = svc.client_lock_acquisitions(session.id()).unwrap();
    let hits_after = session.cvt_cache_stats().unwrap().lockfree_hits;

    assert_eq!(
        locks_after, locks_before,
        "cache-hit reads must perform zero client-mutex acquisitions"
    );
    assert_eq!(
        hits_after - hits_before,
        (READERS * READS_PER_THREAD) as u64,
        "every read must be a lock-free hit"
    );
}

/// Memory pressure under concurrent lock-free readers, byte-exact: the
/// combined working set is several times the frame budget, so every shard
/// must continuously evict and fault pages while 8 threads write their own
/// VBs and read a shared one through the seqlock path. No write may be
/// lost, the fault counters must be consistent, and tearing everything
/// down must leak neither frames nor backing-store slots.
#[test]
fn pressure_under_lockfree_readers_is_byte_exact() {
    // 8 x 32 private pages + 16 shared pages ≈ 272 data pages against
    // 192 frames (96 per shard): sustained oversubscription.
    let svc = VbiService::new(ServiceConfig::new(
        2,
        VbiConfig { phys_frames: 192, ..VbiConfig::vbi_full() },
    ));
    let baseline = svc.free_frames();

    let owner = svc.create_client().unwrap();
    let shared = owner.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    for page in 0..16u64 {
        owner.store_u64(shared.at(page << 12), 0xbeef_0000 + page).unwrap();
    }

    const ROUNDS: u64 = 6;
    // Workers hand their live sessions back instead of destroying them:
    // were each client torn down as its thread finished, a fully
    // serialized schedule would free every VB before the next one filled,
    // the footprint would never exceed the frame budget, and the eviction
    // assertions below would be timing-dependent. Keeping all 8 VBs alive
    // makes the oversubscription — and therefore the eviction — certain.
    let workers: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let svc = svc.clone();
                let shared_vbuid = shared.vbuid;
                s.spawn(move || {
                    let client = svc.create_client().unwrap();
                    let vb =
                        client.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
                    let shared_idx = client.attach(shared_vbuid, Rwx::READ).unwrap();
                    for round in 0..ROUNDS {
                        for page in 0..32u64 {
                            let value = (t << 32) | (round << 16) | page;
                            client.store_u64(vb.at(page << 12), value).unwrap();
                        }
                        // Lock-free reads of the shared VB interleave with the
                        // pressure traffic; its pages may be swapped at any
                        // moment, so these reads exercise fault-in + the
                        // published-cache invalidation path.
                        for page in 0..16u64 {
                            assert_eq!(
                                client
                                    .load_u64(VirtualAddress::new(shared_idx, page << 12))
                                    .unwrap(),
                                0xbeef_0000 + page,
                                "thread {t} round {round} saw torn shared data"
                            );
                        }
                        for page in 0..32u64 {
                            let want = (t << 32) | (round << 16) | page;
                            assert_eq!(
                                client.load_u64(vb.at(page << 12)).unwrap(),
                                want,
                                "thread {t} round {round} lost page {page}"
                            );
                        }
                    }
                    (client, vb)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Shared data survived the storm.
    for page in 0..16u64 {
        assert_eq!(owner.load_u64(shared.at(page << 12)).unwrap(), 0xbeef_0000 + page);
    }
    // Every worker's final round is still byte-exact with the whole
    // 272-page working set alive against 192 frames.
    for (t, (client, vb)) in workers.iter().enumerate() {
        for page in 0..32u64 {
            let want = ((t as u64) << 32) | ((ROUNDS - 1) << 16) | page;
            assert_eq!(
                client.load_u64(vb.at(page << 12)).unwrap(),
                want,
                "thread {t} final state lost page {page}"
            );
        }
    }

    let stats = svc.stats();
    assert!(stats.evictions > 0, "oversubscription must evict: {stats:?}");
    assert!(stats.writebacks > 0, "dirty evictions must write back: {stats:?}");
    assert!(stats.faults_in > 0, "swapped pages must fault back in: {stats:?}");
    assert_eq!(
        stats.faults_in, stats.pages_swapped_in,
        "every fault-in is a swap-in and vice versa: {stats:?}"
    );
    assert!(
        stats.evictions <= stats.pages_swapped_out,
        "policy evictions are a subset of swap-outs: {stats:?}"
    );

    // Snapshot invariants under the storm: the unified snapshot's MTL view
    // matches `stats()`, the stripes partition the exact op total, and the
    // deterministic data-plane schedule is fully accounted — every store
    // (owner 16 + 8 workers x 6 rounds x 32 pages) and every load (in-round
    // 16 shared + 32 private per worker round, plus the 16 + 8 x 32
    // verification reads above) lands in the registry exactly once.
    let snap = svc.snapshot();
    assert_eq!(snap.mtl.faults_in, stats.faults_in, "snapshot MTL view must match stats()");
    assert_eq!(
        snap.ops_per_stripe.iter().sum::<u64>(),
        snap.total_ops(),
        "stripe counts must partition the op total"
    );
    let stores = 16 + (THREADS as u64) * ROUNDS * 32;
    let loads = (THREADS as u64) * ROUNDS * (16 + 32) + 16 + (THREADS as u64) * 32;
    assert_eq!(snap.op(OpKind::StoreU64).unwrap().count, stores, "stores under-counted");
    assert_eq!(snap.op(OpKind::LoadU64).unwrap().count, loads, "loads under-counted");

    // Teardown leaks nothing: all frames return and the backing store holds
    // only the owner's possibly-swapped shared pages until it too goes.
    for (client, _) in workers {
        client.destroy().unwrap();
    }
    owner.destroy().unwrap();
    assert_eq!(svc.free_frames(), baseline, "pressure traffic leaked frames");
    assert_eq!(svc.swap_occupancy(), 0, "teardown left orphan backing-store slots");
    assert_eq!(svc.audit(), Ok(()));
}

/// The tentpole acceptance proof: a CVT-cache-hit read takes **zero**
/// shared-lock acquisitions end to end — not just zero *client* locks,
/// but zero acquisitions of *any* counted service mutex (map shard,
/// client state, MTL shard, allocator) — even while other threads churn
/// clients through create/destroy on the same map shards. The per-thread
/// census in [`vbi_service::thread_shared_lock_acquisitions`] counts
/// every acquisition the calling thread makes through the service's one
/// counted-lock funnel, so a delta of exactly zero across a reader's
/// whole run is a machine-checked proof, not a sampling argument.
///
/// The readers use `access` (the protection check alone): a checked
/// access resolves the client through the epoch-validated published map,
/// probes the seqlock CVT cache inside the same generation window, and
/// never touches an MTL. Churn on *other* clients may force generation
/// retries — spins, never locks — which is exactly the property the
/// sharded map was built for.
#[test]
fn cache_hit_reads_take_zero_shared_locks_under_churn() {
    const READERS: usize = 8;
    const CHURNERS: u64 = 2;
    const READS_PER_THREAD: usize = 5_000;

    let svc = service(4);
    let session = svc.create_client().unwrap();
    let vb = session.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    session.store_u64(vb.at(0), 7).unwrap();
    // Warm: the store's own check filled the published cache; prove it.
    assert!(
        session.access(vb.at(0), AccessKind::Read).unwrap().cvt_cache_hit,
        "the published cache must be warm before the measured run"
    );

    let map_before = svc.client_map_stats();
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        // Churn: create/destroy clients (with a live VB each, so destroy
        // walks the full teardown) against the same 16 map shards the
        // reader's client lives in. Every insert and remove bumps a map
        // generation under the authoritative mutex.
        for t in 0..CHURNERS {
            let svc = svc.clone();
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let churn = svc.create_client().unwrap();
                    let cvb =
                        churn.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
                    churn.store_u64(cvb.at(0), t).unwrap();
                    churn.destroy().unwrap();
                }
            });
        }
        // Readers: census delta over the whole run must be exactly zero.
        let readers: Vec<_> = (0..READERS)
            .map(|t| {
                let reader = session.clone();
                s.spawn(move || {
                    let before = thread_shared_lock_acquisitions();
                    for _ in 0..READS_PER_THREAD {
                        let checked = reader.access(vb.at(0), AccessKind::Read).unwrap();
                        assert!(checked.cvt_cache_hit, "reader {t} fell off the fast path");
                    }
                    let delta = thread_shared_lock_acquisitions() - before;
                    assert_eq!(
                        delta, 0,
                        "reader {t}: cache-hit reads took {delta} shared-lock acquisitions"
                    );
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Release);
    });

    // Every measured read resolved through the lock-free published table.
    let map_after = svc.client_map_stats();
    assert!(
        map_after.lockfree_hits - map_before.lockfree_hits >= (READERS * READS_PER_THREAD) as u64,
        "reads must be accounted as lock-free map hits ({} -> {})",
        map_before.lockfree_hits,
        map_after.lockfree_hits
    );
}

/// Destroy racing lock-free readers exposes only clean states: every read
/// of a client being destroyed returns either the pre-destroy value or a
/// clean post-destroy error (`VbNotEnabled` while the teardown disables
/// the VBs, `InvalidClient` once the client has left the map) — never a
/// torn value, never a dirty error, and never an `Ok` *after* that thread
/// has already observed the destruction. The map removal is destroy's
/// first step and bumps the shard generation before the slot index can be
/// recycled, so a reader that saw the teardown can never be served a
/// stale published entry again.
#[test]
fn destroy_racing_readers_observe_only_clean_states() {
    const ROUNDS: usize = 40;
    const READERS: usize = 4;

    let svc = service(2);
    for round in 0..ROUNDS {
        let victim = svc.create_client().unwrap();
        let vb = victim.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        let value = 0xD00D_0000_0000_0000 | round as u64;
        victim.store_u64(vb.at(0), value).unwrap();
        victim.load_u64(vb.at(0)).unwrap(); // warm the published cache

        let barrier = Barrier::new(READERS + 1);
        thread::scope(|s| {
            for t in 0..READERS {
                let reader = victim.clone();
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let mut destroyed = false;
                    let mut post = 0;
                    while post < 64 {
                        match reader.load_u64(vb.at(0)) {
                            Ok(v) => {
                                assert_eq!(v, value, "round {round} reader {t}: torn value");
                                assert!(
                                    !destroyed,
                                    "round {round} reader {t}: Ok after observing destroy"
                                );
                            }
                            Err(VbiError::VbNotEnabled(_) | VbiError::InvalidClient(_)) => {
                                destroyed = true;
                            }
                            Err(other) => {
                                panic!("round {round} reader {t}: dirty state {other}")
                            }
                        }
                        if destroyed {
                            post += 1;
                        }
                    }
                });
            }
            let destroyer = victim.clone();
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                destroyer.destroy().unwrap();
            });
        });
    }
}

/// The regression proof for a flake that first showed in an oversubscribed
/// sweep's set-up: when a store's home shard holds no reclaimable capacity —
/// every frame stranded in translation tables, no reserved slot left to
/// steal, no resident page left to evict — the engine borrows frames from
/// sibling shards instead of surfacing `OutOfPhysicalMemory`.
///
/// Construction: a 2-shard machine with 32 frames per shard and a 4 KiB
/// VB homed on shard 0. Each round strands more of shard 0 permanently:
/// cloning the VB forces table-based structures whose frames eviction can
/// never reclaim, a data store steals the last reserved-but-unused slot,
/// and `reclaim_vb_frames` swaps every resident page back out so the next
/// round's clones can strand the freed frames in tables too. The shard's
/// reclaimable capacity shrinks monotonically, so within a bounded number
/// of rounds some store finds *nothing* — free, stealable, or evictable —
/// and that store (the exact op that used to panic the pressure bench)
/// must succeed through the sibling-borrow path, never error.
///
/// The stranded store is driven three ways — a session verb, a `submit`
/// batch of one, and a batch mixing it with loads homed on the donor shard
/// — since single ops and batches reach the borrow retry through the same
/// engine code; each way must also record every op exactly once.
#[test]
fn stranded_table_frames_borrow_capacity_from_sibling_shards() {
    for drive in [StrandedStore::Session, StrandedStore::BatchOfOne, StrandedStore::MixedBatch] {
        stranded_store_borrows(drive);
    }
}

/// How [`stranded_store_borrows`] issues the store that must borrow.
#[derive(Debug, Clone, Copy)]
enum StrandedStore {
    Session,
    BatchOfOne,
    MixedBatch,
}

fn stranded_store_borrows(drive: StrandedStore) {
    const DONOR_VALUE: u64 = 0xD0_0D;
    let svc = VbiService::new(ServiceConfig::new(
        2,
        VbiConfig { phys_frames: 64, ..VbiConfig::vbi_full() },
    ));
    let session = svc.create_client().unwrap();
    let client = session.id();
    let vb_on = |shard: usize| loop {
        let vb = session.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        if svc.shard_of(vb.vbuid) == shard {
            break vb;
        }
        session.release_vb(vb.cvt_index).unwrap();
    };

    // Home the victim VB on shard 0, and a VB the mixed batch reads on the
    // donor shard.
    let vb = vb_on(0);
    let donor = vb_on(1);
    session.store_u64(donor.at(0), DONOR_VALUE).unwrap();
    session.store_u64(vb.at(0), 0xFEED_0000_0000_0001).unwrap();
    svc.reclaim_vb_frames(session.id(), vb.cvt_index, 64).unwrap();

    let mut clones = Vec::new();
    let mut last_value = 0;
    for round in 0..64u64 {
        assert!(round < 63, "{drive:?}: shard 0 never ran out of reclaimable capacity");
        // Strand every free frame in unreclaimable translation tables.
        loop {
            assert!(clones.len() < 200, "cloning never exhausted shard 0");
            match session.clone_vb(vb.cvt_index) {
                Ok(clone) => {
                    assert_eq!(svc.shard_of(clone.vbuid), 0, "clones share the home shard");
                    clones.push(clone);
                }
                Err(VbiError::OutOfPhysicalMemory) => break,
                Err(other) => panic!("unexpected clone failure: {other}"),
            }
        }
        assert!(!clones.is_empty(), "at least one clone must fit before exhaustion");
        // The write that used to fail with `OutOfPhysicalMemory`. It must
        // NEVER error: it either steals/evicts shard 0's last reclaimable
        // frame (shrinking the pool for the next round) or — once nothing
        // is left — borrows from shard 1.
        last_value = 0xFEED_0000_0000_0000 | round;
        let store = Op::StoreU64 { client, va: clones[0].at(0), value: last_value };
        let donor_load = Op::LoadU64 { client, va: donor.at(0) };
        let recorded_before = svc.snapshot().total_ops();
        let issued = match drive {
            StrandedStore::Session => {
                session.store_u64(clones[0].at(0), last_value).unwrap();
                1
            }
            StrandedStore::BatchOfOne => {
                assert_eq!(svc.submit(&[store]), [Ok(OpOutput::Unit)]);
                1
            }
            StrandedStore::MixedBatch => {
                let responses = svc.submit(&[donor_load.clone(), store, donor_load]);
                let donor_read = Ok(OpOutput::U64(DONOR_VALUE));
                assert_eq!(responses, [donor_read.clone(), Ok(OpOutput::Unit), donor_read]);
                3
            }
        };
        assert_eq!(
            svc.snapshot().total_ops(),
            recorded_before + issued,
            "{drive:?}: every issued op is recorded exactly once, borrow retry or not"
        );
        if svc.frames_borrowed() > 0 {
            break;
        }
        // Swap every resident page out so the freed frames return to the
        // pool where the next round's clones strand them for good.
        svc.reclaim_vb_frames(session.id(), vb.cvt_index, 64).unwrap();
        for clone in &clones {
            svc.reclaim_vb_frames(session.id(), clone.cvt_index, 64).unwrap();
        }
    }
    assert!(
        svc.frames_borrowed() > 0,
        "{drive:?}: the stranded store must borrow sibling capacity"
    );
    assert_eq!(session.load_u64(clones[0].at(0)).unwrap(), last_value);
    // COW isolation: the source still reads its own (faulted-back) value.
    assert_eq!(session.load_u64(vb.at(0)).unwrap(), 0xFEED_0000_0000_0001);

    // The donor shard still serves traffic after giving frames away.
    let sibling = vb_on(1);
    session.store_u64(sibling.at(0), 0xD0_0D).unwrap();
    assert_eq!(session.load_u64(sibling.at(0)).unwrap(), 0xD0_0D);
    assert_eq!(session.load_u64(donor.at(0)).unwrap(), DONOR_VALUE);
    // Both shards conserve frames across the transfer: the donor's retired
    // ones, the borrower's adopted ones.
    assert_eq!(svc.audit(), Ok(()), "{drive:?}");
}

/// The async front end's acceptance proof: 120 000 awaited ops across
/// 10 000 concurrent sessions (12 000 tasks — one fifth of the sessions
/// are shared by two tasks on a budget of 1, so backpressure *must*
/// engage) complete exactly once on a single executor thread over a
/// 4-shard queue. Exactly-once is checked three ways: the queue's
/// completion count equals submissions, every value read back is the one
/// this task last wrote (a cross-wired waker would surface another task's
/// response), and no waker-registry entry or in-flight op survives the
/// run. Depth stays bounded by the total budget, and the synchronous CQ
/// stays empty — async completions are dispatched to futures, never
/// posted.
#[test]
fn async_sessions_complete_exactly_once_under_load() {
    const SESSIONS: usize = 10_000;
    const TASKS: usize = 12_000;
    const OPS_PER_TASK: u64 = 10;

    let front = AsyncFront::new(ServiceConfig::new(
        4,
        VbiConfig { phys_frames: 1 << 16, ..VbiConfig::vbi_full() },
    ));
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|_| {
            let owner = front.queue().create_client().unwrap();
            let vb = owner.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
            // Budget 1: a session shared by two tasks is permanently
            // contended, so the backpressure path runs for real.
            (front.session_for(owner.id(), 1), vb)
        })
        .collect();

    let mut executor = Executor::new();
    for task in 0..TASKS {
        let (session, vb) = &sessions[task % SESSIONS];
        let session = session.clone();
        let va = vb.at((task / SESSIONS) as u64 * 8);
        let task = task as u64;
        executor.spawn(async move {
            let mut last = 0u64;
            for i in 0..OPS_PER_TASK {
                if i % 2 == 0 {
                    last = (task << 16) | i;
                    session.store_u64(va, last).await.unwrap();
                } else {
                    let got = session.load_u64(va).await.unwrap();
                    assert_eq!(got, last, "task {task}: completion cross-wired or lost");
                }
            }
        });
    }
    executor.run();

    let total = (TASKS as u64) * OPS_PER_TASK;
    let queue = front.queue();
    assert_eq!(queue.completed(), total, "every awaited op completes exactly once");
    assert_eq!(front.outstanding(), 0, "a waker-registry entry leaked");
    assert_eq!(queue.in_flight(), 0, "an in-flight op leaked");
    assert!(queue.try_reap().is_none(), "async completions must never reach the CQ");
    assert!(queue.backpressure_waits() > 0, "shared sessions on budget 1 must park");
    assert!(
        queue.inflight_high_water() <= SESSIONS as u64,
        "in-flight depth {} exceeded the total session budget {}",
        queue.inflight_high_water(),
        SESSIONS
    );
    assert!(
        queue.depth().high_water <= SESSIONS,
        "ring occupancy {} exceeded the total session budget {}",
        queue.depth().high_water,
        SESSIONS
    );
}

/// Eight workers churn whole VBs (request → touch every page → release)
/// on a machine too small for their combined footprint, so frame
/// allocate/free traffic races eviction, sibling borrowing, and the
/// magazine frame cache simultaneously. A per-round barrier sits
/// between the stores and the release, so every round all eight
/// threads simultaneously hold a fully-populated persistent + churned
/// VB pair (8 × 64 = 512 data frames on a 448-frame machine): pages
/// leave residency only via eviction or the post-barrier release, so
/// eviction is forced by pigeonhole no matter how the scheduler
/// interleaves the threads. After every VB is released the free-frame
/// gauge must read *exactly* the machine's capacity: one stranded
/// magazine frame, one unreturned reservation, or one leaked table
/// frame fails the test.
#[test]
fn vb_churn_racing_eviction_leaks_no_frames() {
    const PHYS_FRAMES: u64 = 448;
    const ROUNDS: u64 = 40;
    let svc = VbiService::new(ServiceConfig::new(
        2,
        VbiConfig { phys_frames: PHYS_FRAMES, ..VbiConfig::vbi_full() },
    ));
    let gate = Barrier::new(THREADS);
    thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let svc = svc.clone();
            let gate = &gate;
            s.spawn(move || {
                let client = svc.create_client().unwrap();
                let persistent =
                    client.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
                for round in 0..ROUNDS {
                    let vb =
                        client.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
                    for page in 0..32u64 {
                        client
                            .store_u64(vb.at(page * 4096), (t << 32) | (round << 8) | page)
                            .unwrap();
                    }
                    // Keep the long-lived VB hot so eviction has to pick
                    // between it and the churned pages.
                    client
                        .store_u64(persistent.at((round % 32) * 4096), (t << 16) | round)
                        .unwrap();
                    for page in (0..32u64).step_by(7) {
                        assert_eq!(
                            client.load_u64(vb.at(page * 4096)).unwrap(),
                            (t << 32) | (round << 8) | page,
                            "thread {t} round {round} lost a churned write"
                        );
                    }
                    // All threads hold their full footprint here; only
                    // after everyone has stored does anyone release.
                    gate.wait();
                    client.release_vb(vb.cvt_index).unwrap();
                }
                client.release_vb(persistent.cvt_index).unwrap();
            });
        }
    });
    let stats = svc.stats();
    assert!(stats.evictions > 0, "the footprint must overrun physical memory");
    assert!(stats.frame_cache_hits > 0, "churn must exercise the magazines");
    assert_eq!(
        svc.free_frames(),
        PHYS_FRAMES,
        "every churned frame must return to the buddy or the magazines"
    );
    assert_eq!(svc.audit(), Ok(()));
}

/// `try_store` calls made on [`FaultyBacking`] since the last arming, and
/// the call that blows up (`with_backing` takes a plain `fn`, so the test's
/// dial has to be a static).
static FAULTY_STORES: AtomicU64 = AtomicU64::new(0);
const FAULT_AT: u64 = 5;

/// The in-memory backing store, except that its `FAULT_AT`-th write-back
/// panics — a stand-in for an MTL invariant tripping in the middle of a
/// burst, with the shard lock held.
#[derive(Debug, Default)]
struct FaultyBacking(BackingStore);

impl PressureBackend for FaultyBacking {
    fn try_store(&mut self, data: PageData) -> Result<SwapSlot, PageData> {
        if FAULTY_STORES.fetch_add(1, Ordering::SeqCst) + 1 == FAULT_AT {
            panic!("injected backing-store fault");
        }
        PressureBackend::try_store(&mut self.0, data)
    }
    fn try_store_zero(&mut self) -> Option<SwapSlot> {
        PressureBackend::try_store_zero(&mut self.0)
    }
    fn load(&mut self, slot: SwapSlot) -> Option<PageData> {
        PressureBackend::load(&mut self.0, slot)
    }
    fn peek(&self, slot: SwapSlot) -> Option<&PageData> {
        PressureBackend::peek(&self.0, slot)
    }
    fn duplicate(&mut self, slot: SwapSlot) -> vbi::Result<SwapSlot> {
        PressureBackend::duplicate(&mut self.0, slot)
    }
    fn discard(&mut self, slot: SwapSlot) {
        PressureBackend::discard(&mut self.0, slot);
    }
    fn len(&self) -> usize {
        PressureBackend::len(&self.0)
    }
    fn zero_len(&self) -> usize {
        PressureBackend::zero_len(&self.0)
    }
    fn stored_bytes(&self) -> u64 {
        PressureBackend::stored_bytes(&self.0)
    }
}

/// A panic inside the engine is contained to the burst it happened in, on
/// both completion paths: every submitted op still completes exactly once
/// (the faulted burst's with `EngineFault`), the worker survives with
/// nothing left in flight, and the queue serves the next submission. The
/// machine is one shard of 64 frames under 4 × 16 dirty pages plus their
/// tables, so stores evict, evictions write back, and the fifth write-back
/// panics under the shard lock.
#[test]
fn a_panicking_burst_completes_every_op_once_and_the_worker_survives() {
    const PAGES: u64 = 16;
    fn faulty_queue() -> VbiQueue {
        FAULTY_STORES.store(0, Ordering::SeqCst);
        VbiQueue::new(
            ServiceConfig::single(VbiConfig { phys_frames: 64, ..VbiConfig::vbi_full() })
                .with_backing(|| Box::<FaultyBacking>::default()),
        )
    }
    fn is_fault(result: &vbi::OpResult) -> bool {
        matches!(result, Err(VbiError::EngineFault(message)) if message.contains("injected"))
    }
    // Two passes over every page of four VBs: the second pass alone evicts
    // 64 dirty pages.
    let store = |c, vbs: &[VbHandle], i: u64| {
        let (vb, page) = (&vbs[(i / PAGES % 4) as usize], i % PAGES);
        Op::StoreU64 { client: c, va: vb.at(page << 12), value: i }
    };
    const STORES: u64 = 2 * 4 * PAGES;

    // --- reaped completions ---------------------------------------------
    let queue = faulty_queue();
    let session = queue.create_client().unwrap();
    let c = session.id();
    let vbs: Vec<_> = (0..4)
        .map(|_| session.request_vb(PAGES << 12, VbProperties::NONE, Rwx::READ_WRITE).unwrap())
        .collect();
    // Everything is queued before anything is reaped, so the worker finds
    // bursts, not single ops.
    for i in 0..STORES {
        queue.submit(i, store(c, &vbs, i));
    }
    let cqes = queue.drain();
    assert_eq!(cqes.len() as u64, STORES, "every submission completes");
    let tags: HashSet<u64> = cqes.iter().map(|cqe| cqe.tag).collect();
    assert_eq!(tags.len() as u64, STORES, "and completes once");
    assert!(FAULTY_STORES.load(Ordering::SeqCst) >= FAULT_AT, "the fault must have fired");
    let faulted = cqes.iter().filter(|cqe| is_fault(&cqe.result)).count();
    assert!(faulted >= 1, "the panicking burst reports EngineFault");
    assert_eq!(queue.in_flight(), 0);
    assert_eq!(queue.completed(), STORES);
    // The write-back that blew up cost its own payload and nothing else.
    assert_eq!(queue.service().audit(), Ok(()));
    // The worker is still there: fresh work on a fresh VB round-trips.
    let fresh = session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
    queue.submit(1000, Op::StoreU64 { client: c, va: fresh.at(8), value: 77 });
    queue.submit(1001, Op::LoadU64 { client: c, va: fresh.at(8) });
    let after = queue.drain();
    assert_eq!(after.len(), 2);
    assert_eq!(after[1].result, Ok(OpOutput::U64(77)));
    assert!(queue.shutdown().is_empty(), "nothing unreaped is left behind");

    // --- awaited completions --------------------------------------------
    let front = AsyncFront::over(std::sync::Arc::new(faulty_queue()));
    let session = front.create_session().unwrap();
    let c = session.id();
    let vbs: Vec<_> = (0..4)
        .map(|_| {
            vbi_service::block_on(session.request_vb(
                PAGES << 12,
                VbProperties::NONE,
                Rwx::READ_WRITE,
            ))
            .unwrap()
        })
        .collect();
    // Sixteen tasks on one session (budget 32): each poll round leaves
    // sixteen ops on the ring.
    const TASKS: u64 = 16;
    let outcomes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut executor = Executor::new();
    for task in 0..TASKS {
        let (session, outcomes, vbs) = (session.clone(), outcomes.clone(), vbs.clone());
        executor.spawn(async move {
            for i in (task..STORES).step_by(TASKS as usize) {
                let result = session.run(store(c, &vbs, i)).await;
                outcomes.borrow_mut().push(result);
            }
        });
    }
    executor.run();
    let outcomes = outcomes.borrow();
    assert_eq!(outcomes.len() as u64, STORES, "every awaiting future resolves");
    assert!(outcomes.iter().any(is_fault), "the panicking burst's futures resolve to Err");
    assert_eq!(front.outstanding(), 0, "a waker-registry entry leaked");
    assert_eq!(front.queue().in_flight(), 0);
    assert_eq!(front.queue().completed(), 4 + STORES);
    assert_eq!(front.queue().service().audit(), Ok(()));
    vbi_service::block_on(async {
        let fresh = session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).await.unwrap();
        session.store_u64(fresh.at(8), 78).await.unwrap();
        assert_eq!(session.load_u64(fresh.at(8)).await.unwrap(), 78);
    });
}
