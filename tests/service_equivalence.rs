//! Equivalence proof for the concurrent service: one fixed workload trace
//! replayed through the single-owner [`vbi_core::System`] and through a
//! 1-shard [`vbi_service::VbiService`] driven by one thread yields
//! byte-identical loads and identical [`vbi_core::MtlStats`] — the
//! concurrency layer adds no observable behavior of its own.
//!
//! Beyond the fixed traces, a property-based test drives *random mixed op
//! sequences over the full [`Op`] surface* — client churn, VB
//! request/attach/detach/release, the remap family
//! (promote/clone/migrate), every load/store width, and deliberate error
//! ops — through `VbiService::submit` in one batch and through
//! `System::execute` sequentially, asserting response-for-response and
//! counter-for-counter identity. Both front ends route through the one
//! engine in `vbi_core::ops`, and this is the proof nothing diverges.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use vbi_core::ops::{Op, OpResult};
use vbi_core::system::VbHandle;
use vbi_core::{ClientId, Rwx, System, VbProperties, VbiConfig};
use vbi_service::{block_on, AsyncFront, AsyncSession, ServiceConfig, VbiService};
use vbi_sim::service_run::{replay, trace_ops};
use vbi_workloads::spec::benchmark;

fn config() -> VbiConfig {
    VbiConfig { phys_frames: 1 << 16, ..VbiConfig::vbi_full() }
}

#[test]
fn system_and_single_shard_service_are_observably_identical() {
    for name in ["mcf", "sjeng", "GemsFDTD"] {
        let spec = benchmark(name).expect("known benchmark");
        let ops = trace_ops(&spec, 2020, 20_000);
        let system = System::new(config());
        let system_loads = replay(&system.create_client().unwrap(), &spec, &ops);
        let system_stats = system.mtl().stats();
        let service = VbiService::new(ServiceConfig::single(config()));
        let service_loads = replay(&service.create_client().unwrap(), &spec, &ops);
        assert_eq!(system_loads, service_loads, "{name}: loads must be byte-identical");
        assert_eq!(system_stats, service.stats(), "{name}: MTL counters must be identical");
        assert!(system_stats.translation_requests > 0, "{name}: trace exercised the MTL");
    }
}

#[test]
fn equivalence_holds_across_config_variants() {
    // Delayed allocation off (VBI-1) and on (VBI-2/Full) take different
    // allocation paths; the service must shadow System on both.
    for variant in [VbiConfig::vbi_1, VbiConfig::vbi_2] {
        let spec = benchmark("mcf").expect("known benchmark");
        let ops = trace_ops(&spec, 77, 8_000);
        let cfg = VbiConfig { phys_frames: 1 << 16, ..variant() };
        let system = System::new(cfg.clone());
        let system_loads = replay(&system.create_client().unwrap(), &spec, &ops);
        let service = VbiService::new(ServiceConfig::single(cfg));
        let service_loads = replay(&service.create_client().unwrap(), &spec, &ops);
        assert_eq!(system_loads, service_loads);
        assert_eq!(system.mtl().stats(), service.stats());
    }
}

/// Generates a random but *self-consistent* op sequence over the full
/// surface: a scratch `System` executes each op as it is drawn, so the
/// generator knows which clients and VBs exist and can mix valid traffic
/// (most ops) with deliberate error ops (bad clients, bad indices,
/// out-of-range offsets, oversized requests). The recorded sequence is
/// deterministic in `seed` and replays identically on any engine front
/// end.
fn random_mixed_ops(seed: u64, len: usize, cfg: &VbiConfig) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let scratch = System::new(cfg.clone());
    // The model: live clients and the VB handles each one holds.
    let mut clients: Vec<(ClientId, Vec<VbHandle>)> = Vec::new();
    let mut ops = Vec::with_capacity(len);
    while ops.len() < len {
        let have_vb = clients.iter().any(|(_, vbs)| !vbs.is_empty());
        let roll = rng.gen_range(0u32..100);
        let op = if clients.is_empty() || roll < 5 {
            Op::CreateClient
        } else if roll < 12 {
            let client = clients[rng.gen_range(0..clients.len())].0;
            let bytes = if rng.gen_bool(0.05) {
                u64::MAX // RequestTooLarge path
            } else {
                rng.gen_range(1u64..(1 << 20))
            };
            Op::RequestVb { client, bytes, props: VbProperties::NONE, perms: Rwx::READ_WRITE }
        } else if roll < 16 && have_vb {
            // Attach a (possibly different) client to an existing VB.
            let (_, vbs) = &clients[rng.gen_range(0..clients.len())];
            if vbs.is_empty() {
                continue;
            }
            let vbuid = vbs[rng.gen_range(0..vbs.len())].vbuid;
            let client = clients[rng.gen_range(0..clients.len())].0;
            let perms = if rng.gen_bool(0.3) { Rwx::READ } else { Rwx::READ_WRITE };
            Op::Attach { client, vbuid, perms }
        } else if roll < 18 && have_vb {
            let idx = rng.gen_range(0..clients.len());
            let (client, vbs) = &clients[idx];
            if vbs.is_empty() {
                continue;
            }
            Op::Detach { client: *client, vbuid: vbs[rng.gen_range(0..vbs.len())].vbuid }
        } else if roll < 20 && have_vb {
            let idx = rng.gen_range(0..clients.len());
            let (client, vbs) = &clients[idx];
            if vbs.is_empty() {
                continue;
            }
            Op::ReleaseVb { client: *client, index: vbs[rng.gen_range(0..vbs.len())].cvt_index }
        } else if roll < 22 && clients.len() > 1 {
            Op::DestroyClient { client: clients[rng.gen_range(0..clients.len())].0 }
        } else if roll < 26 && have_vb {
            // The VB-remap family (engine promote/clone/migrate): same
            // engine path on every front end, so responses and counters
            // must stay identical through remaps too.
            let idx = rng.gen_range(0..clients.len());
            let (client, vbs) = &clients[idx];
            if vbs.is_empty() {
                continue;
            }
            let client = *client;
            let handle = vbs[rng.gen_range(0..vbs.len())];
            match rng.gen_range(0u32..3) {
                0 => Op::Promote { client, index: handle.cvt_index },
                1 => Op::CloneVb { client, index: handle.cvt_index },
                _ => {
                    // Keep migrations off the giant (promoted) classes:
                    // the copy walks every page of the class.
                    if handle.vbuid.size_class() > vbi_core::SizeClass::Mib4 {
                        continue;
                    }
                    // A 1-shard machine has exactly one valid destination;
                    // occasionally aim past it for the error path.
                    let to_shard = usize::from(rng.gen_bool(0.1));
                    Op::Migrate { client, index: handle.cvt_index, to_shard }
                }
            }
        } else if roll < 29 {
            // Deliberate error ops: ghost clients and bad indices.
            let client = if rng.gen_bool(0.5) { ClientId(60_000) } else { clients[0].0 };
            Op::LoadU64 { client, va: vbi_core::VirtualAddress::new(9_999, 0) }
        } else if have_vb {
            // Data plane on a random live (client, VB).
            let idx = rng.gen_range(0..clients.len());
            let (client, vbs) = &clients[idx];
            if vbs.is_empty() {
                continue;
            }
            let client = *client;
            let vb = vbs[rng.gen_range(0..vbs.len())];
            let span = vb.vbuid.bytes();
            // Mostly in range; occasionally off the end (error path).
            let offset = if rng.gen_bool(0.05) {
                span + rng.gen_range(0u64..64)
            } else {
                rng.gen_range(0..span.saturating_sub(8).max(1))
            };
            let va = vb.at(offset);
            match rng.gen_range(0u32..7) {
                0 => Op::LoadU64 { client, va },
                1 => Op::StoreU64 { client, va, value: rng.gen() },
                2 => Op::LoadU8 { client, va },
                3 => Op::StoreU8 { client, va, value: rng.gen() },
                4 => Op::LoadBytes { client, va, len: rng.gen_range(0usize..200) },
                5 => {
                    let n = rng.gen_range(0usize..200);
                    let data: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
                    Op::StoreBytes { client, va, data }
                }
                _ => Op::Access { client, va, kind: vbi_core::AccessKind::Read },
            }
        } else {
            continue;
        };
        // Execute on the scratch machine to keep the model truthful.
        let result = scratch.execute(op.clone());
        match (&op, &result) {
            (Op::CreateClient, Ok(out)) => {
                clients.push((out.as_client().expect("client op"), Vec::new()));
            }
            (Op::RequestVb { client, .. }, Ok(out)) => {
                let handle = out.as_handle().expect("handle op");
                let entry = clients.iter_mut().find(|(c, _)| c == client).expect("live");
                entry.1.push(handle);
            }
            (Op::Attach { client, vbuid, .. }, Ok(out)) => {
                let index = out.as_cvt_index().expect("index op");
                let entry = clients.iter_mut().find(|(c, _)| c == client).expect("live");
                entry.1.push(VbHandle { cvt_index: index, vbuid: *vbuid });
            }
            (Op::Detach { client, vbuid }, Ok(_)) => {
                let entry = clients.iter_mut().find(|(c, _)| c == client).expect("live");
                if let Some(pos) = entry.1.iter().position(|h| h.vbuid == *vbuid) {
                    entry.1.remove(pos);
                }
            }
            (Op::ReleaseVb { client, index }, Ok(_)) => {
                let entry = clients.iter_mut().find(|(c, _)| c == client).expect("live");
                entry.1.retain(|h| h.cvt_index != *index);
            }
            (Op::DestroyClient { client }, Ok(_)) => {
                clients.retain(|(c, _)| c != client);
            }
            (Op::Promote { client, index }, Ok(out))
            | (Op::Migrate { client, index, .. }, Ok(out)) => {
                // The remap redirected *every* CVT entry naming the old VB:
                // mirror it across all clients' handles in the model.
                let new = out.as_handle().expect("handle op").vbuid;
                let old = clients
                    .iter()
                    .find(|(c, _)| c == client)
                    .expect("live")
                    .1
                    .iter()
                    .find(|h| h.cvt_index == *index)
                    .map(|h| h.vbuid);
                if let Some(old) = old {
                    for (_, vbs) in clients.iter_mut() {
                        for h in vbs.iter_mut() {
                            if h.vbuid == old {
                                h.vbuid = new;
                            }
                        }
                    }
                }
            }
            (Op::CloneVb { client, .. }, Ok(out)) => {
                let handle = out.as_handle().expect("handle op");
                let entry = clients.iter_mut().find(|(c, _)| c == client).expect("live");
                entry.1.push(handle);
            }
            _ => {}
        }
        ops.push(op);
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole property: a random mixed op sequence over the FULL
    /// surface produces identical responses and identical MtlStats whether
    /// it runs sequentially through `System::execute` or as one
    /// `VbiService::submit` batch on a 1-shard service.
    #[test]
    fn submit_over_full_surface_matches_system(seed in any::<u64>(), len in 1usize..150) {
        let cfg = VbiConfig { phys_frames: 1 << 16, ..VbiConfig::vbi_full() };
        let ops = random_mixed_ops(seed, len, &cfg);

        let system = System::new(cfg.clone());
        let system_responses: Vec<OpResult> =
            ops.iter().map(|op| system.execute(op.clone())).collect();

        let service = VbiService::new(ServiceConfig::single(cfg));
        let service_responses = service.submit(&ops);

        prop_assert_eq!(&system_responses, &service_responses,
            "responses diverged (seed {})", seed);
        prop_assert_eq!(system.mtl().stats(), service.stats(),
            "MTL counters diverged (seed {})", seed);
    }

    /// The same sequences, executed op-by-op through `VbiService::execute`
    /// (the queue workers' path) instead of one batch — the async front
    /// end's execution semantics equal the synchronous adapter's too.
    #[test]
    fn op_by_op_service_matches_system(seed in any::<u64>(), len in 1usize..100) {
        let cfg = VbiConfig { phys_frames: 1 << 16, ..VbiConfig::vbi_full() };
        let ops = random_mixed_ops(seed, len, &cfg);

        let system = System::new(cfg.clone());
        let service = VbiService::new(ServiceConfig::single(cfg));
        for op in &ops {
            let want = system.execute(op.clone());
            prop_assert_eq!(&want, &service.execute(op.clone()),
                "op {:?} diverged op-by-op (seed {})", op, seed);
        }
        prop_assert_eq!(system.mtl().stats(), service.stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same random full-surface sequences, this time *awaited* through
    /// the waker-driven front end: every op carrying a client runs on that
    /// client's [`AsyncSession`] (minted on first use), the rest go through
    /// [`AsyncFront::execute`] — all sequentially under [`block_on`], so
    /// execution order matches the System replay. Responses and `MtlStats`
    /// must be identical: the async tag space, the waker registry, and the
    /// per-session budget add no observable behavior of their own.
    #[test]
    fn async_sessions_match_system(seed in any::<u64>(), len in 1usize..100) {
        use std::collections::HashMap;

        let cfg = VbiConfig { phys_frames: 1 << 16, ..VbiConfig::vbi_full() };
        let ops = random_mixed_ops(seed, len, &cfg);

        let system = System::new(cfg.clone());
        let front = AsyncFront::new(ServiceConfig::single(cfg));
        let mut sessions: HashMap<ClientId, AsyncSession> = HashMap::new();
        for op in &ops {
            let want = system.execute(op.clone());
            let got = match op.client() {
                // A tiny budget (2) on every session: the equivalence must
                // hold regardless of how tightly submissions are throttled.
                Some(client) => {
                    let session =
                        sessions.entry(client).or_insert_with(|| front.session_for(client, 2));
                    block_on(session.run(op.clone()))
                }
                None => block_on(front.execute(op.clone())),
            };
            prop_assert_eq!(&want, &got,
                "op {:?} diverged on the async front end (seed {})", op, seed);
        }
        prop_assert_eq!(system.mtl().stats(), front.service().stats(),
            "MTL counters diverged through AsyncSession (seed {})", seed);
        prop_assert_eq!(front.outstanding(), 0usize, "a waker entry leaked");
        prop_assert_eq!(front.queue().in_flight(), 0u64);
        prop_assert!(front.queue().try_reap().is_none(),
            "async completions must never reach the synchronous CQ");
    }

    /// The full-surface equivalence again, but with physical memory capped
    /// far below the traffic's working set so the sequences continuously
    /// run the evict/write-back/fault-in engine path. The pressure logic
    /// lives once in `vbi_core::ops`, so responses AND `MtlStats` —
    /// including `evictions`, `writebacks`, and `faults_in` — must stay
    /// identical between `System` and a 1-shard service.
    #[test]
    fn submit_under_pressure_matches_system(seed in any::<u64>(), len in 1usize..120) {
        let cfg = VbiConfig { phys_frames: 64, ..VbiConfig::vbi_full() };
        let ops = random_mixed_ops(seed, len, &cfg);

        let system = System::new(cfg.clone());
        let system_responses: Vec<OpResult> =
            ops.iter().map(|op| system.execute(op.clone())).collect();

        // A 1-shard service must shadow System under pressure (the
        // sibling-borrow fallback is multi-shard-only and must not fire).
        let service = VbiService::new(ServiceConfig::single(cfg));
        let service_responses = service.submit(&ops);

        prop_assert_eq!(&system_responses, &service_responses,
            "responses diverged under pressure (seed {})", seed);
        prop_assert_eq!(system.mtl().stats(), service.stats(),
            "pressure counters diverged (seed {})", seed);
        prop_assert_eq!(service.frames_borrowed(), 0u64,
            "a single-shard service must never borrow");
        prop_assert_eq!(system.audit(), Ok(()), "system (seed {})", seed);
        prop_assert_eq!(service.audit(), Ok(()), "service (seed {})", seed);
    }
}

/// The value the oversubscribed sequence stores in `page` of `vb` on `round`.
fn oversubscribed_value(round: u64, vb: u64, page: u64) -> u64 {
    (round << 32) | (vb << 16) | page
}

/// A fixed sequence that demonstrably overruns the frame budget of the
/// config it comes with — four VBs, 256 touched pages (each stored twice)
/// against 160 frames — followed by a load of every page; the last element
/// is the index of the first of those loads.
fn oversubscribed_sequence() -> (VbiConfig, Vec<Op>, usize) {
    let cfg = VbiConfig { phys_frames: 160, ..VbiConfig::vbi_full() };
    let scratch = System::new(cfg.clone());
    let client = scratch.create_client().unwrap().id();

    let mut ops = vec![Op::CreateClient];
    for _ in 0..4 {
        ops.push(Op::RequestVb {
            client,
            bytes: 256 << 10,
            props: VbProperties::NONE,
            perms: Rwx::READ_WRITE,
        });
    }
    for round in 0..2u64 {
        for vb in 0..4u64 {
            for page in 0..64u64 {
                ops.push(Op::StoreU64 {
                    client,
                    va: vbi_core::VirtualAddress::new(vb as usize, page << 12),
                    value: oversubscribed_value(round, vb, page),
                });
            }
        }
    }
    let verify_from = ops.len();
    for vb in 0..4u64 {
        for page in 0..64u64 {
            ops.push(Op::LoadU64 {
                client,
                va: vbi_core::VirtualAddress::new(vb as usize, page << 12),
            });
        }
    }
    (cfg, ops, verify_from)
}

#[test]
fn oversubscribed_sequence_evicts_identically_on_both_engines() {
    // The oversubscribed sequence must engage the evict/fault-in machinery
    // on both engines, return the exact values written (ground truth, not
    // just mutual agreement), and keep every counter identical. An
    // equivalence test that never evicts would prove nothing about the
    // pressure path.
    let (cfg, ops, verify_from) = oversubscribed_sequence();

    let system = System::new(cfg.clone());
    let system_responses: Vec<OpResult> = ops.iter().map(|op| system.execute(op.clone())).collect();

    let service = VbiService::new(ServiceConfig::single(cfg));
    let service_responses = service.submit(&ops);

    assert_eq!(system_responses, service_responses);
    for (i, response) in system_responses[verify_from..].iter().enumerate() {
        let (vb, page) = (i as u64 / 64, i as u64 % 64);
        assert_eq!(
            response.as_ref().ok().and_then(|out| out.as_u64()),
            Some(oversubscribed_value(1, vb, page)),
            "vb {vb} page {page} lost its final write"
        );
    }
    let stats = system.mtl().stats();
    assert_eq!(stats, service.stats());
    assert!(stats.evictions > 0, "sequence must engage the pressure path: {stats:?}");
    assert!(stats.faults_in > 0, "swapped pages must fault back in: {stats:?}");
    assert_eq!(system.audit(), Ok(()));
    assert_eq!(service.audit(), Ok(()));
}

#[test]
fn sharding_changes_counters_but_never_bytes() {
    // A 4-shard service partitions VBs differently (per-shard VBID slices,
    // per-shard TLBs), so counters may legitimately differ from System —
    // but every loaded value must still be identical: sharding is invisible
    // to data.
    let spec = benchmark("mcf").expect("known benchmark");
    let ops = trace_ops(&spec, 2020, 20_000);
    let system_loads = replay(&System::new(config()).create_client().unwrap(), &spec, &ops);
    let service = VbiService::new(ServiceConfig::new(4, config()));
    let service_loads = replay(&service.create_client().unwrap(), &spec, &ops);
    assert_eq!(system_loads, service_loads, "sharding must not change data");
    assert!(service.stats().translation_requests > 0);
}

/// The unified snapshot reports identical op accounting no matter which
/// front end carried the traffic: the same mixed sequence run through
/// `System::execute`, one `VbiService::submit` batch, tag-at-a-time
/// submissions on a `VbiQueue`, and the whole sequence queued on a
/// `VbiQueue` before anything is reaped (so its worker serves it in bursts,
/// cut wherever it happens to look) yields the same per-kind op counts and
/// error counts and the same merged MTL counters — only the front-end
/// label (and the sampled latency distributions) may differ.
#[test]
fn snapshot_agrees_across_all_three_front_ends() {
    use vbi_core::telemetry::{OpKind, Snapshot};
    use vbi_service::{Sqe, VbiQueue};

    fn op_counts(snap: &Snapshot) -> Vec<(OpKind, u64, u64)> {
        snap.ops.iter().filter(|o| o.count > 0).map(|o| (o.kind, o.count, o.errors)).collect()
    }

    let cfg = config();
    let ops = random_mixed_ops(4242, 400, &cfg);

    let system = System::new(cfg.clone());
    for op in &ops {
        let _ = system.execute(op.clone());
    }

    let service = VbiService::new(ServiceConfig::single(cfg.clone()));
    let _ = service.submit(&ops);

    // One op in flight at a time keeps the async front end's execution
    // order — and therefore its error accounting — identical to the
    // sequential replays above.
    let queue = VbiQueue::new(ServiceConfig::single(cfg.clone()));
    for (tag, op) in ops.iter().enumerate() {
        queue.submit(tag as u64, op.clone());
        assert!(queue.reap().is_some(), "queue dropped a completion");
    }

    // Depth 400 on one ring: same-ring FIFO and control-plane barriers keep
    // a burst equal to its sequential execution, wherever it is cut (the
    // forced-depth case is `queue.rs`'s deep-ring unit test).
    let deep = VbiQueue::new(ServiceConfig::single(cfg));
    deep.submit_all(
        ops.iter().enumerate().map(|(tag, op)| Sqe { tag: tag as u64, op: op.clone() }),
    );
    let mut tags: Vec<u64> = deep.drain().iter().map(|cqe| cqe.tag).collect();
    tags.sort_unstable();
    assert!(tags.into_iter().eq(0..ops.len() as u64), "every tag completes exactly once");

    let sys = system.snapshot();
    let svc = service.snapshot();
    let q = queue.snapshot();
    assert_eq!(sys.front_end, "system");
    assert_eq!(svc.front_end, "service");
    assert_eq!(q.front_end, "queue");
    assert_eq!(sys.total_ops(), ops.len() as u64, "system records every op exactly once");
    assert_eq!(op_counts(&sys), op_counts(&svc), "system vs service snapshot accounting");
    assert_eq!(op_counts(&sys), op_counts(&q), "system vs queue snapshot accounting");
    assert_eq!(sys.mtl, svc.mtl, "merged MTL views diverged");
    assert_eq!(sys.mtl, q.mtl, "merged MTL views diverged");
    let activity = q.queue.expect("queue snapshot carries queue activity");
    assert_eq!(activity.completed, ops.len() as u64);
    assert_eq!(activity.bursts, ops.len() as u64, "one op in flight: every burst is one op");
    let d = deep.snapshot();
    assert_eq!(op_counts(&sys), op_counts(&d), "system vs deep-queue snapshot accounting");
    assert_eq!(sys.mtl, d.mtl, "merged MTL views diverged");
    let activity = d.queue.expect("queue snapshot carries queue activity");
    assert_eq!(activity.completed, ops.len() as u64);
}

/// The trace ring tells the same story whichever way an op entered the
/// engine: the same sequence run with tracing on through
/// `System::execute`, `VbiService::execute` and one `VbiService::submit`
/// batch on a 1-shard machine yields the same multiset of outcome flags per
/// op kind — errors (failed checks included) and CVT-cache fallbacks for
/// the random mixed sequence on a roomy machine, fault-ins and evictions
/// for the oversubscribed one.
#[test]
fn trace_flags_agree_between_execute_and_submit() {
    use std::collections::BTreeMap;
    use vbi_core::telemetry::{Telemetry, TraceEvent};

    /// How many traced ops of each kind ended with each flag set.
    fn flags_per_kind(telemetry: &Telemetry, mask: u8) -> BTreeMap<(&'static str, u8), usize> {
        assert_eq!(telemetry.trace_dropped(), 0, "the ring must hold the whole sequence");
        let mut counts = BTreeMap::new();
        for event in telemetry.drain_trace() {
            *counts.entry((event.kind.name(), event.flags & mask)).or_insert(0) += 1;
        }
        counts
    }

    // Under pressure a fault-in invalidates the service's published CVT
    // slot, so the *next* check falls back — and a batch has already run
    // that check. The fallback bit is compared where nothing faults.
    const ERROR: u8 = TraceEvent::FLAG_ERROR;
    const FALLBACK: u8 = TraceEvent::FLAG_CVT_FALLBACK;
    const PRESSURE: u8 = TraceEvent::FLAG_FAULT_IN | TraceEvent::FLAG_EVICT;
    let roomy = config();
    let (pressured, pressured_ops, _) = oversubscribed_sequence();
    for (cfg, ops, mask, raised) in [
        (roomy.clone(), random_mixed_ops(4242, 400, &roomy), u8::MAX, ERROR | FALLBACK),
        (pressured, pressured_ops, !FALLBACK, PRESSURE),
    ] {
        let phys_frames = cfg.phys_frames;
        let cfg = VbiConfig { telemetry_tracing: true, trace_capacity: 1024, ..cfg };

        let system = System::new(cfg.clone());
        for op in &ops {
            let _ = system.execute(op.clone());
        }
        let executed = VbiService::new(ServiceConfig::single(cfg.clone()));
        for op in &ops {
            let _ = executed.execute(op.clone());
        }
        let submitted = VbiService::new(ServiceConfig::single(cfg));
        let _ = submitted.submit(&ops);

        let want = flags_per_kind(system.telemetry(), mask);
        assert_eq!(
            want.values().sum::<usize>(),
            ops.len(),
            "tracing times, and so traces, every op"
        );
        let seen = want.keys().fold(0, |seen, (_, flags)| seen | flags);
        assert_eq!(seen, raised, "{phys_frames} frames: the sequence must raise these flags");
        assert_eq!(
            want,
            flags_per_kind(executed.telemetry(), mask),
            "{phys_frames} frames: execute"
        );
        assert_eq!(
            want,
            flags_per_kind(submitted.telemetry(), mask),
            "{phys_frames} frames: submit"
        );
    }
}
