//! The layers, measured from outside: spans around one public call each.
//!
//! The front-end rows come from the lanes (`bench`). The engine rows come
//! from here: the same stream replayed on a sibling `System` *decomposed
//! through public functions only* — `session.access` (the check), then
//! `ops::run_checked_pressured` under `System::mtl_mut()` (the MTL half).
//! Check + MTL half is the engine's own definition of a data-plane op, so
//! the sibling must end with the digest and `MtlStats` of the undecomposed
//! `system` lane; that equality is asserted, and it is what licenses
//! reading `engine.self_ns` as whole minus children.

use std::time::Instant;

use vbi_core::buddy::BuddyAllocator;
use vbi_core::mtl::MtlAccess;
use vbi_core::ops::{self, Op};
use vbi_core::session::ClientSession;
use vbi_core::swap::BackingStore;
use vbi_core::{ClientId, FrameCache, MtlStats, System, VbiAddress};
use vbi_service::{block_on, AsyncFront, ServiceConfig, VbiQueue, VbiService};

use crate::bench::{machine, stream, Options};
use crate::lanes::{apply_setup, FrontKind, Lane, Record, SPAN_SAMPLE};
use crate::report::Values;
use crate::stats::{median, Percentiles};
use crate::trace::{median_duration, median_self_time, now_ns, Span};
use crate::workload::{GenKind, GenOp, Workload, CLIENTS};

/// The fixed-length single-threaded pass through `System` behind the
/// `exact.*` counters. Its length is pinned per workload and independent
/// of `--seconds`, so the counters repeat bit for bit for one seed.
pub fn exact_pass(workload: Workload, seed: u64, values: &mut Values) -> Result<(), String> {
    let (mut gen, setup) = stream(workload, seed);
    let mut lane = Lane::build("exact", FrontKind::System, &machine(workload), &setup, false, 0)?;
    lane.run_slice(&gen.slice(workload.spec().exact_rounds), false);
    if let Some(failure) = &lane.record.first_failure {
        return Err(format!("exact pass: {failure}"));
    }
    let after = lane.snapshot();
    let mtl = after.mtl;
    for (name, count) in [
        ("exact.translation_requests", mtl.translation_requests),
        ("exact.tlb_hits", mtl.tlb_hits),
        ("exact.vit_cache_hits", mtl.vit_cache_hits),
        ("exact.walks", mtl.walks),
        ("exact.table_accesses", mtl.walk_table_accesses),
        ("exact.pages_allocated", mtl.pages_allocated),
        ("exact.frame_cache_hits", mtl.frame_cache_hits),
        ("exact.frame_cache_refills", mtl.frame_cache_refills),
        ("exact.evictions", mtl.evictions),
        ("exact.writebacks", mtl.writebacks),
        ("exact.faults_in", mtl.faults_in),
        ("exact.swap_occupancy", after.swap_occupancy),
        ("exact.free_frames", after.free_frames),
        // Not a counter of the machine but of its answers: moves with the
        // seed even where every machine counter is structural (read_hot).
        ("exact.digest32", lane.record.digest() & 0xFFFF_FFFF),
    ] {
        values.insert(name, count as f64);
    }
    Ok(())
}

fn median_of(samples: &[u32]) -> f64 {
    median(&samples.iter().map(|&s| f64::from(s)).collect::<Vec<_>>())
}

fn since(start: u64) -> u32 {
    u32::try_from(now_ns() - start).unwrap_or(u32::MAX)
}

/// Durations the decomposed replay collects, by what the span was around.
#[derive(Default)]
struct Decomposed {
    check: Vec<u32>,
    half: Vec<u32>,
    half_first_touch: Vec<u32>,
    half_fault: Vec<u32>,
    half_hit: Vec<u32>,
    request: Vec<u32>,
    release: Vec<u32>,
}

/// The decomposed sibling once the stream has been replayed on it.
struct Replay {
    durations: Decomposed,
    record: Record,
    system: System,
    ids: Vec<ClientId>,
    /// (client index, op) of the final slice: addresses still mapped.
    last_slice: Vec<(usize, GenOp)>,
}

/// Replays the stream on a sibling `System`, each data-plane op split into
/// its check and its MTL half, control-plane ops spanned whole.
fn decomposed_replay(
    options: Options,
    rounds: usize,
    spans: &mut Vec<Span>,
) -> Result<Replay, String> {
    const LANE: &str = "system_decomposed";
    let (mut gen, setup) = stream(options.workload, options.seed);
    let system = System::new(machine(options.workload));
    let ids = apply_setup(|| system.create_client(), &setup)?;
    let sessions: Vec<_> = ids.iter().map(|id| ClientSession::bind(system.clone(), *id)).collect();
    let mut record = Record::new(0);
    let mut out = Decomposed::default();
    let mut last_slice = Vec::new();
    for slice in 0..=options.timed_slices() {
        let slice_ops = gen.slice(rounds);
        for (i, gen_op) in slice_ops.iter().enumerate() {
            let c = i % CLIENTS;
            let op = gen_op.op(ids[c]);
            let traced = i % SPAN_SAMPLE == 0;
            let trace_id = Span::trace_id(c, record.seq(c));
            let op_span = spans.len();
            let child = |spans: &mut Vec<Span>, name, start, end| {
                if traced {
                    let parent = Some(op_span);
                    spans.push(Span { name, lane: LANE, start, end, parent, trace_id });
                }
            };
            let start = now_ns();
            if traced {
                // The op span; its end is patched once the op is done.
                spans.push(Span {
                    name: "op",
                    lane: LANE,
                    start,
                    end: start,
                    parent: None,
                    trace_id,
                });
            }
            let result = match op.checked_access() {
                Some((_, va, kind)) => {
                    let checked = sessions[c].access(va, kind);
                    let checked_at = now_ns();
                    child(spans, "check", start, checked_at);
                    checked.and_then(|checked| {
                        let (result, faulted) =
                            ops::run_checked_pressured(&mut system.mtl_mut(), &op, checked.address);
                        let done = now_ns();
                        child(spans, "mtl_half", checked_at, done);
                        if slice > 0 {
                            let half = u32::try_from(done - checked_at).unwrap_or(u32::MAX);
                            out.check.push((checked_at - start) as u32);
                            out.half.push(half);
                            let class = if gen_op.first_touch {
                                &mut out.half_first_touch
                            } else if faulted {
                                &mut out.half_fault
                            } else {
                                &mut out.half_hit
                            };
                            class.push(half);
                        }
                        result
                    })
                }
                None => {
                    let result = system.execute(op);
                    if slice > 0 {
                        match gen_op.kind {
                            GenKind::Request => out.request.push(since(start)),
                            _ => out.release.push(since(start)),
                        }
                    }
                    result
                }
            };
            if traced {
                spans[op_span].end = now_ns();
            }
            record.complete(c, gen_op, &result);
        }
        if slice == options.timed_slices() {
            last_slice = slice_ops.iter().enumerate().map(|(i, op)| (i % CLIENTS, *op)).collect();
        }
    }
    Ok(Replay { durations: out, record, system, ids, last_slice })
}

/// Replays the stream on a sibling service with a span around the
/// protection check of every data-plane op, on the front end that has the
/// lock-free read path.
fn check_replay(options: Options, rounds: usize) -> Result<(Vec<u32>, Vec<u32>, Record), String> {
    let (mut gen, setup) = stream(options.workload, options.seed);
    let service = VbiService::new(ServiceConfig::single(machine(options.workload)));
    let ids = apply_setup(|| service.create_client(), &setup)?;
    let sessions: Vec<_> = ids.iter().map(|id| ClientSession::bind(service.clone(), *id)).collect();
    let mut record = Record::new(0);
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for slice in 0..=options.timed_slices() {
        for (i, gen_op) in gen.slice(rounds).iter().enumerate() {
            let c = i % CLIENTS;
            let op = gen_op.op(ids[c]);
            if let Some((_, va, kind)) = op.checked_access() {
                let start = now_ns();
                let checked = sessions[c].access(va, kind);
                let took = since(start);
                let _ = std::hint::black_box(checked);
                if slice > 0 {
                    let bucket = if kind.is_write() { &mut writes } else { &mut reads };
                    bucket.push(took);
                }
            }
            record.complete(c, gen_op, &service.execute(op));
        }
    }
    Ok((reads, writes, record))
}

/// Median ns per iteration of `body`, over `batches` batches of `per_batch`.
fn median_ns_per(batches: usize, per_batch: usize, mut body: impl FnMut()) -> f64 {
    let per_iteration: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                body();
            }
            started.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&per_iteration)
}

/// Direct order-0 allocate+free pairs on the allocator's two public
/// layers, and direct 4 KiB page round trips through the backing store.
fn direct_calls(values: &mut Values) {
    const HEADROOM: u64 = 16;
    let config = vbi_core::VbiConfig::default();
    let mut buddy = BuddyAllocator::new(1 << 16);
    let mut cache = FrameCache::new(true, config.frame_cache_magazine, config.frame_cache_refill);
    let cache_pair = median_ns_per(20, 10_000, || {
        let frame = cache.allocate(&mut buddy, HEADROOM).expect("65536 free frames");
        cache.free(&mut buddy, std::hint::black_box(frame), HEADROOM);
    });
    values.insert("alloc.frame_cache_pair_ns", cache_pair);
    let mut buddy = BuddyAllocator::new(1 << 16);
    let buddy_pair = median_ns_per(20, 10_000, || {
        let frame = buddy.allocate(0).expect("65536 free frames");
        buddy.free(std::hint::black_box(frame), 0);
    });
    values.insert("alloc.buddy_pair_ns", buddy_pair);

    let mut store = BackingStore::new();
    let (mut stores, mut loads) = (Vec::new(), Vec::new());
    for batch in 0..20u32 {
        let pages: Vec<_> = (0..100).map(|i| Box::new([(batch + i) as u8 | 1; 4096])).collect();
        let started = Instant::now();
        let slots: Vec<_> = pages.into_iter().map(|page| store.store(page)).collect();
        stores.push(started.elapsed().as_nanos() as f64 / slots.len() as f64);
        let started = Instant::now();
        for slot in &slots {
            std::hint::black_box(store.load(*slot));
        }
        loads.push(started.elapsed().as_nanos() as f64 / slots.len() as f64);
    }
    values.insert("pressure.swap_store_ns", median(&stores));
    values.insert("pressure.swap_load_ns", median(&loads));
}

/// Round trips with a single op in flight. The worker sleeps between ops,
/// so this times the scheduler as much as the queue: reported, flagged
/// noisy, never gated.
fn depth1_round_trips(workload: Workload, values: &mut Values) -> Result<(), String> {
    const TRIPS: usize = 2_000;
    let single = || ServiceConfig::single(machine(workload));
    let one_client = [vec![GenOp::request(0, 4096), GenOp::store((0, 0), 7, true)]];
    let load = |id| Op::LoadU64 { client: id, va: vbi_core::VirtualAddress::new(0, 0) };

    let queue = VbiQueue::new(single());
    let id = apply_setup(|| queue.create_client(), &one_client)?[0];
    let mut trips: Vec<u32> = (0..TRIPS)
        .map(|_| {
            let start = now_ns();
            queue.submit(0, load(id));
            std::hint::black_box(queue.reap());
            since(start)
        })
        .collect();
    values.insert("queue.rtt_depth1_p50_ns", Percentiles::of(&mut trips).p50);

    let front = AsyncFront::new(single());
    let id = apply_setup(|| front.service().create_client(), &one_client)?[0];
    let session = front.session_for(id, 1);
    let mut trips: Vec<u32> = (0..TRIPS)
        .map(|_| {
            let start = now_ns();
            let _ = std::hint::black_box(block_on(session.run(load(id))));
            since(start)
        })
        .collect();
    values.insert("async.rtt_depth1_p50_ns", Percentiles::of(&mut trips).p50);
    Ok(())
}

/// `Mtl::translate` on working-set addresses of the last slice, then one
/// `Mtl::reclaim_frames` sweep — both on the decomposed sibling, after its
/// counters have been compared.
fn direct_mtl_calls(replay: &Replay, values: &mut Values) {
    let system = &replay.system;
    let addresses: Vec<VbiAddress> = replay
        .last_slice
        .iter()
        .filter_map(|(c, gen_op)| {
            let (client, va, kind) = gen_op.op(replay.ids[*c]).checked_access()?;
            let checked = system.execute(Op::Access { client, va, kind }).ok()?;
            match checked {
                vbi_core::OpOutput::Checked(checked) => Some(checked.address),
                _ => None,
            }
        })
        .take(20_000)
        .collect();
    let mut translate: Vec<u32> = Vec::with_capacity(addresses.len());
    for address in &addresses {
        let start = now_ns();
        let translation = system.mtl_mut().translate(*address, MtlAccess::Read);
        translate.push(since(start));
        let _ = std::hint::black_box(translation);
    }
    values.insert("mtl.translate_ns", median_of(&translate));
    const SWEEP: usize = 64;
    let start = now_ns();
    let evicted = system.mtl_mut().reclaim_frames(SWEEP);
    let took = f64::from(since(start));
    values.insert(
        "pressure.reclaim_ns_per_page",
        if evicted == 0 { 0.0 } else { took / evicted as f64 },
    );
}

/// Everything the traced run measures beyond the lanes; adds its values,
/// violations and spans to the run's.
pub fn measure(
    options: Options,
    rounds: usize,
    (system_digest, system_mtl): (u64, MtlStats),
    values: &mut Values,
    violations: &mut Vec<String>,
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let execute_span = median_duration(spans, "system", "execute");
    values.insert("queue.submit_call_ns", median_duration(spans, "queue", "queue.submit"));
    values.insert("queue.reap_call_ns", median_duration(spans, "queue", "queue.reap"));
    values.insert("queue.wait_ns", median_self_time(spans, "queue", "op"));
    let replay = decomposed_replay(options, rounds, spans)?;
    let d = &replay.durations;
    if replay.record.digest() != system_digest {
        violations.push("decomposed replay: digest differs from the system lane's".to_string());
    }
    if replay.system.mtl().stats() != system_mtl {
        violations.push("decomposed replay: MtlStats differ from the system lane's".to_string());
    }
    values.insert("mtl.half_ns", median_of(&d.half));
    values.insert("alloc.first_touch_ns", median_of(&d.half_first_touch));
    values.insert("pressure.fault_op_ns", median_of(&d.half_fault));
    values.insert("pressure.hit_op_ns", median_of(&d.half_hit));
    values.insert("alloc.request_vb_ns", median_of(&d.request));
    values.insert("alloc.release_vb_ns", median_of(&d.release));
    values.insert("engine.self_ns", execute_span - median_of(&d.check) - median_of(&d.half));
    direct_mtl_calls(&replay, values);

    let (reads, writes, record) = check_replay(options, rounds)?;
    if record.digest() != system_digest {
        violations.push("check replay: digest differs from the system lane's".to_string());
    }
    values.insert("check.read_ns", median_of(&reads));
    values.insert("check.write_ns", median_of(&writes));

    direct_calls(values);
    depth1_round_trips(options.workload, values)?;
    Ok(())
}
