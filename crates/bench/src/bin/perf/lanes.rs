//! The lanes: one machine instance per front-end path, each fed the
//! identical op stream in a closed loop of [`CLIENTS`] clients with one op
//! in flight apiece.
//!
//! | lane | call | loop |
//! |---|---|---|
//! | `system` | `System::execute` | round-robin over the clients |
//! | `service` | `VbiService::execute` | round-robin over the clients |
//! | `submit` | `VbiService::submit` | one batch = one op per client |
//! | `queue` | `VbiQueue::submit` / `reap` | a client's next op is submitted when its completion is reaped |
//! | `async` | `AsyncSession::run` | one task per client on one `Executor`, budget 1 |
//!
//! Every lane folds each completion into its [`Record`] the same way, so
//! the records of two lanes can be compared word for word.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use vbi_core::client::ClientId;
use vbi_core::ops::{Op, OpOutput, OpResult};
use vbi_core::session::{ClientSession, SessionHost};
use vbi_core::telemetry::Snapshot;
use vbi_core::{System, VbiConfig};
use vbi_service::{
    thread_shared_lock_acquisitions, AsyncFront, AsyncSession, Executor, ServiceConfig, VbiQueue,
    VbiService,
};

use crate::stats::Percentiles;
use crate::trace::{now_ns, Span};
use crate::workload::{GenKind, GenOp, CLIENTS};

/// The synchronous lanes time one call in this many (`queue` and `async`
/// time every op: their latency is what the client waits, not a call).
pub const LATENCY_SAMPLE: usize = 2;
/// A traced lane records spans for one op in this many.
pub const SPAN_SAMPLE: usize = 64;

/// What one lane observed: a per-client fold of every completion, the
/// failure count, and the throughput and latency samples of every timed
/// slice.
#[derive(Debug, Default)]
pub struct Record {
    folds: Vec<u64>,
    seqs: Vec<u64>,
    /// Ops issued.
    pub attempted: u64,
    /// Ops whose outcome was not the expected one (an error, a wrong
    /// value, a VB on the wrong CVT index).
    pub failed: u64,
    /// The first such outcome, for the report.
    pub first_failure: Option<String>,
    /// Issue→completion, in ns: the samples of every timed slice, slice
    /// after slice.
    latencies: Vec<u32>,
    /// What each timed slice measured, in slice order.
    slices: Vec<SliceStats>,
}

/// One timed slice of one lane.
#[derive(Debug, Clone, PartialEq)]
struct SliceStats {
    /// Ops per second.
    rate: f64,
    /// Where the slice's latency samples lie in `Record::latencies`.
    samples: std::ops::Range<usize>,
}

fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23)
}

/// A stable small code for an error's variant (its `Debug` name hashed).
fn error_code(error: &vbi_core::VbiError) -> u64 {
    let debug = format!("{error:?}");
    debug
        .bytes()
        .take_while(u8::is_ascii_alphanumeric)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// The word a completion folds to — (Ok/Err kind, loaded value or CVT
/// index; never a VBUID, placement order differs when ops overlap) — and
/// whether it is the outcome the generator expected.
fn outcome(gen: &GenOp, result: &OpResult) -> (u64, bool) {
    match (gen.kind, result) {
        (GenKind::Load, Ok(OpOutput::U64(v))) => (mix(1, *v), *v == gen.value),
        (GenKind::Store | GenKind::Release, Ok(OpOutput::Unit)) => (mix(2, 0), true),
        (GenKind::Request, Ok(OpOutput::Handle(h))) => {
            (mix(3, h.cvt_index as u64), h.cvt_index == gen.index as usize)
        }
        (_, Ok(_)) => (mix(4, 0), false),
        (_, Err(e)) => (mix(5, error_code(e)), false),
    }
}

impl Record {
    /// An empty record with room for `latency_capacity` samples.
    pub fn new(latency_capacity: usize) -> Self {
        Self {
            folds: (1..=CLIENTS as u64).collect(),
            seqs: vec![0; CLIENTS],
            latencies: Vec::with_capacity(latency_capacity),
            ..Self::default()
        }
    }

    /// Folds client `c`'s next completion.
    pub fn complete(&mut self, c: usize, gen: &GenOp, result: &OpResult) {
        let (word, ok) = outcome(gen, result);
        self.folds[c] = mix(mix(self.folds[c], self.seqs[c]), word);
        self.seqs[c] += 1;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure
                .get_or_insert_with(|| format!("client {c} {gen:?} completed with {result:?}"));
        }
    }

    fn latency(&mut self, start: u64, end: u64) {
        self.latencies.push(u32::try_from(end - start).unwrap_or(u32::MAX));
    }

    /// Ops per second of every timed slice, in slice order.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices.iter().map(|s| s.rate).collect()
    }

    /// Percentiles of the latency samples of the timed slices `keep` marks,
    /// pooled. The samples are gathered and sorted where they lie — a copy
    /// would make the peak RSS depend on how many slices were kept — so
    /// this consumes them: call it once.
    pub fn pooled_latency(&mut self, keep: &[bool]) -> Percentiles {
        let mut pooled = 0;
        for (slice, _) in self.slices.iter().zip(keep).filter(|(_, keep)| **keep) {
            self.latencies.copy_within(slice.samples.clone(), pooled);
            pooled += slice.samples.len();
        }
        self.slices.clear();
        Percentiles::of(&mut self.latencies[..pooled])
    }

    /// How many ops client `c` has completed.
    pub fn seq(&self, c: usize) -> u64 {
        self.seqs[c]
    }

    /// The per-client folds combined commutatively: equal on two lanes iff
    /// every client saw the same outcomes in the same order.
    pub fn digest(&self) -> u64 {
        self.folds.iter().fold(0, |sum, f| sum.wrapping_add(*f))
    }
}

/// Which front end a lane drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontKind {
    /// `System::execute`.
    System,
    /// `VbiService::execute`.
    Service,
    /// `VbiService::submit`.
    Submit,
    /// `VbiQueue::submit` / `reap`.
    Queue,
    /// `AsyncSession::run` on one `Executor`.
    Async,
}

enum Front {
    System(System),
    Service(VbiService),
    Submit(VbiService),
    Queue(VbiQueue),
    Async(AsyncFront, Vec<AsyncSession>),
}

/// One machine instance, its clients, and what it has observed so far.
pub struct Lane {
    /// The lane's name in every report.
    pub name: &'static str,
    front: Front,
    ids: Vec<ClientId>,
    /// Completions, failures, latencies, slice rates.
    pub record: Record,
    /// Sampled spans, when the lane is traced.
    pub spans: Option<Vec<Span>>,
    /// The machine right after set-up; counters are reported as deltas
    /// against it.
    pub before: Snapshot,
    /// Counted shared-lock acquisitions the driving thread made inside the
    /// lane's slices.
    pub shared_locks: u64,
}

/// Runs the generated set-up ops of every client on a fresh machine and
/// returns the client ids it handed out.
pub fn apply_setup<H: SessionHost>(
    create: impl Fn() -> vbi_core::Result<ClientSession<H>>,
    setup: &[Vec<GenOp>],
) -> Result<Vec<ClientId>, String> {
    let mut ids = Vec::with_capacity(setup.len());
    for ops in setup {
        let session = create().map_err(|e| format!("set-up: create_client failed: {e:?}"))?;
        for gen in ops {
            let result = session.host().run_op(gen.op(session.id()));
            if !outcome(gen, &result).1 {
                return Err(format!("set-up: {gen:?} completed with {result:?}"));
            }
        }
        ids.push(session.id());
    }
    Ok(ids)
}

/// One full set-up of the `service` path — construct, create the clients,
/// request their VBs, pre-touch the working set — timed. The machine is
/// dropped; this is one sample of `setup_s`.
pub fn timed_service_setup(config: &VbiConfig, setup: &[Vec<GenOp>]) -> Result<f64, String> {
    let started = Instant::now();
    let service = VbiService::new(ServiceConfig::single(config.clone()));
    apply_setup(|| service.create_client(), setup)?;
    Ok(started.elapsed().as_secs_f64())
}

impl Lane {
    /// Builds the machine (`config`, one shard), sets its clients up, and
    /// snapshots it. `latency_capacity` is how many ops its timed slices
    /// will hold, so recording a sample never reallocates.
    pub fn build(
        name: &'static str,
        kind: FrontKind,
        config: &VbiConfig,
        setup: &[Vec<GenOp>],
        traced: bool,
        latency_capacity: usize,
    ) -> Result<Lane, String> {
        let record = Record::new(latency_capacity);
        let single = || ServiceConfig::single(config.clone());
        let (front, ids) = match kind {
            FrontKind::System => {
                let system = System::new(config.clone());
                let ids = apply_setup(|| system.create_client(), setup)?;
                (Front::System(system), ids)
            }
            FrontKind::Service | FrontKind::Submit => {
                let service = VbiService::new(single());
                let ids = apply_setup(|| service.create_client(), setup)?;
                let front = if kind == FrontKind::Service {
                    Front::Service(service)
                } else {
                    Front::Submit(service)
                };
                (front, ids)
            }
            FrontKind::Queue => {
                let queue = VbiQueue::new(single());
                let ids = apply_setup(|| queue.create_client(), setup)?;
                (Front::Queue(queue), ids)
            }
            FrontKind::Async => {
                let front = AsyncFront::new(single());
                let ids = apply_setup(|| front.service().create_client(), setup)?;
                let sessions = ids.iter().map(|id| front.session_for(*id, 1)).collect();
                (Front::Async(front, sessions), ids)
            }
        };
        let mut lane = Lane {
            name,
            front,
            ids,
            record,
            spans: traced.then(Vec::new),
            before: Snapshot::default(),
            shared_locks: 0,
        };
        lane.before = lane.snapshot();
        Ok(lane)
    }

    /// The machine's unified snapshot, as its front end reports it.
    pub fn snapshot(&self) -> Snapshot {
        match &self.front {
            Front::System(system) => system.snapshot(),
            Front::Service(service) | Front::Submit(service) => service.snapshot(),
            Front::Queue(queue) => queue.snapshot(),
            Front::Async(front, _) => front.queue().snapshot(),
        }
    }

    /// The service under the lane (`None` for `system`).
    pub fn service(&self) -> Option<&VbiService> {
        match &self.front {
            Front::System(_) => None,
            Front::Service(service) | Front::Submit(service) => Some(service),
            Front::Queue(queue) => Some(queue.service()),
            Front::Async(front, _) => Some(front.service()),
        }
    }

    /// `None` when the front end's completion accounting balances:
    /// everything submitted was completed and nothing is outstanding.
    pub fn accounting_error(&self) -> Option<String> {
        let (queue, outstanding) = match &self.front {
            Front::Queue(queue) => (queue, 0),
            Front::Async(front, _) => (front.queue(), front.outstanding()),
            _ => return None,
        };
        let (completed, in_flight) = (queue.completed(), queue.in_flight());
        (completed != self.record.attempted || in_flight != 0 || outstanding != 0).then(|| {
            format!(
                "{}: submitted {} completed {completed} in_flight {in_flight} outstanding \
                 {outstanding}",
                self.name, self.record.attempted
            )
        })
    }

    /// Runs one round-major slice through the lane. A `timed` slice adds
    /// its throughput and latencies to the record; an untimed (warm-up)
    /// one is still folded and checked.
    pub fn run_slice(&mut self, ops: &[GenOp], timed: bool) {
        let first_sample = self.record.latencies.len();
        let locks = thread_shared_lock_acquisitions();
        let (name, ids) = (self.name, &self.ids);
        let (record, spans) = (&mut self.record, &mut self.spans);
        let seconds = match &self.front {
            Front::System(system) => {
                run_execute(|op| system.execute(op), name, ids, ops, record, spans)
            }
            Front::Service(service) => {
                run_execute(|op| service.execute(op), name, ids, ops, record, spans)
            }
            Front::Submit(service) => run_submit(service, name, ids, ops, record, spans),
            Front::Queue(queue) => run_queue(queue, name, ids, ops, record, spans),
            Front::Async(_, sessions) => run_async(sessions, name, ops, record, spans),
        };
        self.shared_locks += thread_shared_lock_acquisitions() - locks;
        if timed {
            let samples = first_sample..self.record.latencies.len();
            self.record.slices.push(SliceStats { rate: ops.len() as f64 / seconds, samples });
        } else {
            self.record.latencies.truncate(first_sample);
        }
    }
}

fn sampled(spans: &Option<Vec<Span>>, seq: u64) -> bool {
    spans.is_some() && seq.is_multiple_of(SPAN_SAMPLE as u64)
}

/// `system` and `service`: one synchronous call per op.
fn run_execute(
    execute: impl Fn(Op) -> OpResult,
    lane: &'static str,
    ids: &[ClientId],
    ops: &[GenOp],
    record: &mut Record,
    spans: &mut Option<Vec<Span>>,
) -> f64 {
    let started = Instant::now();
    for (i, gen) in ops.iter().enumerate() {
        let c = i % CLIENTS;
        let op = gen.op(ids[c]);
        let result = if i % LATENCY_SAMPLE == 0 {
            let start = now_ns();
            let result = execute(op);
            let end = now_ns();
            record.latency(start, end);
            if sampled(spans, i as u64) {
                let trace_id = Span::trace_id(c, record.seq(c));
                let span = Span { name: "execute", lane, start, end, parent: None, trace_id };
                spans.as_mut().expect("sampled").push(span);
            }
            result
        } else {
            execute(op)
        };
        record.complete(c, gen, &result);
    }
    started.elapsed().as_secs_f64()
}

/// `submit`: one batch per round, one op per client.
fn run_submit(
    service: &VbiService,
    lane: &'static str,
    ids: &[ClientId],
    ops: &[GenOp],
    record: &mut Record,
    spans: &mut Option<Vec<Span>>,
) -> f64 {
    let started = Instant::now();
    let mut batch = Vec::with_capacity(CLIENTS);
    for (r, round) in ops.chunks(CLIENTS).enumerate() {
        batch.clear();
        batch.extend(round.iter().zip(ids).map(|(gen, id)| gen.op(*id)));
        // A batch is CLIENTS ops, so sample batches that much less often.
        let traced = sampled(spans, (r * CLIENTS) as u64);
        let start = if traced { now_ns() } else { 0 };
        let results = service.submit(&batch);
        if traced {
            let trace_id = Span::trace_id(0, record.seq(0));
            let span = Span { name: "submit", lane, start, end: now_ns(), parent: None, trace_id };
            spans.as_mut().expect("sampled").push(span);
        }
        for (c, (gen, result)) in round.iter().zip(&results).enumerate() {
            record.complete(c, gen, result);
        }
    }
    started.elapsed().as_secs_f64()
}

/// `queue`: every client keeps one op in flight; its next op is submitted
/// when its completion is reaped. The tag is the client index.
fn run_queue(
    queue: &VbiQueue,
    lane: &'static str,
    ids: &[ClientId],
    ops: &[GenOp],
    record: &mut Record,
    spans: &mut Option<Vec<Span>>,
) -> f64 {
    let started = Instant::now();
    let rounds = ops.len() / CLIENTS;
    // Issues client `c`'s op of round `r`; returns when it was issued and,
    // for a sampled op, the extent of the `queue.submit` call.
    let issue = |c: usize, r: usize, now: u64, traced: bool| {
        let call_start = if traced { now_ns() } else { 0 };
        queue.submit(c as u64, ops[r * CLIENTS + c].op(ids[c]));
        (now, traced.then(|| (call_start, now_ns())))
    };
    let mut round = [0usize; CLIENTS];
    let mut in_flight = [(0u64, None::<(u64, u64)>); CLIENTS];
    for (c, slot) in in_flight.iter_mut().enumerate() {
        *slot = issue(c, 0, now_ns(), sampled(spans, record.seq(c)));
    }
    for _ in 0..ops.len() {
        let reap_start = if spans.is_some() { now_ns() } else { 0 };
        let cqe = queue.reap().expect("ops are in flight");
        let now = now_ns();
        let c = cqe.tag as usize;
        let (start, submit_call) = in_flight[c];
        record.latency(start, now);
        if let (Some(spans), Some((s, e))) = (spans.as_mut(), submit_call) {
            let trace_id = Span::trace_id(c, record.seq(c));
            let parent = Some(spans.len());
            spans.push(Span { name: "op", lane, start, end: now, parent: None, trace_id });
            spans.push(Span { name: "queue.submit", lane, start: s, end: e, parent, trace_id });
            let (name, start) = ("queue.reap", reap_start);
            spans.push(Span { name, lane, start, end: now, parent, trace_id });
        }
        record.complete(c, &ops[round[c] * CLIENTS + c], &cqe.result);
        round[c] += 1;
        if round[c] < rounds {
            in_flight[c] = issue(c, round[c], now, sampled(spans, record.seq(c)));
        }
    }
    started.elapsed().as_secs_f64()
}

/// `async`: one task per client awaits its ops in order; completions wake
/// the tasks on this thread's executor.
fn run_async(
    sessions: &[AsyncSession],
    lane: &'static str,
    ops: &[GenOp],
    record: &mut Record,
    spans: &mut Option<Vec<Span>>,
) -> f64 {
    // Tasks are 'static and single-threaded: they share the slice and the
    // record through `Rc`s, handed back when the executor has run dry.
    let ops: Rc<[GenOp]> = ops.into();
    let shared = Rc::new(RefCell::new((std::mem::take(record), spans.take())));
    let started = Instant::now();
    let mut executor = Executor::new();
    for (c, session) in sessions.iter().enumerate() {
        let (session, ops, shared) = (session.clone(), Rc::clone(&ops), Rc::clone(&shared));
        executor.spawn(async move {
            for gen in ops.iter().skip(c).step_by(CLIENTS) {
                let start = now_ns();
                let result = session.run(gen.op(session.id())).await;
                let end = now_ns();
                let mut guard = shared.borrow_mut();
                let (record, spans) = &mut *guard;
                record.latency(start, end);
                if sampled(spans, record.seq(c)) {
                    let trace_id = Span::trace_id(c, record.seq(c));
                    let span = Span { name: "await", lane, start, end, parent: None, trace_id };
                    spans.as_mut().expect("sampled").push(span);
                }
                record.complete(c, gen, &result);
            }
        });
    }
    executor.run();
    let seconds = started.elapsed().as_secs_f64();
    drop(executor);
    let (r, s) = Rc::try_unwrap(shared).expect("every task has finished").into_inner();
    (*record, *spans) = (r, s);
    seconds
}
