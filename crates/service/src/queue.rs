//! `VbiQueue` — an io_uring-style submission/completion front end.
//!
//! The paper's MTL is an *asynchronous* hardware agent (§4): a core hands
//! translation-and-access work to the memory controller and continues
//! executing, with the result delivered off the critical path. [`VbiQueue`]
//! gives the sharded [`VbiService`] that shape in
//! software:
//!
//! * clients **submit** tagged operations ([`Sqe`]) without blocking on
//!   shard locks — submission routes the op to its home shard's MPSC ring
//!   (a stat-free CVT peek resolves the VBUID, served lock-free from the
//!   client's seqlock-published CVT cache when it hits) and returns
//!   immediately;
//! * one **worker thread per shard** drains its ring in FIFO order, a
//!   **burst** at a time: everything queued when it looks (up to a fixed
//!   cap) leaves the ring under one lock hold and runs through the engine's
//!   batch entry ([`vbi_core::ops::execute_batch`], via
//!   [`VbiService::submit`]) — the same pieces the synchronous sessions
//!   execute one op at a time, so queued execution has identical semantics,
//!   and a burst homed on one shard is one MTL visit. A burst of one is the
//!   single-op case; there is no other path;
//! * a burst's finished ops are posted together to a shared **completion
//!   queue** as tagged [`Cqe`]s, which any thread may **reap**, in
//!   completion order — out of order with respect to submission across
//!   shards, exactly like independent MTLs serving independent traffic.
//!
//! Neither side pays for a wake-up nobody is waiting for: a submitter
//! notifies the worker, and a worker the reapers, only when the other is
//! actually parked (a flag kept under the mutex that already guards the
//! deque), because every `Condvar` notify is a system call. A worker whose
//! ring ran dry yields once before it parks: on a shared CPU the clients it
//! just answered queue their next round first, and how large the next
//! burst is no longer hangs on whom the scheduler runs after a wake-up.
//!
//! ## Ordering
//!
//! Ops that target the same VB land on the same ring (routing is a pure
//! function of the VBUID) and therefore execute in submission order: a
//! burst keeps the batch entry's order — protection checks first, in
//! submission order; ops homed on one shard in submission order;
//! control-plane ops as barriers that everything submitted before them
//! precedes. Across VBs on different shards there is no ordering guarantee,
//! and an op that *depends* on another's completion (e.g. a store through a
//! CVT index returned by a queued `RequestVb`) must wait for its completion
//! to be reaped first — the io_uring contract.
//!
//! ## Faults
//!
//! A panic inside the engine is contained to the burst it happened in:
//! every op of that burst completes once with [`VbiError::EngineFault`]
//! (see `worker_loop`), the worker keeps serving. The cap on a burst is
//! what bounds that blast radius — and how long the shard lock is held
//! against synchronous callers, and the worker's buffers. It is a
//! constant, not a setting: a few dozen ops already spread the hand-off
//! (one ring-lock hold, one shard visit, one notify) thin enough that the
//! ops themselves are the cost, so a larger value buys nothing a caller
//! could want in exchange for a wider fault.
//!
//! Every completion is delivered exactly once: nothing is dropped on the
//! floor even when submitters race workers (see `queue_loses_no_completions`
//! in the workspace stress suite). Dropping the queue closes the rings, lets the
//! workers drain what was already submitted, and joins them.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use vbi_core::error::{Result, VbiError};
use vbi_core::ops::{Op, OpResult};

use crate::sync::unpoison;
use crate::{ServiceConfig, ServiceSession, VbiService};

/// Tag bit reserved for the async front end
/// ([`crate::async_session::AsyncFront`]): completions whose tag carries it
/// are dispatched to the installed [`CompletionHook`] (waking the awaiting
/// future) instead of being posted to the shared completion queue. Callers
/// reaping by hand should not mint tags with this bit set.
pub(crate) const ASYNC_TAG_BIT: u64 = 1 << 63;

/// Where async completions go: installed once by the async front end, then
/// invoked by every shard worker with the completions of a burst whose tags
/// carry [`ASYNC_TAG_BIT`] (drained from `burst`). The hook runs on the
/// worker thread, so implementations must be short — take the wakers out of
/// a registry and wake them, nothing more.
pub(crate) trait CompletionHook: Send + Sync + std::fmt::Debug {
    fn complete_burst(&self, burst: &mut Vec<Cqe>);
}

/// Most ops a worker takes from its ring at once (see the [module
/// docs](self), *Faults*, for what it bounds).
const BURST_CAP: usize = 64;

/// A submission-queue entry: one operation plus the caller's tag, echoed
/// verbatim on the completion so pipelined requests can be told apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sqe {
    /// Caller-chosen correlation tag.
    pub tag: u64,
    /// The operation to execute.
    pub op: Op,
}

/// A completion-queue entry: the tag of the finished [`Sqe`] and the
/// outcome the engine produced for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cqe {
    /// The tag of the submission this completes.
    pub tag: u64,
    /// The operation's outcome.
    pub result: OpResult,
}

/// A point-in-time view of the queue's occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDepth {
    /// SQEs sitting in submission rings, not yet picked up by a worker.
    pub queued: usize,
    /// Ops submitted whose completions have not been posted yet (queued,
    /// plus in execution).
    pub in_flight: u64,
    /// High-water mark of `queued` over the queue's lifetime.
    pub high_water: usize,
}

/// One shard's MPSC submission ring: submitters push, the shard's worker
/// pops in FIFO order, a burst at a time.
#[derive(Debug, Default)]
struct Ring {
    state: Mutex<RingState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct RingState {
    entries: VecDeque<Sqe>,
    closed: bool,
    /// The worker is parked in [`Ring::pop_burst`] and nobody has notified
    /// it yet.
    worker_waiting: bool,
}

impl Ring {
    fn push(&self, sqe: Sqe) {
        let mut state = unpoison(self.state.lock());
        state.entries.push_back(sqe);
        // The push that finds the worker parked takes the flag down and
        // owns the notify; the pushes behind it find a worker already on
        // its way.
        let wake = std::mem::take(&mut state.worker_waiting);
        drop(state);
        if wake {
            self.ready.notify_one();
        }
    }

    /// Blocks until something is queued, then moves everything queued (the
    /// oldest [`BURST_CAP`] entries at most) onto `tags`/`ops` under that
    /// one lock hold. `false` once the ring is closed *and* drained, so
    /// shutdown never abandons accepted work.
    ///
    /// The worker yields once before it parks. Whoever it just handed
    /// completions to is runnable and about to submit again; parked, the
    /// worker needs the first of those pushes to wake it, and on a shared
    /// CPU the scheduler then picks between it and the pusher — the next
    /// burst is one op or everything in flight, decided by timing, and
    /// throughput varied from run to run with it. After the yield the
    /// worker comes back to the whole round, never having parked, no push
    /// having notified. With a CPU to itself the yield returns at once.
    fn pop_burst(&self, tags: &mut Vec<u64>, ops: &mut Vec<Op>) -> bool {
        let mut state = unpoison(self.state.lock());
        let mut yielded = false;
        loop {
            if !state.entries.is_empty() {
                let burst = state.entries.len().min(BURST_CAP);
                for Sqe { tag, op } in state.entries.drain(..burst) {
                    tags.push(tag);
                    ops.push(op);
                }
                return true;
            }
            if state.closed {
                return false;
            }
            if !yielded {
                yielded = true;
                drop(state);
                std::thread::yield_now();
                state = unpoison(self.state.lock());
                continue;
            }
            // Raised and waited on under one lock hold: a push cannot land
            // in between without seeing it.
            state.worker_waiting = true;
            state = unpoison(self.ready.wait(state));
        }
    }

    fn close(&self) {
        unpoison(self.state.lock()).closed = true;
        self.ready.notify_all();
    }
}

/// The shared completion queue plus the in-flight accounting that lets
/// reapers distinguish "nothing yet" from "nothing ever".
#[derive(Debug, Default)]
struct CompletionQueue {
    state: Mutex<CqState>,
    posted: Condvar,
}

#[derive(Debug, Default)]
struct CqState {
    ready: VecDeque<Cqe>,
    /// Submitted ops whose completion has not been posted yet.
    in_flight: u64,
    /// High-water mark of `in_flight` — how deep the synchronous pipeline
    /// actually got (async submissions are metered separately, outside
    /// this mutex — see `Shared::async_in_flight`).
    inflight_high_water: u64,
    /// Threads parked in [`CompletionQueue::reap`].
    reapers_waiting: usize,
}

impl CompletionQueue {
    fn begin(&self) {
        let mut state = unpoison(self.state.lock());
        state.in_flight += 1;
        state.inflight_high_water = state.inflight_high_water.max(state.in_flight);
    }

    /// Posts a burst's completions (drained from `burst`) under one lock
    /// hold, with one notify — and only when a reaper is parked to hear it.
    fn post_burst(&self, burst: &mut Vec<Cqe>) {
        if burst.is_empty() {
            return;
        }
        let mut state = unpoison(self.state.lock());
        state.in_flight -= burst.len() as u64;
        state.ready.extend(burst.drain(..));
        let wake = state.reapers_waiting > 0;
        drop(state);
        // notify_all, not notify_one: with several blocked reapers, the one
        // woken here may consume an entry while another still needs to
        // observe `in_flight == 0` to return `None` instead of waiting for
        // a wakeup that will never come.
        if wake {
            self.posted.notify_all();
        }
    }

    fn try_reap(&self) -> Option<Cqe> {
        unpoison(self.state.lock()).ready.pop_front()
    }

    /// Blocks until a completion is available; `None` when nothing is in
    /// flight and the queue is empty (reaping more would wait forever).
    fn reap(&self) -> Option<Cqe> {
        let mut state = unpoison(self.state.lock());
        loop {
            if let Some(cqe) = state.ready.pop_front() {
                return Some(cqe);
            }
            if state.in_flight == 0 {
                return None;
            }
            state.reapers_waiting += 1;
            state = unpoison(self.posted.wait(state));
            state.reapers_waiting -= 1;
        }
    }

    fn in_flight(&self) -> u64 {
        unpoison(self.state.lock()).in_flight
    }

    fn inflight_high_water(&self) -> u64 {
        unpoison(self.state.lock()).inflight_high_water
    }
}

#[derive(Debug)]
struct Shared {
    rings: Vec<Ring>,
    cq: CompletionQueue,
    /// SQEs currently queued across all rings (not yet popped).
    queued: AtomicUsize,
    /// High-water mark of `queued`.
    high_water: AtomicUsize,
    /// Completions posted over the queue's lifetime.
    completed: AtomicU64,
    /// Bursts drained over the queue's lifetime.
    bursts: AtomicU64,
    /// In-flight async (hook-dispatched) ops, metered outside the CQ
    /// mutex: their completions never enter the shared completion queue,
    /// so their accounting must not serialize on it either — with the
    /// rings per-shard and the registry striped, this keeps the async hot
    /// path free of *any* shared lock. Reapers ignore them by
    /// construction (nothing will ever be posted for these tags).
    async_in_flight: AtomicU64,
    /// High-water mark of `async_in_flight`.
    async_inflight_high_water: AtomicU64,
    /// Async submissions that parked waiting for an in-flight budget slot
    /// (bumped by the async front end's backpressure gate).
    backpressure_waits: AtomicU64,
    /// Async completion dispatch, installed at most once (see
    /// [`CompletionHook`]).
    hook: std::sync::OnceLock<Arc<dyn CompletionHook>>,
}

/// The io_uring-style front end over a [`VbiService`]. See the [module
/// docs](self) for the model.
#[derive(Debug)]
pub struct VbiQueue {
    service: VbiService,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Round-robin cursor for ops with no deterministic home shard.
    rr: AtomicUsize,
}

impl VbiQueue {
    /// Builds a service from `config` and the queue over it: one
    /// submission ring and one worker thread per shard.
    pub fn new(config: ServiceConfig) -> Self {
        Self::over(VbiService::new(config))
    }

    /// Builds the queue over an existing service (the service handle stays
    /// usable for synchronous calls alongside the queue).
    pub fn over(service: VbiService) -> Self {
        let shards = service.shards();
        let shared = Arc::new(Shared {
            rings: (0..shards).map(|_| Ring::default()).collect(),
            cq: CompletionQueue::default(),
            queued: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            bursts: AtomicU64::new(0),
            async_in_flight: AtomicU64::new(0),
            async_inflight_high_water: AtomicU64::new(0),
            backpressure_waits: AtomicU64::new(0),
            hook: std::sync::OnceLock::new(),
        });
        let workers = (0..shards)
            .map(|ring| {
                let shared = Arc::clone(&shared);
                let service = service.clone();
                std::thread::spawn(move || worker_loop(ring, &service, &shared))
            })
            .collect();
        Self { service, shared, workers, rr: AtomicUsize::new(0) }
    }

    /// The service behind the queue (for synchronous setup calls and
    /// statistics).
    pub fn service(&self) -> &VbiService {
        &self.service
    }

    /// Registers a new memory client and returns its session — the
    /// synchronous per-client surface alongside the queue. Tagged
    /// submissions for the client build their [`Op`]s with
    /// [`ClientSession::id`](vbi_core::session::ClientSession::id).
    ///
    /// # Errors
    ///
    /// Returns `VbiError::OutOfClients`
    /// when all 2^16 IDs are live.
    pub fn create_client(&self) -> Result<ServiceSession> {
        self.service.create_client()
    }

    /// Submits one tagged operation and returns immediately; the outcome
    /// arrives as a [`Cqe`] carrying `tag`. Never blocks on a shard lock —
    /// routing costs at most a client-state peek.
    pub fn submit(&self, tag: u64, op: Op) {
        let ring = self.route(&op);
        if tag & ASYNC_TAG_BIT != 0 && self.shared.hook.get().is_some() {
            let depth = self.shared.async_in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.shared.async_inflight_high_water.fetch_max(depth, Ordering::Relaxed);
        } else {
            self.shared.cq.begin();
        }
        let depth = self.shared.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.shared.high_water.fetch_max(depth, Ordering::Relaxed);
        self.shared.rings[ring].push(Sqe { tag, op });
    }

    /// Submits a batch of entries (in order; same routing as
    /// [`VbiQueue::submit`]).
    pub fn submit_all<I: IntoIterator<Item = Sqe>>(&self, sqes: I) {
        for sqe in sqes {
            self.submit(sqe.tag, sqe.op);
        }
    }

    /// Picks the submission ring for an op: the home shard of the VB it
    /// touches when that is determined (same VB → same ring → FIFO
    /// execution), round-robin otherwise.
    fn route(&self, op: &Op) -> usize {
        let shards = self.shared.rings.len();
        if shards == 1 {
            return 0;
        }
        // Remaps route to the *source* shard's worker; the worker engages
        // the destination shard through the engine's ordered two-MTL
        // capability.
        if let Some((client, index)) = op.remap_source() {
            if let Some(vbuid) = self.service.peek_vbuid(client, index) {
                return self.service.shard_of(vbuid);
            }
        }
        match op {
            Op::Attach { vbuid, .. } | Op::AttachAt { vbuid, .. } | Op::Detach { vbuid, .. } => {
                return self.service.shard_of(*vbuid);
            }
            Op::ReleaseVb { client, index } => {
                if let Some(vbuid) = self.service.peek_vbuid(*client, *index) {
                    return self.service.shard_of(vbuid);
                }
            }
            _ => {
                if let Some((client, va, _)) = op.checked_access() {
                    if let Some(vbuid) = self.service.peek_vbuid(client, va.cvt_index()) {
                        return self.service.shard_of(vbuid);
                    }
                }
            }
        }
        self.rr.fetch_add(1, Ordering::Relaxed) % shards
    }

    /// Reaps one completion without blocking.
    pub fn try_reap(&self) -> Option<Cqe> {
        self.shared.cq.try_reap()
    }

    /// Reaps one completion, blocking while ops are in flight. Returns
    /// `None` when the queue is idle (nothing in flight, nothing ready) —
    /// reaping more would wait forever.
    pub fn reap(&self) -> Option<Cqe> {
        self.shared.cq.reap()
    }

    /// Reaps every outstanding completion, blocking until the queue is
    /// idle.
    pub fn drain(&self) -> Vec<Cqe> {
        let mut out = Vec::new();
        while let Some(cqe) = self.reap() {
            out.push(cqe);
        }
        out
    }

    /// Ops submitted whose completions have not been *posted* yet
    /// (synchronous pipeline plus async ops not yet dispatched).
    pub fn in_flight(&self) -> u64 {
        self.shared.cq.in_flight() + self.shared.async_in_flight.load(Ordering::SeqCst)
    }

    /// Completions posted over the queue's lifetime (reaped or not),
    /// including async completions dispatched to futures.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// High-water mark of ops in flight at once (submitted, completion not
    /// yet posted or consumed) over the queue's lifetime. The synchronous
    /// and async pipelines are metered independently (the async side never
    /// touches the CQ mutex); this reports the deeper of the two.
    pub fn inflight_high_water(&self) -> u64 {
        self.shared
            .cq
            .inflight_high_water()
            .max(self.shared.async_inflight_high_water.load(Ordering::Relaxed))
    }

    /// Async submissions that parked waiting for an in-flight budget slot
    /// — nonzero means backpressure actually engaged.
    pub fn backpressure_waits(&self) -> u64 {
        self.shared.backpressure_waits.load(Ordering::Relaxed)
    }

    /// Counts one async submission that had to wait for budget.
    pub(crate) fn note_backpressure_wait(&self) {
        self.shared.backpressure_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Installs the async completion hook. At most one front end may own
    /// the async tag space of a queue.
    ///
    /// # Panics
    ///
    /// Panics if a hook is already installed.
    pub(crate) fn install_hook(&self, hook: Arc<dyn CompletionHook>) {
        assert!(
            self.shared.hook.set(hook).is_ok(),
            "async completion hook already installed: one AsyncFront per VbiQueue"
        );
    }

    /// A snapshot of the queue occupancy (ring depth, in-flight count,
    /// lifetime high-water mark).
    pub fn depth(&self) -> QueueDepth {
        QueueDepth {
            queued: self.shared.queued.load(Ordering::Relaxed),
            in_flight: self.in_flight(),
            high_water: self.shared.high_water.load(Ordering::Relaxed),
        }
    }

    /// The unified observability snapshot — the service's
    /// [`VbiService::snapshot`] plus this queue's occupancy counters, with
    /// `front_end` relabeled `"queue"`. The ops the workers execute all
    /// funnel through the shared engine, so the op histograms here *are*
    /// the queue's op histograms; `completed / bursts` is how many ops the
    /// workers found queued per look at their ring.
    pub fn snapshot(&self) -> vbi_core::telemetry::Snapshot {
        let depth = self.depth();
        let mut snapshot = self.service.snapshot();
        snapshot.front_end = "queue";
        snapshot.queue = Some(vbi_core::telemetry::QueueActivity {
            queued: depth.queued as u64,
            in_flight: depth.in_flight,
            high_water: depth.high_water as u64,
            completed: self.completed(),
            bursts: self.shared.bursts.load(Ordering::Relaxed),
            inflight_high_water: self.inflight_high_water(),
            backpressure_waits: self.backpressure_waits(),
        });
        snapshot
    }

    /// Closes the rings, lets the workers finish everything already
    /// submitted, joins them, and returns the unreaped completions.
    pub fn shutdown(mut self) -> Vec<Cqe> {
        self.finish();
        let mut out = Vec::new();
        while let Some(cqe) = self.shared.cq.try_reap() {
            out.push(cqe);
        }
        out
    }

    fn finish(&mut self) {
        for ring in &self.shared.rings {
            ring.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for VbiQueue {
    fn drop(&mut self) {
        self.finish();
    }
}

/// One shard's worker: take a burst off the ring, run it through the
/// engine's batch entry, hand back its completions, repeat.
///
/// A panic inside the engine (an internal MTL invariant tripping, a
/// backend blowing up) must not kill the worker: that would strand the
/// burst's `in_flight` count and hang every blocked reaper forever,
/// silently. It is caught, and *every* op of the burst completes exactly
/// once with [`VbiError::EngineFault`] — consistent with the rest of the
/// crate, which unpoisons locks and keeps serving after a panicking holder.
/// None of them is re-executed: the ones ahead of the panic may already
/// have taken effect, and running them twice would be worse than reporting
/// a fault for an op that landed.
fn worker_loop(ring: usize, service: &VbiService, shared: &Shared) {
    let (mut tags, mut ops) = (Vec::with_capacity(BURST_CAP), Vec::with_capacity(BURST_CAP));
    let (mut posted, mut dispatched) = (Vec::new(), Vec::new());
    while shared.rings[ring].pop_burst(&mut tags, &mut ops) {
        shared.queued.fetch_sub(ops.len(), Ordering::Relaxed);
        shared.bursts.fetch_add(1, Ordering::Relaxed);
        let results =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.submit(&ops)))
                .unwrap_or_else(|panic| {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    vec![Err(VbiError::EngineFault(message)); ops.len()]
                });
        ops.clear();
        shared.completed.fetch_add(results.len() as u64, Ordering::Relaxed);
        // Async completions bypass the shared CQ entirely: the hook parks
        // them for their futures and wakes those, and the in-flight count
        // retires on its own atomic — no entry accumulates for a reaper
        // that will never come, and no shared mutex sits on the dispatch
        // path.
        let hook = shared.hook.get();
        for (tag, result) in tags.drain(..).zip(results) {
            let to_hook = hook.is_some() && tag & ASYNC_TAG_BIT != 0;
            if to_hook { &mut dispatched } else { &mut posted }.push(Cqe { tag, result });
        }
        if let Some(hook) = hook.filter(|_| !dispatched.is_empty()) {
            shared.async_in_flight.fetch_sub(dispatched.len() as u64, Ordering::SeqCst);
            hook.complete_burst(&mut dispatched);
        }
        shared.cq.post_burst(&mut posted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbi_core::client::{ClientId, VirtualAddress};
    use vbi_core::ops::OpOutput;
    use vbi_core::perm::Rwx;
    use vbi_core::vb::VbProperties;
    use vbi_core::VbiConfig;

    fn queue(shards: usize) -> VbiQueue {
        VbiQueue::new(ServiceConfig::new(
            shards,
            VbiConfig { phys_frames: 8192, ..VbiConfig::vbi_full() },
        ))
    }

    #[test]
    fn pipelined_ops_complete_with_their_tags() {
        let q = queue(4);
        let session = q.create_client().unwrap();
        let c = session.id();
        let vb = session.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        for i in 0..32u64 {
            q.submit(i, Op::StoreU64 { client: c, va: vb.at(i * 8), value: i * 3 });
        }
        let stores = q.drain();
        assert_eq!(stores.len(), 32);
        for cqe in &stores {
            assert_eq!(cqe.result, Ok(OpOutput::Unit));
        }
        for i in 0..32u64 {
            q.submit(100 + i, Op::LoadU64 { client: c, va: vb.at(i * 8) });
        }
        let mut loads = q.drain();
        assert_eq!(loads.len(), 32);
        loads.sort_by_key(|cqe| cqe.tag);
        for (i, cqe) in loads.iter().enumerate() {
            assert_eq!(cqe.tag, 100 + i as u64);
            assert_eq!(cqe.result, Ok(OpOutput::U64(i as u64 * 3)));
        }
    }

    #[test]
    fn same_vb_ops_execute_in_submission_order() {
        let q = queue(4);
        let session = q.create_client().unwrap();
        let c = session.id();
        let vb = session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        // A store burst to one cell: the last submitted value must win.
        for i in 0..100u64 {
            q.submit(i, Op::StoreU64 { client: c, va: vb.at(0), value: i });
        }
        q.submit(1000, Op::LoadU64 { client: c, va: vb.at(0) });
        let mut final_load = None;
        while let Some(cqe) = q.reap() {
            if cqe.tag == 1000 {
                final_load = Some(cqe.result);
            }
        }
        assert_eq!(final_load, Some(Ok(OpOutput::U64(99))));
    }

    #[test]
    fn control_plane_ops_flow_through_the_queue() {
        let q = queue(2);
        q.submit(1, Op::CreateClient);
        let cqe = q.reap().expect("completion arrives");
        assert_eq!(cqe.tag, 1);
        let client = cqe.result.unwrap().as_client().unwrap();
        q.submit(
            2,
            Op::RequestVb {
                client,
                bytes: 4096,
                props: VbProperties::NONE,
                perms: Rwx::READ_WRITE,
            },
        );
        let handle = q.reap().unwrap().result.unwrap().as_handle().unwrap();
        q.submit(3, Op::StoreU64 { client, va: handle.at(0), value: 7 });
        q.submit(4, Op::LoadU64 { client, va: handle.at(0) });
        let mut results: Vec<Cqe> = q.drain();
        results.sort_by_key(|c| c.tag);
        assert_eq!(results[1].result, Ok(OpOutput::U64(7)));
        q.submit(5, Op::DestroyClient { client });
        assert!(q.reap().unwrap().result.is_ok());
        assert!(!q.service().client_exists(client));
    }

    #[test]
    fn remap_ops_complete_through_the_queue() {
        let q = queue(4);
        let session = q.create_client().unwrap();
        let c = session.id();
        let vb = session.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        session.store_u64(vb.at(8), 2020).unwrap();
        let to = (q.service().shard_of(vb.vbuid) + 1) % q.service().shards();
        // Same source VB → same ring → FIFO: the migrate lands before the
        // dependent load and promote.
        q.submit(1, Op::Migrate { client: c, index: vb.cvt_index, to_shard: to });
        q.submit(2, Op::LoadU64 { client: c, va: vb.at(8) });
        q.submit(3, Op::Promote { client: c, index: vb.cvt_index });
        let mut cqes = q.drain();
        cqes.sort_by_key(|cqe| cqe.tag);
        let moved = cqes[0].result.as_ref().unwrap().as_handle().unwrap();
        assert_eq!(q.service().shard_of(moved.vbuid), to);
        assert_eq!(cqes[1].result, Ok(OpOutput::U64(2020)));
        let promoted = cqes[2].result.as_ref().unwrap().as_handle().unwrap();
        assert_eq!(promoted.cvt_index, vb.cvt_index);
        assert_eq!(session.load_u64(vb.at(8)).unwrap(), 2020);
        assert_eq!(q.service().stats().vbs_migrated, 1);
    }

    #[test]
    fn errors_are_completions_not_panics() {
        let q = queue(2);
        let c = q.create_client().unwrap().id();
        q.submit(9, Op::LoadU64 { client: c, va: VirtualAddress::new(42, 0) });
        q.submit(10, Op::DestroyClient { client: ClientId(999) });
        let mut cqes = q.drain();
        cqes.sort_by_key(|c| c.tag);
        assert!(cqes[0].result.is_err());
        assert!(cqes[1].result.is_err());
    }

    #[test]
    fn idle_reap_returns_none_and_shutdown_returns_unreaped() {
        let q = queue(1);
        assert!(q.reap().is_none(), "idle queue must not block");
        let session = q.create_client().unwrap();
        let c = session.id();
        let vb = session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        q.submit(1, Op::StoreU64 { client: c, va: vb.at(0), value: 1 });
        q.submit(2, Op::LoadU64 { client: c, va: vb.at(0) });
        let leftovers = q.shutdown();
        assert_eq!(leftovers.len(), 2, "accepted work completes before shutdown");
    }

    /// Spins (yielding) until `ready` holds — the tests below order
    /// themselves on state the other thread publishes, never on time — and
    /// fails the test if it still does not after ten seconds: what they
    /// guard against is a lost wake-up, which leaves the other thread
    /// parked for good. (Hence plain threads over `Arc`s, not scoped ones: a
    /// scope would wait for the parked thread before reporting anything.)
    fn until(what: &str, ready: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !ready() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting until {what}");
            std::thread::yield_now();
        }
    }

    fn joined<T>(what: &str, thread: JoinHandle<T>) -> T {
        until(what, || thread.is_finished());
        thread.join().unwrap()
    }

    fn sqe(tag: u64) -> Sqe {
        Sqe { tag, op: Op::CreateClient }
    }

    /// Runs a worker's ring side on its own thread: `(tags served, looks)`.
    fn ring_worker(ring: &Arc<Ring>, served: &Arc<AtomicU64>) -> JoinHandle<(Vec<u64>, u64)> {
        let (ring, served) = (Arc::clone(ring), Arc::clone(served));
        std::thread::spawn(move || {
            let (mut tags, mut ops, mut looks) = (Vec::new(), Vec::new(), 0);
            while ring.pop_burst(&mut tags, &mut ops) {
                served.fetch_add(ops.len() as u64, Ordering::SeqCst);
                ops.clear();
                looks += 1;
            }
            (tags, looks)
        })
    }

    fn worker_parked(ring: &Ring) -> bool {
        unpoison(ring.state.lock()).worker_waiting
    }

    #[test]
    fn every_blocked_reaper_returns_when_a_burst_leaves_nothing_in_flight() {
        let cq = Arc::new(CompletionQueue::default());
        cq.begin();
        cq.begin();
        let reapers: Vec<_> = (0..4)
            .map(|_| {
                let cq = Arc::clone(&cq);
                std::thread::spawn(move || cq.reap())
            })
            .collect();
        until("four reapers are parked", || unpoison(cq.state.lock()).reapers_waiting == 4);
        // One burst, one notify: two reapers get an entry, and the other
        // two must still wake to see `in_flight == 0`.
        let mut burst: Vec<Cqe> =
            (0..2).map(|tag| Cqe { tag, result: Ok(OpOutput::Unit) }).collect();
        cq.post_burst(&mut burst);
        assert!(burst.is_empty(), "post_burst drains the worker's buffer");
        let reaped =
            reapers.into_iter().filter_map(|r| joined("every reaper has returned", r)).count();
        assert_eq!(reaped, 2);
        assert_eq!(unpoison(cq.state.lock()).reapers_waiting, 0);
    }

    #[test]
    fn close_wakes_a_parked_worker_and_keeps_accepted_work() {
        let ring = Arc::new(Ring::default());
        let worker = ring_worker(&ring, &Arc::default());
        until("the worker is parked", || worker_parked(&ring));
        // Pushed and closed under the worker's nose: the push owns the one
        // notify, close adds its own; the entry is served before the ring
        // reports closed.
        ring.push(sqe(7));
        ring.close();
        assert_eq!(joined("the worker saw the ring closed", worker), (vec![7], 1));
    }

    #[test]
    fn a_push_on_either_side_of_the_workers_park_is_served() {
        let ring = Arc::new(Ring::default());
        // Before the worker looks: nobody is parked, so the push skips the
        // notify, and the worker's empty check finds the entry.
        ring.push(sqe(0));
        assert!(!worker_parked(&ring));
        const PUSHES: u64 = 2_000;
        let served = Arc::new(AtomicU64::new(0));
        let worker = ring_worker(&ring, &served);
        // After it parked: the flag is up, the push takes it down and
        // notifies.
        until("the worker is parked", || worker_parked(&ring));
        ring.push(sqe(1));
        // And in between: each push chases the worker into its park. A
        // wake-up lost in the window between its empty check and its wait
        // leaves `served` short.
        for tag in 2..=PUSHES {
            until("the push before was served", || served.load(Ordering::SeqCst) == tag);
            ring.push(sqe(tag));
        }
        ring.close();
        let (tags, _) = joined("the worker saw the ring closed", worker);
        assert!(tags.into_iter().eq(0..=PUSHES), "every push served, in FIFO order");
    }

    /// Parks shard 0's worker at the door of its MTL (the test holds the
    /// shard lock), queues `1 + 2·cap + 10` ops behind it — stores to one
    /// cell with a control-plane barrier in the middle — and lets go.
    #[test]
    fn a_deep_ring_is_served_in_capped_bursts_that_keep_submission_order() {
        let config = VbiConfig { phys_frames: 8192, ..VbiConfig::vbi_full() };
        let q = VbiQueue::new(ServiceConfig::single(config.clone()));
        let system = vbi_core::System::new(config.clone());
        let reference = VbiService::new(ServiceConfig::single(config));
        let session = q.create_client().unwrap();
        let c = session.id();
        let (a, b) = (
            session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap(),
            session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap(),
        );
        // The same set-up on the two machines the queue is compared with.
        let sys_session = system.create_client().unwrap();
        let ref_session = reference.create_client().unwrap();
        for _ in 0..2 {
            sys_session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
            ref_session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        }
        assert_eq!((sys_session.id(), ref_session.id()), (c, c));

        let mut ops: Vec<Op> = (0..2 * BURST_CAP as u64 + 7)
            .map(|i| Op::StoreU64 { client: c, va: a.at(0), value: i })
            .collect();
        // A barrier in the second burst: `b` answers before its release and
        // faults after it, only if the release ran exactly in place.
        let barrier = BURST_CAP + BURST_CAP / 2;
        ops.splice(
            barrier..barrier,
            [
                Op::StoreU64 { client: c, va: b.at(0), value: 5 },
                Op::ReleaseVb { client: c, index: b.cvt_index },
                Op::LoadU64 { client: c, va: b.at(0) },
            ],
        );
        ops.push(Op::LoadU64 { client: c, va: a.at(0) });
        let last_store = 2 * BURST_CAP as u64 + 6;
        assert_eq!(ops.len(), 1 + 2 * BURST_CAP + 10);

        let shard = &q.service().inner.shards[0];
        let door = unpoison(shard.mtl.lock());
        let contended = q.service().contention()[0].contended;
        q.submit(0, ops[0].clone());
        // The worker took a burst of one, passed the check, and blocks on
        // the shard lock; everything else queues up behind it.
        until("the worker waits at the shard lock", || {
            q.service().contention()[0].contended == contended + 1
        });
        for (tag, op) in ops.iter().enumerate().skip(1) {
            q.submit(tag as u64, op.clone());
        }
        assert_eq!(q.depth().queued, ops.len() - 1);
        let before = q.service().contention()[0].acquisitions;
        drop(door);
        let cqes = q.drain();
        // (`before` was read with the first burst's visit already counted.)
        let visits = 1 + q.service().contention()[0].acquisitions - before;

        // Every tag once, in submission order: one ring, one worker, and
        // bursts posted whole.
        assert!(cqes.iter().map(|cqe| cqe.tag).eq(0..ops.len() as u64));
        // 1 + cap + cap + 10: the ring was never taken deeper than the cap.
        let bursts = [1, BURST_CAP, BURST_CAP, 10];
        assert_eq!(q.snapshot().queue.unwrap().bursts, bursts.len() as u64);
        // Same-VB FIFO and the barrier, against the sequential machine.
        for (cqe, op) in cqes.iter().zip(&ops) {
            assert_eq!(cqe.result, system.execute(op.clone()), "tag {} {op:?}", cqe.tag);
        }
        assert_eq!(cqes.last().unwrap().result, Ok(OpOutput::U64(last_store)));
        assert_eq!(cqes[barrier].result, Ok(OpOutput::Unit));
        assert!(cqes[barrier + 2].result.is_err(), "the load behind the release faults");
        assert_eq!(q.service().stats(), system.mtl().stats());
        // A burst visits the shard exactly as a `submit` of the same ops
        // does — once per run of data ops, not once per op.
        let ref_before = reference.contention()[0].acquisitions;
        let mut at = 0;
        for burst in bursts {
            reference.submit(&ops[at..at + burst]);
            at += burst;
        }
        assert_eq!(visits, reference.contention()[0].acquisitions - ref_before);
        assert!(visits < 10, "{visits} shard visits for {} ops", ops.len());
    }

    #[test]
    fn depth_reports_high_water() {
        let q = queue(2);
        let session = q.create_client().unwrap();
        let c = session.id();
        let vb = session.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        for i in 0..64u64 {
            q.submit(i, Op::StoreU64 { client: c, va: vb.at(i * 8), value: i });
        }
        q.drain();
        let depth = q.depth();
        assert_eq!(depth.queued, 0);
        assert_eq!(depth.in_flight, 0);
        assert!(depth.high_water >= 1, "at least one SQE was queued at once");
        assert_eq!(q.completed(), 64);
    }
}
