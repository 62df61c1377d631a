//! `AsyncSession` — a waker-driven async front end over [`VbiQueue`].
//!
//! The queue front end gives clients the paper's asynchronous-MTL shape
//! (submit tagged work, continue executing, collect completions), but its
//! consumers still *poll*: somebody has to sit in [`VbiQueue::reap`] and
//! fan results back out. That caps the concurrency story at "a few
//! pipelining threads". This module replaces the polling reaper with the
//! notification layer the roadmap calls for, so tens of thousands of
//! logical clients can each await their own operations on a handful of OS
//! threads:
//!
//! * a **waker registry** keyed by CQE tag: an awaiting future parks its
//!   [`Waker`] under its tag, and the shard worker that finishes a burst
//!   of ops dispatches each result straight to the registry (via the
//!   queue's completion hook) and wakes exactly that future; an
//!   [`Executor`] that was parked is unparked once, after the last wake of
//!   the burst, so it comes back to the whole burst — no shared completion
//!   queue, no scan, no reaper thread;
//! * a minimal **std-only executor**: [`block_on`] for driving one future
//!   on the current thread and [`Executor`] for cooperatively running many
//!   tasks over a ready list (a mutexed deque standing in for the lock-free
//!   array queue a production runtime would use) — no tokio, no I/O
//!   reactor, just `Waker`s and `thread::park`;
//! * an **[`AsyncSession`]** handle mirroring the synchronous
//!   [`ClientSession`](vbi_core::session::ClientSession) surface as `async
//!   fn`s: each call acquires in-flight budget, registers its tag, submits
//!   through the existing rings, and resolves when the completion wakes it;
//! * **backpressure**: every session carries a bounded in-flight budget
//!   (semaphore-style, released when the completion is *consumed* by the
//!   awaiting future, not merely produced), so slow tasks cannot pile
//!   unconsumed results into unbounded memory. Budget waits surface as
//!   `backpressure_waits` and pipeline depth as `inflight_high_water` in
//!   the queue's [`Snapshot`](vbi_core::telemetry::Snapshot).
//!
//! ## Exactly-once completion
//!
//! A tag lives in the registry from just before submission until exactly
//! one of: the future consumes its result (`poll` → `Ready`), or the
//! future is dropped first and the registry's `abandon` removes it (a
//! completion arriving after that finds no entry and is discarded — the
//! op itself still executed; cancellation abandons the *answer*, never the
//! effect). Budget is released by whichever side removes the entry, so a
//! permit can never leak or double-release.
//!
//! ## Ordering
//!
//! Identical to [`VbiQueue`]: ops submitted through one session to the
//! same VB land on the same ring and execute in submission order, but a
//! *dependent* op must await its predecessor's result first — `await` is
//! this front end's completion barrier.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use vbi_core::client::{ClientId, VirtualAddress};
use vbi_core::error::Result;
use vbi_core::ops::{Op, OpOutput, OpResult, VbHandle};
use vbi_core::perm::Rwx;
use vbi_core::vb::VbProperties;

use crate::queue::{CompletionHook, Cqe, VbiQueue, ASYNC_TAG_BIT};
use crate::sync::unpoison;
use crate::{ServiceConfig, VbiService};

/// In-flight ops an [`AsyncSession`] may have outstanding before further
/// submissions wait ([`AsyncFront::create_session`] default).
pub const DEFAULT_SESSION_BUDGET: usize = 32;

/// Stripes in the waker registry. Tags are sequential, so striping by the
/// low bits spreads concurrent completions across locks evenly.
const REGISTRY_STRIPES: usize = 64;

// --- waker registry ----------------------------------------------------------

/// Hashes sequential tags (and executor task ids) with one multiply — a
/// SipHash per registry probe would be the single biggest per-op cost in
/// the dispatch path. An odd multiplier permutes every bit width, so
/// sequential keys spread over the table as well as random ones.
#[derive(Default)]
struct TagHasher(u64);

impl std::hash::Hasher for TagHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("tags hash as u64, never as bytes");
    }

    fn write_u64(&mut self, tag: u64) {
        self.0 = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type TagMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<TagHasher>>;

/// One awaited op's slot in the registry: either still executing (with the
/// awaiting task's waker) or finished with its result parked until the
/// future consumes it.
#[derive(Debug)]
enum PendingOp {
    /// Submitted, completion not yet dispatched. The waker is parked at
    /// registration (the future registers on its first poll, *before*
    /// submitting), so the dispatching worker almost never finds it empty —
    /// `None` only after a spurious re-poll raced the entry's removal.
    Waiting(Waker),
    /// Completion dispatched, result waiting for the future to consume it.
    Done(OpResult),
}

/// Tag → pending-op map the shard workers dispatch completions into. This
/// is the whole notification layer: `register` (waker included) before
/// submit, `complete_burst` from the worker, `poll_take` from the future.
#[derive(Debug, Default)]
pub(crate) struct WakerRegistry {
    stripes: Box<[Mutex<TagMap<PendingOp>>]>,
}

impl WakerRegistry {
    fn new() -> Self {
        Self { stripes: (0..REGISTRY_STRIPES).map(|_| Mutex::default()).collect() }
    }

    fn stripe(&self, tag: u64) -> &Mutex<TagMap<PendingOp>> {
        &self.stripes[(tag & (REGISTRY_STRIPES as u64 - 1)) as usize]
    }

    /// Claims `tag` for an op about to be submitted, waker already parked.
    /// Must happen *before* the submit, or the completion could race an
    /// empty registry.
    fn register(&self, tag: u64, waker: Waker) {
        let stale = unpoison(self.stripe(tag).lock()).insert(tag, PendingOp::Waiting(waker));
        debug_assert!(stale.is_none(), "tag {tag:#x} registered twice");
    }

    /// The future's re-poll: takes the result if the completion already
    /// landed (removing the entry — the consume point), otherwise re-parks
    /// the (possibly changed) waker for the dispatching worker to wake.
    fn poll_take(&self, tag: u64, waker: &Waker) -> Option<OpResult> {
        let mut stripe = unpoison(self.stripe(tag).lock());
        match stripe.remove(&tag) {
            Some(PendingOp::Done(result)) => Some(result),
            Some(PendingOp::Waiting(_)) => {
                stripe.insert(tag, PendingOp::Waiting(waker.clone()));
                None
            }
            None => unreachable!("tag {tag:#x} polled after consume or abandon"),
        }
    }

    /// Removes `tag` without consuming a result (the future was dropped
    /// before `Ready`). `true` means the entry was still present — the
    /// caller owns the budget release. A completion dispatched later finds
    /// nothing and is discarded.
    fn abandon(&self, tag: u64) -> bool {
        unpoison(self.stripe(tag).lock()).remove(&tag).is_some()
    }

    /// Registered tags whose futures have neither consumed nor abandoned
    /// them (test/diagnostic visibility).
    pub(crate) fn outstanding(&self) -> usize {
        self.stripes.iter().map(|s| unpoison(s.lock()).len()).sum()
    }
}

impl CompletionHook for WakerRegistry {
    /// The worker-side dispatch, per op of the burst: park the result, take
    /// the waker *out* from under the stripe lock (the woken task may poll
    /// immediately from another thread and would deadlock on the stripe)
    /// and wake it — with the unparks of [`Executor`] threads held back to
    /// the end of the burst (see [`holding_unparks`]).
    fn complete_burst(&self, burst: &mut Vec<Cqe>) {
        let park = |Cqe { tag, result }| {
            let mut stripe = unpoison(self.stripe(tag).lock());
            // No entry: the future was dropped mid-flight — the op ran,
            // nobody wants the answer.
            match std::mem::replace(stripe.get_mut(&tag)?, PendingOp::Done(result)) {
                PendingOp::Waiting(waker) => Some(waker),
                PendingOp::Done(_) => unreachable!("tag {tag:#x} completed twice"),
            }
        };
        holding_unparks(|| burst.drain(..).filter_map(park).for_each(Waker::wake));
    }
}

thread_local! {
    /// The parked executors the current thread owes an unpark, collected
    /// while it dispatches a burst (`holding`); the list keeps its capacity
    /// from burst to burst.
    static HELD_UNPARKS: RefCell<HeldUnparks> = RefCell::default();
}

#[derive(Default)]
struct HeldUnparks {
    holding: bool,
    executors: Vec<Arc<ReadyQueue>>,
}

/// Runs `dispatch` with every unpark of an [`Executor`] thread its wakes
/// call for only noted, and delivers them when it is through: at most one
/// per executor, *after* the last task of the burst went onto its ready
/// list. Delivered wake by wake, the first one unparks an executor that
/// shares the worker's CPU, which preempts the worker mid-dispatch, polls
/// the one task it can see and parks again — two context switches per op
/// instead of per burst.
fn holding_unparks(dispatch: impl FnOnce()) {
    HELD_UNPARKS.with_borrow_mut(|held| held.holding = true);
    dispatch();
    HELD_UNPARKS.with_borrow_mut(|held| {
        held.holding = false;
        held.executors.drain(..).for_each(|ready| ready.unpark());
    });
}

// --- backpressure budget -----------------------------------------------------

/// A session's bounded in-flight budget: a semaphore whose permits are
/// acquired before submission and released when the completion is
/// *consumed* (or the awaiting future dropped), bounding submitted ops
/// plus unconsumed results alike.
///
/// The uncontended path — the overwhelmingly common one — is a single CAS
/// on acquire and a fetch-add plus one flag load on release; the waiter
/// list's mutex is touched only when a task actually has to park. The
/// acquire side sets `contended` *before* re-checking `available`, and the
/// release side bumps `available` *before* loading `contended` (both
/// `SeqCst`), so one of them always sees the other: a release can never
/// slip between "check failed" and "waker parked" unobserved.
#[derive(Debug)]
struct InflightBudget {
    available: AtomicUsize,
    /// True while `waiters` may be non-empty; flipped only under the
    /// `waiters` lock.
    contended: AtomicBool,
    /// Wakers of tasks parked in [`InflightBudget::acquire`]. Release
    /// wakes *all* of them: budgets are per session, so the herd is the
    /// session's own concurrency (small), and waking everyone makes stale
    /// or duplicate wakers harmless — no lost-wakeup window.
    waiters: Mutex<Vec<Waker>>,
}

impl InflightBudget {
    fn new(permits: usize) -> Self {
        assert!(permits > 0, "a session needs at least one in-flight permit");
        Self {
            available: AtomicUsize::new(permits),
            contended: AtomicBool::new(false),
            waiters: Mutex::new(Vec::new()),
        }
    }

    fn try_acquire(&self) -> bool {
        let mut current = self.available.load(Ordering::SeqCst);
        loop {
            if current == 0 {
                return false;
            }
            match self.available.compare_exchange_weak(
                current,
                current - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    fn acquire<'a>(&'a self, queue: &'a VbiQueue) -> Acquire<'a> {
        Acquire { budget: self, queue, waited: false }
    }

    fn release(&self) {
        self.available.fetch_add(1, Ordering::SeqCst);
        if self.contended.load(Ordering::SeqCst) {
            let waiters = {
                let mut waiters = unpoison(self.waiters.lock());
                self.contended.store(false, Ordering::SeqCst);
                std::mem::take(&mut *waiters)
            };
            for waker in waiters {
                waker.wake();
            }
        }
    }
}

/// The budget-acquisition future: resolves when a permit is taken. Counts
/// one `backpressure_waits` the first time it actually has to park.
struct Acquire<'a> {
    budget: &'a InflightBudget,
    queue: &'a VbiQueue,
    waited: bool,
}

impl Future for Acquire<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.budget.try_acquire() {
            return Poll::Ready(());
        }
        {
            let mut waiters = unpoison(this.budget.waiters.lock());
            this.budget.contended.store(true, Ordering::SeqCst);
            // Re-check after raising the flag: a release between the fast
            // path and here either sees the flag (and will drain us) or
            // happened before it (and this retry sees the permit).
            if this.budget.try_acquire() {
                if waiters.is_empty() {
                    this.budget.contended.store(false, Ordering::SeqCst);
                }
                return Poll::Ready(());
            }
            waiters.push(cx.waker().clone());
        }
        if !this.waited {
            this.waited = true;
            this.queue.note_backpressure_wait();
        }
        Poll::Pending
    }
}

// --- the op future -----------------------------------------------------------

/// Where an awaited op is in its life, driving both poll and cancellation.
enum OpState {
    /// Permit held, nothing registered or submitted yet. Registration and
    /// submission happen on the first poll so the waker is parked in the
    /// registry *before* the worker can dispatch — one stripe acquisition
    /// covers both.
    Unsent(Op),
    /// Registered and submitted; the registry entry owns the answer.
    InFlight,
    /// Result consumed; entry gone, permit released.
    Consumed,
}

/// An awaited operation. Holds the session's budget permit until the
/// result is consumed or the future dropped.
struct OpFuture<'a> {
    front: &'a FrontInner,
    budget: Option<&'a InflightBudget>,
    tag: u64,
    state: OpState,
}

impl Future for OpFuture<'_> {
    type Output = OpResult;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<OpResult> {
        let this = self.get_mut();
        match std::mem::replace(&mut this.state, OpState::InFlight) {
            OpState::Unsent(op) => {
                this.front.registry.register(this.tag, cx.waker().clone());
                this.front.queue.submit(this.tag, op);
                Poll::Pending
            }
            OpState::InFlight => match this.front.registry.poll_take(this.tag, cx.waker()) {
                Some(result) => {
                    this.state = OpState::Consumed;
                    if let Some(budget) = this.budget {
                        budget.release();
                    }
                    Poll::Ready(result)
                }
                None => Poll::Pending,
            },
            OpState::Consumed => unreachable!("op future polled after Ready"),
        }
    }
}

impl Drop for OpFuture<'_> {
    fn drop(&mut self) {
        // Cancellation: whoever removes the registry entry owns the
        // permit. Dropped before the first poll, nothing was submitted and
        // the permit comes straight back; dropped in flight, `abandon`
        // owns the release (returning false would mean the entry was
        // already consumed, which the state rules out).
        match self.state {
            OpState::Unsent(_) => {
                if let Some(budget) = self.budget {
                    budget.release();
                }
            }
            OpState::InFlight => {
                if self.front.registry.abandon(self.tag) {
                    if let Some(budget) = self.budget {
                        budget.release();
                    }
                }
            }
            OpState::Consumed => {}
        }
    }
}

// --- the front end -----------------------------------------------------------

#[derive(Debug)]
struct FrontInner {
    queue: Arc<VbiQueue>,
    registry: Arc<WakerRegistry>,
    /// Next async tag (63 usable bits; [`ASYNC_TAG_BIT`] marks the space).
    next_tag: AtomicU64,
}

/// The async front end: owns the waker registry over one [`VbiQueue`] and
/// mints [`AsyncSession`]s. Cheap to clone; all clones share the queue.
///
/// One front per queue: constructing it installs the queue's completion
/// hook, claiming the high-bit (`ASYNC_TAG_BIT`) tag space. Synchronous tagged
/// submissions (without the bit) keep flowing through the shared
/// completion queue untouched, so sync and async traffic coexist.
#[derive(Debug, Clone)]
pub struct AsyncFront {
    inner: Arc<FrontInner>,
}

impl AsyncFront {
    /// Builds a service, the queue over it, and the async front over the
    /// queue.
    pub fn new(config: ServiceConfig) -> Self {
        Self::over(Arc::new(VbiQueue::new(config)))
    }

    /// Builds the front over an existing queue, installing its completion
    /// hook.
    ///
    /// # Panics
    ///
    /// Panics if the queue already has an async front.
    pub fn over(queue: Arc<VbiQueue>) -> Self {
        let registry = Arc::new(WakerRegistry::new());
        queue.install_hook(Arc::clone(&registry) as Arc<dyn CompletionHook>);
        Self { inner: Arc::new(FrontInner { queue, registry, next_tag: AtomicU64::new(0) }) }
    }

    /// The queue underneath (for depth/occupancy counters and synchronous
    /// submissions).
    pub fn queue(&self) -> &VbiQueue {
        &self.inner.queue
    }

    /// The service underneath (for setup calls and statistics).
    pub fn service(&self) -> &VbiService {
        self.inner.queue.service()
    }

    /// Registers a new client and returns its async session with the
    /// [`DEFAULT_SESSION_BUDGET`]. Client creation itself is a synchronous
    /// control-plane call — it must allocate the ID before any op can
    /// name it.
    ///
    /// # Errors
    ///
    /// Returns `VbiError::OutOfClients` when all 2^16 IDs are live.
    pub fn create_session(&self) -> Result<AsyncSession> {
        self.create_session_with_budget(DEFAULT_SESSION_BUDGET)
    }

    /// [`AsyncFront::create_session`] with an explicit in-flight budget.
    ///
    /// # Errors
    ///
    /// Returns `VbiError::OutOfClients` when all 2^16 IDs are live.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero (such a session could never submit).
    pub fn create_session_with_budget(&self, budget: usize) -> Result<AsyncSession> {
        let client = self.service().create_client()?.id();
        Ok(self.session_for(client, budget))
    }

    /// Wraps an existing client (created through any front end) in an
    /// async session.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn session_for(&self, client: ClientId, budget: usize) -> AsyncSession {
        AsyncSession {
            inner: Arc::new(SessionInner {
                front: self.clone(),
                client,
                budget: InflightBudget::new(budget),
            }),
        }
    }

    /// Submits one op outside any session budget and awaits its result —
    /// the control-plane escape hatch (`Op::CreateClient`,
    /// `Op::DestroyClient`, full-surface test drivers).
    pub async fn execute(&self, op: Op) -> OpResult {
        self.submit_op(None, op).await
    }

    /// The one submission path: optional budget acquire, then the op
    /// future (whose first poll registers the waker and submits in one
    /// stripe acquisition — registration still precedes submission, so the
    /// completion always finds the entry). No await point separates the
    /// acquired permit from the future's ownership of it, so cancellation
    /// can never leak an entry or a permit.
    async fn submit_op(&self, budget: Option<&InflightBudget>, op: Op) -> OpResult {
        if let Some(budget) = budget {
            budget.acquire(self.queue()).await;
        }
        let tag = ASYNC_TAG_BIT | self.inner.next_tag.fetch_add(1, Ordering::Relaxed);
        OpFuture { front: &self.inner, budget, tag, state: OpState::Unsent(op) }.await
    }

    /// Registered tags not yet consumed or abandoned (diagnostics).
    pub fn outstanding(&self) -> usize {
        self.inner.registry.outstanding()
    }
}

// --- the session -------------------------------------------------------------

#[derive(Debug)]
struct SessionInner {
    front: AsyncFront,
    client: ClientId,
    budget: InflightBudget,
}

/// One client's async surface: the
/// [`ClientSession`](vbi_core::session::ClientSession) verbs as
/// `async fn`s, submitting
/// through the queue and resolving on completion dispatch. Clones share
/// the client *and* its in-flight budget, so a session's concurrency bound
/// holds across every task using it.
#[derive(Debug, Clone)]
pub struct AsyncSession {
    inner: Arc<SessionInner>,
}

impl AsyncSession {
    /// The client this session runs for.
    pub fn id(&self) -> ClientId {
        self.inner.client
    }

    /// The front end this session submits through.
    pub fn front(&self) -> &AsyncFront {
        &self.inner.front
    }

    /// Submits `op` under this session's budget and awaits its outcome —
    /// the generic path the typed verbs below wrap (and the equivalence
    /// suite drives directly).
    pub async fn run(&self, op: Op) -> OpResult {
        self.inner.front.submit_op(Some(&self.inner.budget), op).await
    }

    /// `request_vb` (§4.1) — ask for a new VB of at least `bytes`.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::request_vb`](vbi_core::session::ClientSession::request_vb).
    pub async fn request_vb(
        &self,
        bytes: u64,
        props: VbProperties,
        perms: Rwx,
    ) -> Result<VbHandle> {
        match self.run(Op::RequestVb { client: self.id(), bytes, props, perms }).await? {
            OpOutput::Handle(handle) => Ok(handle),
            other => unreachable!("request_vb returns a handle, got {other:?}"),
        }
    }

    /// `attach` (§4.1) — map an existing VB into this client's CVT.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::attach`](vbi_core::session::ClientSession::attach).
    pub async fn attach(&self, vbuid: vbi_core::addr::Vbuid, perms: Rwx) -> Result<usize> {
        match self.run(Op::Attach { client: self.id(), vbuid, perms }).await? {
            OpOutput::CvtIndex(index) => Ok(index),
            other => unreachable!("attach returns an index, got {other:?}"),
        }
    }

    /// `promote` (§4.4) — move the VB behind `index` to the next size
    /// class.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::promote`](vbi_core::session::ClientSession::promote).
    pub async fn promote(&self, index: usize) -> Result<VbHandle> {
        match self.run(Op::Promote { client: self.id(), index }).await? {
            OpOutput::Handle(handle) => Ok(handle),
            other => unreachable!("promote returns a handle, got {other:?}"),
        }
    }

    /// `clone_vb` (§4.4) — enable a same-class copy of the VB behind
    /// `index`.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::clone_vb`](vbi_core::session::ClientSession::clone_vb).
    pub async fn clone_vb(&self, index: usize) -> Result<VbHandle> {
        match self.run(Op::CloneVb { client: self.id(), index }).await? {
            OpOutput::Handle(handle) => Ok(handle),
            other => unreachable!("clone_vb returns a handle, got {other:?}"),
        }
    }

    /// Cross-shard migration (§4.2.2, §6.2) of the VB behind `index`.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::migrate`](vbi_core::session::ClientSession::migrate).
    pub async fn migrate(&self, index: usize, to_shard: usize) -> Result<VbHandle> {
        match self.run(Op::Migrate { client: self.id(), index, to_shard }).await? {
            OpOutput::Handle(handle) => Ok(handle),
            other => unreachable!("migrate returns a handle, got {other:?}"),
        }
    }

    /// Protection-checked functional load of a `u64`.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::load_u64`](vbi_core::session::ClientSession::load_u64).
    pub async fn load_u64(&self, va: VirtualAddress) -> Result<u64> {
        match self.run(Op::LoadU64 { client: self.id(), va }).await? {
            OpOutput::U64(value) => Ok(value),
            other => unreachable!("load returns a u64, got {other:?}"),
        }
    }

    /// Protection-checked functional store of a `u64`.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::store_u64`](vbi_core::session::ClientSession::store_u64).
    pub async fn store_u64(&self, va: VirtualAddress, value: u64) -> Result<()> {
        self.run(Op::StoreU64 { client: self.id(), va, value }).await.map(|_| ())
    }

    /// Protection-checked functional load of a byte span.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::load_bytes`](vbi_core::session::ClientSession::load_bytes).
    pub async fn load_bytes(&self, va: VirtualAddress, len: usize) -> Result<Vec<u8>> {
        match self.run(Op::LoadBytes { client: self.id(), va, len }).await? {
            OpOutput::Bytes(bytes) => Ok(bytes),
            other => unreachable!("load returns bytes, got {other:?}"),
        }
    }

    /// Protection-checked functional store of a byte span.
    ///
    /// # Errors
    ///
    /// As [`ClientSession::store_bytes`](vbi_core::session::ClientSession::store_bytes).
    pub async fn store_bytes(&self, va: VirtualAddress, data: &[u8]) -> Result<()> {
        self.run(Op::StoreBytes { client: self.id(), va, data: data.to_vec() }).await.map(|_| ())
    }
}

// --- the executor ------------------------------------------------------------

/// Wakes [`block_on`]'s thread out of its park.
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives one future to completion on the current thread, parking between
/// polls. The minimal bridge from sync code into the async surface:
///
/// ```
/// use vbi_service::{block_on, AsyncFront, ServiceConfig};
/// use vbi_core::{Rwx, VbProperties, VbiConfig};
///
/// # fn main() -> Result<(), vbi_core::VbiError> {
/// let front = AsyncFront::new(ServiceConfig::new(
///     2,
///     VbiConfig { phys_frames: 4096, ..VbiConfig::vbi_full() },
/// ));
/// let session = front.create_session()?;
/// block_on(async {
///     let vb = session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).await?;
///     session.store_u64(vb.at(0), 7).await?;
///     assert_eq!(session.load_u64(vb.at(0)).await?, 7);
///     Ok(())
/// })
/// # }
/// ```
pub fn block_on<F: Future>(future: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(output) => return output,
            // A wake between poll and park leaves a sticky unpark permit,
            // so this can stall only if nobody ever wakes us — which would
            // be a lost completion, not a park bug.
            Poll::Pending => std::thread::park(),
        }
    }
}

/// Task ids woken but not yet polled, shared between the executor thread
/// (popping) and completion-side wakers (pushing). The mutexed deque
/// stands in for a lock-free array queue; contention is one push per
/// completion. The unpark side is gated on `parked` (Dekker-style with
/// the executor's drain — see [`Executor::run`]), so a busy executor costs
/// wakers one flag load, not a second lock; a shard worker delivers the
/// unparks of a burst together, at its end ([`holding_unparks`]).
#[derive(Debug, Default)]
struct ReadyQueue {
    woken: Mutex<VecDeque<u64>>,
    /// True while the executor is committed to parking; set before its
    /// final empty-check, cleared after waking.
    parked: AtomicBool,
    /// The executor thread to unpark on wake, present while
    /// [`Executor::run`] is live.
    executor: Mutex<Option<std::thread::Thread>>,
}

impl ReadyQueue {
    /// Marks task `id` ready and, if the executor is parked, unparks it —
    /// at once, or when the burst being dispatched on this thread is
    /// through.
    fn wake(this: &Arc<Self>, id: u64) {
        unpoison(this.woken.lock()).push_back(id);
        // Push, *then* load (both effectively SeqCst through the lock and
        // the flag): either this sees `parked` and unparks, or the
        // executor's re-check after setting `parked` sees the push.
        if this.parked.load(Ordering::SeqCst) {
            let held = HELD_UNPARKS.with_borrow_mut(|held| {
                if held.holding && !held.executors.iter().any(|noted| Arc::ptr_eq(noted, this)) {
                    held.executors.push(Arc::clone(this));
                }
                held.holding
            });
            if !held {
                this.unpark();
            }
        }
    }

    fn unpark(&self) {
        if let Some(thread) = unpoison(self.executor.lock()).as_ref() {
            thread.unpark();
        }
    }
}

/// One task's waker: pushes the task id onto the ready list and unparks
/// the executor. Waking a finished task is a no-op (the pop finds no
/// task), so completions racing task exit are harmless.
struct TaskWaker {
    id: u64,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        ReadyQueue::wake(&self.ready, self.id);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        ReadyQueue::wake(&self.ready, self.id);
    }
}

struct Task {
    future: Pin<Box<dyn Future<Output = ()>>>,
    /// Cached — one allocation per task, not per poll.
    waker: Waker,
}

/// A single-threaded, multi-task executor: spawn futures, then
/// [`run`](Executor::run) polls whichever the completion wakers mark ready until
/// every task finishes. Tasks need not be `Send` (they never leave this
/// thread); the *wakers* are `Send + Sync` and cross from the shard
/// workers freely. Scale comes from running one executor per OS thread,
/// each multiplexing thousands of sessions.
#[derive(Default)]
pub struct Executor {
    tasks: TagMap<Task>,
    ready: Arc<ReadyQueue>,
    next_id: u64,
}

impl Executor {
    /// An empty executor.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a task, initially ready. `'static`: tasks outlive the caller's
    /// frame (move sessions into them).
    pub fn spawn(&mut self, future: impl Future<Output = ()> + 'static) {
        let id = self.next_id;
        self.next_id += 1;
        let waker = Waker::from(Arc::new(TaskWaker { id, ready: Arc::clone(&self.ready) }));
        self.tasks.insert(id, Task { future: Box::pin(future), waker });
        unpoison(self.ready.woken.lock()).push_back(id);
    }

    /// Tasks spawned and not yet finished.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.tasks.len()
    }

    /// Runs until every spawned task completes, parking whenever no task
    /// is ready. Duplicate or stale ids on the ready list cause at most a
    /// spurious poll or a skip — never a miss, because a leaf future that
    /// returns `Pending` always has its waker parked somewhere that will
    /// push its id again.
    ///
    /// The ready list is drained a batch at a time (one lock per batch,
    /// not per task), and the park is two-phase: raise `parked`, re-drain,
    /// and only park if still empty — a wake between the drains either
    /// lands in the re-drain or sees the flag and unparks (sticky permit,
    /// so even a wake between the re-drain and the park just makes the
    /// park return immediately).
    pub fn run(&mut self) {
        *unpoison(self.ready.executor.lock()) = Some(std::thread::current());
        let mut batch = VecDeque::new();
        while !self.tasks.is_empty() {
            let Some(id) = batch.pop_front() else {
                // drain-extend, not swap: both deques keep their grown
                // capacity, so the workers' push path never reallocates.
                batch.extend(unpoison(self.ready.woken.lock()).drain(..));
                if batch.is_empty() {
                    self.ready.parked.store(true, Ordering::SeqCst);
                    batch.extend(unpoison(self.ready.woken.lock()).drain(..));
                    if batch.is_empty() {
                        std::thread::park();
                    }
                    self.ready.parked.store(false, Ordering::SeqCst);
                }
                continue;
            };
            let Some(task) = self.tasks.get_mut(&id) else {
                continue; // woken again after finishing
            };
            let mut cx = Context::from_waker(&task.waker);
            if task.future.as_mut().poll(&mut cx).is_ready() {
                self.tasks.remove(&id);
            }
        }
        *unpoison(self.ready.executor.lock()) = None;
        self.ready.parked.store(false, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("tasks", &self.tasks.len())
            .field("next_id", &self.next_id)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::{Duration, Instant};
    use vbi_core::VbiConfig;

    fn front(shards: usize) -> AsyncFront {
        AsyncFront::new(ServiceConfig::new(
            shards,
            VbiConfig { phys_frames: 8192, ..VbiConfig::vbi_full() },
        ))
    }

    #[test]
    fn block_on_drives_an_op_end_to_end() {
        let front = front(2);
        let session = front.create_session().unwrap();
        block_on(async {
            let vb = session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).await.unwrap();
            session.store_u64(vb.at(8), 1234).await.unwrap();
            assert_eq!(session.load_u64(vb.at(8)).await.unwrap(), 1234);
            let bytes = session.load_bytes(vb.at(8), 8).await.unwrap();
            assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), 1234);
        });
        assert_eq!(front.outstanding(), 0, "every tag consumed");
        assert_eq!(front.queue().in_flight(), 0);
    }

    #[test]
    fn async_completions_bypass_the_shared_cq() {
        let front = front(2);
        let session = front.create_session().unwrap();
        block_on(async {
            let vb = session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).await.unwrap();
            for i in 0..16 {
                session.store_u64(vb.at(i * 8), i).await.unwrap();
            }
        });
        assert!(front.queue().try_reap().is_none(), "no CQEs pile up for async ops");
        assert!(front.queue().completed() >= 17);
    }

    #[test]
    fn executor_multiplexes_many_sessions() {
        let front = front(2);
        let mut executor = Executor::new();
        let done = Rc::new(Cell::new(0u64));
        for _ in 0..64 {
            let session = front.create_session().unwrap();
            let done = Rc::clone(&done);
            executor.spawn(async move {
                let vb =
                    session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).await.unwrap();
                for i in 0..8u64 {
                    session.store_u64(vb.at(i * 8), i * 7).await.unwrap();
                    assert_eq!(session.load_u64(vb.at(i * 8)).await.unwrap(), i * 7);
                }
                done.set(done.get() + 1);
            });
        }
        executor.run();
        assert_eq!(done.get(), 64);
        assert_eq!(executor.pending(), 0);
        assert_eq!(front.outstanding(), 0);
    }

    #[test]
    fn a_burst_reaches_a_parked_executor_whole_with_one_unpark() {
        let ready = Arc::new(ReadyQueue::default());
        std::thread::scope(|s| {
            // The executor's side of the park protocol, reporting how many
            // ids it finds when it comes back, and whether it was unparked
            // or gave up waiting (a lost unpark fails the test, not hangs it).
            let executor = s.spawn(|| {
                *unpoison(ready.executor.lock()) = Some(std::thread::current());
                ready.parked.store(true, Ordering::SeqCst);
                let (started, patience) = (Instant::now(), Duration::from_secs(10));
                loop {
                    std::thread::park_timeout(patience);
                    let woken = unpoison(ready.woken.lock()).len();
                    if woken > 0 {
                        return (woken, started.elapsed() < patience);
                    }
                }
            });
            while !ready.parked.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            holding_unparks(|| {
                (1..=3).for_each(|id| ReadyQueue::wake(&ready, id));
                // On the ready list, the unpark noted once and not
                // delivered: the executor is still parked.
                HELD_UNPARKS.with_borrow(|held| assert_eq!(held.executors.len(), 1));
                assert_eq!(unpoison(ready.woken.lock()).len(), 3);
                assert!(!executor.is_finished());
            });
            assert_eq!(executor.join().unwrap(), (3, true), "unparked after the last wake");
        });
        // Outside a dispatch nothing is held back (the flag is still up: the
        // stand-in executor never took it down).
        HELD_UNPARKS.with_borrow(|held| assert!(!held.holding && held.executors.is_empty()));
        ReadyQueue::wake(&ready, 4);
        HELD_UNPARKS.with_borrow(|held| assert!(held.executors.is_empty()));
    }

    #[test]
    fn budget_bounds_in_flight_and_counts_waits() {
        let front = front(1);
        // Budget 1, four tasks sharing the session: three must park.
        let session = front.create_session_with_budget(1).unwrap();
        let vb =
            block_on(session.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE)).unwrap();
        let mut executor = Executor::new();
        for task in 0..4u64 {
            let session = session.clone();
            executor.spawn(async move {
                for i in 0..32u64 {
                    session.store_u64(vb.at((task * 32 + i) * 8), i).await.unwrap();
                }
            });
        }
        executor.run();
        assert!(front.queue().backpressure_waits() > 0, "contended budget parks submitters");
        assert_eq!(front.outstanding(), 0);
        // request_vb + 128 stores all completed.
        assert_eq!(front.queue().completed(), 129);
    }

    #[test]
    fn errors_resolve_futures_like_values() {
        let front = front(1);
        let session = front.create_session().unwrap();
        let err = block_on(session.load_u64(VirtualAddress::new(40, 0)));
        assert!(err.is_err(), "unmapped CVT index completes with its error");
        assert_eq!(front.outstanding(), 0);
    }

    #[test]
    fn dropped_futures_abandon_cleanly() {
        let front = front(1);
        // Budget 1: if cancellation leaked the permit, the next acquire
        // would park forever and the test would hang.
        let session = front.create_session_with_budget(1).unwrap();
        let vb = block_on(session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE)).unwrap();
        // Poll once (acquires the permit and submits), then drop mid-op:
        // the registry entry is abandoned and the permit released — by the
        // drop if the completion hadn't landed yet, by the consume if it
        // had.
        let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
        let mut cx = Context::from_waker(&waker);
        let mut fut = Box::pin(session.store_u64(vb.at(0), 9));
        let _ = fut.as_mut().poll(&mut cx);
        drop(fut);
        block_on(async {
            // Same ring, FIFO: the cancelled store's *effect* still lands
            // before these (cancellation abandons the answer, not the op).
            session.store_u64(vb.at(0), 10).await.unwrap();
            assert_eq!(session.load_u64(vb.at(0)).await.unwrap(), 10);
        });
        assert_eq!(front.outstanding(), 0);
        assert_eq!(front.queue().in_flight(), 0);
    }

    #[test]
    fn control_plane_execute_flows_async() {
        let front = front(2);
        let client = block_on(front.execute(Op::CreateClient)).unwrap().as_client().unwrap();
        let session = front.session_for(client, 8);
        block_on(async {
            let vb = session.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).await.unwrap();
            session.store_u64(vb.at(0), 3).await.unwrap();
            let destroyed = front.execute(Op::DestroyClient { client }).await;
            assert!(destroyed.is_ok());
        });
        assert!(!front.service().client_exists(client));
    }

    #[test]
    #[should_panic(expected = "one AsyncFront per VbiQueue")]
    fn second_front_over_one_queue_is_refused() {
        let queue = Arc::new(VbiQueue::new(ServiceConfig::new(
            1,
            VbiConfig { phys_frames: 1024, ..VbiConfig::vbi_full() },
        )));
        let _first = AsyncFront::over(Arc::clone(&queue));
        let _second = AsyncFront::over(queue);
    }
}
