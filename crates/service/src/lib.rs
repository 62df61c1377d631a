//! # vbi-service — a concurrent, sharded VBI memory service
//!
//! The paper's MTL is a hardware agent that serves translation and
//! allocation requests from many concurrent clients, and §6.2 sketches how
//! a machine scales it out: one MTL per node, with VBs of every size class
//! partitioned among the MTLs by the high-order bits of the VBID. This
//! crate turns the single-owner [`vbi_core::System`] into that shape in
//! software: a [`VbiService`] handle that is `Send + Sync + Clone`, backed
//! by
//!
//! * **N MTL shards** ([`Mtl::for_shard`]), each a `Mutex<Mtl>` owning a
//!   disjoint slice of the VBID space and its own physical frames — a
//!   VBI address names its home shard deterministically, so independent
//!   VBs never contend on a lock;
//! * **seqlock client state, behind a seqlock client map**: each client's
//!   CVT sits behind a mutex, but its CVT cache is *published* through an
//!   epoch-validated [`vbi_core::cvt_cache::SeqCvtCache`] — and the
//!   `ClientId -> slot` map itself is sharded with per-shard
//!   generation-validated published tables (the `client_map` module), so the
//!   common-case read — a protection check that hits the CVT cache —
//!   takes **zero** shared-lock acquisitions end to end: no map lock, no
//!   client lock, no shard lock (the paper's central claim: cached
//!   translations need no MTL or OS involvement). Control-plane ops take
//!   the mutexes and bump the epochs; readers that observe a torn epoch
//!   retry or fall back to the locked path;
//! * **sessions**: [`VbiService::create_client`] returns a
//!   [`ClientSession`] that owns the client's whole API surface
//!   (`session.load_u64(va)`, `session.request_vb(..)`), shareable across
//!   any number of reader threads;
//! * a **batched request path** ([`VbiService::submit`]) over the full
//!   [`Op`] surface that performs protection checks first and visits each
//!   shard once per run of data-plane ops, amortizing lock traffic;
//! * the **VB-remap family behind the service API**: `Op::Promote`,
//!   `Op::CloneVb`, and cross-shard `Op::Migrate` (§4.2.2/§6.2) execute
//!   through the shared engine, taking the source and destination shard
//!   locks in index order and bumping each affected client's seqlock
//!   epoch, so lock-free readers never observe a torn mid-migration
//!   entry;
//! * an **asynchronous front end** ([`VbiQueue`], in [`queue`]): per-shard
//!   worker threads drain submission rings and post tagged completions, so
//!   clients pipeline requests without blocking on shard locks;
//! * a **waker-driven async surface** ([`AsyncSession`], in
//!   [`async_session`]): `async fn` verbs over the queue whose completions
//!   wake parked futures directly (no polling reaper), with per-session
//!   in-flight budgets for backpressure and a std-only executor — tens of
//!   thousands of concurrent logical clients on a handful of OS threads.
//!
//! Every request executes through the one op engine in [`vbi_core::ops`] —
//! single ops through [`vbi_core::ops::execute`], batches through
//! [`vbi_core::ops::execute_batch`] — and the service holds **no**
//! permission, CVT-cache, grouping, retry, telemetry, or stat logic of its
//! own. It only decides *where state lives* (which shard, which lock) by
//! implementing [`vbi_core::ops::OpEnv`]. A one-shard service driven by
//! one thread is therefore *observably identical* to `System` by
//! construction: the same ops produce the same responses and
//! [`MtlStats`] (proven property-based over random mixed op sequences in
//! `tests/service_equivalence.rs` at the workspace root).
//!
//! ## Locking protocol
//!
//! The shared-lock surface is four lock families — map-shard, client-state,
//! MTL-shard, and the arena-index allocator — every one acquired through
//! the counted path in the `sync` module, so
//! [`thread_shared_lock_acquisitions`]
//! is a complete per-thread census of it.
//!
//! **The read path takes none of them.** A read-kind protection check
//! resolves its client through the map shard's published table and probes
//! the published CVT cache *inside one generation window*, validated
//! after the fact (`client_map`): a stable window is proof the client was
//! live with exactly that cached translation, so slot recycling and
//! destroy races are invisible. A moved generation means churn on the
//! same map shard — the reader retries the window (a few atomic loads)
//! rather than taking a lock; only a *stable* miss (cold cache,
//! invalidated slot, unpublished client) falls back to the locked path.
//! The stress suite asserts the census delta over a run of CVT-cache-hit
//! reads under create/destroy churn is **exactly zero**.
//!
//! Lock order for everyone else:
//!
//! * map-shard → {allocator, client-state}: create claims and
//!   reinitializes its slot while holding the map-shard mutex; destroy
//!   removes under the map-shard mutex and locks the slot after release.
//!   No path acquires a map lock while holding a client or shard lock.
//! * client-state → MTL-shard: no path acquires a client lock while
//!   holding a shard lock (the engine's [`OpEnv`] contract — each state
//!   callback is entered and exited before the next).
//! * The one path holding two MTL-shard locks is the VB-remap family's
//!   `OpEnv::with_mtl_pair` (a migration's source + destination), always
//!   in shard-index order; the frame-borrowing fallback
//!   (`OpEnv::borrow_frames`) instead takes donor and adoptee locks one
//!   at a time, never together.
//!
//! That makes deadlock impossible by construction. Every family counts
//! acquisitions and contention (map traffic in
//! [`VbiService::client_map_stats`], shard traffic in
//! [`VbiService::contention`], client traffic in
//! [`VbiService::client_lock_acquisitions`]); mutation paths that resolve
//! a slot lock-free re-verify ownership under the slot lock before
//! touching state, since slots are recycled across clients.
//!
//! ## Example
//!
//! ```
//! use vbi_service::{ServiceConfig, VbiService};
//! use vbi_core::{VbiConfig, VbProperties, Rwx};
//! use std::thread;
//!
//! # fn main() -> Result<(), vbi_core::VbiError> {
//! let service = VbiService::new(ServiceConfig::new(4, VbiConfig::vbi_full()));
//! let owner = service.create_client()?;
//! let vb = owner.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE)?;
//! owner.store_u64(vb.at(8), 7)?;
//! thread::scope(|s| {
//!     for _ in 0..4 {
//!         let reader = owner.clone(); // many readers, one client
//!         s.spawn(move || {
//!             assert_eq!(reader.load_u64(vb.at(8)).unwrap(), 7);
//!         });
//!     }
//! });
//! assert!(owner.cvt_cache_stats()?.lockfree_hits > 0);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vbi_core::addr::{SizeClass, Vbuid};
use vbi_core::client::{ClientId, ClientIdAllocator, Cvt, CvtEntry};
use vbi_core::config::VbiConfig;
use vbi_core::cvt_cache::{ClientCvtCache, CvtCacheStats};
use vbi_core::error::{Result, VbiError};
use vbi_core::mtl::Mtl;
use vbi_core::ops::{self, Op, OpEnv, OpResult};
use vbi_core::session::{ClientSession, SessionHost};
use vbi_core::stats::MtlStats;
use vbi_core::telemetry::{Snapshot, Telemetry};
use vbi_core::tlb::TlbStats;
use vbi_core::vb::VbProperties;
use vbi_core::vm::VmId;

pub mod async_session;
mod client_map;
pub mod queue;
mod sync;

use crate::client_map::{ClientMap, ClientState};
use crate::sync::{lock_counted, unpoison};

pub use async_session::{block_on, AsyncFront, AsyncSession, Executor, DEFAULT_SESSION_BUDGET};
pub use queue::{Cqe, QueueDepth, Sqe, VbiQueue};
pub use sync::thread_shared_lock_acquisitions;
// Re-exported so `ServiceConfig::with_backing` factories can be written
// against this crate alone.
pub use vbi_core::swap::{BackingStore, PressureBackend};

/// A session over the sharded service — the client-facing API surface.
pub type ServiceSession = ClientSession<VbiService>;

/// Configuration of a sharded service: the shard count plus the base
/// machine configuration.
///
/// `base.phys_frames` is the *total* physical memory of the machine; it is
/// split evenly across the shards (each shard's MTL owns its own frames,
/// like the per-node memories of §6.2).
///
/// `base.vm_id_bits` (§6.1) and the shard count take the same top VBID
/// bits, so a VB is placed where its VM's slice meets a shard's: with 5
/// VM-ID bits on 4 shards, VM `v` homes on shard `v / 8`, and placement
/// falls over to that shard.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of MTL shards: a power of two in `[1, 256]`.
    pub shards: usize,
    /// Machine configuration; `phys_frames` is the machine total.
    pub base: VbiConfig,
    /// Factory for each shard's backing store, run once per shard at
    /// construction (default `None` = the in-memory
    /// [`vbi_core::swap::BackingStore`]). A plain `fn` pointer keeps the
    /// config `Clone` + `Debug`; use it to install a slow-tier model like
    /// `vbi_hetero::SlowTierBackend` behind every shard.
    pub backing: Option<fn() -> Box<dyn PressureBackend>>,
}

impl ServiceConfig {
    /// A `shards`-way service over `base`.
    pub fn new(shards: usize, base: VbiConfig) -> Self {
        Self { shards, base, backing: None }
    }

    /// The degenerate single-shard service — byte- and stats-identical to
    /// a [`vbi_core::System`] under single-threaded driving.
    pub fn single(base: VbiConfig) -> Self {
        Self::new(1, base)
    }

    /// Installs a per-shard backing-store factory (see
    /// [`ServiceConfig::backing`]).
    pub fn with_backing(mut self, factory: fn() -> Box<dyn PressureBackend>) -> Self {
        self.backing = Some(factory);
        self
    }
}

/// Lock and work traffic observed on one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard-lock acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
    /// Engine ops whose MTL work ran on this shard (a cross-shard remap
    /// counts on both its shards; batched data ops count on their home
    /// shard). The denominator that lets contention be compared *per op*
    /// across shards with different traffic.
    pub ops_executed: u64,
}

impl ShardLoad {
    /// Blocked acquisitions per op executed on the shard (0.0 for an idle
    /// shard) — the load-normalized contention signal a rebalancer wants:
    /// a shard doing 10x the ops is allowed 10x the blocking before it
    /// looks worse than its neighbors.
    pub fn contended_per_op(&self) -> f64 {
        if self.ops_executed == 0 {
            0.0
        } else {
            self.contended as f64 / self.ops_executed as f64
        }
    }
}

/// One MTL shard plus its lock- and work-traffic counters.
#[derive(Debug)]
struct Shard {
    mtl: Mutex<Mtl>,
    acquisitions: AtomicU64,
    contended: AtomicU64,
    /// Engine ops whose MTL work ran here (see [`ShardLoad::ops_executed`]).
    ops: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    config: ServiceConfig,
    shards: Vec<Shard>,
    /// The sharded, epoch-validated client map (see [`client_map`]) — the
    /// structure that lets a CVT-cache-hit read resolve its client with
    /// zero shared-lock acquisitions.
    clients: ClientMap,
    ids: Mutex<ClientIdAllocator>,
    /// Round-robin cursor for placing newly requested VBs on shards.
    placement: AtomicUsize,
    /// Frames of physical capacity moved between shards by the borrow
    /// path ([`VbiService::frames_borrowed`]).
    frames_borrowed: AtomicU64,
    /// The telemetry plane the engine records into (one stripe per shard).
    telemetry: Arc<Telemetry>,
}

/// A concurrent, sharded VBI memory service.
///
/// The handle is cheap to clone (`Arc` inside) and `Send + Sync`; clone it
/// into every worker thread, or hand threads clones of a
/// [`ClientSession`]. See the [crate-level docs](crate) for the design and
/// an example.
#[derive(Debug, Clone)]
pub struct VbiService {
    inner: Arc<Inner>,
}

// The whole point of the crate; if an inner type loses Send/Sync this
// fails to compile here rather than in downstream user code.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VbiService>();
    assert_send_sync::<ServiceSession>();
};

/// The service's [`OpEnv`]: the engine runs against lock-protected state.
///
/// A zero-cost view over a `&VbiService`; the `&mut self` receivers the
/// trait requires are satisfied by the wrapper while all mutation goes
/// through the service's locks.
struct ServiceEnv<'a>(&'a VbiService);

impl OpEnv for ServiceEnv<'_> {
    fn config(&self) -> &VbiConfig {
        &self.0.inner.config.base
    }

    fn alloc_client_id(&mut self) -> Result<ClientId> {
        unpoison(self.0.inner.ids.lock()).allocate()
    }

    fn release_client_id(&mut self, id: ClientId) {
        unpoison(self.0.inner.ids.lock()).release(id);
    }

    fn try_insert_client(&mut self, id: ClientId, cvt: Cvt) -> bool {
        self.0.inner.clients.insert(id, cvt)
    }

    fn take_client_vbuids(&mut self, id: ClientId) -> Result<Vec<Vbuid>> {
        let (index, slot) = self.0.inner.clients.remove(id)?;
        let vbuids = {
            let st = slot.lock();
            st.cvt.iter().map(|(_, entry)| entry.vbuid()).collect()
        };
        // Only now may the slot be re-claimed: recycling before the CVT
        // read could hand the arena index to a racing create.
        self.0.inner.clients.recycle(index);
        Ok(vbuids)
    }

    fn with_client<R>(
        &mut self,
        id: ClientId,
        f: impl FnOnce(&mut Cvt, &mut dyn vbi_core::cvt_cache::ClientCvtCache) -> R,
    ) -> Result<R> {
        let slot = self.0.inner.clients.resolve(id)?;
        let mut st = slot.lock();
        // The slot may have been recycled for another client between the
        // lock-free resolution and the lock: mutate only on proof of
        // ownership, else the caller's client is gone.
        if st.cvt.client() != id {
            return Err(VbiError::InvalidClient(id));
        }
        let ClientState { cvt, cache } = &mut *st;
        Ok(f(cvt, cache))
    }

    fn with_client_read(&mut self, id: ClientId, index: usize) -> Result<(CvtEntry, bool)> {
        let inner = &self.0.inner;
        // Fast path: map resolution *and* the published CVT-cache probe
        // inside one epoch-validated window — zero shared locks, nothing
        // mutated but atomic stat counters. Validating the map generation
        // after the cache probe makes slot recycling invisible: destroying
        // the read client bumps its map shard's generation, so a hit here
        // is proof the client was live with this exact published entry.
        if let Some(entry) =
            inner.clients.read_published(id, |slot| slot.reads.lookup_lockfree(index))
        {
            return Ok((entry, true));
        }
        // Slow path (miss, torn read or unpublished client): the locked
        // authoritative lookup, identical to every other front end.
        let slot = inner.clients.resolve(id)?;
        let mut st = slot.lock();
        if st.cvt.client() != id {
            return Err(VbiError::InvalidClient(id));
        }
        let ClientState { cvt, cache } = &mut *st;
        ops::cvt_lookup(cvt, cache, id, index)
    }

    fn with_home_mtl<R>(&mut self, vbuid: Vbuid, f: impl FnOnce(&mut Mtl) -> R) -> R {
        self.with_home_mtl_for(vbuid, 1, f)
    }

    fn with_home_mtl_for<R>(
        &mut self,
        vbuid: Vbuid,
        ops: usize,
        f: impl FnOnce(&mut Mtl) -> R,
    ) -> R {
        let shard = self.0.shard_of(vbuid);
        self.0.inner.shards[shard].ops.fetch_add(ops as u64, Ordering::Relaxed);
        f(&mut self.0.lock_shard(shard))
    }

    fn place_vb(&mut self, vm: VmId, size_class: SizeClass, props: VbProperties) -> Result<Vbuid> {
        // Round-robin placement, falling over to the next shard when one
        // VBID slice or memory pool is exhausted.
        let count = self.0.inner.shards.len();
        let start = self.0.inner.placement.fetch_add(1, Ordering::Relaxed) % count;
        let mut last_err = VbiError::OutOfVirtualBlocks(size_class);
        for probe in 0..count {
            let shard = (start + probe) % count;
            let mut mtl = self.0.lock_shard(shard);
            match mtl.find_free_vb(size_class, vm).and_then(|vb| {
                mtl.enable_vb(vb, props)?;
                Ok(vb)
            }) {
                Ok(vb) => return Ok(vb),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn shard_count(&self) -> usize {
        self.0.inner.shards.len()
    }

    fn place_vb_on(
        &mut self,
        shard: usize,
        vm: VmId,
        size_class: SizeClass,
        props: VbProperties,
    ) -> Result<Vbuid> {
        let shards = self.0.inner.shards.len();
        if shard >= shards {
            return Err(VbiError::InvalidShard { shard, shards });
        }
        let mut mtl = self.0.lock_shard(shard);
        let vb = mtl.find_free_vb(size_class, vm)?;
        mtl.enable_vb(vb, props)?;
        Ok(vb)
    }

    fn with_mtl_pair<R>(
        &mut self,
        src: Vbuid,
        dst: Vbuid,
        f: impl FnOnce(&mut Mtl, Option<&mut Mtl>) -> R,
    ) -> R {
        let (a, b) = (self.0.shard_of(src), self.0.shard_of(dst));
        // A remap is MTL work on every shard it touches: count it on both
        // sides (once when they coincide) so `ShardLoad::ops_executed`
        // reflects where the work actually ran.
        self.0.inner.shards[a].ops.fetch_add(1, Ordering::Relaxed);
        if a == b {
            return f(&mut self.0.lock_shard(a), None);
        }
        self.0.inner.shards[b].ops.fetch_add(1, Ordering::Relaxed);
        // Two shards: always lock in shard-index order so concurrent remaps
        // (A→B racing B→A) can never deadlock.
        let mut first = self.0.lock_shard(a.min(b));
        let mut second = self.0.lock_shard(a.max(b));
        if a < b {
            f(&mut first, Some(&mut second))
        } else {
            f(&mut second, Some(&mut first))
        }
    }

    fn redirect_clients(&mut self, old: Vbuid, new: Vbuid) -> usize {
        // Snapshot the live client slots, then rewrite under each client's
        // own lock in turn — no shard lock is held here, and every rewrite
        // bumps the client's seqlock epoch (via `invalidate`), so lock-free
        // readers can never serve a stale or torn entry for the moved VB.
        let mut moved = 0;
        for (id, slot) in self.0.inner.clients.live() {
            let mut st = slot.lock();
            // A client destroyed (and its slot possibly recycled) since the
            // snapshot has no entries to redirect; skip rather than touch a
            // new owner's CVT.
            if st.cvt.client() != id {
                continue;
            }
            let ClientState { cvt, cache } = &mut *st;
            for index in cvt.redirect_all(old, new) {
                cache.invalidate(id, index);
                moved += 1;
            }
        }
        moved
    }

    fn note_fault_in(&mut self, client: ClientId, index: usize) {
        // A fault-in moved the accessed page to a fresh frame. The CVT
        // entry itself (VBUID, permissions) is still valid, but the
        // published cache slot must not outlive the frame move unnoticed:
        // invalidating bumps the seqlock epoch, forcing lock-free readers
        // of this slot back onto the authoritative locked path. Called
        // with no shard lock held (client locks only — same order as
        // `redirect_clients`).
        self.0.invalidate_published(client, index);
    }

    fn borrow_frames(&mut self, vbuid: Vbuid, count: usize) -> usize {
        // Called by the engine after an op hit OutOfPhysicalMemory *and*
        // eviction on the home shard came up empty (the residents are
        // structures, not reclaimable data pages). No lock is held here;
        // capacity moves from sibling shards one lock at a time.
        self.0.borrow_frames_for_shard(self.0.shard_of(vbuid), count)
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        Some(&self.0.inner.telemetry)
    }
}

impl VbiService {
    /// Builds the service: `config.shards` MTL shards, each owning
    /// `config.base.phys_frames / config.shards` frames and the matching
    /// slice of every size class's VBID space.
    ///
    /// # Panics
    ///
    /// Panics if the shard count is not a power of two in `[1, 256]`.
    pub fn new(config: ServiceConfig) -> Self {
        let per_shard = VbiConfig {
            phys_frames: config.base.phys_frames / config.shards as u64,
            ..config.base.clone()
        };
        let shards = (0..config.shards)
            .map(|i| {
                let mut mtl = Mtl::for_shard(per_shard.clone(), i, config.shards);
                if let Some(factory) = config.backing {
                    mtl.set_backing(factory()).expect("a fresh MTL has an empty backing store");
                }
                Shard {
                    mtl: Mutex::new(mtl),
                    acquisitions: AtomicU64::new(0),
                    contended: AtomicU64::new(0),
                    ops: AtomicU64::new(0),
                }
            })
            .collect();
        let telemetry = Arc::new(Telemetry::new(
            config.shards,
            config.base.trace_capacity,
            config.base.telemetry_metrics,
            config.base.telemetry_tracing,
        ));
        let clients = ClientMap::new(config.base.cvt_capacity, config.base.cvt_cache_slots);
        // Host clients take the host's client IDs (§6.1).
        let ids = Mutex::new(config.base.vm_partition().client_ids(VmId::HOST));
        Self {
            inner: Arc::new(Inner {
                config,
                shards,
                clients,
                ids,
                placement: AtomicUsize::new(0),
                frames_borrowed: AtomicU64::new(0),
                telemetry,
            }),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Number of MTL shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// The shard a VB is homed on — deterministic: the high-order bits of
    /// its VBID (§6.2).
    pub fn shard_of(&self, vbuid: Vbuid) -> usize {
        Mtl::shard_of(vbuid, self.inner.shards.len())
    }

    /// Locks a shard, counting contention.
    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, Mtl> {
        let slot = &self.inner.shards[shard];
        lock_counted(&slot.mtl, &slot.acquisitions, &slot.contended)
    }

    /// Reads the VB a client's CVT index points at, without touching any
    /// stats — the routing peek used by [`VbiQueue`] to pick a submission
    /// ring. Served lock-free from the published map and CVT cache when
    /// possible.
    pub(crate) fn peek_vbuid(&self, client: ClientId, cvt_index: usize) -> Option<Vbuid> {
        if let Some(vbuid) = self
            .inner
            .clients
            .read_published(client, |slot| slot.reads.peek(cvt_index).map(|entry| entry.vbuid()))
        {
            return Some(vbuid);
        }
        let slot = self.inner.clients.resolve(client).ok()?;
        let st = slot.lock();
        if st.cvt.client() != client {
            return None;
        }
        st.cvt.entry(cvt_index).ok().map(|entry| entry.vbuid())
    }

    /// Executes one [`Op`] through the shared engine against this
    /// service's sharded state — the entry point of the sessions and the
    /// [`VbiQueue`] workers. [`VbiService::submit`] enters the same engine
    /// through its batch entry, which runs control-plane ops through this
    /// path and data-plane ops through the pieces this path is made of.
    pub fn execute(&self, op: Op) -> OpResult {
        ops::execute(&mut ServiceEnv(self), op)
    }

    // --- clients ------------------------------------------------------------

    /// Registers a new memory client and returns the session that owns its
    /// API surface. Clone the session into as many threads as needed;
    /// CVT-cache-hit reads from any of them take no client lock.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::OutOfClients`] when all 2^16 IDs are live.
    pub fn create_client(&self) -> Result<ServiceSession> {
        let id = ops::create_client(&mut ServiceEnv(self))?;
        Ok(ClientSession::bind(self.clone(), id))
    }

    /// Registers a client with a caller-chosen ID (VM partitioning, §6.1).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] if the ID is already live.
    pub fn create_client_with_id(&self, id: ClientId) -> Result<ServiceSession> {
        let id = ops::create_client_with_id(&mut ServiceEnv(self), id)?;
        Ok(ClientSession::bind(self.clone(), id))
    }

    /// Whether `client` is live.
    pub fn client_exists(&self, client: ClientId) -> bool {
        self.inner.clients.contains(client)
    }

    /// Client-lock acquisitions performed on behalf of `client` so far —
    /// the counter behind the "cache-hit reads take zero client locks"
    /// proof in the stress suite.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] for unknown clients.
    pub fn client_lock_acquisitions(&self, client: ClientId) -> Result<u64> {
        Ok(self.inner.clients.resolve(client)?.lock_acquisitions.load(Ordering::Relaxed))
    }

    /// Executes a batch over the **full op surface** through the engine's
    /// batch entry ([`vbi_core::ops::execute_batch`]): protection checks
    /// first, then one shard-lock acquisition per populated shard per run
    /// of data-plane ops, control-plane ops as sequencing barriers,
    /// responses in request order.
    pub fn submit(&self, batch: &[Op]) -> Vec<OpResult> {
        ops::execute_batch(&mut ServiceEnv(self), batch)
    }

    /// Invalidates the published CVT-cache slot for (`client`, `index`),
    /// bumping its seqlock epoch (the fault-in notification target).
    fn invalidate_published(&self, client: ClientId, index: usize) {
        if let Ok(slot) = self.inner.clients.resolve(client) {
            let mut st = slot.lock();
            // A recycled slot belongs to someone else now; the departed
            // client has nothing published to invalidate.
            if st.cvt.client() == client {
                st.cache.invalidate(client, index);
            }
        }
    }

    // --- capacity management ----------------------------------------------------

    /// Moves up to `count` frames of physical capacity from sibling shards
    /// to `shard` — the engine's last resort when an op hit
    /// `OutOfPhysicalMemory` and the home shard's own eviction came up
    /// empty (every resident frame is a translation structure or pinned).
    /// Donors are drained in shard-index order, one lock at a time, then
    /// the adoptee absorbs the total; no two shard locks are ever held
    /// together here. Returns the frames actually moved.
    fn borrow_frames_for_shard(&self, shard: usize, count: usize) -> usize {
        let shards = self.inner.shards.len();
        if shards <= 1 || count == 0 {
            return 0;
        }
        let mut gathered: u64 = 0;
        for donor in (0..shards).filter(|&d| d != shard) {
            if gathered >= count as u64 {
                break;
            }
            let want = (count as u64 - gathered) as usize;
            gathered += self.lock_shard(donor).donate_frames(want);
        }
        if gathered > 0 {
            self.lock_shard(shard).adopt_frames(gathered);
            self.inner.frames_borrowed.fetch_add(gathered, Ordering::Relaxed);
        }
        gathered as usize
    }

    /// Total frames of physical capacity moved between shards by the
    /// borrow path so far (see [`ServiceConfig`] and the stress suite's
    /// structure-stranded regression test).
    pub fn frames_borrowed(&self) -> u64 {
        self.inner.frames_borrowed.load(Ordering::Relaxed)
    }

    /// Reclaims up to `count` resident frames from the home shard of the VB
    /// behind (`client`, `index`) — the service face of the engine's
    /// [`vbi_core::ops::reclaim_vb_frames`] ballooning primitive.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] / an invalid-CVT error when the
    /// handle does not resolve.
    pub fn reclaim_vb_frames(&self, client: ClientId, index: usize, count: usize) -> Result<usize> {
        ops::reclaim_vb_frames(&mut ServiceEnv(self), client, index, count)
    }

    /// Occupancy of the backing store on the home shard of the VB behind
    /// (`client`, `index`).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] / an invalid-CVT error when the
    /// handle does not resolve.
    pub fn backing_report(&self, client: ClientId, index: usize) -> Result<ops::BackingReport> {
        ops::backing_report(&mut ServiceEnv(self), client, index)
    }

    // --- statistics -------------------------------------------------------------

    /// Merged [`MtlStats`] across all shards — the report a single MTL
    /// would have produced for the combined traffic.
    pub fn stats(&self) -> MtlStats {
        let mut merged = MtlStats::default();
        for shard in 0..self.inner.shards.len() {
            merged.merge(&self.lock_shard(shard).stats());
        }
        merged
    }

    /// Per-shard [`MtlStats`], in shard order.
    pub fn shard_stats(&self) -> Vec<MtlStats> {
        (0..self.inner.shards.len()).map(|s| self.lock_shard(s).stats()).collect()
    }

    /// Per-shard lock traffic (acquisitions and blocked acquisitions) and
    /// ops executed, so contention can be normalized per op
    /// ([`ShardLoad::contended_per_op`]). The lock counters include the
    /// acquisitions made by the stats readers themselves.
    pub fn contention(&self) -> Vec<ShardLoad> {
        self.inner
            .shards
            .iter()
            .map(|s| ShardLoad {
                acquisitions: s.acquisitions.load(Ordering::Relaxed),
                contended: s.contended.load(Ordering::Relaxed),
                ops_executed: s.ops.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Frames currently free, summed across shards.
    pub fn free_frames(&self) -> u64 {
        (0..self.inner.shards.len()).map(|s| self.lock_shard(s).free_frames()).sum()
    }

    /// Payload-bearing backing-store slots, summed across shards (the
    /// pressure-path counterpart of [`VbiService::free_frames`]).
    pub fn swap_occupancy(&self) -> usize {
        (0..self.inner.shards.len()).map(|s| self.lock_shard(s).swap_occupancy()).sum()
    }

    /// Clears every shard's statistics and the telemetry metrics registry
    /// (warm-up boundary). The trace ring is left alone — it is a window,
    /// not an accumulator.
    pub fn reset_stats(&self) {
        for shard in 0..self.inner.shards.len() {
            self.lock_shard(shard).reset_stats();
        }
        for slot in &self.inner.shards {
            slot.acquisitions.store(0, Ordering::Relaxed);
            slot.contended.store(0, Ordering::Relaxed);
            slot.ops.store(0, Ordering::Relaxed);
        }
        self.inner.telemetry.reset_metrics();
    }

    // --- telemetry --------------------------------------------------------------

    /// Checks every shard's residency bookkeeping against its translation
    /// structures (see [`Mtl::audit`]), one shard lock at a time.
    ///
    /// # Errors
    ///
    /// The first shard found broken, and which law it breaks.
    pub fn audit(&self) -> core::result::Result<(), String> {
        (0..self.inner.shards.len()).try_for_each(|shard| {
            self.lock_shard(shard).audit().map_err(|broken| format!("shard {shard}: {broken}"))
        })
    }

    /// The telemetry plane: per-stripe op counters and latency histograms,
    /// runtime toggles, and the structured trace ring.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// Accumulated client-map lookup counters: lock-free published-table
    /// hits, generation-validation retries, and authoritative (locked)
    /// fallbacks. Also carried in [`VbiService::snapshot`].
    pub fn client_map_stats(&self) -> vbi_core::telemetry::ClientMapStats {
        self.inner.clients.stats()
    }

    /// One unified observability snapshot: merged and per-shard
    /// [`MtlStats`], TLB and CVT-cache counters, shard lock/work traffic,
    /// per-op latency histograms, and capacity gauges — the same shape
    /// every front end exports (see [`Snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        let per_shard_mtl = self.shard_stats();
        let mut mtl = MtlStats::default();
        for stats in &per_shard_mtl {
            mtl.merge(stats);
        }
        let mut tlb = TlbStats::default();
        let mut per_shard_fragmentation = Vec::with_capacity(self.inner.shards.len());
        for shard in 0..self.inner.shards.len() {
            let guard = self.lock_shard(shard);
            tlb.merge(&guard.tlb_stats());
            per_shard_fragmentation.push(guard.fragmentation(Snapshot::FRAGMENTATION_ORDER));
        }
        let mut cvt_cache = CvtCacheStats::default();
        for (_, slot) in self.inner.clients.live() {
            cvt_cache.merge(&slot.reads.stats());
        }
        let telemetry = &self.inner.telemetry;
        Snapshot {
            front_end: "service",
            shards: self.inner.shards.len(),
            mtl,
            per_shard_mtl,
            tlb,
            cvt_cache,
            client_map: self.inner.clients.stats(),
            shard_activity: self
                .contention()
                .iter()
                .map(|load| vbi_core::telemetry::ShardActivity {
                    acquisitions: load.acquisitions,
                    contended: load.contended,
                    ops_executed: load.ops_executed,
                })
                .collect(),
            per_shard_fragmentation,
            ops: telemetry.op_latencies(),
            ops_per_stripe: telemetry.ops_per_stripe(),
            free_frames: self.free_frames(),
            swap_occupancy: self.swap_occupancy() as u64,
            queue: None,
        }
    }
}

impl SessionHost for VbiService {
    fn run_op(&self, op: Op) -> OpResult {
        self.execute(op)
    }

    fn client_cvt_cache_stats(&self, client: ClientId) -> Result<CvtCacheStats> {
        Ok(self.inner.clients.resolve(client)?.reads.stats())
    }

    fn store_bytes_for(
        &self,
        client: ClientId,
        va: vbi_core::client::VirtualAddress,
        data: &[u8],
    ) -> Result<()> {
        ops::store_bytes(&mut ServiceEnv(self), client, va, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use vbi_core::client::VirtualAddress;
    use vbi_core::ops::{OpOutput, VbHandle};
    use vbi_core::perm::Rwx;

    fn service(shards: usize) -> VbiService {
        VbiService::new(ServiceConfig::new(
            shards,
            VbiConfig { phys_frames: 8192, ..VbiConfig::vbi_full() },
        ))
    }

    #[test]
    fn roundtrip_through_one_shard() {
        let svc = service(1);
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(8), 0xfeed).unwrap();
        assert_eq!(c.load_u64(vb.at(8)).unwrap(), 0xfeed);
        assert_eq!(c.load_u64(vb.at(16)).unwrap(), 0, "untouched memory reads zero");
    }

    #[test]
    fn vbs_spread_across_shards_and_route_deterministically() {
        let svc = service(4);
        let c = svc.create_client().unwrap();
        let handles: Vec<VbHandle> = (0..8)
            .map(|_| c.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap())
            .collect();
        let shards: Vec<usize> = handles.iter().map(|h| svc.shard_of(h.vbuid)).collect();
        // Round-robin placement touches every shard.
        for s in 0..4 {
            assert!(shards.contains(&s), "shard {s} unused: {shards:?}");
        }
        // Routing is a pure function of the VBUID.
        for h in &handles {
            assert_eq!(svc.shard_of(h.vbuid), Mtl::shard_of(h.vbuid, 4));
            assert_eq!(svc.shard_of(h.vbuid), svc.shard_of(h.vbuid));
        }
        // Traffic lands only on the home shard.
        svc.reset_stats();
        c.store_u64(handles[0].at(0), 7).unwrap();
        let per_shard = svc.shard_stats();
        for (s, stats) in per_shard.iter().enumerate() {
            if s == svc.shard_of(handles[0].vbuid) {
                assert!(stats.translation_requests > 0);
            } else {
                assert_eq!(stats.translation_requests, 0, "shard {s} saw foreign traffic");
            }
        }
    }

    #[test]
    fn permissions_are_enforced() {
        let svc = service(2);
        let owner = svc.create_client().unwrap();
        let reader = svc.create_client().unwrap();
        let vb = owner.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        owner.store_u64(vb.at(0), 9).unwrap();
        let idx = reader.attach(vb.vbuid, Rwx::READ).unwrap();
        let ro = VirtualAddress::new(idx, 0);
        assert_eq!(reader.load_u64(ro).unwrap(), 9);
        assert!(matches!(reader.store_u64(ro, 1), Err(VbiError::PermissionDenied { .. })));
    }

    #[test]
    fn cache_hit_reads_take_no_client_lock() {
        let svc = service(2);
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(0), 5).unwrap();
        // Warm the published cache (one locked fill on the first read).
        assert_eq!(c.load_u64(vb.at(0)).unwrap(), 5);
        let locks_before = svc.client_lock_acquisitions(c.id()).unwrap();
        let stats_before = c.cvt_cache_stats().unwrap();
        for _ in 0..100 {
            assert_eq!(c.load_u64(vb.at(0)).unwrap(), 5);
        }
        let locks_after = svc.client_lock_acquisitions(c.id()).unwrap();
        let stats_after = c.cvt_cache_stats().unwrap();
        assert_eq!(locks_after, locks_before, "cache-hit reads must take zero client locks");
        assert_eq!(stats_after.lockfree_hits, stats_before.lockfree_hits + 100);
    }

    #[test]
    fn batched_submit_matches_sequential_execution() {
        let svc = service(4);
        let c = svc.create_client().unwrap();
        let vbs: Vec<VbHandle> = (0..4)
            .map(|_| c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap())
            .collect();
        let client = c.id();
        let mut batch = Vec::new();
        for (i, vb) in vbs.iter().enumerate() {
            batch.push(Op::StoreU64 { client, va: vb.at(64), value: 100 + i as u64 });
        }
        for vb in &vbs {
            batch.push(Op::LoadU64 { client, va: vb.at(64) });
        }
        // An invalid CVT index fails inside the batch without poisoning it.
        batch.push(Op::LoadU64 { client, va: VirtualAddress::new(99, 0) });
        let responses = svc.submit(&batch);
        assert_eq!(responses.len(), batch.len());
        for r in &responses[0..4] {
            assert_eq!(*r, Ok(OpOutput::Unit));
        }
        for (i, r) in responses[4..8].iter().enumerate() {
            assert_eq!(*r, Ok(OpOutput::U64(100 + i as u64)));
        }
        assert!(matches!(responses[8], Err(VbiError::InvalidCvtIndex { .. })));
    }

    #[test]
    fn submit_covers_the_control_plane() {
        // A whole client lifecycle in one batch: create, request, store,
        // load, attach a second client, release, destroy — all through
        // `submit`, exercising the barrier semantics.
        let svc = service(2);
        let reader = svc.create_client().unwrap();
        let owner = svc.create_client().unwrap();
        let vb = owner.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        let batch = vec![
            Op::StoreU64 { client: owner.id(), va: vb.at(0), value: 31337 },
            Op::Attach { client: reader.id(), vbuid: vb.vbuid, perms: Rwx::READ },
            Op::LoadU64 { client: owner.id(), va: vb.at(0) },
            Op::StoreBytes { client: owner.id(), va: vb.at(64), data: vec![1, 2, 3] },
            Op::LoadBytes { client: owner.id(), va: vb.at(64), len: 3 },
            Op::StoreBytes { client: owner.id(), va: vb.at(999), data: Vec::new() },
            Op::StoreU8 { client: owner.id(), va: vb.at(200), value: 0xab },
            Op::LoadU8 { client: owner.id(), va: vb.at(200) },
            Op::DestroyClient { client: reader.id() },
        ];
        let responses = svc.submit(&batch);
        assert_eq!(responses[0], Ok(OpOutput::Unit));
        let reader_idx = responses[1].as_ref().unwrap().as_cvt_index().unwrap();
        // The attach barrier drained the store first, so a read through the
        // new entry (sequentially, after the batch) sees the value.
        assert_eq!(responses[2], Ok(OpOutput::U64(31337)));
        assert_eq!(responses[4].as_ref().unwrap().as_bytes(), Some(&[1u8, 2, 3][..]));
        assert_eq!(responses[5], Ok(OpOutput::Unit), "empty span needs no check");
        assert_eq!(responses[7].as_ref().unwrap().as_u8(), Some(0xab));
        assert_eq!(responses[8], Ok(OpOutput::Unit));
        assert!(!svc.client_exists(reader.id()));
        let _ = reader_idx;
        // The owner's data survived the reader's destruction.
        assert_eq!(owner.load_u64(vb.at(0)).unwrap(), 31337);
    }

    #[test]
    fn release_vb_returns_frames_and_detach_keeps_sharers_alive() {
        let svc = service(2);
        let a = svc.create_client().unwrap();
        let b = svc.create_client().unwrap();
        let free0 = svc.free_frames();
        let vb = a.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        let idx_b = b.attach(vb.vbuid, Rwx::READ).unwrap();
        a.store_u64(vb.at(0), 3).unwrap();
        a.release_vb(vb.cvt_index).unwrap();
        // B still reads: refcount was 2.
        assert_eq!(b.load_u64(VirtualAddress::new(idx_b, 0)).unwrap(), 3);
        b.release_vb(idx_b).unwrap();
        assert_eq!(svc.free_frames(), free0);
    }

    #[test]
    fn destroy_client_releases_everything() {
        let svc = service(4);
        let free0 = svc.free_frames();
        let c = svc.create_client().unwrap();
        let survivor = c.clone();
        for i in 0..6 {
            let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
            c.store_u64(vb.at(0), i).unwrap();
        }
        let id = c.id();
        c.destroy().unwrap();
        assert_eq!(svc.free_frames(), free0);
        assert!(!svc.client_exists(id));
        assert!(matches!(
            survivor.load_u64(VirtualAddress::new(0, 0)),
            Err(VbiError::InvalidClient(_))
        ));
    }

    #[test]
    fn handles_are_shared_across_threads() {
        let svc = service(4);
        let results: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let svc = svc.clone();
                    s.spawn(move || {
                        let c = svc.create_client().unwrap();
                        let vb =
                            c.request_vb(128 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
                        c.store_u64(vb.at(t * 8), t * 11).unwrap();
                        c.load_u64(vb.at(t * 8)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, v) in results.into_iter().enumerate() {
            assert_eq!(v, t as u64 * 11);
        }
        let loads = svc.contention();
        assert_eq!(loads.len(), 4);
        assert!(loads.iter().map(|l| l.acquisitions).sum::<u64>() > 0);
    }

    #[test]
    fn create_client_skips_ids_claimed_with_id() {
        let svc = service(1);
        // Claim the IDs the allocator would hand out first (§6.1 VM path).
        let zero = svc.create_client_with_id(ClientId(0)).unwrap();
        let one = svc.create_client_with_id(ClientId(1)).unwrap();
        let vb = zero.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        zero.store_u64(vb.at(0), 7).unwrap();
        // A sequential create must not clobber the live clients.
        let fresh = svc.create_client().unwrap();
        assert!(fresh.id() != ClientId(0) && fresh.id() != ClientId(1), "clobbered");
        assert_eq!(zero.load_u64(vb.at(0)).unwrap(), 7, "state survived");
        // And a destroyed with_id ID is reusable without double-allocation.
        one.destroy().unwrap();
        let reused = svc.create_client().unwrap();
        let again = svc.create_client().unwrap();
        assert_ne!(reused.id(), again.id());
    }

    #[test]
    fn bulk_bytes_roundtrip_with_one_check() {
        let svc = service(2);
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        c.store_bytes(vb.at(4000), &data).unwrap(); // straddles a page
        assert_eq!(c.load_bytes(vb.at(4000), 256).unwrap(), data);
        assert!(c.store_bytes(vb.at(vb.vbuid.bytes() - 4), &data).is_err(), "runs off the VB");
        assert_eq!(c.load_bytes(vb.at(0), 0).unwrap(), Vec::<u8>::new());
        // A read-only sharer cannot bulk-write.
        let reader = svc.create_client().unwrap();
        let idx = reader.attach(vb.vbuid, Rwx::READ).unwrap();
        assert!(matches!(
            reader.store_bytes(VirtualAddress::new(idx, 0), &data),
            Err(VbiError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn failed_request_vb_rolls_back_the_enable() {
        let svc = service(1);
        let ghost = ClientId(999);
        let err = svc
            .execute(Op::RequestVb {
                client: ghost,
                bytes: 4096,
                props: VbProperties::NONE,
                perms: Rwx::READ,
            })
            .unwrap_err();
        assert!(matches!(err, VbiError::InvalidClient(_)));
        // The rolled-back VB is immediately reusable by a real client.
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(0), 1).unwrap();
    }

    #[test]
    fn migrate_moves_a_vb_between_shards() {
        let svc = service(4);
        let a = svc.create_client().unwrap();
        let b = svc.create_client().unwrap();
        let free_baseline = svc.free_frames();
        let vb = a.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        let idx_b = b.attach(vb.vbuid, Rwx::READ).unwrap();
        for slot in 0..8u64 {
            a.store_u64(vb.at(slot * 8), 0x5150 + slot).unwrap();
        }
        let from = svc.shard_of(vb.vbuid);
        let to = (from + 1) % svc.shards();

        let moved = a.migrate(vb.cvt_index, to).unwrap();
        assert_eq!(moved.cvt_index, vb.cvt_index, "the program's pointer survives");
        assert_ne!(moved.vbuid, vb.vbuid);
        assert_eq!(svc.shard_of(moved.vbuid), to, "new home is the requested shard");
        // Data survived, through both clients' (redirected) entries.
        for slot in 0..8u64 {
            assert_eq!(a.load_u64(vb.at(slot * 8)).unwrap(), 0x5150 + slot);
            assert_eq!(b.load_u64(VirtualAddress::new(idx_b, slot * 8)).unwrap(), 0x5150 + slot);
        }
        let per_shard = svc.shard_stats();
        assert_eq!(per_shard.iter().map(|s| s.vbs_migrated).sum::<u64>(), 1);
        assert_eq!(per_shard[from].vbs_migrated, 1, "counted on the source shard");
        // Releasing through the redirected entries frees *everything* —
        // including the drained source's frames, which finish_remap's
        // disable returned to the source shard.
        b.release_vb(idx_b).unwrap();
        a.release_vb(vb.cvt_index).unwrap();
        assert_eq!(svc.free_frames(), free_baseline, "the migration leaked frames");
    }

    #[test]
    fn migrate_rejects_bad_shards_and_same_shard_is_allowed() {
        let svc = service(2);
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(0), 77).unwrap();
        assert!(matches!(
            c.migrate(vb.cvt_index, 9),
            Err(VbiError::InvalidShard { shard: 9, shards: 2 })
        ));
        // Migrating within the home shard still re-homes to a fresh VBUID.
        let home = svc.shard_of(vb.vbuid);
        let moved = c.migrate(vb.cvt_index, home).unwrap();
        assert_ne!(moved.vbuid, vb.vbuid);
        assert_eq!(svc.shard_of(moved.vbuid), home);
        assert_eq!(c.load_u64(vb.at(0)).unwrap(), 77);
    }

    #[test]
    fn promote_and_clone_run_through_the_service() {
        let svc = service(4);
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(64), 31337).unwrap();

        // Clone first: the clone shares frames COW on the same shard.
        let clone = c.clone_vb(vb.cvt_index).unwrap();
        assert_eq!(svc.shard_of(clone.vbuid), svc.shard_of(vb.vbuid), "clones stay home");
        assert_eq!(c.load_u64(clone.at(64)).unwrap(), 31337);
        c.store_u64(clone.at(64), 1).unwrap();
        assert_eq!(c.load_u64(vb.at(64)).unwrap(), 31337, "COW isolated the source");

        // Promote: same CVT index, larger class, same home shard.
        let promoted = c.promote(vb.cvt_index).unwrap();
        assert_eq!(promoted.cvt_index, vb.cvt_index);
        assert_eq!(svc.shard_of(promoted.vbuid), svc.shard_of(vb.vbuid));
        assert_eq!(c.load_u64(vb.at(64)).unwrap(), 31337);
        c.store_u64(vb.at(100 << 10), 2).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.promotions, 1);
        assert_eq!(stats.vbs_cloned, 1);
    }

    #[test]
    fn remap_ops_flow_through_submit() {
        let svc = service(2);
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(0), 9).unwrap();
        let to = (svc.shard_of(vb.vbuid) + 1) % svc.shards();
        let batch = vec![
            Op::Migrate { client: c.id(), index: vb.cvt_index, to_shard: to },
            Op::LoadU64 { client: c.id(), va: vb.at(0) },
            Op::Promote { client: c.id(), index: vb.cvt_index },
            Op::CloneVb { client: c.id(), index: vb.cvt_index },
        ];
        let responses = svc.submit(&batch);
        let moved = responses[0].as_ref().unwrap().as_handle().unwrap();
        assert_eq!(svc.shard_of(moved.vbuid), to);
        assert_eq!(responses[1], Ok(OpOutput::U64(9)));
        let promoted = responses[2].as_ref().unwrap().as_handle().unwrap();
        assert_eq!(promoted.cvt_index, vb.cvt_index);
        let clone = responses[3].as_ref().unwrap().as_handle().unwrap();
        assert_eq!(c.load_u64(clone.at(0)).unwrap(), 9);
    }

    #[test]
    fn attach_at_places_the_entry_where_asked() {
        let svc = service(2);
        let a = svc.create_client().unwrap();
        let b = svc.create_client().unwrap();
        let vb = a.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        a.store_u64(vb.at(0), 5).unwrap();
        // Mirror the owner's layout in the other client (fork-style).
        b.attach_at(vb.cvt_index, vb.vbuid, Rwx::READ).unwrap();
        assert_eq!(b.load_u64(vb.at(0)).unwrap(), 5);
    }

    // --- memory pressure -----------------------------------------------------

    /// A service whose total frame budget is `frames`, split across shards.
    fn pressured_service(shards: usize, frames: u64) -> VbiService {
        VbiService::new(ServiceConfig::new(
            shards,
            VbiConfig { phys_frames: frames, ..VbiConfig::vbi_full() },
        ))
    }

    fn page_tag(vb: usize, page: u64) -> u64 {
        ((vb as u64) << 32) | (page + 1)
    }

    #[test]
    fn oversubscribed_sessions_evict_fault_and_stay_byte_exact() {
        // 8 VBs x 16 pages = 128 data pages against 96 frames (48 per
        // shard): every shard must evict to make progress.
        let svc = pressured_service(2, 96);
        let c = svc.create_client().unwrap();
        let vbs: Vec<VbHandle> = (0..8)
            .map(|_| c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap())
            .collect();
        for (v, vb) in vbs.iter().enumerate() {
            for page in 0..16u64 {
                c.store_u64(vb.at(page << 12), page_tag(v, page)).unwrap();
            }
        }
        for (v, vb) in vbs.iter().enumerate() {
            for page in 0..16u64 {
                assert_eq!(c.load_u64(vb.at(page << 12)).unwrap(), page_tag(v, page));
            }
        }
        let stats = svc.stats();
        assert!(stats.evictions > 0, "the working set exceeded the frame budget: {stats:?}");
        assert!(stats.writebacks > 0, "dirty pages must be written back: {stats:?}");
        assert!(stats.faults_in > 0, "re-reads must fault pages back in: {stats:?}");
    }

    #[test]
    fn oversubscribed_batches_take_the_pressure_path() {
        let svc = pressured_service(2, 96);
        let c = svc.create_client().unwrap();
        let client = c.id();
        let vbs: Vec<VbHandle> = (0..8)
            .map(|_| c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap())
            .collect();
        let stores: Vec<Op> = vbs
            .iter()
            .enumerate()
            .flat_map(|(v, vb)| {
                (0..16u64).map(move |page| Op::StoreU64 {
                    client,
                    va: vb.at(page << 12),
                    value: page_tag(v, page),
                })
            })
            .collect();
        for response in svc.submit(&stores) {
            response.unwrap();
        }
        let loads: Vec<Op> = vbs
            .iter()
            .flat_map(|vb| {
                (0..16u64).map(move |page| Op::LoadU64 { client, va: vb.at(page << 12) })
            })
            .collect();
        let responses = svc.submit(&loads);
        for (i, response) in responses.into_iter().enumerate() {
            let (v, page) = (i / 16, (i % 16) as u64);
            assert_eq!(response.unwrap(), OpOutput::U64(page_tag(v, page)), "vb {v} page {page}");
        }
        let stats = svc.stats();
        assert!(stats.evictions > 0, "a batch must evict under pressure: {stats:?}");
        assert!(stats.faults_in > 0, "a batch must fault pages back in: {stats:?}");
    }

    fn fresh_backing() -> Box<dyn PressureBackend> {
        Box::new(vbi_core::swap::BackingStore::new())
    }

    #[test]
    fn reclaim_and_backing_report_expose_the_pressure_state() {
        let svc = VbiService::new(
            ServiceConfig::new(1, VbiConfig { phys_frames: 4096, ..VbiConfig::vbi_full() })
                .with_backing(fresh_backing),
        );
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        for page in 0..16u64 {
            c.store_u64(vb.at(page << 12), page + 1).unwrap();
        }
        // Balloon the VB down: 8 frames move to the configured backing store.
        assert_eq!(svc.reclaim_vb_frames(c.id(), vb.cvt_index, 8).unwrap(), 8);
        let report = svc.backing_report(c.id(), vb.cvt_index).unwrap();
        assert_eq!(report.slots + report.zero_slots, 8);
        assert_eq!(report.stored_bytes, report.slots as u64 * 4096);
        // Touching everything faults the pages back; the store drains.
        for page in 0..16u64 {
            assert_eq!(c.load_u64(vb.at(page << 12)).unwrap(), page + 1);
        }
        let report = svc.backing_report(c.id(), vb.cvt_index).unwrap();
        assert_eq!(report.slots + report.zero_slots, 0);
        assert!(svc.stats().faults_in >= 8);
    }

    #[test]
    fn fault_in_bumps_the_published_cache_epoch() {
        let svc = pressured_service(1, 4096);
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(0), 77).unwrap();
        // Warm the published cache, then force the page out. The reclaim
        // itself leaves the cache alone: the CVT entry is still valid.
        assert_eq!(c.load_u64(vb.at(0)).unwrap(), 77);
        assert_eq!(svc.reclaim_vb_frames(c.id(), vb.cvt_index, 1).unwrap(), 1);
        // The faulting read still answers correctly, and its fault-in
        // notification invalidates the published slot...
        assert_eq!(c.load_u64(vb.at(0)).unwrap(), 77);
        let stats_before = c.cvt_cache_stats().unwrap();
        // ...so the next read cannot ride the old snapshot: it misses and
        // refills under the client lock instead of hitting lock-free.
        assert_eq!(c.load_u64(vb.at(0)).unwrap(), 77);
        let stats_after = c.cvt_cache_stats().unwrap();
        assert_eq!(
            stats_after.misses,
            stats_before.misses + 1,
            "the post-fault read must refill the invalidated slot"
        );
        assert_eq!(stats_after.lockfree_hits, stats_before.lockfree_hits);
        // The refill republishes: reads are lock-free again.
        assert_eq!(c.load_u64(vb.at(0)).unwrap(), 77);
        let stats_final = c.cvt_cache_stats().unwrap();
        assert_eq!(stats_final.lockfree_hits, stats_after.lockfree_hits + 1);
    }

    #[test]
    fn snapshot_unifies_shard_and_op_telemetry() {
        let svc = service(4);
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        for i in 0..10u64 {
            c.store_u64(vb.at(i * 8), i).unwrap();
        }
        for i in 0..10u64 {
            assert_eq!(c.load_u64(vb.at(i * 8)).unwrap(), i);
        }
        let snap = svc.snapshot();
        assert_eq!(snap.front_end, "service");
        assert_eq!(snap.shards, 4);
        assert_eq!(snap.per_shard_mtl.len(), 4);
        assert_eq!(snap.shard_activity.len(), 4);
        assert_eq!(snap.op(vbi_core::telemetry::OpKind::StoreU64).unwrap().count, 10);
        assert_eq!(snap.op(vbi_core::telemetry::OpKind::LoadU64).unwrap().count, 10);
        // The per-shard MTL rows merge to the unified row.
        let mut merged = MtlStats::default();
        for s in &snap.per_shard_mtl {
            merged.merge(s);
        }
        assert_eq!(merged, snap.mtl);
        // Every recorded op lives on some stripe.
        assert_eq!(snap.ops_per_stripe.iter().sum::<u64>(), snap.total_ops());
        // Shards did MTL work for the 20 data ops + the VB request.
        let work: u64 = snap.shard_activity.iter().map(|a| a.ops_executed).sum();
        assert!(work >= 21, "expected >= 21 shard ops, saw {work}");
        // Both export surfaces render.
        assert!(snap.to_json().contains("\"front_end\":\"service\""));
        assert!(snap.to_prometheus().contains("vbi_op_count"));
    }

    #[test]
    fn batched_submit_records_every_op_once() {
        let svc = service(2);
        let c = svc.create_client().unwrap();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        svc.telemetry().reset_metrics();
        let mut batch: Vec<Op> = (0..16u64)
            .map(|i| Op::StoreU64 { client: c.id(), va: vb.at(i * 8), value: i })
            .collect();
        // One op that fails its protection check: unknown client.
        batch.push(Op::LoadU64 { client: ClientId(999), va: vb.at(0) });
        let responses = svc.submit(&batch);
        assert!(responses[16].as_ref().unwrap_err() == &VbiError::InvalidClient(ClientId(999)));
        let snap = svc.snapshot();
        assert_eq!(snap.total_ops(), 17, "each submitted op recorded exactly once");
        assert_eq!(snap.op(vbi_core::telemetry::OpKind::StoreU64).unwrap().count, 16);
        let load = snap.op(vbi_core::telemetry::OpKind::LoadU64).unwrap();
        assert_eq!((load.count, load.errors), (1, 1));
    }

    #[test]
    fn contention_reports_ops_executed_per_shard() {
        let svc = service(2);
        let c = svc.create_client().unwrap();
        let handles: Vec<VbHandle> = (0..4)
            .map(|_| c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap())
            .collect();
        for vb in &handles {
            c.store_u64(vb.at(0), 1).unwrap();
        }
        let loads = svc.contention();
        let total: u64 = loads.iter().map(|l| l.ops_executed).sum();
        // 4 requests + 4 stores did MTL work; round-robin placement lands
        // work on both shards.
        assert!(total >= 8, "expected >= 8 shard ops, saw {total}");
        assert!(loads.iter().all(|l| l.ops_executed > 0));
        assert!(loads.iter().all(|l| l.contended_per_op() >= 0.0));
        svc.reset_stats();
        assert!(svc.contention().iter().all(|l| l.ops_executed == 0));
        assert_eq!(svc.snapshot().total_ops(), 0, "reset clears the metrics registry");
    }

    #[test]
    fn queue_snapshot_carries_queue_activity() {
        let q = VbiQueue::new(ServiceConfig::new(
            2,
            VbiConfig { phys_frames: 8192, ..VbiConfig::vbi_full() },
        ));
        let session = q.create_client().unwrap();
        let vb = session.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        for i in 0..32u64 {
            q.submit(i, Op::StoreU64 { client: session.id(), va: vb.at(i * 8), value: i });
        }
        q.drain();
        let snap = q.snapshot();
        assert_eq!(snap.front_end, "queue");
        let queue = snap.queue.expect("queue front end exposes queue activity");
        assert_eq!(queue.completed, 32);
        assert_eq!(queue.queued, 0);
        assert!(queue.high_water >= 1);
        assert_eq!(snap.op(vbi_core::telemetry::OpKind::StoreU64).unwrap().count, 32);
        assert!(snap.to_json().contains("\"front_end\":\"queue\""));
    }
}
