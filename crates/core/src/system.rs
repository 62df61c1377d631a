//! Processor-side glue: the synchronous adapter over the op engine.
//!
//! [`System`] models everything between a program's `{CVT index, offset}`
//! virtual address and physical memory: the per-client Client-VB Tables, the
//! per-core CVT caches, and the Memory Translation Layer. Programs obtain a
//! [`ClientSession`] from [`System::create_client`] and issue the operations
//! of §4.2 — `request_vb`, `attach`/`detach`, loads and stores with
//! protection checks, VB promotion — through it; the OS model (`crate::os`)
//! and the simulators build on the same sessions.
//!
//! All request logic — permission checks, CVT-cache fills, rollback,
//! stat accounting — lives in [`crate::ops`]; `System` merely implements
//! [`OpEnv`] with plain single-owner fields behind one handle lock and
//! delegates. The concurrent front ends (`vbi_service::VbiService`,
//! `vbi_service::VbiQueue`) route through the *same* engine, which is what
//! makes them observably identical to a `System` under sequential driving.
//!
//! The handle is cheap to clone (`Arc` inside) and `Send + Sync`; each
//! method takes the one inner lock for its duration, so a `System` stays a
//! strictly serialized single-owner machine — the concurrency story
//! (sharding, the lock-free read path) belongs to `vbi_service`.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::addr::{SizeClass, Vbuid};
use crate::client::{ClientId, ClientIdAllocator, Cvt, CvtEntry};
use crate::config::VbiConfig;
use crate::cvt_cache::{ClientCvtCache, CvtCache, CvtCacheStats};
use crate::error::{Result, VbiError};
use crate::mtl::Mtl;
use crate::ops::{self, Op, OpEnv, OpResult};
use crate::session::{ClientSession, SessionHost};
use crate::sync::unpoison;
use crate::telemetry::{ClientMapStats, ShardActivity, Snapshot, Telemetry};
use crate::vb::VbProperties;
use crate::vm::VmId;

pub use crate::ops::{CheckedAccess, VbHandle};

/// A synchronous session over a [`System`].
pub type SystemSession = ClientSession<System>;

#[derive(Debug)]
struct SystemInner {
    mtl: Mtl,
    cvts: HashMap<ClientId, Cvt>,
    cvt_caches: HashMap<ClientId, CvtCache>,
    client_ids: ClientIdAllocator,
    config: VbiConfig,
    telemetry: Arc<Telemetry>,
}

impl OpEnv for SystemInner {
    fn config(&self) -> &VbiConfig {
        &self.config
    }

    fn alloc_client_id(&mut self) -> Result<ClientId> {
        self.client_ids.allocate()
    }

    fn release_client_id(&mut self, id: ClientId) {
        self.client_ids.release(id);
    }

    fn try_insert_client(&mut self, id: ClientId, cvt: Cvt) -> bool {
        if self.cvts.contains_key(&id) {
            return false;
        }
        self.cvts.insert(id, cvt);
        self.cvt_caches.insert(id, CvtCache::new(self.config.cvt_cache_slots));
        true
    }

    fn take_client_vbuids(&mut self, id: ClientId) -> Result<Vec<Vbuid>> {
        let cvt = self.cvts.remove(&id).ok_or(VbiError::InvalidClient(id))?;
        self.cvt_caches.remove(&id);
        Ok(cvt.iter().map(|(_, entry)| entry.vbuid()).collect())
    }

    fn with_client<R>(
        &mut self,
        id: ClientId,
        f: impl FnOnce(&mut Cvt, &mut dyn ClientCvtCache) -> R,
    ) -> Result<R> {
        let cvt = self.cvts.get_mut(&id).ok_or(VbiError::InvalidClient(id))?;
        let cache = self.cvt_caches.get_mut(&id).expect("cache exists with cvt");
        Ok(f(cvt, cache))
    }

    fn with_client_read(&mut self, id: ClientId, index: usize) -> Result<(CvtEntry, bool)> {
        // A System is single-owner: the read side is the locked path.
        let cvt = self.cvts.get(&id).ok_or(VbiError::InvalidClient(id))?;
        let cache = self.cvt_caches.get_mut(&id).expect("cache exists with cvt");
        ops::cvt_lookup(cvt, cache, id, index)
    }

    fn with_home_mtl<R>(&mut self, _vbuid: Vbuid, f: impl FnOnce(&mut Mtl) -> R) -> R {
        // A System is a one-MTL machine: every VB is homed on it.
        f(&mut self.mtl)
    }

    fn place_vb(&mut self, vm: VmId, size_class: SizeClass, props: VbProperties) -> Result<Vbuid> {
        let vbuid = self.mtl.find_free_vb(size_class, vm)?;
        self.mtl.enable_vb(vbuid, props)?;
        Ok(vbuid)
    }

    fn place_vb_on(
        &mut self,
        shard: usize,
        vm: VmId,
        size_class: SizeClass,
        props: VbProperties,
    ) -> Result<Vbuid> {
        // A System is a one-MTL machine: shard 0 is the whole space.
        if shard != 0 {
            return Err(VbiError::InvalidShard { shard, shards: 1 });
        }
        self.place_vb(vm, size_class, props)
    }

    fn with_mtl_pair<R>(
        &mut self,
        _src: Vbuid,
        _dst: Vbuid,
        f: impl FnOnce(&mut Mtl, Option<&mut Mtl>) -> R,
    ) -> R {
        // One MTL homes everything: source and destination always coincide.
        f(&mut self.mtl, None)
    }

    fn redirect_clients(&mut self, old: Vbuid, new: Vbuid) -> usize {
        let mut moved = 0;
        for (client, cvt) in self.cvts.iter_mut() {
            let cache = self.cvt_caches.get_mut(client).expect("cache exists with cvt");
            for index in cvt.redirect_all(old, new) {
                cache.invalidate(*client, index);
                moved += 1;
            }
        }
        moved
    }

    fn telemetry(&self) -> Option<&Telemetry> {
        Some(&self.telemetry)
    }
}

/// A full VBI machine: MTL + clients + CVTs + CVT caches, behind a
/// cheap-to-clone handle.
///
/// See the [crate-level documentation](crate) for a quick-start example.
#[derive(Debug, Clone)]
pub struct System {
    inner: Arc<Mutex<SystemInner>>,
    /// The (immutable) configuration, readable without the inner lock.
    config: Arc<VbiConfig>,
    /// The telemetry plane, shared with the engine; readable without the
    /// inner lock (all-atomic).
    telemetry: Arc<Telemetry>,
}

/// A guard giving read access to a [`System`]'s MTL; dereferences to
/// [`Mtl`]. Holds the system's inner lock — drop it before calling any
/// other `System` or session method, or that call deadlocks.
pub struct MtlRef<'a>(MutexGuard<'a, SystemInner>);

impl Deref for MtlRef<'_> {
    type Target = Mtl;
    fn deref(&self) -> &Mtl {
        &self.0.mtl
    }
}

/// A guard giving exclusive access to a [`System`]'s MTL; dereferences
/// mutably to [`Mtl`]. Same lock discipline as [`MtlRef`].
pub struct MtlRefMut<'a>(MutexGuard<'a, SystemInner>);

impl Deref for MtlRefMut<'_> {
    type Target = Mtl;
    fn deref(&self) -> &Mtl {
        &self.0.mtl
    }
}

impl DerefMut for MtlRefMut<'_> {
    fn deref_mut(&mut self) -> &mut Mtl {
        &mut self.0.mtl
    }
}

/// A guard giving read access to one client's CVT; dereferences to
/// [`Cvt`]. Holds the system's inner lock — drop it before calling any
/// other `System` or session method.
pub struct CvtRef<'a> {
    guard: MutexGuard<'a, SystemInner>,
    client: ClientId,
}

impl Deref for CvtRef<'_> {
    type Target = Cvt;
    fn deref(&self) -> &Cvt {
        // Existence was checked at construction and the lock is held.
        self.guard.cvts.get(&self.client).expect("checked at construction")
    }
}

impl System {
    /// Creates a system with the given configuration.
    pub fn new(config: VbiConfig) -> Self {
        let telemetry = Arc::new(Telemetry::new(
            1,
            config.trace_capacity,
            config.telemetry_metrics,
            config.telemetry_tracing,
        ));
        Self {
            inner: Arc::new(Mutex::new(SystemInner {
                mtl: Mtl::new(config.clone()),
                cvts: HashMap::new(),
                cvt_caches: HashMap::new(),
                // Host clients take the host's client IDs (§6.1): a guest's
                // IDs, and so its VBID slice, stay its own.
                client_ids: config.vm_partition().client_ids(VmId::HOST),
                config: config.clone(),
                telemetry: Arc::clone(&telemetry),
            })),
            config: Arc::new(config),
            telemetry,
        }
    }

    fn lock(&self) -> MutexGuard<'_, SystemInner> {
        unpoison(self.inner.lock())
    }

    /// The active configuration.
    pub fn config(&self) -> &VbiConfig {
        &self.config
    }

    /// Read access to the MTL (stats, structure inspection). The guard
    /// holds the system lock; drop it before the next `System` call.
    pub fn mtl(&self) -> MtlRef<'_> {
        MtlRef(self.lock())
    }

    /// Mutable access to the MTL, around the engine: for white-box tests
    /// and for timing the MTL half on its own. Product code changes the
    /// machine through [`System::execute`] and the methods below.
    pub fn mtl_mut(&self) -> MtlRefMut<'_> {
        MtlRefMut(self.lock())
    }

    /// Executes one [`Op`] through the shared engine — the same dispatch
    /// the batched and queued front ends use, and the plumbing every
    /// [`ClientSession`] method funnels through.
    pub fn execute(&self, op: Op) -> OpResult {
        ops::execute(&mut *self.lock(), op)
    }

    // --- clients ------------------------------------------------------------

    /// Registers a new memory client (process, OS, or VM guest) and returns
    /// the session handle that owns its API surface.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::OutOfClients`] when all 2^16 IDs are live.
    pub fn create_client(&self) -> Result<ClientSession<System>> {
        let id = ops::create_client(&mut *self.lock())?;
        Ok(ClientSession::bind(self.clone(), id))
    }

    /// Registers a client with a caller-chosen ID (used by the VM layer,
    /// which partitions the client-ID space among virtual machines, §6.1).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] if the ID is already live.
    pub fn create_client_with_id(&self, id: ClientId) -> Result<ClientSession<System>> {
        let id = ops::create_client_with_id(&mut *self.lock(), id)?;
        Ok(ClientSession::bind(self.clone(), id))
    }

    /// Whether `client` is live.
    pub fn client_exists(&self, client: ClientId) -> bool {
        self.lock().cvts.contains_key(&client)
    }

    /// The client's CVT (kernel-level inspection; the OS model uses this
    /// for fork). The guard holds the system lock.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] for unknown clients.
    pub fn cvt(&self, client: ClientId) -> Result<CvtRef<'_>> {
        let guard = self.lock();
        if !guard.cvts.contains_key(&client) {
            return Err(VbiError::InvalidClient(client));
        }
        Ok(CvtRef { guard, client })
    }

    // --- capacity management ----------------------------------------------------

    /// Reclaims up to `count` resident frames from the VB behind
    /// (`client`, `index`) — the ballooning primitive of §3.4's capacity
    /// management, shared with the service front end.
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] / an invalid-CVT error when the
    /// handle does not resolve.
    pub fn reclaim_vb_frames(&self, client: ClientId, index: usize, count: usize) -> Result<usize> {
        ops::reclaim_vb_frames(&mut *self.lock(), client, index, count)
    }

    /// Occupancy of the backing store serving the VB behind
    /// (`client`, `index`).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] / an invalid-CVT error when the
    /// handle does not resolve.
    pub fn backing_report(&self, client: ClientId, index: usize) -> Result<ops::BackingReport> {
        ops::backing_report(&mut *self.lock(), client, index)
    }

    /// Binds `contents` as the swapped-out pages of the VB behind
    /// (`client`, `index`) — the OS model's memory-mapped files (§3.4).
    ///
    /// # Errors
    ///
    /// Returns [`VbiError::InvalidClient`] / an invalid-CVT error when the
    /// handle does not resolve, or any error of [`Mtl::bind_file`].
    pub fn bind_file(&self, client: ClientId, index: usize, contents: &[u8]) -> Result<()> {
        ops::bind_file(&mut *self.lock(), client, index, contents)
    }

    // --- observability -------------------------------------------------------

    /// Checks the MTL's residency bookkeeping against its translation
    /// structures (see [`Mtl::audit`]).
    ///
    /// # Errors
    ///
    /// A description of the first law found broken.
    pub fn audit(&self) -> core::result::Result<(), String> {
        self.lock().mtl.audit()
    }

    /// The machine's telemetry plane: per-op counters, latency histograms,
    /// and the trace ring. Toggle recording at runtime with
    /// [`Telemetry::set_metrics`] / [`Telemetry::set_tracing`]; drain
    /// traces with [`Telemetry::drain_trace`]. Lock-free to read.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// One unified, serializable view of the machine: MTL/TLB/CVT-cache
    /// counters, pressure counters, and the per-op metrics registry — the
    /// same [`Snapshot`] shape the service and queue front ends produce.
    pub fn snapshot(&self) -> Snapshot {
        let guard = self.lock();
        let mtl_stats = guard.mtl.stats();
        let mut cvt_cache = CvtCacheStats::default();
        for cache in guard.cvt_caches.values() {
            cvt_cache.merge(&cache.stats());
        }
        Snapshot {
            front_end: "system",
            shards: 1,
            mtl: mtl_stats,
            per_shard_mtl: vec![mtl_stats],
            tlb: guard.mtl.tlb_stats(),
            cvt_cache,
            // No client map either: state is reached through one lock.
            client_map: ClientMapStats::default(),
            // A System takes no shard locks; its one "shard" just reports
            // the ops the engine ran.
            shard_activity: vec![ShardActivity {
                acquisitions: 0,
                contended: 0,
                ops_executed: self.telemetry.total_ops(),
            }],
            per_shard_fragmentation: vec![guard.mtl.fragmentation(Snapshot::FRAGMENTATION_ORDER)],
            ops: self.telemetry.op_latencies(),
            ops_per_stripe: self.telemetry.ops_per_stripe(),
            free_frames: guard.mtl.free_frames(),
            swap_occupancy: guard.mtl.swap_occupancy() as u64,
            queue: None,
        }
    }
}

impl SessionHost for System {
    fn run_op(&self, op: Op) -> OpResult {
        self.execute(op)
    }

    fn client_cvt_cache_stats(&self, client: ClientId) -> Result<CvtCacheStats> {
        self.lock()
            .cvt_caches
            .get(&client)
            .map(CvtCache::stats)
            .ok_or(VbiError::InvalidClient(client))
    }

    fn store_bytes_for(
        &self,
        client: ClientId,
        va: crate::client::VirtualAddress,
        data: &[u8],
    ) -> Result<()> {
        ops::store_bytes(&mut *self.lock(), client, va, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::VirtualAddress;
    use crate::perm::Rwx;

    fn system() -> System {
        System::new(VbiConfig { phys_frames: 4096, ..VbiConfig::vbi_full() })
    }

    #[test]
    fn request_vb_picks_the_smallest_fitting_class() {
        let s = system();
        let c = s.create_client().unwrap();
        let small = c.request_vb(100, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        assert_eq!(small.vbuid.size_class(), SizeClass::Kib4);
        let big = c.request_vb(200 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        assert_eq!(big.vbuid.size_class(), SizeClass::Mib4);
    }

    #[test]
    fn store_and_load_roundtrip() {
        let s = system();
        let c = s.create_client().unwrap();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(8), 0xabcd).unwrap();
        assert_eq!(c.load_u64(vb.at(8)).unwrap(), 0xabcd);
        assert_eq!(c.load_u64(vb.at(16)).unwrap(), 0, "untouched memory reads zero");
    }

    #[test]
    fn permissions_are_enforced_per_client() {
        let s = system();
        let owner = s.create_client().unwrap();
        let reader = s.create_client().unwrap();
        let vb = owner.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        owner.store_u64(vb.at(0), 7).unwrap();

        // True sharing (§3.4): attach the second client read-only.
        let idx = reader.attach(vb.vbuid, Rwx::READ).unwrap();
        let ro = VirtualAddress::new(idx, 0);
        assert_eq!(reader.load_u64(ro).unwrap(), 7);
        assert!(matches!(reader.store_u64(ro, 8), Err(VbiError::PermissionDenied { .. })));
    }

    #[test]
    fn true_sharing_is_coherent() {
        let s = system();
        let a = s.create_client().unwrap();
        let b = s.create_client().unwrap();
        let vb = a.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        let idx_b = b.attach(vb.vbuid, Rwx::READ_WRITE).unwrap();
        a.store_u64(vb.at(0), 1).unwrap();
        assert_eq!(b.load_u64(VirtualAddress::new(idx_b, 0)).unwrap(), 1);
        b.store_u64(VirtualAddress::new(idx_b, 0), 2).unwrap();
        assert_eq!(a.load_u64(vb.at(0)).unwrap(), 2);
    }

    #[test]
    fn unattached_clients_cannot_touch_a_vb() {
        let s = system();
        let owner = s.create_client().unwrap();
        let stranger = s.create_client().unwrap();
        let vb = owner.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        // The stranger's CVT has no entry: the index is invalid for them.
        assert!(matches!(stranger.load_u64(vb.at(0)), Err(VbiError::InvalidCvtIndex { .. })));
    }

    #[test]
    fn release_vb_disables_at_zero_refs() {
        let s = system();
        let c = s.create_client().unwrap();
        let free0 = s.mtl().free_frames();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(0), 9).unwrap();
        c.release_vb(vb.cvt_index).unwrap();
        assert_eq!(s.mtl().free_frames(), free0);
        assert!(matches!(c.load_u64(vb.at(0)), Err(VbiError::InvalidCvtIndex { .. })));
    }

    #[test]
    fn shared_vb_survives_one_detach() {
        let s = system();
        let a = s.create_client().unwrap();
        let b = s.create_client().unwrap();
        let vb = a.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        let idx_b = b.attach(vb.vbuid, Rwx::READ).unwrap();
        a.store_u64(vb.at(0), 3).unwrap();
        a.release_vb(vb.cvt_index).unwrap();
        // B still reads the data: the VB had refcount 2.
        assert_eq!(b.load_u64(VirtualAddress::new(idx_b, 0)).unwrap(), 3);
    }

    #[test]
    fn destroy_client_releases_everything() {
        let s = system();
        let free0 = s.mtl().free_frames();
        let c = s.create_client().unwrap();
        let id = c.id();
        for i in 0..4 {
            let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
            c.store_u64(vb.at(0), i).unwrap();
        }
        c.destroy().unwrap();
        assert_eq!(s.mtl().free_frames(), free0);
        assert!(!s.client_exists(id));
    }

    #[test]
    fn destroyed_sessions_error_on_surviving_clones() {
        let s = system();
        let c = s.create_client().unwrap();
        let clone = c.clone();
        let vb = c.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.destroy().unwrap();
        assert!(matches!(clone.load_u64(vb.at(0)), Err(VbiError::InvalidClient(_))));
    }

    #[test]
    fn promotion_keeps_the_pointer_valid() {
        let s = system();
        let c = s.create_client().unwrap();
        let vb = c.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(64), 31337).unwrap();
        let promoted = c.promote(vb.cvt_index).unwrap();
        // Same CVT index — the program's pointers still work (§4.2.2) —
        // but more space.
        assert_eq!(promoted.cvt_index, vb.cvt_index);
        assert_eq!(promoted.vbuid.size_class(), SizeClass::Kib128);
        assert_eq!(c.load_u64(vb.at(64)).unwrap(), 31337);
        c.store_u64(vb.at(100 << 10), 1).unwrap();
        assert_eq!(c.load_u64(vb.at(100 << 10)).unwrap(), 1);
    }

    #[test]
    fn promotion_redirects_all_sharers() {
        let s = system();
        let a = s.create_client().unwrap();
        let b = s.create_client().unwrap();
        let vb = a.request_vb(4 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        let idx_b = b.attach(vb.vbuid, Rwx::READ_WRITE).unwrap();
        a.store_u64(vb.at(0), 5).unwrap();
        a.promote(vb.cvt_index).unwrap();
        assert_eq!(b.load_u64(VirtualAddress::new(idx_b, 0)).unwrap(), 5);
    }

    #[test]
    fn cvt_cache_gets_hot() {
        let s = system();
        let c = s.create_client().unwrap();
        let vb = c.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        for _ in 0..100 {
            c.load_u64(vb.at(0)).unwrap();
        }
        let stats = c.cvt_cache_stats().unwrap();
        assert!(stats.hit_rate() > 0.95, "hit rate {}", stats.hit_rate());
        // A single-owner System has no lock-free path: all hits are locked.
        assert_eq!(stats.lockfree_hits, 0);
        assert_eq!(stats.torn_retries, 0);
    }

    #[test]
    fn oversized_requests_are_rejected() {
        let s = system();
        let c = s.create_client().unwrap();
        assert!(matches!(
            c.request_vb(u64::MAX, VbProperties::NONE, Rwx::READ),
            Err(VbiError::RequestTooLarge { .. })
        ));
    }

    #[test]
    fn snapshot_unifies_counters_and_op_metrics() {
        use crate::telemetry::OpKind;
        let s = system();
        let c = s.create_client().unwrap();
        let vb = c.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        for i in 0..10 {
            c.store_u64(vb.at(8 * i), i).unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.front_end, "system");
        assert_eq!(snap.shards, 1);
        assert_eq!(snap.mtl, s.mtl().stats(), "snapshot mirrors MtlStats");
        assert_eq!(snap.op(OpKind::StoreU64).unwrap().count, 10);
        assert_eq!(snap.op(OpKind::RequestVb).unwrap().count, 1);
        assert_eq!(
            snap.ops_per_stripe.iter().sum::<u64>(),
            snap.total_ops(),
            "stripe counts sum to the total"
        );
        assert!(snap.to_json().contains("\"front_end\":\"system\""));
        assert!(snap.to_prometheus().contains("vbi_op_count"));
    }

    #[test]
    fn telemetry_toggles_off_at_runtime() {
        let s = system();
        let c = s.create_client().unwrap();
        let vb = c.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        s.telemetry().set_metrics(false);
        c.store_u64(vb.at(0), 1).unwrap();
        assert_eq!(s.snapshot().total_ops(), 1, "only the request_vb was recorded");
        s.telemetry().set_metrics(true);
        c.store_u64(vb.at(0), 2).unwrap();
        assert_eq!(s.snapshot().total_ops(), 2);
    }

    #[test]
    fn tracing_captures_data_plane_events() {
        let s = System::new(VbiConfig {
            phys_frames: 4096,
            telemetry_tracing: true,
            trace_capacity: 64,
            ..VbiConfig::vbi_full()
        });
        let c = s.create_client().unwrap();
        let vb = c.request_vb(4096, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        c.store_u64(vb.at(0), 7).unwrap();
        c.load_u64(vb.at(0)).unwrap();
        let events = s.telemetry().drain_trace();
        assert!(events.iter().any(|e| e.kind == crate::telemetry::OpKind::StoreU64));
        let load = events.iter().find(|e| e.kind == crate::telemetry::OpKind::LoadU64).unwrap();
        assert_eq!(load.vbid, vb.vbuid.vbid(), "trace names the VB it touched");
        assert_eq!(load.shard, 0);
    }

    #[test]
    fn bulk_bytes_roundtrip() {
        let s = system();
        let c = s.create_client().unwrap();
        let vb = c.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE).unwrap();
        let data: Vec<u8> = (0..=255).collect();
        c.store_bytes(vb.at(4000), &data).unwrap(); // straddles a page
        assert_eq!(c.load_bytes(vb.at(4000), 256).unwrap(), data);
    }
}
