//! The single op-execution engine behind every request path.
//!
//! The paper's MTL (§4) is one agent serving the same operations to every
//! client, however those requests arrive — synchronously from a core, or
//! queued through a submission ring. This module is that agent in code:
//! [`Op`] names every operation of the VBI request surface (control plane
//! *and* data plane), and the engine functions — one per op, dispatched by
//! [`execute`] — own all permission checks, CVT-cache lookups, rollback
//! protocol, and stat accounting exactly once.
//!
//! A data-plane op is the paper's split in miniature — protection check on
//! the client side, then translation and allocation in the MTL — and each
//! half is defined once: the check ([`access`]), the locked half
//! ([`run_checked_pressured`] under one hold of the home MTL, in-place
//! eviction included), the borrow retry around it (sibling capacity,
//! fetched with no lock held), and the telemetry boundary that records the
//! op. [`execute`] runs them for one op, [`execute_batch`] for a slice of
//! ops with one MTL visit per populated shard, [`store_bytes`] for a span
//! the caller lends.
//!
//! Front ends differ only in *where the state lives*, which the [`OpEnv`]
//! trait abstracts:
//!
//! * [`crate::System`] implements it with plain single-owner fields (one
//!   MTL, `HashMap`s of CVTs) — the synchronous adapter;
//! * `vbi_service::VbiService` implements it with `Mutex<Mtl>` shards and
//!   lock-protected client state — the concurrent sharding adapter, which
//!   also batches (`VbiService::submit`, through [`execute_batch`]) and
//!   queues (`VbiQueue`) the same [`Op`]s.
//!
//! Because both adapters route every op through this engine, a 1-shard
//! service driven sequentially is *observably identical* to a `System` by
//! construction: same responses, same [`crate::MtlStats`] (proven
//! property-based in `tests/service_equivalence.rs`).
//!
//! ## Locking contract
//!
//! The engine asks the environment for at most one *kind* of resource at a
//! time: every [`OpEnv`] callback (`with_client`, `with_client_read`,
//! `with_home_mtl`, `place_vb`, `redirect_clients`) is entered and exited
//! before the next one starts, so lock-based environments never hold a
//! client lock and a shard lock simultaneously on the engine's behalf. The
//! one deliberate exception is the remap family's [`OpEnv::with_mtl_pair`],
//! which holds the source *and* destination home MTLs of a migration at
//! once — environments acquire the two shard locks in shard-index order,
//! keeping deadlock impossible by construction.
//!
//! Client state additionally splits into a read and a write side:
//! [`OpEnv::with_client_read`] is the engine's declaration that an op never
//! mutates client state, which lets the concurrent service answer CVT-cache
//! hits from a seqlock-published snapshot with **zero** client-lock
//! acquisitions, falling back to the locked [`cvt_lookup`] path on a miss
//! or torn read. Control-plane ops always take the write side.

use std::time::Instant;

use crate::addr::{SizeClass, VbiAddress, Vbuid};
use crate::client::{ClientId, Cvt, CvtEntry, VirtualAddress};
use crate::config::VbiConfig;
use crate::cvt_cache::ClientCvtCache;
use crate::error::{Result, VbiError};
use crate::mtl::Mtl;
use crate::perm::{AccessKind, Rwx};
use crate::phys::FRAME_BYTES;
use crate::swap::PressureBackend;
use crate::telemetry::{OpKind, OpSample, Telemetry, TraceEvent};
use crate::vb::VbProperties;
use crate::vm::VmId;

/// A program's handle on an attached VB: the CVT index returned by
/// `request_vb` plus (for convenience and introspection) the VBUID behind it.
///
/// Programs only ever need `cvt_index`; keeping the VBUID on the handle makes
/// tests and examples more legible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VbHandle {
    /// Index of the CVT entry pointing at the VB — the program's pointer.
    pub cvt_index: usize,
    /// The VB behind the entry (may change under promotion/migration).
    pub vbuid: Vbuid,
}

impl VbHandle {
    /// The virtual address `offset` bytes into the VB.
    pub const fn at(&self, offset: u64) -> VirtualAddress {
        VirtualAddress::new(self.cvt_index, offset)
    }
}

/// The outcome of a protection-checked access, with its timing-relevant
/// events (consumed by the timing simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckedAccess {
    /// The VBI address the access maps to (used to index all caches).
    pub address: VbiAddress,
    /// Whether the CVT cache supplied the entry (a miss costs one memory
    /// read of the in-memory CVT).
    pub cvt_cache_hit: bool,
}

/// One operation of the VBI request surface.
///
/// Control-plane ops manage clients and VB attachments; data-plane ops are
/// protection-checked memory accesses. Every front end — [`crate::System`],
/// `VbiService::submit`, `VbiQueue` — speaks this enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Register a new memory client (process, OS, or VM guest).
    CreateClient,
    /// Register a client with a caller-chosen ID (§6.1 VM partitioning).
    CreateClientWithId {
        /// The ID to claim.
        id: ClientId,
    },
    /// Destroy a client, detaching every VB in its CVT.
    DestroyClient {
        /// Client to destroy.
        client: ClientId,
    },
    /// The `request_vb` system call (§4.2): allocate and attach the
    /// smallest free VB that fits `bytes`.
    RequestVb {
        /// Requesting client.
        client: ClientId,
        /// Requested capacity in bytes.
        bytes: u64,
        /// Property bitvector for the new VB.
        props: VbProperties,
        /// Permissions granted to the requester.
        perms: Rwx,
    },
    /// The `attach` instruction: grant `client` access to `vbuid`.
    Attach {
        /// Client being granted access.
        client: ClientId,
        /// Target VB.
        vbuid: Vbuid,
        /// Granted permissions.
        perms: Rwx,
    },
    /// `attach` at a specific CVT index (fork and shared-library layout).
    AttachAt {
        /// Client being granted access.
        client: ClientId,
        /// CVT index to claim.
        index: usize,
        /// Target VB.
        vbuid: Vbuid,
        /// Granted permissions.
        perms: Rwx,
    },
    /// The `detach` instruction: revoke `client`'s access to `vbuid`.
    Detach {
        /// Client losing access.
        client: ClientId,
        /// Target VB.
        vbuid: Vbuid,
    },
    /// Detach the VB behind a CVT index and disable it at zero references —
    /// the common "free this data structure" path.
    ReleaseVb {
        /// Releasing client.
        client: ClientId,
        /// CVT index of the attachment.
        index: usize,
    },
    /// The CPU-side protection check of §4.2.3, without touching memory.
    Access {
        /// Accessing client.
        client: ClientId,
        /// `{CVT index, offset}` to check.
        va: VirtualAddress,
        /// Kind of access to check for.
        kind: AccessKind,
    },
    /// Protection-checked instruction fetch (returns the byte; fetch width
    /// is immaterial to the model).
    Fetch {
        /// Fetching client.
        client: ClientId,
        /// `{CVT index, offset}` to fetch.
        va: VirtualAddress,
    },
    /// Protection-checked functional load of a `u64`.
    LoadU64 {
        /// Requesting client.
        client: ClientId,
        /// `{CVT index, offset}` to read.
        va: VirtualAddress,
    },
    /// Protection-checked functional store of a `u64`.
    StoreU64 {
        /// Requesting client.
        client: ClientId,
        /// `{CVT index, offset}` to write.
        va: VirtualAddress,
        /// Value to store.
        value: u64,
    },
    /// Protection-checked functional load of one byte.
    LoadU8 {
        /// Requesting client.
        client: ClientId,
        /// `{CVT index, offset}` to read.
        va: VirtualAddress,
    },
    /// Protection-checked functional store of one byte.
    StoreU8 {
        /// Requesting client.
        client: ClientId,
        /// `{CVT index, offset}` to write.
        va: VirtualAddress,
        /// Value to store.
        value: u8,
    },
    /// Protection-checked load of `len` bytes (one check for the span).
    LoadBytes {
        /// Requesting client.
        client: ClientId,
        /// `{CVT index, offset}` of the span's base.
        va: VirtualAddress,
        /// Bytes to read.
        len: usize,
    },
    /// Protection-checked store of a byte span (one check for the span).
    StoreBytes {
        /// Requesting client.
        client: ClientId,
        /// `{CVT index, offset}` of the span's base.
        va: VirtualAddress,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// VB promotion (§4.4): move the VB behind `client`'s CVT `index` into
    /// a freshly enabled VB of the next larger size class on the same home
    /// shard, redirect every attached client's CVT entry (§4.2.2 — the
    /// program's pointers stay valid), and disable the drained source.
    Promote {
        /// Client whose handle names the VB (every sharer is redirected).
        client: ClientId,
        /// CVT index of the VB to promote.
        index: usize,
    },
    /// `clone_vb` behind a handle (§4.4): enable a same-class VB on the
    /// source's home shard, make it a copy-on-write clone, and attach it to
    /// `client` with the source entry's permissions.
    CloneVb {
        /// Client receiving the clone.
        client: ClientId,
        /// CVT index of the VB to clone.
        index: usize,
    },
    /// Cross-shard VB migration (§4.2.2, §6.2): copy the VB behind
    /// `client`'s CVT `index` into a fresh VB homed on `to_shard`, redirect
    /// every attached client's CVT entry, and disable the source — the OS
    /// "seamlessly migrates VBs by just updating the VBUID of the
    /// corresponding CVT entry".
    Migrate {
        /// Client whose handle names the VB (every sharer is redirected).
        client: ClientId,
        /// CVT index of the VB to migrate.
        index: usize,
        /// Destination shard (0 on a single-shard machine).
        to_shard: usize,
    },
}

impl Op {
    /// For data-plane ops that touch memory: the `(client, va, kind)`
    /// triple of the CPU-side protection check that precedes the MTL
    /// access. `None` for control-plane ops, for [`Op::Access`] (which
    /// performs no MTL access), and for empty byte spans (which complete
    /// without any check).
    ///
    /// This is the line along which the engine splits an op into its check
    /// phase (client locks only) and its MTL phase (home-shard lock only).
    pub fn checked_access(&self) -> Option<(ClientId, VirtualAddress, AccessKind)> {
        match *self {
            Op::Fetch { client, va } => Some((client, va, AccessKind::Execute)),
            Op::LoadU64 { client, va } | Op::LoadU8 { client, va } => {
                Some((client, va, AccessKind::Read))
            }
            Op::LoadBytes { client, va, len } if len > 0 => Some((client, va, AccessKind::Read)),
            Op::StoreU64 { client, va, .. } | Op::StoreU8 { client, va, .. } => {
                Some((client, va, AccessKind::Write))
            }
            Op::StoreBytes { client, va, ref data } if !data.is_empty() => {
                Some((client, va, AccessKind::Write))
            }
            _ => None,
        }
    }

    /// For the VB-remap family (promote/clone/migrate): the `(client, CVT
    /// index)` naming the *source* VB. Queued front ends use this to route a
    /// remap to its source shard's worker, which engages the destination
    /// shard through the environment's ordered two-MTL capability.
    pub fn remap_source(&self) -> Option<(ClientId, usize)> {
        match *self {
            Op::Promote { client, index }
            | Op::CloneVb { client, index }
            | Op::Migrate { client, index, .. } => Some((client, index)),
            _ => None,
        }
    }

    /// The client the op runs for ([`Op::CreateClient`] alone has none;
    /// [`Op::CreateClientWithId`] names the client being created).
    pub fn client(&self) -> Option<ClientId> {
        match *self {
            Op::CreateClient => None,
            Op::CreateClientWithId { id } => Some(id),
            Op::DestroyClient { client }
            | Op::RequestVb { client, .. }
            | Op::Attach { client, .. }
            | Op::AttachAt { client, .. }
            | Op::Detach { client, .. }
            | Op::ReleaseVb { client, .. }
            | Op::Access { client, .. }
            | Op::Fetch { client, .. }
            | Op::LoadU64 { client, .. }
            | Op::StoreU64 { client, .. }
            | Op::LoadU8 { client, .. }
            | Op::StoreU8 { client, .. }
            | Op::LoadBytes { client, .. }
            | Op::StoreBytes { client, .. }
            | Op::Promote { client, .. }
            | Op::CloneVb { client, .. }
            | Op::Migrate { client, .. } => Some(client),
        }
    }

    /// The VB the op names *directly* (attach/detach carry a VBUID in the
    /// op itself; data-plane and index-based ops resolve theirs through the
    /// CVT during execution).
    pub fn vbuid(&self) -> Option<Vbuid> {
        match *self {
            Op::Attach { vbuid, .. } | Op::AttachAt { vbuid, .. } | Op::Detach { vbuid, .. } => {
                Some(vbuid)
            }
            _ => None,
        }
    }
}

/// The successful outcome of an [`Op`], typed per operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    /// A created client ([`Op::CreateClient`] / [`Op::CreateClientWithId`]).
    Client(ClientId),
    /// The handle of a freshly requested VB ([`Op::RequestVb`]).
    Handle(VbHandle),
    /// The CVT index returned by [`Op::Attach`].
    CvtIndex(usize),
    /// The post-detach reference count returned by [`Op::Detach`].
    RefCount(u32),
    /// The outcome of a pure protection check ([`Op::Access`]).
    Checked(CheckedAccess),
    /// A loaded `u64` ([`Op::LoadU64`]).
    U64(u64),
    /// A loaded byte ([`Op::LoadU8`] / [`Op::Fetch`]).
    U8(u8),
    /// A loaded span ([`Op::LoadBytes`]).
    Bytes(Vec<u8>),
    /// No architecturally visible result (stores, detach-like ops).
    Unit,
}

impl OpOutput {
    /// The loaded `u64`, if this is a [`OpOutput::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            OpOutput::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The loaded byte, if this is a [`OpOutput::U8`].
    pub fn as_u8(&self) -> Option<u8> {
        match self {
            OpOutput::U8(v) => Some(*v),
            _ => None,
        }
    }

    /// The VB handle, if this is a [`OpOutput::Handle`].
    pub fn as_handle(&self) -> Option<VbHandle> {
        match self {
            OpOutput::Handle(h) => Some(*h),
            _ => None,
        }
    }

    /// The created client, if this is a [`OpOutput::Client`].
    pub fn as_client(&self) -> Option<ClientId> {
        match self {
            OpOutput::Client(c) => Some(*c),
            _ => None,
        }
    }

    /// The CVT index, if this is a [`OpOutput::CvtIndex`].
    pub fn as_cvt_index(&self) -> Option<usize> {
        match self {
            OpOutput::CvtIndex(i) => Some(*i),
            _ => None,
        }
    }

    /// The loaded bytes, if this is a [`OpOutput::Bytes`].
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            OpOutput::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

/// The outcome of one [`Op`]: its typed output, or the VBI error the
/// engine's checks produced.
pub type OpResult = Result<OpOutput>;

/// State access an op-execution environment must provide.
///
/// Implementations differ only in ownership: `System` hands out its plain
/// fields, the sharded service locks the matching shard or client. Each
/// method is a single self-contained acquisition — see the [module
/// docs](self) for the locking contract.
pub trait OpEnv {
    /// The machine configuration (CVT capacity, cache slots, ...).
    fn config(&self) -> &VbiConfig;

    /// Allocates a fresh client ID.
    ///
    /// # Errors
    ///
    /// [`VbiError::OutOfClients`] when all 2^16 IDs are live.
    fn alloc_client_id(&mut self) -> Result<ClientId>;

    /// Returns a destroyed client's ID to the allocator.
    fn release_client_id(&mut self, id: ClientId);

    /// Inserts fresh client state for `id` unless `id` is already live,
    /// pairing the CVT with whichever [`ClientCvtCache`] implementation the
    /// environment uses. Returns whether the insert happened. Must be atomic
    /// with respect to concurrent inserts of the same ID.
    fn try_insert_client(&mut self, id: ClientId, cvt: Cvt) -> bool;

    /// Removes the client's state, returning the VBUIDs its CVT held (so
    /// the engine can release the references).
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidClient`] for unknown clients.
    fn take_client_vbuids(&mut self, id: ClientId) -> Result<Vec<Vbuid>>;

    /// Runs `f` with exclusive access to the client's CVT and CVT cache —
    /// the write side of client state, taken by every control-plane op.
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidClient`] for unknown clients.
    fn with_client<R>(
        &mut self,
        id: ClientId,
        f: impl FnOnce(&mut Cvt, &mut dyn ClientCvtCache) -> R,
    ) -> Result<R>;

    /// The read-side capability: looks up the client's CVT entry for
    /// `index` through its CVT cache, returning the entry plus whether the
    /// cache supplied it. This is the engine's single way of saying *"this
    /// op never mutates client state (beyond cache bookkeeping)"* —
    /// environments may serve cache hits without any exclusive client lock
    /// (the service's seqlock fast path) and fall back to the locked
    /// [`cvt_lookup`] on a miss or torn read.
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidClient`] for unknown clients, or
    /// [`VbiError::InvalidCvtIndex`] for an unattached index.
    fn with_client_read(&mut self, id: ClientId, index: usize) -> Result<(CvtEntry, bool)>;

    /// Runs `f` with exclusive access to the MTL that homes `vbuid`.
    fn with_home_mtl<R>(&mut self, vbuid: Vbuid, f: impl FnOnce(&mut Mtl) -> R) -> R;

    /// [`OpEnv::with_home_mtl`] on behalf of `ops` engine ops at once — the
    /// grouped visit of a batch. Still one acquisition; environments that
    /// account MTL work per op count all `ops` of them.
    fn with_home_mtl_for<R>(
        &mut self,
        vbuid: Vbuid,
        ops: usize,
        f: impl FnOnce(&mut Mtl) -> R,
    ) -> R {
        let _ = ops;
        self.with_home_mtl(vbuid, f)
    }

    /// Finds a free VB of `size_class` in `vm`'s VBID slice (§6.1, see
    /// [`Mtl::find_free_vb`]) and enables it with `props` — the placement
    /// policy (which MTL shard a new VB lands on) lives here.
    ///
    /// # Errors
    ///
    /// [`VbiError::OutOfVirtualBlocks`] when every eligible MTL slice of
    /// the class is exhausted.
    fn place_vb(&mut self, vm: VmId, size_class: SizeClass, props: VbProperties) -> Result<Vbuid>;

    /// Number of MTL shards the environment routes VBs across (1 for the
    /// single-owner `System`). `Mtl::shard_of(vbuid, shard_count)` names a
    /// VB's home shard.
    fn shard_count(&self) -> usize {
        1
    }

    /// Finds a free VB of `size_class` in `vm`'s VBID slice homed on the
    /// given `shard` and enables it with `props` — the *targeted* placement
    /// the remap family uses: promotion and cloning stay on the source's
    /// shard (their frames are shared or moved, never copied), migration
    /// names its destination.
    ///
    /// # Errors
    ///
    /// [`VbiError::InvalidShard`] for a shard the machine does not have, or
    /// [`VbiError::OutOfVirtualBlocks`] when the VM's slice of the class on
    /// that shard is exhausted (or empty).
    fn place_vb_on(
        &mut self,
        shard: usize,
        vm: VmId,
        size_class: SizeClass,
        props: VbProperties,
    ) -> Result<Vbuid>;

    /// Runs `f` with `src`'s home MTL and, when `dst` is homed on a
    /// *different* shard, the destination's home MTL as well (`None` means
    /// both VBs share one MTL). This is the engine's only two-resource
    /// acquisition: lock-based environments take the two shard locks in
    /// shard-index order, so concurrent remaps can never deadlock.
    fn with_mtl_pair<R>(
        &mut self,
        src: Vbuid,
        dst: Vbuid,
        f: impl FnOnce(&mut Mtl, Option<&mut Mtl>) -> R,
    ) -> R;

    /// Rewrites every live client's CVT entries naming `old` to name `new`
    /// ([`crate::client::Cvt::redirect_all`] per client — the §4.2.2
    /// remap), invalidating each affected CVT-cache slot so stale
    /// translations cannot be served (the concurrent service bumps the
    /// seqlock epoch, forcing lock-free readers onto the authoritative
    /// path). Returns the number of entries rewritten, i.e. the reference
    /// count to move from `old` to `new`.
    fn redirect_clients(&mut self, old: Vbuid, new: Vbuid) -> usize;

    /// Runs `f` with the backing store of the MTL homing `vbuid` — the
    /// engine's single way to reach a shard's swap device for occupancy
    /// reporting and backend administration (§3.4).
    fn with_backing<R>(
        &mut self,
        vbuid: Vbuid,
        f: impl FnOnce(&mut dyn PressureBackend) -> R,
    ) -> R {
        self.with_home_mtl(vbuid, |mtl| f(mtl.backing_mut()))
    }

    /// Policy-evicts up to `count` resident pages from the shard homing
    /// `vbuid` (no VB excluded) — the ballooning / quota hook. Returns how
    /// many pages were evicted.
    fn reclaim_frames(&mut self, vbuid: Vbuid, count: usize) -> usize {
        self.with_home_mtl(vbuid, |mtl| mtl.reclaim_frames(count))
    }

    /// Transfers up to `count` frames of free capacity from sibling shards
    /// to the shard homing `vbuid`, returning how many frames actually
    /// moved. The engine calls this only after the home shard failed an op
    /// with [`VbiError::OutOfPhysicalMemory`] *and* its own eviction policy
    /// could not fund the allocation (a shard whose frames all hold
    /// translation structures has nothing reclaimable) — the last resort
    /// before surfacing the error. Called with no shard lock held, so
    /// sharded environments are free to visit siblings one at a time.
    /// Single-shard environments have no siblings: the default moves
    /// nothing, keeping them byte-identical to the pre-borrowing engine.
    fn borrow_frames(&mut self, vbuid: Vbuid, count: usize) -> usize {
        let _ = (vbuid, count);
        0
    }

    /// Tells the environment that serving a data-plane op faulted pages in
    /// from the backing store (the accessed page changed frames).
    /// Environments that publish translation state to lock-free readers
    /// must invalidate what they published for (`client`, `index`) — the
    /// service bumps the slot's seqlock epoch. Called *after* the shard
    /// lock is released; single-owner environments need nothing.
    fn note_fault_in(&mut self, client: ClientId, index: usize) {
        let _ = (client, index);
    }

    /// The environment's telemetry plane, if it has one. When present (and
    /// armed), [`execute`] records one [`OpSample`] — count, latency
    /// histogram, optional trace event — per op at its boundaries; `None`
    /// (the default) costs nothing.
    fn telemetry(&self) -> Option<&Telemetry> {
        None
    }
}

// --- control plane ----------------------------------------------------------

/// Registers a new memory client.
///
/// # Errors
///
/// Returns [`VbiError::OutOfClients`] when all 2^16 IDs are live.
pub fn create_client<E: OpEnv>(env: &mut E) -> Result<ClientId> {
    loop {
        let id = env.alloc_client_id()?;
        let cvt = Cvt::new(id, env.config().cvt_capacity);
        // The allocator does not know about IDs claimed through
        // `create_client_with_id` (§6.1 VM partitioning), so skip any ID
        // that is already live instead of clobbering its state.
        if env.try_insert_client(id, cvt) {
            return Ok(id);
        }
    }
}

/// Registers a client with a caller-chosen ID (§6.1 VM partitioning).
///
/// # Errors
///
/// Returns [`VbiError::InvalidClient`] if the ID is already live.
pub fn create_client_with_id<E: OpEnv>(env: &mut E, id: ClientId) -> Result<ClientId> {
    let cvt = Cvt::new(id, env.config().cvt_capacity);
    if env.try_insert_client(id, cvt) {
        Ok(id)
    } else {
        Err(VbiError::InvalidClient(id))
    }
}

/// Destroys a client: detaches every VB in its CVT, disables VBs whose
/// reference count drops to zero (§4.2.4), and recycles the client ID.
///
/// # Errors
///
/// Returns [`VbiError::InvalidClient`] for unknown clients.
pub fn destroy_client<E: OpEnv>(env: &mut E, client: ClientId) -> Result<()> {
    let vbuids = env.take_client_vbuids(client)?;
    for vbuid in vbuids {
        env.with_home_mtl(vbuid, |mtl| -> Result<()> {
            if mtl.remove_ref(vbuid)? == 0 {
                mtl.disable_vb(vbuid)?;
            }
            Ok(())
        })?;
    }
    env.release_client_id(client);
    Ok(())
}

/// The `request_vb` system call (§4.2): places the smallest free VB that
/// fits `bytes` in the VM that owns `client`'s ID (§6.1), enables it with
/// `props`, attaches the caller with `perms`, and returns the CVT index as
/// the program's handle.
///
/// # Errors
///
/// [`VbiError::RequestTooLarge`] for requests beyond 128 TiB,
/// [`VbiError::InvalidClient`], [`VbiError::CvtFull`], or VB exhaustion.
pub fn request_vb<E: OpEnv>(
    env: &mut E,
    client: ClientId,
    bytes: u64,
    props: VbProperties,
    perms: Rwx,
) -> Result<VbHandle> {
    let size_class =
        SizeClass::smallest_fitting(bytes).ok_or(VbiError::RequestTooLarge { requested: bytes })?;
    let vm = env.config().vm_partition().vm_of_client(client);
    let vbuid = env.place_vb(vm, size_class, props)?;
    match attach(env, client, vbuid, perms) {
        Ok(index) => Ok(VbHandle { cvt_index: index, vbuid }),
        Err(e) => {
            // Roll back the enable so the VB is not leaked.
            env.with_home_mtl(vbuid, |mtl| {
                let _ = mtl.disable_vb(vbuid);
            });
            Err(e)
        }
    }
}

/// The `attach` instruction: adds a CVT entry for `vbuid` with `perms` and
/// increments the VB's reference count. Returns the CVT index.
///
/// # Errors
///
/// [`VbiError::InvalidClient`], [`VbiError::VbNotEnabled`], or
/// [`VbiError::CvtFull`].
pub fn attach<E: OpEnv>(env: &mut E, client: ClientId, vbuid: Vbuid, perms: Rwx) -> Result<usize> {
    env.with_home_mtl(vbuid, |mtl| mtl.add_ref(vbuid))?;
    let attached = env.with_client(client, |cvt, _| cvt.attach(vbuid, perms));
    match attached {
        Ok(Ok(index)) => Ok(index),
        Ok(Err(e)) | Err(e) => {
            env.with_home_mtl(vbuid, |mtl| {
                let _ = mtl.remove_ref(vbuid);
            });
            Err(e)
        }
    }
}

/// `attach` at a specific CVT index (fork and shared-library layout).
///
/// # Errors
///
/// Same as [`attach`], plus [`VbiError::InvalidCvtIndex`] for an occupied
/// or out-of-range index.
pub fn attach_at<E: OpEnv>(
    env: &mut E,
    client: ClientId,
    index: usize,
    vbuid: Vbuid,
    perms: Rwx,
) -> Result<()> {
    env.with_home_mtl(vbuid, |mtl| mtl.add_ref(vbuid))?;
    let attached = env.with_client(client, |cvt, cache| {
        cvt.attach_at(index, vbuid, perms).map(|()| cache.invalidate(client, index))
    });
    match attached {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) | Err(e) => {
            env.with_home_mtl(vbuid, |mtl| {
                let _ = mtl.remove_ref(vbuid);
            });
            Err(e)
        }
    }
}

/// The `detach` instruction: invalidates the client's CVT entry for
/// `vbuid` and decrements the reference count. Returns the new count so
/// callers can `disable_vb` at zero.
///
/// # Errors
///
/// [`VbiError::InvalidClient`] or [`VbiError::VbNotEnabled`].
pub fn detach<E: OpEnv>(env: &mut E, client: ClientId, vbuid: Vbuid) -> Result<u32> {
    env.with_client(client, |cvt, cache| {
        cvt.detach(vbuid).map(|index| cache.invalidate(client, index))
    })??;
    env.with_home_mtl(vbuid, |mtl| mtl.remove_ref(vbuid))
}

/// Detaches the VB behind a CVT index and disables it if this was the last
/// reference — the common "free this data structure" path.
///
/// # Errors
///
/// [`VbiError::InvalidClient`], [`VbiError::InvalidCvtIndex`], or
/// [`VbiError::VbNotEnabled`].
pub fn release_vb<E: OpEnv>(env: &mut E, client: ClientId, index: usize) -> Result<()> {
    let vbuid = env.with_client(client, |cvt, cache| {
        cvt.detach_index(index).inspect(|_| cache.invalidate(client, index))
    })??;
    env.with_home_mtl(vbuid, |mtl| -> Result<()> {
        if mtl.remove_ref(vbuid)? == 0 {
            mtl.disable_vb(vbuid)?;
        }
        Ok(())
    })
}

// --- VB remap (promote / clone / migrate) -----------------------------------
//
// Concurrency contract: a remap is an *OS operation* (§4.2.2 — the OS
// updates the VBUID of the CVT entries), and like the paper's OS it must be
// serialized against *mutation* of the VB being remapped. Concurrent
// readers never observe a torn CVT entry — entries are seqlock-published
// whole words, the copy completes before any entry is redirected, and
// every rewrite bumps the owning client's CVT-cache epoch, so the next
// check re-resolves the new VB. A read whose protection check *already*
// resolved the pre-remap entry, however, races the handover like an
// in-flight access races the CVT rewrite in hardware: it touches the
// drained source's afterlife — usually a clean `VbNotEnabled` in the
// disable window, or stale bytes if the freed VBUID has since been
// re-placed — and converges on retry once it re-resolves the entry
// (exactly what the remap stress suites and `migration_run` assert). A
// concurrent *writer* can likewise land a store on the source between the
// copy and the redirect, and that store dies with the source; concurrent
// attach/detach churn on the same VB races the reference-count handover.
// Callers that mutate a VB while remapping it get the same guarantees the
// paper's OS would give them: none.

/// Reads the CVT entry behind `client`'s `index` under the write side of
/// client state (remaps are control-plane: no lock-free shortcut).
fn remap_source_entry<E: OpEnv>(env: &mut E, client: ClientId, index: usize) -> Result<CvtEntry> {
    env.with_client(client, |cvt, _| cvt.entry(index).copied())?
}

/// The shared §4.2.2 remap tail: every CVT entry in the system naming `old`
/// is rewritten to `new` (invalidating the cached copies), the matching
/// reference counts move with them, and the drained source VB is disabled
/// — freeing its frames on the source shard.
///
/// The destination's references are charged *before* the redirect (from
/// the source's current count) so a client releasing an already-redirected
/// entry can never underflow the new VB's count mid-remap; any drift from
/// the actual redirect tally is reconciled after. If the redirect moved
/// nothing — a concurrent remap of the same VB won the race — the
/// unreferenced destination is rolled back rather than leaked.
fn finish_remap<E: OpEnv>(env: &mut E, old: Vbuid, new: Vbuid) -> Result<()> {
    let expected = env
        .with_home_mtl(old, |mtl| mtl.ref_count(old))
        .map_err(|e| unplace_vb(env, new, e))? as usize;
    env.with_home_mtl(new, |mtl| -> Result<()> {
        for _ in 0..expected {
            mtl.add_ref(new)?;
        }
        Ok(())
    })
    .map_err(|e| unplace_vb(env, new, e))?;
    let moved = env.redirect_clients(old, new);
    // With the control plane quiesced (see the module docs) the redirect
    // moves exactly `expected` entries; reconcile either direction anyway.
    env.with_home_mtl(new, |mtl| -> Result<()> {
        for _ in moved..expected {
            mtl.remove_ref(new)?;
        }
        for _ in expected..moved {
            mtl.add_ref(new)?;
        }
        Ok(())
    })?;
    if moved == 0 {
        // No entry named the source — a racing remap of the same VB won
        // (sequentially impossible: the caller's own entry always
        // redirects). This remap did not happen: best-effort-drain the
        // orphaned source, roll the unreferenced destination back instead
        // of leaking its copied frames, and report the source gone.
        env.with_home_mtl(old, |mtl| {
            let _ = mtl.disable_vb(old);
        });
        return Err(unplace_vb(env, new, VbiError::VbNotEnabled(old)));
    }
    env.with_home_mtl(old, |mtl| -> Result<()> {
        for _ in 0..moved {
            mtl.remove_ref(old)?;
        }
        mtl.disable_vb(old)?;
        Ok(())
    })
}

/// Places the destination of a remap of `src`: a VB of `size_class` on
/// `shard`, with the source's properties, in the source's VM slice (§6.1) —
/// a remap never moves a VB out of its VM.
fn place_destination<E: OpEnv>(
    env: &mut E,
    src: Vbuid,
    shard: usize,
    size_class: SizeClass,
) -> Result<Vbuid> {
    let props = env.with_home_mtl(src, |mtl| mtl.props(src))?;
    let vm = env.config().vm_partition().vm_of(src);
    env.place_vb_on(shard, vm, size_class, props)
}

/// Disables a freshly placed VB again — the rollback when the remap's data
/// movement or attach fails after placement succeeded.
fn unplace_vb<E: OpEnv>(env: &mut E, vbuid: Vbuid, err: VbiError) -> VbiError {
    env.with_home_mtl(vbuid, |mtl| {
        let _ = mtl.disable_vb(vbuid);
    });
    err
}

/// Promotes the VB behind `client`'s CVT `index` to the next larger size
/// class (§4.4): enables a larger VB on the *same* home shard (promotion
/// moves frames, which never leave their MTL) and in the same VM, executes
/// `promote_vb`, redirects every CVT entry in the system that referenced the
/// old VB, and disables the old VB. Returns the new handle — same CVT index, so the
/// program's pointers stay valid (§4.2.2).
///
/// # Errors
///
/// [`VbiError::RequestTooLarge`] at the largest class, plus any
/// enable/translation error.
pub fn promote<E: OpEnv>(env: &mut E, client: ClientId, index: usize) -> Result<VbHandle> {
    let old = remap_source_entry(env, client, index)?.vbuid();
    let next = old
        .size_class()
        .next_larger()
        .ok_or(VbiError::RequestTooLarge { requested: old.bytes() + 1 })?;
    let new = place_destination(env, old, Mtl::shard_of(old, env.shard_count()), next)?;
    env.with_mtl_pair(old, new, |mtl, pair| {
        debug_assert!(pair.is_none(), "promotion never leaves the home shard");
        mtl.promote_vb(old, new)
    })
    .map_err(|e| unplace_vb(env, new, e))?;
    finish_remap(env, old, new)?;
    Ok(VbHandle { cvt_index: index, vbuid: new })
}

/// Clones the VB behind `client`'s CVT `index` (§4.4 `clone_vb`): enables a
/// same-class VB on the source's home shard (clones *share* frames
/// copy-on-write, so both must live on one MTL) and in its VM, clones the
/// translation state, and attaches the clone to `client` with the source
/// entry's permissions. Returns the clone's handle. The source VB and every other
/// sharer are untouched.
///
/// # Errors
///
/// VB exhaustion on the home shard, [`VbiError::CvtFull`], or any
/// translation error.
pub fn clone_vb<E: OpEnv>(env: &mut E, client: ClientId, index: usize) -> Result<VbHandle> {
    let entry = remap_source_entry(env, client, index)?;
    let src = entry.vbuid();
    let dst = place_destination(env, src, Mtl::shard_of(src, env.shard_count()), src.size_class())?;
    env.with_mtl_pair(src, dst, |mtl, pair| {
        debug_assert!(pair.is_none(), "clones share frames: one home shard");
        mtl.clone_vb(src, dst)
    })
    .map_err(|e| unplace_vb(env, dst, e))?;
    let cvt_index =
        attach(env, client, dst, entry.permissions()).map_err(|e| unplace_vb(env, dst, e))?;
    Ok(VbHandle { cvt_index, vbuid: dst })
}

/// Migrates the VB behind `client`'s CVT `index` to a fresh VB homed on
/// `to_shard` (§6.2, the OS's phase-change move): enables a same-class VB
/// on the destination shard, in the source's VM slice, copies the resident
/// contents under *both* home MTLs ([`Mtl::migrate_contents`] — taken in
/// shard-index order by the environment), redirects every CVT entry in the
/// system, and disables the source, freeing its frames. Returns the new handle — same CVT index,
/// new home shard.
///
/// # Errors
///
/// [`VbiError::InvalidShard`] for an out-of-range destination, VB
/// exhaustion on the destination shard (a VM's VB moves only among the
/// shards its VBID slice spans), or any translation error.
pub fn migrate<E: OpEnv>(
    env: &mut E,
    client: ClientId,
    index: usize,
    to_shard: usize,
) -> Result<VbHandle> {
    let shards = env.shard_count();
    if to_shard >= shards {
        return Err(VbiError::InvalidShard { shard: to_shard, shards });
    }
    let old = remap_source_entry(env, client, index)?.vbuid();
    let new = place_destination(env, old, to_shard, old.size_class())?;
    env.with_mtl_pair(old, new, |src, dst| Mtl::migrate_contents(src, dst, old, new))
        .map_err(|e| unplace_vb(env, new, e))?;
    finish_remap(env, old, new)?;
    Ok(VbHandle { cvt_index: index, vbuid: new })
}

// --- data plane -------------------------------------------------------------

/// The locked-path CVT-entry lookup through the client's cache: consult the
/// cache, and on a miss read the in-memory CVT and fill. The single
/// definition every environment's slow path (and every write-kind check)
/// uses, so hit/miss sequences are identical across front ends.
///
/// # Errors
///
/// [`VbiError::InvalidCvtIndex`] for an unattached index.
pub fn cvt_lookup(
    cvt: &Cvt,
    cache: &mut dyn ClientCvtCache,
    client: ClientId,
    index: usize,
) -> Result<(CvtEntry, bool)> {
    match cache.lookup(client, index) {
        Some(entry) => Ok((entry, true)),
        None => {
            // Miss: read the in-memory CVT and fill the cache.
            let entry = *cvt.entry(index)?;
            cache.fill(client, index, entry);
            Ok((entry, false))
        }
    }
}

/// Performs the CPU-side access check of §4.2.3 through the client's CVT
/// cache: index bounds, RWX permission, and offset bounds. On success
/// returns the VBI address plus cache-hit information.
///
/// Read-kind checks (loads, fetches, read permission probes) go through the
/// environment's read capability ([`OpEnv::with_client_read`]), which may
/// answer a cache hit without taking any client lock; write-kind checks
/// take the exclusive side.
///
/// # Errors
///
/// [`VbiError::InvalidClient`], [`VbiError::InvalidCvtIndex`],
/// [`VbiError::PermissionDenied`], or [`VbiError::OffsetOutOfRange`].
pub fn access<E: OpEnv>(
    env: &mut E,
    client: ClientId,
    va: VirtualAddress,
    kind: AccessKind,
) -> Result<CheckedAccess> {
    let (entry, cvt_cache_hit) = if kind.is_write() {
        env.with_client(client, |cvt, cache| cvt_lookup(cvt, cache, client, va.cvt_index()))??
    } else {
        env.with_client_read(client, va.cvt_index())?
    };
    let required = kind.required();
    if !entry.permissions().allows(required) {
        return Err(VbiError::PermissionDenied {
            client,
            vbuid: entry.vbuid(),
            required,
            granted: entry.permissions(),
        });
    }
    let address = entry.vbuid().address(va.offset())?;
    Ok(CheckedAccess { address, cvt_cache_hit })
}

/// Writes a byte span at `address` — the one place span-store semantics
/// live (bytes before a mid-span fault stay written).
fn write_span(mtl: &mut Mtl, address: VbiAddress, data: &[u8]) -> Result<()> {
    for (i, b) in data.iter().enumerate() {
        address.offset_by(i as u64).and_then(|a| mtl.write_u8(a, *b))?;
    }
    Ok(())
}

/// Reads a `len`-byte span at `address` — the one place span-load
/// semantics live.
fn read_span(mtl: &mut Mtl, address: VbiAddress, len: usize) -> Result<Vec<u8>> {
    (0..len).map(|i| address.offset_by(i as u64).and_then(|a| mtl.read_u8(a))).collect()
}

/// Runs the MTL half of a checked data-plane op at `address` (the caller
/// has already performed the protection check that produced the address
/// and holds the home MTL). This is the single definition of what each
/// data-plane op does to memory.
///
/// # Errors
///
/// Any translation error.
///
/// # Panics
///
/// Panics if `op` is not a data-plane op (nothing outside
/// [`Op::checked_access`]'s domain has an MTL half).
pub fn run_checked(mtl: &mut Mtl, op: &Op, address: VbiAddress) -> OpResult {
    match op {
        Op::LoadU64 { .. } => mtl.read_u64(address).map(OpOutput::U64),
        Op::StoreU64 { value, .. } => mtl.write_u64(address, *value).map(|()| OpOutput::Unit),
        Op::LoadU8 { .. } | Op::Fetch { .. } => mtl.read_u8(address).map(OpOutput::U8),
        Op::StoreU8 { value, .. } => mtl.write_u8(address, *value).map(|()| OpOutput::Unit),
        Op::LoadBytes { len, .. } => read_span(mtl, address, *len).map(OpOutput::Bytes),
        Op::StoreBytes { data, .. } => write_span(mtl, address, data).map(|()| OpOutput::Unit),
        _ => unreachable!("{op:?} has no MTL half"),
    }
}

/// Pages the engine reclaims per pressure event: the batch evicted when an
/// op fails for lack of physical memory, before the op retries.
const PRESSURE_RECLAIM_BATCH: usize = 8;

/// Runs a fallible MTL action at `address` with the engine's pressure
/// path wrapped around it: when the action fails for lack of physical
/// memory, the shard's eviction policy reclaims a batch of resident pages
/// (write-back to the backing store) — protecting only the page being
/// accessed, so a VB larger than physical memory can still make progress
/// by self-eviction — and the action retries once. Reclaim and retry
/// happen under the *same* MTL acquisition as the first attempt, so no
/// concurrent allocator can steal the freed frames in between.
///
/// Returns the action's result plus whether serving it faulted pages in
/// from the backing store (the caller may need to republish translation
/// state it exposed to lock-free readers).
pub fn with_pressure<R>(
    mtl: &mut Mtl,
    address: VbiAddress,
    f: impl Fn(&mut Mtl) -> Result<R>,
) -> (Result<R>, bool) {
    let faults_before = mtl.stats().faults_in;
    let mut result = f(mtl);
    if matches!(result, Err(VbiError::OutOfPhysicalMemory))
        && mtl.reclaim_for(address.vbuid(), address.page_index(), PRESSURE_RECLAIM_BATCH) > 0
    {
        result = f(mtl);
    }
    (result, mtl.stats().faults_in > faults_before)
}

/// [`run_checked`] with the engine's pressure path: evict-on-allocation-
/// failure with write-back, then one retry, all under the caller's single
/// hold of the MTL (see [`with_pressure`]) — the locked half of every
/// data-plane op, single or batched.
pub fn run_checked_pressured(mtl: &mut Mtl, op: &Op, address: VbiAddress) -> (OpResult, bool) {
    with_pressure(mtl, address, |mtl| run_checked(mtl, op, address))
}

/// What a checked access does once its home MTL is held: the MTL half of
/// an [`Op`], or a store of a span the caller lent (so [`store_bytes`]
/// spares the slice a clone into an owned [`Op::StoreBytes`]).
#[derive(Debug, Clone, Copy)]
enum Work<'a> {
    Op(&'a Op),
    Store(&'a [u8]),
}

impl Work<'_> {
    /// Runs the work at `address` with the engine's pressure path around
    /// it; returns the result plus whether pages faulted in.
    fn run_pressured(self, mtl: &mut Mtl, address: VbiAddress) -> (OpResult, bool) {
        match self {
            Work::Op(op) => run_checked_pressured(mtl, op, address),
            Work::Store(data) => with_pressure(mtl, address, |mtl| {
                write_span(mtl, address, data).map(|()| OpOutput::Unit)
            }),
        }
    }
}

/// One protection-checked access on its way through the MTL: what
/// [`check`] resolved, and what [`serve`] has made of it so far. `result`
/// starts as [`VbiError::OutOfPhysicalMemory`] — an access no MTL has found
/// memory for yet — which is also exactly the state a borrow retry re-runs.
struct Checked<'a> {
    work: Work<'a>,
    client: ClientId,
    cvt_index: usize,
    address: VbiAddress,
    /// Position in the caller's batch (0 for a single op).
    slot: usize,
    scratch: TraceScratch,
    result: OpResult,
}

impl Checked<'_> {
    fn starved(&self) -> bool {
        matches!(self.result, Err(VbiError::OutOfPhysicalMemory))
    }
}

/// The client half of a data-plane op: the protection check
/// ([`access`]), labelling `scratch` with the VB it resolved to and
/// whether the CVT cache had to fall back to the in-memory CVT.
fn check<'a, E: OpEnv>(
    env: &mut E,
    work: Work<'a>,
    (client, va, kind): (ClientId, VirtualAddress, AccessKind),
    mut scratch: TraceScratch,
) -> Result<Checked<'a>> {
    let checked = access(env, client, va, kind)?;
    scratch.vbuid = Some(checked.address.vbuid());
    if !checked.cvt_cache_hit {
        scratch.flags |= TraceEvent::FLAG_CVT_FALLBACK;
    }
    Ok(Checked {
        work,
        client,
        cvt_index: va.cvt_index(),
        address: checked.address,
        slot: 0,
        scratch,
        result: Err(VbiError::OutOfPhysicalMemory),
    })
}

/// The locked half: runs every still-starved access of `group` under the
/// caller's one hold of their home MTL, each with the pressure path around
/// it ([`with_pressure`]), accumulating fault-in and eviction flags.
/// Returns how many are starved afterwards.
fn serve(mtl: &mut Mtl, group: &mut [Checked<'_>]) -> usize {
    let mut starved = 0;
    for item in group.iter_mut().filter(|item| item.starved()) {
        // The eviction delta is only worth a stats read under tracing.
        let evictions_before = if item.scratch.trace_evictions { mtl.stats().evictions } else { 0 };
        let (result, faulted) = item.work.run_pressured(mtl, item.address);
        if faulted {
            item.scratch.flags |= TraceEvent::FLAG_FAULT_IN;
        }
        if item.scratch.trace_evictions && mtl.stats().evictions > evictions_before {
            item.scratch.flags |= TraceEvent::FLAG_EVICT;
        }
        item.result = result;
        starved += usize::from(item.starved());
    }
    starved
}

/// Serves a group of checked accesses homed on one shard — a single op is
/// the group of one — with one visit to their home MTL, in group order.
///
/// The borrow rule: accesses that still see
/// [`VbiError::OutOfPhysicalMemory`] after the home shard's own eviction
/// sweep wait until the lock is released; then the environment may borrow
/// free capacity from sibling shards ([`OpEnv::borrow_frames`], no lock
/// held), and they are re-run — once, in a second visit — only if
/// something was borrowed. With nothing borrowed the first
/// `OutOfPhysicalMemory` is the result.
///
/// Fault-in notifications go out after the lock is dropped (client locks
/// only — the engine's lock order).
fn run_group<E: OpEnv>(env: &mut E, group: &mut [Checked<'_>]) {
    let Some(first) = group.first() else { return };
    let home = first.address.vbuid();
    let starved = env.with_home_mtl_for(home, group.len(), |mtl| serve(mtl, group));
    if starved > 0 {
        let want = PRESSURE_RECLAIM_BATCH.max(starved);
        if env.borrow_frames(home, want) > 0 {
            env.with_home_mtl_for(home, starved, |mtl| serve(mtl, group));
        }
    }
    for item in group.iter() {
        if item.scratch.flags & TraceEvent::FLAG_FAULT_IN != 0 {
            env.note_fault_in(item.client, item.cvt_index);
        }
    }
}

/// Executes one checked data-plane access end to end: [`check`], then
/// [`run_group`] over the group of one, held on the stack.
fn data_plane<E: OpEnv>(
    env: &mut E,
    work: Work<'_>,
    access: (ClientId, VirtualAddress, AccessKind),
    scratch: &mut TraceScratch,
) -> OpResult {
    let mut group = [check(env, work, access, *scratch)?];
    run_group(env, &mut group);
    let [item] = group;
    *scratch = item.scratch;
    item.result
}

/// Copies `data` into a VB through the checked store path — an
/// [`Op::StoreBytes`] that borrows its span. The span lives in one VB, so
/// the protection check runs once and the home MTL is visited once for the
/// whole copy.
///
/// # Errors
///
/// Any protection or translation error, including running off the end of
/// the VB mid-copy (bytes before the fault are written).
pub fn store_bytes<E: OpEnv>(
    env: &mut E,
    client: ClientId,
    va: VirtualAddress,
    data: &[u8],
) -> Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    let scratch = TraceScratch::open(env, OpKind::StoreBytes, Some(client), None);
    recorded(env, scratch, |env, scratch| {
        data_plane(env, Work::Store(data), (client, va, AccessKind::Write), scratch)
    })
    .map(|_| ())
}

// --- capacity management ----------------------------------------------------

/// Occupancy of the backing store behind one shard, as reported by
/// [`backing_report`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackingReport {
    /// Live slots, payload-bearing and zero alike.
    pub slots: usize,
    /// Live slots holding a logically zero page.
    pub zero_slots: usize,
    /// Payload bytes held by the store.
    pub stored_bytes: u64,
    /// Simulated cycles spent accessing the backing tier (0 for the free
    /// in-memory model).
    pub tier_cycles: u64,
}

/// Policy-evicts up to `count` resident pages from the shard homing the VB
/// at `client`'s CVT slot `index` — the engine's ballooning / quota hook
/// (§3.4): the environment's reclaim capability does the eviction, so every
/// front end shrinks residency the same way. Returns pages evicted.
///
/// # Errors
///
/// [`VbiError::InvalidClient`] or [`VbiError::InvalidCvtIndex`].
pub fn reclaim_vb_frames<E: OpEnv>(
    env: &mut E,
    client: ClientId,
    index: usize,
    count: usize,
) -> Result<usize> {
    let (entry, _) = env.with_client_read(client, index)?;
    Ok(env.reclaim_frames(entry.vbuid(), count))
}

/// Reports the backing-store occupancy of the shard homing the VB at
/// `client`'s CVT slot `index`.
///
/// # Errors
///
/// [`VbiError::InvalidClient`] or [`VbiError::InvalidCvtIndex`].
pub fn backing_report<E: OpEnv>(
    env: &mut E,
    client: ClientId,
    index: usize,
) -> Result<BackingReport> {
    let (entry, _) = env.with_client_read(client, index)?;
    Ok(env.with_backing(entry.vbuid(), |b| BackingReport {
        slots: b.len(),
        zero_slots: b.zero_len(),
        stored_bytes: b.stored_bytes(),
        tier_cycles: b.tier_cycles(),
    }))
}

/// Binds `contents` as the swapped-out pages of the VB behind `client`'s
/// CVT slot `index` (memory-mapped files, §3.4): page `i` of the VB is the
/// file's `i`-th 4 KiB page, zero-padded, and the first access faults it
/// in like any swapped page. An OS act, so no permission is checked.
///
/// # Errors
///
/// [`VbiError::InvalidClient`], [`VbiError::InvalidCvtIndex`], or any
/// error of [`Mtl::bind_file`].
pub fn bind_file<E: OpEnv>(
    env: &mut E,
    client: ClientId,
    index: usize,
    contents: &[u8],
) -> Result<()> {
    let vbuid = env.with_client(client, |cvt, _| cvt.entry(index).map(|e| e.vbuid()))??;
    let pages = contents.chunks(FRAME_BYTES as usize).enumerate().map(|(i, chunk)| {
        let mut page = Box::new([0u8; FRAME_BYTES as usize]);
        page[..chunk.len()].copy_from_slice(chunk);
        (i as u64, page)
    });
    env.with_home_mtl(vbuid, |mtl| mtl.bind_file(vbuid, pages))
}

// --- telemetry boundary -----------------------------------------------------

/// One op's passage through the telemetry boundary: opened before the op
/// runs ([`TraceScratch::open`]), labelled by the engine while it runs
/// (which VB it resolved to, its outcome flags), and turned into the op's
/// one [`OpSample`] by [`record_sample`]. The default is the disarmed
/// scratch: nothing is clocked, nothing is recorded.
#[derive(Debug, Clone, Copy, Default)]
struct TraceScratch {
    kind: OpKind,
    client: Option<ClientId>,
    /// The VB the op names or resolved to (data plane: from the check).
    vbuid: Option<Vbuid>,
    /// [`TraceEvent`] flag bits accumulated so far.
    flags: u8,
    /// Whether the environment's telemetry plane was armed at `open`.
    armed: bool,
    /// Whether to measure the eviction delta (only worth an extra stats
    /// read when tracing is on).
    trace_evictions: bool,
    /// `Some` only for ops [`Telemetry::should_time`] elected to clock;
    /// untimed ops still land in the exact per-op counters but skip the
    /// clock reads and the histogram (see the sampling note on
    /// [`Telemetry`]).
    start: Option<Instant>,
}

impl TraceScratch {
    /// Opens the boundary for one op; with telemetry off (or absent) the
    /// only cost is one relaxed atomic load.
    fn open<E: OpEnv>(
        env: &E,
        kind: OpKind,
        client: Option<ClientId>,
        vbuid: Option<Vbuid>,
    ) -> Self {
        match env.telemetry().filter(|telemetry| telemetry.armed()) {
            Some(telemetry) => Self {
                kind,
                client,
                vbuid,
                flags: 0,
                armed: true,
                trace_evictions: telemetry.tracing_enabled(),
                start: telemetry.should_time().then(Instant::now),
            },
            None => Self::default(),
        }
    }
}

/// Closes the boundary: records one finished op into the environment's
/// telemetry plane — the engine-side half of the [`OpEnv::telemetry`]
/// capability, and the only place an [`OpSample`] is built.
fn record_sample<E: OpEnv>(env: &E, scratch: &TraceScratch, failed: bool) {
    let Some(telemetry) = env.telemetry().filter(|_| scratch.armed) else { return };
    let duration_ns = scratch.start.map_or(0, |s| s.elapsed().as_nanos() as u64);
    let timed = scratch.start.is_some();
    let shards = env.shard_count();
    telemetry.record(OpSample {
        kind: scratch.kind,
        client: scratch.client.map_or(u32::MAX, |c| u32::from(c.0)),
        vbid: scratch.vbuid.map_or(0, |v| v.vbid()),
        shard: scratch.vbuid.map_or(0, |v| Mtl::shard_of(v, shards) as u16),
        start_ns: if timed { telemetry.now_ns().saturating_sub(duration_ns) } else { 0 },
        duration_ns,
        flags: scratch.flags | if failed { TraceEvent::FLAG_ERROR } else { 0 },
        timed,
    });
}

/// Runs one op — an [`Op`] through [`dispatch`], or [`store_bytes`]'s
/// borrowed span — inside the telemetry boundary `scratch` opened.
fn recorded<E: OpEnv>(
    env: &mut E,
    mut scratch: TraceScratch,
    run: impl FnOnce(&mut E, &mut TraceScratch) -> OpResult,
) -> OpResult {
    let result = run(env, &mut scratch);
    // Remaps and requests name their VB in the result, not the op.
    if let Ok(OpOutput::Handle(handle)) = &result {
        scratch.vbuid = Some(handle.vbuid);
    }
    record_sample(env, &scratch, result.is_err());
    result
}

// --- dispatcher -------------------------------------------------------------

/// Executes one [`Op`] against an environment — the entry point of every
/// front end that runs ops one at a time (sessions, queue workers); batches
/// enter through [`execute_batch`], which runs the same pieces.
///
/// When the environment exposes an armed [`Telemetry`] plane, the op's
/// kind, latency, and outcome are recorded here; with telemetry off (or
/// absent) the only cost is one relaxed atomic load.
pub fn execute<E: OpEnv>(env: &mut E, op: Op) -> OpResult {
    let scratch = TraceScratch::open(env, OpKind::of(&op), op.client(), op.vbuid());
    recorded(env, scratch, |env, scratch| dispatch(env, op, scratch))
}

/// Executes a batch over the **full op surface**, visiting each shard at
/// most once per run of data-plane ops: protection checks run first, in
/// batch order (client state only), checked accesses are grouped by home
/// shard, and each populated shard's MTL is visited a single time for its
/// whole group — the same locked half, borrow rule, and fault-in
/// notifications as [`execute`], which serves the group of one. MTL-free
/// ops (`Access`, empty byte spans) answer inline at their batch position.
/// Control-plane ops (client/VB management, remaps) act as sequencing
/// barriers: pending data ops are served before they execute, so a batch
/// behaves like its sequential execution. Responses come back in request
/// order.
///
/// Within a run of data-plane ops, requests targeting one shard execute in
/// batch order (an access deferred to the borrow retry runs after its
/// group); there is no ordering guarantee *across* shards (as in hardware,
/// independent MTLs serve independent traffic).
///
/// Every op is recorded exactly once. A deferred data op's latency runs
/// from its protection check to the end of its shard's visit — which, for
/// an op queued on a `VbiQueue`, is the visit of the whole burst its worker
/// took off the ring with it.
pub fn execute_batch<E: OpEnv>(env: &mut E, batch: &[Op]) -> Vec<OpResult> {
    let mut responses: Vec<Option<OpResult>> = batch.iter().map(|_| None).collect();
    let mut pending: Vec<Checked<'_>> = Vec::with_capacity(batch.len());
    for (slot, op) in batch.iter().enumerate() {
        if let Some(access) = op.checked_access() {
            let scratch = TraceScratch::open(env, OpKind::of(op), Some(access.0), None);
            match check(env, Work::Op(op), access, scratch) {
                Ok(item) => pending.push(Checked { slot, ..item }),
                // A failed check never reaches an MTL.
                Err(e) => answer(env, &mut responses, slot, &scratch, Err(e)),
            }
        } else {
            let mtl_free =
                matches!(op, Op::Access { .. } | Op::LoadBytes { .. } | Op::StoreBytes { .. });
            if !mtl_free {
                serve_pending(env, &mut pending, &mut responses);
            }
            responses[slot] = Some(execute(env, op.clone()));
        }
    }
    serve_pending(env, &mut pending, &mut responses);
    responses.into_iter().map(|r| r.expect("every op answered")).collect()
}

/// Serves the deferred accesses — grouped by home shard, one MTL visit per
/// populated shard — and answers them.
fn serve_pending<E: OpEnv>(
    env: &mut E,
    pending: &mut Vec<Checked<'_>>,
    responses: &mut [Option<OpResult>],
) {
    let shards = env.shard_count();
    let shard_of = |item: &Checked<'_>| Mtl::shard_of(item.address.vbuid(), shards);
    // Stable: batch order survives within each shard's group.
    pending.sort_by_key(shard_of);
    for group in pending.chunk_by_mut(|a, b| shard_of(a) == shard_of(b)) {
        run_group(env, group);
    }
    for item in pending.drain(..) {
        answer(env, responses, item.slot, &item.scratch, item.result);
    }
}

/// Records a batched data op and files its response.
fn answer<E: OpEnv>(
    env: &E,
    responses: &mut [Option<OpResult>],
    slot: usize,
    scratch: &TraceScratch,
    result: OpResult,
) {
    record_sample(env, scratch, result.is_err());
    responses[slot] = Some(result);
}

fn dispatch<E: OpEnv>(env: &mut E, op: Op, scratch: &mut TraceScratch) -> OpResult {
    match op {
        Op::CreateClient => create_client(env).map(OpOutput::Client),
        Op::CreateClientWithId { id } => create_client_with_id(env, id).map(OpOutput::Client),
        Op::DestroyClient { client } => destroy_client(env, client).map(|()| OpOutput::Unit),
        Op::RequestVb { client, bytes, props, perms } => {
            request_vb(env, client, bytes, props, perms).map(OpOutput::Handle)
        }
        Op::Attach { client, vbuid, perms } => {
            attach(env, client, vbuid, perms).map(OpOutput::CvtIndex)
        }
        Op::AttachAt { client, index, vbuid, perms } => {
            attach_at(env, client, index, vbuid, perms).map(|()| OpOutput::Unit)
        }
        Op::Detach { client, vbuid } => detach(env, client, vbuid).map(OpOutput::RefCount),
        Op::ReleaseVb { client, index } => release_vb(env, client, index).map(|()| OpOutput::Unit),
        Op::Promote { client, index } => promote(env, client, index).map(OpOutput::Handle),
        Op::CloneVb { client, index } => clone_vb(env, client, index).map(OpOutput::Handle),
        Op::Migrate { client, index, to_shard } => {
            migrate(env, client, index, to_shard).map(OpOutput::Handle)
        }
        Op::Access { client, va, kind } => access(env, client, va, kind).map(OpOutput::Checked),
        Op::Fetch { .. }
        | Op::LoadU64 { .. }
        | Op::StoreU64 { .. }
        | Op::LoadU8 { .. }
        | Op::StoreU8 { .. }
        | Op::LoadBytes { .. }
        | Op::StoreBytes { .. } => match op.checked_access() {
            Some(access) => data_plane(env, Work::Op(&op), access, scratch),
            // Empty byte spans complete without any check.
            None if matches!(op, Op::LoadBytes { .. }) => Ok(OpOutput::Bytes(Vec::new())),
            None => Ok(OpOutput::Unit),
        },
    }
}
