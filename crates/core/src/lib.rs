//! # vbi-core — The Virtual Block Interface
//!
//! A from-scratch implementation of the Virtual Block Interface (VBI), the
//! hardware-managed virtual memory framework proposed by Hajinazar et al. at
//! ISCA 2020, *"The Virtual Block Interface: A Flexible Alternative to the
//! Conventional Virtual Memory Framework."*
//!
//! VBI replaces per-process virtual address spaces with a single, globally
//! visible address space made of variable-sized **virtual blocks** (VBs).
//! The OS keeps control of *protection* — which process may access which VB,
//! recorded in per-process [Client-VB Tables](client::Cvt) — while physical
//! memory allocation and address translation are delegated entirely to a
//! hardware [Memory Translation Layer](mtl::Mtl) in the memory controller.
//! Because VBI addresses are system-wide unique, on-chip caches operate
//! purely on virtual (VBI) addresses, and translation happens only on
//! last-level-cache misses.
//!
//! ## Quick start
//!
//! ```
//! use vbi_core::{System, VbiConfig};
//! use vbi_core::vb::VbProperties;
//! use vbi_core::perm::Rwx;
//!
//! # fn main() -> Result<(), vbi_core::VbiError> {
//! // A machine with the paper's VBI-Full configuration.
//! let system = System::new(VbiConfig::vbi_full());
//!
//! // Create a process (a "memory client"): the returned session owns the
//! // client's whole API surface. Give it a data VB.
//! let client = system.create_client()?;
//! let vb = client.request_vb(64 << 10, VbProperties::NONE, Rwx::READ_WRITE)?;
//!
//! // Processes address memory as {CVT index, offset}.
//! client.store_u64(vb.at(0x100), 42)?;
//! assert_eq!(client.load_u64(vb.at(0x100))?, 42);
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`addr`] | §4.1.1 | size classes, VBUIDs, VBI addresses |
//! | [`vb`] | §4.1.1 | property bitvectors |
//! | [`perm`] | §4.1.2 | RWX permissions, access kinds |
//! | [`client`] | §4.1.2 | memory clients, Client-VB Tables |
//! | [`cvt_cache`] | §4.3 | per-core direct-mapped CVT cache |
//! | [`vit`] | §4.5.1 | VB Info Tables |
//! | [`buddy`] | §5.3 | buddy allocator for physical frames |
//! | [`translate`] | §4.5.2, §5.2 | direct / single-level / multi-level structures |
//! | [`tlb`] | §4.2.3 | generic set-associative TLB |
//! | [`swap`] | §3.4 | backing store |
//! | [`mtl`] | §4.5, §5 | the Memory Translation Layer |
//! | [`ops`] | §4.2 | the op-execution engine: every request-path op, executed once |
//! | [`session`] | §4.2 | [`ClientSession`]: the per-client handle every front end hands out |
//! | [`system`] | §4.2 | the synchronous adapter over the engine |
//! | [`stats`] | §7.2 | MTL counters, mergeable across shards |
//! | [`os`] | §3.4, §4.4 | OS model: processes, fork, shared libraries, mmap |
//! | [`vm`] | §6.1 | virtual-machine partitioning of the VBI space |
//! | [`isa`] | §4 | the six VBI instructions as typed operations |
//!
//! All of the above is single-owner state. The concurrent, sharded memory
//! service built on top — per-shard MTLs ([`Mtl::for_shard`]) behind locks,
//! shared CVTs, and a batched request path — lives in the `vbi-service`
//! crate and is §6.2's multi-node machine: each VB's home MTL is the shard
//! its high VBID bits name. Every type here is `Send + Sync` so shards and
//! clients can be shared across threads.

pub mod addr;
pub mod buddy;
pub mod client;
pub mod config;
pub mod cvt_cache;
pub mod error;
pub mod frame_cache;
pub mod isa;
pub mod mtl;
pub mod ops;
pub mod os;
pub mod perm;
pub mod phys;
pub mod session;
pub mod stats;
pub mod swap;
pub mod sync;
pub mod system;
pub mod telemetry;
pub mod tlb;
pub mod translate;
pub mod vb;
pub mod vit;
pub mod vm;

pub use addr::{SizeClass, VbiAddress, Vbuid};
pub use client::{ClientId, VirtualAddress};
pub use config::{EvictionPolicy, VbiConfig};
pub use error::{Result, VbiError};
pub use frame_cache::{FrameAllocator, FrameCache, FrameCacheStats};
pub use mtl::Mtl;
pub use ops::{Op, OpOutput, OpResult};
pub use perm::{AccessKind, Rwx};
pub use session::{ClientSession, SessionHost};
pub use stats::MtlStats;
pub use swap::{BackingStore, PageData, PressureBackend};
pub use system::{System, SystemSession};
pub use telemetry::{
    bench_line, chrome_trace, json_object, Histogram, JsonValue, OpKind, OpLatency, OpSample,
    QueueActivity, ShardActivity, Snapshot, Telemetry, TraceEvent, TraceRing,
};
pub use vb::VbProperties;

// The `vbi-service` crate shares MTL shards and CVTs across threads; these
// compile-time assertions keep the core types `Send + Sync` (none of them
// may grow `Rc`/`RefCell`/raw-pointer state without breaking the service).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mtl>();
    assert_send_sync::<System>();
    assert_send_sync::<SystemSession>();
    assert_send_sync::<client::Cvt>();
    assert_send_sync::<cvt_cache::CvtCache>();
    assert_send_sync::<cvt_cache::SeqCvtCache>();
    assert_send_sync::<client::ClientIdAllocator>();
    assert_send_sync::<MtlStats>();
    assert_send_sync::<VbiError>();
    assert_send_sync::<Telemetry>();
    assert_send_sync::<TraceRing>();
    assert_send_sync::<Snapshot>();
};
