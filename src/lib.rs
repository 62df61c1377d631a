//! # vbi — The Virtual Block Interface, reproduced in Rust
//!
//! A from-scratch reproduction of *"The Virtual Block Interface: A Flexible
//! Alternative to the Conventional Virtual Memory Framework"* (Hajinazar et
//! al., ISCA 2020), packaged as one workspace:
//!
//! * `core` ([`vbi_core`]) — the VBI framework itself: the global VBI address
//!   space and its eight size classes, virtual blocks, Client-VB Tables and
//!   CVT caches, VB Info Tables, and the hardware Memory Translation Layer
//!   with delayed allocation, flexible per-VB translation structures, and
//!   early reservation;
//! * `service` ([`vbi_service`]) — the concurrent, sharded MTL memory
//!   service: a `Send + Sync + Clone` handle over per-shard MTLs (§6.2's
//!   home-MTL partitioning) with a batched request path;
//! * `sim` ([`vbi_sim`]) — the paper's §7 evaluation behind the `vbi-bench`
//!   figure binaries, with its four parts re-exported here:
//!   * `mem_sim` ([`vbi_sim::mem`]) — caches, DRAM/PCM/TL-DRAM timing and
//!     the one memory below them (Table 1);
//!   * `baselines` ([`vbi_sim::baselines`]) — conventional x86-64 MMUs,
//!     nested (2D) page walks, and Enigma;
//!   * `workloads` ([`vbi_sim::workloads`]) — seeded synthetic SPEC /
//!     TailBench / Graph 500 stand-ins;
//!   * `hetero` ([`vbi_sim::hetero`]) — PCM-DRAM and TL-DRAM placement
//!     policies.
//!
//! ## Quick start
//!
//! ```
//! use vbi::{System, VbiConfig, VbProperties, Rwx};
//!
//! # fn main() -> Result<(), vbi::VbiError> {
//! let system = System::new(VbiConfig::vbi_full());
//! let client = system.create_client()?; // an owned ClientSession
//! let vb = client.request_vb(1 << 20, VbProperties::NONE, Rwx::READ_WRITE)?;
//! client.store_u64(vb.at(0), 2020)?;
//! assert_eq!(client.load_u64(vb.at(0))?, 2020);
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for runnable walkthroughs of the paper's
//! mechanisms and `cargo run -p vbi-bench --release --bin run_all` for the
//! full evaluation.

pub use vbi_core as core;
pub use vbi_service as service;
pub use vbi_sim as sim;
pub use vbi_sim::{baselines, hetero, mem as mem_sim, workloads};

pub use vbi_core::{
    AccessKind, ClientId, ClientSession, Mtl, Op, OpOutput, OpResult, Result, Rwx, SessionHost,
    SizeClass, System, SystemSession, VbProperties, VbiAddress, VbiConfig, VbiError, Vbuid,
    VirtualAddress,
};
