//! Synthetic workload traces for the reproduction.
//!
//! Seeded, deterministic stand-ins for the SPEC CPU 2006/2017, TailBench,
//! and Graph 500 traces used by the paper's evaluation (§7.1). Each
//! benchmark is described by a [`trace::WorkloadSpec`] — a set of data
//! structures (regions) with footprints, access patterns, write fractions,
//! and a memory-level-parallelism factor — and yields an iterator of
//! [`trace::Access`] records that [`crate::engine`] replays against any
//! system configuration.
//!
//! ```
//! use vbi_sim::workloads::spec::benchmark;
//!
//! let graph500 = benchmark("Graph 500").expect("known");
//! let first_thousand: Vec<_> = graph500.trace(42).take(1000).collect();
//! assert!(first_thousand.iter().any(|a| a.is_write));
//! ```

pub mod bundles;
pub(crate) mod patterns;
pub mod spec;
pub mod trace;
