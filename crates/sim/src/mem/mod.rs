//! The memory-subsystem substrate of the reproduction.
//!
//! Models the parts of the machine below the core and above the DIMMs, with
//! the exact structure sizes and timings of the paper's Table 1:
//!
//! * `cache` — a set-associative, write-back cache usable as VIVT (fed VBI
//!   addresses) or PIPT (fed physical addresses);
//! * `hierarchy` — the L1/L2/LLC stack with dirty-eviction propagation
//!   (dirty LLC evictions are first-class results, because they trigger
//!   delayed allocation under VBI);
//! * `dram` — bank + row-buffer models for DDR3-1600, PCM-800, and
//!   TL-DRAM's near/far segments;
//! * `controller` — homogeneous, PCM-DRAM hybrid, and TL-DRAM memory
//!   controllers;
//! * [`timing`] — Table 1 latencies in one place.

pub(crate) mod cache;
pub(crate) mod controller;
pub(crate) mod dram;
pub(crate) mod hierarchy;
pub mod timing;
