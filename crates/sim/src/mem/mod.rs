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
//! * `dram` — the bank + row-buffer model of one device: DDR3-1600,
//!   PCM-800, or a TL-DRAM near or far segment;
//! * `memory` — the one memory behind the caches: a controller over
//!   devices at address ranges (DDR3 is one range; PCM-DRAM and TL-DRAM
//!   are two);
//! * [`timing`] — Table 1 latencies in one place.

pub(crate) mod cache;
pub(crate) mod dram;
pub(crate) mod hierarchy;
mod memory;
pub mod timing;

pub(crate) use memory::Memory;
