//! Memory controllers: homogeneous and hybrid (PCM-DRAM) back ends.

use crate::dram::{AddressMapping, Device, TlDram};
use crate::timing::DeviceTiming;

/// A single-device memory controller (the Table 1 configuration: one
/// channel, one rank, eight banks, open-page policy).
#[derive(Debug, Clone)]
pub struct MemoryController {
    device: Device,
    /// Fixed controller overhead per request (queueing, scheduling), in CPU
    /// cycles.
    overhead: u64,
}

impl MemoryController {
    /// Creates a controller over a device with the given timings.
    pub fn new(timing: DeviceTiming) -> Self {
        Self { device: Device::new(timing, AddressMapping::default()), overhead: 10 }
    }

    /// DDR3-1600 controller.
    pub fn ddr3_1600() -> Self {
        Self::new(DeviceTiming::ddr3_1600())
    }

    /// Serves one line request, returning latency in CPU cycles.
    pub fn service(&mut self, addr: u64) -> u64 {
        self.overhead + self.device.access(addr)
    }
}

/// Which technology served a hybrid-memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridRegion {
    /// The small, fast DRAM region.
    Dram,
    /// The large, slow PCM region.
    Pcm,
}

/// A PCM-DRAM hybrid main memory (Ramos et al. \[107\], §7.3): a small DRAM
/// acts as the fast region for hot pages in front of a large PCM.
///
/// The physical address space is split: addresses below `dram_bytes` are
/// DRAM, the rest PCM. Placement/migration policy lives in `vbi-hetero`.
///
/// # Examples
///
/// ```
/// use vbi_mem_sim::controller::{HybridMemory, HybridRegion};
///
/// let mut mem = HybridMemory::new(64 << 20);
/// assert_eq!(mem.region_of(0), HybridRegion::Dram);
/// assert_eq!(mem.region_of(1 << 30), HybridRegion::Pcm);
/// assert!(mem.service(0) < mem.service(1 << 30));
/// ```
#[derive(Debug, Clone)]
pub struct HybridMemory {
    dram: Device,
    pcm: Device,
    dram_bytes: u64,
    overhead: u64,
}

impl HybridMemory {
    /// Creates a hybrid memory whose first `dram_bytes` of the address space
    /// are DRAM.
    pub fn new(dram_bytes: u64) -> Self {
        Self {
            dram: Device::new(DeviceTiming::ddr3_1600(), AddressMapping::default()),
            pcm: Device::new(DeviceTiming::pcm_800(), AddressMapping::default()),
            dram_bytes,
            overhead: 10,
        }
    }

    /// The region an address belongs to.
    pub fn region_of(&self, addr: u64) -> HybridRegion {
        if addr < self.dram_bytes {
            HybridRegion::Dram
        } else {
            HybridRegion::Pcm
        }
    }

    /// Serves one line request from the owning region.
    pub fn service(&mut self, addr: u64) -> u64 {
        self.overhead
            + match self.region_of(addr) {
                HybridRegion::Dram => self.dram.access(addr),
                HybridRegion::Pcm => self.pcm.access(addr - self.dram_bytes),
            }
    }
}

/// A TL-DRAM main memory controller (§7.3).
#[derive(Debug, Clone)]
pub struct TlDramController {
    device: TlDram,
    overhead: u64,
}

impl TlDramController {
    /// Creates a controller whose first `near_bytes` of the address space
    /// are the near (fast) segment.
    pub fn new(near_bytes: u64) -> Self {
        Self { device: TlDram::new(near_bytes), overhead: 10 }
    }

    /// Whether an address is in the near segment.
    pub fn is_near(&self, addr: u64) -> bool {
        self.device.is_near(addr)
    }

    /// Serves one line request.
    pub fn service(&mut self, addr: u64) -> u64 {
        self.overhead + self.device.access(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_adds_fixed_overhead() {
        let mut c = MemoryController::ddr3_1600();
        let lat = c.service(0);
        assert_eq!(lat, 10 + DeviceTiming::ddr3_1600().row_closed_cycles());
    }

    #[test]
    fn hybrid_routes_by_region() {
        let mut m = HybridMemory::new(1 << 20);
        m.service(0);
        m.service(2 << 20);
        // Each device opened its own row: the next line of each region is a
        // row hit at that device's timing.
        assert_eq!(m.service(64), 10 + DeviceTiming::ddr3_1600().row_hit_cycles());
        assert_eq!(m.service((2 << 20) + 64), 10 + DeviceTiming::pcm_800().row_hit_cycles());
    }

    #[test]
    fn pcm_region_is_much_slower() {
        let mut m = HybridMemory::new(1 << 20);
        // Compare closed-bank latencies on both sides.
        let dram = m.service(0);
        let pcm = m.service(2 << 20);
        assert!(pcm > dram * 2, "pcm {pcm} vs dram {dram}");
    }

    #[test]
    fn tldram_controller_near_far() {
        let mut t = TlDramController::new(1 << 20);
        let near = t.service(0);
        let far = t.service(4 << 20);
        assert!(near < far);
        assert!(t.is_near(0) && !t.is_near(4 << 20));
    }
}
