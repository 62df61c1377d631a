//! Bank and row-buffer model for DRAM, PCM, and TL-DRAM devices.
//!
//! Models the memory-device half of Table 1: one channel, one rank, eight
//! banks, open-page policy. Each bank remembers its open row; an access is a
//! row hit (CAS only), a closed-bank activate (tRCD + CAS), or a row
//! conflict (tRP + tRCD + CAS). TL-DRAM devices additionally split each
//! subarray into a near and a far segment with different timings (§7.3).

use crate::timing::DeviceTiming;

/// Physical-address interleaving across banks and rows.
///
/// Row size 8 KiB (open-page row buffer), banks interleaved on row-sized
/// blocks so sequential streams hit the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    /// Number of banks (8 per Table 1).
    pub banks: usize,
    /// Bytes per row (row-buffer size).
    pub row_bytes: u64,
}

impl Default for AddressMapping {
    fn default() -> Self {
        Self { banks: 8, row_bytes: 8 << 10 }
    }
}

impl AddressMapping {
    /// Decomposes a physical address into `(bank, row)`.
    ///
    /// Banks are selected with permutation-based (XOR) interleaving — the
    /// bank index is XORed with low row bits — so that power-of-two-aligned
    /// regions (e.g. the MTL's 128 MiB reservations) do not all collapse
    /// into one bank.
    pub fn decode(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.row_bytes;
        let row = block / self.banks as u64;
        // Fold several row-bit groups into the bank index so that any
        // power-of-two stride still spreads across banks.
        let fold = row ^ (row >> 3) ^ (row >> 6) ^ (row >> 9) ^ (row >> 12);
        let bank = (block ^ fold) % self.banks as u64;
        (bank as usize, row)
    }
}

/// Row-buffer outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The requested row was already open.
    Hit,
    /// The bank was idle (no open row).
    Closed,
    /// Another row was open and had to be precharged.
    Conflict,
}

/// Per-device statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Total accesses served.
    pub accesses: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row conflicts (precharge required).
    pub row_conflicts: u64,
}

/// One memory device: a set of banks with open-row state.
///
/// # Examples
///
/// ```
/// use vbi_mem_sim::dram::{Device, AddressMapping};
/// use vbi_mem_sim::timing::DeviceTiming;
///
/// let mut dram = Device::new(DeviceTiming::ddr3_1600(), AddressMapping::default());
/// let first = dram.access(0);          // closed bank: activate + CAS
/// let second = dram.access(64);        // same row: CAS only
/// assert!(second < first);
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    timing: DeviceTiming,
    mapping: AddressMapping,
    open_rows: Vec<Option<u64>>,
    stats: DeviceStats,
}

impl Device {
    /// Creates a device with every bank idle.
    pub fn new(timing: DeviceTiming, mapping: AddressMapping) -> Self {
        Self {
            timing,
            mapping,
            open_rows: vec![None; mapping.banks],
            stats: DeviceStats::default(),
        }
    }

    /// The device's command timings.
    pub fn timing(&self) -> DeviceTiming {
        self.timing
    }

    /// Classifies an access without serving it.
    pub fn probe(&self, addr: u64) -> RowBufferOutcome {
        let (bank, row) = self.mapping.decode(addr);
        match self.open_rows[bank] {
            Some(open) if open == row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::Closed,
        }
    }

    /// Serves an access, updating bank state, and returns its latency in CPU
    /// cycles.
    pub fn access(&mut self, addr: u64) -> u64 {
        let (bank, row) = self.mapping.decode(addr);
        let outcome = match self.open_rows[bank] {
            Some(open) if open == row => RowBufferOutcome::Hit,
            Some(_) => RowBufferOutcome::Conflict,
            None => RowBufferOutcome::Closed,
        };
        self.open_rows[bank] = Some(row); // open-page policy keeps it open
        let cycles = match outcome {
            RowBufferOutcome::Hit => {
                self.stats.row_hits += 1;
                self.timing.row_hit_cycles()
            }
            RowBufferOutcome::Closed => self.timing.row_closed_cycles(),
            RowBufferOutcome::Conflict => {
                self.stats.row_conflicts += 1;
                self.timing.row_conflict_cycles()
            }
        };
        self.stats.accesses += 1;
        cycles
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }
}

/// A TL-DRAM device: each bank's rows are split between a low-latency near
/// segment and a larger far segment (Lee et al. \[74\]).
///
/// The boundary is expressed as a fraction of the physical address space:
/// addresses below `near_bytes` live in the near segment.
#[derive(Debug, Clone)]
pub struct TlDram {
    near: Device,
    far: Device,
    near_bytes: u64,
}

impl TlDram {
    /// Creates a TL-DRAM with the first `near_bytes` of the address space in
    /// the near segment.
    pub fn new(near_bytes: u64) -> Self {
        Self {
            near: Device::new(DeviceTiming::tldram_near(), AddressMapping::default()),
            far: Device::new(DeviceTiming::tldram_far(), AddressMapping::default()),
            near_bytes,
        }
    }

    /// Whether an address falls in the near (fast) segment.
    pub fn is_near(&self, addr: u64) -> bool {
        addr < self.near_bytes
    }

    /// Serves an access from the segment owning `addr`.
    pub fn access(&mut self, addr: u64) -> u64 {
        if self.is_near(addr) {
            self.near.access(addr)
        } else {
            self.far.access(addr - self.near_bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Device {
        Device::new(DeviceTiming::ddr3_1600(), AddressMapping::default())
    }

    #[test]
    fn address_mapping_interleaves_banks() {
        let m = AddressMapping::default();
        assert_eq!(m.decode(0), (0, 0));
        assert_eq!(m.decode(8 << 10), (1, 0));
        // Same bank index, next row: the XOR permutation shifts the bank.
        assert_eq!(m.decode(8 * (8 << 10)), (1, 1));
        // Power-of-two-aligned strides do not collapse into one bank.
        let banks: std::collections::HashSet<usize> =
            (0..8u64).map(|i| m.decode(i * (128 << 20)).0).collect();
        assert!(banks.len() > 1);
    }

    #[test]
    fn row_hit_closed_conflict_latencies() {
        let mut d = dram();
        let mapping = AddressMapping::default();
        let closed = d.access(0);
        assert_eq!(closed, d.timing().row_closed_cycles());
        let hit = d.access(4096);
        assert_eq!(hit, d.timing().row_hit_cycles());
        // Find an address in the same bank as address 0 but a different row.
        let (bank0, row0) = mapping.decode(0);
        let conflict_addr = (1..1000u64)
            .map(|i| i * (8 << 10))
            .find(|&a| {
                let (b, r) = mapping.decode(a);
                b == bank0 && r != row0
            })
            .expect("some address conflicts with row 0");
        let conflict = d.access(conflict_addr);
        assert_eq!(conflict, d.timing().row_conflict_cycles());
        assert_eq!(d.stats().accesses, 3);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn sequential_streams_enjoy_row_hits() {
        let mut d = dram();
        for addr in (0..(8 << 10)).step_by(64) {
            d.access(addr);
        }
        // One activate, 127 row hits.
        assert_eq!(d.stats().row_hits, 127);
    }

    #[test]
    fn random_accesses_conflict_often() {
        let mut d = dram();
        let mut addr = 12345u64;
        for _ in 0..1000 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            d.access(addr % (1 << 30));
        }
        assert!(d.stats().row_hits < 100, "{} row hits in 1000", d.stats().row_hits);
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut d = dram();
        d.access(0);
        assert_eq!(d.probe(64), RowBufferOutcome::Hit);
        assert_eq!(d.probe(64), RowBufferOutcome::Hit);
        assert_eq!(d.stats().accesses, 1);
    }

    #[test]
    fn tldram_near_is_faster() {
        let mut t = TlDram::new(1 << 20);
        let near = t.access(0);
        let far = t.access(2 << 20);
        assert!(near < far);
        assert!(t.is_near(0));
        assert!(!t.is_near(2 << 20));
    }
}
