//! Bank and row-buffer model for DRAM, PCM, and TL-DRAM devices.
//!
//! Models the memory-device half of Table 1: one channel, one rank, eight
//! banks, open-page policy. Each bank remembers its open row; an access is a
//! row hit (CAS only), a closed-bank activate (tRCD + CAS), or a row
//! conflict (tRP + tRCD + CAS). TL-DRAM's near and far segments (§7.3) are
//! two devices with different timings.

use super::timing::DeviceTiming;

/// Physical-address interleaving across banks and rows.
///
/// Row size 8 KiB (open-page row buffer), banks interleaved on row-sized
/// blocks so sequential streams hit the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AddressMapping {
    /// Number of banks (8 per Table 1).
    pub(crate) banks: usize,
    /// Bytes per row (row-buffer size).
    pub(crate) row_bytes: u64,
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
    pub(crate) fn decode(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.row_bytes;
        let row = block / self.banks as u64;
        // Fold several row-bit groups into the bank index so that any
        // power-of-two stride still spreads across banks.
        let fold = row ^ (row >> 3) ^ (row >> 6) ^ (row >> 9) ^ (row >> 12);
        let bank = (block ^ fold) % self.banks as u64;
        (bank as usize, row)
    }
}

/// One memory device: a set of banks with open-row state.
#[derive(Debug, Clone)]
pub(crate) struct Device {
    timing: DeviceTiming,
    mapping: AddressMapping,
    open_rows: Vec<Option<u64>>,
}

impl Device {
    /// Creates a device with every bank idle.
    pub(crate) fn new(timing: DeviceTiming, mapping: AddressMapping) -> Self {
        Self { timing, mapping, open_rows: vec![None; mapping.banks] }
    }

    /// Serves an access, updating bank state, and returns its latency in CPU
    /// cycles.
    pub(crate) fn access(&mut self, addr: u64) -> u64 {
        let (bank, row) = self.mapping.decode(addr);
        // Open-page policy: the row stays open after the access.
        match self.open_rows[bank].replace(row) {
            Some(open) if open == row => self.timing.row_hit_cycles(),
            Some(_) => self.timing.row_conflict_cycles(),
            None => self.timing.row_closed_cycles(),
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
        let timing = DeviceTiming::ddr3_1600();
        assert_eq!(d.access(0), timing.row_closed_cycles());
        assert_eq!(d.access(4096), timing.row_hit_cycles());
        // Find an address in the same bank as address 0 but a different row.
        let (bank0, row0) = mapping.decode(0);
        let conflict_addr = (1..1000u64)
            .map(|i| i * (8 << 10))
            .find(|&a| {
                let (b, r) = mapping.decode(a);
                b == bank0 && r != row0
            })
            .expect("some address conflicts with row 0");
        assert_eq!(d.access(conflict_addr), timing.row_conflict_cycles());
    }

    #[test]
    fn sequential_streams_enjoy_row_hits() {
        let mut d = dram();
        let hit = DeviceTiming::ddr3_1600().row_hit_cycles();
        let hits = (0..(8 << 10)).step_by(64).filter(|&addr| d.access(addr) == hit).count();
        // One activate, 127 row hits.
        assert_eq!(hits, 127);
    }

    #[test]
    fn random_accesses_conflict_often() {
        let mut d = dram();
        let hit = DeviceTiming::ddr3_1600().row_hit_cycles();
        let mut addr = 12345u64;
        let mut hits = 0;
        for _ in 0..1000 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            hits += usize::from(d.access(addr % (1 << 30)) == hit);
        }
        assert!(hits < 100, "{hits} row hits in 1000");
    }
}
