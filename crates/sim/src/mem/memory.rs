//! The memory behind the caches: devices at address ranges, one controller.

use super::dram::{AddressMapping, Device};
use super::timing::DeviceTiming;

/// Fixed controller overhead per request (queueing, scheduling), in CPU
/// cycles.
const CONTROLLER_CYCLES: u64 = 10;

/// A main memory: one controller over devices that each own an address
/// range (the Table 1 configuration per device: one channel, one rank,
/// eight banks, open-page policy).
///
/// Ranges are sorted by start, and a range runs up to the next one's start.
/// Each device sees addresses relative to its range's start and keeps its
/// own open rows. When two ranges start at the same address, the later one
/// serves it, so a fast range of zero bytes leaves the memory all slow.
///
/// A write costs what a read costs: the devices model row-buffer state and
/// read timings only (ROADMAP item 29(b)).
#[derive(Debug)]
pub(crate) struct Memory {
    /// `(start, device)`, sorted by start; the first starts at 0.
    ranges: Vec<(u64, Device)>,
}

impl Memory {
    /// A memory whose devices, of the given timings, start at the given
    /// addresses: sorted, the first at 0.
    pub(crate) fn new(ranges: &[(u64, DeviceTiming)]) -> Self {
        assert_eq!(ranges.first().map(|&(start, _)| start), Some(0), "the first range starts at 0");
        assert!(ranges.is_sorted_by_key(|&(start, _)| start), "ranges are sorted by start");
        let device = |timing| Device::new(timing, AddressMapping::default());
        Self { ranges: ranges.iter().map(|&(start, timing)| (start, device(timing))).collect() }
    }

    /// Table 1's DDR3-1600 memory.
    pub(crate) fn ddr3_1600() -> Self {
        Self::new(&[(0, DeviceTiming::ddr3_1600())])
    }

    /// Serves one line request, returning its latency in CPU cycles.
    pub(crate) fn service(&mut self, addr: u64) -> u64 {
        let i = self.ranges.partition_point(|&(start, _)| start <= addr) - 1;
        let (start, device) = &mut self.ranges[i];
        CONTROLLER_CYCLES + device.access(addr - *start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_range_serves_its_lines_from_its_own_rows() {
        let (ddr3, pcm) = (DeviceTiming::ddr3_1600(), DeviceTiming::pcm_800());
        let (near, far) = (DeviceTiming::tldram_near(), DeviceTiming::tldram_far());
        // One line short of a row boundary: the upper range's first two
        // lines share a row only if the device sees offsets into its range.
        let fast = (1 << 20) - 64;
        // (memory, the first line probed in each range and its timing).
        let table = [
            ("DDR3", Memory::ddr3_1600(), vec![(0, ddr3)]),
            ("PCM-DRAM", Memory::new(&[(0, ddr3), (fast, pcm)]), vec![(0, ddr3), (fast, pcm)]),
            ("TL-DRAM", Memory::new(&[(0, near), (fast, far)]), vec![(0, near), (fast, far)]),
            (
                "all-slow PCM-DRAM",
                Memory::new(&[(0, ddr3), (0, pcm)]),
                vec![(0, pcm), (4 << 20, pcm)],
            ),
        ];
        for (name, mut memory, probes) in table {
            // Every range's first line opens a row in its own device, so
            // opening the other range's row first does not make it a hit.
            for &(line, timing) in &probes {
                assert_eq!(memory.service(line), 10 + timing.row_closed_cycles(), "{name} {line}");
            }
            for &(line, timing) in &probes {
                assert_eq!(
                    memory.service(line + 64),
                    10 + timing.row_hit_cycles(),
                    "{name} {line}"
                );
            }
        }
    }
}
