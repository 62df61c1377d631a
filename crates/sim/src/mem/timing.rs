//! Timing parameters (Table 1 of the paper).
//!
//! All latencies are expressed in CPU cycles unless stated otherwise. DRAM
//! command timings are given in memory-bus cycles and scaled by the
//! bus-to-core clock ratio when charged to an access.

/// Cache hierarchy latencies (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheTiming {
    /// L1 hit latency: 4 cycles.
    pub l1: u64,
    /// L2 hit latency: 8 cycles.
    pub l2: u64,
    /// L3/LLC hit latency: 31 cycles.
    pub llc: u64,
}

impl Default for CacheTiming {
    fn default() -> Self {
        Self { l1: 4, l2: 8, llc: 31 }
    }
}

/// Command timings of a memory device, in memory-bus cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceTiming {
    /// Row-to-column delay (activate to read).
    pub t_rcd: u64,
    /// Row precharge time.
    pub t_rp: u64,
    /// Activate-to-activate delay between banks (post-activate).
    pub t_rrd_act: u64,
    /// Activate-to-activate delay between banks (post-precharge).
    pub t_rrd_pre: u64,
    /// Column access (CAS) latency.
    pub(crate) t_cas: u64,
    /// CPU cycles per memory-bus cycle (4 GHz core over the bus clock).
    pub(crate) cpu_per_mem_cycle: u64,
}

impl DeviceTiming {
    /// DDR3-1600 per Table 1 (Micron datasheet \[88\]): tRCD=5, tRP=5,
    /// tRRDact=3, tRRDpre=3 memory cycles; 800 MHz bus under a 4 GHz core.
    pub fn ddr3_1600() -> Self {
        Self { t_rcd: 5, t_rp: 5, t_rrd_act: 3, t_rrd_pre: 3, t_cas: 5, cpu_per_mem_cycle: 5 }
    }

    /// PCM-800 per Table 1 (Lee et al. \[72\]): tRCD=22, tRP=60, tRRDact=2,
    /// tRRDpre=11 memory cycles; 400 MHz bus under a 4 GHz core.
    pub fn pcm_800() -> Self {
        Self { t_rcd: 22, t_rp: 60, t_rrd_act: 2, t_rrd_pre: 11, t_cas: 5, cpu_per_mem_cycle: 10 }
    }

    /// TL-DRAM near segment (Lee et al. \[74\]): the short bitlines of the
    /// near segment cut tRCD by ~56% and tRP by ~76% versus commodity DRAM.
    pub(crate) fn tldram_near() -> Self {
        Self { t_rcd: 2, t_rp: 1, t_rrd_act: 3, t_rrd_pre: 3, t_cas: 3, cpu_per_mem_cycle: 5 }
    }

    /// TL-DRAM far segment: slightly worse than commodity DRAM because the
    /// isolation transistor adds resistance on the long bitline.
    pub(crate) fn tldram_far() -> Self {
        Self { t_rcd: 6, t_rp: 6, t_rrd_act: 3, t_rrd_pre: 3, t_cas: 5, cpu_per_mem_cycle: 5 }
    }

    /// Latency (in CPU cycles) of a row-buffer hit: CAS only.
    pub(crate) fn row_hit_cycles(&self) -> u64 {
        self.t_cas * self.cpu_per_mem_cycle
    }

    /// Latency (in CPU cycles) of a row miss in a closed bank: activate +
    /// CAS.
    pub(crate) fn row_closed_cycles(&self) -> u64 {
        (self.t_rcd + self.t_cas) * self.cpu_per_mem_cycle
    }

    /// Latency (in CPU cycles) of a row conflict: precharge + activate +
    /// CAS.
    pub(crate) fn row_conflict_cycles(&self) -> u64 {
        (self.t_rp + self.t_rcd + self.t_cas) * self.cpu_per_mem_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_cache_latencies() {
        let t = CacheTiming::default();
        assert_eq!((t.l1, t.l2, t.llc), (4, 8, 31));
    }

    #[test]
    fn table1_dram_timings() {
        let d = DeviceTiming::ddr3_1600();
        assert_eq!((d.t_rcd, d.t_rp, d.t_rrd_act, d.t_rrd_pre), (5, 5, 3, 3));
        let p = DeviceTiming::pcm_800();
        assert_eq!((p.t_rcd, p.t_rp, p.t_rrd_act, p.t_rrd_pre), (22, 60, 2, 11));
    }

    #[test]
    fn latency_ordering_is_sane() {
        for d in [
            DeviceTiming::ddr3_1600(),
            DeviceTiming::pcm_800(),
            DeviceTiming::tldram_near(),
            DeviceTiming::tldram_far(),
        ] {
            assert!(d.row_hit_cycles() < d.row_closed_cycles());
            assert!(d.row_closed_cycles() < d.row_conflict_cycles());
        }
    }

    #[test]
    fn pcm_is_slower_than_dram() {
        assert!(
            DeviceTiming::pcm_800().row_conflict_cycles()
                > DeviceTiming::ddr3_1600().row_conflict_cycles() * 3
        );
    }

    #[test]
    fn tldram_near_beats_far() {
        assert!(
            DeviceTiming::tldram_near().row_conflict_cycles()
                < DeviceTiming::tldram_far().row_conflict_cycles()
        );
    }
}
