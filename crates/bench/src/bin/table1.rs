//! Regenerates Table 1: the simulation configuration.

use vbi_sim::mem::timing::{CacheTiming, DeviceTiming};

pub fn main() {
    vbi_bench::header("Table 1: Simulation configuration");
    let cache = CacheTiming::default();
    let dram = DeviceTiming::ddr3_1600();
    let pcm = DeviceTiming::pcm_800();

    println!("CPU              4-wide issue, OOO, 128-entry ROB (MLP model)");
    println!("L1 Cache         32 KB, 8-way associative, {} cycles", cache.l1);
    println!("L2 Cache         256 KB, 8-way associative, {} cycles", cache.l2);
    println!("L3 Cache         8 MB (2 MB per-core), 16-way associative, {} cycles", cache.llc);
    println!("L1 DTLB          4 KB pages: 64-entry, fully associative");
    println!("                 2 MB pages: 32-entry, fully associative");
    println!("L2 DTLB          4 KB and 2 MB pages: 512-entry, 4-way associative");
    println!("Page Walk Cache  32-entry, fully associative");
    println!("DRAM             DDR3-1600, 1 channel, 1 rank/channel,");
    println!("                 8 banks/rank, open-page policy");
    println!(
        "DRAM Timing      tRCD={}cy, tRP={}cy, tRRDact={}cy, tRRDpre={}cy",
        dram.t_rcd, dram.t_rp, dram.t_rrd_act, dram.t_rrd_pre
    );
    println!("PCM              PCM-800, 1 channel, 1 rank/channel, 8 banks/rank");
    println!(
        "PCM Timing       tRCD={}cy, tRP={}cy, tRRDact={}cy, tRRDpre={}cy",
        pcm.t_rcd, pcm.t_rp, pcm.t_rrd_act, pcm.t_rrd_pre
    );
    println!();
    println!("VBI structures   64-entry direct-mapped CVT cache per core,");
    println!("                 32-entry VIT cache, 512-entry 4-way MTL page TLB,");
    println!("                 64-entry whole-VB (direct) MTL TLB");
}
