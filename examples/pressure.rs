//! Memory pressure (§3.4): eviction, backing stores, and ballooning.
//!
//! VBI moves physical capacity management out of the OS and into the
//! memory translation layer: when a store needs a frame and none is free,
//! the MTL itself picks a victim (clock / second-chance), writes its bytes
//! back to a backing store, and faults them in transparently on the next
//! touch. This walkthrough oversubscribes a small machine three ways:
//!
//! 1. a single-owner `System` whose working set is 4x physical memory —
//!    the engine evicts and faults in, and every byte survives;
//! 2. the `reclaim_vb_frames` ballooning primitive — a client voluntarily
//!    gives frames back and watches its pages land in the backing store;
//! 3. a sharded `VbiService` under the same pressure — each shard evicts
//!    to its own backing store, and `swap_occupancy` sums them.
//!
//! Run with: `cargo run --release --example pressure`

use vbi::{Rwx, System, VbProperties, VbiConfig};
use vbi_service::{ServiceConfig, VbiService};

fn main() -> vbi::Result<()> {
    // ── 1. A System with 64 frames facing a 256-page working set ──────
    let system = System::new(VbiConfig { phys_frames: 64, ..VbiConfig::vbi_full() });
    let session = system.create_client()?;
    let vb = session.request_vb(1 << 20, VbProperties::NONE, Rwx::READ_WRITE)?; // 256 pages
    println!("machine: 64 frames; VB: 256 pages (4x oversubscribed)");

    for page in 0..256u64 {
        session.store_u64(vb.at(page << 12), 0xFEED_0000 + page)?;
    }
    let stats = system.mtl().stats();
    println!(
        "after writing every page: evictions {}, writebacks {}, resident frames left {}",
        stats.evictions,
        stats.writebacks,
        system.mtl().free_frames(),
    );

    // Read it all back: swapped pages fault in (evicting others to make
    // room) and the bytes are exactly what was written.
    for page in 0..256u64 {
        assert_eq!(session.load_u64(vb.at(page << 12))?, 0xFEED_0000 + page);
    }
    let stats = system.mtl().stats();
    println!(
        "after reading every page back: faults_in {}, evictions {} — all 256 pages byte-exact",
        stats.faults_in, stats.evictions
    );

    // ── 2. Ballooning: voluntarily return frames to the machine ───────
    let reclaimed = system.reclaim_vb_frames(session.id(), vb.cvt_index, 32)?;
    let report = system.backing_report(session.id(), vb.cvt_index)?;
    println!(
        "\nballooning: reclaim_vb_frames gave back {reclaimed} frames; backing store now holds \
         {} slots ({} KiB payload)",
        report.slots,
        report.stored_bytes >> 10,
    );
    assert_eq!(session.load_u64(vb.at(0))?, 0xFEED_0000); // still byte-exact

    // ── 3. A sharded service under the same pressure ──────────────────
    let config = VbiConfig { phys_frames: 64, ..VbiConfig::vbi_full() };
    let service = VbiService::new(ServiceConfig::new(2, config));
    let client = service.create_client()?;
    let vb = client.request_vb(1 << 20, VbProperties::NONE, Rwx::READ_WRITE)?;
    for page in 0..256u64 {
        client.store_u64(vb.at(page << 12), 0xBEEF_0000 + page)?;
    }
    for page in 0..256u64 {
        assert_eq!(client.load_u64(vb.at(page << 12))?, 0xBEEF_0000 + page);
    }
    let stats = service.stats();
    let occupancy = service.swap_occupancy();
    println!(
        "\nsharded service: evictions {}, faults_in {}, swap occupancy {occupancy} pages",
        stats.evictions, stats.faults_in,
    );
    assert!(stats.evictions > 0, "the shards evicted");
    assert!(occupancy > 0, "evicted pages sit in the shards' backing stores");
    println!("\nsame engine, same bytes — pressure is a capability of every front end.");
    Ok(())
}
