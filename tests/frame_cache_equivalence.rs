//! Equivalence proof for the magazine frame cache: a cache-fronted MTL
//! and a buddy-only MTL driven with the same random allocate/free/reclaim
//! traffic agree on *every* outcome — op-for-op success/failure, the
//! `free_frames()` gauge after every single op (the cache is part of the
//! free pool, not a leak of it), and every MTL counter except the cache's
//! own bookkeeping. The cache may only change *where* free frames wait
//! and how fast they turn around, never what the machine does.
//!
//! The workload runs the paper's VBI-2 variant (delayed allocation, no
//! early reservation) over 128 KiB VBs against a deliberately small
//! machine, so the sequences continuously cross the
//! allocate → evict → reclaim boundary where a stale gauge or a stranded
//! cached frame would change an outcome; `clone_vb` rides along so a bulk
//! table build is compared under the same pressure.
//!
//! A second property holds the allocator surface itself to the same
//! standard, verb for verb: two [`FrameAllocator`]s, magazines on and off,
//! grant and refuse alike and report the same `free_frames()` after every
//! request the MTL can make of them.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use vbi_core::client::VirtualAddress;
use vbi_core::ops::{Op, OpOutput, VbHandle};
use vbi_core::phys::Frame;
use vbi_core::{FrameAllocator, MtlStats, Rwx, System, VbProperties, VbiConfig};

/// Pages of one 128 KiB VB.
const VB_PAGES: u64 = 32;

/// Zeroes the frame-cache counters so the *allocation behavior* of the
/// two variants can be compared exactly: the cache is allowed its own
/// bookkeeping and nothing else.
fn scrub(mut stats: MtlStats) -> MtlStats {
    stats.frame_cache_hits = 0;
    stats.frame_cache_misses = 0;
    stats.frame_cache_refills = 0;
    stats.frame_cache_flushes = 0;
    stats.frame_cache_batch_frees = 0;
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cache_fronted_mtl_matches_buddy_only(seed in any::<u64>(), len in 1usize..250) {
        // 256 frames against 32-page VBs: a handful of live VBs exhausts
        // the machine, so reclaim runs constantly.
        let base = VbiConfig { phys_frames: 256, ..VbiConfig::vbi_2() };
        let cached = System::new(VbiConfig { frame_cache: true, ..base.clone() });
        let buddy = System::new(VbiConfig { frame_cache: false, ..base });

        let client = match cached.execute(Op::CreateClient) {
            Ok(OpOutput::Client(id)) => id,
            other => panic!("create failed: {other:?}"),
        };
        prop_assert_eq!(buddy.execute(Op::CreateClient), Ok(OpOutput::Client(client)));

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut live: Vec<VbHandle> = Vec::new();
        for step in 0..len {
            let roll: u32 = rng.gen_range(0..11);
            let op = if live.is_empty() || roll <= 2 {
                Op::RequestVb {
                    client,
                    bytes: 128 << 10,
                    props: VbProperties::NONE,
                    perms: Rwx::READ_WRITE,
                }
            } else {
                let vb = live[rng.gen_range(0..live.len())];
                let va = VirtualAddress::new(vb.cvt_index, rng.gen_range(0..VB_PAGES) * 4096);
                match roll {
                    3..=6 => Op::StoreU64 { client, va, value: rng.gen() },
                    7..=8 => Op::LoadU64 { client, va },
                    // A clone's tables are built in bulk; capped so clones
                    // of clones do not crowd the other ops out.
                    10 if live.len() < 6 => Op::CloneVb { client, index: vb.cvt_index },
                    _ => {
                        let index = rng.gen_range(0..live.len());
                        let vb = live.swap_remove(index);
                        Op::ReleaseVb { client, index: vb.cvt_index }
                    }
                }
            };

            let want = buddy.execute(op.clone());
            let got = cached.execute(op.clone());
            prop_assert_eq!(&want, &got,
                "outcome diverged at step {} (seed {}, op {:?})", step, seed, op);
            if let Ok(OpOutput::Handle(handle)) = &got {
                live.push(*handle);
            }
            prop_assert_eq!(
                cached.mtl().free_frames(), buddy.mtl().free_frames(),
                "free-frame gauge diverged at step {} (seed {})", step, seed);
        }

        prop_assert_eq!(scrub(cached.mtl().stats()), scrub(buddy.mtl().stats()),
            "MTL counters diverged beyond the cache's own bookkeeping (seed {})", seed);

        // Flushing is conservation-neutral: the gauge already counted the
        // cached frames, and a second flush finds nothing left.
        let gauge = cached.mtl().free_frames();
        cached.mtl_mut().flush_frame_cache();
        prop_assert_eq!(cached.mtl().free_frames(), gauge,
            "flush changed the free-frame gauge (seed {})", seed);
        prop_assert_eq!(cached.mtl_mut().flush_frame_cache(), 0u64,
            "a second flush must find an empty cache (seed {})", seed);
        prop_assert_eq!(cached.mtl().free_frames(), buddy.mtl().free_frames());
    }

    #[test]
    fn cache_fronted_allocator_matches_buddy_only_verb_for_verb(
        seed in any::<u64>(),
        len in 1usize..400,
    ) {
        // Order > 0 requests are left to the unit tests in `frame_cache.rs`:
        // which frames are out differs between the two by design, so
        // contiguity may too.
        let base = VbiConfig { phys_frames: 96, ..VbiConfig::default() };
        let mut cached = FrameAllocator::new(&VbiConfig { frame_cache: true, ..base.clone() });
        let mut plain = FrameAllocator::new(&VbiConfig { frame_cache: false, ..base });
        // The frames each side has out, index for index the grants of the
        // same verb.
        let mut held: Vec<(Frame, Frame)> = Vec::new();

        let mut rng = SmallRng::seed_from_u64(seed);
        for step in 0..len {
            let roll: u32 = rng.gen_range(0..10);
            match roll {
                0..=4 => {
                    let grants = if roll <= 2 {
                        (cached.allocate(), plain.allocate())
                    } else {
                        (cached.allocate_table(0), plain.allocate_table(0))
                    };
                    match grants {
                        (Some(c), Some(p)) => held.push((c, p)),
                        (None, None) => {}
                        _ => prop_assert!(false,
                            "grant diverged at step {} (seed {}, roll {}): {:?}",
                            step, seed, roll, grants),
                    }
                }
                5..=7 if !held.is_empty() => {
                    let (c, p) = held.swap_remove(rng.gen_range(0..held.len()));
                    match roll {
                        5 => {
                            cached.free(c);
                            plain.free(p);
                        }
                        6 => {
                            cached.free_table(c, 0);
                            plain.free_table(p, 0);
                        }
                        _ => {
                            cached.free_to_pool(c);
                            plain.free_to_pool(p);
                        }
                    }
                }
                8 => {
                    let count = rng.gen_range(1..24);
                    let retired = cached.retire(count);
                    prop_assert_eq!(retired, plain.retire(count),
                        "retire diverged at step {} (seed {})", step, seed);
                    cached.grow(retired);
                    plain.grow(retired);
                }
                _ => {
                    cached.top_up_pool(16);
                    plain.top_up_pool(16);
                }
            }
            prop_assert_eq!(cached.free_frames(), plain.free_frames(),
                "free-frame gauge diverged at step {} (seed {}, roll {})", step, seed, roll);
            prop_assert_eq!(cached.held_frames(), held.len() as u64);
        }

        cached.drain();
        prop_assert_eq!(plain.drain(), 0u64, "a disabled cache holds nothing");
        prop_assert_eq!(cached.pool_frames(), plain.pool_frames());
        prop_assert_eq!(cached.pool_frames(), cached.free_frames());
    }
}
