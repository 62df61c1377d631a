//! The four workloads: what each client owns, how it is set up, and the
//! seeded op stream it replays.
//!
//! Everything the library sees is generated here from `--seed`. A client
//! only ever touches its own VBs and has one op in flight, so the value
//! every load must return is known when the stream is generated: each
//! [`GenOp`] carries its expected outcome and the harness-side shadow of
//! the last value stored lives in the generator, not in the timed loops.

use vbi_core::client::{ClientId, VirtualAddress};
use vbi_core::ops::Op;
use vbi_core::perm::Rwx;
use vbi_core::vb::VbProperties;

/// Closed-loop clients, each with exactly one op in flight.
pub const CLIENTS: usize = 32;
/// Most timed slices a lane runs (one untimed warm-up slice precedes
/// them): a run of 15 s or more has this many.
const TIMED_SLICES: usize = 120;
/// Fewest timed slices, however short the run.
const MIN_TIMED_SLICES: usize = 12;

/// Timed slices of a `seconds`-long run: eight a second — so the length of
/// a slice stays put while a run is shortened — between the two limits.
pub fn timed_slices(seconds: f64) -> usize {
    ((8.0 * seconds).round() as usize).clamp(MIN_TIMED_SLICES, TIMED_SLICES)
}

const PAGE: u64 = 4096;
const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache-hit loads: front-end hand-off and the lock-free check are the
    /// whole cost.
    ReadHot,
    /// Loads and stores over a set wider than every cache: CVT fallbacks,
    /// client write locks, TLB misses, table walks.
    WideRw,
    /// `request_vb`/`release_vb` chains: control plane and allocator.
    AllocChurn,
    /// Four times more pages than frames: the pressure path.
    Oversub,
}

/// What is pinned per workload: the machine, the stream length, and the
/// reason the workload exists (printed, and recorded in `BENCHMARK.json`).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Why the workload was chosen.
    pub why: &'static str,
    /// `VbiConfig::phys_frames`, the only field changed from the default.
    pub phys_frames: u64,
    /// Rounds (one op per client) in the timed slices of a lane, per second
    /// of `--seconds`. Sized on the 2-CPU reference host so the five lanes
    /// take about `--seconds` in total; pinned, so a given `--seconds` is
    /// the same stream length on every commit.
    pub rounds_per_second: usize,
    /// Rounds in a slice are a multiple of this, so a slice never ends
    /// inside an allocation chain.
    pub round_quantum: usize,
    /// Rounds of the fixed-length exact-count pass (independent of
    /// `--seconds`).
    pub exact_rounds: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::ReadHot, Workload::WideRw, Workload::AllocChurn, Workload::Oversub];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.spec().name == name)
    }

    /// The pinned parameters.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ReadHot => Spec {
                name: "read_hot",
                why: "cache-hit loads: front-end hand-off and the lock-free check are the whole \
                      cost, the MTL does almost nothing; the run is pinned to one CPU, so queue \
                      and async are single-CPU hand-off numbers",
                phys_frames: 1 << 20,
                rounds_per_second: 3_000,
                round_quantum: 1,
                exact_rounds: 2_000,
            },
            Workload::WideRw => Spec {
                name: "wide_rw",
                why: "70/30 loads/stores over a set wider than every cache: CVT fallbacks, client \
                      write locks, TLB misses and table walks on the same layers read_hot hits",
                phys_frames: 1 << 18,
                rounds_per_second: 1_200,
                round_quantum: 1,
                exact_rounds: 2_000,
            },
            Workload::AllocChurn => Spec {
                name: "alloc_churn",
                why:
                    "request/store/load/release chains, order-0 and order-5 side by side: control \
                      plane and allocator dominate, a magazine gain that makes flushes dearer shows",
                phys_frames: 1 << 20,
                rounds_per_second: 2_250,
                round_quantum: CHURN_QUANTUM,
                exact_rounds: 20 * CHURN_QUANTUM,
            },
            Workload::Oversub => Spec {
                name: "oversub",
                why: "2048 pages on 512 frames: eviction, write-back and fault-in are the whole \
                      cost, so front-end hand-off all but vanishes",
                phys_frames: 512,
                rounds_per_second: 210,
                round_quantum: 1,
                exact_rounds: 200,
            },
        }
    }

    /// Rounds in one slice of a `seconds`-long run.
    pub fn rounds_per_slice(self, seconds: f64) -> usize {
        let spec = self.spec();
        let per_slice = spec.rounds_per_second as f64 * seconds / timed_slices(seconds) as f64;
        (per_slice.ceil().max(1.0) as usize).div_ceil(spec.round_quantum) * spec.round_quantum
    }
}

/// What a generated op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// `LoadU64`; `value` is what it must return.
    Load,
    /// `StoreU64` of `value`.
    Store,
    /// `RequestVb` of `value` bytes; the new VB must land on CVT `index`.
    Request,
    /// `ReleaseVb` of CVT `index`.
    Release,
}

/// One generated op of one client, with its expected outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenOp {
    /// What the op does.
    pub kind: GenKind,
    /// The CVT index it names.
    pub index: u32,
    /// Byte offset into the VB (loads and stores).
    pub offset: u64,
    /// Store value, expected load value, or request size.
    pub value: u64,
    /// A store that allocates the page it writes.
    pub first_touch: bool,
}

impl GenOp {
    /// The library op, for the lane's own `client`.
    pub fn op(&self, client: ClientId) -> Op {
        let va = VirtualAddress::new(self.index as usize, self.offset);
        match self.kind {
            GenKind::Load => Op::LoadU64 { client, va },
            GenKind::Store => Op::StoreU64 { client, va, value: self.value },
            GenKind::Request => Op::RequestVb {
                client,
                bytes: self.value,
                props: VbProperties::NONE,
                perms: Rwx::READ_WRITE,
            },
            GenKind::Release => Op::ReleaseVb { client, index: self.index as usize },
        }
    }

    fn load(slot: Slot, expect: u64) -> Self {
        Self {
            kind: GenKind::Load,
            index: slot.0,
            offset: slot.1,
            value: expect,
            first_touch: false,
        }
    }

    /// A store of `value` to `slot`.
    pub fn store(slot: Slot, value: u64, first_touch: bool) -> Self {
        Self { kind: GenKind::Store, index: slot.0, offset: slot.1, value, first_touch }
    }

    /// A request for `bytes` that must land on CVT `index`.
    pub fn request(index: u32, bytes: u64) -> Self {
        Self { kind: GenKind::Request, index, offset: 0, value: bytes, first_touch: false }
    }

    fn release(index: u32) -> Self {
        Self { kind: GenKind::Release, index, offset: 0, value: 0, first_touch: false }
    }
}

/// SplitMix64: the harness's own generator, so a seed means the same
/// stream whatever the vendored `rand` does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// A word a client reads and writes: (CVT index, byte offset).
pub type Slot = (u32, u64);

/// The VBs a client requests at set-up (in CVT-index order) and the
/// persistent slots it then touches.
fn layout(workload: Workload) -> (Vec<u64>, Vec<Slot>) {
    let words =
        |index: u32, page: u64, count: u64| (0..count).map(move |w| (index, page * PAGE + w * 64));
    match workload {
        // 16 resident pages of one 128 KiB VB: 32 VBs in all, inside the
        // 64-entry direct TLB and every 64-slot CVT cache.
        Workload::ReadHot => (vec![128 * KIB], (0..16).flat_map(|p| words(0, p, 8)).collect()),
        // 128 small VBs with 2 touched pages each, then one 256 MiB-request
        // VB (4 GiB class: table-mapped) with 256 sparse pages. Both halves
        // hold 512 slots, so half the accesses land on each kind.
        Workload::WideRw => {
            let mut requests = vec![128 * KIB; 128];
            requests.push(256 * MIB);
            let small = (0..128u32).flat_map(|vb| (0..2).flat_map(move |p| words(vb, p, 2)));
            let big = (0..256).flat_map(|p| words(128, p * 256, 2));
            (requests, small.chain(big).collect())
        }
        // One persistent hot VB; the chains come and go on CVT index 1.
        Workload::AllocChurn => (vec![128 * KIB], (0..4).flat_map(|p| words(0, p, 8)).collect()),
        // 64 pages of one 4 MiB-class VB per client: 2048 pages, 512 frames.
        Workload::Oversub => (vec![256 * KIB], (0..64).flat_map(|p| words(0, p, 4)).collect()),
    }
}

/// Ops of one `alloc_churn` cycle that are not hot loads: three small
/// chains of 4 and one large chain of 18.
const CHURN_CHAIN_OPS: usize = 3 * 4 + 18;
/// Every fifth op is a hot load, so 75 rounds hold exactly two cycles
/// (60 chain ops + 15 hot loads) and end with no chain VB live.
const CHURN_QUANTUM: usize = 2 * CHURN_CHAIN_OPS * 5 / 4;
/// The CVT index every chain VB lands on (`attach` reuses the first free
/// entry, and index 0 is the hot VB).
const CHURN_INDEX: u32 = 1;

#[derive(Debug, Clone)]
struct ClientGen {
    rng: Rng,
    /// Last value stored to each persistent slot.
    shadow: Vec<u64>,
    /// `alloc_churn`: ops emitted so far, and the rest of the current cycle.
    emitted: u64,
    chain: std::collections::VecDeque<GenOp>,
}

impl ClientGen {
    fn churn_cycle(&mut self) {
        for _ in 0..3 {
            let slot = (CHURN_INDEX, self.rng.below(512) * 8);
            let value = self.rng.next();
            self.chain.extend([
                GenOp::request(CHURN_INDEX, 4 * KIB),
                GenOp::store(slot, value, true),
                GenOp::load(slot, value),
                GenOp::release(CHURN_INDEX),
            ]);
        }
        // Eight distinct pages of the 32: a stride of 3 from a random start.
        let start = self.rng.below(32);
        let touched: Vec<(Slot, u64)> = (0..8)
            .map(|k| {
                let page = (start + 3 * k) % 32;
                ((CHURN_INDEX, page * PAGE + self.rng.below(512) * 8), self.rng.next())
            })
            .collect();
        self.chain.push_back(GenOp::request(CHURN_INDEX, 128 * KIB));
        self.chain.extend(touched.iter().map(|&(slot, value)| GenOp::store(slot, value, true)));
        self.chain.extend(touched.iter().map(|&(slot, value)| GenOp::load(slot, value)));
        self.chain.push_back(GenOp::release(CHURN_INDEX));
    }
}

/// The seeded stream of one workload: per-client set-up ops, then slices.
#[derive(Debug, Clone)]
pub struct StreamGen {
    workload: Workload,
    requests: Vec<u64>,
    slots: Vec<Slot>,
    clients: Vec<ClientGen>,
}

impl StreamGen {
    /// The stream `seed` gives on `workload`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let (requests, slots) = layout(workload);
        let mut root = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let clients = (0..CLIENTS)
            .map(|_| ClientGen {
                rng: Rng::new(root.next()),
                shadow: vec![0; slots.len()],
                emitted: 0,
                chain: std::collections::VecDeque::new(),
            })
            .collect();
        Self { workload, requests, slots, clients }
    }

    /// Set-up ops of client `c`: request its VBs, then store a seeded
    /// value to every persistent slot (which is the pre-touch). Call once
    /// per client, before the first slice.
    pub fn setup(&mut self, c: usize) -> Vec<GenOp> {
        let client = &mut self.clients[c];
        let mut ops: Vec<GenOp> =
            self.requests.iter().enumerate().map(|(i, &b)| GenOp::request(i as u32, b)).collect();
        for (slot, shadow) in self.slots.iter().zip(client.shadow.iter_mut()) {
            *shadow = client.rng.next();
            ops.push(GenOp::store(*slot, *shadow, true));
        }
        ops
    }

    /// The next `rounds` rounds, round-major: op `r * CLIENTS + c` is
    /// client `c`'s op of round `r`.
    pub fn slice(&mut self, rounds: usize) -> Vec<GenOp> {
        let mut ops = Vec::with_capacity(rounds * CLIENTS);
        for _ in 0..rounds {
            for c in 0..CLIENTS {
                ops.push(self.next_op(c));
            }
        }
        ops
    }

    fn next_op(&mut self, c: usize) -> GenOp {
        let client = &mut self.clients[c];
        let slot = client.rng.below(self.slots.len() as u64) as usize;
        let store_percent = match self.workload {
            Workload::ReadHot => 0,
            Workload::WideRw => 30,
            Workload::Oversub => 50,
            Workload::AllocChurn => {
                client.emitted += 1;
                if client.emitted.is_multiple_of(5) {
                    return GenOp::load(self.slots[slot], client.shadow[slot]);
                }
                if client.chain.is_empty() {
                    client.churn_cycle();
                }
                return client.chain.pop_front().expect("a cycle was just generated");
            }
        };
        if client.rng.below(100) < store_percent {
            client.shadow[slot] = client.rng.next();
            GenOp::store(self.slots[slot], client.shadow[slot], false)
        } else {
            GenOp::load(self.slots[slot], client.shadow[slot])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(workload: Workload, seed: u64) -> (Vec<GenOp>, Vec<GenOp>) {
        let mut gen = StreamGen::new(workload, seed);
        let setup = (0..CLIENTS).flat_map(|c| gen.setup(c)).collect();
        (setup, gen.slice(workload.spec().round_quantum * 4))
    }

    #[test]
    fn a_seed_gives_one_stream_and_seeds_diverge() {
        for workload in Workload::ALL {
            assert_eq!(head(workload, 2020), head(workload, 2020), "{workload:?}");
            assert_ne!(head(workload, 2020).1, head(workload, 7).1, "{workload:?}");
        }
    }

    #[test]
    fn loads_expect_the_last_value_stored() {
        for workload in Workload::ALL {
            let (setup, slice) = head(workload, 11);
            let mut memory = std::collections::HashMap::new();
            let per_client = setup.len() / CLIENTS;
            let stream = setup
                .iter()
                .enumerate()
                .map(|(i, op)| (i / per_client, op))
                .chain(slice.iter().enumerate().map(|(i, op)| (i % CLIENTS, op)));
            for (c, op) in stream {
                let key = (c, op.index, op.offset);
                match op.kind {
                    GenKind::Store => drop(memory.insert(key, op.value)),
                    GenKind::Load => assert_eq!(memory.get(&key), Some(&op.value), "{workload:?}"),
                    GenKind::Release => memory.retain(|k, _| (k.0, k.1) != (c, op.index)),
                    GenKind::Request => {}
                }
            }
        }
    }

    #[test]
    fn a_churn_quantum_ends_with_no_chain_vb_live() {
        let mut gen = StreamGen::new(Workload::AllocChurn, 3);
        for _ in 0..3 {
            let slice = gen.slice(CHURN_QUANTUM);
            let client0 = slice.iter().step_by(CLIENTS);
            let live = client0.fold(0i32, |live, op| match op.kind {
                GenKind::Request => live + 1,
                GenKind::Release => live - 1,
                _ => live,
            });
            assert_eq!(live, 0);
            assert!(gen.clients.iter().all(|c| c.chain.is_empty()));
        }
    }

    #[test]
    fn slice_lengths_follow_seconds_and_quantum() {
        // Shortening a run drops slices, not their length ...
        assert_eq!((timed_slices(15.0), timed_slices(10.0)), (TIMED_SLICES, 80));
        assert_eq!(Workload::ReadHot.rounds_per_slice(15.0), 375);
        assert_eq!(Workload::ReadHot.rounds_per_slice(10.0), 375);
        // ... until the fewest slices are reached, which then shrink.
        assert_eq!((timed_slices(60.0), timed_slices(0.1)), (TIMED_SLICES, MIN_TIMED_SLICES));
        assert_eq!(Workload::ReadHot.rounds_per_slice(0.1), 25);
        assert_eq!(Workload::AllocChurn.rounds_per_slice(0.1) % CHURN_QUANTUM, 0);
        assert!(Workload::Oversub.rounds_per_slice(0.01) >= 1);
        assert_eq!(Workload::parse("wide_rw"), Some(Workload::WideRw));
        assert_eq!(Workload::parse("nope"), None);
    }
}
