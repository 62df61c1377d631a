//! One telemetry plane for every front end (§7.2 made queryable).
//!
//! The paper's evaluation is driven by MTL counters; this reproduction has
//! outgrown plain counters — four front ends, lock-free readers,
//! cross-shard migration, and eviction/fault-in all interact under live
//! traffic. This module is the single place observability lives, threaded
//! through the op engine so every front end inherits it:
//!
//! * a **metrics registry** ([`Telemetry`]) — per-stripe, cache-line-padded
//!   atomic op counters plus log-bucketed (power-of-2) latency
//!   [`Histogram`]s recorded per [`OpKind`] at [`crate::ops::execute`]
//!   boundaries;
//! * a **structured trace ring** ([`TraceRing`]) — a fixed-capacity,
//!   lock-free ring of compact [`TraceEvent`]s per stripe, togglable at
//!   runtime, drained to Chrome `trace_event` JSON ([`chrome_trace`]) that
//!   opens in `chrome://tracing` / Perfetto;
//! * an **export layer** — a unified [`Snapshot`] with JSON and
//!   Prometheus-style text exposition, plus the shared [`bench_line`]
//!   emitter every benchmark uses for its `BENCH_*` trajectory line.
//!
//! Hot-path discipline: when recording is off the engine pays one relaxed
//! atomic load per op; when metrics are on, a handful of relaxed atomic
//! increments; when tracing is on, one ticket `fetch_add` plus five relaxed
//! stores. Nothing on the data plane allocates.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use crate::cvt_cache::CvtCacheStats;
use crate::ops::Op;
use crate::stats::MtlStats;
use crate::tlb::TlbStats;

// --- op kinds ---------------------------------------------------------------

/// The kind of an [`Op`], one variant per engine operation — the label
/// space of the per-op metrics and trace events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// [`Op::CreateClient`].
    CreateClient,
    /// [`Op::CreateClientWithId`].
    CreateClientWithId,
    /// [`Op::DestroyClient`].
    DestroyClient,
    /// [`Op::RequestVb`].
    RequestVb,
    /// [`Op::Attach`].
    Attach,
    /// [`Op::AttachAt`].
    AttachAt,
    /// [`Op::Detach`].
    Detach,
    /// [`Op::ReleaseVb`].
    ReleaseVb,
    /// [`Op::Access`].
    #[default]
    Access,
    /// [`Op::Fetch`].
    Fetch,
    /// [`Op::LoadU64`].
    LoadU64,
    /// [`Op::StoreU64`].
    StoreU64,
    /// [`Op::LoadU8`].
    LoadU8,
    /// [`Op::StoreU8`].
    StoreU8,
    /// [`Op::LoadBytes`].
    LoadBytes,
    /// [`Op::StoreBytes`] and the slice-borrowing
    /// [`crate::ops::store_bytes`] helper.
    StoreBytes,
    /// [`Op::Promote`].
    Promote,
    /// [`Op::CloneVb`].
    CloneVb,
    /// [`Op::Migrate`].
    Migrate,
}

impl OpKind {
    /// Number of op kinds (the metrics registry's row count).
    pub const COUNT: usize = 19;

    /// Every kind, in stable (registry row) order.
    pub const ALL: [OpKind; OpKind::COUNT] = [
        OpKind::CreateClient,
        OpKind::CreateClientWithId,
        OpKind::DestroyClient,
        OpKind::RequestVb,
        OpKind::Attach,
        OpKind::AttachAt,
        OpKind::Detach,
        OpKind::ReleaseVb,
        OpKind::Access,
        OpKind::Fetch,
        OpKind::LoadU64,
        OpKind::StoreU64,
        OpKind::LoadU8,
        OpKind::StoreU8,
        OpKind::LoadBytes,
        OpKind::StoreBytes,
        OpKind::Promote,
        OpKind::CloneVb,
        OpKind::Migrate,
    ];

    /// The kind of an op.
    pub fn of(op: &Op) -> OpKind {
        match op {
            Op::CreateClient => OpKind::CreateClient,
            Op::CreateClientWithId { .. } => OpKind::CreateClientWithId,
            Op::DestroyClient { .. } => OpKind::DestroyClient,
            Op::RequestVb { .. } => OpKind::RequestVb,
            Op::Attach { .. } => OpKind::Attach,
            Op::AttachAt { .. } => OpKind::AttachAt,
            Op::Detach { .. } => OpKind::Detach,
            Op::ReleaseVb { .. } => OpKind::ReleaseVb,
            Op::Access { .. } => OpKind::Access,
            Op::Fetch { .. } => OpKind::Fetch,
            Op::LoadU64 { .. } => OpKind::LoadU64,
            Op::StoreU64 { .. } => OpKind::StoreU64,
            Op::LoadU8 { .. } => OpKind::LoadU8,
            Op::StoreU8 { .. } => OpKind::StoreU8,
            Op::LoadBytes { .. } => OpKind::LoadBytes,
            Op::StoreBytes { .. } => OpKind::StoreBytes,
            Op::Promote { .. } => OpKind::Promote,
            Op::CloneVb { .. } => OpKind::CloneVb,
            Op::Migrate { .. } => OpKind::Migrate,
        }
    }

    /// Registry row index (`0..COUNT`).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label (metric label, trace event name).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::CreateClient => "create_client",
            OpKind::CreateClientWithId => "create_client_with_id",
            OpKind::DestroyClient => "destroy_client",
            OpKind::RequestVb => "request_vb",
            OpKind::Attach => "attach",
            OpKind::AttachAt => "attach_at",
            OpKind::Detach => "detach",
            OpKind::ReleaseVb => "release_vb",
            OpKind::Access => "access",
            OpKind::Fetch => "fetch",
            OpKind::LoadU64 => "load_u64",
            OpKind::StoreU64 => "store_u64",
            OpKind::LoadU8 => "load_u8",
            OpKind::StoreU8 => "store_u8",
            OpKind::LoadBytes => "load_bytes",
            OpKind::StoreBytes => "store_bytes",
            OpKind::Promote => "promote",
            OpKind::CloneVb => "clone_vb",
            OpKind::Migrate => "migrate",
        }
    }
}

// --- histograms -------------------------------------------------------------

/// Number of power-of-2 buckets a [`Histogram`] holds. Bucket 0 holds the
/// value 0; bucket `i >= 1` holds `[2^(i-1), 2^i)`; the last bucket is
/// open-ended so `u64::MAX` still lands somewhere.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Index of the bucket `value` lands in: 0 for 0, else
/// `floor(log2(value)) + 1`, saturated to the last bucket.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Largest value bucket `index` can hold (`2^index - 1`, with the last
/// bucket open-ended) — what [`Histogram::percentile`] reports.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// An HDR-style latency histogram with power-of-2 (log-bucketed) buckets.
///
/// Recording costs one bucket increment; percentiles are answered from the
/// bucket counts with at most 2x relative error (the bucket's upper bound
/// is reported). Histograms [`merge`](Histogram::merge) exactly: merging
/// two histograms equals recording both sample sets into one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in bucket `index` (see [`bucket_index`]).
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Accumulates another histogram — exactly equivalent to having
    /// recorded both histograms' samples into one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at percentile `p` (e.g. `50.0`, `99.0`, `99.9`): the
    /// upper bound of the first bucket whose cumulative count reaches the
    /// rank. 0 when empty; monotone non-decreasing in `p`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                // Report the exact max for the tail bucket instead of an
                // open-ended bound.
                if i == HISTOGRAM_BUCKETS - 1 || self.buckets[i + 1..].iter().all(|&b| b == 0) {
                    return self.max.min(bucket_upper_bound(i)).max(if i == 0 {
                        0
                    } else {
                        bucket_upper_bound(i - 1) + 1
                    });
                }
                return bucket_upper_bound(i);
            }
        }
        self.max
    }
}

/// A [`Histogram`] recorded with relaxed atomics — the registry's
/// concurrent, data-plane-safe flavor.
#[derive(Debug)]
struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    fn load(&self) -> Histogram {
        let mut h = Histogram::new();
        for (mine, theirs) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *mine = theirs.load(Ordering::Relaxed);
        }
        h.count = self.count.load(Ordering::Relaxed);
        h.sum = self.sum.load(Ordering::Relaxed);
        h.max = self.max.load(Ordering::Relaxed);
        h
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

// --- trace ring -------------------------------------------------------------

/// One traced op: what ran, for whom, where, when, and how it went.
/// Compact (five words) so the ring's slots stay cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceEvent {
    /// Nanoseconds since the telemetry plane's epoch when the op started.
    pub start_ns: u64,
    /// Op duration in nanoseconds.
    pub duration_ns: u64,
    /// Raw VBID of the VB the op touched (0 when unknown / not VB-scoped).
    pub vbid: u64,
    /// Client the op ran for (`u32::MAX` for client-less ops).
    pub client: u32,
    /// Home MTL shard of the touched VB (0 on single-shard machines).
    pub shard: u16,
    /// What ran.
    pub kind: OpKind,
    /// Outcome bits ([`TraceEvent::FLAG_ERROR`] & co.).
    pub flags: u8,
}

impl TraceEvent {
    /// The op returned an error.
    pub const FLAG_ERROR: u8 = 1;
    /// Serving the op faulted pages in from the backing store.
    pub const FLAG_FAULT_IN: u8 = 2;
    /// Serving the op evicted resident pages (memory pressure).
    pub const FLAG_EVICT: u8 = 4;
    /// The protection check fell back to a CVT memory read (cache miss /
    /// lock-free fallback).
    pub const FLAG_CVT_FALLBACK: u8 = 8;

    /// `|`-joined flag names ("fault_in|evict"); "ok" when no flags set.
    pub fn flag_names(&self) -> String {
        let mut names = Vec::new();
        if self.flags & Self::FLAG_ERROR != 0 {
            names.push("error");
        }
        if self.flags & Self::FLAG_FAULT_IN != 0 {
            names.push("fault_in");
        }
        if self.flags & Self::FLAG_EVICT != 0 {
            names.push("evict");
        }
        if self.flags & Self::FLAG_CVT_FALLBACK != 0 {
            names.push("cvt_fallback");
        }
        if names.is_empty() {
            "ok".to_string()
        } else {
            names.join("|")
        }
    }
}

/// A slot's fields live in separate atomics; `seq` is a per-slot seqlock
/// (odd = writer inside, even = published as ticket*2+2) so readers can
/// detect and skip torn records instead of ever observing one.
struct TraceSlot {
    seq: AtomicU64,
    start_ns: AtomicU64,
    duration_ns: AtomicU64,
    vbid: AtomicU64,
    /// kind(8) | flags(8) | shard(16) | client(32), low to high.
    meta: AtomicU64,
}

impl TraceSlot {
    fn new() -> Self {
        TraceSlot {
            seq: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            duration_ns: AtomicU64::new(0),
            vbid: AtomicU64::new(0),
            meta: AtomicU64::new(0),
        }
    }
}

fn pack_meta(kind: OpKind, flags: u8, shard: u16, client: u32) -> u64 {
    (kind as u64) | ((flags as u64) << 8) | ((shard as u64) << 16) | ((client as u64) << 32)
}

fn unpack_meta(meta: u64) -> (OpKind, u8, u16, u32) {
    let kind = OpKind::ALL[(meta & 0xFF) as usize % OpKind::COUNT];
    (kind, ((meta >> 8) & 0xFF) as u8, ((meta >> 16) & 0xFFFF) as u16, (meta >> 32) as u32)
}

/// A fixed-capacity, lock-free ring of [`TraceEvent`]s.
///
/// Writers claim a ticket with one `fetch_add` and publish into
/// `ticket % capacity` under a per-slot sequence counter; when the ring
/// wraps, the oldest events are overwritten (dropped), never blocked on.
/// [`drain`](TraceRing::drain) skips slots a writer is mid-publish in, so
/// readers never observe a torn event.
pub struct TraceRing {
    head: AtomicU64,
    slots: Box<[TraceSlot]>,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceRing {
    /// A ring holding up to `capacity` events (rounded up to 1 minimum).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| TraceSlot::new()).collect(),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events ever pushed (monotone; `pushed - capacity` of them have been
    /// overwritten once this exceeds the capacity).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Publishes one event, overwriting the oldest when full.
    pub fn push(&self, event: TraceEvent) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        slot.seq.store(ticket * 2 + 1, Ordering::Release);
        slot.start_ns.store(event.start_ns, Ordering::Release);
        slot.duration_ns.store(event.duration_ns, Ordering::Release);
        slot.vbid.store(event.vbid, Ordering::Release);
        slot.meta.store(
            pack_meta(event.kind, event.flags, event.shard, event.client),
            Ordering::Release,
        );
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Snapshots every published event, oldest first. Slots currently
    /// being written (or rewritten during the read) are skipped — a torn
    /// event is never returned.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let event = TraceEvent {
                start_ns: slot.start_ns.load(Ordering::Acquire),
                duration_ns: slot.duration_ns.load(Ordering::Acquire),
                vbid: slot.vbid.load(Ordering::Acquire),
                client: 0,
                shard: 0,
                kind: OpKind::Access,
                flags: 0,
            };
            let meta = slot.meta.load(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 != s2 {
                continue;
            }
            let (kind, flags, shard, client) = unpack_meta(meta);
            events.push(TraceEvent { kind, flags, shard, client, ..event });
        }
        events.sort_by_key(|e| e.start_ns);
        events
    }
}

// --- the registry -----------------------------------------------------------

/// One stripe of the registry: padded to its own cache lines so stripes
/// never false-share, holding per-kind counters, per-kind latency
/// histograms, and a trace ring.
#[repr(align(128))]
struct Stripe {
    counts: [AtomicU64; OpKind::COUNT],
    errors: [AtomicU64; OpKind::COUNT],
    histograms: [AtomicHistogram; OpKind::COUNT],
    ring: TraceRing,
}

impl Stripe {
    fn new(trace_capacity: usize) -> Self {
        Stripe {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            errors: std::array::from_fn(|_| AtomicU64::new(0)),
            histograms: std::array::from_fn(|_| AtomicHistogram::new()),
            ring: TraceRing::new(trace_capacity),
        }
    }
}

/// One recorded op — what [`Telemetry::record`] takes from the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpSample {
    /// What ran.
    pub kind: OpKind,
    /// Client the op ran for (`u32::MAX` for client-less ops).
    pub client: u32,
    /// Raw VBID touched, 0 when unknown.
    pub vbid: u64,
    /// Home shard of the touched VB.
    pub shard: u16,
    /// Start, nanoseconds since [`Telemetry::now_ns`]'s epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub duration_ns: u64,
    /// [`TraceEvent`] flag bits.
    pub flags: u8,
    /// Whether `start_ns`/`duration_ns` are real clock measurements
    /// ([`Telemetry::should_time`] said yes). Untimed samples bump the
    /// exact per-op counters but skip the latency histogram and the trace
    /// ring — the engine skips the clock reads, not the accounting.
    pub timed: bool,
}

/// Per-kind metrics merged out of the registry — one row of a
/// [`Snapshot`].
#[derive(Debug, Clone, Default)]
pub struct OpLatency {
    /// Which op.
    pub kind: OpKind,
    /// Ops recorded.
    pub count: u64,
    /// Of those, ops that returned an error.
    pub errors: u64,
    /// Latency distribution (nanoseconds).
    pub latency: Histogram,
}

// Spreads threads across stripes: each thread picks a stripe round-robin
// on first record and keeps it (thread-affine, so stripes never contend in
// steady state). Shared across telemetry instances — it is a spreading
// heuristic, not an identity.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE_HINT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Latency sampling period with tracing off: one in this many ops reads
/// the clock for the histograms (the per-op counters are always exact).
/// Amortizes the two `clock_gettime` calls of a timed op down to ~1–2 ns
/// on the hottest path — the difference between "telemetry on" costing a
/// few percent and costing tens.
pub const LATENCY_SAMPLE_PERIOD: u32 = 16;

thread_local! {
    static LATENCY_TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// The per-front-end metrics registry and trace plane.
///
/// Created by each front end (one stripe per MTL shard) and handed to the
/// engine through [`crate::ops::OpEnv::telemetry`]; the engine records one
/// [`OpSample`] per [`crate::ops::execute`] at its boundaries. Metrics and
/// tracing are independently togglable at runtime; both off means the
/// engine pays a single relaxed load per op.
pub struct Telemetry {
    metrics_on: AtomicBool,
    tracing_on: AtomicBool,
    epoch: Instant,
    stripes: Box<[Stripe]>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("stripes", &self.stripes.len())
            .field("metrics_on", &self.metrics_enabled())
            .field("tracing_on", &self.tracing_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A registry with `stripes` stripes (use the shard count), each with a
    /// trace ring of `trace_capacity` events; `metrics` / `tracing` are the
    /// initial toggle states (see [`crate::VbiConfig::telemetry_metrics`]).
    pub fn new(stripes: usize, trace_capacity: usize, metrics: bool, tracing: bool) -> Self {
        let stripes = stripes.max(1);
        Telemetry {
            metrics_on: AtomicBool::new(metrics),
            tracing_on: AtomicBool::new(tracing),
            epoch: Instant::now(),
            stripes: (0..stripes).map(|_| Stripe::new(trace_capacity)).collect(),
        }
    }

    /// Number of stripes (== shard count of the owning front end).
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Whether per-op counters/histograms are being recorded.
    pub fn metrics_enabled(&self) -> bool {
        self.metrics_on.load(Ordering::Relaxed)
    }

    /// Whether trace events are being recorded.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing_on.load(Ordering::Relaxed)
    }

    /// Whether anything at all is being recorded — the engine's one
    /// hot-path check.
    pub fn armed(&self) -> bool {
        self.metrics_enabled() || self.tracing_enabled()
    }

    /// Toggles metric recording at runtime.
    pub fn set_metrics(&self, on: bool) {
        self.metrics_on.store(on, Ordering::Relaxed);
    }

    /// Toggles trace recording at runtime.
    pub fn set_tracing(&self, on: bool) {
        self.tracing_on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since this registry's epoch (trace timestamp base).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether the current op should read the clock: always under tracing
    /// (every [`TraceEvent`] needs real timestamps), one op in
    /// [`LATENCY_SAMPLE_PERIOD`] under metrics alone, never when disarmed.
    /// Sampling keeps per-op `clock_gettime` calls off the armed hot path;
    /// the counters stay exact and the histograms become a uniform sample
    /// of the same distribution.
    pub fn should_time(&self) -> bool {
        if self.tracing_enabled() {
            return true;
        }
        if !self.metrics_enabled() {
            return false;
        }
        LATENCY_TICK.with(|t| {
            let n = t.get().wrapping_add(1);
            t.set(n);
            n % LATENCY_SAMPLE_PERIOD == 0
        })
    }

    fn stripe(&self) -> &Stripe {
        let hint = STRIPE_HINT.with(|h| {
            let mut v = h.get();
            if v == usize::MAX {
                v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed);
                h.set(v);
            }
            v
        });
        &self.stripes[hint % self.stripes.len()]
    }

    /// Records one executed op into the calling thread's stripe: counters
    /// (always exact) and the per-kind histogram when metrics are on, a
    /// [`TraceEvent`] when tracing is on. Histogram and ring only take
    /// `timed` samples — untimed ones carry no real clock readings (see
    /// [`Telemetry::should_time`]). All relaxed atomics; no allocation.
    pub fn record(&self, sample: OpSample) {
        let metrics = self.metrics_enabled();
        let tracing = self.tracing_enabled();
        if !metrics && !tracing {
            return;
        }
        let stripe = self.stripe();
        let row = sample.kind.index();
        if metrics {
            stripe.counts[row].fetch_add(1, Ordering::Relaxed);
            if sample.flags & TraceEvent::FLAG_ERROR != 0 {
                stripe.errors[row].fetch_add(1, Ordering::Relaxed);
            }
            if sample.timed {
                stripe.histograms[row].record(sample.duration_ns);
            }
        }
        if tracing && sample.timed {
            stripe.ring.push(TraceEvent {
                start_ns: sample.start_ns,
                duration_ns: sample.duration_ns,
                vbid: sample.vbid,
                client: sample.client,
                shard: sample.shard,
                kind: sample.kind,
                flags: sample.flags,
            });
        }
    }

    /// Per-kind metrics merged across every stripe, in [`OpKind::ALL`]
    /// order (zero-count kinds included).
    pub fn op_latencies(&self) -> Vec<OpLatency> {
        OpKind::ALL
            .iter()
            .map(|&kind| {
                let row = kind.index();
                let mut out = OpLatency { kind, ..OpLatency::default() };
                for stripe in self.stripes.iter() {
                    out.count += stripe.counts[row].load(Ordering::Relaxed);
                    out.errors += stripe.errors[row].load(Ordering::Relaxed);
                    out.latency.merge(&stripe.histograms[row].load());
                }
                out
            })
            .collect()
    }

    /// Total recorded ops per stripe (sum of every kind's exact counter) —
    /// what the stress suite checks against ops submitted. With tracing on
    /// every op is timed, so this also equals the per-stripe histogram
    /// counts; with tracing off the histograms hold a 1-in-
    /// [`LATENCY_SAMPLE_PERIOD`] sample and sit below it.
    pub fn ops_per_stripe(&self) -> Vec<u64> {
        self.stripes
            .iter()
            .map(|s| s.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum())
            .collect()
    }

    /// Total ops recorded across all stripes and kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_stripe().iter().sum()
    }

    /// Every stripe's published trace events, merged oldest-first.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> =
            self.stripes.iter().flat_map(|s| s.ring.drain()).collect();
        events.sort_by_key(|e| e.start_ns);
        events
    }

    /// Events pushed minus events still held — how many the rings have
    /// overwritten (dropped oldest-first).
    pub fn trace_dropped(&self) -> u64 {
        self.stripes.iter().map(|s| s.ring.pushed().saturating_sub(s.ring.capacity() as u64)).sum()
    }

    /// Clears counters and histograms (benchmark warm-up boundary). Trace
    /// rings are left alone — drain them instead.
    pub fn reset_metrics(&self) {
        for stripe in self.stripes.iter() {
            for c in &stripe.counts {
                c.store(0, Ordering::Relaxed);
            }
            for e in &stripe.errors {
                e.store(0, Ordering::Relaxed);
            }
            for h in &stripe.histograms {
                h.reset();
            }
        }
    }
}

// --- snapshot ---------------------------------------------------------------

/// Per-shard lock and work counters, as reported by the service front end
/// (all zero on the single-owner `System`, which takes no shard locks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardActivity {
    /// MTL shard-lock acquisitions.
    pub acquisitions: u64,
    /// Of those, acquisitions that had to block.
    pub contended: u64,
    /// Engine ops whose MTL work ran on this shard.
    pub ops_executed: u64,
}

/// Client-map lookup counters, split by path ([`Snapshot::client_map`]).
///
/// Produced by the service's epoch-validated sharded client map:
/// `lockfree_hits` counts slot resolutions served entirely from the
/// published table (zero shared locks); `generation_retries` counts
/// re-reads forced by a concurrent create/destroy bumping the map shard's
/// generation mid-snapshot; `locked_fallbacks` counts resolutions that went
/// through the authoritative per-shard mutex (misses or publish-table
/// overflow). All zero on the single-owner `System`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientMapStats {
    /// Slot resolutions served lock-free from the published table.
    pub lockfree_hits: u64,
    /// Lock-free snapshots retried because the shard generation moved.
    pub generation_retries: u64,
    /// Resolutions that took the authoritative map-shard mutex.
    pub locked_fallbacks: u64,
    /// Slot-arena chunks materialized so far. Chunks are never freed, so
    /// this is the map's permanent memory footprint in chunk units — a
    /// long-lived service watches it to see client-churn fragmentation.
    pub arena_chunks: u64,
    /// Arena slots currently owned by a live client.
    pub slots_live: u64,
    /// Arena slots whose client was destroyed, parked on the free list
    /// awaiting reuse (dead weight until the next create claims them).
    pub slots_dead: u64,
}

impl ClientMapStats {
    /// Total slot resolutions (each resolves exactly once, lock-free or
    /// locked; generation retries are extra attempts, not extra lookups).
    pub fn lookups(&self) -> u64 {
        self.lockfree_hits + self.locked_fallbacks
    }

    /// Accumulates another map's counters into this one (front ends built
    /// on top of the service aggregate into one report). The arena gauges
    /// sum too: merged maps report the combined footprint, matching a
    /// combined run when the workloads touch disjoint slot ranges (the
    /// merge test pins this with chunk-filling runs).
    pub fn merge(&mut self, other: &ClientMapStats) {
        let ClientMapStats {
            lockfree_hits,
            generation_retries,
            locked_fallbacks,
            arena_chunks,
            slots_live,
            slots_dead,
        } = other;
        self.lockfree_hits += lockfree_hits;
        self.generation_retries += generation_retries;
        self.locked_fallbacks += locked_fallbacks;
        self.arena_chunks += arena_chunks;
        self.slots_live += slots_live;
        self.slots_dead += slots_dead;
    }
}

/// Queue front-end depth counters ([`Snapshot::queue`], present only for
/// `VbiQueue`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueActivity {
    /// Submissions currently waiting in rings.
    pub queued: u64,
    /// Submitted but not yet reaped.
    pub in_flight: u64,
    /// High-water mark of queued submissions.
    pub high_water: u64,
    /// Completions ever produced.
    pub completed: u64,
    /// Bursts the shard workers have drained from their rings: each is one
    /// ring-lock hold and one pass through the engine's batch entry, so
    /// `completed / bursts` is the ops-per-burst the hand-off amortizes
    /// over.
    pub bursts: u64,
    /// High-water mark of ops in flight at once (submitted, completion not
    /// yet posted) — how deep the pipeline actually got.
    pub inflight_high_water: u64,
    /// Async submissions that had to *wait* for an in-flight budget slot
    /// before entering the rings (the backpressure that keeps slow
    /// completion consumers from growing the completion state without
    /// bound). Zero for purely synchronous use.
    pub backpressure_waits: u64,
}

/// One serializable view of a whole front end: MTL/TLB/CVT-cache counters,
/// shard contention and work, queue depth, pressure counters, and the
/// per-op latency registry — the §7.2 counter set plus everything the
/// concurrent front ends added, in one place.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Which front end produced this ("system", "service", "queue").
    pub front_end: &'static str,
    /// MTL shards behind the front end.
    pub shards: usize,
    /// MTL counters merged across shards.
    pub mtl: MtlStats,
    /// MTL counters per shard, shard-index order.
    pub per_shard_mtl: Vec<MtlStats>,
    /// Translation TLB counters merged across shards (page + direct TLBs).
    pub tlb: TlbStats,
    /// CVT-cache counters merged across clients.
    pub cvt_cache: CvtCacheStats,
    /// Client-map lookup counters (zero for front ends without a sharded
    /// client map).
    pub client_map: ClientMapStats,
    /// Per-shard lock/work counters, shard-index order.
    pub shard_activity: Vec<ShardActivity>,
    /// Per-shard external fragmentation of the buddy allocator at
    /// [`Snapshot::FRAGMENTATION_ORDER`], shard-index order: the fraction
    /// of each shard's free memory not usable for a contiguous block of
    /// that order (0.0 = fully defragmented). Long-lived services watch
    /// this alongside the frame-cache counters to see churn-driven
    /// fragmentation build up.
    pub per_shard_fragmentation: Vec<f64>,
    /// Per-op counts and latency histograms, [`OpKind::ALL`] order.
    pub ops: Vec<OpLatency>,
    /// Recorded ops per telemetry stripe.
    pub ops_per_stripe: Vec<u64>,
    /// Free physical frames summed across shards.
    pub free_frames: u64,
    /// Payload-bearing pages in the backing stores, summed across shards.
    pub swap_occupancy: u64,
    /// Queue depth counters (queue front end only).
    pub queue: Option<QueueActivity>,
}

impl Snapshot {
    /// The block order [`Snapshot::per_shard_fragmentation`] is reported
    /// at: order 5 = 32 contiguous frames = 128 KiB, the smallest VB size
    /// class — the block a whole-VB early reservation needs.
    pub const FRAGMENTATION_ORDER: u32 = 5;

    /// Total ops recorded across all kinds.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|o| o.count).sum()
    }

    /// The metrics row for `kind`.
    pub fn op(&self, kind: OpKind) -> Option<&OpLatency> {
        self.ops.iter().find(|o| o.kind == kind)
    }

    /// One-line JSON exposition: nested objects, keys sorted, zero-count
    /// op rows elided. Schema-stable — fields appear in sorted order.
    pub fn to_json(&self) -> String {
        use JsonValue as J;
        let mtl_json = |m: &MtlStats| {
            json_object(&[
                ("translation_requests", J::U(m.translation_requests)),
                ("tlb_hits", J::U(m.tlb_hits)),
                ("walks", J::U(m.walks)),
                ("pages_allocated", J::U(m.pages_allocated)),
                ("faults_in", J::U(m.faults_in)),
                ("evictions", J::U(m.evictions)),
                ("writebacks", J::U(m.writebacks)),
                ("pages_swapped_out", J::U(m.pages_swapped_out)),
                ("pages_swapped_in", J::U(m.pages_swapped_in)),
                ("promotions", J::U(m.promotions)),
                ("vbs_cloned", J::U(m.vbs_cloned)),
                ("vbs_migrated", J::U(m.vbs_migrated)),
                ("frame_cache_hits", J::U(m.frame_cache_hits)),
                ("frame_cache_misses", J::U(m.frame_cache_misses)),
                ("frame_cache_refills", J::U(m.frame_cache_refills)),
                ("frame_cache_flushes", J::U(m.frame_cache_flushes)),
                ("frame_cache_batch_frees", J::U(m.frame_cache_batch_frees)),
            ])
        };
        let ops_json: Vec<String> = self
            .ops
            .iter()
            .filter(|o| o.count > 0)
            .map(|o| {
                json_object(&[
                    ("op", J::S(o.kind.name().to_string())),
                    ("count", J::U(o.count)),
                    ("errors", J::U(o.errors)),
                    ("p50_ns", J::U(o.latency.percentile(50.0))),
                    ("p99_ns", J::U(o.latency.percentile(99.0))),
                    ("p999_ns", J::U(o.latency.percentile(99.9))),
                    ("max_ns", J::U(o.latency.max())),
                    ("mean_ns", J::F(o.latency.mean(), 1)),
                ])
            })
            .collect();
        let shard_json: Vec<String> = self
            .shard_activity
            .iter()
            .map(|s| {
                json_object(&[
                    ("acquisitions", J::U(s.acquisitions)),
                    ("contended", J::U(s.contended)),
                    ("ops_executed", J::U(s.ops_executed)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("front_end", J::S(self.front_end.to_string())),
            ("shards", J::U(self.shards as u64)),
            ("total_ops", J::U(self.total_ops())),
            ("mtl", J::Raw(mtl_json(&self.mtl))),
            (
                "per_shard_mtl",
                J::Raw(format!(
                    "[{}]",
                    self.per_shard_mtl.iter().map(mtl_json).collect::<Vec<_>>().join(",")
                )),
            ),
            (
                "tlb",
                J::Raw(json_object(&[
                    ("hits", J::U(self.tlb.hits)),
                    ("misses", J::U(self.tlb.misses)),
                    ("evictions", J::U(self.tlb.evictions)),
                ])),
            ),
            (
                "cvt_cache",
                J::Raw(json_object(&[
                    ("lockfree_hits", J::U(self.cvt_cache.lockfree_hits)),
                    ("locked_hits", J::U(self.cvt_cache.locked_hits)),
                    ("misses", J::U(self.cvt_cache.misses)),
                    ("torn_retries", J::U(self.cvt_cache.torn_retries)),
                ])),
            ),
            (
                "client_map",
                J::Raw(json_object(&[
                    ("lockfree_hits", J::U(self.client_map.lockfree_hits)),
                    ("generation_retries", J::U(self.client_map.generation_retries)),
                    ("locked_fallbacks", J::U(self.client_map.locked_fallbacks)),
                    ("arena_chunks", J::U(self.client_map.arena_chunks)),
                    ("slots_live", J::U(self.client_map.slots_live)),
                    ("slots_dead", J::U(self.client_map.slots_dead)),
                ])),
            ),
            ("shard_activity", J::Raw(format!("[{}]", shard_json.join(",")))),
            (
                "per_shard_fragmentation",
                J::Raw(format!(
                    "[{}]",
                    self.per_shard_fragmentation
                        .iter()
                        .map(|f| format!("{f:.4}"))
                        .collect::<Vec<_>>()
                        .join(",")
                )),
            ),
            ("ops", J::Raw(format!("[{}]", ops_json.join(",")))),
            (
                "ops_per_stripe",
                J::Raw(format!(
                    "[{}]",
                    self.ops_per_stripe.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",")
                )),
            ),
            ("free_frames", J::U(self.free_frames)),
            ("swap_occupancy", J::U(self.swap_occupancy)),
        ];
        if let Some(q) = &self.queue {
            fields.push((
                "queue",
                J::Raw(json_object(&[
                    ("queued", J::U(q.queued)),
                    ("in_flight", J::U(q.in_flight)),
                    ("high_water", J::U(q.high_water)),
                    ("completed", J::U(q.completed)),
                    ("bursts", J::U(q.bursts)),
                    ("inflight_high_water", J::U(q.inflight_high_water)),
                    ("backpressure_waits", J::U(q.backpressure_waits)),
                ])),
            ));
        }
        json_object(&fields)
    }

    /// Prometheus-style text exposition: one `name{labels} value` line per
    /// counter, `vbi_` prefixed, with per-op summary quantiles.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut line = |name: &str, labels: &str, value: String| {
            out.push_str("vbi_");
            out.push_str(name);
            if !labels.is_empty() {
                out.push('{');
                out.push_str(labels);
                out.push('}');
            }
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        };
        let fe = format!("front_end=\"{}\"", self.front_end);
        line("shards", &fe, self.shards.to_string());
        line("mtl_translation_requests", &fe, self.mtl.translation_requests.to_string());
        line("mtl_tlb_hits", &fe, self.mtl.tlb_hits.to_string());
        line("mtl_walks", &fe, self.mtl.walks.to_string());
        line("mtl_pages_allocated", &fe, self.mtl.pages_allocated.to_string());
        line("mtl_faults_in", &fe, self.mtl.faults_in.to_string());
        line("mtl_evictions", &fe, self.mtl.evictions.to_string());
        line("mtl_writebacks", &fe, self.mtl.writebacks.to_string());
        line("mtl_frame_cache_hits", &fe, self.mtl.frame_cache_hits.to_string());
        line("mtl_frame_cache_misses", &fe, self.mtl.frame_cache_misses.to_string());
        line("mtl_frame_cache_refills", &fe, self.mtl.frame_cache_refills.to_string());
        line("mtl_frame_cache_flushes", &fe, self.mtl.frame_cache_flushes.to_string());
        line("mtl_frame_cache_batch_frees", &fe, self.mtl.frame_cache_batch_frees.to_string());
        line("tlb_hits", &fe, self.tlb.hits.to_string());
        line("tlb_misses", &fe, self.tlb.misses.to_string());
        line("cvt_cache_lockfree_hits", &fe, self.cvt_cache.lockfree_hits.to_string());
        line("cvt_cache_locked_hits", &fe, self.cvt_cache.locked_hits.to_string());
        line("cvt_cache_misses", &fe, self.cvt_cache.misses.to_string());
        line("cvt_cache_torn_retries", &fe, self.cvt_cache.torn_retries.to_string());
        line("client_map_lockfree_hits", &fe, self.client_map.lockfree_hits.to_string());
        line("client_map_generation_retries", &fe, self.client_map.generation_retries.to_string());
        line("client_map_locked_fallbacks", &fe, self.client_map.locked_fallbacks.to_string());
        line("client_map_arena_chunks", &fe, self.client_map.arena_chunks.to_string());
        line("client_map_slots_live", &fe, self.client_map.slots_live.to_string());
        line("client_map_slots_dead", &fe, self.client_map.slots_dead.to_string());
        line("free_frames", &fe, self.free_frames.to_string());
        line("swap_occupancy_pages", &fe, self.swap_occupancy.to_string());
        for (i, s) in self.shard_activity.iter().enumerate() {
            let labels = format!("{fe},shard=\"{i}\"");
            line("shard_lock_acquisitions", &labels, s.acquisitions.to_string());
            line("shard_lock_contended", &labels, s.contended.to_string());
            line("shard_ops_executed", &labels, s.ops_executed.to_string());
        }
        for (i, f) in self.per_shard_fragmentation.iter().enumerate() {
            let labels = format!("{fe},shard=\"{i}\",order=\"{}\"", Snapshot::FRAGMENTATION_ORDER);
            line("fragmentation", &labels, format!("{f:.4}"));
        }
        for o in self.ops.iter().filter(|o| o.count > 0) {
            let op = format!("{fe},op=\"{}\"", o.kind.name());
            line("op_count", &op, o.count.to_string());
            line("op_errors", &op, o.errors.to_string());
            for (q, p) in [("0.5", 50.0), ("0.99", 99.0), ("0.999", 99.9)] {
                let labels = format!("{op},quantile=\"{q}\"");
                line("op_latency_ns", &labels, o.latency.percentile(p).to_string());
            }
        }
        if let Some(q) = &self.queue {
            line("queue_depth", &fe, q.queued.to_string());
            line("queue_in_flight", &fe, q.in_flight.to_string());
            line("queue_depth_high_water", &fe, q.high_water.to_string());
            line("queue_completed", &fe, q.completed.to_string());
            line("queue_bursts", &fe, q.bursts.to_string());
            line("queue_inflight_high_water", &fe, q.inflight_high_water.to_string());
            line("queue_backpressure_waits", &fe, q.backpressure_waits.to_string());
        }
        out
    }
}

// --- chrome trace export ----------------------------------------------------

/// Renders trace events as Chrome `trace_event` JSON (the
/// `{"traceEvents":[...]}` object form, complete `ph:"X"` duration
/// events) — write it to a file and open it in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev).
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Chrome timestamps are microseconds; keep ns resolution with
        // fractional µs.
        out.push_str(&format!(
            "{{\"args\":{{\"flags\":\"{}\",\"vbid\":{}}},\"cat\":\"vbi\",\"dur\":{:.3},\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3}}}",
            e.flag_names(),
            e.vbid,
            e.duration_ns as f64 / 1000.0,
            e.kind.name(),
            e.client,
            e.shard,
            e.start_ns as f64 / 1000.0,
        ));
    }
    out.push_str("]}");
    out
}

// --- JSON / bench-line emission ---------------------------------------------

/// A value in a [`json_object`] / [`bench_line`] field list.
#[derive(Debug, Clone)]
pub enum JsonValue {
    /// An unsigned integer.
    U(u64),
    /// A signed integer.
    I(i64),
    /// A float rendered with the given number of decimals.
    F(f64, u8),
    /// A boolean.
    B(bool),
    /// A string (escaped on render).
    S(String),
    /// Pre-rendered JSON spliced in verbatim (nested objects/arrays).
    Raw(String),
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn render_value(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::U(n) => out.push_str(&n.to_string()),
        JsonValue::I(n) => out.push_str(&n.to_string()),
        JsonValue::F(f, decimals) => {
            if f.is_finite() {
                out.push_str(&format!("{:.*}", *decimals as usize, f));
            } else {
                out.push('0');
            }
        }
        JsonValue::B(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::S(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
        JsonValue::Raw(r) => out.push_str(r),
    }
}

/// Renders one-line JSON from `fields`, keys sorted (schema-stable
/// regardless of call-site order).
pub fn json_object(fields: &[(&str, JsonValue)]) -> String {
    let mut sorted: Vec<&(&str, JsonValue)> = fields.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::from("{");
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(k, &mut out);
        out.push_str("\":");
        render_value(v, &mut out);
    }
    out.push('}');
    out
}

/// The one shared `BENCH_*` trajectory-line emitter: renders
/// `BENCH_<name> {json}` with `"bench":"<name>"` pinned first and every
/// other field sorted, so all benches emit schema-consistent lines that
/// log-scrapers can diff across commits. Print the returned line as-is.
pub fn bench_line(name: &str, fields: &[(&str, JsonValue)]) -> String {
    let mut sorted: Vec<&(&str, JsonValue)> = fields.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = format!("BENCH_{name} {{\"bench\":\"");
    escape_json(name, &mut out);
    out.push('"');
    for (k, v) in sorted {
        out.push_str(",\"");
        escape_json(k, &mut out);
        out.push_str("\":");
        render_value(v, &mut out);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_at_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        for k in 1..62 {
            let v = 1u64 << k;
            // 2^k opens bucket k+1; 2^k - 1 closes bucket k.
            assert_eq!(bucket_index(v), k + 1, "2^{k}");
            assert_eq!(bucket_index(v - 1), k, "2^{k}-1");
            assert_eq!(bucket_upper_bound(k), v - 1);
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let samples_a = [0u64, 1, 7, 8, 100, 4096, 1 << 40];
        let samples_b = [3u64, 3, 3, 900, u64::MAX];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for &s in &samples_a {
            a.record(s);
            combined.record(s);
        }
        for &s in &samples_b {
            b.record(s);
            combined.record(s);
        }
        a.merge(&b);
        assert_eq!(a, combined);
        assert_eq!(a.count(), (samples_a.len() + samples_b.len()) as u64);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 10, 100, 1000, 10_000, 100_000] {
            for _ in 0..7 {
                h.record(v);
            }
        }
        let ps = [0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0];
        let values: Vec<u64> = ps.iter().map(|&p| h.percentile(p)).collect();
        for w in values.windows(2) {
            assert!(w[0] <= w[1], "percentile not monotone: {values:?}");
        }
        assert!(h.percentile(100.0) >= 100_000 / 2, "tail percentile too low");
    }

    #[test]
    fn percentile_of_uniform_samples_brackets_the_true_value() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        // True median 500; log buckets answer within its bucket [256, 511].
        assert!((256..=511).contains(&p50), "p50 = {p50}");
        assert_eq!(h.percentile(100.0), 1000, "max is exact for tail bucket");
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(99.9), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn trace_ring_wraps_dropping_oldest_never_torn() {
        let ring = TraceRing::new(8);
        for i in 0..20u64 {
            ring.push(TraceEvent {
                start_ns: i,
                duration_ns: i * 3,
                vbid: i,
                client: i as u32,
                shard: (i % 4) as u16,
                kind: OpKind::ALL[(i % OpKind::COUNT as u64) as usize],
                flags: (i % 16) as u8,
            });
        }
        let events = ring.drain();
        assert_eq!(events.len(), 8, "ring holds exactly its capacity");
        assert_eq!(ring.pushed(), 20);
        // The survivors are exactly the newest 8, untorn: every field
        // still satisfies the generator's relations.
        for (j, e) in events.iter().enumerate() {
            let i = 12 + j as u64;
            assert_eq!(e.start_ns, i);
            assert_eq!(e.duration_ns, i * 3);
            assert_eq!(e.vbid, i);
            assert_eq!(e.client, i as u32);
            assert_eq!(e.shard, (i % 4) as u16);
            assert_eq!(e.kind, OpKind::ALL[(i % OpKind::COUNT as u64) as usize]);
            assert_eq!(e.flags, (i % 16) as u8);
        }
    }

    #[test]
    fn trace_ring_concurrent_pushes_are_never_torn() {
        use std::sync::Arc;
        let ring = Arc::new(TraceRing::new(64));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let v = t * 10_000 + i;
                        ring.push(TraceEvent {
                            start_ns: v,
                            duration_ns: v * 7,
                            vbid: v,
                            ..TraceEvent::default()
                        });
                    }
                })
            })
            .collect();
        // Concurrent drains must only ever see internally consistent events.
        for _ in 0..50 {
            for e in ring.drain() {
                assert_eq!(e.duration_ns, e.start_ns * 7, "torn event: {e:?}");
                assert_eq!(e.vbid, e.start_ns);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let events = ring.drain();
        assert_eq!(events.len(), 64);
        for e in &events {
            assert_eq!(e.duration_ns, e.start_ns * 7);
        }
    }

    #[test]
    fn telemetry_records_and_merges_across_stripes() {
        let t = Telemetry::new(4, 16, true, true);
        for i in 0..100u64 {
            t.record(OpSample {
                kind: OpKind::LoadU64,
                duration_ns: i,
                flags: if i % 10 == 0 { TraceEvent::FLAG_ERROR } else { 0 },
                timed: true,
                ..OpSample::default()
            });
        }
        assert_eq!(t.total_ops(), 100);
        assert_eq!(t.ops_per_stripe().iter().sum::<u64>(), 100);
        let ops = t.op_latencies();
        let load = ops.iter().find(|o| o.kind == OpKind::LoadU64).unwrap();
        assert_eq!(load.count, 100);
        assert_eq!(load.errors, 10);
        assert_eq!(load.latency.count(), 100);
        assert!(!t.drain_trace().is_empty());
        t.reset_metrics();
        assert_eq!(t.total_ops(), 0);
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let t = Telemetry::new(1, 16, false, false);
        t.record(OpSample {
            kind: OpKind::Attach,
            duration_ns: 5,
            timed: true,
            ..OpSample::default()
        });
        assert_eq!(t.total_ops(), 0);
        assert!(t.drain_trace().is_empty());
        t.set_metrics(true);
        t.record(OpSample {
            kind: OpKind::Attach,
            duration_ns: 5,
            timed: true,
            ..OpSample::default()
        });
        assert_eq!(t.total_ops(), 1);
        assert!(t.drain_trace().is_empty(), "tracing still off");
    }

    /// A minimal JSON syntax walker: enough to assert the exporters emit
    /// structurally valid JSON (balanced, correctly quoted, comma-separated)
    /// without a JSON dependency.
    fn check_json(s: &str) {
        let bytes = s.as_bytes();
        let mut i = 0usize;
        fn skip_ws(b: &[u8], i: &mut usize) {
            while *i < b.len() && (b[*i] as char).is_whitespace() {
                *i += 1;
            }
        }
        fn value(b: &[u8], i: &mut usize) {
            skip_ws(b, i);
            assert!(*i < b.len(), "truncated JSON");
            match b[*i] {
                b'{' => {
                    *i += 1;
                    skip_ws(b, i);
                    if b[*i] == b'}' {
                        *i += 1;
                        return;
                    }
                    loop {
                        skip_ws(b, i);
                        string(b, i);
                        skip_ws(b, i);
                        assert_eq!(b[*i], b':', "missing ':' at {i}");
                        *i += 1;
                        value(b, i);
                        skip_ws(b, i);
                        match b[*i] {
                            b',' => *i += 1,
                            b'}' => {
                                *i += 1;
                                return;
                            }
                            c => panic!("unexpected {:?} in object", c as char),
                        }
                    }
                }
                b'[' => {
                    *i += 1;
                    skip_ws(b, i);
                    if b[*i] == b']' {
                        *i += 1;
                        return;
                    }
                    loop {
                        value(b, i);
                        skip_ws(b, i);
                        match b[*i] {
                            b',' => *i += 1,
                            b']' => {
                                *i += 1;
                                return;
                            }
                            c => panic!("unexpected {:?} in array", c as char),
                        }
                    }
                }
                b'"' => string(b, i),
                _ => {
                    // number / true / false / null
                    let start = *i;
                    while *i < b.len() && !b",}] \t\n".contains(&b[*i]) {
                        *i += 1;
                    }
                    let tok = std::str::from_utf8(&b[start..*i]).unwrap();
                    assert!(
                        tok == "true"
                            || tok == "false"
                            || tok == "null"
                            || tok.parse::<f64>().is_ok(),
                        "bad scalar {tok:?}"
                    );
                }
            }
        }
        fn string(b: &[u8], i: &mut usize) {
            assert_eq!(b[*i], b'"', "expected string at {i}");
            *i += 1;
            while b[*i] != b'"' {
                if b[*i] == b'\\' {
                    *i += 1;
                }
                *i += 1;
                assert!(*i < b.len(), "unterminated string");
            }
            *i += 1;
        }
        value(bytes, &mut i);
        skip_ws(bytes, &mut i);
        assert_eq!(i, bytes.len(), "trailing garbage after JSON");
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let t = Telemetry::new(2, 32, true, true);
        for i in 0..10u64 {
            t.record(OpSample {
                kind: OpKind::ALL[(i % OpKind::COUNT as u64) as usize],
                client: i as u32,
                vbid: i,
                shard: (i % 2) as u16,
                start_ns: i * 1000,
                duration_ns: 500,
                flags: if i % 3 == 0 { TraceEvent::FLAG_FAULT_IN } else { 0 },
                timed: true,
            });
        }
        let json = chrome_trace(&t.drain_trace());
        check_json(&json);
        // The trace_event envelope Perfetto/chrome://tracing requires.
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":"));
        assert!(json.contains("\"dur\":"));
        assert!(json.contains("\"name\":"));
        assert!(json.contains("fault_in"));
        // Empty traces are still valid documents.
        check_json(&chrome_trace(&[]));
    }

    #[test]
    fn client_map_stats_merge_sums_every_field() {
        let mut a = ClientMapStats {
            lockfree_hits: 5,
            generation_retries: 1,
            locked_fallbacks: 2,
            arena_chunks: 1,
            slots_live: 10,
            slots_dead: 3,
        };
        a.merge(&ClientMapStats {
            lockfree_hits: 3,
            generation_retries: 4,
            locked_fallbacks: 6,
            arena_chunks: 2,
            slots_live: 7,
            slots_dead: 1,
        });
        assert_eq!(
            a,
            ClientMapStats {
                lockfree_hits: 8,
                generation_retries: 5,
                locked_fallbacks: 8,
                arena_chunks: 3,
                slots_live: 17,
                slots_dead: 4,
            }
        );
        assert_eq!(a.lookups(), 16, "retries are attempts, not lookups");
    }

    #[test]
    fn snapshot_renders_valid_json_and_prometheus() {
        let t = Telemetry::new(2, 8, true, false);
        for i in 0..50u64 {
            t.record(OpSample {
                kind: OpKind::StoreU64,
                duration_ns: i * 10,
                timed: true,
                ..OpSample::default()
            });
        }
        let snap = Snapshot {
            front_end: "service",
            shards: 2,
            mtl: MtlStats { faults_in: 7, ..MtlStats::default() },
            per_shard_mtl: vec![MtlStats::default(), MtlStats::default()],
            tlb: TlbStats { hits: 10, misses: 3, evictions: 1 },
            cvt_cache: CvtCacheStats::default(),
            client_map: ClientMapStats {
                lockfree_hits: 40,
                generation_retries: 2,
                locked_fallbacks: 10,
                arena_chunks: 1,
                slots_live: 4,
                slots_dead: 0,
            },
            shard_activity: vec![
                ShardActivity { acquisitions: 5, contended: 1, ops_executed: 25 },
                ShardActivity { acquisitions: 5, contended: 0, ops_executed: 25 },
            ],
            per_shard_fragmentation: vec![0.0, 0.25],
            ops: t.op_latencies(),
            ops_per_stripe: t.ops_per_stripe(),
            free_frames: 1024,
            swap_occupancy: 3,
            queue: Some(QueueActivity {
                queued: 0,
                in_flight: 2,
                high_water: 9,
                completed: 48,
                bursts: 12,
                inflight_high_water: 6,
                backpressure_waits: 11,
            }),
        };
        let json = snap.to_json();
        check_json(&json);
        assert!(json.contains("\"front_end\":\"service\""));
        assert!(json.contains("\"faults_in\":7"));
        assert!(json.contains("\"high_water\":9"));
        assert!(json.contains("\"ops_executed\":25"));
        assert!(json.contains(
            "\"client_map\":{\"arena_chunks\":1,\"generation_retries\":2,\"locked_fallbacks\":10,\
             \"lockfree_hits\":40,\"slots_dead\":0,\"slots_live\":4}"
        ));
        assert!(json.contains("\"bursts\":12"));
        assert!(json.contains("\"inflight_high_water\":6"));
        assert!(json.contains("\"backpressure_waits\":11"));
        assert!(json.contains("\"per_shard_fragmentation\":[0.0000,0.2500]"));
        assert!(json.contains("\"frame_cache_hits\":0"));
        assert_eq!(snap.total_ops(), 50);

        let prom = snap.to_prometheus();
        assert!(prom.contains("vbi_mtl_faults_in{front_end=\"service\"} 7"));
        assert!(prom.contains("vbi_op_count{front_end=\"service\",op=\"store_u64\"} 50"));
        assert!(prom.contains("quantile=\"0.99\""));
        assert!(prom.contains("vbi_queue_depth_high_water{front_end=\"service\"} 9"));
        assert!(prom.contains("vbi_shard_ops_executed{front_end=\"service\",shard=\"1\"} 25"));
        assert!(prom.contains("vbi_client_map_lockfree_hits{front_end=\"service\"} 40"));
        assert!(prom.contains("vbi_client_map_generation_retries{front_end=\"service\"} 2"));
        assert!(prom.contains("vbi_client_map_locked_fallbacks{front_end=\"service\"} 10"));
        assert!(prom.contains("vbi_client_map_arena_chunks{front_end=\"service\"} 1"));
        assert!(prom.contains("vbi_client_map_slots_live{front_end=\"service\"} 4"));
        assert!(prom.contains("vbi_client_map_slots_dead{front_end=\"service\"} 0"));
        assert!(prom.contains("vbi_queue_bursts{front_end=\"service\"} 12"));
        assert!(prom.contains("vbi_queue_inflight_high_water{front_end=\"service\"} 6"));
        assert!(prom.contains("vbi_queue_backpressure_waits{front_end=\"service\"} 11"));
        assert!(prom.contains("vbi_mtl_frame_cache_hits{front_end=\"service\"} 0"));
        assert!(prom
            .contains("vbi_fragmentation{front_end=\"service\",shard=\"1\",order=\"5\"} 0.2500"));
        for l in prom.lines() {
            assert!(l.starts_with("vbi_"), "unprefixed line {l:?}");
            assert!(l.rsplit(' ').next().unwrap().parse::<f64>().is_ok(), "bad value in {l:?}");
        }
    }

    #[test]
    fn json_object_sorts_keys_and_escapes() {
        use JsonValue as J;
        let json = json_object(&[
            ("zeta", J::U(1)),
            ("alpha", J::S("a\"b\\c".to_string())),
            ("mid", J::F(1.5, 2)),
            ("flag", J::B(true)),
            ("neg", J::I(-3)),
            ("raw", J::Raw("[1,2]".to_string())),
        ]);
        assert_eq!(
            json,
            "{\"alpha\":\"a\\\"b\\\\c\",\"flag\":true,\"mid\":1.50,\"neg\":-3,\"raw\":[1,2],\"zeta\":1}"
        );
        check_json(&json);
    }

    #[test]
    fn bench_line_pins_bench_first_and_sorts_the_rest() {
        use JsonValue as J;
        let line = bench_line("demo", &[("z", J::U(1)), ("a", J::U(2))]);
        assert_eq!(line, "BENCH_demo {\"bench\":\"demo\",\"a\":2,\"z\":1}");
        check_json(line.strip_prefix("BENCH_demo ").unwrap());
    }
}
