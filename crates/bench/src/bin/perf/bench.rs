//! One benchmark run: set the lanes up, feed them the stream slice by
//! slice, check what came back, and turn records and counter deltas into
//! the named metrics.

use vbi_core::telemetry::Snapshot;
use vbi_core::VbiConfig;

use crate::host::{Probe, QuietLevel};
use crate::lanes::{timed_service_setup, FrontKind, Lane};
use crate::layers;
use crate::report::Values;
use crate::stats::{median, quartiles, Percentiles};
use crate::trace::Span;
use crate::workload::{timed_slices, GenOp, StreamGen, Workload, CLIENTS};

/// One full, timed set-up of the service path precedes every this-many-th
/// slice: 10 in a full run, spread through it; `setup_s` is the median of
/// the host-quiet ones.
const SLICES_PER_SETUP: usize = 12;
/// Slices a lane's values are taken over at least, and set-ups `setup_s`
/// is: when fewer are host-quiet, the quietest this many count.
const MIN_QUIET_SLICES: usize = 8;
const MIN_QUIET_SETUPS: usize = 3;

/// A front-end lane and the names of the metrics it feeds.
struct FrontLane {
    name: &'static str,
    kind: FrontKind,
    rate: &'static str,
    /// (p50, p99) metric names, for the lanes whose latency is reported.
    latency: Option<(&'static str, &'static str)>,
    /// Shard-locks-per-op metric name, for the lanes that report it.
    shard_locks: Option<&'static str>,
}

/// The five lanes of every run, in reporting order; `system` first, as the
/// reference the others are checked against.
const FRONT_LANES: [FrontLane; 5] = [
    FrontLane {
        name: "system",
        kind: FrontKind::System,
        rate: "system_ops_per_s",
        latency: None,
        shard_locks: None,
    },
    FrontLane {
        name: "service",
        kind: FrontKind::Service,
        rate: "service_ops_per_s",
        latency: Some(("service_p50_ns", "service.p99_ns")),
        shard_locks: Some("service.shard_locks_per_op"),
    },
    FrontLane {
        name: "submit",
        kind: FrontKind::Submit,
        rate: "submit_ops_per_s",
        latency: None,
        shard_locks: Some("submit.shard_locks_per_op"),
    },
    FrontLane {
        name: "queue",
        kind: FrontKind::Queue,
        rate: "queue_ops_per_s",
        latency: Some(("queue_p50_ns", "queue.p99_ns")),
        shard_locks: Some("queue.shard_locks_per_op"),
    },
    FrontLane {
        name: "async",
        kind: FrontKind::Async,
        rate: "async_ops_per_s",
        latency: Some(("async_p50_ns", "async.p99_ns")),
        shard_locks: None,
    },
];

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The seed the stream is generated from.
    pub seed: u64,
    /// How long the timed slices should take on the reference host.
    pub seconds: f64,
    /// The traced (per-layer) run instead of the end-to-end one.
    pub traced: bool,
}

impl Options {
    /// Timed slices every lane (and every replay) runs, after one warm-up.
    /// The traced run has a third of the end-to-end run's, of the same
    /// length: it also replays the stream on two siblings and times the
    /// layers directly.
    pub fn timed_slices(&self) -> usize {
        let slices = timed_slices(self.seconds);
        if self.traced {
            slices / 3
        } else {
            slices
        }
    }
}

/// One lane's line in the run record.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSummary {
    /// Lane name.
    pub name: &'static str,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that did not complete as expected.
    pub failed: u64,
    /// Fold of every completion (see `lanes::Record::digest`).
    pub digest: u64,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Rounds per slice the run used (the workload size).
    pub rounds_per_slice: usize,
    /// Every metric measured, by name (both end-to-end and per-layer
    /// names may be present; the emitter picks the set).
    pub values: Values,
    /// Per-lane attempts, failures and digests.
    pub lanes: Vec<LaneSummary>,
    /// Why the run is not correct; empty when it is.
    pub violations: Vec<String>,
    /// Un-gated extras printed beside the tables (p99.9, sample counts).
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Ops issued over all lanes.
    pub fn attempted(&self) -> u64 {
        self.lanes.iter().map(|l| l.attempted).sum()
    }

    /// Ops that did not complete as expected, over all lanes.
    pub fn failed(&self) -> u64 {
        self.lanes.iter().map(|l| l.failed).sum()
    }

    /// Whether every check and shape gate held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The machine every lane runs on: the default configuration (VBI-Full,
/// telemetry metrics on, tracing off) with only `phys_frames` set.
pub fn machine(workload: Workload) -> VbiConfig {
    VbiConfig { phys_frames: workload.spec().phys_frames, ..VbiConfig::default() }
}

/// The seeded stream and its per-client set-up ops.
pub fn stream(workload: Workload, seed: u64) -> (StreamGen, Vec<Vec<GenOp>>) {
    let mut gen = StreamGen::new(workload, seed);
    let setup = (0..CLIENTS).map(|c| gen.setup(c)).collect();
    (gen, setup)
}

/// What the host probe read during one run.
#[derive(Default)]
struct HostReadings {
    /// Every reading, in the order taken.
    all: Vec<f64>,
    /// Per timed slice, per lane in turn: the larger of the readings taken
    /// before and after the lane's turn.
    slices: Vec<Vec<f64>>,
    /// Per timed set-up: the larger of the readings around it.
    setups: Vec<f64>,
}

impl HostReadings {
    fn read(&mut self, probe: &mut Probe) -> f64 {
        let reading = probe.reading();
        self.all.push(reading);
        reading
    }
}

/// Marks the host-quiet samples, given for each the larger of the probe
/// readings before and after it; when fewer than `enough` are quiet, the
/// `enough` with the lowest readings instead. Also says how many were quiet.
fn quietest(readings: &[f64], level: QuietLevel, enough: usize) -> (Vec<bool>, usize) {
    let quiet: Vec<bool> = readings.iter().map(|r| level.holds(*r)).collect();
    let count = quiet.iter().filter(|q| **q).count();
    if count >= enough {
        return (quiet, count);
    }
    let mut sorted = readings.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cutoff = sorted.get(enough - 1).copied().unwrap_or(f64::INFINITY);
    (readings.iter().map(|r| *r <= cutoff).collect(), count)
}

fn kept<'a>(values: &'a [f64], keep: &'a [bool]) -> Vec<f64> {
    values.iter().zip(keep).filter(|(_, keep)| **keep).map(|(v, _)| *v).collect()
}

/// What one lane measured over its host-quiet timed slices.
struct LaneValues {
    /// Median slice rate, in ops per second.
    rate: f64,
    /// Percentiles of the pooled latency samples.
    latency: Percentiles,
}

impl LaneValues {
    /// The values of a lane, given the host readings around each of its
    /// timed slices, and the note that says what they were taken from.
    fn of(lane: &mut Lane, around: &[f64], level: QuietLevel) -> (Self, String) {
        let (keep, quiet_slices) = quietest(around, level, MIN_QUIET_SLICES);
        let rates = lane.record.slice_rates();
        let values =
            Self { rate: median(&kept(&rates, &keep)), latency: lane.record.pooled_latency(&keep) };
        let [q1, q2, q3] = quartiles(&rates);
        let show = |v: Option<f64>| v.map_or("withheld".to_string(), |v| format!("{v:.1} ns"));
        let note = format!(
            "{}: {quiet_slices} of {} timed slices host-quiet{}; all slices q1 {q1:.0} median \
             {q2:.0} q3 {q3:.0} ops/s; {} latency samples pooled, p99 {}, p99.9 {} (un-gated)",
            lane.name,
            rates.len(),
            if quiet_slices < MIN_QUIET_SLICES { ", too few: the quietest 8 count" } else { "" },
            values.latency.count,
            show(values.latency.p99),
            show(values.latency.p999),
        );
        (values, note)
    }

    fn per_op_ns(&self) -> f64 {
        1e9 / self.rate
    }
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Counter deltas of one lane over its slices, as named metrics. These
/// are what the shape gates read, so they are computed on every run.
fn counter_values(lane: &Lane, after: &Snapshot, values: &mut Values) {
    let before = &lane.before;
    let ops = lane.record.attempted;
    let (m0, m1) = (&before.mtl, &after.mtl);
    let d = |f: fn(&vbi_core::MtlStats) -> u64| f(m1) - f(m0);
    values.insert("mtl.tlb_hit_ratio", ratio(d(|m| m.tlb_hits), d(|m| m.translation_requests)));
    let vit_lookups = d(|m| m.vit_cache_hits) + d(|m| m.vit_cache_misses);
    values.insert("mtl.vit_cache_hit_ratio", ratio(d(|m| m.vit_cache_hits), vit_lookups));
    values.insert("mtl.walks_per_op", ratio(d(|m| m.walks), ops));
    values.insert("mtl.table_accesses_per_op", ratio(d(|m| m.walk_table_accesses), ops));
    values.insert("mtl.zero_line_returns", d(|m| m.zero_line_returns) as f64);
    let cache_allocations = d(|m| m.frame_cache_hits) + d(|m| m.frame_cache_misses);
    values
        .insert("alloc.frame_cache_hit_ratio", ratio(d(|m| m.frame_cache_hits), cache_allocations));
    values.insert("alloc.frame_cache_allocations", cache_allocations as f64);
    values.insert("alloc.pages_allocated", d(|m| m.pages_allocated) as f64);
    values.insert(
        "alloc.frame_cache_refills_per_kop",
        1e3 * ratio(d(|m| m.frame_cache_refills), ops),
    );
    values.insert("alloc.frame_cache_flushes", d(|m| m.frame_cache_flushes) as f64);
    values.insert("alloc.fragmentation_order5", after.per_shard_fragmentation[0]);
    values.insert("alloc.frames_leaked", before.free_frames as f64 - after.free_frames as f64);
    values.insert("pressure.faults_per_op", ratio(d(|m| m.faults_in), ops));
    values.insert("pressure.evictions_per_op", ratio(d(|m| m.evictions), ops));
    values
        .insert("pressure.writebacks_per_eviction", ratio(d(|m| m.writebacks), d(|m| m.evictions)));
    values.insert("pressure.swap_occupancy_pages", after.swap_occupancy as f64);
    values.insert(
        "pressure.frames_borrowed",
        lane.service().map_or(0, |s| s.frames_borrowed()) as f64,
    );
    let (c0, c1) = (&before.cvt_cache, &after.cvt_cache);
    let lookups = c1.lookups() - c0.lookups();
    values.insert("check.cvt_cache_hit_ratio", ratio(c1.hits() - c0.hits(), lookups));
    values.insert("check.lockfree_hit_ratio", ratio(c1.lockfree_hits - c0.lockfree_hits, lookups));
    values.insert("check.torn_retries", (c1.torn_retries - c0.torn_retries) as f64);
    let (p0, p1) = (&before.client_map, &after.client_map);
    let map_hits = p1.lockfree_hits - p0.lockfree_hits;
    values.insert("check.map_lockfree_ratio", ratio(map_hits, p1.lookups() - p0.lookups()));
    values.insert(
        "check.map_generation_retries",
        (p1.generation_retries - p0.generation_retries) as f64,
    );
    values.insert("service.shared_locks_per_op", ratio(lane.shared_locks, ops));
}

fn shard_locks_per_op(lane: &Lane, after: &Snapshot) -> f64 {
    let locks = after.shard_activity[0].acquisitions - lane.before.shard_activity[0].acquisitions;
    ratio(locks, lane.record.attempted)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok());
    kib.unwrap_or(0.0) / 1024.0
}

/// The workload's shape gates: the run must have exercised the layers the
/// workload was built to exercise, or a change of defaults that silently
/// turns one workload into another would read as a gain.
fn shape_gates(workload: Workload, values: &Values, violations: &mut Vec<String>) {
    let v = |name: &str| values.get(name).copied().unwrap_or(f64::NAN);
    let mut gate = |holds: bool, what: &str| {
        if !holds {
            violations.push(format!("shape gate: {what}"));
        }
    };
    let evictions = v("pressure.evictions_per_op");
    let pressure_idle = evictions == 0.0
        && v("pressure.faults_per_op") == 0.0
        && v("pressure.swap_occupancy_pages") == 0.0;
    let alloc_idle = v("alloc.pages_allocated") == 0.0 && v("alloc.frame_cache_allocations") == 0.0;
    match workload {
        Workload::ReadHot => {
            gate(v("mtl.tlb_hit_ratio") == 1.0, "read_hot: mtl.tlb_hit_ratio must be 1");
            gate(
                v("check.cvt_cache_hit_ratio") == 1.0,
                "read_hot: check.cvt_cache_hit_ratio must be 1",
            );
            gate(
                v("service.shared_locks_per_op") == 1.0,
                "read_hot: service.shared_locks_per_op must be exactly 1 (the shard lock)",
            );
            gate(pressure_idle, "read_hot: pressure counters must read 0");
            gate(alloc_idle, "read_hot: allocator traffic must be 0");
        }
        Workload::WideRw => {
            // A u64 access is eight byte translations and seven of them hit
            // the entry the first one filled, so 0.875 is the floor of the
            // hit ratio; the walk rate is what tells the miss path ran.
            gate(v("mtl.tlb_hit_ratio") < 0.9, "wide_rw: mtl.tlb_hit_ratio must stay under 0.9");
            gate(v("mtl.walks_per_op") > 0.8, "wide_rw: mtl.walks_per_op must exceed 0.8");
            gate(
                v("mtl.table_accesses_per_op") > 1.0,
                "wide_rw: mtl.table_accesses_per_op must exceed 1",
            );
            gate(
                v("check.cvt_cache_hit_ratio") < 0.85,
                "wide_rw: check.cvt_cache_hit_ratio must stay under 0.85",
            );
            gate(pressure_idle, "wide_rw: pressure counters must read 0");
            gate(alloc_idle, "wide_rw: allocator traffic must be 0");
            if let Some(rss) = values.get("peak_rss_mib") {
                gate(*rss <= 1024.0, "wide_rw: peak_rss_mib must stay within 1024");
            }
        }
        Workload::AllocChurn => {
            gate(
                v("alloc.frame_cache_hit_ratio") > 0.0,
                "alloc_churn: the frame cache must serve hits",
            );
            gate(
                v("alloc.frame_cache_flushes") > 0.0,
                "alloc_churn: the frame cache must be flushed",
            );
            gate(
                v("alloc.frames_leaked") == 0.0,
                "alloc_churn: free_frames() must return to its post-set-up value",
            );
            gate(pressure_idle, "alloc_churn: pressure counters must read 0");
        }
        Workload::Oversub => {
            gate(
                v("pressure.faults_per_op") >= 0.5,
                "oversub: pressure.faults_per_op must be at least 0.5",
            );
            gate(v("pressure.writebacks_per_eviction") > 0.0, "oversub: evictions must write back");
        }
    }
}

/// Runs `options` and returns what it measured and whether it was correct.
pub fn run(options: Options) -> Result<Outcome, String> {
    let Options { workload, seed, seconds, traced } = options;
    let config = machine(workload);
    let (mut gen, setup) = stream(workload, seed);
    let rounds = workload.rounds_per_slice(seconds);
    let slices = options.timed_slices();
    let mut values = Values::new();
    let mut violations = Vec::new();
    let mut notes = Vec::new();

    let build = |name, kind, config: &VbiConfig, traced| {
        Lane::build(name, kind, config, &setup, traced, rounds * CLIENTS * slices)
    };
    let mut lanes = FRONT_LANES
        .iter()
        .map(|def| build(def.name, def.kind, &config, traced))
        .collect::<Result<Vec<Lane>, String>>()?;
    if traced {
        // Two comparison lanes, interleaved with the rest so host drift hits
        // them equally: `service` without spans, `system` without telemetry
        // metrics (spans on, like the lane it is compared with).
        let no_metrics = VbiConfig { telemetry_metrics: false, ..config.clone() };
        lanes.push(build("service_untraced", FrontKind::Service, &config, false)?);
        lanes.push(build("system_nometrics", FrontKind::System, &no_metrics, true)?);
    }

    // One untimed warm-up slice, then the timed ones; every slice goes
    // through every lane before the next is generated, and the host probe
    // reads between any two turns. The timed set-ups are spread between the
    // slices so they meet the same host conditions.
    let mut probe = Probe::new();
    let mut host = HostReadings::default();
    let mut setups = Vec::new();
    for slice in 0..=slices {
        if !traced && slice % SLICES_PER_SETUP == 0 && slice < slices {
            let before = host.read(&mut probe);
            setups.push(timed_service_setup(&config, &setup)?);
            let after = host.read(&mut probe);
            host.setups.push(before.max(after));
        }
        let ops = gen.slice(rounds);
        let mut before = host.read(&mut probe);
        let mut row = Vec::with_capacity(lanes.len());
        for lane in &mut lanes {
            lane.run_slice(&ops, slice > 0);
            let after = host.read(&mut probe);
            row.push(before.max(after));
            before = after;
        }
        if slice > 0 {
            host.slices.push(row);
        }
    }
    let level = QuietLevel::of(&host.all);
    values.insert("host.quiet_share", level.share(&host.all));
    values.insert("host.quiet_level_ns", level.ns());

    if !traced {
        let (keep, _) = quietest(&host.setups, level, MIN_QUIET_SETUPS);
        values.insert("setup_s", median(&kept(&setups, &keep)));
    }
    let measured: Vec<LaneValues> = lanes
        .iter_mut()
        .enumerate()
        .map(|(at, l)| {
            let around: Vec<f64> = host.slices.iter().map(|row| row[at]).collect();
            let (lane_values, note) = LaneValues::of(l, &around, level);
            notes.push(note);
            lane_values
        })
        .collect();

    // Pull what needs `&mut` out of the lanes before they are read by name.
    let mut spans = Vec::new();
    for l in &mut lanes {
        let offset = spans.len();
        // Parents index within the lane's own list.
        spans.extend(l.spans.take().unwrap_or_default().into_iter().map(|mut span: Span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }
    let after: Vec<Snapshot> = lanes.iter().map(Lane::snapshot).collect();
    let lane = |name: &str| {
        let at = lanes.iter().position(|l| l.name == name).expect("lane exists");
        (&lanes[at], &after[at])
    };

    // --- correctness: digests, 1-shard equivalence, completion accounting ---
    let summaries: Vec<LaneSummary> = lanes
        .iter()
        .map(|l| LaneSummary {
            name: l.name,
            attempted: l.record.attempted,
            failed: l.record.failed,
            digest: l.record.digest(),
        })
        .collect();
    for (l, summary) in lanes.iter().zip(&summaries) {
        if summary.digest != summaries[0].digest {
            violations.push(format!(
                "digest of {} ({:016x}) differs from system's ({:016x})",
                l.name, summary.digest, summaries[0].digest
            ));
        }
        if let Some(failure) = &l.record.first_failure {
            violations
                .push(format!("{}: {} op(s) failed, first: {failure}", l.name, l.record.failed));
        }
        violations.extend(l.accounting_error());
    }
    for name in ["service", "submit"] {
        if lane(name).1.mtl != lane("system").1.mtl {
            violations.push(format!("MtlStats of {name} differ from system's on one shard"));
        }
    }

    // --- metrics ---
    let (service, service_after) = lane("service");
    counter_values(service, service_after, &mut values);
    for (def, m) in FRONT_LANES.iter().zip(&measured) {
        values.insert(def.rate, m.rate);
        if let Some((p50, p99)) = def.latency {
            values.insert(p50, m.latency.p50);
            values.extend(m.latency.p99.map(|v| (p99, v)));
        }
    }
    if !traced {
        values.insert("peak_rss_mib", peak_rss_mib());
    }
    shape_gates(workload, &values, &mut violations);
    layers::exact_pass(workload, seed, &mut values)?;

    if traced {
        let per_op = |name: &str| {
            let at = lanes.iter().position(|l| l.name == name).expect("lane exists");
            measured[at].per_op_ns()
        };
        values.insert("service.overhead_ns_per_op", per_op("service") - per_op("system"));
        values.insert("submit.overhead_ns_per_op", per_op("submit") - per_op("system"));
        values.insert("queue.handoff_ns_per_op", per_op("queue") - per_op("service"));
        values.insert("async.wake_ns_per_op", per_op("async") - per_op("queue"));
        values.insert("trace.overhead_ratio", per_op("service") / per_op("service_untraced"));
        let metrics_ratio = per_op("system_nometrics") / per_op("system");
        values.insert("telemetry.metrics_overhead_ratio", metrics_ratio);
        for def in &FRONT_LANES {
            let (l, a) = lane(def.name);
            values.extend(def.shard_locks.map(|name| (name, shard_locks_per_op(l, a))));
        }
        let queue_activity = |name: &str| lane(name).1.queue.expect("queue lanes report activity");
        values.insert("queue.depth_high_water", queue_activity("queue").high_water as f64);
        let async_activity = queue_activity("async");
        values.insert("async.inflight_high_water", async_activity.inflight_high_water as f64);
        values.insert("async.backpressure_waits", async_activity.backpressure_waits as f64);
        let system = (summaries[0].digest, lane("system").1.mtl);
        layers::measure(options, rounds, system, &mut values, &mut violations, &mut spans)?;
    }

    Ok(Outcome { rounds_per_slice: rounds, values, lanes: summaries, violations, notes, spans })
}
