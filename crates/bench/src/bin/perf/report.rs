//! The names every later claim uses: the metric tables (unit, direction,
//! bound, how measured, what should move it), the emitters that print
//! them, and the small JSON reader `--compare` and the tests parse the
//! emitted lines back with.

use std::collections::BTreeMap;

use vbi_core::telemetry::{json_object, JsonValue as J};

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The name, fixed here for every later change.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change is a regression. Per-layer
    /// metrics have none.
    pub bound: Option<f64>,
    /// The least the bound is ever worth, in the metric's unit: `--compare`
    /// allows the larger of `bound` x the base and this (0.05 s for
    /// `setup_s`, whose base can be a few milliseconds; 0 elsewhere).
    pub floor: f64,
    /// How it is measured: the README's glossary column (a unit test holds
    /// the README to this table; the binary itself never prints it).
    #[cfg_attr(not(test), allow(dead_code))]
    pub how: &'static str,
    /// Per-layer metrics: the end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    how: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), floor: 0.0, how, moves: "" }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    how: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, bound: None, floor: 0.0, how, moves }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: the same set on every workload. A value is
/// taken over the host-quiet timed slices only (`host.rs`).
pub const END_TO_END: &[MetricDef] = &[
    MetricDef { floor: 0.05, ..e2e("setup_s", "s", Lower, 0.25, "median of the host-quiet ones of 10 full, timed set-ups of the service path, spread through the run: construct, create 32 clients, request VBs, pre-touch the working set; the bound is never worth less than 0.05 s") },
    e2e("system_ops_per_s", "1/s", Higher, 0.10, "median host-quiet timed slice, System::execute"),
    e2e("service_ops_per_s", "1/s", Higher, 0.10, "median host-quiet timed slice, VbiService::execute"),
    e2e("submit_ops_per_s", "1/s", Higher, 0.10, "median host-quiet timed slice, VbiService::submit in batches of one op per client"),
    e2e("queue_ops_per_s", "1/s", Higher, 0.10, "median host-quiet timed slice, VbiQueue::submit/reap with 32 ops in flight, generator and worker on one CPU"),
    e2e("async_ops_per_s", "1/s", Higher, 0.10, "median host-quiet timed slice, 32 AsyncSession tasks (budget 1) on one Executor, executor and worker on one CPU"),
    e2e("service_p50_ns", "ns", Lower, 0.10, "call duration of VbiService::execute, 1 call in 2, pooled over the host-quiet timed slices"),
    e2e("queue_p50_ns", "ns", Lower, 0.10, "issue to reaped completion as the client sees it, every op, pooled over the host-quiet timed slices"),
    e2e("async_p50_ns", "ns", Lower, 0.10, "before the await to after it, every op, pooled over the host-quiet timed slices"),
    e2e("peak_rss_mib", "MiB", Lower, 0.10, "VmHWM of the benchmark process at the end of the run"),
];

const ON_READ_HOT: &str = "read_hot";
const ON_ALLOC: &str = "alloc_churn only; zero traffic on read_hot and wide_rw";
const ON_OVERSUB: &str = "oversub only; counters read 0 elsewhere";

/// The per-layer metrics of the traced run. Times are medians of
/// harness-side spans around one public call; ratios are counter deltas
/// over the run.
pub const PER_LAYER: &[MetricDef] = &[
    // service over system
    layer("service.overhead_ns_per_op", "ns", Lower, "service minus system per-op time (1e9 / median host-quiet slice rate)", "service_ops_per_s, service_p50_ns on read_hot; about 0 share on oversub"),
    layer("submit.overhead_ns_per_op", "ns", Lower, "submit minus system per-op time", "submit_ops_per_s on read_hot"),
    layer("service.shared_locks_per_op", "1/op", Lower, "thread_shared_lock_acquisitions delta of the driving thread over the service lane's slices, per op", "service_ops_per_s on read_hot (exactly 1: the shard lock)"),
    layer("service.shard_locks_per_op", "1/op", Lower, "shard-lock acquisitions (VbiService::contention) per op, service lane", "service_ops_per_s on read_hot"),
    layer("submit.shard_locks_per_op", "1/op", Lower, "shard-lock acquisitions per op, submit lane", "submit_ops_per_s on read_hot"),
    layer("service.p99_ns", "ns", Lower, "as service_p50_ns, the 99th percentile; withheld under 1000 pooled samples", "service_ops_per_s on alloc_churn and oversub (the slow ops are the tail)"),
    // queue
    layer("queue.handoff_ns_per_op", "ns", Lower, "queue minus service per-op time: ring enqueue, worker wake, completion post, reap", "queue_ops_per_s, queue_p50_ns on read_hot; no change predicted on oversub"),
    layer("queue.submit_call_ns", "ns", Lower, "median span around VbiQueue::submit", "queue_ops_per_s on read_hot"),
    layer("queue.reap_call_ns", "ns", Lower, "median span around VbiQueue::reap (includes the wait for the worker)", "queue_p50_ns on read_hot"),
    layer("queue.wait_ns", "ns", Lower, "median self time of the op span (issue to completion): what the client's own submit and reap calls do not cover, i.e. time spent behind the 31 other ops in ring, worker and completion queue", "queue_p50_ns on read_hot"),
    layer("queue.p99_ns", "ns", Lower, "as queue_p50_ns, the 99th percentile; withheld under 1000 pooled samples", "queue_p50_ns on read_hot"),
    layer("queue.shard_locks_per_op", "1/op", Lower, "shard-lock acquisitions per op, queue lane (1.0 today; a batched executor predicts about 1/32)", "queue_ops_per_s on read_hot"),
    layer("queue.depth_high_water", "count", Lower, "QueueDepth::high_water of the queue lane", "queue.p99_ns on read_hot"),
    layer("queue.rtt_depth1_p50_ns", "ns", Lower, "NOISY: submit to reap with one op in flight; measures the scheduler (worker spinning or asleep), never gated", "none: diagnostic"),
    // async_session
    layer("async.wake_ns_per_op", "ns", Lower, "async minus queue per-op time: budget semaphore, waker registry, executor ready list", "async_ops_per_s, async_p50_ns on read_hot"),
    layer("async.p99_ns", "ns", Lower, "as async_p50_ns, the 99th percentile; withheld under 1000 pooled samples", "async_p50_ns on read_hot"),
    layer("async.inflight_high_water", "count", Lower, "VbiQueue::inflight_high_water of the async lane", "async.p99_ns on read_hot"),
    layer("async.backpressure_waits", "count", Lower, "VbiQueue::backpressure_waits of the async lane (0: each task awaits its own op)", "async_ops_per_s on read_hot"),
    layer("async.rtt_depth1_p50_ns", "ns", Lower, "NOISY: block_on of one AsyncSession op at a time; measures the scheduler, never gated", "none: diagnostic"),
    // check (ops::access, client_map, cvt_cache)
    layer("check.read_ns", "ns", Lower, "median span around session.access(va, Read) on a service sibling replaying the stream", "service_ops_per_s, service_p50_ns on read_hot (hit side) and wide_rw (miss side)"),
    layer("check.write_ns", "ns", Lower, "median span around session.access(va, Write) on the same sibling (client write lock)", "service_ops_per_s on wide_rw; a read-path gain that costs writers shows here"),
    layer("check.cvt_cache_hit_ratio", "ratio", Higher, "CVT-cache hits / lookups, service lane", "service_ops_per_s: 1 on read_hot, low on wide_rw"),
    layer("check.lockfree_hit_ratio", "ratio", Higher, "lock-free CVT-cache hits / lookups, service lane", "service_p50_ns on read_hot"),
    layer("check.torn_retries", "count", Lower, "seqlock torn-read retries, service lane", "service.p99_ns on wide_rw"),
    layer("check.map_lockfree_ratio", "ratio", Higher, "client-map published-table hits / lookups, service lane", "service_ops_per_s on read_hot"),
    layer("check.map_generation_retries", "count", Lower, "client-map generation retries, service lane", "service.p99_ns on alloc_churn"),
    // mtl (tlb, vit, translate)
    layer("mtl.half_ns", "ns", Lower, "median span around ops::run_checked_pressured under System::mtl_mut() on the decomposed system sibling", "every *_ops_per_s: wide_rw (miss path) against read_hot (hit path only)"),
    layer("mtl.translate_ns", "ns", Lower, "median span around Mtl::translate of a random working-set address on the same sibling, after the replay", "every *_ops_per_s on wide_rw"),
    layer("mtl.tlb_hit_ratio", "ratio", Higher, "tlb_hits / translation_requests", "every *_ops_per_s: 1 on read_hot, low on wide_rw"),
    layer("mtl.vit_cache_hit_ratio", "ratio", Higher, "vit_cache_hits / (hits + misses)", "every *_ops_per_s on wide_rw"),
    layer("mtl.walks_per_op", "1/op", Lower, "translation-structure walks per op", "every *_ops_per_s on wide_rw"),
    layer("mtl.table_accesses_per_op", "1/op", Lower, "walk table accesses per op", "every *_ops_per_s on wide_rw"),
    layer("mtl.zero_line_returns", "count", Lower, "reads of unallocated regions answered with a zero line (0: every slot is pre-touched)", "none expected"),
    // alloc (frame_cache, buddy, vit, client)
    layer("alloc.request_vb_ns", "ns", Lower, "median whole-op span of RequestVb on the decomposed sibling", ON_ALLOC),
    layer("alloc.release_vb_ns", "ns", Lower, "median whole-op span of ReleaseVb on the decomposed sibling", ON_ALLOC),
    layer("alloc.first_touch_ns", "ns", Lower, "median mtl-half span of stores that allocate their page", ON_ALLOC),
    layer("alloc.pages_allocated", "count", Lower, "4 KiB regions allocated over the run (0 where every page is pre-touched)", ON_ALLOC),
    layer("alloc.frame_cache_allocations", "count", Lower, "order-0 allocations that went through the frame cache, hits + misses", ON_ALLOC),
    layer("alloc.frame_cache_hit_ratio", "ratio", Higher, "frame-cache hits / (hits + misses)", ON_ALLOC),
    layer("alloc.frame_cache_refills_per_kop", "1/kop", Lower, "frame-cache batch refills per 1000 ops", ON_ALLOC),
    layer("alloc.frame_cache_flushes", "count", Lower, "frame-cache flushes back into the buddy", ON_ALLOC),
    layer("alloc.frame_cache_pair_ns", "ns", Lower, "direct order-0 allocate+free on a FrameCache over a BuddyAllocator", "service.p99_ns on alloc_churn"),
    layer("alloc.buddy_pair_ns", "ns", Lower, "direct order-0 allocate+free on a bare BuddyAllocator", "service.p99_ns on alloc_churn"),
    layer("alloc.fragmentation_order5", "ratio", Lower, "share of free memory unusable for an order-5 block, at the end of the run", ON_ALLOC),
    layer("alloc.frames_leaked", "count", Lower, "free_frames() after set-up minus at the end (0 on alloc_churn: every chain is released)", ON_ALLOC),
    // pressure (mtl reclaim, swap)
    layer("pressure.faults_per_op", "1/op", Lower, "faults_in per op", ON_OVERSUB),
    layer("pressure.evictions_per_op", "1/op", Lower, "evictions per op", ON_OVERSUB),
    layer("pressure.writebacks_per_eviction", "ratio", Lower, "writebacks / evictions", ON_OVERSUB),
    layer("pressure.fault_op_ns", "ns", Lower, "median mtl-half span of ops that faulted a page in", "every speed metric, chiefly service.p99_ns, on oversub"),
    layer("pressure.hit_op_ns", "ns", Lower, "median mtl-half span of ops that did not", "service_p50_ns on oversub"),
    layer("pressure.reclaim_ns_per_page", "ns", Lower, "span around Mtl::reclaim_frames(64) on the decomposed sibling, per page evicted", ON_OVERSUB),
    layer("pressure.swap_store_ns", "ns", Lower, "direct BackingStore::store of a 4 KiB page", ON_OVERSUB),
    layer("pressure.swap_load_ns", "ns", Lower, "direct BackingStore::load of a 4 KiB page", ON_OVERSUB),
    layer("pressure.swap_occupancy_pages", "count", Lower, "payload-bearing backing-store pages at the end of the run", ON_OVERSUB),
    layer("pressure.frames_borrowed", "count", Lower, "frames moved between shards (0: one shard)", "none: one shard"),
    // telemetry
    layer("telemetry.metrics_overhead_ratio", "ratio", Higher, "system ops/s with telemetry_metrics on / off, interleaved lanes", "system_ops_per_s on read_hot, where it is the largest share"),
    layer("engine.self_ns", "ns", Lower, "median undecomposed System::execute span minus the check and mtl-half spans of the decomposed sibling: dispatch + telemetry record (each child span carries its own lock and clock pair, so small values can go negative)", "system_ops_per_s on read_hot"),
    // harness
    layer("trace.overhead_ratio", "ratio", Lower, "untraced / traced service ops/s (1 or more), interleaved lanes", "none: the cost of the spans themselves"),
    layer("host.quiet_level_ns", "ns", Lower, "the run's quiet level: 5th percentile of its host-probe readings, per probe iteration; repeats within 2 % from run to run unless the host never left the run alone", "none: a higher level than other runs' marks a run measured on a slower host"),
    layer("host.quiet_share", "ratio", Higher, "share of the run's host-probe readings at its quiet level: how much of the run the host left undisturbed", "none: says how much every other value had to go on"),
    // exact counts: one fixed-length single-threaded pass through System
    layer("exact.translation_requests", "count", Lower, "MtlStats::translation_requests after the exact pass", ON_READ_HOT),
    layer("exact.tlb_hits", "count", Higher, "MtlStats::tlb_hits", "wide_rw"),
    layer("exact.vit_cache_hits", "count", Higher, "MtlStats::vit_cache_hits", "wide_rw"),
    layer("exact.walks", "count", Lower, "MtlStats::walks", "wide_rw"),
    layer("exact.table_accesses", "count", Lower, "MtlStats::walk_table_accesses", "wide_rw"),
    layer("exact.pages_allocated", "count", Lower, "MtlStats::pages_allocated", "alloc_churn"),
    layer("exact.frame_cache_hits", "count", Higher, "MtlStats::frame_cache_hits", "alloc_churn"),
    layer("exact.frame_cache_refills", "count", Lower, "MtlStats::frame_cache_refills", "alloc_churn"),
    layer("exact.evictions", "count", Lower, "MtlStats::evictions", "oversub"),
    layer("exact.writebacks", "count", Lower, "MtlStats::writebacks", "oversub"),
    layer("exact.faults_in", "count", Lower, "MtlStats::faults_in", "oversub"),
    layer("exact.swap_occupancy", "count", Lower, "Snapshot::swap_occupancy at the end of the exact pass", "oversub"),
    layer("exact.free_frames", "count", Higher, "Snapshot::free_frames at the end of the exact pass", "alloc_churn"),
    layer("exact.digest32", "count", Lower, "low 32 bits of the exact pass's completion digest: repeats for a seed, differs across seeds, moves if any answer moves", "none: a check, not a cost"),
];

/// The definition of the metric called `name`.
#[cfg(test)]
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The glossary as a markdown table: every metric with unit, direction,
/// bound, how it is measured and what it should move. `README.md` carries
/// this table verbatim (a unit test holds it to that).
#[cfg(test)]
fn glossary() -> String {
    let mut out = String::from(
        "| metric | unit | better | bound | how measured | should move, on |\n|---|---|---|---|---|---|\n",
    );
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let bound = def.bound.map_or("none".to_string(), |b| format!("{:.0} %", b * 100.0));
        let moves = if def.moves.is_empty() { "is end to end" } else { def.moves };
        out.push_str(&format!(
            "| `{}` | {} | {} | {bound} | {} | {moves} |\n",
            def.name,
            def.unit,
            def.better.word(),
            def.how
        ));
    }
    out
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `{"name": {"value": v, "unit": "u"}, ...}` for the metrics in `defs`.
/// A value keeps its digits: six decimals, or nine for seconds.
fn metrics_json(defs: &[MetricDef], values: &Values) -> String {
    let fields: Vec<(&str, J)> = defs
        .iter()
        .map(|def| {
            let value = values.get(def.name).copied().unwrap_or(0.0);
            let decimals = if def.unit == "s" { 9 } else { 6 };
            let body = json_object(&[
                ("unit", J::S(def.unit.to_string())),
                ("value", J::F(value, decimals)),
            ]);
            (def.name, J::Raw(body))
        })
        .collect();
    json_object(&fields)
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (the end-to-end set, or the per-layer set when traced).
pub fn result_line(
    traced: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
) -> String {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    json_object(&[
        ("attempted", J::U(attempted)),
        ("correct", J::B(correct)),
        ("failed", J::U(failed)),
        ("metrics", J::Raw(metrics_json(defs, values))),
    ])
}

/// Prints every metric in `defs` by name, with value, unit and direction,
/// then its bound (end to end) or what it should move, and where (per layer).
pub fn print_block(title: &str, defs: &[MetricDef], values: &Values) {
    println!("{title}");
    for def in defs {
        let value = values.get(def.name).copied().unwrap_or(0.0);
        let tail = match def.bound {
            Some(bound) => format!("bound {:.0} %", bound * 100.0),
            None => format!("should move: {}", def.moves),
        };
        println!(
            "  {:<34} {:>16.3} {:<6} ({} is better; {tail})",
            def.name,
            value,
            def.unit,
            def.better.word()
        );
    }
}

/// How long one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 15;

/// `BENCHMARK.json`, generated from the tables above so the two cannot
/// drift (a unit test holds the committed file to this).
#[cfg(test)]
fn benchmark_json() -> String {
    use crate::workload::Workload;
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--config\", \
         \"crates/bench/src/bin/perf/cargo-config.toml\", \"--manifest-path\", \
         \"crates/bench/src/bin/perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            let spec = w.spec();
            json_object(&[
                ("name", J::S(spec.name.to_string())),
                ("why", J::S(spec.why.to_string())),
            ])
        })
        .collect();
    out.push_str(&format!("  \"workloads\": {},\n", rows(workloads)));
    let row = |def: &MetricDef| {
        let mut fields = vec![
            ("better", J::S(def.better.word().to_string())),
            ("name", J::S(def.name.to_string())),
            ("unit", J::S(def.unit.to_string())),
        ];
        if let Some(bound) = def.bound {
            fields.push(("bound", J::F(bound, 2)));
        }
        json_object(&fields)
    };
    out.push_str(&format!("  \"end_to_end\": {},\n", rows(END_TO_END.iter().map(row).collect())));
    out.push_str(&format!("  \"per_layer\": {}\n", rows(PER_LAYER.iter().map(row).collect())));
    out.push_str("}\n");
    out
}

// --- reading JSON back --------------------------------------------------------

/// A parsed JSON value — just enough to read this binary's own output.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { bytes: text.as_bytes(), at: 0 };
        let value = parser.value()?;
        parser.space();
        if parser.at == parser.bytes.len() {
            Ok(value)
        } else {
            Err(format!("trailing input at byte {}", parser.at))
        }
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object.
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Object(members) => members,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[cfg(test)]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[cfg(test)]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.space();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unknown literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self
                .sequence(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Ok((key, p.value()?))
                })
                .map(Json::Object),
            Some(b'[') => self.sequence(b']', Parser::value).map(Json::Array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    /// `open item (',' item)* close`, the opening byte not yet consumed.
    fn sequence<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.space();
        if self.bytes.get(self.at) == Some(&close) {
            self.at += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.space();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b) if *b == close => {
                    self.at += 1;
                    return Ok(items);
                }
                _ => {
                    return Err(format!("expected ',' or '{}' at byte {}", close as char, self.at))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let byte = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escape = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match escape {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.at..self.at + 4).ok_or("short \\u")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let ch = char::from_u32(code).ok_or("bad \\u code point")?;
                            out.extend(ch.encode_utf8(&mut [0; 4]).bytes());
                            self.at += 4;
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys_and_parses_back() {
        let mut values = Values::new();
        values.insert("setup_s", 0.012345678);
        values.insert("queue_p50_ns", 4321.5);
        let line = result_line(false, true, 1000, 0, &values);
        let parsed = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1000.0));
        let metrics = parsed.get("metrics").expect("metrics");
        assert_eq!(metrics.members().len(), END_TO_END.len());
        let setup = metrics.get("setup_s").expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.012345678));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let traced = Json::parse(&result_line(true, true, 1, 0, &values)).expect("valid JSON");
        assert_eq!(traced.get("metrics").expect("metrics").members().len(), PER_LAYER.len());
    }

    #[test]
    fn parser_reads_nesting_escapes_and_rejects_garbage() {
        let parsed = Json::parse(r#" {"a":[1,-2.5e1,{"b":"x\"\nA"}],"c":null,"d":false} "#);
        let parsed = parsed.expect("valid JSON");
        let a = parsed.get("a").and_then(Json::as_array).expect("array");
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2].get("b").and_then(Json::as_str), Some("x\"\nA"));
        assert_eq!(parsed.get("c"), Some(&Json::Null));
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1 2]").is_err());
        assert!(Json::parse("{} x").is_err());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{}", def.name);
            assert!(def.bound.is_none_or(|b| b <= 0.25), "{}", def.name);
        }
        assert_eq!(metric("setup_s").map(|m| m.unit), Some("s"));
        assert!(metric("nope").is_none());
    }

    /// `PERF_BLESS=<repository root> cargo test ... table` rewrites `file`,
    /// a committed copy of the tables, instead of comparing it.
    fn blessed(file: &str, content: impl FnOnce(&str) -> String) -> bool {
        let Some(root) = std::env::var_os("PERF_BLESS") else { return false };
        let path = std::path::Path::new(&root).join(file);
        let old = std::fs::read_to_string(&path).expect("PERF_BLESS names the repository");
        std::fs::write(&path, content(&old)).expect("the file is writable");
        true
    }

    /// The glossary table of a README: header row to the first blank line.
    fn table_of(readme: &str) -> std::ops::Range<usize> {
        let start = readme.find("| metric | unit |").expect("the glossary's header row");
        start..start + readme[start..].find("\n\n").expect("a blank line after the table") + 1
    }

    #[test]
    fn readme_carries_the_glossary_table() {
        let rewrite = |old: &str| {
            let table = table_of(old);
            format!("{}{}{}", &old[..table.start], glossary(), &old[table.end..])
        };
        if !blessed("crates/bench/src/bin/perf/README.md", rewrite) {
            let readme = include_str!("README.md");
            assert_eq!(&readme[table_of(readme)], glossary(), "PERF_BLESS=<root> regenerates it");
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        if !blessed("BENCHMARK.json", |_| benchmark_json()) {
            let committed = include_str!("../../../../../BENCHMARK.json");
            assert_eq!(committed, benchmark_json(), "PERF_BLESS=<root> regenerates it");
            let parsed = Json::parse(committed).expect("BENCHMARK.json is valid JSON");
            assert_eq!(
                parsed.get("per_layer").and_then(Json::as_array).map(<[Json]>::len),
                Some(PER_LAYER.len())
            );
        }
    }
}
