//! Harness-side spans: recorded around the public calls the benchmark
//! makes into each layer, kept in memory, written at exit as Chrome
//! `trace_event` JSON. Tracing *inside* the library is a later change.

use std::sync::OnceLock;
use std::time::Instant;

use vbi_core::telemetry::{json_object, JsonValue as J};

use crate::stats;

/// Nanoseconds since the first call in this process — the one clock every
/// span and latency sample reads.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One span: a public call into a layer, or the op that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call (`execute`, `queue.submit`, `check`, `mtl_half`, ...).
    pub name: &'static str,
    /// The lane (machine instance) it ran on.
    pub lane: &'static str,
    /// Start, [`now_ns`].
    pub start: u64,
    /// End, [`now_ns`].
    pub end: u64,
    /// Index (in the same list) of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by the spans of one op: client index and its op sequence.
    pub trace_id: u64,
}

impl Span {
    /// The id shared by all spans of client `c`'s op number `seq`.
    pub fn trace_id(c: usize, seq: u64) -> u64 {
        ((c as u64) << 40) | seq
    }

    /// The client index packed into the trace id.
    pub fn client(&self) -> u64 {
        self.trace_id >> 40
    }
}

/// Median duration of `lane`'s spans called `name`; 0 when there are none.
pub fn median_duration(spans: &[Span], lane: &str, name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.lane == lane && s.name == name)
        .map(|s| (s.end - s.start) as f64)
        .collect();
    stats::median(&durations)
}

/// Median self time of `lane`'s spans called `name`: duration minus what
/// their child spans cover.
pub fn median_self_time(spans: &[Span], lane: &str, name: &str) -> f64 {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    let selfs: Vec<f64> = spans
        .iter()
        .zip(&children)
        .filter(|(s, _)| s.lane == lane && s.name == name)
        .map(|(s, kids)| stats::self_time(s.start, s.end, kids) as f64)
        .collect();
    stats::median(&selfs)
}

/// Renders spans as Chrome `trace_event` JSON (complete `ph:"X"` events;
/// one process per lane, one thread per client) — loadable in
/// `chrome://tracing` and Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut lanes: Vec<&'static str> = Vec::new();
    let mut out = String::with_capacity(spans.len() * 200 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        let pid = lanes.iter().position(|l| *l == span.lane).unwrap_or_else(|| {
            lanes.push(span.lane);
            lanes.len() - 1
        });
        if i > 0 {
            out.push(',');
        }
        let args = json_object(&[
            ("lane", J::S(span.lane.to_string())),
            ("parent", span.parent.map_or(J::I(-1), |p| J::U(p as u64))),
            ("span", J::U(i as u64)),
            ("trace_id", J::U(span.trace_id)),
        ]);
        // Chrome timestamps are microseconds; three decimals keep the ns.
        out.push_str(&json_object(&[
            ("args", J::Raw(args)),
            ("cat", J::S("perf".to_string())),
            ("dur", J::F((span.end - span.start) as f64 / 1000.0, 3)),
            ("name", J::S(span.name.to_string())),
            ("ph", J::S("X".to_string())),
            ("pid", J::U(pid as u64)),
            ("tid", J::U(span.client())),
            ("ts", J::F(span.start as f64 / 1000.0, 3)),
        ]));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Json;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, lane: "system", start, end, parent, trace_id: Span::trace_id(3, 9) }
    }

    #[test]
    fn self_time_is_whole_minus_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("check", 10, 30, Some(0)),
            span("mtl_half", 30, 90, Some(0)),
            span("op", 200, 260, None),
        ];
        assert_eq!(median_duration(&spans, "system", "op"), 80.0);
        // Self times are 20 and 60.
        assert_eq!(median_self_time(&spans, "system", "op"), 40.0);
        assert_eq!(median_duration(&spans, "system", "absent"), 0.0);
        assert_eq!(median_duration(&spans, "queue", "op"), 0.0);
    }

    #[test]
    fn chrome_json_parses_back() {
        let spans = vec![span("op", 1_500, 4_000, None), span("check", 2_000, 2_250, Some(0))];
        let parsed = Json::parse(&chrome_json(&spans)).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_array).expect("event list");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("check"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(0.25));
        assert_eq!(events[1].get("tid").and_then(Json::as_f64), Some(3.0));
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
    }
}
