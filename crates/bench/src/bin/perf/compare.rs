//! `perf --compare <a.jsonl> <b.jsonl>`: two sets of run records (the
//! lines `--out` appends), one table, one verdict per workload and
//! end-to-end metric.
//!
//! * `ok` — b's median is no worse than a's by more than the metric's bound;
//! * `regressed` — it is worse by more than the bound;
//! * `unresolved` — the run-to-run spread of either set is wider than the
//!   bound and the sets overlap, so the medians cannot be told apart.
//!
//! The bound is a share of a's median, and never less than the metric's
//! absolute floor (`setup_s`: 0.05 s, so a 5 ms set-up cannot flap).
//!
//! Exact counts are compared as counts: a difference is reported, never
//! read as a speed-up. So is a difference of more than 10 % between the
//! sets' host quiet levels: those sets were not measured on the same host.

use std::collections::BTreeMap;

use crate::report::{Better, Json, MetricDef, END_TO_END};
use crate::stats::quartiles;

/// What `--compare` concluded for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Spread wider than the bound, sets overlapping.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict for one metric given the values of both sets, and the
/// ratio of the medians (b over a, the base).
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = def.bound.expect("end-to-end metrics have a bound");
    let ([a1, median_a, a3], [b1, median_b, b3]) = (quartiles(a), quartiles(b));
    let ratio = median_b / median_a;
    // What b may lose, in the metric's unit: the bound as a share of the
    // base, or the absolute floor where that is more.
    let allowed = (bound * median_a.abs()).max(def.floor);
    let worse_by = match def.better {
        Better::Higher => median_a - median_b,
        Better::Lower => median_b - median_a,
    };
    let range = |v: &[f64]| {
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let ((min_a, max_a), (min_b, max_b)) = (range(a), range(b));
    let overlap = min_a <= max_b && min_b <= max_a;
    let spread = (a3 - a1).max(b3 - b1);
    let verdict = if spread > allowed && overlap {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, ratio)
}

/// One run record, as far as `--compare` reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    workload: String,
    /// What two sets must agree on to be comparable.
    identity: [(&'static str, String); 6],
    attempted: f64,
    failed: f64,
    digest: String,
    /// The run's host quiet level (`host.rs`), when the record has one.
    quiet_level: Option<f64>,
    metrics: BTreeMap<String, f64>,
    exact: BTreeMap<String, f64>,
}

fn numbers(object: Option<&Json>) -> BTreeMap<String, f64> {
    object
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

/// Parses the end-to-end run records of a `--out` file (traced runs carry
/// no gated metric and are skipped).
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let json = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let text_of = |key: &str| match json.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            Some(Json::Number(v)) => Ok(v.to_string()),
            _ => Err(format!("line {}: no \"{key}\"", n + 1)),
        };
        if json.get("traced").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        runs.push(Run {
            workload: text_of("workload")?,
            identity: [
                ("seed", text_of("seed")?),
                ("seconds", text_of("seconds")?),
                ("rounds_per_slice", text_of("rounds_per_slice")?),
                ("profile", text_of("profile")?),
                ("host_cpus", text_of("host_cpus")?),
                ("pinned_cpu", text_of("pinned_cpu")?),
            ],
            attempted: json.get("attempted").and_then(Json::as_f64).unwrap_or(0.0),
            failed: json.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            digest: text_of("digest")?,
            quiet_level: json.get("host_quiet_level_ns").and_then(Json::as_f64),
            metrics: numbers(json.get("metrics")),
            exact: numbers(json.get("exact")),
        });
    }
    Ok(runs)
}

fn failed_share(runs: &[&Run]) -> f64 {
    let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
    if attempted == 0.0 {
        0.0
    } else {
        runs.iter().map(|r| r.failed).sum::<f64>() / attempted
    }
}

/// Compares set `b` against its base `a`: the table, and whether anything
/// regressed (or more ops failed). Refuses sets that are not comparable.
pub fn compare(a: &[Run], b: &[Run]) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<12} {:<20} {:>13} {:>20} {:>13} {:>20} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "a median",
        "a q1..q3",
        "b median",
        "b q1..q3",
        "b/a",
        "bound",
        "verdict"
    );
    let mut bad = false;
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for workload in workloads {
        let runs_a: Vec<&Run> = a.iter().filter(|r| r.workload == workload).collect();
        let runs_b: Vec<&Run> = b.iter().filter(|r| r.workload == workload).collect();
        let (Some(first_a), false) = (runs_a.first(), runs_b.is_empty()) else {
            return Err(format!("{workload}: present in only one of the two sets"));
        };
        for run in runs_a.iter().chain(&runs_b) {
            for ((key, value), (_, base)) in run.identity.iter().zip(&first_a.identity) {
                if value != base {
                    return Err(format!(
                        "{workload}: refusing to compare {key} {base} with {key} {value}"
                    ));
                }
            }
        }
        for def in END_TO_END {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metrics.get(def.name).copied()).collect()
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: {} is missing from a set", def.name));
            }
            let (verdict, ratio) = verdict(def, &va, &vb);
            bad |= verdict == Verdict::Regressed;
            let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(&va), quartiles(&vb));
            table.push_str(&format!(
                "{:<12} {:<20} {:>13.3} {:>20} {:>13.3} {:>20} {:>8.4} {:>5.0}%  {}\n",
                workload,
                def.name,
                a2,
                format!("{a1:.3}..{a3:.3}"),
                b2,
                format!("{b1:.3}..{b3:.3}"),
                ratio,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.word()
            ));
        }
        let (share_a, share_b) = (failed_share(&runs_a), failed_share(&runs_b));
        if share_b > share_a {
            bad = true;
            table.push_str(&format!(
                "{workload:<12} failed-op share rose from {share_a:.6} to {share_b:.6}\n"
            ));
        }
        if let Some(run) = runs_a.iter().chain(&runs_b).find(|r| r.digest != first_a.digest) {
            bad = true;
            table.push_str(&format!(
                "{workload:<12} digest {} differs from {}: the two sets did not compute the same results\n",
                run.digest, first_a.digest
            ));
        }
        // A set measured while the host never had a quiet moment measures
        // the host: its quiet level gives it away.
        let level = |runs: &[&Run]| {
            quartiles(&runs.iter().filter_map(|r| r.quiet_level).collect::<Vec<_>>())[1]
        };
        let (level_a, level_b) = (level(&runs_a), level(&runs_b));
        if level_a > 0.0 && (level_b / level_a - 1.0).abs() > 0.10 {
            table.push_str(&format!(
                "{workload:<12} host quiet level differs: a {level_a:.1} ns, b {level_b:.1} ns per probe \
                 iteration; the sets met different hosts, run them interleaved\n"
            ));
        }
        for (name, base) in &first_a.exact {
            let differing =
                runs_a.iter().chain(&runs_b).filter_map(|r| r.exact.get(name)).find(|v| *v != base);
            if let Some(other) = differing {
                table.push_str(&format!(
                    "{workload:<12} {name} differs as a count: {base:.0} against {other:.0} ({:+.0})\n",
                    other - base
                ));
            }
        }
    }
    Ok((table, bad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::metric;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..5).map(|i| center * (1.0 + spread * (f64::from(i) - 2.0) / 2.0)).collect()
    }

    #[test]
    fn verdicts_on_synthetic_sets() {
        let rate = metric("queue_ops_per_s").expect("defined"); // higher is better
        let bound = rate.bound.expect("end to end");
        let tight = around(1000.0, bound / 5.0);
        let scaled = |set: &[f64], by: f64| set.iter().map(|v| v * by).collect::<Vec<_>>();
        assert_eq!(verdict(rate, &tight, &scaled(&tight, 1.0 - bound / 2.0)).0, Verdict::Ok);
        assert_eq!(verdict(rate, &tight, &scaled(&tight, 1.0 - bound * 2.0)).0, Verdict::Regressed);
        // A higher rate is never a regression, however large.
        assert_eq!(verdict(rate, &tight, &scaled(&tight, 2.0)).0, Verdict::Ok);
        // Spread wider than the bound, overlapping sets: cannot be told apart.
        let wide = around(1000.0, bound * 2.0);
        assert_eq!(verdict(rate, &wide, &scaled(&wide, 0.95)).0, Verdict::Unresolved);
        // Wide spread but disjoint sets: every run of b is worse.
        assert_eq!(verdict(rate, &wide, &scaled(&wide, 0.2)).0, Verdict::Regressed);
        let latency = metric("queue_p50_ns").expect("defined"); // lower is better
        let bound = latency.bound.expect("end to end");
        assert_eq!(verdict(latency, &tight, &scaled(&tight, 1.0 + bound / 2.0)).0, Verdict::Ok);
        assert_eq!(
            verdict(latency, &tight, &scaled(&tight, 1.0 + bound * 2.0)).0,
            Verdict::Regressed
        );
        let (_, ratio) = verdict(latency, &[100.0], &[110.0]);
        assert!((ratio - 1.1).abs() < 1e-12);
        // `setup_s` may always lose its absolute floor: 5 ms against 9 ms is
        // 80 % worse and still inside 0.05 s; 0.2 s against 0.3 s is not.
        let setup = metric("setup_s").expect("defined");
        assert_eq!(verdict(setup, &[0.005; 3], &[0.009; 3]).0, Verdict::Ok);
        assert_eq!(verdict(setup, &[0.2; 3], &[0.3; 3]).0, Verdict::Regressed);
    }

    fn record(workload: &str, seed: u64, scale: f64, exact: u64) -> String {
        let metrics: Vec<String> =
            END_TO_END.iter().map(|def| format!("\"{}\":{}", def.name, 100.0 * scale)).collect();
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":10,\"rounds_per_slice\":30,\
             \"profile\":\"release\",\"host_cpus\":2,\"pinned_cpu\":0,\"host_quiet_level_ns\":{},\
             \"traced\":false,\"attempted\":1000,\"failed\":0,\
             \"digest\":\"00ff\",\"metrics\":{{{}}},\"exact\":{{\"exact.walks\":{exact}}}}}",
            27.0 * scale,
            metrics.join(",")
        )
    }

    #[test]
    fn compare_reads_records_flags_regressions_and_refuses_other_seeds() {
        let base = parse_runs(&format!(
            "{}\n{}\n",
            record("oversub", 7, 1.0, 5),
            record("oversub", 7, 1.01, 5)
        ));
        let base = base.expect("records parse");
        assert_eq!(base.len(), 2);
        let (table, bad) = compare(&base, &base).expect("comparable");
        assert!(!bad, "{table}");
        assert!(table.contains("queue_p50_ns") && !table.contains("regressed"), "{table}");

        // Everything 60 % larger: rates improve, latencies and set-up regress.
        let slower = parse_runs(&record("oversub", 7, 1.6, 6)).expect("records parse");
        let (table, bad) = compare(&base, &slower).expect("comparable");
        assert!(bad && table.contains("regressed"), "{table}");
        assert!(table.contains("exact.walks differs as a count: 5 against 6 (+1)"), "{table}");
        assert!(table.contains("host quiet level differs: a 27.1 ns, b 43.2 ns"), "{table}");

        let other_seed = parse_runs(&record("oversub", 8, 1.0, 5)).expect("records parse");
        assert!(compare(&base, &other_seed).unwrap_err().contains("seed"));
        assert!(parse_runs("{\"workload\":1").is_err());
    }
}
