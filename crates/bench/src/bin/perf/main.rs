//! `perf` — the one benchmark of this repository: five front-end paths
//! (`System`, `VbiService::execute`, `VbiService::submit`, `VbiQueue`,
//! `AsyncSession`) fed the identical seeded op stream on four workloads,
//! measured end to end and layer by layer. See `README.md` beside this
//! file for the glossary and the reasons behind each choice.
//!
//! ```text
//! perf --workload <read_hot|wide_rw|alloc_churn|oversub> [--seed N] [--seconds S]
//!      [--trace [0|1]] [--out FILE]
//! perf --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! A run prints every metric by name with unit and direction, then its
//! run record (one JSON line: seed, size, host, profile, revision, digests,
//! exact counts — what `--out` appends and `--compare` reads), then, last,
//! the result line `{"correct", "attempted", "failed", "metrics"}`. It
//! exits non-zero when any correctness check or workload shape gate fails.

mod bench;
mod compare;
mod host;
mod lanes;
mod layers;
mod report;
mod stats;
mod trace;
mod workload;

use std::io::Write;
use std::process::ExitCode;

use vbi_core::telemetry::{json_object, JsonValue as J};

use bench::{Options, Outcome};
use host::Host;
use report::{END_TO_END, PER_LAYER};
use workload::Workload;

const USAGE: &str = "usage: perf --workload <read_hot|wide_rw|alloc_churn|oversub> [--seed N] \
                     [--seconds S] [--trace [0|1]] [--out FILE]\n       perf --compare <a.jsonl> \
                     <b.jsonl>";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
enum Command {
    Run { options: Options, out: Option<String> },
    Compare(String, String),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds) = (None, 2020, report::RUN_SECONDS as f64);
    let (mut traced, mut out) = (false, None);
    let mut rest = args.iter().peekable();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| rest.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--compare" => return Ok(Command::Compare(value("two files")?, value("two files")?)),
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--out" => out = Some(value("a file")?),
            // `--trace`, `--trace 1` and `--trace 0`.
            "--trace" => {
                traced = match rest.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run { options: Options { workload, seed, seconds, traced }, out })
}

/// The checked-out revision, read from `.git` without running git; the
/// driver's checkout is not a repository, and says so.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev: String = rev.trim().chars().take(12).collect();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev
    }
}

/// The run record: one JSON line with everything needed to compare this
/// run with another.
fn run_record(options: &Options, outcome: &Outcome, host: &Host) -> String {
    let defs = if options.traced { PER_LAYER } else { END_TO_END };
    let flat = |keep: &dyn Fn(&str) -> bool| {
        let fields: Vec<(&str, J)> = outcome
            .values
            .iter()
            .filter(|(name, _)| keep(name))
            .map(|(name, value)| (*name, J::F(*value, 6)))
            .collect();
        J::Raw(json_object(&fields))
    };
    let is_exact = |name: &str| name.starts_with("exact.");
    let host_value = |name: &str| J::F(outcome.values.get(name).copied().unwrap_or(0.0), 3);
    let lanes: Vec<String> = outcome
        .lanes
        .iter()
        .map(|lane| {
            json_object(&[
                ("attempted", J::U(lane.attempted)),
                ("digest", J::S(format!("{:016x}", lane.digest))),
                ("failed", J::U(lane.failed)),
                ("name", J::S(lane.name.to_string())),
            ])
        })
        .collect();
    let violations: Vec<String> =
        outcome.violations.iter().map(|v| json_object(&[("why", J::S(v.clone()))])).collect();
    json_object(&[
        ("attempted", J::U(outcome.attempted())),
        ("correct", J::B(outcome.correct())),
        ("digest", J::S(format!("{:016x}", outcome.lanes[0].digest))),
        ("exact", flat(&is_exact)),
        ("failed", J::U(outcome.failed())),
        ("git_rev", J::S(git_rev())),
        ("host_cpus", J::U(host.cpus)),
        ("host_quiet_level_ns", host_value("host.quiet_level_ns")),
        ("host_quiet_share", host_value("host.quiet_share")),
        ("lanes", J::Raw(format!("[{}]", lanes.join(",")))),
        ("metrics", flat(&|name| !is_exact(name) && defs.iter().any(|d| d.name == name))),
        ("pinned_cpu", host.pinned_cpu.map_or(J::I(-1), |cpu| J::U(cpu as u64))),
        ("profile", J::S(if cfg!(debug_assertions) { "debug" } else { "release" }.to_string())),
        ("rounds_per_slice", J::U(outcome.rounds_per_slice as u64)),
        ("seconds", J::F(options.seconds, 3)),
        ("seed", J::U(options.seed)),
        ("traced", J::B(options.traced)),
        ("violations", J::Raw(format!("[{}]", violations.join(",")))),
        ("workload", J::S(options.workload.spec().name.to_string())),
    ])
}

/// Where the traced run writes its spans: `<target dir>/perf/`.
fn trace_path(workload: Workload) -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target).join("perf").join(format!("{}.trace.json", workload.spec().name))
}

fn run(options: Options, out: Option<String>) -> Result<bool, String> {
    let spec = options.workload.spec();
    let host = Host::pinned();
    println!(
        "perf: workload {} seed {} seconds {} trace {} host_cpus {} pinned to {} rev {}",
        spec.name,
        options.seed,
        options.seconds,
        u8::from(options.traced),
        host.cpus,
        host.pinned_cpu.map_or("no cpu".to_string(), |cpu| format!("cpu {cpu}")),
        git_rev()
    );
    println!("why: {}", spec.why);
    let outcome = bench::run(options)?;
    println!(
        "size: {} rounds/slice x {} clients x (1 warm-up + {} timed) slices per lane",
        outcome.rounds_per_slice,
        workload::CLIENTS,
        options.timed_slices()
    );
    if options.traced {
        report::print_block("Per-layer metrics (traced run)", PER_LAYER, &outcome.values);
        let path = trace_path(options.workload);
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        std::fs::create_dir_all(path.parent().expect("joined above")).map_err(io)?;
        std::fs::write(&path, trace::chrome_json(&outcome.spans)).map_err(io)?;
        println!("trace: {} spans written to {}", outcome.spans.len(), path.display());
    } else {
        report::print_block("End-to-end metrics", END_TO_END, &outcome.values);
        // The exact counts, and the counters and p99s an untraced run has too.
        let also: Vec<_> =
            PER_LAYER.iter().filter(|d| outcome.values.contains_key(d.name)).copied().collect();
        report::print_block(
            "Per-layer values this run also has (exact.* repeat bit for bit for a seed)",
            &also,
            &outcome.values,
        );
    }
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for lane in &outcome.lanes {
        println!(
            "lane: {:<17} attempted {:>9} failed {:>3} digest {:016x}",
            lane.name, lane.attempted, lane.failed, lane.digest
        );
    }
    for violation in &outcome.violations {
        println!("VIOLATION: {violation}");
    }
    let record = run_record(&options, &outcome, &host);
    if let Some(out) = out {
        let io = |e: std::io::Error| format!("{out}: {e}");
        let mut file =
            std::fs::OpenOptions::new().create(true).append(true).open(&out).map_err(io)?;
        writeln!(file, "{record}").map_err(io)?;
    }
    println!("{record}");
    let (attempted, failed) = (outcome.attempted(), outcome.failed());
    println!(
        "{}",
        report::result_line(options.traced, outcome.correct(), attempted, failed, &outcome.values)
    );
    Ok(outcome.correct())
}

/// `--compare`: prints the table; `Ok(false)` when set `b` regressed.
fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, bad) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(why) => {
            eprintln!("perf: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match command {
        Command::Compare(a, b) => compare_files(&a, &b),
        Command::Run { options, out } => {
            if cfg!(debug_assertions) {
                eprintln!("perf: refusing to measure a debug build; run with --release");
                return ExitCode::from(2);
            }
            run(options, out)
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("perf: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = parse_args(&args("--workload oversub --seed 7 --seconds 3 --trace 1"));
        let options = Options { workload: Workload::Oversub, seed: 7, seconds: 3.0, traced: true };
        assert_eq!(parsed, Ok(Command::Run { options, out: None }));
        let parsed = parse_args(&args("--trace 0 --workload read_hot --out runs.jsonl"));
        let Ok(Command::Run { options, out }) = parsed else { panic!("{parsed:?}") };
        assert!(!options.traced && options.seed == 2020 && out.as_deref() == Some("runs.jsonl"));
        // A bare `--trace` means on, and does not swallow the next flag.
        let parsed = parse_args(&args("--trace --workload wide_rw"));
        assert!(matches!(parsed, Ok(Command::Run { options, .. }) if options.traced));
        assert_eq!(
            parse_args(&args("--compare a b")),
            Ok(Command::Compare("a".into(), "b".into()))
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
        assert!(parse_args(&args("--workload oversub --seconds 0")).is_err());
    }

    /// A 1/100-length run of every workload: all five lanes agree, the
    /// shape gates hold, the record parses back.
    fn smoke(traced: bool) {
        for workload in Workload::ALL {
            let options = Options { workload, seed: 2020, seconds: 0.1, traced };
            let outcome = bench::run(options).expect("the run completes");
            assert!(outcome.correct(), "{workload:?} traced={traced}: {:?}", outcome.violations);
            assert_eq!(outcome.failed(), 0);
            assert!(outcome.lanes.iter().all(|l| l.digest == outcome.lanes[0].digest));
            let host = Host { cpus: 2, pinned_cpu: None };
            let record = run_record(&options, &outcome, &host);
            let parsed = report::Json::parse(&record).expect("valid JSON");
            assert_eq!(parsed.get("correct").and_then(report::Json::as_bool), Some(true));
            // `--compare` reads the end-to-end records and skips the traced ones.
            assert_eq!(compare::parse_runs(&record).expect("parses").len(), usize::from(!traced));
            if traced {
                assert!(!outcome.spans.is_empty());
                report::Json::parse(&trace::chrome_json(&outcome.spans)).expect("loadable trace");
            }
        }
    }

    // Two tests, so the harness runs them side by side.
    #[test]
    fn end_to_end_smoke_of_all_four_workloads_is_correct() {
        smoke(false);
    }

    #[test]
    fn traced_smoke_of_all_four_workloads_is_correct() {
        smoke(true);
    }

    #[test]
    fn exact_counts_repeat_for_a_seed_and_differ_across_seeds() {
        for workload in Workload::ALL {
            let exact = |seed| {
                let mut values = report::Values::new();
                layers::exact_pass(workload, seed, &mut values).expect("the pass completes");
                values
            };
            assert_eq!(exact(2020), exact(2020), "{workload:?}");
            assert_ne!(exact(2020), exact(7), "{workload:?}");
        }
    }
}
