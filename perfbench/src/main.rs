//! `sct-benchmark`: the repository's benchmark.
//!
//! ```text
//! sct-benchmark --workload NAME|all [--seed N] [--seconds S] [--trace 0|1|DIR]
//!               [--json PATH] [--bless]
//! sct-benchmark compare BASE.json NEW.json
//! ```
//!
//! One run measures one workload in its own process (`all` runs each in a
//! child process): it sets the workload up, times passes over it for
//! `--seconds`, checks every output, and prints its metrics by name with
//! their units, then one JSON result object as the last line. `--trace 1`
//! (or a directory) makes a traced run that prints the per-layer metrics
//! instead and writes `<workload>.spans.jsonl`. `--json PATH` appends the
//! labelled result to PATH, the input of `compare`. `--bless` records the
//! golden file of the workload. The exit code is 0 only when every output
//! is correct. See README.md for the workloads and metrics.

mod compare;
mod golden;
mod json;
mod measure;
mod probe;
mod run;
mod spec;
mod trace;
mod workload;

use run::Report;
use spec::declared;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use workload::{Plan, Workload, DEFAULT_SEED};

/// Scratch files (campaign corpora) and, by default, span files go under
/// the benchmark's own `out/` directory.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: Option<PathBuf>,
    json: Option<PathBuf>,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: declared().run_seconds as f64,
        trace: None,
        json: None,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {arg}"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| format!("invalid --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("invalid --seconds {v:?}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(out_dir()),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--json" => parsed.json = Some(PathBuf::from(value()?)),
            "--bless" => parsed.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if parsed.workload != "all" && Workload::from_name(&parsed.workload).is_none() {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    if parsed.bless && parsed.trace.is_some() {
        return Err("--bless records an untraced run; drop --trace".to_string());
    }
    Ok(parsed)
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(args: &Args, workload: Workload) -> Result<Report, String> {
    let plan = Plan::new(workload, args.seed);
    if args.bless && !golden::applies(&plan) {
        return Err(format!("bless {} at seed {DEFAULT_SEED}", workload.name()));
    }
    let scratch = Scratch(out_dir().join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    match &args.trace {
        Some(dir) => trace::traced(&plan, &scratch.0, args.seconds, dir),
        None => run::untraced(&plan, &scratch.0, args.seconds, args.bless),
    }
}

fn append_record(path: &Path, report: &Report) -> Result<(), String> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{}", report.record_line()))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// Run every workload, each in a child process of this program.
fn run_all(raw: &[String]) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut code = 0;
    for w in &declared().workloads {
        let mut args = raw.to_vec();
        let at = args.iter().position(|a| a == "--workload").expect("parsed") + 1;
        args[at] = w.clone();
        let status = Command::new(&exe)
            .args(&args)
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        if !status.success() {
            code = 1;
        }
    }
    Ok(code)
}

fn real_main() -> Result<i32, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        let [base, new] = &raw[1..] else {
            return Err("usage: sct-benchmark compare BASE.json NEW.json".to_string());
        };
        let (table, regressed) = compare::compare(Path::new(base), Path::new(new))?;
        print!("{table}");
        return Ok(i32::from(regressed));
    }
    let args = parse_args(&raw)?;
    let Some(workload) = Workload::from_name(&args.workload) else {
        return run_all(&raw);
    };
    let report = run_one(&args, workload)?;
    if let Some(path) = &args.json {
        append_record(path, &report)?;
    }
    print!("{}", report.render());
    Ok(if report.correct() { 0 } else { 1 })
}

fn main() {
    let code = real_main().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    });
    std::process::exit(code);
}

#[cfg(test)]
mod smoke {
    //! One short run of every workload on a three-benchmark slice.

    use super::*;
    use crate::json::Json;
    use crate::spec::MetricDecl;

    fn slice(workload: Workload) -> Plan {
        Plan {
            filter: Some("splash2".to_string()),
            limit: 40,
            ..Plan::new(workload, DEFAULT_SEED)
        }
    }

    /// Every declared metric appears exactly once, with its unit, both in
    /// the `metric` lines and in the result object on the last line.
    fn assert_prints_each_once(report: &Report, declared: &[MetricDecl]) {
        let text = report.render();
        let last = text.lines().last().expect("output");
        let result = json::parse(last).expect("last line is JSON");
        let metrics = result.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), declared.len(), "{text}");
        for decl in declared {
            let lines = text
                .lines()
                .filter(|l| l.split(' ').nth(1) == Some(decl.name.as_str()))
                .collect::<Vec<_>>();
            assert_eq!(lines.len(), 1, "{} in {text}", decl.name);
            assert_eq!(lines[0].split(' ').nth(3), Some(decl.unit.as_str()));
            let m = result
                .get("metrics")
                .and_then(|m| m.get(&decl.name))
                .unwrap();
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(decl.unit.as_str())
            );
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
    }

    #[test]
    fn every_workload_prints_its_metrics_and_its_replica_matches() {
        let d = declared();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, d.workloads, "the workloads BENCHMARK.json declares");
        for w in Workload::ALL {
            let plan = slice(w);
            let scratch =
                Scratch(out_dir().join(format!("smoke-{}-{}", w.name(), std::process::id())));
            std::fs::create_dir_all(&scratch.0).unwrap();
            let report = run::untraced(&plan, &scratch.0, 0.0, false).unwrap();
            assert!(report.correct(), "{}", report.render());
            assert!(
                report.attempted >= 2 * 3,
                "two passes over three benchmarks"
            );
            assert_prints_each_once(&report, &d.end_to_end);

            let spans = scratch.0.join("spans");
            let traced = trace::traced(&plan, &scratch.0, 0.0, &spans).unwrap();
            assert!(traced.correct(), "replica must match: {}", traced.render());
            assert_prints_each_once(&traced, &d.per_layer);
            let file =
                std::fs::read_to_string(spans.join(format!("{}.spans.jsonl", w.name()))).unwrap();
            for line in file.lines() {
                let span = json::parse(line).unwrap();
                for field in [
                    "id",
                    "parent",
                    "layer",
                    "benchmark",
                    "technique",
                    "start_ns",
                    "end_ns",
                    "calls",
                ] {
                    assert!(span.get(field).is_some(), "{field} in {line}");
                }
            }
            assert!(file.lines().any(|l| l.contains("\"layer\":\"runtime\"")));
        }
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let ok = parse(&[
            "--workload",
            "bounded",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace.is_none()), (7, 3.0, true));
        assert_eq!(
            parse(&["--workload", "study", "--trace", "1"])
                .unwrap()
                .trace,
            Some(out_dir())
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "study", "--seconds", "-1"]).is_err());
        assert!(parse(&["--workload", "study", "--bless", "--trace", "1"]).is_err());
    }
}
