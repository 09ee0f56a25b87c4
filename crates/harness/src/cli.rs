//! Shared command-line parsing for the harness binaries.
//!
//! `sct-experiments` and `sct-table` accept the same study-configuration
//! flags; this module parses them in one place so a new flag (such as
//! `--steal-workers`) shows up in both binaries — and both usage strings —
//! without hand-duplicated match arms that can drift apart.

use crate::pipeline::HarnessConfig;
use sct_core::telemetry::{Heartbeat, JsonlRecorder, Recorder, Telemetry};
use std::path::PathBuf;
use std::time::Duration;

/// Usage fragment for the shared study flags, in match order. The binaries
/// splice this into their usage strings so the flag lists cannot go stale.
pub const COMMON_USAGE: &str = "[--schedules N] [--race-runs N] [--seed N] [--filter SUBSTR] \
[--no-race-phase] [--static-phase] [--with-pct] [--por] [--schedule-cache] [--workers N] \
[--steal-workers N] [--corpus-dir DIR] [--resume] [--time-budget DUR] \
[--benchmark-deadline DUR] [--checkpoint-every DUR] [--trace PATH] [--quiet]";

fn value(rest: &mut dyn Iterator<Item = String>, name: &str) -> Result<String, String> {
    rest.next()
        .ok_or_else(|| format!("missing value for {name}"))
}

fn parsed<T>(rest: &mut dyn Iterator<Item = String>, name: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value(rest, name)?
        .parse()
        .map_err(|e| format!("{name}: {e}"))
}

/// Like [`parsed`], but rejects zero: a `--schedules 0` or `--race-runs 0`
/// study would run nothing while exiting cleanly, which is indistinguishable
/// from a healthy all-pass run in CI logs.
fn positive<T>(rest: &mut dyn Iterator<Item = String>, name: &str) -> Result<T, String>
where
    T: std::str::FromStr + Default + PartialEq,
    T::Err: std::fmt::Display,
{
    let parsed: T = parsed(rest, name)?;
    if parsed == T::default() {
        return Err(format!(
            "{name} must be at least 1 (0 would run an empty study that looks clean)"
        ));
    }
    Ok(parsed)
}

/// Parse a wall-clock duration flag value: a positive integer with an
/// optional `ms`/`s`/`m`/`h` suffix (a bare number means seconds). Zero is
/// rejected for the same reason [`positive`] rejects it: a zero budget
/// deadlines every technique before its first schedule, so the "study" exits
/// cleanly having explored nothing.
fn duration(rest: &mut dyn Iterator<Item = String>, name: &str) -> Result<Duration, String> {
    let text = value(rest, name)?;
    let (digits, scale_millis) = if let Some(n) = text.strip_suffix("ms") {
        (n, 1u64)
    } else if let Some(n) = text.strip_suffix('s') {
        (n, 1_000)
    } else if let Some(n) = text.strip_suffix('m') {
        (n, 60_000)
    } else if let Some(n) = text.strip_suffix('h') {
        (n, 3_600_000)
    } else {
        (text.as_str(), 1_000)
    };
    let count: u64 = digits
        .parse()
        .map_err(|_| format!("{name}: {text:?} is not a duration (try 500ms, 30s, 10m, 2h)"))?;
    if count == 0 {
        return Err(format!(
            "{name} must be a positive duration (0 would deadline every technique before schedule 1)"
        ));
    }
    Ok(Duration::from_millis(count.saturating_mul(scale_millis)))
}

/// Try to consume `arg` (and its value, if it takes one, from `rest`) as one
/// of the shared study flags, updating `config` / `filter` in place. Returns
/// `Ok(true)` when the flag was recognised, `Ok(false)` when the caller
/// should handle it as a binary-specific argument, and `Err` for a missing
/// or malformed value. Repeating a flag is allowed and the last occurrence
/// wins (each match arm overwrites the field).
pub fn parse_common_flag(
    config: &mut HarnessConfig,
    filter: &mut Option<String>,
    arg: &str,
    rest: &mut dyn Iterator<Item = String>,
) -> Result<bool, String> {
    match arg {
        "--schedules" => config.schedule_limit = positive(rest, "--schedules")?,
        "--race-runs" => config.race_runs = positive(rest, "--race-runs")?,
        "--seed" => config.seed = parsed(rest, "--seed")?,
        "--filter" => *filter = Some(value(rest, "--filter")?),
        "--no-race-phase" => config.use_race_phase = false,
        "--static-phase" => config.static_phase = true,
        "--with-pct" => config.include_pct = true,
        "--por" => config.por = true,
        "--schedule-cache" => config.cache = true,
        "--workers" => config.workers = parsed::<usize>(rest, "--workers")?.max(1),
        "--steal-workers" => {
            config.steal_workers = parsed::<usize>(rest, "--steal-workers")?.max(1);
        }
        "--corpus-dir" => config.corpus_dir = Some(PathBuf::from(value(rest, "--corpus-dir")?)),
        "--resume" => config.resume = true,
        "--time-budget" => config.time_budget = Some(duration(rest, "--time-budget")?),
        "--benchmark-deadline" => {
            config.benchmark_deadline = Some(duration(rest, "--benchmark-deadline")?);
        }
        "--checkpoint-every" => {
            config.checkpoint_every = Some(duration(rest, "--checkpoint-every")?);
        }
        // Only the path is recorded here; the trace file is opened once, by
        // `build_telemetry`, after parsing finishes — so a repeated `--trace`
        // follows last-wins like every other flag instead of creating (and
        // leaking) a file per occurrence.
        "--trace" => config.trace = Some(PathBuf::from(value(rest, "--trace")?)),
        "--quiet" => config.quiet = true,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Reject flag combinations that no single flag's parser can see; both
/// binaries call this once parsing is done. `--resume` without
/// `--corpus-dir` has nothing to resume from: it would run a cold one-shot
/// study that looks like a resumed one.
pub fn check_flags(config: &HarnessConfig) -> Result<(), String> {
    if config.resume && config.corpus_dir.is_none() {
        return Err("--resume requires --corpus-dir".to_string());
    }
    Ok(())
}

/// Build the telemetry handle a parsed [`HarnessConfig`] asks for: a JSONL
/// recorder writing to `--trace`'s path (the file is created here, truncating
/// any previous run) and — unless `--quiet` — a stderr progress heartbeat
/// printing at most once a second. With neither, the handle is
/// [`Telemetry::off`] and every emission in the pipeline is free. The result
/// should be stored into [`HarnessConfig::telemetry`] before the study runs.
pub fn build_telemetry(config: &HarnessConfig) -> Result<Telemetry, String> {
    let mut recorders: Vec<Box<dyn Recorder>> = Vec::new();
    if let Some(path) = &config.trace {
        let jsonl =
            JsonlRecorder::create(path).map_err(|e| format!("--trace {}: {e}", path.display()))?;
        recorders.push(Box::new(jsonl));
    }
    // The heartbeat is on by default — it is the liveness signal for long
    // studies — and `--quiet` removes it. `Telemetry::new` of an empty
    // recorder list collapses to the off handle, so `--quiet` without
    // `--trace` pays nothing.
    if !config.quiet {
        recorders.push(Box::new(Heartbeat::new(Duration::from_secs(1))));
    }
    Ok(Telemetry::new(recorders))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn parse(args: &[&str]) -> Result<(HarnessConfig, Option<String>), String> {
        let mut config = HarnessConfig::default();
        let mut filter = None;
        let mut rest = args.iter().map(|s| s.to_string());
        while let Some(arg) = rest.next() {
            if !parse_common_flag(&mut config, &mut filter, &arg, &mut rest)? {
                return Err(format!("unknown argument: {arg}"));
            }
        }
        Ok((config, filter))
    }

    #[test]
    fn every_shared_flag_is_parsed() {
        let (config, filter) = parse(&[
            "--schedules",
            "123",
            "--race-runs",
            "4",
            "--seed",
            "99",
            "--filter",
            "splash",
            "--no-race-phase",
            "--static-phase",
            "--with-pct",
            "--por",
            "--schedule-cache",
            "--workers",
            "3",
            "--steal-workers",
            "8",
            "--corpus-dir",
            "corpus",
            "--resume",
            "--time-budget",
            "5s",
            "--benchmark-deadline",
            "2m",
            "--checkpoint-every",
            "500ms",
            "--trace",
            "events.jsonl",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(config.schedule_limit, 123);
        assert_eq!(config.race_runs, 4);
        assert_eq!(config.seed, 99);
        assert_eq!(filter.as_deref(), Some("splash"));
        assert!(!config.use_race_phase);
        assert!(config.static_phase);
        assert!(config.include_pct);
        assert!(config.por);
        assert!(config.cache);
        assert_eq!(config.workers, 3);
        assert_eq!(config.steal_workers, 8);
        assert_eq!(config.corpus_dir.as_deref(), Some(Path::new("corpus")));
        assert!(config.resume);
        assert_eq!(config.time_budget, Some(Duration::from_secs(5)));
        assert_eq!(config.benchmark_deadline, Some(Duration::from_secs(120)));
        assert_eq!(config.checkpoint_every, Some(Duration::from_millis(500)));
        assert_eq!(config.trace.as_deref(), Some(Path::new("events.jsonl")));
        assert!(config.quiet);
    }

    #[test]
    fn durations_accept_unit_suffixes_and_default_to_seconds() {
        let (config, _) = parse(&["--time-budget", "90"]).unwrap();
        assert_eq!(config.time_budget, Some(Duration::from_secs(90)));
        let (config, _) = parse(&["--time-budget", "250ms"]).unwrap();
        assert_eq!(config.time_budget, Some(Duration::from_millis(250)));
        let (config, _) = parse(&["--benchmark-deadline", "3h"]).unwrap();
        assert_eq!(
            config.benchmark_deadline,
            Some(Duration::from_secs(3 * 3600))
        );
    }

    #[test]
    fn zero_and_malformed_durations_are_rejected() {
        for flag in [
            "--time-budget",
            "--benchmark-deadline",
            "--checkpoint-every",
        ] {
            let err = parse(&[flag, "0"]).unwrap_err();
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("positive duration"), "{err}");
            let err = parse(&[flag, "0s"]).unwrap_err();
            assert!(err.contains("positive duration"), "{err}");
            let err = parse(&[flag, "fast"]).unwrap_err();
            assert!(err.contains("not a duration"), "{err}");
            let err = parse(&[flag, "1.5s"]).unwrap_err();
            assert!(err.contains("not a duration"), "{err}");
            assert!(parse(&[flag]).unwrap_err().contains("missing"), "{flag}");
        }
    }

    #[test]
    fn duplicated_duration_flags_are_last_wins() {
        let (config, _) = parse(&[
            "--time-budget",
            "5s",
            "--benchmark-deadline",
            "10s",
            "--time-budget",
            "7s",
            "--benchmark-deadline",
            "20s",
        ])
        .unwrap();
        assert_eq!(config.time_budget, Some(Duration::from_secs(7)));
        assert_eq!(config.benchmark_deadline, Some(Duration::from_secs(20)));
    }

    #[test]
    fn zero_schedule_and_race_run_budgets_are_rejected() {
        let err = parse(&["--schedules", "0"]).unwrap_err();
        assert!(err.contains("--schedules"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["--race-runs", "0"]).unwrap_err();
        assert!(err.contains("--race-runs"), "{err}");
    }

    #[test]
    fn duplicated_flags_are_last_wins() {
        let (config, filter) = parse(&[
            "--schedules",
            "5",
            "--filter",
            "first",
            "--schedules",
            "9",
            "--filter",
            "second",
            "--corpus-dir",
            "a",
            "--corpus-dir",
            "b",
        ])
        .unwrap();
        assert_eq!(config.schedule_limit, 9);
        assert_eq!(filter.as_deref(), Some("second"));
        assert_eq!(config.corpus_dir.as_deref(), Some(Path::new("b")));
    }

    #[test]
    fn duplicated_trace_and_quiet_flags_are_last_wins() {
        // `--trace` only records the path at parse time (the file is opened
        // later, by `build_telemetry`), so repeating it must follow the same
        // last-wins convention as every other flag — no file is created for
        // the overridden occurrence. `--quiet` is idempotent.
        let (config, _) = parse(&[
            "--trace",
            "first.jsonl",
            "--quiet",
            "--trace",
            "second.jsonl",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(config.trace.as_deref(), Some(Path::new("second.jsonl")));
        assert!(config.quiet);
        assert!(
            !Path::new("first.jsonl").exists() && !Path::new("second.jsonl").exists(),
            "parsing alone must not open trace files"
        );
    }

    #[test]
    fn resume_without_a_corpus_dir_is_rejected() {
        let (config, _) = parse(&["--resume"]).unwrap();
        assert_eq!(
            check_flags(&config),
            Err("--resume requires --corpus-dir".to_string())
        );
        let (config, _) = parse(&["--resume", "--corpus-dir", "corpus"]).unwrap();
        assert_eq!(check_flags(&config), Ok(()));
        let (config, _) = parse(&["--corpus-dir", "corpus"]).unwrap();
        assert_eq!(check_flags(&config), Ok(()));
    }

    #[test]
    fn build_telemetry_is_off_for_quiet_untraced_runs() {
        let mut config = HarnessConfig {
            quiet: true,
            ..HarnessConfig::default()
        };
        assert!(!build_telemetry(&config).unwrap().is_on());
        // Default (not quiet, no trace): the heartbeat alone keeps it on.
        config.quiet = false;
        assert!(build_telemetry(&config).unwrap().is_on());
    }

    #[test]
    fn build_telemetry_reports_unwritable_trace_paths() {
        let config = HarnessConfig {
            trace: Some(PathBuf::from("/nonexistent-dir/trace.jsonl")),
            ..HarnessConfig::default()
        };
        let err = build_telemetry(&config).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
    }

    #[test]
    fn worker_counts_are_clamped_to_at_least_one() {
        let (config, _) = parse(&["--workers", "0", "--steal-workers", "0"]).unwrap();
        assert_eq!(config.workers, 1);
        assert_eq!(config.steal_workers, 1);
    }

    #[test]
    fn unknown_flags_are_left_to_the_caller() {
        assert!(parse(&["--out", "dir"]).is_err());
        let mut config = HarnessConfig::default();
        let mut filter = None;
        let mut rest = std::iter::empty();
        assert_eq!(
            parse_common_flag(&mut config, &mut filter, "--out", &mut rest),
            Ok(false)
        );
    }

    #[test]
    fn missing_and_malformed_values_are_reported() {
        assert!(parse(&["--schedules"]).unwrap_err().contains("missing"));
        assert!(parse(&["--seed", "not-a-number"])
            .unwrap_err()
            .contains("--seed"));
    }

    #[test]
    fn usage_string_names_every_shared_flag() {
        for flag in [
            "--schedules",
            "--race-runs",
            "--seed",
            "--filter",
            "--no-race-phase",
            "--static-phase",
            "--with-pct",
            "--por",
            "--schedule-cache",
            "--workers",
            "--steal-workers",
            "--corpus-dir",
            "--resume",
            "--time-budget",
            "--benchmark-deadline",
            "--checkpoint-every",
            "--trace",
            "--quiet",
        ] {
            assert!(COMMON_USAGE.contains(flag), "{flag} missing from usage");
        }
    }
}
