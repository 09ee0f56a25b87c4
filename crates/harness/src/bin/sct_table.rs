//! `sct-table` — regenerate a single table or figure of the paper, print the
//! static-analysis lint catalogue, or replay a recorded bug corpus.
//!
//! ```text
//! sct-table <table1|table2|table3|fig2a|fig2b|fig3|fig4|lint|replay|validate-trace> [common flags]
//! ```
//!
//! The common flags are shared with `sct-experiments` (see
//! `sct_harness::cli`), so options like `--por`, `--schedule-cache`,
//! `--steal-workers` and the fault-tolerance flags (`--time-budget`,
//! `--benchmark-deadline`, `--checkpoint-every`) behave identically in both
//! binaries. `table1` is pure metadata and runs instantly; everything else
//! runs the experiment pipeline (over the filtered subset, if `--filter` is
//! given) before rendering.
//!
//! `lint` runs `sct-analysis` over the (filtered) registry without executing
//! anything and prints each benchmark's report: static race candidates,
//! lock-order cycles, lints and blocking sites.
//!
//! `replay` takes `--corpus-dir DIR` and re-runs every bug prefix recorded
//! there ("campaign mode" artifacts, see `sct_core::corpus`): each prefix
//! must reproduce its recorded bug in exactly one program execution, and the
//! exit status is non-zero if any does not. Per-record verdicts go to stdout
//! (they are the machine-checkable output); the closing summary goes to
//! stderr with the other status lines.
//!
//! `validate-trace` takes `--trace PATH` and checks every line of a JSONL
//! event trace (as written by `--trace` on either binary) against the event
//! schema, printing the first offending line and exiting non-zero on any
//! mismatch — a self-contained schema check with no external JSON tooling.

use sct_core::corpus::{replay_prefix, Corpus, CorpusError};
use sct_core::telemetry::{validate_trace_line, Event, Telemetry};
use sct_harness::{
    cli, fig2a, fig2b, figures, pipeline::HarnessConfig, run_study, table1, table2, table3,
};
use sctbench::{all_benchmarks, benchmark_by_name};
use std::path::Path;

/// Every subcommand, in usage order.
const SUBCOMMANDS: [&str; 10] = [
    "table1",
    "table2",
    "table3",
    "fig2a",
    "fig2b",
    "fig3",
    "fig4",
    "lint",
    "replay",
    "validate-trace",
];

fn usage() -> String {
    format!(
        "usage: sct-table <{}> {}",
        SUBCOMMANDS.join("|"),
        cli::COMMON_USAGE
    )
}

/// Validate a JSONL event trace against the schema: every line must be a
/// well-formed event object of a known type with exactly the declared
/// fields. Returns the number of validated events, or the first offence.
fn validate_trace(path: &Path) -> Result<usize, String> {
    let contents = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut events = 0usize;
    for (i, line) in contents.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_trace_line(line).map_err(|e| format!("line {}: {e}: {line}", i + 1))?;
        events += 1;
    }
    Ok(events)
}

/// Print the static-analysis report for every benchmark matching the filter.
fn lint(filter: Option<&str>) {
    for spec in all_benchmarks() {
        if let Some(f) = filter {
            if !spec.name.to_lowercase().contains(&f.to_lowercase()) {
                continue;
            }
        }
        let program = spec.program();
        print!("{}", sct_analysis::analyze(&program).render(&program));
    }
}

/// Replay every recorded bug prefix in the corpus directory, each in exactly
/// one execution. Returns whether all of them reproduced their bug.
///
/// Per-record verdict lines stay on stdout — they are what callers (and CI)
/// parse — while the human-facing summary joins the other status lines on
/// stderr.
fn replay_corpus(dir: &Path, telemetry: &Telemetry) -> Result<bool, CorpusError> {
    let corpus = Corpus::open(dir)?;
    let corpora = corpus.bug_corpora()?;
    let mut all_reproduced = true;
    let mut total = 0usize;
    for bugs in &corpora {
        let Some(spec) = benchmark_by_name(&bugs.benchmark) else {
            eprintln!("{}: corpus names an unknown benchmark", bugs.benchmark);
            all_reproduced = false;
            continue;
        };
        let program = spec.program();
        for record in &bugs.records {
            total += 1;
            let outcome = replay_prefix(&program, &bugs.config, &record.prefix);
            let reproduced = outcome.bug.as_ref() == Some(&record.bug);
            telemetry.emit(|| Event::CorpusReplay {
                benchmark: bugs.benchmark.clone(),
                bug: record.bug.to_string(),
                decisions: record.prefix.len() as u64,
                reproduced,
            });
            println!(
                "{}: {:?} ({} decisions): {}",
                bugs.benchmark,
                record.bug,
                record.prefix.len(),
                if reproduced {
                    "reproduced in 1 execution"
                } else {
                    "NOT reproduced"
                }
            );
            all_reproduced &= reproduced;
        }
    }
    eprintln!(
        "replayed {total} bug prefix(es) from {} corpus file(s)",
        corpora.len()
    );
    Ok(all_reproduced)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(what) = args.next() else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    if what == "--help" || what == "-h" {
        println!("{}", usage());
        return;
    }
    // Checked before anything runs: a typo must not cost a whole study.
    if !SUBCOMMANDS.contains(&what.as_str()) {
        eprintln!("unknown table/figure: {what}\n{}", usage());
        std::process::exit(2);
    }

    let mut config = HarnessConfig {
        schedule_limit: 1_000,
        ..Default::default()
    };
    let mut filter: Option<String> = None;
    while let Some(arg) = args.next() {
        match cli::parse_common_flag(&mut config, &mut filter, &arg, &mut args) {
            Ok(true) => {}
            Ok(false) => {
                if arg == "--help" || arg == "-h" {
                    println!("{}", usage());
                    return;
                }
                eprintln!("unknown argument: {arg}");
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = cli::check_flags(&config) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }

    // `validate-trace` treats `--trace` as an *input* path, so it must run
    // before `build_telemetry` — which would truncate that very file to open
    // it as a sink.
    if what == "validate-trace" {
        let Some(path) = config.trace.as_deref() else {
            eprintln!("validate-trace requires --trace PATH");
            std::process::exit(2);
        };
        match validate_trace(path) {
            Ok(events) => {
                eprintln!("{}: {events} valid event(s)", path.display());
                return;
            }
            Err(e) => {
                eprintln!("invalid trace: {e}");
                std::process::exit(1);
            }
        }
    }

    config.telemetry = match cli::build_telemetry(&config) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if what == "table1" {
        print!("{}", table1());
        return;
    }

    if what == "lint" {
        lint(filter.as_deref());
        return;
    }

    if what == "replay" {
        let Some(dir) = config.corpus_dir.as_deref() else {
            eprintln!("replay requires --corpus-dir DIR");
            std::process::exit(2);
        };
        match replay_corpus(dir, &config.telemetry) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }

    eprintln!(
        "running the pipeline (schedule limit {}, filter {:?})...",
        config.schedule_limit, filter
    );
    let results = match run_study(&config, filter.as_deref()) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    match what.as_str() {
        "table2" => print!("{}", table2(&results)),
        "table3" => print!("{}", table3(&results)),
        "fig2a" => print!(
            "{}",
            figures::venn_to_string(
                "Figure 2a (systematic techniques)",
                ["IPB", "IDB", "DFS"],
                &fig2a(&results)
            )
        ),
        "fig2b" => print!(
            "{}",
            figures::venn_to_string(
                "Figure 2b (IDB vs others)",
                ["IDB", "Rand", "MapleAlg"],
                &fig2b(&results)
            )
        ),
        "fig3" => print!("{}", figures::scatter_fig3(&results)),
        "fig4" => print!("{}", figures::scatter_fig4(&results)),
        other => unreachable!("subcommand {other} is checked before the study runs"),
    }
}
