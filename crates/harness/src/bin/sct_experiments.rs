//! `sct-experiments` — run the full study (race detection + IPB/IDB/DFS/Rand/
//! MapleAlg on every SCTBench benchmark) and write the tables, figure data
//! and the EXPERIMENTS report to an output directory.
//!
//! ```text
//! sct-experiments [common flags] [--out DIR]
//! ```
//!
//! The common flags are shared with `sct-table` (see `sct_harness::cli`):
//! `--por` runs the systematic techniques (DFS, IPB, IDB) with sleep-set
//! partial-order reduction; `--schedule-cache` makes iterative bounding
//! serve the interior already covered at lower bound levels from a
//! decision-prefix memo; `--steal-workers N` splits each systematic search's
//! own frontier across N work-stealing threads (statistics stay
//! bit-identical); `--workers N` runs N (benchmark, technique) units at once
//! from one flat pool (in campaign mode a benchmark's units form one serial
//! chain);
//! `--corpus-dir DIR` persists each benchmark's schedule trie and minimized
//! bug prefixes as durable artifacts ("campaign mode"), and `--resume` seeds
//! the run from those artifacts so a killed study picks up where it left off
//! (see `sct-table replay` for reproducing the recorded bugs);
//! `--checkpoint-every DUR` sets the campaign's mid-run trie autosave
//! cadence (default 30s), bounding what a SIGKILL can lose.
//! `--time-budget DUR` caps each technique's wall clock and
//! `--benchmark-deadline DUR` caps each benchmark's, counted from the start
//! of its first unit: units of one benchmark may overlap, and each gets the
//! time left when it starts. A unit that runs out
//! stops at a schedule boundary and reports its partial counts with the
//! `deadline_exceeded` CSV column set (durations accept `ms`/`s`/`m`/`h`
//! suffixes; a bare number means seconds).
//! `--static-phase` replaces the dynamic race-detection runs with the
//! `sct-analysis` static race candidates (a sound over-approximation),
//! promoting those locations to visible operations instead.
//! `--trace PATH` streams every telemetry event (technique and bound-level
//! progress, steal donations/thefts, cache summaries, corpus activity, bug
//! discoveries) as line-delimited JSON to PATH, and `--quiet` suppresses the
//! once-a-second stderr heartbeat; stdout carries only the rendered tables
//! either way.
//!
//! The paper's configuration is `--schedules 10000 --race-runs 10`; the
//! default here is a laptop-friendly 2,000 schedules.

use sct_harness::{
    cli, experiments_markdown, fig2a, fig2b, figures, perf_json, pipeline::HarnessConfig,
    run_study, table1, table2, table3, table3_csv,
};
use std::path::PathBuf;

struct Args {
    config: HarnessConfig,
    filter: Option<String>,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut config = HarnessConfig {
        schedule_limit: 2_000,
        ..Default::default()
    };
    let mut filter = None;
    let mut out = PathBuf::from("experiments-out");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if cli::parse_common_flag(&mut config, &mut filter, &arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--out" => {
                out = PathBuf::from(
                    args.next()
                        .ok_or_else(|| "missing value for --out".to_string())?,
                );
            }
            "--help" | "-h" => {
                println!("usage: sct-experiments {} [--out DIR]", cli::COMMON_USAGE);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    cli::check_flags(&config)?;
    Ok(Args {
        config,
        filter,
        out,
    })
}

fn main() {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    args.config.telemetry = match cli::build_telemetry(&args.config) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    eprintln!(
        "running the study: schedule limit {}, race runs {}, seed {}, filter {:?}, {} workers{}{}{}{}{}",
        args.config.schedule_limit,
        args.config.race_runs,
        args.config.seed,
        args.filter,
        args.config.workers,
        if args.config.static_phase {
            ", static race phase"
        } else {
            ""
        },
        if args.config.por {
            ", sleep-set POR"
        } else {
            ""
        },
        if args.config.cache {
            ", schedule cache"
        } else {
            ""
        },
        if args.config.steal_workers > 1 {
            format!(", {} steal workers", args.config.steal_workers)
        } else {
            String::new()
        },
        match &args.config.corpus_dir {
            Some(dir) if args.config.resume =>
                format!(", resuming from corpus {}", dir.display()),
            Some(dir) => format!(", corpus {}", dir.display()),
            None => String::new(),
        }
    );
    let started = std::time::Instant::now();
    let results = match run_study(&args.config, args.filter.as_deref()) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "finished {} benchmarks in {:.1?}",
        results.benchmarks.len(),
        started.elapsed()
    );

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create output directory {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let write = |name: &str, contents: String| {
        let path = args.out.join(name);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("wrote {}", path.display());
    };

    write("table1.txt", table1());
    write("table2.txt", table2(&results));
    write("table3.txt", table3(&results));
    write("table3.csv", table3_csv(&results));
    write(
        "fig2a.txt",
        figures::venn_to_string(
            "Figure 2a (systematic techniques)",
            ["IPB", "IDB", "DFS"],
            &fig2a(&results),
        ),
    );
    write(
        "fig2b.txt",
        figures::venn_to_string(
            "Figure 2b (IDB vs others)",
            ["IDB", "Rand", "MapleAlg"],
            &fig2b(&results),
        ),
    );
    write("fig3.csv", figures::scatter_fig3(&results));
    write("fig4.csv", figures::scatter_fig4(&results));
    write("perf.json", perf_json(&results));
    write("EXPERIMENTS.md", experiments_markdown(&results));

    // Console summary.
    println!("{}", table2(&results));
    println!(
        "{}",
        figures::venn_to_string(
            "Figure 2a (systematic techniques)",
            ["IPB", "IDB", "DFS"],
            &fig2a(&results)
        )
    );
    println!(
        "{}",
        figures::venn_to_string(
            "Figure 2b (IDB vs others)",
            ["IDB", "Rand", "MapleAlg"],
            &fig2b(&results)
        )
    );
}
