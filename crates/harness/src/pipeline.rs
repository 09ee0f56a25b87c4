//! The per-benchmark experiment pipeline and the whole-study driver.

use sct_core::corpus::{corpus_key, harvest_bugs, BugCorpus, Corpus, CorpusError};
use sct_core::stats::ExplorationStats;
use sct_core::telemetry::{Event, Telemetry};
use sct_core::{default_workers, explore, map_indexed, ExploreLimits, SharedCache, Technique};
use sct_ir::Program;
use sct_race::{race_detection_phase, RacePhaseConfig};
use sct_runtime::ExecConfig;
use sctbench::{all_benchmarks, BenchmarkSpec};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Configuration of a study run.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Terminal-schedule limit per technique per benchmark (10,000 in the paper).
    pub schedule_limit: u64,
    /// Number of race-detection runs per benchmark (10 in the paper).
    pub race_runs: usize,
    /// Seed for every randomised component.
    pub seed: u64,
    /// Whether to run the race-detection phase and promote racy locations to
    /// visible operations (as in the paper), or to treat *every* shared
    /// access as visible (an ablation).
    pub use_race_phase: bool,
    /// Replace the dynamic race-detection phase with the static analyzer:
    /// skip the uncontrolled race runs entirely and promote the locations of
    /// `sct-analysis`'s race candidates (a sound over-approximation of the
    /// dynamic racy-location set) to visible operations. Takes precedence
    /// over [`HarnessConfig::use_race_phase`]; `--static-phase` on both
    /// binaries sets it.
    pub static_phase: bool,
    /// Include PCT as an additional (non-paper) technique.
    pub include_pct: bool,
    /// Number of (benchmark, technique) units run at once, in one flat pool
    /// (1 = fully serial). Each unit still runs its schedulers with their
    /// serial seeds, so the collected statistics are identical to a serial
    /// run at any worker count. In campaign mode a benchmark's units form one
    /// chain, a single pool item that grows its shared trie in technique
    /// order.
    pub workers: usize,
    /// Enable sleep-set partial-order reduction in the systematic searches
    /// (DFS, IPB, IDB). Off by default because the paper's study ran without
    /// reduction; `sct-experiments --por` switches it on.
    pub por: bool,
    /// Enable the schedule cache in iterative bounding (IPB, IDB): each
    /// bound level serves the interior already covered at lower levels from
    /// a decision-prefix memo instead of re-executing it. The study output
    /// is identical either way (only the `executions` / `cache_hits` /
    /// `cache_bytes` CSV columns change); `sct-experiments
    /// --schedule-cache` switches it on.
    pub cache: bool,
    /// Worker threads for the work-stealing frontier *within* each
    /// systematic search / bound level (see `sct_core::steal`). `1` (the
    /// default) keeps every search serial; higher counts split a single
    /// DFS or bound level across cores with bit-identical statistics.
    /// `--steal-workers` on both binaries sets it.
    pub steal_workers: usize,
    /// Campaign mode: directory the per-benchmark schedule-trie and
    /// bug-corpus artifacts are written to (see `sct_core::corpus`). `None`
    /// (the default) keeps the study one-shot. With a directory set, the
    /// systematic techniques (IPB, IDB, DFS) of each benchmark share one
    /// trie, bugs are saved as minimized replayable prefixes, and the trie
    /// is persisted when the benchmark completes.
    pub corpus_dir: Option<PathBuf>,
    /// Seed the shared trie from the saved artifact in `corpus_dir` instead
    /// of starting empty, so a killed or truncated study picks up where it
    /// left off (schedules the corpus already covers are served, not
    /// re-executed). Requires `corpus_dir`; a saved artifact recorded under
    /// a different exploration configuration is a hard error, never a
    /// silent cold start.
    pub resume: bool,
    /// Path the structured JSONL event trace is written to (`--trace`).
    /// `None` (the default) disables tracing. The path itself is only
    /// consumed by [`crate::cli::build_telemetry`]; the pipeline emits
    /// through [`HarnessConfig::telemetry`].
    pub trace: Option<PathBuf>,
    /// Suppress the rate-limited stderr progress heartbeat (`--quiet`).
    /// Like [`HarnessConfig::trace`], this only steers
    /// [`crate::cli::build_telemetry`].
    pub quiet: bool,
    /// Per-technique wall-clock budget (`--time-budget`). Checked
    /// cooperatively at schedule boundaries, so a technique that runs out
    /// stops between schedules with partial results and its row marked
    /// `deadline_exceeded`. `None` (the default) leaves techniques unbounded
    /// in time. The flag is excluded from stats equality, so a run where no
    /// deadline fires is bit-identical to an unbudgeted run.
    pub time_budget: Option<Duration>,
    /// Per-benchmark wall-clock deadline (`--benchmark-deadline`), counted
    /// from the moment the benchmark's first unit starts. Units may overlap;
    /// each one starts with the time left until the deadline when it starts
    /// as its budget (combined with [`HarnessConfig::time_budget`] by taking
    /// the minimum), so an over-deadline benchmark still reports a row for
    /// every technique — late rows are marked `deadline_exceeded` with
    /// whatever partial work they finished.
    pub benchmark_deadline: Option<Duration>,
    /// Campaign checkpoint cadence (`--checkpoint-every`): with
    /// [`HarnessConfig::corpus_dir`] set, a background thread autosaves the
    /// benchmark's shared trie this often — and once at teardown — so a
    /// SIGKILLed study resumes from the last checkpoint rather than from the
    /// previous completed benchmark. `None` disables mid-run checkpoints;
    /// the final save when the benchmark completes always happens.
    pub checkpoint_every: Option<Duration>,
    /// The telemetry handle every pipeline stage emits events through.
    /// `Telemetry::off()` (the default) makes each emission a no-op whose
    /// event is never even constructed, so an untraced study pays nothing.
    /// Events are observations only: nothing in the pipeline reads them
    /// back, so the study's statistics are bit-identical with tracing on
    /// or off.
    pub telemetry: Telemetry,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            schedule_limit: 10_000,
            race_runs: 10,
            seed: 0x5c7_bec4,
            use_race_phase: true,
            static_phase: false,
            include_pct: false,
            workers: default_workers(),
            por: false,
            cache: false,
            steal_workers: 1,
            corpus_dir: None,
            resume: false,
            trace: None,
            quiet: false,
            time_budget: None,
            benchmark_deadline: None,
            checkpoint_every: Some(Duration::from_secs(30)),
            telemetry: Telemetry::off(),
        }
    }
}

/// Background autosave of a campaign benchmark's shared trie: saves every
/// `every` and once more when `stop` disconnects, so each campaign benchmark
/// checkpoints at least once and a kill at any point loses at most `every`
/// of exploration.
fn checkpoint(
    corpus: &Corpus,
    benchmark: &str,
    key: u64,
    shared: &SharedCache,
    telemetry: &Telemetry,
    every: Duration,
    stop: mpsc::Receiver<()>,
) {
    loop {
        let stopped = stop.recv_timeout(every) != Err(RecvTimeoutError::Timeout);
        // Save even on the stop signal (it is the same bytes the final save
        // is about to publish, one rename apart). A failing checkpoint is
        // best-effort by design: the retry loop inside `save_cache` already
        // absorbed transient errors, and a persistent one will surface from
        // the benchmark's final save.
        let (saved, bytes, schedules) = shared.with_live(|cache| {
            (
                corpus.save_cache(benchmark, key, cache),
                cache.bytes(),
                cache.insertions(),
            )
        });
        if saved.is_ok() {
            telemetry.emit(|| Event::CheckpointSaved {
                benchmark: benchmark.to_string(),
                bytes,
                schedules,
            });
        }
        if stopped {
            return;
        }
    }
}

/// The wall-clock budget of a unit starting `elapsed` into its benchmark
/// (see [`HarnessConfig::benchmark_deadline`]).
fn effective_budget(config: &HarnessConfig, elapsed: Duration) -> Option<Duration> {
    let remaining = config.benchmark_deadline.map(|d| d.saturating_sub(elapsed));
    config.time_budget.into_iter().chain(remaining).min()
}

/// Human-readable form of a caught panic payload.
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(text) => (*text).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Result of running all techniques on one benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Table 3 row id.
    pub id: usize,
    /// Benchmark name.
    pub name: String,
    /// Suite name.
    pub suite: String,
    /// Number of distinct races observed in the race-detection phase
    /// (0 when [`HarnessConfig::static_phase`] replaced it).
    pub races: usize,
    /// Number of static locations promoted to visible operations.
    pub racy_locations: usize,
    /// Number of race candidates the static analyzer reports.
    pub static_candidates: usize,
    /// Number of distinct locations involved in those candidates (what
    /// `--static-phase` promotes instead of the dynamic racy locations).
    pub static_locations: usize,
    /// Statistics per technique, in the order they were run.
    pub techniques: Vec<ExplorationStats>,
    /// The paper's Table 3 numbers (for comparisons).
    pub paper: sctbench::PaperRow,
}

impl BenchmarkResult {
    /// Statistics for a technique by its label ("IPB", "IDB", "DFS", "Rand",
    /// "MapleAlg", "PCT").
    pub fn technique(&self, label: &str) -> Option<&ExplorationStats> {
        self.techniques.iter().find(|t| t.technique == label)
    }

    /// Whether the named technique found the benchmark's bug.
    pub fn found_by(&self, label: &str) -> bool {
        self.technique(label).is_some_and(|t| t.found_bug())
    }

    /// Maximum observed value of the "# threads" column across techniques.
    pub fn threads(&self) -> usize {
        self.max_of(|t| t.total_threads)
    }

    /// Maximum observed "# max enabled threads".
    pub fn max_enabled(&self) -> usize {
        self.max_of(|t| t.max_enabled_threads)
    }

    /// Maximum observed "# max scheduling points".
    pub fn max_scheduling_points(&self) -> usize {
        self.max_of(|t| t.max_scheduling_points)
    }

    fn max_of(&self, field: impl Fn(&ExplorationStats) -> usize) -> usize {
        self.techniques.iter().map(field).max().unwrap_or(0)
    }
}

/// Results for the whole study.
#[derive(Debug, Clone, Default)]
pub struct StudyResults {
    /// One entry per benchmark, in Table 3 order.
    pub benchmarks: Vec<BenchmarkResult>,
    /// The configuration the study was run with.
    pub schedule_limit: u64,
    /// Whether the systematic searches ran with sleep-set partial-order
    /// reduction.
    pub por: bool,
    /// Whether iterative bounding ran with the schedule cache.
    pub cache: bool,
    /// Number of (benchmark, technique) units the study ran at once.
    pub workers: usize,
    /// Within-technique steal worker count the study ran with.
    pub steal_workers: usize,
}

/// The techniques a study run uses, in Table 3 column order.
pub fn study_techniques(config: &HarnessConfig) -> Vec<Technique> {
    let mut ts = Technique::study_suite(config.seed);
    if config.include_pct {
        ts.push(Technique::Pct {
            depth: 3,
            seed: config.seed,
        });
    }
    ts
}

/// Stage 1's output for one benchmark: its result row without the technique
/// rows, what its units read, and the clock and countdown that bracket its
/// `benchmark_start` / `benchmark_finish` events.
struct Bench {
    result: BenchmarkResult,
    program: Program,
    exec_config: ExecConfig,
    /// Phase-1 wall clock, stamped onto every technique row.
    race_nanos: u64,
    /// Set, with `benchmark_start` emitted, by the first unit that starts;
    /// `--benchmark-deadline` counts from it.
    started: OnceLock<Instant>,
    /// Units not yet finished: the one that takes it to zero emits
    /// `benchmark_finish`.
    pending: AtomicUsize,
}

impl Bench {
    /// Stage 1: build `spec`'s program and run its race-detection phase (or
    /// the static stand-in) for `units` technique units to share.
    fn prepare(spec: &BenchmarkSpec, config: &HarnessConfig, units: usize) -> Self {
        let program = spec.program();
        // Static triage always runs: it is microseconds per benchmark and its
        // counts are study output (Table 3's static columns) either way.
        let analysis = sct_analysis::analyze(&program);
        let static_locations = analysis.candidate_locations();

        // Phase 1: data-race detection (§5 of the paper) — or its static
        // replacement. `--static-phase` skips the 10 uncontrolled runs and
        // promotes the analyzer's candidate locations instead, which are a
        // sound superset of what the dynamic phase can find.
        let phase_started = Instant::now();
        let (races, race_runs, racy) = if config.static_phase {
            (0, 0, static_locations.iter().copied().collect::<Vec<_>>())
        } else {
            let race_config = RacePhaseConfig {
                runs: config.race_runs,
                seed: config.seed,
                ..Default::default()
            };
            let report = race_detection_phase(&program, &race_config);
            let racy = report.racy_locations().into_iter().collect::<Vec<_>>();
            (report.races.len(), report.executions, racy)
        };
        // Zero under `--static-phase` would misattribute the (cheap) analyzer
        // run, so the measured value covers whichever branch ran.
        let race_nanos = phase_started.elapsed().as_nanos() as u64;
        config.telemetry.emit(|| Event::RacePhase {
            benchmark: spec.name.to_string(),
            runs: race_runs as u64,
            races: races as u64,
            racy_locations: racy.len() as u64,
            static_phase: config.static_phase,
            wall_nanos: race_nanos,
        });

        // Phase 2's techniques all share the same racy-location information
        // (as the paper stresses, so the comparison between them is fair).
        let exec_config = if config.static_phase || config.use_race_phase {
            ExecConfig::with_racy_locations(racy.iter().copied())
        } else {
            ExecConfig::all_visible()
        };
        Bench {
            result: BenchmarkResult {
                id: spec.id,
                name: spec.name.to_string(),
                suite: spec.suite.name().to_string(),
                races,
                racy_locations: racy.len(),
                static_candidates: analysis.candidates.len(),
                static_locations: static_locations.len(),
                techniques: Vec::new(),
                paper: spec.paper,
            },
            program,
            exec_config,
            race_nanos,
            started: OnceLock::new(),
            pending: AtomicUsize::new(units),
        }
    }
}

/// Stage 2 for one chain: `techniques` of `bench`, one after another. With
/// [`HarnessConfig::corpus_dir`] set, the chain is the benchmark's whole
/// technique list: its trie is loaded (on `resume`) before the first unit
/// and saved — together with its harvested, minimized bug corpus — after the
/// last, so the trie is released when its benchmark finishes. Corpus errors
/// (unreadable directory, corrupt or mismatched artifact) abort the benchmark
/// rather than silently degrading to a cold one-shot run.
fn run_chain(
    bench: &Bench,
    techniques: &[Technique],
    config: &HarnessConfig,
) -> Result<Vec<ExplorationStats>, CorpusError> {
    let (name, program, exec_config) = (&*bench.result.name, &bench.program, &bench.exec_config);
    // The first unit to start sets the benchmark's clock and announces it.
    let started = *bench.started.get_or_init(|| {
        config.telemetry.emit(|| Event::BenchmarkStart {
            benchmark: name.to_string(),
        });
        Instant::now()
    });
    // Campaign mode: one shared trie per benchmark, keyed on the exact
    // exploration configuration so artifacts from a different visibility /
    // step-limit setup are rejected on load rather than mixed in.
    let corpus = config.corpus_dir.as_ref().map(Corpus::open).transpose()?;
    let key = corpus_key(name, exec_config);
    let mut loaded = None;
    if let (Some(c), true) = (&corpus, config.resume) {
        loaded = c.load_cache(name, key)?;
        // Before the loaded trie serves anything, its bug records must
        // still reproduce.
        c.audit_bugs(name, program, exec_config)?;
    }
    if let Some(cache) = &loaded {
        config.telemetry.emit(|| Event::CorpusLoaded {
            benchmark: name.to_string(),
            bytes: cache.bytes(),
            buggy_schedules: cache.buggy_schedules().len() as u64,
        });
    }
    let shared = corpus
        .as_ref()
        .map(|_| Arc::new(SharedCache::of(loaded.unwrap_or_default())));
    let limits = ExploreLimits::with_schedule_limit(config.schedule_limit)
        .with_por(config.por)
        .with_cache(config.cache)
        .with_steal_workers(config.steal_workers)
        .with_shared_cache(shared.clone())
        .with_telemetry(config.telemetry.clone());
    let run_unit = |t: Technique| {
        config.telemetry.emit(|| Event::TechniqueStart {
            benchmark: name.to_string(),
            technique: t.label().to_string(),
        });
        let budget = effective_budget(config, started.elapsed());
        let unit_limits = limits.clone().with_time_budget(budget);
        // Panic isolation: an engine blowing up must cost one row, not the
        // study. The shared trie is recovered to its load-time baseline (the
        // panicking unit may have died mid-insertion, and `catch_unwind`
        // makes any torn state observable to the remaining units), and the
        // unit reports a synthesized `engine_panic` row instead.
        let mut stats = catch_unwind(AssertUnwindSafe(|| {
            explore::run_technique(program, exec_config, t, &unit_limits)
        }))
        .unwrap_or_else(|payload| {
            if let Some(shared) = &shared {
                shared.restore_baseline();
            }
            let panic = panic_text(payload);
            config.telemetry.emit(|| Event::EnginePanic {
                benchmark: name.to_string(),
                technique: t.label().to_string(),
                panic: panic.clone(),
            });
            let mut row = ExplorationStats::new(t.label());
            row.engine_panic = true;
            row
        });
        stats.race_nanos = bench.race_nanos;
        if stats.deadline_exceeded {
            config.telemetry.emit(|| Event::DeadlineExceeded {
                benchmark: name.to_string(),
                technique: stats.technique.clone(),
                schedules: stats.schedules,
                budget_nanos: budget.map(|b| b.as_nanos() as u64).unwrap_or(0),
            });
        }
        config.telemetry.emit(|| Event::TechniqueFinish {
            benchmark: name.to_string(),
            technique: stats.technique.clone(),
            schedules: stats.schedules,
            executions: stats.executions,
            cache_hits: stats.cache_hits,
            found_bug: stats.found_bug(),
            wall_nanos: stats.explore_nanos,
        });
        if config.cache || shared.is_some() {
            config.telemetry.emit(|| Event::CacheSummary {
                program: program.name.clone(),
                technique: stats.technique.clone(),
                hits: stats.cache_hits,
                bytes: stats.cache_bytes,
                full: stats.cache_bytes >= limits.cache_max_bytes,
            });
        }
        stats
    };
    // Crash-safe checkpointing: in campaign mode, a scoped thread autosaves
    // the shared trie on a cadence, so a SIGKILL mid-benchmark only loses the
    // tail since the last checkpoint.
    let (stop, stopped) = mpsc::channel();
    let rows = thread::scope(|scope| {
        if let (Some(c), Some(shared), Some(every)) = (&corpus, &shared, config.checkpoint_every) {
            let telemetry = &config.telemetry;
            scope.spawn(move || checkpoint(c, name, key, shared, telemetry, every, stopped));
        }
        let rows: Vec<_> = techniques.iter().map(|&t| run_unit(t)).collect();
        // Stop the checkpoint thread; the scope joins it before the final
        // save below, so the two never write the artifact's temporary file
        // concurrently.
        drop(stop);
        rows
    });

    if let (Some(c), Some(shared)) = (&corpus, &shared) {
        let (saved, records, trie_bytes) = shared.with_live(|cache| {
            (
                c.save_cache(name, key, cache),
                harvest_bugs(program, exec_config, cache),
                cache.bytes(),
            )
        });
        saved?;
        for r in &records {
            config.telemetry.emit(|| Event::BugRecorded {
                benchmark: name.to_string(),
                bug: r.bug.to_string(),
                decisions: r.prefix.len() as u64,
                prefix: r.prefix.iter().map(|t| t.0 as u64).collect(),
            });
        }
        config.telemetry.emit(|| Event::CorpusSaved {
            benchmark: name.to_string(),
            bytes: trie_bytes,
            bugs: records.len() as u64,
        });
        c.save_bugs(&BugCorpus {
            benchmark: name.to_string(),
            config: exec_config.clone(),
            records,
        })?;
    }
    // The unit that finishes the benchmark's last row announces its end.
    if bench.pending.fetch_sub(techniques.len(), Ordering::AcqRel) == techniques.len() {
        config.telemetry.emit(|| Event::BenchmarkFinish {
            benchmark: name.to_string(),
            wall_nanos: started.elapsed().as_nanos() as u64,
        });
    }
    Ok(rows)
}

/// The one driver behind [`run_benchmark`] and [`run_study`]. Stage 1 fans
/// out every benchmark's race phase; stage 2 runs one pool over the chains
/// in registry × technique order; the rows are then regrouped in index
/// order, so the output never depends on the worker count.
fn run_benchmarks(
    specs: &[BenchmarkSpec],
    config: &HarnessConfig,
) -> Result<Vec<BenchmarkResult>, CorpusError> {
    let workers = config.workers.max(1);
    let techniques = study_techniques(config);
    let mut benches = map_indexed(specs.len(), workers, |b| {
        Bench::prepare(&specs[b], config, techniques.len())
    });
    // One-shot, every unit is its own chain. A campaign arena is grown by one
    // search at a time, in technique order: its saved content then does not
    // depend on thread timing, and a panic's rollback never runs under
    // another search's live view. So a campaign benchmark is one chain.
    let chain = config.corpus_dir.as_ref().map_or(1, |_| techniques.len());
    let chains: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|b| (0..techniques.len()).step_by(chain).map(move |t| (b, t)))
        .collect();
    let rows = map_indexed(chains.len(), workers, |i| {
        let (b, t) = chains[i];
        run_chain(&benches[b], &techniques[t..t + chain], config)
    });
    for (&(b, _), rows) in chains.iter().zip(rows) {
        benches[b].result.techniques.extend(rows?);
    }
    Ok(benches.into_iter().map(|bench| bench.result).collect())
}

/// Run the full pipeline (race detection + every technique) on a single
/// benchmark: [`run_study`]'s path over one spec, so its technique units
/// share `config.workers` threads (one chain in campaign mode).
pub fn run_benchmark(
    spec: &BenchmarkSpec,
    config: &HarnessConfig,
) -> Result<BenchmarkResult, CorpusError> {
    let mut results = run_benchmarks(std::slice::from_ref(spec), config)?;
    Ok(results.pop().expect("one spec yields one result"))
}

/// Run the whole study over all 52 benchmarks (or a filtered subset) on
/// `config.workers` threads.
///
/// The pool's items are (benchmark, technique) units, run in registry ×
/// technique order as workers free up, so every worker stays busy until the
/// last unit starts; in campaign mode a benchmark's units form one chain.
/// Every unit runs the same serial exploration at any worker count, so the
/// results — and their order — are identical to a `workers == 1` run.
pub fn run_study(
    config: &HarnessConfig,
    filter: Option<&str>,
) -> Result<StudyResults, CorpusError> {
    let study_started = Instant::now();
    let specs: Vec<BenchmarkSpec> = all_benchmarks()
        .into_iter()
        .filter(|spec| filter.is_none_or(|f| spec.name.to_lowercase().contains(&f.to_lowercase())))
        .collect();
    config.telemetry.emit(|| Event::StudyStart {
        benchmarks: specs.len() as u64,
        techniques: study_techniques(config).len() as u64,
        schedule_limit: config.schedule_limit,
        workers: config.workers.max(1) as u64,
        steal_workers: config.steal_workers.max(1) as u64,
    });
    let benchmarks = run_benchmarks(&specs, config)?;
    config.telemetry.emit(|| Event::StudyFinish {
        benchmarks: benchmarks.len() as u64,
        wall_nanos: study_started.elapsed().as_nanos() as u64,
    });
    Ok(StudyResults {
        benchmarks,
        schedule_limit: config.schedule_limit,
        por: config.por,
        cache: config.cache,
        workers: config.workers.max(1),
        steal_workers: config.steal_workers.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sctbench::benchmark_by_name;

    fn quick_config() -> HarnessConfig {
        HarnessConfig {
            schedule_limit: 200,
            race_runs: 5,
            seed: 7,
            use_race_phase: true,
            static_phase: false,
            include_pct: false,
            workers: 2,
            por: false,
            cache: false,
            steal_workers: 1,
            corpus_dir: None,
            resume: false,
            trace: None,
            quiet: false,
            time_budget: None,
            benchmark_deadline: None,
            checkpoint_every: None,
            telemetry: Telemetry::off(),
        }
    }

    #[test]
    fn pipeline_runs_a_single_benchmark_end_to_end() {
        let spec = benchmark_by_name("CS.account_bad").unwrap();
        let result = run_benchmark(&spec, &quick_config()).unwrap();
        assert_eq!(result.techniques.len(), 5);
        assert_eq!(result.techniques[0].technique, "IPB");
        assert_eq!(result.techniques[1].technique, "IDB");
        // account_bad is race-free (every access is individually locked); its
        // bug is an atomicity violation, so it must be found even when only
        // synchronisation operations are scheduling points.
        assert_eq!(result.racy_locations, 0);
        assert!(result.found_by("IDB"), "IDB should find account_bad");
        assert!(result.found_by("Rand"), "Rand should find account_bad");
        assert!(result.threads() >= 4);
    }

    #[test]
    fn race_phase_promotes_locations_for_racy_benchmarks() {
        // stack_bad's popper reads shared state without the lock, so the
        // race-detection phase must report races and promote locations.
        let spec = benchmark_by_name("CS.stack_bad").unwrap();
        let result = run_benchmark(&spec, &quick_config()).unwrap();
        assert!(result.races > 0);
        assert!(result.racy_locations > 0);
        assert!(result.found_by("IDB"));
    }

    #[test]
    fn race_phase_ablation_can_be_disabled() {
        let spec = benchmark_by_name("CS.sync01_bad").unwrap();
        let mut cfg = quick_config();
        cfg.use_race_phase = false;
        let result = run_benchmark(&spec, &cfg).unwrap();
        assert!(result.found_by("IDB"));
    }

    #[test]
    fn static_phase_skips_dynamic_race_runs_but_still_finds_the_bug() {
        let spec = benchmark_by_name("CS.stack_bad").unwrap();
        let mut cfg = quick_config();
        cfg.static_phase = true;
        let result = run_benchmark(&spec, &cfg).unwrap();
        assert_eq!(result.races, 0, "dynamic race phase must be skipped");
        assert!(result.static_candidates > 0);
        assert_eq!(
            result.racy_locations, result.static_locations,
            "static candidates are what gets promoted"
        );
        assert!(result.found_by("IDB"));
    }

    #[test]
    fn static_candidate_columns_are_populated_in_dynamic_mode_too() {
        // lazy01_bad locks every shared access: no static candidates. The
        // columns must still be filled in even though the dynamic race phase
        // (not the analyzer) decided the promoted locations.
        let spec = benchmark_by_name("CS.lazy01_bad").unwrap();
        let result = run_benchmark(&spec, &quick_config()).unwrap();
        assert_eq!(result.static_candidates, 0);
        assert_eq!(result.static_locations, 0);

        // account_bad locks the workers' accesses, but main re-reads the
        // balance without the lock after joining; the analyzer does not model
        // join ordering, so those pairs are (soundly) kept as candidates.
        let spec = benchmark_by_name("CS.account_bad").unwrap();
        let result = run_benchmark(&spec, &quick_config()).unwrap();
        assert!(result.static_candidates >= 2);
    }

    #[test]
    fn study_filter_selects_benchmarks_by_substring() {
        let results = run_study(&quick_config(), Some("splash2")).unwrap();
        assert_eq!(results.benchmarks.len(), 3);
        assert!(results
            .benchmarks
            .iter()
            .all(|b| b.name.starts_with("splash2")));
    }

    #[test]
    fn parallel_study_statistics_are_identical_to_the_serial_run() {
        // Every (benchmark, technique) unit runs the same serial exploration
        // whatever the worker count, so the aggregate study output must be
        // seed-for-seed identical — systematic techniques (IPB/IDB/DFS)
        // included. One benchmark (more workers than its units' share) and
        // three (units of different benchmarks overlapping) cover both ends
        // of the pool.
        for filter in ["CS.reorder_3", "splash2"] {
            let serial_cfg = HarnessConfig {
                workers: 1,
                ..quick_config()
            };
            let serial = run_study(&serial_cfg, Some(filter)).unwrap();
            for workers in [2, 4, 8] {
                let parallel_cfg = HarnessConfig {
                    workers,
                    ..quick_config()
                };
                let parallel = run_study(&parallel_cfg, Some(filter)).unwrap();
                assert_eq!(serial.benchmarks.len(), parallel.benchmarks.len());
                for (s, p) in serial.benchmarks.iter().zip(&parallel.benchmarks) {
                    assert_eq!(s.name, p.name);
                    assert_eq!(s.races, p.races);
                    assert_eq!(s.racy_locations, p.racy_locations);
                    assert_eq!(s.techniques, p.techniques, "{} @ {workers}", s.name);
                }
            }
        }
    }

    /// The string value of `key` in a JSONL event line ("" when absent).
    fn json_field(line: &str, key: &str) -> String {
        let rest = line.split(&format!("\"{key}\":\"")).nth(1).unwrap_or("");
        rest.split('"').next().unwrap_or("").to_string()
    }

    #[test]
    fn every_event_names_a_technique_its_benchmark_announced() {
        // The heartbeat keys in-flight units by (benchmark, technique), so
        // a unit's progress and bug events must carry the label its
        // `technique_start` announced, for every technique including DFS
        // and PCT.
        use sct_core::telemetry::{BufferRecorder, Recorder};
        use std::collections::BTreeSet;
        let buffer = Arc::new(BufferRecorder::default());
        let recorders: Vec<Box<dyn Recorder>> = vec![Box::new(Arc::clone(&buffer))];
        let cfg = HarnessConfig {
            include_pct: true,
            telemetry: Telemetry::with_progress_interval(recorders, Duration::ZERO),
            ..quick_config()
        };
        run_study(&cfg, Some("CS.reorder_3_bad")).unwrap();
        let lines = buffer.lines();
        let subject = |l: &str| match json_field(l, "benchmark") {
            b if b.is_empty() => json_field(l, "program"),
            b => b,
        };
        let announced: BTreeSet<(String, String)> = lines
            .iter()
            .filter(|l| json_field(l, "type") == "technique_start")
            .map(|l| (subject(l), json_field(l, "technique")))
            .collect();
        assert_eq!(announced.len(), study_techniques(&cfg).len());
        let mut labelled = BTreeSet::new();
        for l in lines
            .iter()
            .filter(|l| !json_field(l, "technique").is_empty())
        {
            let key = (subject(l), json_field(l, "technique"));
            assert!(announced.contains(&key), "unannounced {key:?}: {l}");
            labelled.insert(json_field(l, "type"));
        }
        for kind in ["progress", "bug_found", "technique_finish"] {
            assert!(labelled.contains(kind), "no {kind} event: {labelled:?}");
        }
    }

    #[test]
    fn each_benchmark_is_bracketed_by_one_start_and_one_finish_event() {
        use sct_core::telemetry::BufferRecorder;
        let buffer = Arc::new(BufferRecorder::default());
        let cfg = HarnessConfig {
            workers: 4,
            telemetry: Telemetry::new(vec![Box::new(Arc::clone(&buffer))]),
            ..quick_config()
        };
        let results = run_study(&cfg, Some("CS.reorder")).unwrap();
        let lines = buffer.lines();
        for b in &results.benchmarks {
            let kinds: Vec<String> = lines
                .iter()
                .filter(|l| json_field(l, "benchmark") == b.name)
                .map(|l| json_field(l, "type"))
                .filter(|k| k.starts_with("benchmark_") || k.starts_with("technique_"))
                .collect();
            let at = |kind: &str| -> Vec<usize> {
                (0..kinds.len()).filter(|&i| kinds[i] == kind).collect()
            };
            assert_eq!(at("benchmark_start"), vec![0], "{}: {kinds:?}", b.name);
            assert_eq!(at("benchmark_finish"), vec![kinds.len() - 1], "{}", b.name);
            assert_eq!(
                at("technique_start").len(),
                b.techniques.len(),
                "{}",
                b.name
            );
            assert_eq!(
                at("technique_finish").len(),
                b.techniques.len(),
                "{}",
                b.name
            );
        }
    }

    #[test]
    fn a_benchmark_deadline_behaves_the_same_with_overlapping_units() {
        // The deadline counts from the benchmark's first unit start, and
        // each unit gets the time left when it starts: a zero deadline marks
        // every row, and an unreached one leaves every row as it would be
        // without a deadline, at any worker count.
        for workers in [1, 4] {
            let cfg = HarnessConfig {
                workers,
                ..quick_config()
            };
            let plain = run_study(&cfg, Some("CS.reorder_3")).unwrap();
            let with_deadline = |deadline| {
                let cfg = HarnessConfig {
                    benchmark_deadline: Some(deadline),
                    ..cfg.clone()
                };
                run_study(&cfg, Some("CS.reorder_3")).unwrap()
            };
            let expired = with_deadline(Duration::ZERO);
            for b in &expired.benchmarks {
                assert_eq!(b.techniques.len(), 5);
                assert!(
                    b.techniques.iter().all(|t| t.deadline_exceeded),
                    "{}",
                    b.name
                );
            }
            let roomy = with_deadline(Duration::from_secs(3600));
            for (p, r) in plain.benchmarks.iter().zip(&roomy.benchmarks) {
                assert_eq!(p.techniques, r.techniques, "{} @ {workers}", p.name);
                assert!(r.techniques.iter().all(|t| !t.deadline_exceeded));
            }
        }
    }

    #[test]
    fn stolen_frontier_study_statistics_are_identical_to_the_serial_run() {
        // `--steal-workers` splits each systematic search's own frontier;
        // the per-cell statistics must still be bit-identical to the serial
        // study (the determinism guarantee of `sct_core::steal`).
        let serial = run_study(&quick_config(), Some("splash2")).unwrap();
        let stolen_cfg = HarnessConfig {
            steal_workers: 4,
            ..quick_config()
        };
        let stolen = run_study(&stolen_cfg, Some("splash2")).unwrap();
        assert_eq!(serial.benchmarks.len(), stolen.benchmarks.len());
        for (s, p) in serial.benchmarks.iter().zip(&stolen.benchmarks) {
            assert_eq!(s.techniques, p.techniques, "{}", s.name);
        }
    }

    #[test]
    fn a_zero_time_budget_yields_deadline_rows_for_every_technique() {
        let spec = benchmark_by_name("CS.lazy01_bad").unwrap();
        let mut cfg = quick_config();
        cfg.time_budget = Some(Duration::ZERO);
        let result = run_benchmark(&spec, &cfg).unwrap();
        assert_eq!(result.techniques.len(), 5);
        for t in &result.techniques {
            assert!(t.deadline_exceeded, "{} must hit the deadline", t.technique);
            assert_eq!(t.schedules, 0, "{} stopped before schedule 1", t.technique);
            assert!(!t.engine_panic, "{}", t.technique);
        }
    }

    #[test]
    fn an_already_passed_benchmark_deadline_still_reports_every_row() {
        let spec = benchmark_by_name("CS.lazy01_bad").unwrap();
        let mut cfg = quick_config();
        cfg.benchmark_deadline = Some(Duration::ZERO);
        let result = run_benchmark(&spec, &cfg).unwrap();
        assert_eq!(result.techniques.len(), 5);
        assert!(result.techniques.iter().all(|t| t.deadline_exceeded));
    }

    #[test]
    fn an_engine_panic_is_isolated_to_one_synthesized_row() {
        use sct_core::{fault, FaultKind};
        // twostage_bad is used by no other test in this crate, so the armed
        // fault (scoped to the program name) cannot trip a concurrent test.
        let spec = benchmark_by_name("CS.twostage_bad").unwrap();
        let _fault = fault::arm(FaultKind::SchedulePanic, "twostage_bad", 1);
        let mut cfg = quick_config();
        // Serial technique order makes the first schedule boundary — and so
        // the panicking unit — deterministically IPB's.
        cfg.workers = 1;
        let result = run_benchmark(&spec, &cfg).unwrap();
        assert_eq!(result.techniques.len(), 5);
        let ipb = result.technique("IPB").unwrap();
        assert!(ipb.engine_panic, "the panicking unit must be marked");
        assert_eq!(ipb.schedules, 0);
        assert!(!ipb.found_bug());
        for t in result.techniques.iter().filter(|t| t.technique != "IPB") {
            assert!(!t.engine_panic, "{} must be unaffected", t.technique);
            assert!(t.schedules > 0, "{} must have kept running", t.technique);
        }
    }

    #[test]
    fn an_engine_panic_in_a_stolen_search_is_isolated_to_one_row() {
        use sct_core::{fault, FaultKind};
        // reorder_10_bad is used by no other test in this crate, and its
        // bound-0 level alone holds far more than the 128 schedules a
        // stealing worker may run ahead of the fold: a fold that panicked
        // without shutting the engine down would leave its workers parked,
        // and the unit would hang instead of becoming a marked row.
        let spec = benchmark_by_name("CS.reorder_10_bad").unwrap();
        let _fault = fault::arm(FaultKind::SchedulePanic, "reorder_10_bad", 1);
        let mut cfg = quick_config();
        cfg.workers = 1; // serial technique order: IPB takes the panic
        cfg.steal_workers = 2;
        cfg.use_race_phase = false;
        let result = run_benchmark(&spec, &cfg).unwrap();
        assert_eq!(result.techniques.len(), 5);
        assert!(result.technique("IPB").unwrap().engine_panic);
        for t in result.techniques.iter().filter(|t| t.technique != "IPB") {
            assert!(!t.engine_panic, "{} must be unaffected", t.technique);
            assert!(t.schedules > 0, "{} must have kept running", t.technique);
        }
    }

    #[test]
    fn an_engine_panic_mid_campaign_checkpoints_and_resumes_cleanly() {
        use sct_core::{fault, FaultKind};
        // wronglock_bad is used by no other test in this crate, so the
        // program-name-scoped fault cannot trip a concurrent test.
        let spec = benchmark_by_name("CS.wronglock_bad").unwrap();
        let base =
            std::env::temp_dir().join(format!("sct-harness-panic-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let mut cfg = quick_config();
        cfg.workers = 1; // serial technique order: the panic lands in one unit
        cfg.use_race_phase = false;
        let sans_cache = |t: &sct_core::ExplorationStats| {
            let mut t = t.clone();
            t.executions = 0;
            t.cache_hits = 0;
            t.cache_bytes = 0;
            t
        };

        let mut cold_cfg = cfg.clone();
        cold_cfg.corpus_dir = Some(base.join("cold"));
        let cold = run_benchmark(&spec, &cold_cfg).unwrap();
        assert!(cold.techniques.iter().all(|t| !t.engine_panic));

        // Detonate a few schedules past IPB's total, so the blast lands
        // mid-campaign, after real work has already entered the shared trie.
        let nth = cold.technique("IPB").unwrap().schedules + 5;
        let mut fault_cfg = cfg.clone();
        fault_cfg.corpus_dir = Some(base.join("fault"));
        let marked = {
            let _fault = fault::arm(FaultKind::SchedulePanic, "wronglock_bad", nth);
            run_benchmark(&spec, &fault_cfg).unwrap()
        };
        let panicked = marked.techniques.iter().filter(|t| t.engine_panic).count();
        assert_eq!(panicked, 1, "exactly one unit takes the panic");
        for (m, c) in marked.techniques.iter().zip(&cold.techniques) {
            assert_eq!(m.technique, c.technique);
            if !m.engine_panic {
                assert_eq!(sans_cache(m), sans_cache(c), "{}", m.technique);
            }
        }

        // The campaign survived the panic: resuming from its corpus with the
        // fault cleared reproduces the cold run's statistics.
        let mut resumed_cfg = fault_cfg.clone();
        resumed_cfg.resume = true;
        let resumed = run_benchmark(&spec, &resumed_cfg).unwrap();
        for (r, c) in resumed.techniques.iter().zip(&cold.techniques) {
            assert!(!r.engine_panic, "{}", r.technique);
            assert_eq!(sans_cache(r), sans_cache(c), "{}", r.technique);
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn campaign_checkpoints_fire_at_least_once_and_produce_a_loadable_trie() {
        use sct_core::telemetry::BufferRecorder;
        let dir =
            std::env::temp_dir().join(format!("sct-harness-checkpoint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let buffer = Arc::new(BufferRecorder::default());
        let mut cfg = quick_config();
        cfg.corpus_dir = Some(dir.clone());
        cfg.checkpoint_every = Some(Duration::from_millis(1));
        cfg.telemetry = Telemetry::new(vec![Box::new(Arc::clone(&buffer))]);
        let spec = benchmark_by_name("CS.lazy01_bad").unwrap();
        run_benchmark(&spec, &cfg).unwrap();
        let checkpoints = buffer
            .lines()
            .iter()
            .filter(|l| l.contains("\"type\":\"checkpoint_saved\""))
            .count();
        assert!(checkpoints >= 1, "the teardown checkpoint always fires");
        // The checkpointed artifact must be a valid, resumable trie.
        let mut resumed = cfg.clone();
        resumed.resume = true;
        run_benchmark(&spec, &resumed).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pct_can_be_added_as_a_sixth_technique() {
        let spec = benchmark_by_name("CS.lazy01_bad").unwrap();
        let mut cfg = quick_config();
        cfg.include_pct = true;
        let result = run_benchmark(&spec, &cfg).unwrap();
        assert_eq!(result.techniques.len(), 6);
        assert!(result.technique("PCT").is_some());
    }
}
