//! The five workloads: the inputs each builds in set-up, and one measured
//! pass over them through the public entry points users call.

use sct_core::corpus::{corpus_key, harvest_bugs, BugCorpus, Corpus};
use sct_core::explore::run_technique;
use sct_core::telemetry::{Event, Telemetry};
use sct_core::{
    explore_bounded_stealing_digests, iterative_bounding, BoundKind, ExplorationStats,
    ExploreLimits, ScheduleCache, SharedCache, Technique, TerminalDigest,
};
use sct_harness::{
    experiments_markdown, fig2a, fig2b, figures, perf_json, run_study, table1, table2, table3,
    table3_csv, HarnessConfig,
};
use sct_ir::Program;
use sct_runtime::ExecConfig;
use sctbench::{all_benchmarks, BenchmarkSpec};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The seed the golden files were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Race-detection runs per benchmark in `study` (the paper's ten).
pub const RACE_RUNS: usize = 10;

/// The one benchmark only `study` runs: at about 800 steps per schedule it
/// would dominate every other workload's time.
const HEAVY: &str = "CS.twostage_100_bad";

/// The systematic techniques, in the study's column order.
pub const SYSTEMATIC: [Technique; 3] = [
    Technique::IterativePreemptionBounding,
    Technique::IterativeDelayBounding,
    Technique::Dfs,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Study,
    Bounded,
    Steal,
    CampaignCold,
    CampaignResume,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Study,
        Workload::Bounded,
        Workload::Steal,
        Workload::CampaignCold,
        Workload::CampaignResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Bounded => "bounded",
            Workload::Steal => "steal",
            Workload::CampaignCold => "campaign_cold",
            Workload::CampaignResume => "campaign_resume",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's inputs depend on `--seed`. Only `study` has
    /// randomised parts (race phase, Rand, MapleAlg); the others are
    /// deterministic and just record the seed.
    pub fn seeded(self) -> bool {
        self == Workload::Study
    }

    /// Terminal-schedule limit per unit, sized so one pass takes about a
    /// second on a 2-vCPU x86-64 box and a run fits several passes.
    fn limit(self) -> u64 {
        match self {
            Workload::Study => 250,
            Workload::Bounded => 4_000,
            Workload::Steal => 1_000,
            Workload::CampaignCold | Workload::CampaignResume => 1_000,
        }
    }
}

/// What one run of a workload explores.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Terminal-schedule limit per unit.
    pub limit: u64,
    /// Substring filter on benchmark names, with `run_study`'s semantics;
    /// `None` runs every benchmark of the workload.
    pub filter: Option<String>,
    /// Work-stealing threads in `steal` (2, capped at the core count).
    pub steal_workers: usize,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Plan {
            workload,
            seed,
            limit: workload.limit(),
            filter: None,
            steal_workers: 2.min(cores),
        }
    }

    /// The benchmarks this plan runs, in Table 3 order.
    pub fn specs(&self) -> Vec<BenchmarkSpec> {
        all_benchmarks()
            .into_iter()
            .filter(|s| self.workload == Workload::Study || s.name != HEAVY)
            .filter(|s| match &self.filter {
                Some(f) => s.name.to_lowercase().contains(&f.to_lowercase()),
                None => true,
            })
            .collect()
    }
}

/// The inputs a workload builds before it is timed.
pub struct Inputs {
    pub programs: Vec<(BenchmarkSpec, Program)>,
    /// Visibility for every workload but `study` (whose race phase decides
    /// its own): every shared access is a scheduling point.
    pub config: ExecConfig,
    /// The corpus a `campaign_resume` pass reloads.
    pub corpus_dir: Option<PathBuf>,
}

/// Build the workload's inputs: its programs from the registry and, for
/// `campaign_resume`, the corpus of one cold campaign pass.
pub fn setup(plan: &Plan, work: &Path) -> Result<Inputs, String> {
    let mut inputs = Inputs {
        programs: plan
            .specs()
            .into_iter()
            .map(|s| (s.clone(), s.program()))
            .collect(),
        config: ExecConfig::all_visible(),
        corpus_dir: None,
    };
    if plan.workload == Workload::CampaignResume {
        let dir = fresh_dir(&work.join("resume"))?;
        campaign_pass(plan, &inputs, &dir, false, &Telemetry::off())?;
        inputs.corpus_dir = Some(dir);
    }
    Ok(inputs)
}

/// Remove and recreate `dir`.
pub fn fresh_dir(dir: &Path) -> Result<PathBuf, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

/// One benchmark × technique run.
#[derive(Debug, Clone)]
pub struct UnitRun {
    pub benchmark: String,
    pub technique: &'static str,
    pub stats: ExplorationStats,
    pub nanos: u64,
}

/// Wall time of the layers a pass calls directly, summed over benchmarks.
#[derive(Debug, Clone, Default)]
pub struct LayerNanos {
    pub race: u64,
    pub render: u64,
    pub harvest: u64,
    pub save: u64,
}

/// One pass over a workload's benchmarks.
#[derive(Debug, Clone)]
pub struct PassRun {
    pub wall_nanos: u64,
    pub units: Vec<UnitRun>,
    pub layers: LayerNanos,
    /// `(unit index, counted-schedule digests)` of the DFS units, when the
    /// pass was asked for them.
    pub digests: Vec<(usize, Vec<TerminalDigest>)>,
}

impl PassRun {
    pub fn schedules(&self) -> u64 {
        self.units.iter().map(|u| u.stats.schedules).sum()
    }
}

/// How a pass deviates from the measured configuration.
#[derive(Clone)]
pub struct PassOptions {
    pub telemetry: Telemetry,
    /// `bounded`: the schedule cache (off for the uncached reference).
    pub cache: bool,
    /// `steal`: frontier threads (1 for the serial reference).
    pub steal_workers: usize,
    /// `steal`: collect the DFS units' digest streams.
    pub digests: bool,
    /// Campaign corpus directory for `campaign_cold` (fresh per pass).
    pub corpus_dir: PathBuf,
}

impl PassOptions {
    /// The configuration the end-to-end metrics measure.
    pub fn measured(plan: &Plan, work: &Path) -> PassOptions {
        PassOptions {
            telemetry: Telemetry::off(),
            cache: true,
            steal_workers: plan.steal_workers,
            digests: false,
            corpus_dir: work.join("cold"),
        }
    }
}

/// Run one pass.
pub fn pass(plan: &Plan, inputs: &Inputs, opts: &PassOptions) -> Result<PassRun, String> {
    match plan.workload {
        Workload::Study => study_pass(plan, &opts.telemetry),
        Workload::Bounded => Ok(bounded_pass(plan, inputs, opts)),
        Workload::Steal => Ok(steal_pass(plan, inputs, opts)),
        Workload::CampaignCold => {
            let dir = fresh_dir(&opts.corpus_dir)?;
            campaign_pass(plan, inputs, &dir, false, &opts.telemetry)
        }
        Workload::CampaignResume => {
            let dir = inputs
                .corpus_dir
                .as_ref()
                .expect("campaign_resume set-up made a corpus");
            campaign_pass(plan, inputs, dir, true, &opts.telemetry)
        }
    }
}

/// Time one unit, announcing it on `telemetry` as the harness does. A panic
/// becomes an `engine_panic` row, as in the study pipeline.
fn unit(
    benchmark: &str,
    technique: &'static str,
    telemetry: &Telemetry,
    explore: impl FnOnce() -> ExplorationStats,
) -> UnitRun {
    telemetry.emit(|| Event::TechniqueStart {
        benchmark: benchmark.to_string(),
        technique: technique.to_string(),
    });
    let started = Instant::now();
    let stats = catch_unwind(AssertUnwindSafe(explore)).unwrap_or_else(|_| {
        let mut row = ExplorationStats::new(technique);
        row.engine_panic = true;
        row
    });
    let nanos = started.elapsed().as_nanos() as u64;
    telemetry.emit(|| Event::TechniqueFinish {
        benchmark: benchmark.to_string(),
        technique: technique.to_string(),
        schedules: stats.schedules,
        executions: stats.executions,
        cache_hits: stats.cache_hits,
        found_bug: stats.found_bug(),
        wall_nanos: nanos,
    });
    UnitRun {
        benchmark: benchmark.to_string(),
        technique,
        stats,
        nanos,
    }
}

/// The harness configuration `study` runs, at the plan's seed and limit.
pub fn study_config(plan: &Plan, telemetry: &Telemetry) -> HarnessConfig {
    HarnessConfig {
        schedule_limit: plan.limit,
        race_runs: RACE_RUNS,
        seed: plan.seed,
        workers: 1,
        checkpoint_every: None,
        telemetry: telemetry.clone(),
        ..HarnessConfig::default()
    }
}

fn study_pass(plan: &Plan, telemetry: &Telemetry) -> Result<PassRun, String> {
    let started = Instant::now();
    let results = run_study(&study_config(plan, telemetry), plan.filter.as_deref())
        .map_err(|e| format!("study failed: {e}"))?;
    let render_started = Instant::now();
    let rendered = [
        table1(),
        table2(&results),
        table3(&results),
        table3_csv(&results),
        figures::venn_to_string("Figure 2a", ["IPB", "IDB", "DFS"], &fig2a(&results)),
        figures::venn_to_string("Figure 2b", ["IDB", "Rand", "MapleAlg"], &fig2b(&results)),
        figures::scatter_fig3(&results),
        figures::scatter_fig4(&results),
        perf_json(&results),
        experiments_markdown(&results),
    ];
    black_box(&rendered);
    let render = render_started.elapsed().as_nanos() as u64;
    let wall_nanos = started.elapsed().as_nanos() as u64;
    let techniques = sct_harness::pipeline::study_techniques(&study_config(plan, telemetry));
    let mut units = Vec::new();
    let mut race = 0;
    for b in &results.benchmarks {
        race += b.techniques.first().map_or(0, |t| t.race_nanos);
        for (t, stats) in techniques.iter().zip(&b.techniques) {
            units.push(UnitRun {
                benchmark: b.name.clone(),
                technique: t.label(),
                stats: stats.clone(),
                nanos: stats.explore_nanos,
            });
        }
    }
    Ok(PassRun {
        wall_nanos,
        units,
        layers: LayerNanos {
            race,
            render,
            ..LayerNanos::default()
        },
        digests: Vec::new(),
    })
}

/// The techniques `bounded` runs, with the bound kind each iterates.
pub const BOUNDED: [(Technique, BoundKind); 2] = [
    (
        Technique::IterativePreemptionBounding,
        BoundKind::Preemption,
    ),
    (Technique::IterativeDelayBounding, BoundKind::Delay),
];

/// `bounded`'s exploration limits: cached (unless a reference) and POR.
pub fn bounded_limits(plan: &Plan, cache: bool, telemetry: &Telemetry) -> ExploreLimits {
    ExploreLimits::with_schedule_limit(plan.limit)
        .with_cache(cache)
        .with_por(true)
        .with_telemetry(telemetry.clone())
}

fn bounded_pass(plan: &Plan, inputs: &Inputs, opts: &PassOptions) -> PassRun {
    let limits = bounded_limits(plan, opts.cache, &opts.telemetry);
    let started = Instant::now();
    let mut units = Vec::new();
    for (spec, program) in &inputs.programs {
        for (technique, kind) in BOUNDED {
            units.push(unit(spec.name, technique.label(), &opts.telemetry, || {
                iterative_bounding(program, &inputs.config, kind, &limits)
            }));
        }
    }
    PassRun {
        wall_nanos: started.elapsed().as_nanos() as u64,
        units,
        layers: LayerNanos::default(),
        digests: Vec::new(),
    }
}

fn steal_pass(plan: &Plan, inputs: &Inputs, opts: &PassOptions) -> PassRun {
    let limits = ExploreLimits::with_schedule_limit(plan.limit)
        .with_steal_workers(opts.steal_workers)
        .with_telemetry(opts.telemetry.clone());
    let started = Instant::now();
    let mut units = Vec::new();
    let mut digests = Vec::new();
    for (spec, program) in &inputs.programs {
        for technique in SYSTEMATIC {
            let mut stream = None;
            units.push(unit(spec.name, technique.label(), &opts.telemetry, || {
                if opts.digests && technique == Technique::Dfs {
                    // The function `run_technique` calls for a stolen DFS,
                    // asked for the digest stream as well.
                    let (stats, d) = explore_bounded_stealing_digests(
                        program,
                        &inputs.config,
                        BoundKind::None,
                        u32::MAX,
                        &limits,
                    );
                    stream = Some(d);
                    stats
                } else {
                    run_technique(program, &inputs.config, technique, &limits)
                }
            }));
            if let Some(d) = stream {
                digests.push((units.len() - 1, d));
            }
        }
    }
    PassRun {
        wall_nanos: started.elapsed().as_nanos() as u64,
        units,
        layers: LayerNanos::default(),
        digests,
    }
}

/// One campaign pass: per benchmark, a shared trie (fresh, or loaded from
/// `dir` when resuming) grown by IPB, IDB and DFS, then bug harvesting and
/// durable saves of the trie and bug corpus into `dir`.
fn campaign_pass(
    plan: &Plan,
    inputs: &Inputs,
    dir: &Path,
    resume: bool,
    telemetry: &Telemetry,
) -> Result<PassRun, String> {
    let started = Instant::now();
    let corpus = Corpus::open(dir).map_err(|e| e.to_string())?;
    let base = ExploreLimits::with_schedule_limit(plan.limit).with_telemetry(telemetry.clone());
    let mut units = Vec::new();
    let mut layers = LayerNanos::default();
    for (spec, program) in &inputs.programs {
        let key = corpus_key(spec.name, &inputs.config);
        let loaded = if resume {
            let cache = corpus
                .load_cache(spec.name, key)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| format!("no saved trie for {}", spec.name))?;
            telemetry.emit(|| Event::CorpusLoaded {
                benchmark: spec.name.to_string(),
                bytes: cache.bytes(),
                buggy_schedules: cache.buggy_schedules().len() as u64,
            });
            cache
        } else {
            ScheduleCache::default()
        };
        let shared = Arc::new(SharedCache::of(loaded));
        let limits = base.clone().with_shared_cache(Some(Arc::clone(&shared)));
        for technique in SYSTEMATIC {
            units.push(unit(spec.name, technique.label(), telemetry, || {
                run_technique(program, &inputs.config, technique, &limits)
            }));
        }
        let t = Instant::now();
        let records = shared.with_live(|c| harvest_bugs(program, &inputs.config, c));
        layers.harvest += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let bytes = shared.with_live(|c| corpus.save_cache(spec.name, key, c).map(|()| c.bytes()));
        let bugs = records.len() as u64;
        let bytes = bytes.map_err(|e| e.to_string())?;
        corpus
            .save_bugs(&BugCorpus {
                benchmark: spec.name.to_string(),
                config: inputs.config.clone(),
                records,
            })
            .map_err(|e| e.to_string())?;
        layers.save += t.elapsed().as_nanos() as u64;
        telemetry.emit(|| Event::CorpusSaved {
            benchmark: spec.name.to_string(),
            bytes,
            bugs,
        });
    }
    Ok(PassRun {
        wall_nanos: started.elapsed().as_nanos() as u64,
        units,
        layers,
        digests: Vec::new(),
    })
}
