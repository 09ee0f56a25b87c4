//! Exploration: every search is a *producer* folded by one fold.
//!
//! A producer yields one visit per completed schedule, in the serial visit
//! order of its search. There are three: a [`BoundedDfs`] run inline on the
//! calling thread, walking the search's schedule trie; any [`Scheduler`]
//! (Rand, PCT, MapleAlg, or whatever [`explore_with`] is handed); and the
//! work-stealing engine of [`crate::steal`], which splits one bounded DFS
//! across threads and streams its visits back in the same serial order. A
//! producer splits *begin* from *run*, so the fold can begin a schedule
//! without running it: that is how it learns, at the schedule limit,
//! whether anything was left to explore.
//!
//! The fold owns every accounting rule of the study, written once: the
//! schedule limit, the wall-clock deadline, the fault-injection hook, the
//! uncounted sleep-redundant runs, recording and first-bug telemetry, the
//! exhausted-exactly-at-limit probe and POR drain, the sleep and prune
//! counters, the execution and cache counters, and the completion flags.
//! Iterative bounding (IPB/IDB) is a loop of bound levels over the same
//! fold, which counts only the schedules new at each bound. Because every
//! producer yields the same visit stream, the statistics are bit-identical
//! whichever producer runs a search.
//!
//! The fold is also the only writer of a schedule trie: producers only walk
//! it, and the fold inserts each visit's footprint in serial visit order, so
//! a trie is node for node the serial search's at any worker count.

use crate::bounds::BoundKind;
use crate::cache::{
    self, Footprint, ScheduleCache, ScheduleRun, SharedCache, TerminalDigest, View, Walker,
};
use crate::dfs::BoundedDfs;
use crate::maple::MapleLikeScheduler;
use crate::pct::PctScheduler;
use crate::random::RandomScheduler;
use crate::scheduler::Scheduler;
use crate::stats::ExplorationStats;
use crate::telemetry::{Event, Telemetry};
use sct_ir::Program;
use sct_runtime::{ExecConfig, Execution, NoopObserver};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Limits and switches applied to an exploration.
#[derive(Debug, Clone)]
pub struct ExploreLimits {
    /// Maximum number of terminal schedules to explore (the study uses 10,000).
    pub schedule_limit: u64,
    /// Maximum bound tried by iterative bounding before giving up.
    pub max_bound: u32,
    /// Enable sleep-set partial-order reduction in the systematic searches
    /// (DFS, IPB, IDB). Randomised techniques ignore the flag.
    pub por: bool,
    /// Enable the schedule cache in iterative bounding (IPB, IDB): bound
    /// level *b + 1* serves every schedule already explored at a level ≤ *b*
    /// from a decision-prefix memo instead of re-executing it (see
    /// [`crate::cache`]). Statistics are unchanged except for the
    /// `executions` / `cache_hits` / `cache_bytes` counters. Other
    /// techniques ignore the flag (plain DFS is a single level, so there is
    /// no covered interior to skip).
    pub cache: bool,
    /// Memory cap for the schedule cache (estimated bytes); once reached the
    /// cache stops growing and misses execute for real.
    pub cache_max_bytes: u64,
    /// Worker threads for the work-stealing frontier *within* one systematic
    /// search or bound level (see [`crate::steal`]). `1` keeps exploration
    /// serial; any higher count produces bit-identical statistics.
    /// Randomised techniques ignore the flag.
    pub steal_workers: usize,
    /// Campaign mode: a schedule cache shared across the techniques of one
    /// benchmark (and, when resuming, pre-loaded from a persistent corpus —
    /// see [`crate::corpus`]). When set, the systematic searches (DFS, IPB,
    /// IDB) walk and grow this cache instead of a private per-run one, and
    /// report cache counters through a per-search view of it that starts
    /// from the load-time trie, so the statistics depend only on the loaded
    /// trie and the search's own visit order. Takes precedence over `cache`.
    pub shared_cache: Option<Arc<SharedCache>>,
    /// Telemetry handle (see [`crate::telemetry`]). Off by default; when on,
    /// the fold emits bound-level, progress, cache and bug-discovery events.
    /// Telemetry is observation-only — it never changes statistics, digests
    /// or search order.
    pub telemetry: Telemetry,
    /// Wall-clock budget for one technique run. `None` (the default) means
    /// unbounded. The deadline is checked cooperatively at schedule
    /// boundaries; when it expires the search stops with `deadline_exceeded`
    /// set and its partial statistics intact. Unlike the schedule limit this
    /// makes the *stopping point* timing-dependent, so a run is only
    /// reproducible when the budget never actually fires — which is why
    /// `deadline_exceeded`, like the wall-clock stamps, is excluded from
    /// statistics equality.
    pub time_budget: Option<Duration>,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            schedule_limit: 10_000,
            max_bound: 64,
            por: false,
            cache: false,
            cache_max_bytes: cache::DEFAULT_CACHE_BYTES,
            steal_workers: 1,
            shared_cache: None,
            telemetry: Telemetry::off(),
            time_budget: None,
        }
    }
}

impl ExploreLimits {
    /// Limits with the given schedule budget and the default maximum bound.
    pub fn with_schedule_limit(schedule_limit: u64) -> Self {
        ExploreLimits {
            schedule_limit,
            ..Default::default()
        }
    }

    /// The same limits with sleep-set partial-order reduction switched on
    /// (or off).
    pub fn with_por(self, por: bool) -> Self {
        ExploreLimits { por, ..self }
    }

    /// The same limits with the iterative-bounding schedule cache switched
    /// on (or off).
    pub fn with_cache(self, cache: bool) -> Self {
        ExploreLimits { cache, ..self }
    }

    /// The same limits with the within-bound work-stealing frontier set to
    /// `steal_workers` threads (`1` disables it).
    pub fn with_steal_workers(self, steal_workers: usize) -> Self {
        ExploreLimits {
            steal_workers: steal_workers.max(1),
            ..self
        }
    }

    /// The same limits with campaign mode switched on: the systematic
    /// searches share (and grow) the given cache — typically loaded from a
    /// persistent corpus — instead of building private ones.
    pub fn with_shared_cache(self, shared_cache: Option<Arc<SharedCache>>) -> Self {
        ExploreLimits {
            shared_cache,
            ..self
        }
    }

    /// The same limits with the given telemetry handle attached.
    pub fn with_telemetry(self, telemetry: Telemetry) -> Self {
        ExploreLimits { telemetry, ..self }
    }

    /// The same limits with the given wall-clock budget (`None` disables it).
    pub fn with_time_budget(self, time_budget: Option<Duration>) -> Self {
        ExploreLimits {
            time_budget,
            ..self
        }
    }
}

/// The techniques compared in the study (plus PCT as an ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Unbounded depth-first search ("DFS").
    Dfs,
    /// Iterative preemption bounding ("IPB").
    IterativePreemptionBounding,
    /// Iterative delay bounding ("IDB").
    IterativeDelayBounding,
    /// Naive random scheduler ("Rand"); runs `schedule_limit` executions.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// PCT with bug-depth parameter `depth`; runs `schedule_limit` executions.
    Pct {
        /// Bug-depth parameter `d`.
        depth: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Simplified Maple algorithm; terminates by its own heuristics.
    MapleLike {
        /// Number of profiling runs before the active phase.
        profiling_runs: u64,
        /// RNG seed.
        seed: u64,
    },
}

impl Technique {
    /// The study's label for this technique.
    pub fn label(&self) -> &'static str {
        match self {
            Technique::Dfs => "DFS",
            Technique::IterativePreemptionBounding => "IPB",
            Technique::IterativeDelayBounding => "IDB",
            Technique::Random { .. } => "Rand",
            Technique::Pct { .. } => "PCT",
            Technique::MapleLike { .. } => "MapleAlg",
        }
    }

    /// The five standard techniques of the study, in Table 3 column order.
    pub fn study_suite(seed: u64) -> Vec<Technique> {
        vec![
            Technique::IterativePreemptionBounding,
            Technique::IterativeDelayBounding,
            Technique::Dfs,
            Technique::Random { seed },
            Technique::MapleLike {
                profiling_runs: 10,
                seed,
            },
        ]
    }
}

/// One completed schedule, as a producer hands it to the fold.
pub(crate) struct Visit {
    /// How the schedule ended: its outcome, or its digest (served from a
    /// cache, or condensed by a stealing worker for the trip to the fold).
    pub run: ScheduleRun,
    /// Sleep-blocked completion: covered by another schedule, never counted.
    pub redundant: bool,
    /// Executed for real (`false`: served from a schedule cache).
    pub executed: bool,
    /// Bound cost of the schedule under the search's bound kind.
    pub cost: u32,
    /// Sleep-set prunes recorded while the schedule ran.
    pub ran_pruned_by_sleep: u64,
    /// Bound exclusions recorded while the schedule ran.
    pub ran_bound_prunes: u64,
    /// What the fold inserts into the search's trie, and the path a view
    /// walks (only when a trie is walked).
    pub footprint: Option<Footprint>,
}

/// A source of completed schedules in serial visit order.
pub(crate) trait Producer {
    /// Begin the next schedule: the sleep-set insertions of the backtrack
    /// that chose it, or `None` once the producer has nothing left.
    fn begin(&mut self) -> Option<u64>;

    /// Complete the schedule [`Producer::begin`] just began. Producers that
    /// run schedules on the calling thread walk `trie`; none writes it.
    fn run(&mut self, trie: Option<Walker<'_>>) -> Visit;

    /// Whether running out of schedules proves the space covered.
    fn covered(&self) -> bool {
        true
    }

    /// Whether the producer can cover its space at all. Only such producers
    /// are probed at the schedule limit, so a randomised technique's
    /// executions stay an exact function of its budget.
    fn can_exhaust(&self) -> bool {
        true
    }
}

/// A bounded DFS run inline on the calling thread. Each stealing worker
/// drives one over the subtrees it claims, so this is the one place a visit
/// is built from a begun schedule.
pub(crate) struct SerialDfs<'e, 'p> {
    pub dfs: BoundedDfs,
    pub exec: &'e mut Execution<'p>,
    pub kind: BoundKind,
}

impl Producer for SerialDfs<'_, '_> {
    fn begin(&mut self) -> Option<u64> {
        let slept = self.dfs.slept();
        self.dfs.begin_execution().then(|| self.dfs.slept() - slept)
    }

    fn run(&mut self, trie: Option<Walker<'_>>) -> Visit {
        let dfs = &mut self.dfs;
        let (pruned, bound_prunes) = (dfs.pruned_by_sleep(), dfs.bound_prune_count());
        let (run, footprint) = cache::complete(self.exec, dfs, trie);
        Visit {
            cost: run.cost(self.kind),
            executed: matches!(run, ScheduleRun::Executed(_)),
            run,
            redundant: dfs.current_execution_redundant(),
            ran_pruned_by_sleep: dfs.pruned_by_sleep() - pruned,
            ran_bound_prunes: dfs.bound_prune_count() - bound_prunes,
            footprint,
        }
    }
}

/// Any [`Scheduler`], run inline without a cache.
struct SchedulerProducer<'s, 'e, 'p> {
    scheduler: &'s mut dyn Scheduler,
    exec: &'e mut Execution<'p>,
}

impl Producer for SchedulerProducer<'_, '_, '_> {
    fn begin(&mut self) -> Option<u64> {
        let (slept, _) = self.scheduler.sleep_counters();
        let more = self.scheduler.begin_execution();
        more.then(|| self.scheduler.sleep_counters().0 - slept)
    }

    fn run(&mut self, _trie: Option<Walker<'_>>) -> Visit {
        let (_, pruned) = self.scheduler.sleep_counters();
        self.exec.reset();
        let outcome = self
            .exec
            .run(&mut |p| self.scheduler.choose(p), &mut NoopObserver);
        self.scheduler.end_execution(&outcome);
        Visit {
            run: ScheduleRun::Executed(outcome),
            redundant: self.scheduler.current_execution_redundant(),
            executed: true,
            cost: 0,
            ran_pruned_by_sleep: self.scheduler.sleep_counters().1 - pruned,
            ran_bound_prunes: 0,
            footprint: None,
        }
    }

    fn covered(&self) -> bool {
        self.scheduler.is_exhaustive()
    }

    fn can_exhaust(&self) -> bool {
        self.scheduler.can_exhaust()
    }
}

/// The schedule trie one search walks, and with it the rule that charges
/// executions — decided once, when the search starts.
enum Trie<'a> {
    /// No cache: every schedule executes.
    Off,
    /// A trie private to this search (serial or stolen); its own bytes and
    /// fullness are exact.
    Private(&'a RwLock<ScheduleCache>),
    /// The campaign arena, shared with the benchmark's other searches and
    /// charged through this search's view.
    Corpus(&'a SharedCache, View),
}

impl<'a> Trie<'a> {
    fn new(corpus: Option<&'a SharedCache>, private: Option<&'a RwLock<ScheduleCache>>) -> Self {
        match (corpus, private) {
            (Some(shared), _) => Trie::Corpus(shared, shared.view()),
            (None, Some(lock)) => Trie::Private(lock),
            (None, None) => Trie::Off,
        }
    }

    /// How producers, on this thread or as stealing workers, walk the trie.
    fn walker(&self) -> Option<Walker<'a>> {
        let (trie, arena) = match self {
            Trie::Off => return None,
            Trie::Private(trie) => (*trie, false),
            Trie::Corpus(shared, _) => (shared.live(), true),
        };
        Some(Walker { trie, arena })
    }

    /// Insert `visit`'s footprint; whether it counts as an execution. A
    /// private trie's own walk decides: a level visits each path once, and
    /// every earlier level's inserts landed before the level began, so even
    /// a stealing worker's walk misses exactly when the serial one would.
    fn fold(&mut self, visit: &mut Visit) -> bool {
        let Some(Footprint { path, suffix }) = visit.footprint.take() else {
            return visit.executed;
        };
        let digest = || visit.run.digest();
        match self {
            Trie::Private(lock) => {
                if let Some(suffix) = suffix {
                    cache::write(lock).insert(&path, suffix, digest(), true);
                }
                visit.executed
            }
            Trie::Corpus(shared, view) => {
                if let (false, Some(suffix)) = (view.full, suffix) {
                    cache::write(shared.live()).insert(&path, suffix, digest(), false);
                }
                !shared.with_live(|arena| view.apply(arena, &path))
            }
            Trie::Off => visit.executed,
        }
    }

    /// `(bytes, full)` so far.
    fn bytes(&self) -> (u64, bool) {
        match self {
            Trie::Off => (0, false),
            Trie::Private(lock) => {
                let trie = cache::read(lock);
                (trie.bytes, trie.full)
            }
            Trie::Corpus(_, view) => (view.bytes, view.full),
        }
    }
}

/// How one search — a whole single search, or one bound level — ended.
#[derive(Default)]
struct Searched {
    /// The producer ran out of schedules, proving its space covered.
    covered: bool,
    /// Schedules counted.
    counted: u64,
    /// Whether the bound excluded any alternative.
    bound_pruned: bool,
}

/// The one fold every search goes through (see the module docs).
struct Fold<'a> {
    stats: ExplorationStats,
    limits: &'a ExploreLimits,
    program: &'a str,
    started: Instant,
    deadline: Option<Instant>,
    trie: Trie<'a>,
    /// Terminal digests of the counted schedules, when the caller wants them.
    digests: Option<Vec<TerminalDigest>>,
    /// Whether `cache_degraded` was emitted (at most once per technique).
    degraded: bool,
}

impl<'a> Fold<'a> {
    fn new(
        technique: String,
        program: &'a Program,
        limits: &'a ExploreLimits,
        trie: Trie<'a>,
        digests: bool,
    ) -> Self {
        let started = Instant::now();
        Fold {
            stats: ExplorationStats::new(technique),
            limits,
            program: &program.name,
            started,
            // A budget too large to represent as an instant can never fire.
            deadline: limits.time_budget.and_then(|b| started.checked_add(b)),
            trie,
            digests: digests.then(Vec::new),
            degraded: false,
        }
    }

    /// Whether the wall-clock budget has run out. The clock is only read
    /// when a budget was set.
    fn deadline_fired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Fold `producer` until it runs out, the schedule limit fills or the
    /// deadline fires. A bound level (`level = Some(bound)`) counts only the
    /// schedules whose cost is exactly its bound (every schedule at bound
    /// 0): the cheaper ones were counted at earlier levels, and are only
    /// re-traversed to reach the new ones (§2 of the paper).
    fn search(&mut self, producer: &mut dyn Producer, level: Option<u32>) -> Searched {
        let mut searched = Searched::default();
        while self.stats.schedules < self.limits.schedule_limit {
            if self.deadline_fired() {
                self.stats.deadline_exceeded = true;
                break;
            }
            let Some(slept) = producer.begin() else {
                searched.covered = producer.covered();
                break;
            };
            self.stats.slept += slept;
            crate::fault::schedule_boundary(self.program);
            let visit = self.run(producer);
            searched.bound_pruned |= visit.ran_bound_prunes > 0;
            if visit.redundant || level.is_some_and(|b| b != 0 && visit.cost != b) {
                continue;
            }
            searched.counted += 1;
            let prev = self.stats.schedules_to_first_bug;
            match &visit.run {
                ScheduleRun::Executed(outcome) => self.stats.record(outcome),
                ScheduleRun::Served(digest) => digest.record_into(&mut self.stats),
            }
            self.note_first_bug(prev);
            if let Some(digests) = &mut self.digests {
                digests.push(visit.run.digest());
            }
        }
        searched
    }

    /// Complete the schedule `producer` just began, charging its execution
    /// and run-phase counters.
    fn run(&mut self, producer: &mut dyn Producer) -> Visit {
        let mut visit = producer.run(self.trie.walker());
        self.stats.pruned_by_sleep += visit.ran_pruned_by_sleep;
        if self.trie.fold(&mut visit) {
            self.stats.executions += 1;
        } else {
            self.stats.cache_hits += 1;
        }
        self.limits.telemetry.progress(|| Event::Progress {
            program: self.program.to_string(),
            technique: self.stats.technique.clone(),
            schedules: self.stats.schedules,
            executions: self.stats.executions,
            cache_hits: self.stats.cache_hits,
        });
        visit
    }

    /// Emit [`Event::BugFound`] when the last record found the first bug
    /// (`prev` is `schedules_to_first_bug` before it).
    fn note_first_bug(&self, prev: Option<u64>) {
        let (None, Some(schedule)) = (prev, self.stats.schedules_to_first_bug) else {
            return;
        };
        self.limits.telemetry.emit(|| Event::BugFound {
            program: self.program.to_string(),
            technique: self.stats.technique.clone(),
            bug: self
                .stats
                .first_bug
                .as_ref()
                .map(|b| b.to_string())
                .unwrap_or_default(),
            schedule,
        });
    }

    /// Emit [`Event::CacheDegraded`] the first time the trie is full.
    fn note_degraded(&mut self) {
        let (bytes, full) = self.trie.bytes();
        if full && !self.degraded {
            self.degraded = true;
            self.limits.telemetry.emit(|| Event::CacheDegraded {
                program: self.program.to_string(),
                technique: self.stats.technique.clone(),
                bytes,
                max_bytes: self.limits.cache_max_bytes,
            });
        }
    }

    /// Fold a whole search and decide how it ended.
    fn single(&mut self, producer: &mut dyn Producer) {
        let limit = self.limits.schedule_limit;
        let mut covered = self.search(producer, None).covered;
        if !covered && self.stats.schedules >= limit && producer.can_exhaust() {
            // The budget filled on the last schedule, before the search could
            // learn its space was empty: probe by beginning one more. Under
            // sleep sets what remains may be only *redundant* completions,
            // which never count, so drain those — at most the limit again;
            // an unresolved drain conservatively reports truncation.
            let mut drain_budget = limit;
            loop {
                let Some(slept) = producer.begin() else {
                    covered = producer.covered();
                    break;
                };
                self.stats.slept += slept;
                if !self.limits.por || drain_budget == 0 {
                    break;
                }
                drain_budget -= 1;
                if !self.run(producer).redundant {
                    break;
                }
            }
        }
        self.stats.complete = covered;
        // A search that covers its whole space at exactly the limit is
        // complete, not cut short; reporting both would make rows ambiguous.
        self.stats.hit_schedule_limit = self.stats.schedules >= limit && !covered;
        self.note_degraded();
    }

    /// Fold bound level `bound` of iterative bounding; `true` once the
    /// search stops.
    fn level(&mut self, producer: &mut dyn Producer, bound: u32) -> bool {
        let base = (
            self.stats.schedules,
            self.stats.executions,
            self.stats.cache_hits,
        );
        let level = self.search(producer, Some(bound));
        self.stats.final_bound = Some(bound);
        self.stats.new_schedules_at_final_bound = level.counted;
        self.limits.telemetry.emit(|| Event::BoundLevel {
            program: self.program.to_string(),
            technique: self.stats.technique.clone(),
            bound: bound as u64,
            schedules: self.stats.schedules - base.0,
            executions: self.stats.executions - base.1,
            cache_hits: self.stats.cache_hits - base.2,
            new_at_bound: level.counted,
        });
        self.note_degraded();
        let stats = &mut self.stats;
        if stats.found_bug() && stats.bound_of_first_bug.is_none() {
            stats.bound_of_first_bug = Some(bound);
        }
        if stats.deadline_exceeded {
            // The wall clock, not the search, ended this level: claim
            // neither completion, truncation nor bound exhaustion.
            return true;
        }
        let at_limit = stats.schedules >= self.limits.schedule_limit;
        if at_limit && !level.covered {
            stats.hit_schedule_limit = true;
            return true;
        }
        if stats.found_bug() {
            // The paper completes the bound at which the bug was found (to
            // enable the worst-case analysis of Figure 4) and then stops.
            return true;
        }
        if level.covered && !level.bound_pruned {
            // Nothing was pruned: every terminal schedule has been explored.
            stats.complete = true;
            return true;
        }
        stats.hit_schedule_limit = at_limit;
        at_limit
    }

    fn finish(mut self) -> (ExplorationStats, Vec<TerminalDigest>) {
        self.stats.cache_bytes = self.trie.bytes().0;
        self.stats.explore_nanos = self.started.elapsed().as_nanos() as u64;
        (self.stats, self.digests.unwrap_or_default())
    }
}

/// Run `scheduler` against `program` until it stops or the schedule limit is
/// reached.
pub fn explore_with(
    program: &Program,
    config: &ExecConfig,
    scheduler: &mut dyn Scheduler,
    limits: &ExploreLimits,
) -> ExplorationStats {
    let label = scheduler.name();
    explore_labelled(program, config, scheduler, limits, label)
}

/// [`explore_with`], with the statistics and every event labelled `label`.
fn explore_labelled(
    program: &Program,
    config: &ExecConfig,
    scheduler: &mut dyn Scheduler,
    limits: &ExploreLimits,
    label: String,
) -> ExplorationStats {
    // One execution for the whole exploration: `reset` rewinds it in place,
    // so the hot loop performs no per-schedule allocation or config clone.
    let mut exec = Execution::new_shared(program, config);
    let mut fold = Fold::new(label, program, limits, Trie::Off, false);
    fold.single(&mut SchedulerProducer {
        scheduler,
        exec: &mut exec,
    });
    fold.finish().0
}

/// Whether a bounded DFS of `kind` is split across stealing workers: more
/// than one worker, and donation is sound — sleep sets off, or a policy that
/// cannot prune (see [`crate::steal`]).
fn steals(kind: BoundKind, limits: &ExploreLimits) -> bool {
    limits.steal_workers > 1 && (!limits.por || !kind.policy().can_prune())
}

/// One bounded DFS, stolen or serial, with the counted schedules' digests
/// when `digests` is set. In campaign mode it walks the shared corpus. It is
/// labelled `label`, or with the DFS's own name when that is `None`.
pub(crate) fn bounded_search(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    bound: u32,
    limits: &ExploreLimits,
    digests: bool,
    label: Option<&str>,
) -> (ExplorationStats, Vec<TerminalDigest>) {
    let dfs = BoundedDfs::new(kind.policy(), bound).with_sleep_sets(limits.por);
    let label = label.map_or_else(|| dfs.name(), str::to_string);
    let trie = Trie::new(limits.shared_cache.as_deref(), None);
    let mut fold = Fold::new(label, program, limits, trie, digests);
    if steals(kind, limits) {
        let trie = fold.trie.walker();
        crate::steal::with_engine(program, config, kind, bound, limits, trie, |p| {
            fold.single(p)
        });
    } else {
        let mut exec = Execution::new_shared(program, config);
        fold.single(&mut SerialDfs {
            dfs,
            exec: &mut exec,
            kind,
        });
    }
    fold.finish()
}

/// Depth-first search bounded by `bound` under the given bound kind. The
/// statistics' `final_bound` is set to `bound`.
pub fn bounded_dfs(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    bound: u32,
    limits: &ExploreLimits,
) -> ExplorationStats {
    let (mut stats, _) = bounded_search(program, config, kind, bound, limits, false, None);
    stats.final_bound = Some(bound);
    if stats.found_bug() {
        stats.bound_of_first_bug = Some(bound);
    }
    stats
}

/// Iterative schedule bounding (§2, "Iterative schedule bounding"): explore
/// all schedules with bound 0, then bound 1, and so on, until a bug is found
/// (the current bound is still completed), the schedule limit is reached, or
/// the whole schedule space has been covered. A run that climbs through
/// every bound up to `max_bound` without reaching any of those outcomes is
/// reported as `bound_exhausted` — explicitly distinct from both a truncated
/// and a completed search.
///
/// Each iteration restarts the bounded DFS from scratch, so schedules with a
/// cost below the current bound are re-visited; the `new_schedules_at_final_bound`
/// statistic counts only the schedules whose cost equals the final bound,
/// matching the "# new schedules" column of Table 3. With `limits.cache` the
/// re-visited interior is served from a decision-prefix memo instead of
/// being re-executed (see [`crate::cache`]); the statistics are identical
/// either way, except that `executions` shrinks by `cache_hits`.
pub fn iterative_bounding(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    limits: &ExploreLimits,
) -> ExplorationStats {
    let label = match kind {
        BoundKind::Preemption => "IPB",
        BoundKind::Delay => "IDB",
        BoundKind::None => "DFS",
    };
    let stealing = steals(kind, limits);
    let private = (limits.cache && limits.shared_cache.is_none())
        .then(|| RwLock::new(ScheduleCache::new(limits.cache_max_bytes)));
    let trie = Trie::new(limits.shared_cache.as_deref(), private.as_ref());
    let mut fold = Fold::new(label.to_string(), program, limits, trie, false);
    let mut exec = Execution::new_shared(program, config);
    let mut stopped = false;
    for bound in 0..=limits.max_bound {
        stopped = if stealing {
            let trie = fold.trie.walker();
            crate::steal::with_engine(program, config, kind, bound, limits, trie, |p| {
                fold.level(p, bound)
            })
        } else {
            let dfs = BoundedDfs::new(kind.policy(), bound).with_sleep_sets(limits.por);
            fold.level(
                &mut SerialDfs {
                    dfs,
                    exec: &mut exec,
                    kind,
                },
                bound,
            )
        };
        if stopped {
            break;
        }
    }
    // Falling out of the bound loop means every level up to `max_bound` ran
    // without a bug, without covering the space and without exhausting the
    // budget: the search gave up on bounds, not on schedules.
    fold.stats.bound_exhausted = !stopped;
    fold.finish().0
}

/// Run one of the study's techniques with its standard configuration. The
/// statistics and every event of the run carry [`Technique::label`].
pub fn run_technique(
    program: &Program,
    config: &ExecConfig,
    technique: Technique,
    limits: &ExploreLimits,
) -> ExplorationStats {
    let started = Instant::now();
    let label = technique.label();
    let mut stats = match technique {
        Technique::Dfs => {
            let kind = BoundKind::None;
            bounded_search(program, config, kind, u32::MAX, limits, false, Some(label)).0
        }
        Technique::IterativePreemptionBounding => {
            iterative_bounding(program, config, BoundKind::Preemption, limits)
        }
        Technique::IterativeDelayBounding => {
            iterative_bounding(program, config, BoundKind::Delay, limits)
        }
        Technique::Random { seed } => {
            let mut scheduler = RandomScheduler::new(limits.schedule_limit, seed);
            explore_labelled(program, config, &mut scheduler, limits, label.to_string())
        }
        Technique::Pct { depth, seed } => {
            let mut scheduler = PctScheduler::new(limits.schedule_limit, depth, seed);
            explore_labelled(program, config, &mut scheduler, limits, label.to_string())
        }
        Technique::MapleLike {
            profiling_runs,
            seed,
        } => {
            let mut scheduler = MapleLikeScheduler::new(profiling_runs, seed);
            explore_labelled(program, config, &mut scheduler, limits, label.to_string())
        }
    };
    // The outermost stamp wins: it covers dispatch plus the driver, so every
    // caller of `run_technique` sees the full wall-clock cost.
    stats.explore_nanos = started.elapsed().as_nanos() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_ir::prelude::*;

    /// Figure 1 of the paper: the bug needs one preemption (or one delay).
    fn figure1() -> Program {
        let mut p = ProgramBuilder::new("figure1");
        let x = p.global("x", 0);
        let y = p.global("y", 0);
        let z = p.global("z", 0);
        let t1 = p.thread("t1", |b| {
            b.store(x, 1);
            b.store(y, 1);
        });
        let t2 = p.thread("t2", |b| {
            b.store(z, 1);
        });
        let t3 = p.thread("t3", |b| {
            let rx = b.local("rx");
            let ry = b.local("ry");
            b.load(x, rx);
            b.load(y, ry);
            b.assert_cond(eq(rx, ry), "x == y");
        });
        p.main(|b| {
            b.spawn(t1);
            b.spawn(t2);
            b.spawn(t3);
        });
        p.build().unwrap()
    }

    /// Example 2 of the paper: duplicate T1's statements in a second thread
    /// so that delay bounding needs two delays while preemption bounding
    /// still needs only one preemption.
    fn figure1_adversarial() -> Program {
        let mut p = ProgramBuilder::new("figure1-adversarial");
        let x = p.global("x", 0);
        let y = p.global("y", 0);
        let writer = p.thread("writer", |b| {
            b.store(x, 1);
            b.store(y, 1);
        });
        let t3 = p.thread("t3", |b| {
            let rx = b.local("rx");
            let ry = b.local("ry");
            b.load(x, rx);
            b.load(y, ry);
            b.assert_cond(eq(rx, ry), "x == y");
        });
        p.main(|b| {
            b.spawn(writer);
            b.spawn(writer);
            b.spawn(t3);
        });
        p.build().unwrap()
    }

    fn config() -> ExecConfig {
        ExecConfig::all_visible()
    }

    fn limits() -> ExploreLimits {
        ExploreLimits::with_schedule_limit(10_000)
    }

    #[test]
    fn iterative_delay_bounding_finds_figure1_at_bound_one() {
        let stats = iterative_bounding(&figure1(), &config(), BoundKind::Delay, &limits());
        assert!(stats.found_bug());
        assert_eq!(stats.bound_of_first_bug, Some(1));
        assert!(stats.new_schedules_at_final_bound > 0);
        assert!(stats.buggy_schedules >= 1);
    }

    #[test]
    fn iterative_preemption_bounding_finds_figure1_at_bound_one() {
        let stats = iterative_bounding(&figure1(), &config(), BoundKind::Preemption, &limits());
        assert!(stats.found_bug());
        assert_eq!(stats.bound_of_first_bug, Some(1));
    }

    #[test]
    fn dfs_also_finds_the_bug_eventually() {
        let stats = run_technique(&figure1(), &config(), Technique::Dfs, &limits());
        assert!(stats.found_bug());
        assert!(stats.complete, "figure1's schedule space is small");
    }

    #[test]
    fn random_finds_the_bug_within_the_budget() {
        let stats = run_technique(
            &figure1(),
            &config(),
            Technique::Random { seed: 1 },
            &ExploreLimits::with_schedule_limit(2_000),
        );
        assert!(stats.found_bug());
        assert!(stats.schedules <= 2_000);
    }

    #[test]
    fn adversarial_example_needs_two_delays_but_one_preemption() {
        // Example 2 (§2): the duplicated writer pushes the required delay
        // bound to 2 while the preemption bound stays at 1.
        let prog = figure1_adversarial();
        let pb = iterative_bounding(&prog, &config(), BoundKind::Preemption, &limits());
        let db = iterative_bounding(&prog, &config(), BoundKind::Delay, &limits());
        assert_eq!(pb.bound_of_first_bug, Some(1));
        assert_eq!(db.bound_of_first_bug, Some(2));
    }

    #[test]
    fn technique_labels_and_suite() {
        assert_eq!(Technique::Dfs.label(), "DFS");
        assert_eq!(Technique::IterativeDelayBounding.label(), "IDB");
        let suite = Technique::study_suite(3);
        assert_eq!(suite.len(), 5);
        assert_eq!(suite[0].label(), "IPB");
        assert_eq!(suite[4].label(), "MapleAlg");
    }

    #[test]
    fn schedule_limit_is_respected() {
        let stats = run_technique(
            &figure1(),
            &config(),
            Technique::Random { seed: 9 },
            &ExploreLimits::with_schedule_limit(17),
        );
        assert_eq!(stats.schedules, 17);
        assert!(stats.hit_schedule_limit);
    }

    #[test]
    fn iterative_bounding_reports_completion_on_tiny_programs() {
        // A single-threaded program has exactly one schedule; bound 0 covers
        // everything and the search reports completeness.
        let mut p = ProgramBuilder::new("single");
        let x = p.global("x", 0);
        p.main(|b| {
            b.store(x, 1);
        });
        let prog = p.build().unwrap();
        let stats = iterative_bounding(&prog, &config(), BoundKind::Delay, &limits());
        assert!(stats.complete);
        assert!(!stats.found_bug());
        assert_eq!(stats.schedules, 1);
    }

    /// The statistics with the execution/cache counters cleared, for
    /// comparing a cached against an uncached run (those counters are the
    /// only fields the cache is *supposed* to change).
    fn sans_cache_counters(mut stats: ExplorationStats) -> ExplorationStats {
        stats.executions = 0;
        stats.cache_hits = 0;
        stats.cache_bytes = 0;
        stats
    }

    #[test]
    fn cached_iterative_bounding_matches_uncached_with_fewer_executions() {
        for prog in [figure1(), figure1_adversarial()] {
            for kind in [BoundKind::Preemption, BoundKind::Delay] {
                let uncached = iterative_bounding(&prog, &config(), kind, &limits());
                let cached = iterative_bounding(&prog, &config(), kind, &limits().with_cache(true));
                assert_eq!(
                    sans_cache_counters(uncached.clone()),
                    sans_cache_counters(cached.clone()),
                    "{kind:?}: caching changed the exploration statistics"
                );
                assert!(uncached.cache_hits == 0 && uncached.cache_bytes == 0);
                assert!(cached.cache_hits > 0, "{kind:?}: interior never hit");
                assert!(cached.cache_bytes > 0);
                assert_eq!(
                    cached.executions + cached.cache_hits,
                    uncached.executions,
                    "{kind:?}: every skipped execution must be a cache hit"
                );
                assert!(
                    cached.executions < uncached.executions,
                    "{kind:?}: caching saved nothing"
                );
            }
        }
    }

    #[test]
    fn cached_iterative_bounding_composes_with_sleep_sets() {
        let prog = figure1();
        for kind in [BoundKind::Preemption, BoundKind::Delay] {
            let uncached = iterative_bounding(&prog, &config(), kind, &limits().with_por(true));
            let cached = iterative_bounding(
                &prog,
                &config(),
                kind,
                &limits().with_por(true).with_cache(true),
            );
            assert_eq!(
                sans_cache_counters(uncached.clone()),
                sans_cache_counters(cached),
                "{kind:?}: caching changed the POR exploration statistics"
            );
        }
    }

    #[test]
    fn cached_iterative_bounding_respects_budget_truncation() {
        let prog = figure1();
        for limit in [1u64, 2, 3, 5, 8] {
            let lim = ExploreLimits::with_schedule_limit(limit);
            let uncached = iterative_bounding(&prog, &config(), BoundKind::Delay, &lim);
            let cached =
                iterative_bounding(&prog, &config(), BoundKind::Delay, &lim.with_cache(true));
            assert_eq!(
                sans_cache_counters(uncached),
                sans_cache_counters(cached),
                "limit {limit}"
            );
        }
    }

    #[test]
    fn exhausting_the_space_at_exactly_the_limit_is_complete_not_truncated() {
        // First learn the exact size of figure1's unbounded DFS space, then
        // re-run with the limit set to precisely that size: the search is
        // complete, and must not also claim it was cut short.
        let full = run_technique(&figure1(), &config(), Technique::Dfs, &limits());
        assert!(full.complete && !full.hit_schedule_limit);
        let n = full.schedules;

        let exact = run_technique(
            &figure1(),
            &config(),
            Technique::Dfs,
            &ExploreLimits::with_schedule_limit(n),
        );
        assert_eq!(exact.schedules, n);
        assert!(exact.complete, "space exhausted at exactly the limit");
        assert!(
            !exact.hit_schedule_limit,
            "a complete search must not be reported as truncated"
        );

        let truncated = run_technique(
            &figure1(),
            &config(),
            Technique::Dfs,
            &ExploreLimits::with_schedule_limit(n - 1),
        );
        assert!(!truncated.complete);
        assert!(truncated.hit_schedule_limit);
    }

    #[test]
    fn por_search_exhausted_at_exactly_the_limit_is_complete() {
        // Sleep-set reduction can leave *redundant* (uncounted) completions
        // at the tail of the backtrack order. A budget that fills on the
        // last counted schedule must still report completeness: the probe
        // drains trailing redundant runs instead of mistaking them for
        // remaining countable work.
        for prog in [figure1(), figure1_adversarial()] {
            let por = limits().with_por(true);
            let full = run_technique(&prog, &config(), Technique::Dfs, &por);
            assert!(full.complete && !full.hit_schedule_limit);
            let n = full.schedules;

            let exact = run_technique(
                &prog,
                &config(),
                Technique::Dfs,
                &ExploreLimits::with_schedule_limit(n).with_por(true),
            );
            assert_eq!(exact.schedules, n);
            assert!(
                exact.complete,
                "POR space exhausted at exactly the limit must be complete"
            );
            assert!(!exact.hit_schedule_limit);
            // The drain runs any trailing redundant completions, so the
            // execution count matches the unconstrained run exactly.
            assert_eq!(exact.executions, full.executions);
        }
    }

    #[test]
    fn non_exhaustible_schedulers_are_never_probed_at_the_limit() {
        // Rand/PCT/MapleAlg can never prove their space covered, so probing
        // them at the limit would only burn (and then discard) executions —
        // and make the execution count depend on how a budget was sharded.
        // Their executions must remain an exact function of the schedules
        // they ran, POR flag or not.
        for por in [false, true] {
            for technique in [
                Technique::Random { seed: 3 },
                Technique::Pct { depth: 2, seed: 3 },
                Technique::MapleLike {
                    profiling_runs: 2,
                    seed: 3,
                },
            ] {
                let stats = run_technique(
                    &figure1(),
                    &config(),
                    technique,
                    &ExploreLimits::with_schedule_limit(3).with_por(por),
                );
                assert_eq!(
                    stats.executions, stats.schedules,
                    "{technique:?} por={por}: probe executed discarded work"
                );
                assert!(!stats.complete);
            }
        }
    }

    #[test]
    fn running_out_of_bounds_is_reported_explicitly() {
        // figure1 needs bound 1 for its bug; capping max_bound at 0 makes
        // iterative bounding walk every level (just the one) and give up:
        // not complete, not truncated — bound-exhausted.
        let lim = ExploreLimits {
            max_bound: 0,
            ..limits()
        };
        let stats = iterative_bounding(&figure1(), &config(), BoundKind::Delay, &lim);
        assert!(!stats.found_bug());
        assert!(!stats.complete);
        assert!(!stats.hit_schedule_limit);
        assert!(stats.bound_exhausted, "gave up on bounds, and must say so");
        assert_eq!(stats.final_bound, Some(0));

        // With enough bounds the flag stays off in every stopping case.
        let found = iterative_bounding(&figure1(), &config(), BoundKind::Delay, &limits());
        assert!(found.found_bug() && !found.bound_exhausted);
    }

    #[test]
    fn pct_with_depth_two_finds_the_single_preemption_bug() {
        let stats = run_technique(
            &figure1(),
            &config(),
            Technique::Pct { depth: 2, seed: 5 },
            &ExploreLimits::with_schedule_limit(2_000),
        );
        assert!(stats.found_bug());
    }
}
