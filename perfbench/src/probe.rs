//! Probes that measure the scheduler, runtime and cache layers from outside
//! the engine, the replica drivers that carry them, and the span log the
//! traced run writes.
//!
//! The engine's drivers own their schedulers, so the scheduler and runtime
//! can only be timed by a driver the benchmark runs itself. The replicas
//! below re-drive each unit from public parts — `BoundedDfs` levels with
//! `iterative_bounding`'s stop rules, `explore_with` for the randomised
//! techniques, `cache::run_begun_schedule` where the workload caches — and
//! the traced run checks that every replica reproduces its untraced unit's
//! schedules and executions, so the probes time the same work.

use sct_core::cache::{self, CacheHandle, ScheduleRun};
use sct_core::telemetry::{json_string, Event, Recorder};
use sct_core::{
    explore_with, BoundKind, BoundedDfs, ExplorationStats, ExploreLimits, MapleLikeScheduler,
    PctScheduler, RandomScheduler, ScheduleCache, Scheduler, Technique,
};
use sct_ir::Program;
use sct_runtime::{
    ExecConfig, Execution, ExecutionOutcome, NoopObserver, SchedulingPoint, ThreadId,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Counters and busy times gathered by the probes.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    pub begin_ns: u64,
    pub choose_ns: u64,
    pub end_ns: u64,
    /// From `begin_execution` returning to `end_execution` being called:
    /// the runtime's reset and run, including the `choose` calls it makes.
    pub run_ns: u64,
    pub choose_calls: u64,
    /// `choose` calls with more than one enabled thread.
    pub choice_calls: u64,
    pub executions: u64,
    pub steps: u64,
    /// Schedules served from the trie, and the time spent serving them.
    pub served: u64,
    pub served_ns: u64,
    /// Time of cached-driver schedules that missed and executed: the trie
    /// walk, the run (with its `choose` calls) and the insert.
    pub executed_ns: u64,
}

impl Probe {
    pub fn add(&mut self, o: &Probe) {
        self.begin_ns += o.begin_ns;
        self.choose_ns += o.choose_ns;
        self.end_ns += o.end_ns;
        self.run_ns += o.run_ns;
        self.choose_calls += o.choose_calls;
        self.choice_calls += o.choice_calls;
        self.executions += o.executions;
        self.steps += o.steps;
        self.served += o.served;
        self.served_ns += o.served_ns;
        self.executed_ns += o.executed_ns;
    }

    /// Interpreter busy time: uncached runs less the scheduler's share, plus
    /// cached-driver executions (whose `choose` calls cannot be separated).
    pub fn runtime_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.choose_ns) + self.executed_ns
    }

    /// Time inside the scheduler's hooks.
    pub fn sched_ns(&self) -> u64 {
        self.begin_ns + self.choose_ns + self.end_ns
    }
}

/// A delegating [`Scheduler`] that times every hook of the one it wraps.
pub struct Timed<S> {
    pub inner: S,
    pub probe: Probe,
    run_started: Option<Instant>,
}

impl<S: Scheduler> Timed<S> {
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            probe: Probe::default(),
            run_started: None,
        }
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn begin_execution(&mut self) -> bool {
        let t = Instant::now();
        let more = self.inner.begin_execution();
        let now = Instant::now();
        self.probe.begin_ns += (now - t).as_nanos() as u64;
        self.run_started = Some(now);
        more
    }

    fn choose(&mut self, point: &SchedulingPoint) -> ThreadId {
        let t = Instant::now();
        let chosen = self.inner.choose(point);
        self.probe.choose_ns += nanos_since(t);
        self.probe.choose_calls += 1;
        self.probe.choice_calls += u64::from(point.enabled.len() > 1);
        chosen
    }

    fn end_execution(&mut self, outcome: &ExecutionOutcome) {
        let t = Instant::now();
        if let Some(started) = self.run_started.take() {
            self.probe.run_ns += (t - started).as_nanos() as u64;
        }
        self.probe.executions += 1;
        self.probe.steps += outcome.steps.len() as u64;
        self.inner.end_execution(outcome);
        self.probe.end_ns += nanos_since(t);
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn is_exhaustive(&self) -> bool {
        self.inner.is_exhaustive()
    }

    fn can_exhaust(&self) -> bool {
        self.inner.can_exhaust()
    }

    fn sleep_counters(&self) -> (u64, u64) {
        self.inner.sleep_counters()
    }

    fn current_execution_redundant(&self) -> bool {
        self.inner.current_execution_redundant()
    }
}

/// What a replica unit produced.
pub struct Replica {
    pub stats: ExplorationStats,
    pub probe: Probe,
    /// Bound levels (DFS counts as one).
    pub levels: u64,
}

/// Re-drive one unit with probes attached. `cache` is the trie a cached
/// driver starts from (empty, or a loaded corpus); `None` runs uncached.
pub fn replica(
    program: &Program,
    config: &ExecConfig,
    technique: Technique,
    limits: &ExploreLimits,
    cache: Option<ScheduleCache>,
) -> Replica {
    let limit = limits.schedule_limit;
    let explore = |p| systematic(program, config, p, limits, cache);
    match technique {
        Technique::Dfs => explore(BoundKind::None),
        Technique::IterativePreemptionBounding => explore(BoundKind::Preemption),
        Technique::IterativeDelayBounding => explore(BoundKind::Delay),
        Technique::Random { seed } => {
            randomised(program, config, limits, RandomScheduler::new(limit, seed))
        }
        Technique::Pct { depth, seed } => randomised(
            program,
            config,
            limits,
            PctScheduler::new(limit, depth, seed),
        ),
        Technique::MapleLike {
            profiling_runs,
            seed,
        } => randomised(
            program,
            config,
            limits,
            MapleLikeScheduler::new(profiling_runs, seed),
        ),
    }
}

/// A randomised technique, driven by `explore_with` as `run_technique` does.
fn randomised<S: Scheduler>(
    program: &Program,
    config: &ExecConfig,
    limits: &ExploreLimits,
    scheduler: S,
) -> Replica {
    let mut timed = Timed::new(scheduler);
    let stats = explore_with(program, config, &mut timed, limits);
    Replica {
        stats,
        probe: timed.probe,
        levels: 0,
    }
}

/// Complete the schedule `s` just began: through the trie when there is
/// one (split into served and executed time), else by running the program
/// with the timed scheduler choosing.
fn run_one(
    exec: &mut Execution<'_>,
    s: &mut Timed<BoundedDfs>,
    cache: Option<&mut ScheduleCache>,
    stats: &mut ExplorationStats,
) -> ScheduleRun {
    let run = match cache {
        None => {
            exec.reset();
            let outcome = exec.run(&mut |p| s.choose(p), &mut NoopObserver);
            s.end_execution(&outcome);
            ScheduleRun::Executed(outcome)
        }
        Some(trie) => {
            let t = Instant::now();
            let (run, _) =
                cache::run_begun_schedule(exec, &mut s.inner, CacheHandle::Local(trie), false);
            let ns = nanos_since(t);
            match &run {
                ScheduleRun::Served(_) => {
                    s.probe.served += 1;
                    s.probe.served_ns += ns;
                }
                ScheduleRun::Executed(outcome) => {
                    // The trie driver calls `choose` once per step itself:
                    // count the calls from the outcome; their time stays
                    // inside `executed_ns`.
                    let steps = outcome.steps.len() as u64;
                    let choices = outcome
                        .steps
                        .iter()
                        .filter(|st| st.enabled.len() > 1)
                        .count();
                    s.probe.executed_ns += ns;
                    s.probe.executions += 1;
                    s.probe.steps += steps;
                    s.probe.choose_calls += steps;
                    s.probe.choice_calls += choices as u64;
                }
            }
            run
        }
    };
    stats.executions += u64::from(matches!(run, ScheduleRun::Executed(_)));
    run
}

/// DFS (`BoundKind::None`, one unbounded level with `explore_with`'s
/// completion probe) or iterative bounding (levels 0, 1, … with
/// `iterative_bounding`'s counting and stop rules).
fn systematic(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    limits: &ExploreLimits,
    mut cache: Option<ScheduleCache>,
) -> Replica {
    let iterative = kind != BoundKind::None;
    let limit = limits.schedule_limit;
    let mut stats = ExplorationStats::new(match kind {
        BoundKind::Preemption => "IPB",
        BoundKind::Delay => "IDB",
        BoundKind::None => "DFS",
    });
    let mut probe = Probe::default();
    let mut exec = Execution::new_shared(program, config);
    let mut levels = 0;
    let mut stopped = false;
    for bound in 0..=if iterative { limits.max_bound } else { 0 } {
        let dfs = match iterative {
            true => BoundedDfs::new(kind.policy(), bound),
            false => BoundedDfs::unbounded(),
        };
        let mut s = Timed::new(dfs.with_sleep_sets(limits.por));
        let mut new_at_bound = 0;
        levels += 1;
        while stats.schedules < limit && s.begin_execution() {
            let run = run_one(&mut exec, &mut s, cache.as_mut(), &mut stats);
            if s.current_execution_redundant() {
                continue;
            }
            if !iterative || bound == 0 || run.cost(kind) == bound {
                new_at_bound += 1;
                match &run {
                    ScheduleRun::Executed(outcome) => stats.record(outcome),
                    ScheduleRun::Served(digest) => digest.record_into(&mut stats),
                }
            }
        }
        if !iterative {
            let mut complete = s.is_exhaustive();
            if !complete && stats.schedules >= limit && s.can_exhaust() {
                // The budget filled on the last schedule: probe for an empty
                // stack, draining sleep-redundant runs under POR.
                let mut drain = limit;
                loop {
                    if !s.begin_execution() {
                        complete = s.is_exhaustive();
                        break;
                    }
                    if !limits.por || drain == 0 {
                        break;
                    }
                    drain -= 1;
                    run_one(&mut exec, &mut s, cache.as_mut(), &mut stats);
                    if !s.current_execution_redundant() {
                        break;
                    }
                }
            }
            let (slept, pruned) = s.sleep_counters();
            stats.slept = slept;
            stats.pruned_by_sleep = pruned;
            stats.complete = complete;
            stats.hit_schedule_limit = stats.schedules >= limit && !complete;
            probe.add(&s.probe);
            stopped = true;
            break;
        }
        let (slept, pruned) = s.sleep_counters();
        stats.slept += slept;
        stats.pruned_by_sleep += pruned;
        probe.add(&s.probe);
        stats.final_bound = Some(bound);
        stats.new_schedules_at_final_bound = new_at_bound;
        if stats.found_bug() && stats.bound_of_first_bug.is_none() {
            stats.bound_of_first_bug = Some(bound);
        }
        let finished = s.inner.is_complete();
        let at_limit = stats.schedules >= limit;
        if at_limit && !finished {
            stats.hit_schedule_limit = true;
        } else if !stats.found_bug() {
            // A found bug stops after completing its level; otherwise stop
            // only on a covered space or a full budget.
            if finished && !s.inner.was_pruned() {
                stats.complete = true;
            } else if at_limit {
                stats.hit_schedule_limit = true;
            } else {
                continue;
            }
        }
        stopped = true;
        break;
    }
    stats.bound_exhausted = !stopped;
    if let Some(trie) = &cache {
        stats.cache_hits = trie.hits();
        stats.cache_bytes = trie.bytes();
    }
    Replica {
        stats,
        probe,
        levels,
    }
}

/// One span of the traced run. Per-call probes are folded into one span
/// per unit and layer: it starts at the unit's start, lasts the summed busy
/// time, and `calls` counts the calls folded in.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub layer: &'static str,
    pub benchmark: String,
    pub technique: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

/// Spans of one traced run, kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the run's epoch.
    pub fn now(&self) -> u64 {
        nanos_since(self.epoch)
    }

    /// Record a span; returns its id (ids start at 1; parent 0 is the root).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        parent: u64,
        layer: &'static str,
        benchmark: &str,
        technique: &str,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            layer,
            benchmark: benchmark.to_string(),
            technique: technique.to_string(),
            start_ns,
            end_ns,
            calls,
        });
        id
    }

    /// Open a span now; [`SpanLog::close`] ends it.
    pub fn open(
        &mut self,
        parent: u64,
        layer: &'static str,
        benchmark: &str,
        technique: &str,
    ) -> u64 {
        let now = self.now();
        self.push(parent, layer, benchmark, technique, now, now, 0)
    }

    /// End a span opened with [`SpanLog::open`].
    pub fn close(&mut self, id: u64, calls: u64) {
        let now = self.now();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.calls = calls;
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\":{},\"parent\":{},\"layer\":{},\"benchmark\":{},\"technique\":{},\
                     \"start_ns\":{},\"end_ns\":{},\"calls\":{}}}\n",
                    s.id,
                    s.parent,
                    json_string(s.layer),
                    json_string(&s.benchmark),
                    json_string(&s.technique),
                    s.start_ns,
                    s.end_ns,
                    s.calls
                )
            })
            .collect()
    }
}

/// Lock the shared span log (a panicking probe cannot leave it torn: every
/// update is a single push or field write).
pub fn lock(log: &Mutex<SpanLog>) -> MutexGuard<'_, SpanLog> {
    log.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts of the stealing engine's events.
#[derive(Debug, Default, Clone, Copy)]
pub struct StealCounts {
    pub donations: u64,
    pub thefts: u64,
    pub idle_waits: u64,
}

#[derive(Default)]
struct RecorderState {
    /// The open unit span and when its current bound level began.
    unit: Option<(u64, u64)>,
    /// Steal events of the open unit: (first, last, count).
    steal: Option<(u64, u64, u64)>,
    counts: StealCounts,
}

/// An in-memory telemetry [`Recorder`] that turns the engine's events into
/// timestamped spans: `technique_start`/`technique_finish` open and close a
/// unit span, `bound_level` closes a level span inside it, steal events are
/// folded into one `steal` span per unit, and `race_phase` and `corpus_*`
/// events become `race` and `corpus` spans.
pub struct SpanRecorder {
    log: Arc<Mutex<SpanLog>>,
    parent: u64,
    state: Mutex<RecorderState>,
}

impl SpanRecorder {
    pub fn new(log: Arc<Mutex<SpanLog>>, parent: u64) -> Self {
        SpanRecorder {
            log,
            parent,
            state: Mutex::new(RecorderState::default()),
        }
    }

    pub fn steal_counts(&self) -> StealCounts {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).counts
    }

    fn note_steal(state: &mut RecorderState, now: u64) {
        let (first, _, calls) = state.steal.unwrap_or((now, now, 0));
        state.steal = Some((first, now, calls + 1));
    }
}

impl Recorder for SpanRecorder {
    fn record(&self, event: &Event) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut log = lock(&self.log);
        let now = log.now();
        match event {
            Event::TechniqueStart {
                benchmark,
                technique,
            } => {
                let id = log.open(self.parent, "explore", benchmark, technique);
                state.unit = Some((id, now));
                state.steal = None;
            }
            Event::TechniqueFinish {
                schedules,
                benchmark,
                technique,
                ..
            } => {
                if let Some((id, _)) = state.unit.take() {
                    log.close(id, *schedules);
                    if let Some((first, last, calls)) = state.steal.take() {
                        log.push(id, "steal", benchmark, technique, first, last, calls);
                    }
                }
            }
            Event::BoundLevel {
                program,
                technique,
                bound,
                schedules,
                ..
            } => {
                if let Some((id, level_start)) = state.unit {
                    let name = format!("{technique}@{bound}");
                    log.push(id, "explore", program, &name, level_start, now, *schedules);
                    state.unit = Some((id, now));
                }
            }
            Event::StealDonate { .. } => {
                state.counts.donations += 1;
                Self::note_steal(&mut state, now);
            }
            Event::StealTheft { .. } => {
                state.counts.thefts += 1;
                Self::note_steal(&mut state, now);
            }
            Event::WorkerIdle { idle, .. } => {
                state.counts.idle_waits += u64::from(*idle);
                Self::note_steal(&mut state, now);
            }
            Event::RacePhase {
                benchmark,
                runs,
                wall_nanos,
                ..
            } => {
                let start = now.saturating_sub(*wall_nanos);
                log.push(self.parent, "race", benchmark, "", start, now, *runs);
            }
            Event::CorpusLoaded { benchmark, .. } | Event::CorpusSaved { benchmark, .. } => {
                log.push(self.parent, "corpus", benchmark, event.kind(), now, now, 1);
            }
            _ => {}
        }
    }
}
