//! Structured exploration telemetry: a typed event stream with zero cost
//! when disabled.
//!
//! The exploration stack is observable through a single cloneable handle,
//! [`Telemetry`], threaded through [`ExploreLimits`] and the harness
//! pipeline. When no recorder is attached the handle is a `None` and every
//! emission site reduces to one branch — the closure that would build the
//! [`Event`] is never invoked, so the serial≡parallel bit-identical
//! invariant (and the hot-loop budget) survives untouched.
//!
//! Recorders implement [`Recorder`] and receive every event:
//!
//! * [`JsonlRecorder`] serializes events as line-delimited JSON
//!   (`--trace <path>` on both CLIs). Lines are checked by
//!   [`validate_trace_line`], which is self-contained (no external JSON
//!   tooling) and is what `sct-table validate-trace` and CI run.
//! * [`Heartbeat`] prints a rate-limited (≥1s) progress line to stderr
//!   (benchmark, technique, schedules/sec, executions/sec, cache hit rate,
//!   worker utilization), suppressible with `--quiet`.
//! * [`CountingRecorder`] and [`BufferRecorder`] capture events in memory
//!   for tests.
//!
//! Events are observations, never inputs: nothing in the exploration stack
//! reads telemetry state, so tracing on vs off cannot change a single
//! statistic or digest.
//!
//! The schema is the single event table in this module: each event kind is
//! declared once there, with its `"type"` string and its ordered, typed
//! fields, and the enum, the writer, the validator's field sets and the
//! test specimens are all generated from it. The validator accepts only the
//! flat trace grammar the writer produces — one object whose values are
//! strings, unsigned integer literals, `true`/`false` or arrays of unsigned
//! integer literals — so any other JSON, however deeply nested, is rejected.
//!
//! [`ExploreLimits`]: crate::explore::ExploreLimits

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Declares every telemetry event once. Each entry names the variant, its
/// `"type"` discriminator and its ordered, typed fields; from that one
/// table this generates the [`Event`] enum, [`Event::kind`],
/// [`Event::to_json`] (fields serialized in declaration order),
/// [`Event::specimens`] and the per-kind field schema behind
/// [`validate_trace_line`]. A field's type picks its JSON writer, schema
/// type and specimen value through the [`Field`] trait.
macro_rules! events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $kind:literal {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
        }
    )*) => {
        /// One telemetry event. Serialized to JSON with a `"type"`
        /// discriminator equal to [`Event::kind`]; see the README
        /// "Observability" section for the full schema.
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum Event {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty, )* }, )*
        }

        impl Event {
            /// The `"type"` discriminator used in the JSON serialization.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $kind, )*
                }
            }

            /// Serialize as one line of JSON (no trailing newline).
            pub fn to_json(&self) -> String {
                let mut out = format!("{{\"type\":\"{}\"", self.kind());
                match self {
                    $( Event::$variant { $($field),* } => {
                        $( write_field(&mut out, stringify!($field), $field); )*
                    } )*
                }
                out.push('}');
                out
            }

            /// One specimen of every kind, in declaration order, each field
            /// holding its type's specimen value.
            pub fn specimens() -> Vec<Event> {
                vec![ $( Event::$variant { $( $field: Field::specimen(), )* }, )* ]
            }
        }

        /// The fields (beyond `"type"`) of every event kind, in order.
        fn event_schema(kind: &str) -> Option<&'static [(&'static str, FieldType)]> {
            match kind {
                $( $kind => Some(&[ $( (stringify!($field), <$ty as Field>::TYPE), )* ]), )*
                _ => None,
            }
        }
    };
}

events! {
    /// A study (one run of the harness pipeline) began.
    StudyStart = "study_start" {
        /// Number of benchmarks selected by the filter.
        benchmarks: u64,
        /// Number of techniques per benchmark.
        techniques: u64,
        /// Terminal-schedule budget per technique.
        schedule_limit: u64,
        /// Outer benchmark/technique worker count.
        workers: u64,
        /// Within-technique steal worker count.
        steal_workers: u64,
    }
    /// The study finished.
    StudyFinish = "study_finish" {
        /// Number of benchmarks explored.
        benchmarks: u64,
        /// Total wall-clock time.
        wall_nanos: u64,
    }
    /// One benchmark's pipeline (race phase + every technique) began.
    BenchmarkStart = "benchmark_start" {
        /// Registry name, e.g. `CS.reorder_3`.
        benchmark: String,
    }
    /// The benchmark's pipeline finished.
    BenchmarkFinish = "benchmark_finish" {
        /// Registry name.
        benchmark: String,
        /// Wall-clock time for the whole benchmark.
        wall_nanos: u64,
    }
    /// Phase 1 finished: the dynamic race-detection runs (or the static
    /// analysis standing in for them under `--static-phase`).
    RacePhase = "race_phase" {
        /// Registry name.
        benchmark: String,
        /// Number of race-detection executions (0 under `--static-phase`).
        runs: u64,
        /// Distinct races observed.
        races: u64,
        /// Static locations promoted to visible operations.
        racy_locations: u64,
        /// Whether the static analysis replaced the dynamic runs.
        static_phase: bool,
        /// Wall-clock time of the phase.
        wall_nanos: u64,
    }
    /// One technique is about to explore one benchmark.
    TechniqueStart = "technique_start" {
        /// Registry name.
        benchmark: String,
        /// Technique label ("IPB", "IDB", "DFS", ...).
        technique: String,
    }
    /// The technique finished.
    TechniqueFinish = "technique_finish" {
        /// Registry name.
        benchmark: String,
        /// Technique label.
        technique: String,
        /// Terminal schedules explored.
        schedules: u64,
        /// Program executions performed.
        executions: u64,
        /// Schedules served from the cache without executing.
        cache_hits: u64,
        /// Whether a bug was found.
        found_bug: bool,
        /// Wall-clock exploration time.
        wall_nanos: u64,
    }
    /// Iterative bounding finished one bound level; counters are deltas
    /// relative to the previous level.
    BoundLevel = "bound_level" {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// The bound that was just exhausted.
        bound: u64,
        /// Terminal schedules added at this level.
        schedules: u64,
        /// Executions added at this level.
        executions: u64,
        /// Cache hits added at this level.
        cache_hits: u64,
        /// Schedules whose cost equals this bound ("new schedules").
        new_at_bound: u64,
    }
    /// Throttled liveness beacon from a long-running driver (at most one per
    /// progress interval, default 1s). Counters are absolute so far.
    Progress = "progress" {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// Terminal schedules so far.
        schedules: u64,
        /// Executions so far.
        executions: u64,
        /// Cache hits so far.
        cache_hits: u64,
    }
    /// A work-stealing victim donated its shallowest unexplored subtree.
    StealDonate = "steal_donate" {
        /// Program name.
        program: String,
        /// Donating worker index.
        worker: u64,
        /// Task id assigned to the donated subtree.
        task: u64,
        /// Decision depth of the donated prefix.
        depth: u64,
    }
    /// A work-stealing thief claimed a donated subtree.
    StealTheft = "steal_theft" {
        /// Program name.
        program: String,
        /// Claiming worker index.
        worker: u64,
        /// Task id of the claimed subtree.
        task: u64,
    }
    /// A steal worker went idle (waiting for work) or became busy again.
    WorkerIdle = "worker_idle" {
        /// Program name.
        program: String,
        /// Worker index.
        worker: u64,
        /// `true` on entering the idle wait, `false` on leaving it.
        idle: bool,
    }
    /// Per-technique schedule-cache summary (emitted when caching is on).
    CacheSummary = "cache_summary" {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// Schedules served from the cache.
        hits: u64,
        /// Estimated bytes held by the trie.
        bytes: u64,
        /// Whether the byte cap was reached.
        full: bool,
    }
    /// The schedule cache hit its byte cap and degraded to pass-through
    /// (emitted at most once per technique).
    CacheDegraded = "cache_degraded" {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// Bytes held when the cap engaged.
        bytes: u64,
        /// The configured cap.
        max_bytes: u64,
    }
    /// A persisted corpus trie was loaded for this benchmark (`--resume`).
    CorpusLoaded = "corpus_loaded" {
        /// Registry name.
        benchmark: String,
        /// Bytes of the loaded trie.
        bytes: u64,
        /// Buggy schedules already recorded in it.
        buggy_schedules: u64,
    }
    /// The corpus trie and bug corpus were saved (`--corpus-dir`).
    CorpusSaved = "corpus_saved" {
        /// Registry name.
        benchmark: String,
        /// Bytes of the saved trie.
        bytes: u64,
        /// Bug records in the saved bug corpus.
        bugs: u64,
    }
    /// A corpus bug prefix was replayed (`sct-table replay`).
    CorpusReplay = "corpus_replay" {
        /// Registry name.
        benchmark: String,
        /// Display form of the expected bug.
        bug: String,
        /// Length of the replayed decision prefix.
        decisions: u64,
        /// Whether one execution reproduced the recorded bug.
        reproduced: bool,
    }
    /// A driver found its first bug.
    BugFound = "bug_found" {
        /// Program name.
        program: String,
        /// Technique label.
        technique: String,
        /// Display form of the bug.
        bug: String,
        /// 1-based index of the first buggy schedule.
        schedule: u64,
    }
    /// A harvested bug was recorded into the corpus with its minimized
    /// decision prefix.
    BugRecorded = "bug_recorded" {
        /// Registry name.
        benchmark: String,
        /// Display form of the bug.
        bug: String,
        /// Length of the minimized prefix.
        decisions: u64,
        /// The minimized decision prefix (thread ids).
        prefix: Vec<u64>,
    }
    /// A technique stopped at its wall-clock deadline with partial results
    /// (`--time-budget` / `--benchmark-deadline`).
    DeadlineExceeded = "deadline_exceeded" {
        /// Registry name.
        benchmark: String,
        /// Technique label.
        technique: String,
        /// Schedules completed before the deadline fired.
        schedules: u64,
        /// The wall-clock budget that expired, in nanoseconds.
        budget_nanos: u64,
    }
    /// An engine panicked inside a benchmark×technique unit; the harness
    /// isolated the panic and the study continued.
    EnginePanic = "engine_panic" {
        /// Registry name.
        benchmark: String,
        /// Technique label.
        technique: String,
        /// Display form of the panic payload.
        panic: String,
    }
    /// A mid-run corpus checkpoint was written (crash-safe autosave).
    CheckpointSaved = "checkpoint_saved" {
        /// Registry name.
        benchmark: String,
        /// Bytes of the checkpointed trie.
        bytes: u64,
        /// Schedules explored when the checkpoint was taken.
        schedules: u64,
    }
}

/// A sink for telemetry events. Implementations must be cheap and
/// thread-safe: events are recorded from exploration worker threads.
pub trait Recorder: Send + Sync {
    /// Record one event. Must not panic.
    fn record(&self, event: &Event);
}

impl<R: Recorder> Recorder for Arc<R> {
    fn record(&self, event: &Event) {
        (**self).record(event);
    }
}

struct Inner {
    recorders: Vec<Box<dyn Recorder>>,
    /// Millis-since-`epoch` of the last `progress` emission (`u64::MAX`
    /// means never), used to throttle [`Event::Progress`].
    progress_gate: AtomicU64,
    progress_interval_millis: u64,
    epoch: Instant,
}

impl Inner {
    fn record(&self, event: &Event) {
        for r in &self.recorders {
            r.record(event);
        }
    }

    /// At-most-once-per-interval gate, shared across threads. Losing a race
    /// just drops one beacon — progress events are lossy by design.
    fn progress_due(&self) -> bool {
        let now = self.epoch.elapsed().as_millis() as u64;
        let last = self.progress_gate.load(Ordering::Relaxed);
        if last != u64::MAX && now.saturating_sub(last) < self.progress_interval_millis {
            return false;
        }
        self.progress_gate
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
}

/// The cloneable telemetry handle threaded through the exploration stack.
///
/// [`Telemetry::off`] (the default) carries no recorder: [`Telemetry::emit`]
/// is then a single `None` check and the event-building closure is never
/// invoked, so disabled telemetry has no observable cost and no effect on
/// exploration results.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The disabled handle: records nothing, costs one branch per site.
    pub fn off() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A handle fanning out to `recorders` (disabled when empty), with the
    /// default 1s progress throttle.
    pub fn new(recorders: Vec<Box<dyn Recorder>>) -> Telemetry {
        Telemetry::with_progress_interval(recorders, Duration::from_secs(1))
    }

    /// Like [`Telemetry::new`] with an explicit [`Event::Progress`] throttle
    /// interval (tests use `Duration::ZERO` to see every beacon).
    pub fn with_progress_interval(
        recorders: Vec<Box<dyn Recorder>>,
        interval: Duration,
    ) -> Telemetry {
        if recorders.is_empty() {
            return Telemetry::off();
        }
        Telemetry {
            inner: Some(Arc::new(Inner {
                recorders,
                progress_gate: AtomicU64::new(u64::MAX),
                progress_interval_millis: interval.as_millis() as u64,
                epoch: Instant::now(),
            })),
        }
    }

    /// Whether any recorder is attached.
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit an event. The closure runs only when telemetry is on.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            inner.record(&make());
        }
    }

    /// Emit a throttled [`Event::Progress`] beacon: at most one per
    /// progress interval across all threads. The closure runs only when
    /// telemetry is on *and* the interval has elapsed.
    #[inline]
    pub fn progress(&self, make: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            if inner.progress_due() {
                inner.record(&make());
            }
        }
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Telemetry(on, {} recorders)", inner.recorders.len()),
            None => f.write_str("Telemetry(off)"),
        }
    }
}

/// Serializes every event as one line of JSON to a file or writer; the
/// backend of `--trace <path>`. Lines are flushed per event so a killed run
/// still leaves a valid (truncated) trace.
pub struct JsonlRecorder {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlRecorder {
    /// Create (truncate) `path` and write events to it.
    pub fn create(path: &Path) -> io::Result<JsonlRecorder> {
        let file = File::create(path)?;
        Ok(JsonlRecorder::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Write events to an arbitrary writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> JsonlRecorder {
        JsonlRecorder {
            out: Mutex::new(out),
        }
    }
}

impl Recorder for JsonlRecorder {
    fn record(&self, event: &Event) {
        let mut out = self.out.lock().expect("trace writer poisoned");
        // Trace I/O errors must not kill an exploration worker mid-fold;
        // a short trace is the best we can do on a full disk.
        let _ = writeln!(out, "{}", event.to_json());
        let _ = out.flush();
    }
}

/// Counts events by kind; a test recorder (share via `Arc` to read counts
/// after the run).
#[derive(Default)]
pub struct CountingRecorder {
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl CountingRecorder {
    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.lock().unwrap().values().sum()
    }

    /// Events recorded per kind.
    pub fn by_kind(&self) -> BTreeMap<&'static str, u64> {
        self.counts.lock().unwrap().clone()
    }
}

impl Recorder for CountingRecorder {
    fn record(&self, event: &Event) {
        *self.counts.lock().unwrap().entry(event.kind()).or_insert(0) += 1;
    }
}

/// Captures the serialized JSONL lines in memory; a test recorder (share
/// via `Arc` to read lines after the run).
#[derive(Default)]
pub struct BufferRecorder {
    lines: Mutex<Vec<String>>,
}

impl BufferRecorder {
    /// The serialized lines recorded so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }
}

impl Recorder for BufferRecorder {
    fn record(&self, event: &Event) {
        self.lines.lock().unwrap().push(event.to_json());
    }
}

/// The rate-limited stderr progress heartbeat (`≥1s` between lines),
/// suppressed by `--quiet`. It aggregates counters across concurrent
/// benchmarks/techniques from the event stream and reports window rates:
///
/// ```text
/// [sct] CS.reorder_4/IDB · 1234 schedules (482.1/s) · 1890 exec (701.2/s) · cache 12.4% · workers 3/4 busy
/// ```
pub struct Heartbeat {
    interval: Duration,
    state: Mutex<HeartbeatState>,
}

struct HeartbeatState {
    started: Instant,
    last_print: Option<Instant>,
    /// Cumulative totals at the last print (schedules, executions).
    window_base: (u64, u64),
    /// Last-seen absolute counters per in-flight (context, technique) key,
    /// so absolute per-technique beacons fold into global monotone totals.
    in_flight: BTreeMap<(String, String), (u64, u64, u64)>,
    schedules: u64,
    executions: u64,
    cache_hits: u64,
    label: String,
    workers_seen: BTreeSet<u64>,
    workers_idle: BTreeSet<u64>,
}

impl Heartbeat {
    /// A heartbeat printing to stderr at most once per `interval`.
    pub fn new(interval: Duration) -> Heartbeat {
        Heartbeat {
            interval,
            state: Mutex::new(HeartbeatState {
                started: Instant::now(),
                last_print: None,
                window_base: (0, 0),
                in_flight: BTreeMap::new(),
                schedules: 0,
                executions: 0,
                cache_hits: 0,
                label: String::new(),
                workers_seen: BTreeSet::new(),
                workers_idle: BTreeSet::new(),
            }),
        }
    }
}

impl HeartbeatState {
    /// Fold an absolute per-(context, technique) counter triple into the
    /// global cumulative totals.
    fn observe(&mut self, key: (String, String), now: (u64, u64, u64), done: bool) {
        let last = self.in_flight.get(&key).copied().unwrap_or((0, 0, 0));
        self.schedules += now.0.saturating_sub(last.0);
        self.executions += now.1.saturating_sub(last.1);
        self.cache_hits += now.2.saturating_sub(last.2);
        if done {
            self.in_flight.remove(&key);
        } else {
            self.in_flight.insert(key, now);
        }
    }

    fn render(&self, elapsed: Duration, window: Duration) -> String {
        let secs = window.as_secs_f64().max(1e-9);
        let sched_rate = (self.schedules - self.window_base.0) as f64 / secs;
        let exec_rate = (self.executions - self.window_base.1) as f64 / secs;
        let served = self.cache_hits + self.executions;
        let hit_rate = if served == 0 {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / served as f64
        };
        let workers = if self.workers_seen.is_empty() {
            String::from("1/1")
        } else {
            format!(
                "{}/{}",
                self.workers_seen.len() - self.workers_idle.len(),
                self.workers_seen.len()
            )
        };
        format!(
            "[sct {:>6.1}s] {} · {} schedules ({:.1}/s) · {} exec ({:.1}/s) · cache {:.1}% · workers {} busy",
            elapsed.as_secs_f64(),
            if self.label.is_empty() { "…" } else { &self.label },
            self.schedules,
            sched_rate,
            self.executions,
            exec_rate,
            hit_rate,
            workers,
        )
    }
}

impl Recorder for Heartbeat {
    fn record(&self, event: &Event) {
        let mut s = self.state.lock().expect("heartbeat state poisoned");
        match event {
            Event::TechniqueStart {
                benchmark,
                technique,
            } => {
                s.label = format!("{benchmark}/{technique}");
                s.in_flight
                    .insert((benchmark.clone(), technique.clone()), (0, 0, 0));
            }
            Event::TechniqueFinish {
                benchmark,
                technique,
                schedules,
                executions,
                cache_hits,
                ..
            } => {
                s.observe(
                    (benchmark.clone(), technique.clone()),
                    (*schedules, *executions, *cache_hits),
                    true,
                );
            }
            Event::Progress {
                program,
                technique,
                schedules,
                executions,
                cache_hits,
            } => {
                s.label = format!("{program}/{technique}");
                s.observe(
                    (program.clone(), technique.clone()),
                    (*schedules, *executions, *cache_hits),
                    false,
                );
            }
            Event::WorkerIdle { worker, idle, .. } => {
                s.workers_seen.insert(*worker);
                if *idle {
                    s.workers_idle.insert(*worker);
                } else {
                    s.workers_idle.remove(worker);
                }
            }
            _ => {}
        }
        let now = Instant::now();
        let due = match s.last_print {
            None => true,
            Some(last) => now.duration_since(last) >= self.interval,
        };
        if due {
            let window = match s.last_print {
                None => now.duration_since(s.started),
                Some(last) => now.duration_since(last),
            };
            eprintln!("{}", s.render(now.duration_since(s.started), window));
            s.last_print = Some(now);
            s.window_base = (s.schedules, s.executions);
        }
    }
}

// ---------------------------------------------------------------------------
// JSON writing
// ---------------------------------------------------------------------------

/// Escape `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The schema type of an event field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldType {
    Str,
    U64,
    Bool,
    U64Array,
}

impl FieldType {
    fn name(self) -> &'static str {
        match self {
            FieldType::Str => "string",
            FieldType::U64 => "unsigned integer",
            FieldType::Bool => "bool",
            FieldType::U64Array => "array of unsigned integers",
        }
    }
}

/// A Rust type an event field may have: its schema type, its JSON writer
/// and the value it takes in [`Event::specimens`].
trait Field {
    const TYPE: FieldType;
    fn write_json(&self, out: &mut String);
    fn specimen() -> Self;
}

impl Field for u64 {
    const TYPE: FieldType = FieldType::U64;
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn specimen() -> u64 {
        7
    }
}

impl Field for bool {
    const TYPE: FieldType = FieldType::Bool;
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn specimen() -> bool {
        true
    }
}

impl Field for String {
    const TYPE: FieldType = FieldType::Str;
    fn write_json(&self, out: &mut String) {
        out.push_str(&json_string(self));
    }
    fn specimen() -> String {
        "assertion failure: \"ok\"".into()
    }
}

impl Field for Vec<u64> {
    const TYPE: FieldType = FieldType::U64Array;
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
    fn specimen() -> Vec<u64> {
        vec![0, 1, 0]
    }
}

/// Append `,"name":value` to a JSON object under construction.
fn write_field<T: Field>(out: &mut String, name: &str, value: &T) {
    out.push_str(",\"");
    out.push_str(name);
    out.push_str("\":");
    value.write_json(out);
}

// ---------------------------------------------------------------------------
// Schema validation (self-contained: no external JSON tooling)
// ---------------------------------------------------------------------------

/// A parsed field value: the string itself (validation reads the `"type"`
/// string), or the type of any other value.
enum Value {
    Str(String),
    Other(FieldType),
}

impl Value {
    fn ty(&self) -> FieldType {
        match self {
            Value::Str(_) => FieldType::Str,
            Value::Other(ty) => *ty,
        }
    }
}

/// A parser for the flat trace grammar, exactly what [`Event::to_json`]
/// writes: one object whose values are strings, unsigned integer literals,
/// `true`/`false`, or arrays of unsigned integer literals. Nothing nests
/// deeper, so the parser never recurses: input of any depth is an `Err`.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser { src, pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// The items of a list whose opening bracket was just consumed, up to
    /// and including its `close` bracket: `item` parses each one.
    fn list(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    /// The whole line: one object, optionally surrounded by whitespace.
    fn line(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.skip_ws();
        if self.peek() != Some(b'{') {
            return Err(self.err("trace line is not a JSON object"));
        }
        self.pos += 1;
        let mut fields = Vec::new();
        self.list(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            fields.push((key, p.value()?));
            Ok(())
        })?;
        self.skip_ws();
        if self.pos != self.src.len() {
            return Err(self.err("trailing garbage after JSON object"));
        }
        Ok(fields)
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'[') => {
                self.pos += 1;
                self.list(b']', Self::u64)?;
                Ok(Value::Other(FieldType::U64Array))
            }
            Some(b'0'..=b'9') => {
                self.u64()?;
                Ok(Value::Other(FieldType::U64))
            }
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(Value::Other(FieldType::Bool))
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// An unsigned integer literal in `u64` range: `0`, or digits without a
    /// leading zero. A sign, fraction or exponent is left unconsumed, so the
    /// caller rejects it as an unexpected byte.
    fn u64(&mut self) -> Result<(), String> {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let digits = &self.src[start..self.pos];
        if digits.is_empty() || (digits.len() > 1 && digits.starts_with('0')) {
            return Err(self.err("expected an unsigned integer literal"));
        }
        match digits.parse::<u64>() {
            Ok(_) => Ok(()),
            Err(_) => Err(self.err("integer literal exceeds u64")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates in traces we emit never occur; map
                            // unpaired ones to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // `pos` only ever advances over whole chars, so it is on
                    // a char boundary of `src`.
                    let c = self.src[self.pos..].chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

/// Validate one line of a `--trace` JSONL file against the event schema:
/// a line of the flat trace grammar (see [`Event::to_json`]), a known
/// `"type"`, every field of that kind present with the right type, and no
/// unknown or duplicate fields. Self-contained — the CI trace check runs
/// exactly this, no `jq` involved.
pub fn validate_trace_line(line: &str) -> Result<(), String> {
    let fields = Parser::new(line).line()?;
    let mut seen = BTreeSet::new();
    for (key, _) in &fields {
        if !seen.insert(key.as_str()) {
            return Err(format!("duplicate field {key:?}"));
        }
    }
    let Some((_, Value::Str(kind))) = fields.iter().find(|(k, _)| k == "type") else {
        return Err("missing string field \"type\"".into());
    };
    let Some(schema) = event_schema(kind) else {
        return Err(format!("unknown event type {kind:?}"));
    };
    for (name, ty) in schema {
        match fields.iter().find(|(k, _)| k == name) {
            None => return Err(format!("{kind}: missing field {name:?}")),
            Some((_, v)) if v.ty() != *ty => {
                return Err(format!("{kind}: field {name:?} is not a {}", ty.name()));
            }
            Some(_) => {}
        }
    }
    for (key, _) in &fields {
        if key != "type" && !schema.iter().any(|(name, _)| name == key) {
            return Err(format!("{kind}: unknown field {key:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_specimen_round_trips_through_the_validator() {
        for event in Event::specimens() {
            let line = event.to_json();
            validate_trace_line(&line).unwrap_or_else(|e| {
                panic!(
                    "specimen {:?} failed validation: {e}\nline: {line}",
                    event.kind()
                )
            });
        }
    }

    #[test]
    fn every_kind_rejects_missing_mistyped_and_unknown_fields() {
        // A value of each field type, written as its specimen.
        let sample = |ty: FieldType| {
            let mut out = String::new();
            match ty {
                FieldType::Str => String::specimen().write_json(&mut out),
                FieldType::U64 => u64::specimen().write_json(&mut out),
                FieldType::Bool => bool::specimen().write_json(&mut out),
                FieldType::U64Array => Vec::<u64>::specimen().write_json(&mut out),
            }
            out
        };
        let types = [
            FieldType::Str,
            FieldType::U64,
            FieldType::Bool,
            FieldType::U64Array,
        ];
        for event in Event::specimens() {
            let kind = event.kind();
            let schema = event_schema(kind).unwrap();
            // `line` rebuilds the specimen's line with field `i` dropped
            // (`None`) or holding `value`.
            let line = |edit: Option<(usize, Option<&str>)>, extra: &str| {
                let mut out = format!("{{\"type\":\"{kind}\"");
                for (j, (name, ty)) in schema.iter().enumerate() {
                    let value = match edit {
                        Some((i, v)) if i == j => v.map(str::to_string),
                        _ => Some(sample(*ty)),
                    };
                    if let Some(value) = value {
                        out.push_str(&format!(",\"{name}\":{value}"));
                    }
                }
                out.push_str(extra);
                out.push('}');
                out
            };
            assert_eq!(line(None, ""), event.to_json(), "specimen of {kind}");
            let rejects = |l: String, why: String| {
                assert!(validate_trace_line(&l).is_err(), "{kind}: {why}: {l}");
            };
            rejects(line(None, ",\"unknown\":1"), "unknown field".into());
            for (i, (name, ty)) in schema.iter().enumerate() {
                rejects(line(Some((i, None)), ""), format!("missing {name}"));
                for other in types.iter().filter(|other| *other != ty) {
                    let value = sample(*other);
                    rejects(
                        line(Some((i, Some(&value))), ""),
                        format!("{name} holds a {}", other.name()),
                    );
                }
            }
        }
    }

    #[test]
    fn wire_format_is_pinned_byte_for_byte() {
        // One event per field shape: u64 only; string, u64 and bool; a
        // string needing escapes; a u64 array, non-empty and empty.
        let cases = [
            (
                Event::StudyStart {
                    benchmarks: 3,
                    techniques: 6,
                    schedule_limit: 10_000,
                    workers: 1,
                    steal_workers: 2,
                },
                r#"{"type":"study_start","benchmarks":3,"techniques":6,"schedule_limit":10000,"workers":1,"steal_workers":2}"#,
            ),
            (
                Event::RacePhase {
                    benchmark: "CS.reorder_3".into(),
                    runs: 10,
                    races: 2,
                    racy_locations: 4,
                    static_phase: true,
                    wall_nanos: 42,
                },
                r#"{"type":"race_phase","benchmark":"CS.reorder_3","runs":10,"races":2,"racy_locations":4,"static_phase":true,"wall_nanos":42}"#,
            ),
            (
                Event::BugFound {
                    program: "reorder_3".into(),
                    technique: "IDB".into(),
                    bug: "assert \"x\\y\" \u{1}".into(),
                    schedule: 12,
                },
                r#"{"type":"bug_found","program":"reorder_3","technique":"IDB","bug":"assert \"x\\y\" \u0001","schedule":12}"#,
            ),
            (
                Event::BugRecorded {
                    benchmark: "CS.reorder_3".into(),
                    bug: "deadlock".into(),
                    decisions: 3,
                    prefix: vec![0, 1, 0],
                },
                r#"{"type":"bug_recorded","benchmark":"CS.reorder_3","bug":"deadlock","decisions":3,"prefix":[0,1,0]}"#,
            ),
            (
                Event::BugRecorded {
                    benchmark: "CS.reorder_3".into(),
                    bug: "deadlock".into(),
                    decisions: 0,
                    prefix: Vec::new(),
                },
                r#"{"type":"bug_recorded","benchmark":"CS.reorder_3","bug":"deadlock","decisions":0,"prefix":[]}"#,
            ),
        ];
        for (event, expected) in cases {
            assert_eq!(event.to_json(), expected);
            validate_trace_line(expected).unwrap();
        }
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        let deep = "[".repeat(1_000_000);
        let cases = [
            ("", "empty"),
            ("{", "truncated"),
            ("[1,2]", "not an object"),
            ("{\"benchmark\":\"x\"}", "no type"),
            ("{\"type\":\"no_such_event\"}", "unknown kind"),
            ("{\"type\":\"benchmark_start\"}", "missing field"),
            (
                "{\"type\":\"benchmark_start\",\"benchmark\":7}",
                "wrong type",
            ),
            (
                "{\"type\":\"benchmark_start\",\"benchmark\":\"x\",\"extra\":1}",
                "unknown field",
            ),
            (
                "{\"type\":\"study_finish\",\"benchmarks\":1,\"wall_nanos\":-3}",
                "negative u64",
            ),
            (
                "{\"type\":\"benchmark_start\",\"benchmark\":\"x\"} trailing",
                "trailing garbage",
            ),
            (
                "{\"type\":\"benchmark_start\",\"benchmark\":\"x\",\"benchmark\":\"y\"}",
                "duplicate field",
            ),
            (
                "{\"type\":\"study_finish\",\"benchmarks\":1,\"wall_nanos\":1.0}",
                "fractional u64",
            ),
            (
                "{\"type\":\"study_finish\",\"benchmarks\":1,\"wall_nanos\":1e3}",
                "exponent u64",
            ),
            (
                "{\"type\":\"study_finish\",\"benchmarks\":1,\"wall_nanos\":-0}",
                "negative zero u64",
            ),
            (
                "{\"type\":\"study_finish\",\"benchmarks\":1,\"wall_nanos\":1e30}",
                "huge exponent u64",
            ),
            (
                "{\"type\":\"study_finish\",\"benchmarks\":1,\"wall_nanos\":18446744073709551616}",
                "u64 overflow",
            ),
            (
                "{\"type\":\"study_finish\",\"benchmarks\":1,\"wall_nanos\":01}",
                "leading zero",
            ),
            (&deep, "deeply nested"),
        ];
        for (line, why) in cases {
            assert!(
                validate_trace_line(line).is_err(),
                "expected rejection ({why}): {}",
                &line[..line.len().min(80)]
            );
        }
        // The largest u64 is the last accepted literal.
        validate_trace_line(
            "{\"type\":\"study_finish\",\"benchmarks\":1,\"wall_nanos\":18446744073709551615}",
        )
        .unwrap();
    }

    #[test]
    fn validator_accepts_whitespace_and_field_reordering() {
        let line = " { \"benchmark\" : \"x\" , \"type\" : \"benchmark_start\" } ";
        validate_trace_line(line).unwrap();
    }

    #[test]
    fn json_strings_escape_control_and_quote_characters() {
        let s = "a\"b\\c\nd\te\u{1}f";
        let escaped = json_string(s);
        assert_eq!(escaped, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
        // And the parser inverts the escape.
        assert_eq!(Parser::new(&escaped).string().unwrap(), s);
    }

    #[test]
    fn off_telemetry_never_builds_events() {
        let t = Telemetry::off();
        t.emit(|| panic!("event closure must not run when telemetry is off"));
        t.progress(|| panic!("progress closure must not run when telemetry is off"));
        assert!(!t.is_on());
        assert!(
            !Telemetry::new(Vec::new()).is_on(),
            "no recorders means off"
        );
    }

    #[test]
    fn counting_recorder_sees_every_emission() {
        let rec = Arc::new(CountingRecorder::default());
        let t = Telemetry::new(vec![Box::new(rec.clone())]);
        assert!(t.is_on());
        t.emit(|| Event::BenchmarkStart {
            benchmark: "b".into(),
        });
        t.emit(|| Event::BenchmarkFinish {
            benchmark: "b".into(),
            wall_nanos: 1,
        });
        assert_eq!(rec.total(), 2);
        assert_eq!(rec.by_kind().get("benchmark_start"), Some(&1));
    }

    #[test]
    fn progress_beacons_are_throttled() {
        let rec = Arc::new(CountingRecorder::default());
        let t = Telemetry::with_progress_interval(
            vec![Box::new(rec.clone())],
            Duration::from_secs(3600),
        );
        for _ in 0..100 {
            t.progress(|| Event::Progress {
                program: "p".into(),
                technique: "DFS".into(),
                schedules: 1,
                executions: 1,
                cache_hits: 0,
            });
        }
        assert_eq!(rec.total(), 1, "one beacon per interval");

        let rec2 = Arc::new(CountingRecorder::default());
        let t2 = Telemetry::with_progress_interval(vec![Box::new(rec2.clone())], Duration::ZERO);
        for _ in 0..5 {
            t2.progress(|| Event::Progress {
                program: "p".into(),
                technique: "DFS".into(),
                schedules: 1,
                executions: 1,
                cache_hits: 0,
            });
        }
        assert_eq!(rec2.total(), 5, "zero interval emits every beacon");
    }

    #[test]
    fn jsonl_recorder_writes_one_valid_line_per_event() {
        #[derive(Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let bytes = Arc::new(Mutex::new(Vec::new()));
        let rec = JsonlRecorder::to_writer(Box::new(SharedBuf(bytes.clone())));
        for event in Event::specimens() {
            rec.record(&event);
        }
        let text = String::from_utf8(bytes.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), Event::specimens().len());
        for line in lines {
            validate_trace_line(line).unwrap();
        }
    }

    #[test]
    fn heartbeat_folds_absolute_beacons_into_monotone_totals() {
        let mut s = HeartbeatState {
            started: Instant::now(),
            last_print: None,
            window_base: (0, 0),
            in_flight: BTreeMap::new(),
            schedules: 0,
            executions: 0,
            cache_hits: 0,
            label: "b/IDB".into(),
            workers_seen: BTreeSet::new(),
            workers_idle: BTreeSet::new(),
        };
        let key = || ("b".to_string(), "IDB".to_string());
        s.observe(key(), (10, 8, 2), false);
        s.observe(key(), (25, 20, 5), false);
        assert_eq!((s.schedules, s.executions, s.cache_hits), (25, 20, 5));
        // A second concurrent technique adds, not overwrites.
        s.observe(("b".into(), "DFS".into()), (5, 5, 0), false);
        assert_eq!((s.schedules, s.executions, s.cache_hits), (30, 25, 5));
        // Finish removes the in-flight entry and folds the final absolutes.
        s.observe(key(), (30, 24, 6), true);
        assert_eq!((s.schedules, s.executions, s.cache_hits), (35, 29, 6));
        assert!(!s.in_flight.contains_key(&key()));

        s.workers_seen.extend([0, 1, 2, 3]);
        s.workers_idle.insert(2);
        let line = s.render(Duration::from_secs(10), Duration::from_secs(2));
        assert!(line.contains("b/IDB"), "{line}");
        assert!(line.contains("35 schedules"), "{line}");
        assert!(line.contains("3/4 busy"), "{line}");
    }
}
