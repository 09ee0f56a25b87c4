//! Schedule caching for iterative bounding.
//!
//! Iterative schedule bounding (§2 of the paper) restarts the bounded DFS
//! from scratch at every bound level, so the search at bound *b + 1*
//! re-executes every schedule whose cost is at most *b* just to reach the new
//! frontier — the dominant cost on benchmarks where IPB/IDB climb several
//! bound levels before finding a bug. Because the runtime is deterministic,
//! that re-execution computes nothing new: the scheduling point reached after
//! a given decision prefix is always the same, and so is the terminal state
//! at the end of a given decision sequence.
//!
//! [`ScheduleCache`] exploits this by memoizing the program as a trie keyed
//! by the decision sequence:
//!
//! * an **interior node** stores the [`SchedulingPoint`] data the scheduler
//!   consumes at that prefix (compressed to a single [`PendingOp`] when only
//!   one thread is enabled, the overwhelmingly common case);
//! * a **terminal node** stores a [`TerminalDigest`]: the bug
//!   classification, final-state fingerprint, preemption/delay costs and the
//!   summary statistics [`crate::stats::ExplorationStats`] needs to record
//!   the schedule.
//!
//! [`run_begun_schedule`] then drives one schedule of a [`BoundedDfs`]: it
//! feeds the scheduler cached points for as long as the decision path stays
//! inside the trie. Reaching a cached terminal serves the whole schedule
//! **without executing the program**; leaving the trie falls back to a real
//! execution (the scheduler's replay machinery re-runs the prefix against the
//! live program) whose new suffix is then inserted into the trie.
//!
//! The cache is a *pure memo*: it changes which schedules are physically
//! executed, never which schedules the search visits or what the scheduler
//! observes, so it composes with sleep-set partial-order reduction and with
//! budget truncation by construction, and the exploration statistics of a
//! cached run are identical to an uncached one (minus the new
//! `executions` / `cache_hits` / `cache_bytes` counters). The differential
//! suite in `tests/integration.rs` is the proof obligation.
//!
//! Memory is bounded: every insertion is charged against a byte estimate
//! ([`node_weight`], [`TERMINAL_BYTES`]) and once the configured cap is
//! reached the cache stops growing — misses simply execute for real, so a
//! full cache degrades to the uncached search, never to an incorrect one.

use crate::dfs::BoundedDfs;
use crate::scheduler::Scheduler;
use sct_runtime::{
    Bug, Execution, ExecutionOutcome, NoopObserver, PendingOp, SchedulingPoint, ThreadId,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Default memory cap for a schedule cache (per technique per benchmark).
pub const DEFAULT_CACHE_BYTES: u64 = 128 * 1024 * 1024;

/// Estimated bytes of one interior trie node with `enabled` runnable threads.
/// A single-thread node stores only a [`PendingOp`]; a choice node stores the
/// full scheduling point (enabled list + pending summaries + edge list).
pub fn node_weight(enabled: usize) -> u64 {
    const FORCED_NODE_BYTES: u64 = 56;
    const CHOICE_NODE_BYTES: u64 = 112;
    const PER_THREAD_BYTES: u64 = 56;
    if enabled <= 1 {
        FORCED_NODE_BYTES
    } else {
        CHOICE_NODE_BYTES + enabled as u64 * PER_THREAD_BYTES
    }
}

/// Estimated bytes of one terminal digest.
pub const TERMINAL_BYTES: u64 = 96;

/// The terminal outcome of one schedule, as remembered by the cache: enough
/// to classify the schedule (bug, costs) and to feed
/// [`ExplorationStats::record_parts`] without re-executing the program.
///
/// [`ExplorationStats::record_parts`]: crate::stats::ExplorationStats::record_parts
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TerminalDigest {
    /// The bug that terminated the execution, if any.
    pub bug: Option<Bug>,
    /// Whether the execution was cut off by the step limit.
    pub diverged: bool,
    /// Total number of threads created.
    pub threads_created: usize,
    /// Maximum number of simultaneously enabled threads.
    pub max_enabled: usize,
    /// Number of scheduling points with more than one enabled thread.
    pub scheduling_points: usize,
    /// Hash of the final program state.
    pub fingerprint: u64,
    /// Preemption count of the schedule (its cost under preemption bounding).
    pub preemptions: u32,
    /// Delay count of the schedule (its cost under delay bounding).
    pub delays: u32,
}

impl TerminalDigest {
    /// Digest of a just-completed execution.
    pub fn of(outcome: &ExecutionOutcome) -> Self {
        TerminalDigest {
            bug: outcome.bug.clone(),
            diverged: outcome.diverged,
            threads_created: outcome.threads_created,
            max_enabled: outcome.max_enabled,
            scheduling_points: outcome.scheduling_points,
            fingerprint: outcome.fingerprint,
            preemptions: outcome.preemption_count(),
            delays: outcome.delay_count(),
        }
    }

    /// Whether the cached schedule exposed a bug (divergence does not count).
    pub fn is_buggy(&self) -> bool {
        self.bug.as_ref().map(Bug::counts_as_bug).unwrap_or(false)
    }

    /// Record this schedule into exploration statistics — the digest-side
    /// twin of [`ExplorationStats::record`], so served and executed
    /// schedules go through one accounting path.
    ///
    /// [`ExplorationStats::record`]: crate::stats::ExplorationStats::record
    pub fn record_into(&self, stats: &mut crate::stats::ExplorationStats) {
        stats.record_parts(
            self.is_buggy(),
            self.diverged,
            self.threads_created,
            self.max_enabled,
            self.scheduling_points,
            self.bug.as_ref(),
        );
    }
}

/// Outgoing edge of a trie node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Link {
    /// The decision leads to another scheduling point.
    Interior(u32),
    /// The decision ends the execution; index into the terminal table.
    Terminal(u32),
}

/// One memoized scheduling point.
#[derive(Debug, Clone)]
pub(crate) enum Node {
    /// Exactly one thread was enabled: the scheduler has no choice, so only
    /// the pending-operation summary (needed by sleep-set inheritance) and
    /// the single outgoing edge are kept.
    Forced { op: PendingOp, next: Option<Link> },
    /// A genuine choice: the full scheduling point plus one edge per decision
    /// explored so far.
    Choice {
        point: SchedulingPoint,
        edges: Vec<(ThreadId, Link)>,
    },
}

impl Node {
    /// A fresh node for `point`, with no edges yet.
    fn of_point(point: &SchedulingPoint) -> Node {
        if point.enabled.len() == 1 {
            Node::Forced {
                op: point.pending[0],
                next: None,
            }
        } else {
            Node::Choice {
                point: point.clone(),
                edges: Vec::new(),
            }
        }
    }

    /// The node's [`node_weight`] charge.
    pub(crate) fn weight(&self) -> u64 {
        match self {
            Node::Forced { .. } => node_weight(1),
            Node::Choice { point, .. } => node_weight(point.enabled.len()),
        }
    }

    fn edge(&self, t: ThreadId) -> Option<Link> {
        match self {
            Node::Forced { op, next } => {
                if t == op.thread {
                    *next
                } else {
                    None
                }
            }
            Node::Choice { edges, .. } => edges.iter().find(|(d, _)| *d == t).map(|(_, l)| *l),
        }
    }
}

/// Result of walking the trie for one schedule.
enum Walk {
    /// The whole decision path was cached; the terminal digest is returned.
    Hit(TerminalDigest),
    /// The path left the trie after `depth` decisions. `record` tells the
    /// caller whether the cache wants the missing suffix (false when the
    /// byte cap has been reached or caching is off).
    Miss { depth: usize, record: bool },
}

/// A prefix-keyed memo of the deterministic program: scheduling points keyed
/// by decision prefix, terminal digests keyed by full decision sequence. See
/// the module documentation for how the exploration drivers use it.
#[derive(Debug)]
pub struct ScheduleCache {
    pub(crate) nodes: Vec<Node>,
    pub(crate) terminals: Vec<TerminalDigest>,
    pub(crate) bytes: u64,
    pub(crate) max_bytes: u64,
    pub(crate) full: bool,
    /// Atomic so [`ScheduleCache::walk`] needs only a shared borrow: stealing
    /// workers walk a shared cache concurrently behind a read lock and only
    /// insertions take the write lock.
    hits: AtomicU64,
    insertions: u64,
}

impl Default for ScheduleCache {
    fn default() -> Self {
        ScheduleCache::new(DEFAULT_CACHE_BYTES)
    }
}

// Manual because of the atomic hit counter (cloned by value). Used by
// [`SharedCache`] to keep a pristine copy of the load-time trie for panic
// recovery.
impl Clone for ScheduleCache {
    fn clone(&self) -> Self {
        ScheduleCache {
            nodes: self.nodes.clone(),
            terminals: self.terminals.clone(),
            bytes: self.bytes,
            max_bytes: self.max_bytes,
            full: self.full,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            insertions: self.insertions,
        }
    }
}

impl ScheduleCache {
    /// An empty cache that stops growing once its byte estimate reaches
    /// `max_bytes` (it keeps serving what it already holds).
    pub fn new(max_bytes: u64) -> Self {
        ScheduleCache {
            nodes: Vec::new(),
            terminals: Vec::new(),
            bytes: 0,
            max_bytes,
            full: false,
            hits: AtomicU64::new(0),
            insertions: 0,
        }
    }

    /// Number of schedules served entirely from the cache (no execution).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Estimated bytes held by the trie.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of schedules inserted.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Whether the byte cap has been reached (insertions have stopped).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Every buggy schedule memoized in the trie: the full decision path and
    /// the bug its terminal recorded, in deterministic (path-lexicographic)
    /// order. This is the raw material of the persistent bug corpus — see
    /// [`crate::corpus`].
    pub fn buggy_schedules(&self) -> Vec<(Vec<ThreadId>, Bug)> {
        let mut found = Vec::new();
        if self.nodes.is_empty() {
            return found;
        }
        let mut path: Vec<ThreadId> = Vec::new();
        // Iterative DFS: (node index, next edge ordinal to visit).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        while let Some(&mut (node, ref mut edge)) = stack.last_mut() {
            let next = match &self.nodes[node] {
                Node::Forced { op, next } => {
                    if *edge == 0 {
                        next.map(|l| (op.thread, l))
                    } else {
                        None
                    }
                }
                Node::Choice { edges, .. } => edges.get(*edge).map(|&(t, l)| (t, l)),
            };
            *edge += 1;
            match next {
                Some((t, Link::Interior(n))) => {
                    path.push(t);
                    stack.push((n as usize, 0));
                }
                Some((t, Link::Terminal(d))) => {
                    let digest = &self.terminals[d as usize];
                    if digest.is_buggy() {
                        path.push(t);
                        found.push((
                            path.clone(),
                            digest.bug.clone().expect("buggy digest has a bug"),
                        ));
                        path.pop();
                    }
                }
                None => {
                    stack.pop();
                    path.pop();
                }
            }
        }
        found.sort_by(|a, b| a.0.cmp(&b.0));
        found
    }

    /// Walk the trie, feeding the scheduler cached scheduling points, until
    /// the decision path either reaches a cached terminal (hit) or leaves the
    /// trie (miss). On a hit the optional trace receives the full decision
    /// path and per-step enabled counts. Takes only a shared borrow so
    /// concurrent workers can walk one cache in parallel.
    fn walk(&self, scheduler: &mut BoundedDfs, mut trace: Option<&mut VisitTrace>) -> Walk {
        if self.nodes.is_empty() {
            return Walk::Miss {
                depth: 0,
                record: !self.full,
            };
        }
        // Scratch point reused to present Forced nodes to the scheduler. The
        // synthesized fields are chosen so every scheduler-visible quantity
        // matches the real point: `round_robin_choice` returns the single
        // enabled thread and both bound policies price it at zero, exactly as
        // they do on the real forced point.
        let mut scratch = SchedulingPoint {
            enabled: Vec::with_capacity(1),
            last: None,
            last_enabled: true,
            num_threads: 1,
            step_index: 0,
            pending: Vec::with_capacity(1),
        };
        let mut cursor = 0usize;
        let mut depth = 0usize;
        loop {
            let next = match &self.nodes[cursor] {
                Node::Forced { op, next } => {
                    scratch.enabled.clear();
                    scratch.enabled.push(op.thread);
                    scratch.pending.clear();
                    scratch.pending.push(*op);
                    scratch.last = Some(op.thread);
                    scratch.num_threads = op.thread.index() + 1;
                    scratch.step_index = depth;
                    let chosen = scheduler.choose(&scratch);
                    debug_assert_eq!(chosen, op.thread, "forced node must pick its only thread");
                    if let Some(t) = trace.as_deref_mut() {
                        t.schedule.push(chosen);
                        t.enabled_counts.push(1);
                    }
                    if chosen == op.thread {
                        *next
                    } else {
                        None
                    }
                }
                Node::Choice { point, edges } => {
                    let chosen = scheduler.choose(point);
                    if let Some(t) = trace.as_deref_mut() {
                        t.schedule.push(chosen);
                        t.enabled_counts.push(point.enabled.len() as u32);
                    }
                    edges.iter().find(|(d, _)| *d == chosen).map(|(_, l)| *l)
                }
            };
            match next {
                Some(Link::Interior(n)) => {
                    cursor = n as usize;
                    depth += 1;
                }
                Some(Link::Terminal(d)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Walk::Hit(self.terminals[d as usize].clone());
                }
                None => {
                    // The caller re-runs the schedule for real and rebuilds
                    // the trace from the outcome.
                    if let Some(t) = trace.as_deref_mut() {
                        t.schedule.clear();
                        t.enabled_counts.clear();
                    }
                    return Walk::Miss {
                        depth: depth + 1,
                        record: !self.full,
                    };
                }
            }
        }
    }

    /// Insert a completed execution: `schedule` is its full decision path,
    /// `recorded` the fresh nodes of its scheduling points from `miss_depth`
    /// on (the prefix below `miss_depth` is already in the trie — or, under a
    /// shared cache, may have been inserted by another worker in the
    /// meantime). The nodes the trie lacks are moved into it; the rest are
    /// dropped.
    ///
    /// The byte cap is checked after every charged node, not once per suffix:
    /// the moment the estimate reaches `max_bytes` the insert stops, so the
    /// cache overshoots by at most the node that crossed the line. A
    /// truncated path (interior nodes without their terminal) is valid trie
    /// content — walks miss at its end and fall back to a real execution.
    fn insert(
        &mut self,
        schedule: &[ThreadId],
        miss_depth: usize,
        recorded: Vec<Node>,
        digest: TerminalDigest,
    ) {
        if self.full || schedule.is_empty() {
            return;
        }
        debug_assert_eq!(miss_depth + recorded.len(), schedule.len());
        let mut recorded = recorded.into_iter();
        // Depth of the node `recorded` yields next.
        let mut head = miss_depth;
        let mut node_at = |depth: usize| {
            debug_assert!(depth >= head, "missing node for cached prefix");
            let node = recorded.nth(depth - head).expect("one node per decision");
            head = depth + 1;
            node
        };
        if self.nodes.is_empty() {
            debug_assert_eq!(miss_depth, 0);
            let node = node_at(0);
            self.bytes += node.weight();
            self.nodes.push(node);
            if self.bytes >= self.max_bytes {
                self.full = true;
                return;
            }
        }
        let mut cursor = 0usize;
        let mut terminal = Some(digest);
        for (i, &t) in schedule.iter().enumerate() {
            let is_last = i + 1 == schedule.len();
            match self.nodes[cursor].edge(t) {
                Some(Link::Interior(n)) => {
                    debug_assert!(!is_last, "an interior edge cannot end a schedule");
                    cursor = n as usize;
                }
                Some(Link::Terminal(_)) => {
                    // Another worker inserted the same schedule concurrently.
                    debug_assert!(is_last, "a terminal edge cannot continue a schedule");
                    return;
                }
                None => {
                    let link = if is_last {
                        let d = self.terminals.len() as u32;
                        self.terminals
                            .push(terminal.take().expect("terminal digest consumed twice"));
                        self.bytes += TERMINAL_BYTES;
                        Link::Terminal(d)
                    } else {
                        let node = node_at(i + 1);
                        self.bytes += node.weight();
                        let n = self.nodes.len() as u32;
                        self.nodes.push(node);
                        Link::Interior(n)
                    };
                    match &mut self.nodes[cursor] {
                        Node::Forced { op, next } => {
                            debug_assert_eq!(t, op.thread);
                            *next = Some(link);
                        }
                        Node::Choice { edges, .. } => edges.push((t, link)),
                    }
                    if let Link::Interior(n) = link {
                        cursor = n as usize;
                    }
                    if self.bytes >= self.max_bytes {
                        self.full = true;
                        if !is_last {
                            // Truncated: the rest of the suffix (and its
                            // terminal) is dropped.
                            return;
                        }
                    }
                }
            }
        }
        self.insertions += 1;
    }
}

/// How a driver reaches its schedule cache, if any.
pub enum CacheHandle<'a> {
    /// Caching disabled: every schedule executes for real.
    Off,
    /// A cache owned by one serial search.
    Local(&'a mut ScheduleCache),
    /// A cache shared between threads. Lookups and
    /// insertions are transparent memo operations, so sharing never changes
    /// any result — only how many executions are physically skipped. Walks
    /// take the read lock (they run concurrently; the hit counter is
    /// atomic), insertions the write lock.
    Shared(&'a RwLock<ScheduleCache>),
}

impl CacheHandle<'_> {
    // Lock poisoning is recovered, not propagated: the cache is a pure memo,
    // so the worst a panic-interrupted writer can leave behind is a trie that
    // memoizes less than it could — statistics come from per-driver mirrors,
    // never from the live trie. The harness additionally resets a shared
    // cache to its pristine baseline after catching an engine panic
    // ([`SharedCache::restore_baseline`]), so one blown-up technique cannot
    // poison the rest of the study.
    fn read<R>(&self, f: impl FnOnce(&ScheduleCache) -> R) -> Option<R> {
        match self {
            CacheHandle::Off => None,
            CacheHandle::Local(cache) => Some(f(cache)),
            CacheHandle::Shared(lock) => {
                Some(f(&lock.read().unwrap_or_else(PoisonError::into_inner)))
            }
        }
    }

    fn write<R>(&mut self, f: impl FnOnce(&mut ScheduleCache) -> R) -> Option<R> {
        match self {
            CacheHandle::Off => None,
            CacheHandle::Local(cache) => Some(f(cache)),
            CacheHandle::Shared(lock) => {
                Some(f(&mut lock.write().unwrap_or_else(PoisonError::into_inner)))
            }
        }
    }
}

/// How one schedule was completed by [`run_begun_schedule`].
pub enum ScheduleRun {
    /// Served entirely from the cache; the program was **not** executed.
    Served(TerminalDigest),
    /// Executed for real (cache miss, cache full, or caching off).
    Executed(ExecutionOutcome),
}

impl ScheduleRun {
    /// The terminal digest of the completed schedule, computed from the
    /// outcome when it was executed — one accessor for all of the
    /// per-schedule summary fields, so callers cannot drift between the
    /// served and executed representations.
    pub fn digest(&self) -> TerminalDigest {
        match self {
            ScheduleRun::Served(digest) => digest.clone(),
            ScheduleRun::Executed(outcome) => TerminalDigest::of(outcome),
        }
    }

    /// Cost of the completed schedule under the given bound kind — from the
    /// recorded steps when it was executed, from the digest when it was
    /// served (the two always agree: the digest was computed from the same
    /// deterministic execution).
    pub fn cost(&self, kind: crate::bounds::BoundKind) -> u32 {
        use crate::bounds::BoundKind;
        match (self, kind) {
            (_, BoundKind::None) => 0,
            (ScheduleRun::Executed(o), BoundKind::Preemption) => o.preemption_count(),
            (ScheduleRun::Executed(o), BoundKind::Delay) => o.delay_count(),
            (ScheduleRun::Served(d), BoundKind::Preemption) => d.preemptions,
            (ScheduleRun::Served(d), BoundKind::Delay) => d.delays,
        }
    }
}

/// The visit-order footprint of one schedule: its full decision path and the
/// per-step enabled-thread counts, which a [`CacheReplay`] mirror replays.
#[derive(Debug, Default, Clone)]
pub struct VisitTrace {
    /// The decision at every step, in order.
    pub schedule: Vec<ThreadId>,
    /// Number of enabled threads at every step (determines the byte weight a
    /// fresh trie node for that step is charged).
    pub enabled_counts: Vec<u32>,
}

impl VisitTrace {
    fn fill_from(&mut self, outcome: &ExecutionOutcome) {
        self.schedule.clear();
        self.enabled_counts.clear();
        for step in &outcome.steps {
            self.schedule.push(step.thread);
            self.enabled_counts.push(step.enabled.len() as u32);
        }
    }
}

/// Complete the schedule the scheduler has just begun (i.e.
/// [`BoundedDfs::begin_execution`] returned `true`): serve it from the cache
/// when the whole decision path is memoized, otherwise execute it for real —
/// replaying the cached prefix against the live program — and insert the new
/// suffix. With `want_trace` the visit footprint is returned as well.
pub fn run_begun_schedule(
    exec: &mut Execution<'_>,
    scheduler: &mut BoundedDfs,
    mut cache: CacheHandle<'_>,
    want_trace: bool,
) -> (ScheduleRun, Option<VisitTrace>) {
    let mut trace = if want_trace {
        Some(VisitTrace::default())
    } else {
        None
    };
    let walk = cache
        .read(|c| c.walk(scheduler, trace.as_mut()))
        .unwrap_or(Walk::Miss {
            depth: 0,
            record: false,
        });
    let (miss_depth, record) = match walk {
        Walk::Hit(digest) => {
            scheduler.finish_cached_execution();
            return (ScheduleRun::Served(digest), trace);
        }
        Walk::Miss { depth, record } => (depth, record),
    };
    // The walk may have consumed part (or, with an empty cache, none) of the
    // replay prefix; rewind the scheduler's cursor and run the program for
    // real — the stack replay machinery re-issues the same decisions against
    // the live scheduling points.
    scheduler.rewind_replay();
    exec.reset();
    let mut recorded: Vec<Node> = Vec::new();
    let mut step = 0usize;
    let outcome = exec.run(
        &mut |point| {
            if record && step >= miss_depth {
                recorded.push(Node::of_point(point));
            }
            step += 1;
            scheduler.choose(point)
        },
        &mut NoopObserver,
    );
    scheduler.end_execution(&outcome);
    if record {
        let digest = TerminalDigest::of(&outcome);
        let schedule = outcome.schedule();
        cache.write(|c| c.insert(&schedule, miss_depth, recorded, digest));
    }
    if let Some(t) = trace.as_mut() {
        t.fill_from(&outcome);
    }
    (ScheduleRun::Executed(outcome), trace)
}

/// A structure-only mirror of [`ScheduleCache`]: it tracks which decision
/// paths a cache private to one serial search would hold — and the hit and
/// byte counters it would report — without storing any point data. A search
/// over a trie other threads share replays its own visit stream through one,
/// so its `cache_hits` / `cache_bytes` / `executions` statistics do not
/// depend on how those threads interleaved.
#[derive(Debug, Clone)]
pub struct CacheReplay {
    /// Edge lists per node; `None` target marks a terminal edge.
    nodes: Vec<Vec<(ThreadId, Option<u32>)>>,
    bytes: u64,
    max_bytes: u64,
    full: bool,
    hits: u64,
}

impl CacheReplay {
    /// A replay mirror with the same byte cap as the real cache.
    pub fn new(max_bytes: u64) -> Self {
        CacheReplay {
            nodes: Vec::new(),
            bytes: 0,
            max_bytes,
            full: false,
            hits: 0,
        }
    }

    /// A structure-only snapshot of an existing cache: same decision paths,
    /// same byte estimate and fullness, hit counter reset to zero. A driver
    /// resuming from a loaded corpus replays its own visit stream through
    /// such a snapshot so its reported `executions` / `cache_hits` /
    /// `cache_bytes` depend only on the loaded baseline and the (serial)
    /// visit order — not on how concurrent techniques sharing the live cache
    /// happened to interleave.
    pub fn from_cache(cache: &ScheduleCache) -> Self {
        let nodes = cache
            .nodes
            .iter()
            .map(|node| match node {
                Node::Forced { op, next } => match next {
                    None => Vec::new(),
                    Some(Link::Interior(n)) => vec![(op.thread, Some(*n))],
                    Some(Link::Terminal(_)) => vec![(op.thread, None)],
                },
                Node::Choice { edges, .. } => edges
                    .iter()
                    .map(|&(t, link)| match link {
                        Link::Interior(n) => (t, Some(n)),
                        Link::Terminal(_) => (t, None),
                    })
                    .collect(),
            })
            .collect();
        CacheReplay {
            nodes,
            bytes: cache.bytes,
            max_bytes: cache.max_bytes,
            full: cache.full,
            hits: 0,
        }
    }

    /// Hits the serial cache would have reported so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Bytes the serial cache would have charged so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether the mirrored byte cap has been reached (insertions have
    /// stopped, exactly as [`ScheduleCache::is_full`] would report).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Replay one visited schedule. Returns `true` when the serial cache
    /// would have served it (a hit: no program execution), `false` when the
    /// serial driver would have executed it (the path is then inserted,
    /// unless the byte cap has been reached — mirroring
    /// `ScheduleCache::insert` exactly).
    pub fn apply(&mut self, schedule: &[ThreadId], enabled_counts: &[u32]) -> bool {
        debug_assert_eq!(schedule.len(), enabled_counts.len());
        // Walk as far as the trie goes.
        let mut cursor = 0usize;
        let mut matched = 0usize;
        if !self.nodes.is_empty() {
            for (i, &t) in schedule.iter().enumerate() {
                let is_last = i + 1 == schedule.len();
                match self.nodes[cursor].iter().find(|(d, _)| *d == t) {
                    Some((_, Some(n))) => {
                        debug_assert!(!is_last);
                        cursor = *n as usize;
                        matched = i + 1;
                    }
                    Some((_, None)) => {
                        debug_assert!(is_last);
                        self.hits += 1;
                        return true;
                    }
                    None => break,
                }
            }
        }
        // Miss: the serial driver executes the schedule and inserts it.
        if self.full || schedule.is_empty() {
            return false;
        }
        if self.nodes.is_empty() {
            self.bytes += node_weight(enabled_counts[0] as usize);
            self.nodes.push(Vec::new());
            cursor = 0;
            matched = 0;
            if self.bytes >= self.max_bytes {
                self.full = true;
                return false;
            }
        }
        for (i, &t) in schedule.iter().enumerate().skip(matched) {
            let is_last = i + 1 == schedule.len();
            if is_last {
                self.nodes[cursor].push((t, None));
                self.bytes += TERMINAL_BYTES;
            } else {
                self.bytes += node_weight(enabled_counts[i + 1] as usize);
                let n = self.nodes.len() as u32;
                self.nodes.push(Vec::new());
                self.nodes[cursor].push((t, Some(n)));
                cursor = n as usize;
            }
            if self.bytes >= self.max_bytes {
                // Same per-node cap as [`ScheduleCache::insert`]: stop after
                // the node that crossed the line.
                self.full = true;
                break;
            }
        }
        false
    }
}

/// A schedule cache shared across the techniques of one benchmark (and, when
/// resuming, loaded from a persistent corpus — see [`crate::corpus`]).
///
/// The `live` trie is the real memo every driver walks and inserts into; the
/// `baseline` is a frozen [`CacheReplay`] snapshot taken at construction.
/// Each corpus-mode driver clones the baseline via [`SharedCache::mirror`]
/// and replays its own visit stream through the clone, reporting the
/// mirror's hit/byte counters. Counters therefore depend only on the loaded
/// baseline and each technique's deterministic visit order, never on how the
/// techniques' live-cache operations interleaved.
#[derive(Debug)]
pub struct SharedCache {
    live: RwLock<ScheduleCache>,
    baseline: CacheReplay,
    /// A full copy of the load-time trie (digests included, unlike the
    /// structure-only `baseline`), kept so a panic-poisoned live trie can be
    /// rolled back to known-good contents ([`SharedCache::restore_baseline`]).
    pristine: ScheduleCache,
}

impl SharedCache {
    /// Wrap an existing (possibly freshly loaded) cache, freezing its
    /// current contents as the accounting baseline.
    pub fn of(cache: ScheduleCache) -> Self {
        let baseline = CacheReplay::from_cache(&cache);
        let pristine = cache.clone();
        SharedCache {
            live: RwLock::new(cache),
            baseline,
            pristine,
        }
    }

    /// An empty shared cache with the given byte cap.
    pub fn new(max_bytes: u64) -> Self {
        SharedCache::of(ScheduleCache::new(max_bytes))
    }

    /// The live trie, for walking/inserting behind the lock.
    pub fn live(&self) -> &RwLock<ScheduleCache> {
        &self.live
    }

    /// A fresh accounting mirror seeded with the load-time baseline.
    pub fn mirror(&self) -> CacheReplay {
        self.baseline.clone()
    }

    /// Run `f` on the live trie under the read lock (e.g. to serialize it).
    /// A poisoned lock is recovered, not propagated (see [`CacheHandle`]).
    pub fn with_live<R>(&self, f: impl FnOnce(&ScheduleCache) -> R) -> R {
        f(&self.live.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Roll the live trie back to the pristine load-time contents and clear
    /// any lock poisoning. The harness calls this after catching an engine
    /// panic: a writer that unwound mid-insert may have left the trie
    /// structurally inconsistent, and a corrupt memo — unlike a merely stale
    /// one — could serve wrong digests. Memoized work from after load time is
    /// lost (a pure perf cost); subsequent techniques see exactly the
    /// baseline, so their mirror-reported counters stay correct.
    pub fn restore_baseline(&self) {
        let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
        *live = self.pristine.clone();
        self.live.clear_poison();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{BoundKind, DelayBound};
    use crate::dfs::BoundedDfs;
    use sct_ir::prelude::*;
    use sct_runtime::ExecConfig;

    /// Figure 1 of the paper.
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

    /// Drive one bound level through [`run_begun_schedule`], collecting the
    /// per-schedule (cost, buggy, fingerprint) triples of non-redundant
    /// schedules and the number of real executions.
    fn run_level(
        program: &Program,
        bound: u32,
        por: bool,
        cache: Option<&mut ScheduleCache>,
    ) -> (Vec<(u32, bool, u64)>, u64) {
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(program, &config);
        let mut scheduler = BoundedDfs::new(Box::new(DelayBound), bound).with_sleep_sets(por);
        let mut seen = Vec::new();
        let mut executed = 0u64;
        let mut handle = match cache {
            Some(c) => CacheHandle::Local(c),
            None => CacheHandle::Off,
        };
        while scheduler.begin_execution() {
            let borrowed = match &mut handle {
                CacheHandle::Off => CacheHandle::Off,
                CacheHandle::Local(c) => CacheHandle::Local(c),
                CacheHandle::Shared(m) => CacheHandle::Shared(m),
            };
            let (run, _) = run_begun_schedule(&mut exec, &mut scheduler, borrowed, false);
            if matches!(run, ScheduleRun::Executed(_)) {
                executed += 1;
            }
            if scheduler.current_execution_redundant() {
                continue;
            }
            let cost = run.cost(BoundKind::Delay);
            let digest = run.digest();
            seen.push((cost, digest.is_buggy(), digest.fingerprint));
        }
        assert!(scheduler.is_complete());
        (seen, executed)
    }

    #[test]
    fn second_level_serves_the_covered_interior_from_the_cache() {
        let prog = figure1();
        let mut cache = ScheduleCache::default();
        let (plain0, exec0) = run_level(&prog, 0, false, None);
        let (cached0, cexec0) = run_level(&prog, 0, false, Some(&mut cache));
        assert_eq!(plain0, cached0, "level 0 must be unchanged by the cache");
        assert_eq!(exec0, cexec0, "an empty cache cannot serve anything");
        assert_eq!(cache.hits(), 0);
        assert!(cache.insertions() > 0 && cache.bytes() > 0);

        let (plain1, exec1) = run_level(&prog, 1, false, None);
        let (cached1, cexec1) = run_level(&prog, 1, false, Some(&mut cache));
        assert_eq!(plain1, cached1, "cached level 1 diverged from uncached");
        assert_eq!(
            cache.hits(),
            exec0,
            "every level-0 schedule is interior at level 1 and must be served"
        );
        assert_eq!(cexec1 + cache.hits(), exec1);
        assert!(cexec1 < exec1, "the cache saved no executions");
    }

    #[test]
    fn cache_walks_agree_with_real_executions_under_sleep_sets() {
        let prog = figure1();
        let mut cache = ScheduleCache::default();
        for bound in 0..3 {
            let (plain, _) = run_level(&prog, bound, true, None);
            let (cached, _) = run_level(&prog, bound, true, Some(&mut cache));
            assert_eq!(plain, cached, "bound {bound} diverged under POR");
        }
        assert!(cache.hits() > 0);
    }

    #[test]
    fn a_full_cache_stops_growing_but_keeps_serving_and_stays_correct() {
        let prog = figure1();
        // A one-byte cap: the very first node crosses the line, the insert is
        // truncated there (no terminal ever lands) and the door closes.
        let mut cache = ScheduleCache::new(1);
        let (plain0, _) = run_level(&prog, 0, false, None);
        let (cached0, _) = run_level(&prog, 0, false, Some(&mut cache));
        assert_eq!(plain0, cached0);
        assert!(cache.is_full());
        assert_eq!(
            cache.insertions(),
            0,
            "a truncated insert must not count as an insertion"
        );
        let frozen = cache.bytes();
        assert!(
            frozen <= 1 + node_weight(1).max(node_weight(8)).max(TERMINAL_BYTES),
            "cap 1 overshot by more than one node: {frozen}"
        );

        let (plain1, _) = run_level(&prog, 1, false, None);
        let (cached1, _) = run_level(&prog, 1, false, Some(&mut cache));
        assert_eq!(plain1, cached1, "a full cache must still be transparent");
        assert_eq!(cache.bytes(), frozen, "a full cache must not grow");
        assert_eq!(cache.hits(), 0, "a terminal-less trie has nothing to serve");
    }

    /// Satellite: the byte cap is enforced per node during insert, so the
    /// estimate overshoots `max_bytes` by at most the single node that
    /// crossed the line — for every cap, while staying transparent and with
    /// the [`CacheReplay`] mirror bit-identical on bytes and hits.
    #[test]
    fn tiny_caps_overshoot_by_at_most_one_node_and_mirror_exactly() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let (plain, _) = run_level(&prog, 2, false, None);
        // Largest single charge possible: a choice node over every thread the
        // program can enable, or a terminal digest.
        let worst_node = node_weight(8).max(TERMINAL_BYTES);
        for cap in [1u64, 57, 96, 112, 200, 500, 1_000, 5_000, 20_000] {
            let mut cache = ScheduleCache::new(cap);
            let mut replay = CacheReplay::new(cap);
            let mut exec = Execution::new_shared(&prog, &config);
            for bound in 0..3u32 {
                let mut scheduler = BoundedDfs::new(Box::new(DelayBound), bound);
                while scheduler.begin_execution() {
                    let (_, trace) = run_begun_schedule(
                        &mut exec,
                        &mut scheduler,
                        CacheHandle::Local(&mut cache),
                        true,
                    );
                    let trace = trace.expect("trace requested");
                    replay.apply(&trace.schedule, &trace.enabled_counts);
                }
            }
            assert!(
                cache.bytes() <= cap + worst_node,
                "cap {cap} overshot: bytes {} > {cap} + {worst_node}",
                cache.bytes()
            );
            assert_eq!(
                replay.bytes(),
                cache.bytes(),
                "mirror bytes drifted at cap {cap}"
            );
            assert_eq!(
                replay.hits(),
                cache.hits(),
                "mirror hits drifted at cap {cap}"
            );
            // And the capped cache is still transparent.
            let mut capped = ScheduleCache::new(cap);
            let (cached, _) = run_level(&prog, 2, false, Some(&mut capped));
            assert_eq!(plain, cached, "cap {cap} changed observable results");
        }
    }

    /// One execution of `program` in the shape `insert` takes it: the
    /// schedule, a fresh node per scheduling point, the enabled-thread
    /// counts [`CacheReplay::apply`] takes, and the terminal digest. It
    /// follows round robin, except that at step `divert` it picks the last
    /// enabled thread.
    fn recorded_run(
        program: &Program,
        divert: usize,
    ) -> (Vec<ThreadId>, Vec<Node>, Vec<u32>, TerminalDigest) {
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(program, &config);
        let mut nodes = Vec::new();
        let outcome = exec.run(
            &mut |point| {
                let step = nodes.len();
                nodes.push(Node::of_point(point));
                if step == divert {
                    *point.enabled.last().expect("a point has an enabled thread")
                } else {
                    point.round_robin_choice()
                }
            },
            &mut NoopObserver,
        );
        let counts = outcome
            .steps
            .iter()
            .map(|s| s.enabled.len() as u32)
            .collect();
        (
            outcome.schedule(),
            nodes,
            counts,
            TerminalDigest::of(&outcome),
        )
    }

    #[test]
    fn racing_inserts_of_a_shared_prefix_charge_only_the_new_suffix() {
        let prog = figure1();
        let (a, a_nodes, a_counts, a_digest) = recorded_run(&prog, usize::MAX);
        // Diverge from round robin at the last step where that changes the
        // choice, so the two schedules share every decision before it.
        let divert = (0..a.len())
            .rev()
            .find(|&i| {
                matches!(&a_nodes[i], Node::Choice { point, .. }
                    if point.enabled.last() != Some(&a[i]))
            })
            .expect("figure1 has a choice point");
        let (b, b_nodes, b_counts, b_digest) = recorded_run(&prog, divert);
        assert_eq!(a[..divert], b[..divert]);
        assert_ne!(a[divert], b[divert], "the diverted step must differ");

        let mut cache = ScheduleCache::default();
        let mut replay = CacheReplay::new(DEFAULT_CACHE_BYTES);
        // Both inserts claim a miss at the root, as a worker whose walk ran
        // before another worker's insert landed would.
        cache.insert(&a, 0, a_nodes, a_digest.clone());
        replay.apply(&a, &a_counts);
        assert_eq!(cache.bytes(), replay.bytes());
        let before = cache.bytes();
        cache.insert(&b, 0, b_nodes, b_digest.clone());
        replay.apply(&b, &b_counts);
        let suffix: u64 = b_counts[divert + 1..]
            .iter()
            .map(|&n| node_weight(n as usize))
            .sum::<u64>()
            + TERMINAL_BYTES;
        assert_eq!(
            cache.bytes() - before,
            suffix,
            "the shared prefix was charged"
        );
        assert_eq!(cache.bytes(), replay.bytes(), "mirror bytes drifted");
        assert_eq!(cache.insertions(), 2);
        // Each path leads through nodes of its own points to its own digest.
        let follow = |schedule: &[ThreadId], counts: &[u32]| {
            let mut cursor = 0usize;
            for (d, &t) in schedule.iter().enumerate() {
                let node = &cache.nodes[cursor];
                assert_eq!(node.weight(), node_weight(counts[d] as usize), "depth {d}");
                match node.edge(t) {
                    Some(Link::Interior(n)) => cursor = n as usize,
                    Some(Link::Terminal(i)) => return cache.terminals[i as usize].clone(),
                    None => panic!("path left the trie at depth {d}"),
                }
            }
            panic!("path ended without a terminal")
        };
        assert_eq!(follow(&a, &a_counts), a_digest);
        assert_eq!(follow(&b, &b_counts), b_digest);

        // A schedule already in the trie changes nothing.
        let (_, again, _, _) = recorded_run(&prog, usize::MAX);
        cache.insert(&a, 0, again, a_digest);
        assert_eq!(cache.bytes(), replay.bytes());
        assert_eq!(cache.insertions(), 2);
    }

    #[test]
    fn a_mirror_snapshot_of_a_cache_replays_like_the_cache_it_copied() {
        let prog = figure1();
        let mut cache = ScheduleCache::default();
        let (_, _) = run_level(&prog, 0, false, Some(&mut cache));
        let shared = SharedCache::of(cache);
        let mut mirror = shared.mirror();
        assert_eq!(mirror.hits(), 0, "snapshot must reset the hit counter");
        assert_eq!(mirror.bytes(), shared.with_live(|c| c.bytes()));

        // Replaying the level-0 visit stream through the snapshot hits every
        // schedule the live cache can serve and misses the rest, exactly as
        // the live cache does.
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(&prog, &config);
        let mut scheduler = BoundedDfs::new(Box::new(DelayBound), 1);
        let (mut live_hits, mut mirror_hits) = (0u64, 0u64);
        while scheduler.begin_execution() {
            let before = shared.with_live(|c| c.hits());
            let (_, trace) = run_begun_schedule(
                &mut exec,
                &mut scheduler,
                CacheHandle::Shared(shared.live()),
                true,
            );
            live_hits += shared.with_live(|c| c.hits()) - before;
            let trace = trace.expect("trace requested");
            if mirror.apply(&trace.schedule, &trace.enabled_counts) {
                mirror_hits += 1;
            }
        }
        assert!(live_hits > 0, "level 1 must serve the level-0 interior");
        assert_eq!(mirror_hits, live_hits, "mirror and live cache disagree");
        assert_eq!(mirror.bytes(), shared.with_live(|c| c.bytes()));
    }

    /// A technique unit panicking while it holds the live write lock poisons
    /// the `RwLock`; the recovery path must bring the shared trie back to
    /// its load-time contents, clear the poison, and keep the mirror
    /// snapshot consistent with the restored live cache.
    #[test]
    fn restore_baseline_recovers_a_poisoned_live_lock_to_the_loaded_contents() {
        let prog = figure1();
        let mut cache = ScheduleCache::default();
        let (_, _) = run_level(&prog, 0, false, Some(&mut cache));
        let loaded_bytes = cache.bytes();
        assert!(loaded_bytes > 0, "the level-0 interior must be non-empty");
        let shared = SharedCache::of(cache);

        let unit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut live = shared.live().write().unwrap();
            *live = ScheduleCache::new(1); // torn mid-update state
            panic!("engine died mid-insertion");
        }));
        assert!(unit.is_err());
        assert!(shared.live().is_poisoned());

        shared.restore_baseline();
        assert!(!shared.live().is_poisoned(), "recovery must clear poison");
        assert_eq!(shared.with_live(|c| c.bytes()), loaded_bytes);
        assert_eq!(
            shared.mirror().bytes(),
            loaded_bytes,
            "the mirror must still describe the restored live contents"
        );
    }

    #[test]
    fn replay_mirror_reproduces_hits_and_bytes_of_the_real_cache() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(&prog, &config);
        let mut cache = ScheduleCache::default();
        let mut replay = CacheReplay::new(DEFAULT_CACHE_BYTES);
        for bound in 0..3u32 {
            let mut scheduler = BoundedDfs::new(Box::new(DelayBound), bound);
            while scheduler.begin_execution() {
                let (_, trace) = run_begun_schedule(
                    &mut exec,
                    &mut scheduler,
                    CacheHandle::Local(&mut cache),
                    true,
                );
                let trace = trace.expect("trace requested");
                replay.apply(&trace.schedule, &trace.enabled_counts);
            }
        }
        assert!(cache.hits() > 0);
        assert_eq!(replay.hits(), cache.hits(), "replay hit count drifted");
        assert_eq!(replay.bytes(), cache.bytes(), "replay byte count drifted");
    }
}
