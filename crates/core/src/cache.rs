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
//! by the decision sequence, stored flat in append-only pools rather than as
//! one heap block per node:
//!
//! * a **forced node** (one enabled thread, the overwhelmingly common case)
//!   holds that thread's [`PendingOp`] and its single outgoing link inline;
//! * a **choice node** holds the scalars of its [`SchedulingPoint`], the
//!   range of the shared operation pool that holds its enabled threads'
//!   [`PendingOp`]s (the enabled threads are their threads), and the head of
//!   its list of explored decisions in the shared edge pool;
//! * a **terminal** stores a [`TerminalDigest`]: the bug classification,
//!   final-state fingerprint, preemption/delay costs and the summary
//!   statistics [`crate::stats::ExplorationStats`] needs to record the
//!   schedule.
//!
//! [`run_begun_schedule`] then drives one schedule of a [`BoundedDfs`]: it
//! feeds the scheduler cached points for as long as the decision path stays
//! inside the trie. Inside the replayed prefix the scheduler reads only a
//! node's operations (`BoundedDfs::replay_step`), so only frontier nodes
//! are copied into a scratch point. Reaching a cached terminal serves the
//! whole schedule **without executing the program**; leaving the trie falls
//! back to a real execution (the scheduler's replay machinery re-runs the
//! prefix against the live program) whose new suffix is recorded straight
//! into the flat layout and then inserted into the trie.
//!
//! Inside [`crate::explore`] producers only walk, under the read lock, and
//! hand the fold each schedule's decision path and recorded missing suffix;
//! the fold is the only writer, inserting in serial visit order. A campaign's
//! [`SharedCache`] is an append-only arena whose searches each account
//! through a `View`: the load-time trie plus what the search itself charged,
//! which is what a cache private to the search would hold.
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
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default memory cap for a schedule cache (per technique per benchmark).
pub const DEFAULT_CACHE_BYTES: u64 = 128 * 1024 * 1024;

/// Charged bytes of one interior trie node with `enabled` runnable threads:
/// an accounting model of the trie's size, not a measurement of it. The
/// constants date from a layout that kept a cloned scheduling point and an
/// edge vector per choice node; the flat pools hold less, but the model is
/// kept unchanged so that every byte cap, `cache_bytes` figure and
/// fullness decision stays exactly what it was.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Link {
    /// The decision leads to another scheduling point.
    Interior(u32),
    /// The decision ends the execution; index into the terminal table.
    Terminal(u32),
}

/// One memoized scheduling point, stored by value: a choice node's pending
/// operations and edges live in its trie's `ops` and `edges` pools.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    /// Exactly one thread was enabled: the scheduler has no choice, so only
    /// the pending-operation summary (needed by sleep-set inheritance) and
    /// the single outgoing edge are kept.
    Forced { op: PendingOp, next: Option<Link> },
    /// A genuine choice: the scheduling point's scalars, its enabled
    /// threads' pending operations as the pool range `ops..ops + width` (in
    /// thread order; the enabled threads are their threads), and the head of
    /// its list of explored decisions in the edge pool.
    Choice {
        last: Option<ThreadId>,
        last_enabled: bool,
        num_threads: usize,
        step_index: usize,
        ops: u32,
        width: u32,
        edges: Option<u32>,
    },
}

impl Node {
    /// The pending operations of the node's enabled threads, `pool` being
    /// the `ops` pool its choice range indexes.
    pub(crate) fn ops<'a>(&'a self, pool: &'a [PendingOp]) -> &'a [PendingOp] {
        match self {
            Node::Forced { op, .. } => std::slice::from_ref(op),
            Node::Choice { ops, width, .. } => &pool[*ops as usize..][..*width as usize],
        }
    }

    /// The node's [`node_weight`] charge.
    pub(crate) fn weight(&self) -> u64 {
        match self {
            Node::Forced { .. } => node_weight(1),
            Node::Choice { width, .. } => node_weight(*width as usize),
        }
    }

    /// Present the node, whose operations are `ops`, as the scheduling point
    /// at `depth`, reusing `point`'s buffers. A forced node's synthesized
    /// fields make every scheduler-visible quantity match the real point:
    /// `round_robin_choice` returns the single enabled thread and both bound
    /// policies price it at zero, exactly as they do on the real forced
    /// point.
    fn present(&self, ops: &[PendingOp], depth: usize, point: &mut SchedulingPoint) {
        (
            point.last,
            point.last_enabled,
            point.num_threads,
            point.step_index,
        ) = match *self {
            Node::Forced { op, .. } => (Some(op.thread), true, op.thread.index() + 1, depth),
            Node::Choice {
                last,
                last_enabled,
                num_threads,
                step_index,
                ..
            } => (last, last_enabled, num_threads, step_index),
        };
        point.enabled.clear();
        point.enabled.extend(ops.iter().map(|op| op.thread));
        point.pending.clear();
        point.pending.extend_from_slice(ops);
    }
}

/// One explored decision of a choice node: an entry of its trie's edge
/// pool, linked to the node's next edge in insertion order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub(crate) thread: ThreadId,
    pub(crate) link: Link,
    pub(crate) next: Option<u32>,
}

/// Result of walking the trie for one schedule.
enum Walk {
    /// The whole decision path was cached; the terminal digest is returned.
    Hit(TerminalDigest),
    /// The path left the trie after this many decisions.
    Miss(usize),
}

/// The fresh nodes of a missed walk's execution, from the miss depth on, in
/// the trie's flat layout: the choice nodes' ranges index `ops`.
pub(crate) struct Suffix {
    depth: usize,
    nodes: Vec<Node>,
    ops: Vec<PendingOp>,
}

impl Suffix {
    fn new(depth: usize) -> Self {
        Suffix {
            depth,
            nodes: Vec::new(),
            ops: Vec::new(),
        }
    }

    /// Record the scheduling point at the next depth as a fresh node.
    fn record(&mut self, point: &SchedulingPoint) {
        let node = match point.pending[..] {
            [op] => Node::Forced { op, next: None },
            _ => {
                let ops = self.ops.len() as u32;
                self.ops.extend_from_slice(&point.pending);
                Node::Choice {
                    last: point.last,
                    last_enabled: point.last_enabled,
                    num_threads: point.num_threads,
                    step_index: point.step_index,
                    ops,
                    width: point.pending.len() as u32,
                    edges: None,
                }
            }
        };
        self.nodes.push(node);
    }
}

/// What a completed schedule leaves for the fold to insert: its decision
/// path and, after a miss, the nodes the trie lacked.
pub(crate) struct Footprint {
    pub(crate) path: Vec<ThreadId>,
    pub(crate) suffix: Option<Box<Suffix>>,
}

/// A prefix-keyed memo of the deterministic program: scheduling points keyed
/// by decision prefix, terminal digests keyed by full decision sequence. See
/// the module documentation for how the exploration drivers use it.
#[derive(Debug, Clone)]
pub struct ScheduleCache {
    pub(crate) nodes: Vec<Node>,
    /// Every choice node's pending operations, one contiguous run per node
    /// in node order.
    pub(crate) ops: Vec<PendingOp>,
    /// Every choice node's explored decisions, linked per node.
    pub(crate) edges: Vec<Edge>,
    pub(crate) terminals: Vec<TerminalDigest>,
    pub(crate) bytes: u64,
    pub(crate) max_bytes: u64,
    pub(crate) full: bool,
    hits: u64,
    insertions: u64,
}

/// The size and counters of a trie at one moment. The trie is append-only
/// and every link added later targets a node or terminal added later, so
/// [`ScheduleCache::truncate`] to an extent gives back exactly the trie it
/// was taken from.
#[derive(Debug, Clone, Copy)]
struct Extent {
    nodes: usize,
    ops: usize,
    edges: usize,
    terminals: usize,
    bytes: u64,
    full: bool,
    hits: u64,
    insertions: u64,
}

impl Default for ScheduleCache {
    fn default() -> Self {
        ScheduleCache::new(DEFAULT_CACHE_BYTES)
    }
}

impl ScheduleCache {
    /// An empty cache that stops growing once its byte estimate reaches
    /// `max_bytes` (it keeps serving what it already holds).
    pub fn new(max_bytes: u64) -> Self {
        ScheduleCache {
            nodes: Vec::new(),
            ops: Vec::new(),
            edges: Vec::new(),
            terminals: Vec::new(),
            bytes: 0,
            max_bytes,
            full: false,
            hits: 0,
            insertions: 0,
        }
    }

    /// Number of schedules [`run_begun_schedule`] served entirely from the
    /// cache (no execution).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Estimated bytes held by the trie.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of schedules inserted.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Whether the byte cap has been reached (capped insertions have
    /// stopped; a campaign arena is capped by its searches' views instead).
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// The edge list starting at `head`, in insertion order.
    fn edge_list(&self, head: Option<u32>) -> impl Iterator<Item = &Edge> + '_ {
        let at = |i: u32| &self.edges[i as usize];
        std::iter::successors(head.map(at), move |edge| edge.next.map(at))
    }

    /// Every outgoing edge of node `node` as (decision, link), in edge order.
    pub(crate) fn links(&self, node: usize) -> impl Iterator<Item = (ThreadId, Link)> + '_ {
        let (forced, head) = match self.nodes[node] {
            Node::Forced { op, next } => (next.map(|link| (op.thread, link)), None),
            Node::Choice { edges, .. } => (None, edges),
        };
        let edges = self.edge_list(head).map(|edge| (edge.thread, edge.link));
        forced.into_iter().chain(edges)
    }

    /// Where decision `t` leads from node `node`, if it was explored.
    pub(crate) fn edge(&self, node: usize, t: ThreadId) -> Option<Link> {
        match self.nodes[node] {
            Node::Forced { op, next } => next.filter(|_| op.thread == t),
            Node::Choice { edges, .. } => self
                .edge_list(edges)
                .find(|edge| edge.thread == t)
                .map(|edge| edge.link),
        }
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
            let next = self.links(node).nth(*edge);
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
    /// trie (miss). `path`, if given, receives the walked decisions. Takes
    /// only a shared borrow so concurrent workers can walk one cache in
    /// parallel.
    fn walk(&self, scheduler: &mut BoundedDfs, mut path: Option<&mut Vec<ThreadId>>) -> Walk {
        if self.nodes.is_empty() {
            return Walk::Miss(0);
        }
        // Inside the replayed prefix the scheduler reads only a node's
        // operations; a frontier node is presented through this scratch
        // point.
        let mut scratch = SchedulingPoint::default();
        let mut cursor = 0usize;
        let mut depth = 0usize;
        loop {
            let node = &self.nodes[cursor];
            let ops = node.ops(&self.ops);
            let chosen = scheduler.replay_step(ops).unwrap_or_else(|| {
                node.present(ops, depth, &mut scratch);
                scheduler.choose(&scratch)
            });
            debug_assert!(
                matches!(node, Node::Choice { .. }) || chosen == ops[0].thread,
                "forced node must pick its only thread"
            );
            if let Some(path) = path.as_deref_mut() {
                path.push(chosen);
            }
            match self.edge(cursor, chosen) {
                Some(Link::Interior(n)) => {
                    cursor = n as usize;
                    depth += 1;
                }
                Some(Link::Terminal(d)) => return Walk::Hit(self.terminals[d as usize].clone()),
                None => return Walk::Miss(depth + 1),
            }
        }
    }

    /// Add `bytes` to the estimate; whether the cap is now reached.
    fn charge(&mut self, bytes: u64) -> bool {
        self.bytes += bytes;
        self.full |= self.bytes >= self.max_bytes;
        self.full
    }

    /// Append `node`, whose choice range indexes `pool`, moving its
    /// operations into this trie's pool; whether the cap is now reached.
    fn push(&mut self, mut node: Node, pool: &[PendingOp]) -> bool {
        if let Node::Choice { ops, width, .. } = &mut node {
            let recorded = &pool[*ops as usize..][..*width as usize];
            *ops = self.ops.len() as u32;
            self.ops.extend_from_slice(recorded);
        }
        self.nodes.push(node);
        self.charge(node.weight())
    }

    /// Add the edge `t -> link` to node `node`, after its existing edges.
    fn link(&mut self, node: usize, t: ThreadId, link: Link) {
        let added = self.edges.len() as u32;
        let mut slot = match &mut self.nodes[node] {
            Node::Forced { op, next } => {
                debug_assert_eq!(t, op.thread);
                *next = Some(link);
                return;
            }
            Node::Choice { edges, .. } => edges,
        };
        while let Some(i) = *slot {
            slot = &mut self.edges[i as usize].next;
        }
        *slot = Some(added);
        self.edges.push(Edge {
            thread: t,
            link,
            next: None,
        });
    }

    /// Insert a completed execution's `path`, taking the nodes the trie lacks
    /// from `suffix` (the trie may have grown past the miss depth since the
    /// walk, up to the whole path).
    ///
    /// A `capped` insert stops the moment the estimate reaches `max_bytes`,
    /// so the cache overshoots by at most the node that crossed the line; a
    /// truncated path is valid content (walks miss at its end). An uncapped
    /// insert, into a campaign arena whose views cap it instead, places the
    /// whole path and keeps `full` consistent with `bytes`.
    pub(crate) fn insert(
        &mut self,
        path: &[ThreadId],
        suffix: &Suffix,
        digest: TerminalDigest,
        capped: bool,
    ) {
        if (capped && self.full) || path.is_empty() {
            return;
        }
        debug_assert_eq!(suffix.depth + suffix.nodes.len(), path.len());
        let recorded = |depth: usize| {
            let i = depth.checked_sub(suffix.depth);
            suffix.nodes[i.expect("missing node for cached prefix")]
        };
        if self.nodes.is_empty() && self.push(recorded(0), &suffix.ops) && capped {
            return;
        }
        let mut cursor = 0usize;
        let mut terminal = Some(digest);
        for (i, &t) in path.iter().enumerate() {
            let is_last = i + 1 == path.len();
            let link = match self.edge(cursor, t) {
                Some(Link::Interior(n)) => {
                    debug_assert!(!is_last, "an interior edge cannot end a schedule");
                    cursor = n as usize;
                    continue;
                }
                Some(Link::Terminal(_)) => {
                    debug_assert!(is_last, "a terminal edge cannot continue a schedule");
                    return;
                }
                None if is_last => {
                    let d = self.terminals.len() as u32;
                    self.terminals
                        .push(terminal.take().expect("terminal digest consumed twice"));
                    self.charge(TERMINAL_BYTES);
                    Link::Terminal(d)
                }
                None => {
                    let n = self.nodes.len() as u32;
                    self.push(recorded(i + 1), &suffix.ops);
                    Link::Interior(n)
                }
            };
            self.link(cursor, t, link);
            if let Link::Interior(n) = link {
                cursor = n as usize;
            }
            if capped && self.full && !is_last {
                // Truncated: the rest of the suffix (and its terminal) is
                // dropped.
                return;
            }
        }
        self.insertions += 1;
    }

    fn extent(&self) -> Extent {
        Extent {
            nodes: self.nodes.len(),
            ops: self.ops.len(),
            edges: self.edges.len(),
            terminals: self.terminals.len(),
            bytes: self.bytes,
            full: self.full,
            hits: self.hits,
            insertions: self.insertions,
        }
    }

    /// Roll the trie back to `extent`, taken from it earlier: drop what was
    /// appended since and cut every link that points past the extent, which
    /// can only be a link added since.
    fn truncate(&mut self, extent: &Extent) {
        self.nodes.truncate(extent.nodes);
        self.ops.truncate(extent.ops);
        self.edges.truncate(extent.edges);
        self.terminals.truncate(extent.terminals);
        (self.bytes, self.full) = (extent.bytes, extent.full);
        (self.hits, self.insertions) = (extent.hits, extent.insertions);
        let kept_link = |link: &Link| match *link {
            Link::Interior(n) => (n as usize) < extent.nodes,
            Link::Terminal(d) => (d as usize) < extent.terminals,
        };
        let kept_edge = |i: &u32| (*i as usize) < extent.edges;
        for node in &mut self.nodes {
            match node {
                Node::Forced { next, .. } => *next = next.filter(kept_link),
                Node::Choice { edges, .. } => *edges = edges.filter(kept_edge),
            }
        }
        for edge in &mut self.edges {
            edge.next = edge.next.filter(kept_edge);
        }
    }
}

// Lock poisoning is recovered, not propagated: statistics come from the
// fold's own counts and views, never from the trie, and the harness resets a
// shared cache to its load-time extent after catching an engine panic
// ([`SharedCache::restore_baseline`]).
pub(crate) fn read(lock: &RwLock<ScheduleCache>) -> RwLockReadGuard<'_, ScheduleCache> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write(lock: &RwLock<ScheduleCache>) -> RwLockWriteGuard<'_, ScheduleCache> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// How a caller of [`run_begun_schedule`] reaches its schedule cache, if any.
pub enum CacheHandle<'a> {
    /// Caching disabled: every schedule executes for real.
    Off,
    /// A cache owned by one serial search.
    Local(&'a mut ScheduleCache),
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

/// Complete a walked schedule: serve a hit, or execute a miss for real,
/// recording the fresh nodes from the miss depth on when `record` is set.
/// The footprint carries the path when `path` was collected or on a record.
fn finish(
    exec: &mut Execution<'_>,
    scheduler: &mut BoundedDfs,
    walk: Walk,
    record: bool,
    path: Option<Vec<ThreadId>>,
) -> (ScheduleRun, Option<Footprint>) {
    let depth = match walk {
        Walk::Hit(digest) => {
            scheduler.finish_cached_execution();
            let footprint = path.map(|path| Footprint { path, suffix: None });
            return (ScheduleRun::Served(digest), footprint);
        }
        Walk::Miss(depth) => depth,
    };
    // The walk may have consumed part (or, with an empty cache, none) of the
    // replay prefix; rewind the scheduler's cursor and run the program for
    // real — the stack replay machinery re-issues the same decisions against
    // the live scheduling points.
    scheduler.rewind_replay();
    exec.reset();
    let mut suffix = Suffix::new(depth);
    let mut step = 0usize;
    let outcome = exec.run(
        &mut |point| {
            if record && step >= depth {
                suffix.record(point);
            }
            step += 1;
            scheduler.choose(point)
        },
        &mut NoopObserver,
    );
    scheduler.end_execution(&outcome);
    let footprint = (record || path.is_some()).then(|| Footprint {
        path: outcome.schedule(),
        suffix: record.then(|| Box::new(suffix)),
    });
    (ScheduleRun::Executed(outcome), footprint)
}

/// Complete the schedule the scheduler has just begun (i.e.
/// [`BoundedDfs::begin_execution`] returned `true`): serve it from the cache
/// when the whole decision path is memoized, otherwise execute it for real —
/// replaying the cached prefix against the live program — and insert the new
/// suffix. With `want_path` the schedule's decision path is returned as well.
pub fn run_begun_schedule(
    exec: &mut Execution<'_>,
    scheduler: &mut BoundedDfs,
    cache: CacheHandle<'_>,
    want_path: bool,
) -> (ScheduleRun, Option<Vec<ThreadId>>) {
    let mut path = want_path.then(Vec::new);
    let (walk, record, cache) = match cache {
        CacheHandle::Off => (Walk::Miss(0), false, None),
        CacheHandle::Local(c) => {
            let walk = c.walk(scheduler, path.as_mut());
            c.hits += u64::from(matches!(walk, Walk::Hit(_)));
            (walk, !c.full, Some(c))
        }
    };
    let (run, footprint) = finish(exec, scheduler, walk, record, path);
    let path = footprint.map(|Footprint { path, suffix }| {
        if let (Some(suffix), Some(c)) = (suffix, cache) {
            c.insert(&path, &suffix, run.digest(), true);
        }
        path
    });
    (run, path.filter(|_| want_path))
}

/// The trie a producer of [`crate::explore`] walks, read-only.
#[derive(Clone, Copy)]
pub(crate) struct Walker<'a> {
    pub(crate) trie: &'a RwLock<ScheduleCache>,
    /// A campaign arena, capped by each search's view instead of its own
    /// budget: every miss is recorded, and every visit returns the path the
    /// view charges. A private trie records misses while it has room.
    pub(crate) arena: bool,
}

/// Complete a begun schedule for a producer of [`crate::explore`]: walk the
/// trie under its read lock and, on a miss, execute and record the missing
/// suffix. Nothing is written: the footprint is the fold's to insert.
pub(crate) fn complete(
    exec: &mut Execution<'_>,
    scheduler: &mut BoundedDfs,
    walker: Option<Walker<'_>>,
) -> (ScheduleRun, Option<Footprint>) {
    let Some(Walker { trie, arena }) = walker else {
        return finish(exec, scheduler, Walk::Miss(0), false, None);
    };
    let mut path = arena.then(Vec::new);
    let (walk, record) = {
        let trie = read(trie);
        (trie.walk(scheduler, path.as_mut()), arena || !trie.full)
    };
    finish(exec, scheduler, walk, record, path)
}

/// A growable bitset over arena indices; every index below `base` counts as
/// set.
#[derive(Debug)]
struct Marks {
    base: u32,
    words: Vec<u64>,
}

impl Marks {
    fn contains(&self, i: u32) -> bool {
        let Some(k) = i.checked_sub(self.base).map(|k| k as usize) else {
            return true;
        };
        self.words
            .get(k / 64)
            .is_some_and(|w| w >> (k % 64) & 1 == 1)
    }

    fn insert(&mut self, i: u32) {
        let k = (i - self.base) as usize;
        if self.words.len() <= k / 64 {
            self.words.resize(k / 64 + 1, 0);
        }
        self.words[k / 64] |= 1 << (k % 64);
    }
}

/// One campaign search's account of the shared arena: the part of it a cache
/// private to the search would hold — the arena's load-time content plus
/// what the search itself charged — with that cache's byte accounting. It
/// depends only on the loaded trie and the search's own visit stream, never
/// on what the benchmark's other searches appended.
#[derive(Debug)]
pub(crate) struct View {
    nodes: Marks,
    terminals: Marks,
    /// The private cache's byte estimate and fullness so far.
    pub(crate) bytes: u64,
    pub(crate) full: bool,
}

impl View {
    fn charge(&mut self, bytes: u64, max_bytes: u64) -> bool {
        self.bytes += bytes;
        self.full |= self.bytes >= max_bytes;
        self.full
    }

    /// Charge one folded schedule against the arena after the fold's insert.
    /// Returns `true` when the private cache would have served it (its path
    /// ends at a terminal the view holds); otherwise charges the rest of the
    /// path exactly as a capped [`ScheduleCache::insert`] would.
    pub(crate) fn apply(&mut self, arena: &ScheduleCache, path: &[ThreadId]) -> bool {
        let rooted = self.nodes.contains(0);
        let mut cursor = 0u32;
        let mut matched = 0usize;
        if rooted {
            for &t in path {
                match arena.edge(cursor as usize, t) {
                    Some(Link::Interior(n)) if self.nodes.contains(n) => {
                        cursor = n;
                        matched += 1;
                    }
                    Some(Link::Terminal(d)) if self.terminals.contains(d) => return true,
                    _ => break,
                }
            }
        }
        if self.full || path.is_empty() {
            return false;
        }
        if !rooted {
            self.nodes.insert(0);
            if self.charge(arena.nodes[0].weight(), arena.max_bytes) {
                return false;
            }
        }
        for &t in &path[matched..] {
            let link = arena.edge(cursor as usize, t);
            let weight = match link.expect("the fold inserts every path a view charges") {
                Link::Interior(n) => {
                    self.nodes.insert(n);
                    cursor = n;
                    arena.nodes[n as usize].weight()
                }
                Link::Terminal(d) => {
                    self.terminals.insert(d);
                    TERMINAL_BYTES
                }
            };
            if self.charge(weight, arena.max_bytes) {
                break;
            }
        }
        false
    }
}

/// A schedule cache shared across the techniques of one benchmark (and, when
/// resuming, loaded from a persistent corpus — see [`crate::corpus`]).
///
/// The `live` trie is an append-only arena: every search walks it, the fold
/// of the running search inserts into it, and each search accounts through a
/// `View` started from the load-time trie. The load-time trie is kept as its
/// extent, not as a copy: the arena only appends, so the extent is both
/// where every view starts and what a panic-poisoned live trie is rolled back
/// to ([`SharedCache::restore_baseline`]). The harness runs a benchmark's
/// campaign searches one at a time.
#[derive(Debug)]
pub struct SharedCache {
    live: RwLock<ScheduleCache>,
    baseline: Extent,
}

impl SharedCache {
    /// Wrap an existing (possibly freshly loaded) cache, recording its
    /// current extent as the accounting baseline.
    pub fn of(cache: ScheduleCache) -> Self {
        SharedCache {
            baseline: cache.extent(),
            live: RwLock::new(cache),
        }
    }

    /// An empty shared cache with the given byte cap.
    pub fn new(max_bytes: u64) -> Self {
        SharedCache::of(ScheduleCache::new(max_bytes))
    }

    /// The live trie, for walking behind the lock. Only the fold of
    /// [`crate::explore`] writes through it.
    pub(crate) fn live(&self) -> &RwLock<ScheduleCache> {
        &self.live
    }

    /// A fresh view of the load-time trie, for one search to account
    /// through.
    pub(crate) fn view(&self) -> View {
        let marks = |base: usize| Marks {
            base: base as u32,
            words: Vec::new(),
        };
        View {
            nodes: marks(self.baseline.nodes),
            terminals: marks(self.baseline.terminals),
            bytes: self.baseline.bytes,
            full: self.baseline.full,
        }
    }

    /// Run `f` on the live trie under the read lock (e.g. to serialize it).
    /// A poisoned lock is recovered, not propagated (see [`CacheHandle`]).
    pub fn with_live<R>(&self, f: impl FnOnce(&ScheduleCache) -> R) -> R {
        f(&read(&self.live))
    }

    /// Roll the live trie back to its load-time contents and clear any lock
    /// poisoning. The harness calls this after catching an engine panic: a
    /// writer that unwound mid-insert may have left nodes or edges appended
    /// but not linked, and a corrupt memo — unlike a merely stale one — could
    /// serve wrong digests. Truncating to the load-time extent drops all of
    /// that. Memoized work from after load time is lost (a pure perf cost);
    /// the next search's view starts from exactly the restored contents.
    pub fn restore_baseline(&self) {
        write(&self.live).truncate(&self.baseline);
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

    /// The caps the view tests run at: one byte (the first node crosses it)
    /// up to a cap the figure-1 searches never reach.
    const CAPS: [u64; 9] = [1, 57, 96, 112, 200, 500, 1_000, 5_000, 20_000];

    /// Delay bounds 0 to 2: the search every view test accounts for.
    const DELAY_LEVELS: &[(BoundKind, u32)] = &[
        (BoundKind::Delay, 0),
        (BoundKind::Delay, 1),
        (BoundKind::Delay, 2),
    ];

    /// Preemption bounds 0 and 1: the sibling search that grows the arena
    /// with its own paths first.
    const SIBLING_LEVELS: &[(BoundKind, u32)] =
        &[(BoundKind::Preemption, 0), (BoundKind::Preemption, 1)];

    /// Drive the bound levels `levels` through a private cache with
    /// [`run_begun_schedule`]: the reference every view must match.
    fn private_search(
        program: &Program,
        cache: &mut ScheduleCache,
        levels: &[(BoundKind, u32)],
        por: bool,
    ) {
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(program, &config);
        for &(kind, bound) in levels {
            let mut dfs = BoundedDfs::new(kind.policy(), bound).with_sleep_sets(por);
            while dfs.begin_execution() {
                run_begun_schedule(&mut exec, &mut dfs, CacheHandle::Local(cache), false);
            }
        }
    }

    /// Drive the bound levels `levels` as one campaign search over `shared`,
    /// folded by the fold's rule: each schedule walks the arena, its
    /// footprint is inserted uncapped while `view` has room, and the view
    /// charges it. Returns the schedules the view would have served and the
    /// arena's physical hits, which never fall below them.
    fn viewed_search(
        program: &Program,
        shared: &SharedCache,
        view: &mut View,
        levels: &[(BoundKind, u32)],
        por: bool,
    ) -> (u64, u64) {
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(program, &config);
        let (mut hits, mut physical) = (0, 0);
        for &(kind, bound) in levels {
            let mut dfs = BoundedDfs::new(kind.policy(), bound).with_sleep_sets(por);
            while dfs.begin_execution() {
                let walker = Walker {
                    trie: shared.live(),
                    arena: true,
                };
                let (run, footprint) = complete(&mut exec, &mut dfs, Some(walker));
                physical += u64::from(matches!(run, ScheduleRun::Served(_)));
                let Footprint { path, suffix } = footprint.expect("an arena walk returns its path");
                if let (false, Some(suffix)) = (view.full, suffix) {
                    write(shared.live()).insert(&path, &suffix, run.digest(), false);
                }
                hits += u64::from(shared.with_live(|arena| view.apply(arena, &path)));
            }
        }
        assert!(physical >= hits, "a view hit the arena could not serve");
        (hits, physical)
    }

    /// Grow `shared` with the sibling search's paths, through the sibling's
    /// own view, then run `levels` through a fresh view. Returns that view,
    /// its hits and the arena's physical hits during the second search.
    fn after_sibling(
        program: &Program,
        shared: &SharedCache,
        levels: &[(BoundKind, u32)],
        por: bool,
    ) -> (View, u64, u64) {
        viewed_search(program, shared, &mut shared.view(), SIBLING_LEVELS, por);
        let mut view = shared.view();
        let (hits, physical) = viewed_search(program, shared, &mut view, levels, por);
        (view, hits, physical)
    }

    /// The view (with `view_hits`) reports what the private cache reports.
    fn assert_mirrors(view: (&View, u64), cache: &ScheduleCache, hits: u64, ctx: &str) {
        let (view, view_hits) = view;
        assert_eq!(view_hits, hits, "{ctx}: view hits drifted");
        assert_eq!(view.bytes, cache.bytes(), "{ctx}: view bytes drifted");
        assert_eq!(view.full, cache.is_full(), "{ctx}: view fullness drifted");
    }

    /// The byte cap is enforced per node during insert, so the estimate
    /// overshoots `max_bytes` by at most the single node that crossed the
    /// line — for every cap, while staying transparent. A view of an arena a
    /// sibling search already grew reports the same bytes, hits and
    /// fullness as the capped private cache.
    #[test]
    fn tiny_caps_overshoot_by_at_most_one_node_and_mirror_exactly() {
        let prog = figure1();
        let (plain, _) = run_level(&prog, 2, false, None);
        // Largest single charge possible: a choice node over every thread the
        // program can enable, or a terminal digest.
        let worst_node = node_weight(8).max(TERMINAL_BYTES);
        for cap in CAPS {
            let mut cache = ScheduleCache::new(cap);
            private_search(&prog, &mut cache, DELAY_LEVELS, false);
            assert!(
                cache.bytes() <= cap + worst_node,
                "cap {cap} overshot: bytes {} > {cap} + {worst_node}",
                cache.bytes()
            );
            let shared = SharedCache::new(cap);
            let (view, hits, _) = after_sibling(&prog, &shared, DELAY_LEVELS, false);
            assert_mirrors((&view, hits), &cache, cache.hits(), &format!("cap {cap}"));
            // And the capped cache is still transparent.
            let mut capped = ScheduleCache::new(cap);
            let (cached, _) = run_level(&prog, 2, false, Some(&mut capped));
            assert_eq!(plain, cached, "cap {cap} changed observable results");
        }
    }

    /// One execution of `program` in the shape `insert` takes it: the
    /// schedule, its recorded suffix (a fresh node per scheduling point), the
    /// enabled-thread counts and the terminal digest. It follows round
    /// robin, except that at step `divert` it picks the last enabled thread.
    fn recorded_run(
        program: &Program,
        divert: usize,
    ) -> (Vec<ThreadId>, Suffix, Vec<u32>, TerminalDigest) {
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(program, &config);
        let mut suffix = Suffix::new(0);
        let outcome = exec.run(
            &mut |point| {
                let step = suffix.nodes.len();
                suffix.record(point);
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
            suffix,
            counts,
            TerminalDigest::of(&outcome),
        )
    }

    #[test]
    fn racing_inserts_of_a_shared_prefix_charge_only_the_new_suffix() {
        let prog = figure1();
        let (a, a_suffix, a_counts, a_digest) = recorded_run(&prog, usize::MAX);
        // Diverge from round robin at the last step where that changes the
        // choice, so the two schedules share every decision before it.
        let divert = (0..a.len())
            .rev()
            .find(|&i| {
                let ops = a_suffix.nodes[i].ops(&a_suffix.ops);
                ops.len() > 1 && ops[ops.len() - 1].thread != a[i]
            })
            .expect("figure1 has a choice point");
        let (b, b_suffix, b_counts, b_digest) = recorded_run(&prog, divert);
        assert_eq!(a[..divert], b[..divert]);
        assert_ne!(a[divert], b[divert], "the diverted step must differ");

        let mut cache = ScheduleCache::default();
        let shared = SharedCache::new(DEFAULT_CACHE_BYTES);
        viewed_search(&prog, &shared, &mut shared.view(), SIBLING_LEVELS, false);
        let mut view = shared.view();
        // Both inserts claim a miss at the root, as a stealing worker whose
        // walk ran before the fold inserted an earlier visit would.
        let mut insert = |path: &[ThreadId], suffix: &Suffix, digest: &TerminalDigest| {
            cache.insert(path, suffix, digest.clone(), true);
            write(shared.live()).insert(path, suffix, digest.clone(), false);
            let served = shared.with_live(|arena| view.apply(arena, path));
            assert!(!served, "a fresh path cannot be served");
            (cache.bytes(), cache.insertions())
        };
        let (before, _) = insert(&a, &a_suffix, &a_digest);
        let (after, insertions) = insert(&b, &b_suffix, &b_digest);
        let suffix: u64 = b_counts[divert + 1..]
            .iter()
            .map(|&n| node_weight(n as usize))
            .sum::<u64>()
            + TERMINAL_BYTES;
        assert_eq!(after - before, suffix, "the shared prefix was charged");
        assert_eq!(insertions, 2);
        // Each path leads through nodes of its own points to its own digest.
        let follow = |schedule: &[ThreadId], counts: &[u32]| {
            let mut cursor = 0usize;
            for (d, &t) in schedule.iter().enumerate() {
                let node = &cache.nodes[cursor];
                assert_eq!(node.weight(), node_weight(counts[d] as usize), "depth {d}");
                match cache.edge(cursor, t) {
                    Some(Link::Interior(n)) => cursor = n as usize,
                    Some(Link::Terminal(i)) => return cache.terminals[i as usize].clone(),
                    None => panic!("path left the trie at depth {d}"),
                }
            }
            panic!("path ended without a terminal")
        };
        assert_eq!(follow(&a, &a_counts), a_digest);
        assert_eq!(follow(&b, &b_counts), b_digest);

        // A schedule already in the trie changes nothing, and the view now
        // serves it.
        let (_, again, _, _) = recorded_run(&prog, usize::MAX);
        cache.insert(&a, &again, a_digest, true);
        assert_eq!((cache.bytes(), cache.insertions()), (after, 2));
        assert!(
            shared.with_live(|arena| view.apply(arena, &a)),
            "the view must hit it"
        );
        assert_mirrors((&view, 1), &cache, 1, "racing inserts");
    }

    #[test]
    fn a_mirror_snapshot_of_a_cache_replays_like_the_cache_it_copied() {
        // A view of a loaded trie starts from exactly the loaded content and
        // then accounts like a private copy of it, however far a sibling
        // search grew the arena in between.
        let prog = figure1();
        for cap in CAPS {
            let mut cache = ScheduleCache::new(cap);
            private_search(&prog, &mut cache, &DELAY_LEVELS[..1], false);
            let shared = SharedCache::of(cache.clone());
            let fresh = shared.view();
            assert_eq!(fresh.bytes, cache.bytes(), "cap {cap}");
            assert_eq!(fresh.full, cache.is_full(), "cap {cap}");

            let loaded_hits = cache.hits();
            private_search(&prog, &mut cache, &DELAY_LEVELS[1..], false);
            let (view, hits, _) = after_sibling(&prog, &shared, &DELAY_LEVELS[1..], false);
            let ctx = format!("cap {cap}");
            assert_mirrors((&view, hits), &cache, cache.hits() - loaded_hits, &ctx);
        }
    }

    /// The figure-1 delay search truncated at this cap ends at a forced node.
    const CAP_AT_A_FORCED_NODE: u64 = 1_800;

    /// Insert every footprint of `levels` over `shared` uncapped, as the
    /// fold inserts into a campaign arena.
    fn grow(program: &Program, shared: &SharedCache, levels: &[(BoundKind, u32)]) {
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(program, &config);
        for &(kind, bound) in levels {
            let mut dfs = BoundedDfs::new(kind.policy(), bound);
            while dfs.begin_execution() {
                let walker = Walker {
                    trie: shared.live(),
                    arena: true,
                };
                let (run, footprint) = complete(&mut exec, &mut dfs, Some(walker));
                let Footprint { path, suffix } = footprint.expect("an arena walk returns its path");
                if let Some(suffix) = suffix {
                    write(shared.live()).insert(&path, &suffix, run.digest(), false);
                }
            }
        }
    }

    /// A technique unit panicking in the middle of an insert poisons the
    /// `RwLock` and can leave nodes and edges appended but not linked; the
    /// recovery path must bring the shared trie back to exactly its loaded
    /// contents — every link added since cut, on load-time forced and choice
    /// nodes alike — clear the poison, and start the next view from the
    /// restored contents.
    #[test]
    fn restore_baseline_recovers_a_poisoned_live_lock_to_the_loaded_contents() {
        let prog = figure1();
        // A capped search whose last insert was truncated just after a
        // forced node: that node is loaded with no outgoing link.
        let mut cache = ScheduleCache::new(CAP_AT_A_FORCED_NODE);
        private_search(&prog, &mut cache, DELAY_LEVELS, false);
        let key = 0x5eed;
        let artifact = crate::corpus::cache_to_bytes(&cache, key);
        let loaded = crate::corpus::cache_from_bytes(&artifact, key, std::path::Path::new("mem"))
            .expect("a saved trie loads");
        let (bytes, full) = (loaded.bytes(), loaded.is_full());
        let before = loaded.clone();
        let shared = SharedCache::of(loaded);
        grow(&prog, &shared, SIBLING_LEVELS);
        grow(&prog, &shared, DELAY_LEVELS);
        shared.with_live(|arena| {
            let gained = |forced: bool| {
                (0..before.nodes.len()).any(|i| {
                    matches!(before.nodes[i], Node::Forced { .. }) == forced
                        && arena.links(i).count() > before.links(i).count()
                })
            };
            assert!(gained(true), "no load-time forced node was linked");
            assert!(gained(false), "no load-time choice node gained an edge");
        });

        let unit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut live = shared.live().write().unwrap();
            // Torn mid-insert: a node and an edge to it, appended but not
            // yet linked from anywhere.
            let op = live.ops[0];
            let n = live.nodes.len() as u32;
            live.nodes.push(Node::Forced { op, next: None });
            live.edges.push(Edge {
                thread: op.thread,
                link: Link::Interior(n),
                next: None,
            });
            panic!("engine died mid-insertion");
        }));
        assert!(unit.is_err());
        assert!(shared.live().is_poisoned());

        shared.restore_baseline();
        assert!(!shared.live().is_poisoned(), "recovery must clear poison");
        assert!(
            shared.with_live(|c| crate::corpus::cache_to_bytes(c, key)) == artifact,
            "the restored trie must encode to the loaded artifact byte for byte"
        );
        let view = shared.view();
        assert_eq!(
            (view.bytes, view.full),
            (bytes, full),
            "a fresh view must describe the restored live contents"
        );
    }

    #[test]
    fn replay_mirror_reproduces_hits_and_bytes_of_the_real_cache() {
        // Uncapped, with and without sleep sets: the view's counters equal
        // the private cache's, while the arena the sibling grew serves
        // strictly more walks than the view counts as hits.
        let prog = figure1();
        for por in [false, true] {
            let mut cache = ScheduleCache::default();
            private_search(&prog, &mut cache, DELAY_LEVELS, por);
            assert!(cache.hits() > 0);
            let shared = SharedCache::new(DEFAULT_CACHE_BYTES);
            let (view, hits, physical) = after_sibling(&prog, &shared, DELAY_LEVELS, por);
            assert_mirrors((&view, hits), &cache, cache.hits(), &format!("por={por}"));
            assert!(
                physical > hits,
                "por={por}: the sibling's paths must serve walks the view charges"
            );
        }
    }
}
