//! The work-stealing producer: one bounded DFS split across threads.
//!
//! The paper's hard benchmarks put nearly all of their schedules into one
//! bound level, so parallelism has to come from *within* a search. Workers
//! claim unexplored decision-prefix subtrees from a shared queue, explore
//! them depth-first with their own reusable [`Execution`], and re-split them
//! whenever another worker goes hungry. The calling thread reads their
//! visits back in serial DFS order — exactly the stream the serial producer
//! yields — so the fold of [`crate::explore`] reports **bit-identical
//! statistics at any worker count**.
//!
//! # The donation protocol
//!
//! Between two executions, a victim's [`BoundedDfs`] stack is exactly the
//! path of the schedule it just completed, and every unexplored alternative
//! hangs off some node of that path. [`BoundedDfs::donate_oldest_subtree`]
//! strips *all* remaining alternatives from the shallowest such node and
//! ships them — with the decision prefix, bound costs, and entry sleep set —
//! as a [`SubtreeSeed`]. A thief seeds a fresh scheduler with it
//! ([`BoundedDfs::seed_subtree`]) and explores exactly the subtrees the
//! serial search would have explored there, in the same order, because the
//! backtracking search is deterministic given the node's entry state. The
//! thief's own seeded node still holds the rest of the bundle, so it
//! re-splits under the same rule when workers go hungry again.
//!
//! # Why the hand-off is sound under POR and bounding
//!
//! The entry sleep set of sibling `i + 1` is the node's sleep set after
//! sibling `i`'s subtree has been explored. Under the wake-on-bound-conflict
//! rule a thread only goes to sleep if the bound excluded nothing inside its
//! subtree — a fact that is unknown until the subtree has been fully
//! explored, so under a *pruning* bound the siblings carry a serial
//! dependency and there is nothing deterministic to donate. When the policy
//! cannot prune ([`crate::bounds::BoundPolicy::can_prune`] is `false`, i.e.
//! plain DFS), the previously chosen thread *always* goes to sleep, so every
//! sibling's entry sleep set is known a priori and donation is exact; with
//! sleep sets off the entry state is just the prefix. Hence the gate: steal
//! only when POR is off or the policy cannot prune; otherwise the search
//! runs on the serial producer. The schedule trie needs no such gate:
//! workers only walk it and send each visit's footprint back with it, and
//! the fold inserts the footprints in serial visit order, so the trie is the
//! serial search's whatever the workers ran past the schedule limit.
//!
//! # Serial order
//!
//! Each task appends to an ordered stream of visits plus `Spawn` markers
//! recording *where in its own stream* a donated bundle belongs: right after
//! the last schedule of the subtree the victim was inside at the donated
//! node, i.e. as soon as its backtracking depth retreats to that node. A
//! cursor on the calling thread walks the root task's stream and expands
//! markers recursively, recovering the serial visit order. Each visit
//! carries its own sleep and prune deltas, and a marker adds its hand-off's
//! sleep insertion to the next visit, so the counters match the serial
//! search exactly, even where the schedule limit cuts the stream.

use crate::bounds::BoundKind;
use crate::cache::{ScheduleRun, TerminalDigest, Walker};
use crate::dfs::{BoundedDfs, SubtreeSeed};
use crate::explore::{self, ExploreLimits, Producer, SerialDfs, Visit};
use crate::stats::ExplorationStats;
use crate::telemetry::{Event, Telemetry};
use sct_ir::Program;
use sct_runtime::{ExecConfig, Execution};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

/// A completed execution with the sleep-set insertions of the begin that
/// chose it, in its producing task's local order.
type Begun = (u64, Visit);

/// One entry of a task's ordered stream.
enum Entry {
    /// A completed execution (`None` once the cursor has consumed it).
    Item(Option<Begun>),
    /// The stream of the given task continues the serial order here.
    Spawn(usize),
}

struct TaskState {
    entries: Vec<Entry>,
    done: bool,
    /// Parked until a worker claims the task; `None` for the root task.
    seed: Option<SubtreeSeed>,
    /// Boundary sleep insertions charged when the cursor enters this stream.
    entry_slept: u64,
    /// Items emitted but not yet taken by the cursor — the producer parks
    /// when this exceeds [`PRODUCER_WINDOW`] so a starved fold (or a
    /// truncating schedule limit) cannot let workers run arbitrarily far
    /// ahead.
    unconsumed: usize,
}

struct EngineState {
    tasks: Vec<TaskState>,
    pending: VecDeque<usize>,
    /// Tasks not yet finished (queued or claimed).
    unfinished: usize,
}

/// Shared state of one stealing engine run.
struct Engine {
    state: Mutex<EngineState>,
    /// Workers wait here for pending tasks.
    work_cv: Condvar,
    /// The cursor waits here for new entries.
    item_cv: Condvar,
    /// Raised once no further results can matter: the fold is over, or a
    /// thread on either side is unwinding.
    stop: AtomicBool,
    /// Workers currently waiting for a task — the hunger signal that makes
    /// busy workers donate a subtree.
    idle: AtomicUsize,
    /// Mirror of `pending.len()` so the donation check stays lock-free.
    pending_len: AtomicUsize,
    /// Producers park here when their task's stream is a full
    /// [`PRODUCER_WINDOW`] ahead of the cursor.
    space_cv: Condvar,
}

impl Engine {
    fn new() -> Self {
        Engine {
            state: Mutex::new(EngineState {
                tasks: vec![TaskState {
                    entries: Vec::new(),
                    done: false,
                    seed: None,
                    entry_slept: 0,
                    unconsumed: 0,
                }],
                pending: VecDeque::from([0]),
                unfinished: 1,
            }),
            work_cv: Condvar::new(),
            item_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            idle: AtomicUsize::new(0),
            pending_len: AtomicUsize::new(1),
            space_cv: Condvar::new(),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Raise the stop flag and wake everyone so they can observe it. Runs
    /// from [`ShutDown::drop`] while a thread unwinds, so it must not panic:
    /// a poisoned lock is taken anyway (only the condvars are touched).
    fn shut_down(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let _guard = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.work_cv.notify_all();
        self.item_cv.notify_all();
        self.space_cv.notify_all();
    }

    /// Register a donated bundle as a new pending task and return its id.
    fn spawn_task(&self, seed: SubtreeSeed) -> usize {
        let entry_slept = seed.entry_slept;
        let mut st = self.state.lock().expect("engine state poisoned");
        let id = st.tasks.len();
        st.tasks.push(TaskState {
            entries: Vec::new(),
            done: false,
            seed: Some(seed),
            entry_slept,
            unconsumed: 0,
        });
        st.pending.push_back(id);
        st.unfinished += 1;
        self.pending_len.store(st.pending.len(), Ordering::Relaxed);
        self.work_cv.notify_one();
        id
    }

    /// Append entries to a task's stream (and optionally finish it).
    fn emit(&self, task: usize, entries: Vec<Entry>, finished: bool) {
        let items = entries
            .iter()
            .filter(|e| matches!(e, Entry::Item(_)))
            .count();
        let mut st = self.state.lock().expect("engine state poisoned");
        st.tasks[task].entries.extend(entries);
        st.tasks[task].unconsumed += items;
        if finished {
            st.tasks[task].done = true;
            st.unfinished -= 1;
            if st.unfinished == 0 {
                self.work_cv.notify_all();
            }
        }
        self.item_cv.notify_all();
    }

    /// Park until the cursor has taken enough of `task`'s stream to leave its
    /// backlog under [`PRODUCER_WINDOW`], returning whether parking
    /// happened — the caller re-checks cancellation and worker hunger
    /// between parks. Deadlock-free by construction: the stream the cursor
    /// is currently waiting on has been consumed up to its end, so its
    /// producer never parks.
    fn wait_for_space(&self, task: usize) -> bool {
        let st = self.state.lock().expect("engine state poisoned");
        if self.stopped() || st.tasks[task].unconsumed < PRODUCER_WINDOW {
            return false;
        }
        drop(self.space_cv.wait(st).expect("engine state poisoned"));
        true
    }
}

/// Shuts the engine down when dropped: always on the folding thread (the
/// fold is over, or unwinding), and on a worker only when it unwinds — a
/// worker that returns normally must not cut off streams the cursor has yet
/// to read. Either way a panic reaches the caller instead of leaving the
/// other threads parked.
struct ShutDown<'a> {
    engine: &'a Engine,
    always: bool,
}

impl Drop for ShutDown<'_> {
    fn drop(&mut self) {
        if self.always || thread::panicking() {
            self.engine.shut_down();
        }
    }
}

/// Per-run configuration shared by every worker.
struct WorkerCtx<'a> {
    engine: &'a Engine,
    program: &'a Program,
    config: &'a ExecConfig,
    kind: BoundKind,
    bound: u32,
    por: bool,
    trie: Option<Walker<'a>>,
    /// Telemetry handle for donation/theft/idle events. Events are
    /// observations only — workers never read telemetry state, so the folded
    /// results cannot depend on it.
    telemetry: &'a Telemetry,
}

/// How many entries a worker accumulates before handing them to the engine.
/// Bounds the fold's latency behind any one worker to a few dozen executions
/// while amortising the lock/wake cost across them.
const EMIT_BATCH: usize = 32;

/// How many emitted-but-unfolded items one task's stream may hold before its
/// producer parks. Without the cap, workers outrunning the fold — a starved
/// consumer thread, or a schedule limit about to truncate the search — would
/// explore (and then discard) arbitrarily much of the tree past the point
/// the serial order has reached.
const PRODUCER_WINDOW: usize = 4 * EMIT_BATCH;

/// Worker loop: claim tasks, explore them execution by execution, donate
/// sibling bundles when other workers starve, and stream entries back.
///
/// `who` is the worker's index within its pool, used only to label telemetry
/// events; it never influences claiming or exploration.
fn worker(ctx: &WorkerCtx<'_>, who: u64) {
    let engine = ctx.engine;
    let mut exec = Execution::new_shared(ctx.program, ctx.config);
    'tasks: loop {
        let (task_id, seed) = {
            let mut st = engine.state.lock().expect("engine state poisoned");
            loop {
                if engine.stopped() || st.unfinished == 0 {
                    return;
                }
                if let Some(id) = st.pending.pop_front() {
                    engine
                        .pending_len
                        .store(st.pending.len(), Ordering::Relaxed);
                    let seed = st.tasks[id].seed.take();
                    break (id, seed);
                }
                engine.idle.fetch_add(1, Ordering::Relaxed);
                // Recorders never touch the engine, so emitting while holding
                // its lock cannot deadlock.
                ctx.telemetry.emit(|| Event::WorkerIdle {
                    program: ctx.program.name.clone(),
                    worker: who,
                    idle: true,
                });
                st = engine.work_cv.wait(st).expect("engine state poisoned");
                engine.idle.fetch_sub(1, Ordering::Relaxed);
                ctx.telemetry.emit(|| Event::WorkerIdle {
                    program: ctx.program.name.clone(),
                    worker: who,
                    idle: false,
                });
            }
        };
        if seed.is_some() {
            // A present seed means this task was donated by another worker and
            // is now being claimed — a completed theft.
            ctx.telemetry.emit(|| Event::StealTheft {
                program: ctx.program.name.clone(),
                worker: who,
                task: task_id as u64,
            });
        }
        let mut dfs = BoundedDfs::new(ctx.kind.policy(), ctx.bound).with_sleep_sets(ctx.por);
        if let Some(seed) = seed {
            dfs.seed_subtree(seed);
        }
        let mut serial = SerialDfs {
            dfs,
            exec: &mut exec,
            kind: ctx.kind,
        };
        // Donations this task made, as (stack index, task id). Indices are
        // strictly increasing: donating empties every alternative list at or
        // below its index, so the next donation is always deeper.
        let mut donated: Vec<(usize, usize)> = Vec::new();
        // Entries accumulated locally and emitted in batches: taking the
        // engine lock and waking the cursor once per execution costs more
        // than many of the executions themselves. Ordering within the task's
        // stream is unchanged; only the hand-off granularity is.
        let mut batch: Vec<Entry> = Vec::new();
        loop {
            // Between executions: observe cancellation, feed hungry workers,
            // and park while this task's stream is too far ahead of the
            // cursor (re-checking the first two between parks).
            loop {
                if engine.stopped() {
                    // Results can no longer matter; finish the task so the
                    // engine's bookkeeping drains cleanly.
                    engine.emit(task_id, std::mem::take(&mut batch), true);
                    return;
                }
                if engine.idle.load(Ordering::Relaxed) > 0
                    && engine.pending_len.load(Ordering::Relaxed) == 0
                {
                    if let Some((seed, depth)) = serial.dfs.donate_oldest_subtree() {
                        let id = engine.spawn_task(seed);
                        ctx.telemetry.emit(|| Event::StealDonate {
                            program: ctx.program.name.clone(),
                            worker: who,
                            task: id as u64,
                            depth: depth as u64,
                        });
                        donated.push((depth, id));
                    }
                }
                if !engine.wait_for_space(task_id) {
                    break;
                }
            }
            let begun = serial.begin();
            // Emit the hand-off markers the serial order has reached: the
            // search retreated past (or never returns to) the donated node.
            let cut = if begun.is_some() {
                serial.dfs.depth()
            } else {
                0
            };
            while donated.last().is_some_and(|&(depth, _)| cut <= depth) {
                let (_, id) = donated.pop().expect("marker stack emptied");
                batch.push(Entry::Spawn(id));
            }
            let Some(slept) = begun else {
                engine.emit(task_id, std::mem::take(&mut batch), true);
                continue 'tasks;
            };
            let mut visit = serial.run(ctx.trie);
            if let ScheduleRun::Executed(outcome) = &visit.run {
                // The fold needs only the digest; the outcome stays here.
                visit.run = ScheduleRun::Served(TerminalDigest::of(outcome));
            }
            batch.push(Entry::Item(Some((slept, visit))));
            if batch.len() >= EMIT_BATCH {
                engine.emit(task_id, std::mem::take(&mut batch), false);
            }
        }
    }
}

/// Serial-order cursor over the nested task streams.
struct Cursor<'a> {
    engine: &'a Engine,
    /// `(task id, next entry index)`, innermost stream last.
    cursors: Vec<(usize, usize)>,
    /// Boundary sleep insertions of expanded markers, awaiting the next item.
    carry_slept: u64,
    /// Items already drained from the streams, awaiting consumption. Taking
    /// the engine lock once per item would contend with the producers; the
    /// cursor instead drains every consecutively available item per
    /// acquisition.
    ready: VecDeque<Begun>,
}

impl<'a> Cursor<'a> {
    fn new(engine: &'a Engine) -> Self {
        Cursor {
            engine,
            cursors: vec![(0, 0)],
            carry_slept: 0,
            ready: VecDeque::new(),
        }
    }

    /// The next item in serial DFS order, blocking until it has been
    /// produced. `None` when the whole search is exhausted — or when the
    /// engine was stopped because a worker is unwinding, whose panic then
    /// reaches the caller when the workers are joined.
    fn next(&mut self) -> Option<Begun> {
        if self.engine.stopped() {
            return None;
        }
        if let Some(item) = self.ready.pop_front() {
            return Some(item);
        }
        let mut st = self.engine.state.lock().expect("engine state poisoned");
        // Wake parked producers once per drain, not once per taken item.
        let mut freed = false;
        loop {
            if self.engine.stopped() {
                return None;
            }
            let Some(&(task, idx)) = self.cursors.last() else {
                // Exhausted: drain the buffer before reporting the end.
                return self.ready.pop_front();
            };
            if idx < st.tasks[task].entries.len() {
                self.cursors.last_mut().expect("cursor stack emptied").1 += 1;
                match &mut st.tasks[task].entries[idx] {
                    Entry::Item(slot) => {
                        let mut item = slot.take().expect("stream entry folded twice");
                        item.0 += std::mem::take(&mut self.carry_slept);
                        self.ready.push_back(item);
                        st.tasks[task].unconsumed -= 1;
                        freed = true;
                    }
                    Entry::Spawn(id) => {
                        let id = *id;
                        self.carry_slept += st.tasks[id].entry_slept;
                        self.cursors.push((id, 0));
                    }
                }
            } else if st.tasks[task].done {
                self.cursors.pop();
            } else if let Some(item) = self.ready.pop_front() {
                // Nothing more is available right now; serve what was
                // drained before sleeping on the producers.
                if freed {
                    self.engine.space_cv.notify_all();
                }
                return Some(item);
            } else {
                if std::mem::take(&mut freed) {
                    self.engine.space_cv.notify_all();
                }
                st = self.engine.item_cv.wait(st).expect("engine state poisoned");
            }
        }
    }
}

/// The stealing engine as a producer: the cursor's visits, begun one at a
/// time. The workers already ran each one, walking the search's trie.
struct Stolen<'a> {
    cursor: Cursor<'a>,
    begun: Option<Visit>,
}

impl Producer for Stolen<'_> {
    fn begin(&mut self) -> Option<u64> {
        let (slept, visit) = self.cursor.next()?;
        self.begun = Some(visit);
        Some(slept)
    }

    fn run(&mut self, _trie: Option<Walker<'_>>) -> Visit {
        self.begun.take().expect("run follows a successful begin")
    }
}

/// Hand `fold` a producer for one bounded DFS split across
/// `limits.steal_workers` threads, which walk `trie` (if any) but never
/// write it, and return what `fold` returns. The engine shuts down when the fold
/// ends or any thread unwinds.
pub(crate) fn with_engine<R>(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    bound: u32,
    limits: &ExploreLimits,
    trie: Option<Walker<'_>>,
    fold: impl FnOnce(&mut dyn Producer) -> R,
) -> R {
    let engine = Engine::new();
    let ctx = WorkerCtx {
        engine: &engine,
        program,
        config,
        kind,
        bound,
        por: limits.por,
        trie,
        telemetry: &limits.telemetry,
    };
    thread::scope(|scope| {
        let ctx = &ctx;
        for who in 0..limits.steal_workers {
            scope.spawn(move || {
                let _unwind = ShutDown {
                    engine: ctx.engine,
                    always: false,
                };
                worker(ctx, who as u64)
            });
        }
        let _done = ShutDown {
            engine: &engine,
            always: true,
        };
        fold(&mut Stolen {
            cursor: Cursor::new(&engine),
            begun: None,
        })
    })
}

/// Bounded DFS split across [`ExploreLimits::steal_workers`] threads, with
/// the exact statistics of the serial search — including the completion
/// probe and redundant-run drain at the schedule limit — and the terminal
/// digests of the counted schedules in serial DFS order. Runs serially when
/// `steal_workers <= 1` or when the POR/bound combination makes donation
/// unsound (see the module docs). The differential tests compare the digests
/// (bug sets and terminal fingerprints) against a serial drive of the same
/// search, on top of the statistics equality.
pub fn explore_bounded_stealing_digests(
    program: &Program,
    config: &ExecConfig,
    kind: BoundKind,
    bound: u32,
    limits: &ExploreLimits,
) -> (ExplorationStats, Vec<TerminalDigest>) {
    explore::bounded_search(program, config, kind, bound, limits, true, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Scheduler;
    use sct_ir::prelude::*;

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

    fn config() -> ExecConfig {
        ExecConfig::all_visible()
    }

    fn limits(schedule_limit: u64) -> ExploreLimits {
        ExploreLimits::with_schedule_limit(schedule_limit)
    }

    fn serial_reference(
        kind: BoundKind,
        bound: u32,
        limits: &ExploreLimits,
    ) -> (ExplorationStats, Vec<TerminalDigest>) {
        let serial = ExploreLimits {
            steal_workers: 1,
            ..limits.clone()
        };
        explore_bounded_stealing_digests(&figure1(), &config(), kind, bound, &serial)
    }

    #[test]
    fn stolen_unbounded_dfs_matches_serial_at_every_worker_count() {
        for por in [false, true] {
            for schedule_limit in [3u64, 10_000] {
                let lim = limits(schedule_limit).with_por(por);
                let (serial, serial_digests) = serial_reference(BoundKind::None, u32::MAX, &lim);
                for workers in [2usize, 3, 8] {
                    let stolen = ExploreLimits {
                        steal_workers: workers,
                        ..lim.clone()
                    };
                    let (stats, digests) = explore_bounded_stealing_digests(
                        &figure1(),
                        &config(),
                        BoundKind::None,
                        u32::MAX,
                        &stolen,
                    );
                    assert_eq!(
                        serial, stats,
                        "stats diverged at {workers} workers, por={por}, limit={schedule_limit}"
                    );
                    assert_eq!(
                        serial_digests, digests,
                        "digest stream diverged at {workers} workers, por={por}, limit={schedule_limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn stolen_bounded_level_matches_serial_without_por() {
        for kind in [BoundKind::Preemption, BoundKind::Delay] {
            for bound in [0u32, 1, 2] {
                let lim = limits(10_000);
                let (serial, serial_digests) = serial_reference(kind, bound, &lim);
                let stolen = ExploreLimits {
                    steal_workers: 4,
                    ..lim.clone()
                };
                let (stats, digests) =
                    explore_bounded_stealing_digests(&figure1(), &config(), kind, bound, &stolen);
                assert_eq!(serial, stats, "{kind:?} bound {bound}");
                assert_eq!(serial_digests, digests, "{kind:?} bound {bound}");
            }
        }
    }

    #[test]
    fn por_with_a_pruning_bound_falls_back_to_the_serial_driver() {
        // The gate: donation under POR + finite bound is unsound, so the
        // stealing entry point must produce the serial result by running the
        // serial driver (bit-identity trivially holds).
        let lim = ExploreLimits {
            steal_workers: 8,
            ..limits(10_000).with_por(true)
        };
        let (serial, serial_digests) = serial_reference(BoundKind::Preemption, 1, &lim);
        let (stats, digests) =
            explore_bounded_stealing_digests(&figure1(), &config(), BoundKind::Preemption, 1, &lim);
        assert_eq!(serial, stats);
        assert_eq!(serial_digests, digests);
        assert!(stats.found_bug());
    }

    #[test]
    fn donated_seed_round_trips_through_a_fresh_scheduler() {
        // Drive a search a few executions in, donate, and check the thief's
        // schedule of the first donated alternative extends the prefix.
        let prog = figure1();
        let cfg = config();
        let mut exec = Execution::new_shared(&prog, &cfg);
        let mut victim = BoundedDfs::unbounded().with_sleep_sets(true);
        for _ in 0..3 {
            assert!(victim.begin_execution());
            exec.reset();
            let outcome = exec.run(&mut |p| victim.choose(p), &mut sct_runtime::NoopObserver);
            victim.end_execution(&outcome);
        }
        let (seed, depth) = victim
            .donate_oldest_subtree()
            .expect("three executions in, some node must still have alternatives");
        assert_eq!(seed.prefix.len(), depth);
        assert!(!seed.alternatives.is_empty());
        assert_eq!(seed.entry_slept, 1, "sleep sets are on");
        let first_alternative = *seed.alternatives.last().expect("non-empty");
        let mut thief = BoundedDfs::unbounded().with_sleep_sets(true);
        let prefix = seed.prefix.clone();
        thief.seed_subtree(seed);
        assert!(thief.begin_execution());
        exec.reset();
        let outcome = exec.run(&mut |p| thief.choose(p), &mut sct_runtime::NoopObserver);
        thief.end_execution(&outcome);
        let schedule = outcome.schedule();
        for (i, (t, _)) in prefix.iter().enumerate() {
            assert_eq!(schedule[i], *t, "prefix replay diverged at step {i}");
        }
        assert_eq!(schedule[prefix.len()], first_alternative.0);
        // A second donation from the victim must sit strictly deeper.
        if let Some((_, depth2)) = victim.donate_oldest_subtree() {
            assert!(depth2 > depth);
        }
    }
}
