//! Bounded depth-first search over schedules: the systematic exploration
//! strategy that DFS, preemption bounding and delay bounding are all built
//! on. Exploration is *stateless* (in the model-checking sense): every
//! schedule is explored by re-executing the program from its initial state,
//! replaying the decision prefix recorded on the search stack.
//!
//! # Sleep-set partial-order reduction
//!
//! With [`BoundedDfs::with_sleep_sets`] the search applies Godefroid-style
//! sleep sets over the [`PendingOp`] summaries of the scheduling point. Each
//! `ChoicePoint` carries a *sleep set*: threads whose subtrees at this node
//! are already covered by an earlier sibling, together with the pending
//! operation each was parked at when it was put to sleep. The rules are:
//!
//! * when the search backtracks into an alternative at a node, the
//!   previously-chosen thread is put to sleep at that node — unless the
//!   schedule bound excluded something inside the subtree just explored
//!   (tracked by a bound-prune counter snapshot per node), in which case the
//!   subtree's coverage is incomplete within the bound and the thread stays
//!   awake;
//! * a child node inherits its parent's sleep set minus the entries whose
//!   pending operation is *dependent* on the operation the parent just
//!   executed (same address with at least one write, or any sync-object /
//!   thread-lifecycle operation) — a dependent step wakes the sleeper;
//! * sleeping threads are neither chosen nor recorded as alternatives.
//!
//! Because two independent steps commute, the reduced search still explores
//! at least one interleaving of every Mazurkiewicz trace of the program, so
//! it finds every bug and reaches every non-buggy terminal state (and every
//! deadlock) the plain search reaches; only redundant interleavings of
//! commuting steps are pruned. Executions that stop *mid-trace* at an
//! assertion or crash may halt at a different — equivalent up to commuting
//! the remaining steps — intermediate state than their plain-search
//! counterparts, which is why the differential oracle in
//! `tests/integration.rs` compares bug sets exactly but fingerprints only of
//! non-buggy terminal states. A stateless search cannot abandon an execution
//! midway, so when every enabled thread at a node is asleep (the node's whole
//! subtree is covered elsewhere) the current execution is *redundant*: the
//! search completes it along the deterministic choice, records no further
//! alternatives anywhere below, and flags it via
//! [`Scheduler::current_execution_redundant`] so the exploration drivers do
//! not count it as an explored schedule.

use crate::bounds::BoundPolicy;
use crate::scheduler::Scheduler;
use sct_runtime::{ExecutionOutcome, PendingOp, SchedulingPoint, ThreadId};

/// A decision on the DFS stack.
#[derive(Debug, Clone)]
struct ChoicePoint {
    /// Thread chosen for the current execution at this depth.
    chosen: ThreadId,
    /// Bound cost of that choice.
    cost: u32,
    /// Pending-operation summary of `chosen` at this point, refreshed on
    /// every replay so it always describes the choice in force. This is what
    /// goes to sleep when the search backtracks away from `chosen`, and what
    /// child nodes test their inherited sleep entries against. `None` when
    /// sleep sets are disabled (the summary is never needed then).
    chosen_op: Option<PendingOp>,
    /// Alternatives (thread, cost) not yet explored at this depth. Stored in
    /// reverse thread order so `pop` explores lower thread ids first.
    alternatives: Vec<(ThreadId, u32)>,
    /// Sleep set at this node (empty unless sleep sets are enabled).
    sleep: Vec<PendingOp>,
    /// Value of [`BoundedDfs::bound_prunes`] when `chosen` was installed.
    /// If the counter moved by the time the search backtracks, the bound
    /// excluded something inside `chosen`'s subtree, so its coverage is
    /// incomplete within this bound and the thread must not go to sleep
    /// (wake-on-bound-conflict: keeps the reduction sound under schedule
    /// bounding).
    bound_prunes_at_entry: u64,
}

/// A frontier subtree in transit between two searches: everything a thief
/// worker needs to explore a victim's unexplored sibling subtrees exactly as
/// the serial search would have (see [`crate::steal`]).
///
/// Produced by [`BoundedDfs::donate_oldest_subtree`] on the victim and
/// consumed by [`BoundedDfs::seed_subtree`] on a fresh thief scheduler.
#[derive(Debug, Clone)]
pub struct SubtreeSeed {
    /// Decision path `(thread, cost)` from the root of the schedule tree down
    /// to — excluding — the branching node the alternatives hang off.
    pub prefix: Vec<(ThreadId, u32)>,
    /// The unexplored alternatives at the branching node, in reverse thread
    /// order (`pop` explores lower thread ids first — the exact layout the
    /// node had on the victim's stack).
    pub alternatives: Vec<(ThreadId, u32)>,
    /// Sleep set in force on entry to the first donated alternative: the
    /// victim node's sleep set plus the operation of the child the victim
    /// kept, which the serial search would have put to sleep when
    /// backtracking into the first alternative.
    pub sleep: Vec<PendingOp>,
    /// How many sleep-set insertions the boundary hand-off above accounts
    /// for (1 when sleep sets are on, else 0). The serial search performs
    /// them inside the `begin_execution` that enters the first donated
    /// alternative, so the stealing fold charges them when it crosses into
    /// this subtree's stream — the victim never performs them itself.
    pub entry_slept: u64,
}

/// Depth-first exploration of all terminal schedules whose total cost under
/// `policy` is at most `bound`.
///
/// The first schedule explored is always the non-preemptive round-robin
/// schedule (cost zero), matching the observation in §3 of the paper that
/// IPB, IDB and DFS all start from the same initial schedule.
pub struct BoundedDfs {
    policy: Box<dyn BoundPolicy>,
    bound: u32,
    label: String,
    stack: Vec<ChoicePoint>,
    /// Replay cursor within `stack` for the current execution.
    pos: usize,
    /// Bound budget consumed along the current path.
    used: u32,
    first: bool,
    complete: bool,
    /// Whether the bound excluded at least one alternative anywhere.
    pruned: bool,
    /// Number of alternatives the bound has excluded so far (the counter
    /// behind the per-node wake-on-bound-conflict snapshots).
    bound_prunes: u64,
    executions: u64,
    /// Whether sleep-set partial-order reduction is enabled.
    sleep_sets: bool,
    /// Number of threads put to sleep across the whole search.
    slept: u64,
    /// Number of in-budget alternatives not explored because the thread was
    /// asleep (including whole sleep-blocked nodes).
    pruned_by_sleep: u64,
    /// Whether the current execution hit a sleep-blocked node and is being
    /// completed only because a stateless search cannot stop midway.
    redundant: bool,
}

impl BoundedDfs {
    /// Create a bounded DFS with the given policy and bound.
    pub fn new(policy: Box<dyn BoundPolicy>, bound: u32) -> Self {
        let label = format!("{}({})", policy.name(), bound);
        BoundedDfs {
            policy,
            bound,
            label,
            stack: Vec::new(),
            pos: 0,
            used: 0,
            first: true,
            complete: false,
            pruned: false,
            bound_prunes: 0,
            executions: 0,
            sleep_sets: false,
            slept: 0,
            pruned_by_sleep: 0,
            redundant: false,
        }
    }

    /// Plain depth-first search (no bound).
    pub fn unbounded() -> Self {
        BoundedDfs::new(Box::new(crate::bounds::NoBound), u32::MAX)
    }

    /// Enable (or disable) sleep-set partial-order reduction. Must be set
    /// before the first execution. An unbounded search stays exhaustive over
    /// program states — only redundant interleavings of independent steps
    /// are pruned (see the module documentation for the soundness argument).
    /// Under a finite bound, a thread is put to sleep only when its explored
    /// subtree saw no bound exclusions (wake-on-bound-conflict), so the
    /// bounded search still covers every state it would have covered without
    /// the reduction; the pruning simply bites less at tight bounds.
    pub fn with_sleep_sets(mut self, enabled: bool) -> Self {
        debug_assert!(self.first, "toggle sleep sets before exploring");
        self.sleep_sets = enabled;
        self.label = if enabled {
            format!("{}({})+ss", self.policy.name(), self.bound)
        } else {
            format!("{}({})", self.policy.name(), self.bound)
        };
        self
    }

    /// Number of threads put to sleep while backtracking.
    pub fn slept(&self) -> u64 {
        self.slept
    }

    /// Number of in-budget alternatives the sleep sets pruned.
    pub fn pruned_by_sleep(&self) -> u64 {
        self.pruned_by_sleep
    }

    /// Whether the search space has been exhausted.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Whether the bound pruned at least one schedule. When the search is
    /// complete *and* nothing was pruned, every terminal schedule of the
    /// program has been explored (so larger bounds cannot find more bugs).
    pub fn was_pruned(&self) -> bool {
        self.pruned
    }

    /// Number of executions started so far.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Rewind the replay cursor to the root without backtracking, so the next
    /// [`Scheduler::choose`] calls re-issue the whole recorded stack from the
    /// top. Used by the cached exploration driver
    /// ([`crate::cache::run_begun_schedule`]) when a cache walk ends at a
    /// miss: the walk already consumed part of the replay, and the real
    /// execution must restart the program — and therefore the replay — from
    /// step zero. The sleep/redundant state accumulated by the walk is
    /// deliberately preserved: replaying a decision never re-runs its
    /// frontier bookkeeping.
    pub fn rewind_replay(&mut self) {
        self.pos = 0;
        self.used = 0;
    }

    /// Replay the next recorded decision at a scheduling point whose enabled
    /// threads' pending operations are `ops` (in thread order), or `None`
    /// once the cursor is past the recorded prefix and the point needs a
    /// full [`Scheduler::choose`]. This is the only replay path: `choose`
    /// calls it first, and a schedule-trie walk calls it with a stored
    /// node's operations, so a replayed node is never copied into a
    /// [`SchedulingPoint`].
    pub(crate) fn replay_step(&mut self, ops: &[PendingOp]) -> Option<ThreadId> {
        let cp = self.stack.get_mut(self.pos)?;
        let chosen = cp.chosen;
        debug_assert!(
            ops.iter().any(|p| p.thread == chosen),
            "replay divergence: {chosen} not enabled at step {}",
            self.pos
        );
        if self.sleep_sets {
            // After backtracking, `chosen` is a freshly popped alternative
            // whose pending op was unknown at pop time; refresh the summary
            // from the live point (a no-op for the unchanged nodes above the
            // backtrack point).
            if let Some(op) = ops.iter().find(|p| p.thread == chosen) {
                cp.chosen_op = Some(*op);
            }
        }
        self.used += cp.cost;
        self.pos += 1;
        Some(chosen)
    }

    /// Complete the current execution without an outcome: the schedule was
    /// served from the schedule cache, so there is no [`ExecutionOutcome`] to
    /// hand to [`Scheduler::end_execution`]. Equivalent to it in effect.
    pub fn finish_cached_execution(&mut self) {
        self.stack.truncate(self.pos);
    }

    /// Current decision-stack depth. Between executions this is the length of
    /// the last explored path; right after a successful
    /// [`Scheduler::begin_execution`] it is the depth of the decision the
    /// backtrack just changed, plus one — which is how the work-stealing
    /// engine ([`crate::steal`]) detects that the search has moved past a
    /// donated node.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Number of alternatives the bound has excluded so far (the cumulative
    /// counter behind [`BoundedDfs::was_pruned`]).
    pub fn bound_prune_count(&self) -> u64 {
        self.bound_prunes
    }

    /// Hand every unexplored alternative at the *shallowest* stack node that
    /// still has any to a thief, together with the prefix and entry sleep
    /// state the thief needs to explore them exactly as this search would
    /// have. Returns the seed and the stack index of the stripped node; once
    /// the backtracking search retreats past that index (its depth drops to
    /// the returned value or below), it has reached the point where the
    /// serial search would have entered the donated subtrees.
    ///
    /// Must only be called between executions (after
    /// [`Scheduler::end_execution`] / before the next `begin_execution`), so
    /// the stack is exactly the last explored path. The victim keeps the
    /// child it is currently under at the stripped node; because every node
    /// below the stripped one holds no alternatives, the victim's search
    /// completes once that child's subtree is exhausted.
    ///
    /// Sound only when sleep sets are off or the policy cannot prune
    /// ([`BoundPolicy::can_prune`]): under a finite bound the
    /// wake-on-bound-conflict rule makes a sibling's entry sleep set depend
    /// on what the bound excluded inside the previous sibling's subtree,
    /// which is unknown until that subtree has been fully explored — there
    /// is nothing deterministic to donate. Debug-asserted.
    pub fn donate_oldest_subtree(&mut self) -> Option<(SubtreeSeed, usize)> {
        debug_assert!(
            !self.sleep_sets || !self.policy.can_prune(),
            "donating with sleep sets under a pruning bound is unsound"
        );
        if self.first || self.complete {
            return None;
        }
        let index = self
            .stack
            .iter()
            .position(|cp| !cp.alternatives.is_empty())?;
        let prefix = self.stack[..index]
            .iter()
            .map(|cp| (cp.chosen, cp.cost))
            .collect();
        let node = &mut self.stack[index];
        let alternatives = std::mem::take(&mut node.alternatives);
        let mut sleep = node.sleep.clone();
        let mut entry_slept = 0;
        if self.sleep_sets {
            // The serial search would push the current child's operation into
            // the node's sleep set when backtracking into the first donated
            // alternative. That backtrack now happens on the thief's side of
            // the hand-off, so perform the push here and let the fold charge
            // its counter increment at the stream boundary. No
            // bound-conflict check is needed: `can_prune()` is false on this
            // path, so the snapshot comparison could never fail.
            if let Some(op) = node.chosen_op {
                sleep.push(op);
                entry_slept = 1;
            }
        }
        Some((
            SubtreeSeed {
                prefix,
                alternatives,
                sleep,
                entry_slept,
            },
            index,
        ))
    }

    /// Initialise a fresh scheduler with a donated subtree: the next
    /// `begin_execution` replays `prefix` and the first alternative, and the
    /// search then explores exactly the donated subtrees — in the order and
    /// with the sleep-set evolution the serial search would have used — and
    /// completes when they are exhausted (backtracking past the seeded node
    /// finds no further alternatives).
    pub fn seed_subtree(&mut self, seed: SubtreeSeed) {
        debug_assert!(
            self.first && self.stack.is_empty(),
            "seed a subtree before the first execution"
        );
        let SubtreeSeed {
            prefix,
            mut alternatives,
            sleep,
            entry_slept: _,
        } = seed;
        for (chosen, cost) in prefix {
            self.stack.push(ChoicePoint {
                chosen,
                cost,
                // Refreshed from the live scheduling point during replay
                // (sleep sets only); the prefix nodes never backtrack, so a
                // placeholder is safe either way.
                chosen_op: None,
                alternatives: Vec::new(),
                sleep: Vec::new(),
                bound_prunes_at_entry: 0,
            });
        }
        let (chosen, cost) = alternatives
            .pop()
            .expect("a donated subtree carries at least one alternative");
        self.stack.push(ChoicePoint {
            chosen,
            cost,
            chosen_op: None,
            alternatives,
            sleep,
            bound_prunes_at_entry: 0,
        });
    }
}

/// The runtime hands schedulers `pending` summaries index-parallel to
/// `enabled`; the sleep-set machinery relies on that pairing, so check it in
/// debug builds wherever a point enters the search.
fn debug_assert_index_parallel(point: &SchedulingPoint) {
    debug_assert!(
        point.pending.len() == point.enabled.len()
            && point
                .enabled
                .iter()
                .zip(point.pending.iter())
                .all(|(t, p)| p.thread == *t),
        "pending summaries not index-parallel to enabled at step {}",
        point.step_index
    );
}

impl Scheduler for BoundedDfs {
    fn begin_execution(&mut self) -> bool {
        if self.complete {
            return false;
        }
        if self.first {
            self.first = false;
        } else {
            // Backtrack to the deepest decision with an unexplored alternative.
            loop {
                match self.stack.last_mut() {
                    None => {
                        self.complete = true;
                        return false;
                    }
                    Some(top) => {
                        if let Some((t, cost)) = top.alternatives.pop() {
                            if self.sleep_sets {
                                // The subtree below the old choice was fully
                                // explored: the thread sleeps at this node
                                // until a dependent operation wakes it —
                                // unless the bound excluded something inside
                                // that subtree, in which case its coverage
                                // is incomplete within this bound and the
                                // thread must stay awake.
                                if self.bound_prunes == top.bound_prunes_at_entry {
                                    if let Some(op) = top.chosen_op {
                                        top.sleep.push(op);
                                        self.slept += 1;
                                    }
                                }
                                top.bound_prunes_at_entry = self.bound_prunes;
                            }
                            top.chosen = t;
                            top.cost = cost;
                            break;
                        }
                        self.stack.pop();
                    }
                }
            }
        }
        self.pos = 0;
        self.used = 0;
        self.redundant = false;
        self.executions += 1;
        true
    }

    fn choose(&mut self, point: &SchedulingPoint) -> ThreadId {
        debug_assert_index_parallel(point);
        if let Some(chosen) = self.replay_step(&point.pending) {
            return chosen;
        }

        // Frontier: inherit the sleep set from the parent node. An entry
        // survives only if its thread did not just run and its pending op is
        // independent of the op the parent executed — a dependent op wakes
        // the sleeper.
        let mut sleep: Vec<PendingOp> = Vec::new();
        if self.sleep_sets && !self.redundant {
            if let Some(parent) = self.pos.checked_sub(1).map(|i| &self.stack[i]) {
                if let Some(parent_op) = parent.chosen_op {
                    sleep.extend(
                        parent
                            .sleep
                            .iter()
                            .filter(|u| u.thread != parent.chosen && u.independent_of(&parent_op))
                            .copied(),
                    );
                }
            }
        }
        fn asleep(sleep: &[PendingOp], t: ThreadId) -> bool {
            sleep.iter().any(|u| u.thread == t)
        }

        // Follow the deterministic scheduler. When its choice is asleep,
        // divert to the lowest-id awake enabled thread that still fits the
        // budget. When no such thread exists the node is *sleep-blocked*:
        // every subtree below it is covered elsewhere, so the rest of the
        // execution is redundant — a stateless search cannot stop midway, so
        // finish it along the deterministic choices, recording no further
        // alternatives, and let the driver skip its outcome.
        let mut default = point.round_robin_choice();
        if self.sleep_sets && !self.redundant && asleep(&sleep, default) {
            let diverted = point.enabled.iter().copied().find(|&t| {
                !asleep(&sleep, t)
                    && self.used.saturating_add(self.policy.cost(point, t)) <= self.bound
            });
            match diverted {
                Some(t) => default = t,
                None => self.redundant = true,
            }
        }
        let default_cost = self.policy.cost(point, default);
        let mut alternatives: Vec<(ThreadId, u32)> = Vec::new();
        for &t in point.enabled.iter().rev() {
            if t == default {
                continue;
            }
            let cost = self.policy.cost(point, t);
            if self.used.saturating_add(cost) > self.bound {
                // Keep detecting bound exclusions on redundant paths too, so
                // iterative bounding never claims completeness it does not
                // have.
                self.pruned = true;
                self.bound_prunes += 1;
            } else if self.sleep_sets && asleep(&sleep, t) {
                // In budget but asleep: pruned by the reduction (this is
                // where the sleep-blocked node's suppressed expansion is
                // counted too).
                self.pruned_by_sleep += 1;
            } else if self.redundant {
                // Redundant continuation: covered elsewhere.
            } else {
                alternatives.push((t, cost));
            }
        }
        // The summary of the chosen op is only needed by the reduction; keep
        // the POR-off hot path free of the scan. Looked up by thread id, the
        // same way the replay path refreshes it, so the two can never diverge
        // even if `pending` and `enabled` ever fell out of step (which the
        // index-parallel assertion above rules out in debug builds).
        let chosen_op = if self.sleep_sets {
            point.pending.iter().find(|p| p.thread == default).copied()
        } else {
            None
        };
        self.used = self.used.saturating_add(default_cost);
        self.stack.push(ChoicePoint {
            chosen: default,
            cost: default_cost,
            chosen_op,
            alternatives,
            sleep,
            bound_prunes_at_entry: self.bound_prunes,
        });
        self.pos += 1;
        default
    }

    fn end_execution(&mut self, _outcome: &ExecutionOutcome) {
        // Truncation is implicit: entries beyond the replay/frontier cursor
        // never exist because the stack only grows at the frontier. Nothing
        // to do here; backtracking happens in `begin_execution`.
        self.stack.truncate(self.pos);
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn is_exhaustive(&self) -> bool {
        self.complete
    }

    fn can_exhaust(&self) -> bool {
        true
    }

    fn sleep_counters(&self) -> (u64, u64) {
        (self.slept, self.pruned_by_sleep)
    }

    fn current_execution_redundant(&self) -> bool {
        self.redundant
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{DelayBound, PreemptionBound};
    use sct_ir::prelude::*;
    use sct_runtime::{ExecConfig, Execution, NoopObserver};

    /// Drive a scheduler to completion (or a limit) and return the number of
    /// terminal schedules and the number of buggy ones.
    fn drive(program: &Program, mut sched: BoundedDfs, limit: u64) -> (u64, u64, bool) {
        let config = ExecConfig::all_visible();
        let mut total = 0;
        let mut buggy = 0;
        let mut exec = Execution::new_shared(program, &config);
        while total < limit && sched.begin_execution() {
            exec.reset();
            let outcome = exec.run(&mut |p| sched.choose(p), &mut NoopObserver);
            sched.end_execution(&outcome);
            if sched.current_execution_redundant() {
                continue;
            }
            total += 1;
            if outcome.is_buggy() {
                buggy += 1;
            }
        }
        (total, buggy, sched.is_complete())
    }

    /// Two threads, each one visible store: 2 interleavings of 2 steps each,
    /// i.e. C(2,1) = 2 terminal schedules... plus the spawning main thread
    /// whose steps are fixed relative to the workers it has spawned.
    fn two_writers() -> Program {
        let mut p = ProgramBuilder::new("two-writers");
        let x = p.global("x", 0);
        let y = p.global("y", 0);
        let t1 = p.thread("t1", |b| {
            b.store(x, 1);
        });
        let t2 = p.thread("t2", |b| {
            b.store(y, 1);
        });
        p.main(|b| {
            b.spawn(t1);
            b.spawn(t2);
        });
        p.build().unwrap()
    }

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

    #[test]
    fn unbounded_dfs_enumerates_all_interleavings_of_independent_writers() {
        let prog = two_writers();
        let (total, buggy, complete) = drive(&prog, BoundedDfs::unbounded(), 10_000);
        assert!(complete);
        assert_eq!(buggy, 0);
        // main spawns t1 then t2 and finishes; the workers' two stores can
        // interleave in exactly 2 orders once both exist, but main's own
        // scheduling points multiply the count. The important invariants:
        // exploration terminates, is complete, and finds more than 1 schedule.
        assert!(total >= 2, "expected at least 2 schedules, got {total}");
    }

    #[test]
    fn bound_zero_explores_exactly_the_round_robin_schedule_for_delay() {
        let prog = figure1();
        let sched = BoundedDfs::new(Box::new(DelayBound), 0);
        let (total, buggy, complete) = drive(&prog, sched, 10_000);
        assert!(complete);
        assert_eq!(total, 1, "delay bound 0 must yield exactly one schedule");
        assert_eq!(buggy, 0);
    }

    #[test]
    fn figure1_needs_a_preemption_for_the_bug() {
        let prog = figure1();
        // Preemption bound 0: no bug.
        let (_, buggy0, complete0) =
            drive(&prog, BoundedDfs::new(Box::new(PreemptionBound), 0), 10_000);
        assert!(complete0);
        assert_eq!(buggy0, 0);
        // Preemption bound 1: the assertion can fail (Example 1 in the paper).
        let (_, buggy1, complete1) =
            drive(&prog, BoundedDfs::new(Box::new(PreemptionBound), 1), 10_000);
        assert!(complete1);
        assert!(buggy1 > 0);
        // Delay bound 1 also finds it.
        let (_, buggyd, _) = drive(&prog, BoundedDfs::new(Box::new(DelayBound), 1), 10_000);
        assert!(buggyd > 0);
    }

    #[test]
    fn delay_bound_one_explores_fewer_schedules_than_preemption_bound_one() {
        // Example 2 of the paper: a preemption bound of one yields 11 terminal
        // schedules for Figure 1, while a delay bound of one yields only 4.
        // Our thread structure includes the spawning main thread, so absolute
        // numbers differ, but the strict ordering must hold.
        let prog = figure1();
        let (total_pb, _, c1) = drive(&prog, BoundedDfs::new(Box::new(PreemptionBound), 1), 10_000);
        let (total_db, _, c2) = drive(&prog, BoundedDfs::new(Box::new(DelayBound), 1), 10_000);
        assert!(c1 && c2);
        assert!(
            total_db < total_pb,
            "delay bounding ({total_db}) should explore fewer schedules than preemption bounding ({total_pb})"
        );
    }

    #[test]
    fn schedules_within_smaller_bounds_are_subsets() {
        let prog = figure1();
        let mut counts = Vec::new();
        for bound in 0..3 {
            let (total, _, complete) =
                drive(&prog, BoundedDfs::new(Box::new(DelayBound), bound), 10_000);
            assert!(complete);
            counts.push(total);
        }
        assert!(counts[0] <= counts[1] && counts[1] <= counts[2]);
    }

    #[test]
    fn pruned_flag_reflects_whether_the_bound_actually_bit() {
        let prog = figure1();
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(&prog, &config);
        let mut tight = BoundedDfs::new(Box::new(DelayBound), 0);
        while tight.begin_execution() {
            exec.reset();
            let outcome = exec.run(&mut |p| tight.choose(p), &mut NoopObserver);
            tight.end_execution(&outcome);
        }
        assert!(tight.was_pruned());

        let mut loose = BoundedDfs::unbounded();
        while loose.begin_execution() {
            exec.reset();
            let outcome = exec.run(&mut |p| loose.choose(p), &mut NoopObserver);
            loose.end_execution(&outcome);
        }
        assert!(!loose.was_pruned());
    }

    /// Drive a scheduler over `program` collecting the terminal-state
    /// fingerprint set, the set of distinct bugs, and the execution count.
    fn explore_sets(
        program: &Program,
        mut sched: BoundedDfs,
    ) -> (
        std::collections::BTreeSet<u64>,
        std::collections::BTreeSet<String>,
        u64,
    ) {
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(program, &config);
        let mut fingerprints = std::collections::BTreeSet::new();
        let mut bugs = std::collections::BTreeSet::new();
        let mut counted = 0u64;
        while sched.begin_execution() {
            exec.reset();
            let outcome = exec.run(&mut |p| sched.choose(p), &mut NoopObserver);
            sched.end_execution(&outcome);
            if sched.current_execution_redundant() {
                continue;
            }
            counted += 1;
            if let Some(bug) = &outcome.bug {
                bugs.insert(format!("{bug:?}"));
            } else {
                // Buggy executions stop mid-trace, so only non-buggy
                // terminal states are endpoint-preserved by the reduction.
                fingerprints.insert(outcome.fingerprint);
            }
        }
        assert!(sched.is_complete());
        (fingerprints, bugs, counted)
    }

    #[test]
    fn sleep_sets_prune_commuting_interleavings_of_independent_writers() {
        let prog = two_writers();
        let (plain_fps, plain_bugs, plain_n) = explore_sets(&prog, BoundedDfs::unbounded());
        let (por_fps, por_bugs, por_n) =
            explore_sets(&prog, BoundedDfs::unbounded().with_sleep_sets(true));
        assert_eq!(plain_fps, por_fps, "terminal states must be preserved");
        assert_eq!(plain_bugs, por_bugs);
        assert!(
            por_n < plain_n,
            "two independent stores must prune: {por_n} vs {plain_n}"
        );
    }

    #[test]
    fn sleep_sets_preserve_the_figure1_bug_and_terminal_states() {
        let prog = figure1();
        let (plain_fps, plain_bugs, plain_n) = explore_sets(&prog, BoundedDfs::unbounded());
        let (por_fps, por_bugs, por_n) =
            explore_sets(&prog, BoundedDfs::unbounded().with_sleep_sets(true));
        assert_eq!(plain_fps, por_fps);
        assert_eq!(plain_bugs, por_bugs);
        assert!(!por_bugs.is_empty(), "figure1's assertion bug must survive");
        assert!(por_n < plain_n, "{por_n} vs {plain_n}");
    }

    #[test]
    fn sleep_set_counters_and_label_reflect_the_reduction() {
        let prog = figure1();
        let mut sched = BoundedDfs::unbounded().with_sleep_sets(true);
        assert!(sched.name().ends_with("+ss"));
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(&prog, &config);
        while sched.begin_execution() {
            exec.reset();
            let outcome = exec.run(&mut |p| sched.choose(p), &mut NoopObserver);
            sched.end_execution(&outcome);
        }
        assert!(sched.slept() > 0, "backtracking must put threads to sleep");
        assert!(sched.pruned_by_sleep() > 0, "figure1 has commuting stores");
        assert_eq!(
            sched.sleep_counters(),
            (sched.slept(), sched.pruned_by_sleep())
        );
        // Plain DFS reports zero on both counters.
        let plain = BoundedDfs::unbounded();
        assert_eq!(plain.sleep_counters(), (0, 0));
        assert!(!plain.name().ends_with("+ss"));
    }

    #[test]
    fn bounded_search_with_sleep_sets_stays_within_the_bound_and_finds_the_bug() {
        // The reduction composes with schedule bounding: preemption bound 1
        // still finds Figure 1's bug with strictly fewer executions, and
        // bound 0 still explores exactly the deterministic schedule.
        let prog = figure1();
        let (_, b0, c0) = drive(
            &prog,
            BoundedDfs::new(Box::new(DelayBound), 0).with_sleep_sets(true),
            10_000,
        );
        assert!(c0);
        assert_eq!(b0, 0);
        let (plain_total, plain_buggy, _) =
            drive(&prog, BoundedDfs::new(Box::new(PreemptionBound), 1), 10_000);
        let (por_total, por_buggy, complete) = drive(
            &prog,
            BoundedDfs::new(Box::new(PreemptionBound), 1).with_sleep_sets(true),
            10_000,
        );
        assert!(complete);
        assert!(plain_buggy > 0 && por_buggy > 0);
        assert!(
            por_total <= plain_total,
            "reduction must not grow the bounded space: {por_total} vs {plain_total}"
        );
    }

    #[test]
    fn dfs_does_not_repeat_terminal_schedules() {
        let prog = two_writers();
        let config = ExecConfig::all_visible();
        let mut sched = BoundedDfs::unbounded();
        let mut seen = std::collections::HashSet::new();
        let mut exec = Execution::new_shared(&prog, &config);
        while sched.begin_execution() {
            exec.reset();
            let outcome = exec.run(&mut |p| sched.choose(p), &mut NoopObserver);
            sched.end_execution(&outcome);
            let key: Vec<usize> = outcome.schedule().iter().map(|t| t.index()).collect();
            assert!(seen.insert(key), "schedule explored twice");
        }
        assert!(seen.len() >= 2);
    }
}
