//! The scheduler abstraction: a strategy that decides, execution by execution
//! and scheduling point by scheduling point, which thread runs next.

use sct_runtime::{ExecutionOutcome, SchedulingPoint, ThreadId};

/// A scheduling strategy driven by the exploration loop in [`crate::explore`].
///
/// The contract is:
///
/// 1. the explorer calls [`Scheduler::begin_execution`]; a `false` return
///    means the strategy has nothing left to explore and the loop stops;
/// 2. during the execution, [`Scheduler::choose`] is called at every
///    scheduling point and must return one of the *enabled* threads;
/// 3. after the execution reaches a terminal state, the explorer calls
///    [`Scheduler::end_execution`] with the outcome (the recorded schedule,
///    bug information and statistics).
///
/// Systematic strategies (DFS, schedule bounding) use `end_execution` to
/// backtrack; randomised strategies typically only count runs.
pub trait Scheduler {
    /// Prepare for the next execution; `false` ends the exploration.
    fn begin_execution(&mut self) -> bool;

    /// Pick the next thread among `point.enabled` (never empty).
    fn choose(&mut self, point: &SchedulingPoint) -> ThreadId;

    /// Observe the outcome of the execution just finished.
    fn end_execution(&mut self, outcome: &ExecutionOutcome);

    /// Human-readable name used in reports ("IPB", "IDB", "DFS", "Rand", ...).
    fn name(&self) -> String;

    /// Whether this strategy, once it stops, has *provably covered* its whole
    /// search space (used to report exhaustive exploration in Table 3; random
    /// strategies always return `false`).
    fn is_exhaustive(&self) -> bool {
        false
    }

    /// Whether this strategy is *capable* of exhausting its search space at
    /// all (a capability, unlike the state query [`Scheduler::is_exhaustive`]).
    /// The exploration driver only probes for completion-at-the-limit on
    /// schedulers that can exhaust; randomised strategies return `false` and
    /// are never probed, so their execution counts stay an exact function of
    /// their schedule budget.
    fn can_exhaust(&self) -> bool {
        false
    }

    /// Partial-order-reduction counters `(slept, pruned_by_sleep)`
    /// accumulated so far; `(0, 0)` for strategies without reduction. The
    /// exploration drivers copy these into
    /// [`ExplorationStats`](crate::stats::ExplorationStats).
    fn sleep_counters(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Whether the execution that just finished was recognised as redundant
    /// (every state it visits past some point is covered by another explored
    /// schedule, as with a sleep-blocked node in sleep-set reduction).
    /// Drivers must not count a redundant execution as an explored schedule.
    /// Meaningful between [`Scheduler::end_execution`] and the next
    /// [`Scheduler::begin_execution`]; always `false` for strategies without
    /// reduction.
    fn current_execution_redundant(&self) -> bool {
        false
    }
}
