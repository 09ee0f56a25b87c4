//! Exploration statistics: the per-benchmark, per-technique numbers reported
//! in Table 3 of the paper.

use sct_runtime::{Bug, ExecutionOutcome};

/// Statistics gathered while exploring one program with one technique.
///
/// Equality deliberately ignores the wall-clock fields ([`explore_nanos`],
/// [`race_nanos`]): the serial≡stolen differential suite asserts stats are
/// bit-identical across worker counts, and wall-clock time is the one thing
/// that legitimately differs between those runs.
///
/// [`explore_nanos`]: ExplorationStats::explore_nanos
/// [`race_nanos`]: ExplorationStats::race_nanos
#[derive(Debug, Clone)]
pub struct ExplorationStats {
    /// Name of the technique ("IPB", "IDB", "DFS", "Rand", ...).
    pub technique: String,
    /// Number of terminal schedules explored.
    pub schedules: u64,
    /// Number of schedules explored up to and including the first buggy one.
    pub schedules_to_first_bug: Option<u64>,
    /// Number of buggy schedules among those explored.
    pub buggy_schedules: u64,
    /// Number of schedules whose cost equals the final bound ("# new
    /// schedules" in Table 3). Only meaningful for iterative bounding.
    pub new_schedules_at_final_bound: u64,
    /// The bound in effect when exploration stopped (for bounded techniques).
    pub final_bound: Option<u32>,
    /// The smallest bound at which a bug was found (for iterative bounding).
    pub bound_of_first_bug: Option<u32>,
    /// The first bug found.
    pub first_bug: Option<Bug>,
    /// Maximum number of simultaneously enabled threads observed.
    pub max_enabled_threads: usize,
    /// Maximum number of scheduling points (with >1 enabled thread) observed
    /// in a single execution.
    pub max_scheduling_points: usize,
    /// Maximum number of threads created in a single execution.
    pub total_threads: usize,
    /// Number of executions cut short by the step limit.
    pub diverged_schedules: u64,
    /// Number of threads put to sleep by sleep-set partial-order reduction
    /// (0 when the reduction is off or the technique has none).
    pub slept: u64,
    /// Number of in-budget alternatives sleep sets pruned from the search.
    pub pruned_by_sleep: u64,
    /// Number of times the program was actually executed. Without schedule
    /// caching this is `schedules` plus the uncounted runs (interior
    /// re-executions of iterative bounding, sleep-redundant completions);
    /// with caching it shrinks by exactly `cache_hits`.
    pub executions: u64,
    /// Number of schedules served entirely from the schedule cache, i.e.
    /// without executing the program (0 when caching is off).
    pub cache_hits: u64,
    /// Estimated bytes held by the schedule cache when exploration stopped
    /// (0 when caching is off).
    pub cache_bytes: u64,
    /// Whether the technique exhausted its entire search space.
    pub complete: bool,
    /// Whether exploration stopped because the schedule limit was reached.
    /// Not set when the search exhausted its space at exactly the limit —
    /// `complete` wins.
    pub hit_schedule_limit: bool,
    /// Whether iterative bounding ran every bound level up to its `max_bound`
    /// without finding a bug, covering the space, or hitting the schedule
    /// limit: the search *gave up on bounds*, distinguishing this row from
    /// both a truncated and a completed one.
    pub bound_exhausted: bool,
    /// Whether exploration stopped because a wall-clock budget
    /// (`ExploreLimits::time_budget` or the harness `--benchmark-deadline`)
    /// expired. Like the wall-clock stamps it reflects time, not work, so it
    /// is excluded from equality — a run where no deadline fires is still
    /// bit-identical to an unbudgeted one.
    pub deadline_exceeded: bool,
    /// Whether the exploration engine panicked and the harness synthesized
    /// this row instead of aborting the study. All counted work below is from
    /// before the panic (usually zero). Excluded from equality: a panic is an
    /// environmental failure, not a property of the search.
    pub engine_panic: bool,
    /// Wall-clock nanoseconds spent exploring (driver entry to exit).
    /// Excluded from equality — see the type-level docs.
    pub explore_nanos: u64,
    /// Wall-clock nanoseconds the benchmark's phase 1 (dynamic race
    /// detection, or the static analysis under `--static-phase`) took,
    /// stamped identically onto every technique row of the benchmark by the
    /// harness. Excluded from equality — see the type-level docs.
    pub race_nanos: u64,
}

/// Field-wise equality over everything *except* the wall-clock fields
/// (`explore_nanos`, `race_nanos`), which vary run to run. Written as an
/// exhaustive destructuring so adding a field without deciding whether it
/// participates in the differential comparisons is a compile error.
impl PartialEq for ExplorationStats {
    fn eq(&self, other: &ExplorationStats) -> bool {
        let ExplorationStats {
            technique,
            schedules,
            schedules_to_first_bug,
            buggy_schedules,
            new_schedules_at_final_bound,
            final_bound,
            bound_of_first_bug,
            first_bug,
            max_enabled_threads,
            max_scheduling_points,
            total_threads,
            diverged_schedules,
            slept,
            pruned_by_sleep,
            executions,
            cache_hits,
            cache_bytes,
            complete,
            hit_schedule_limit,
            bound_exhausted,
            deadline_exceeded: _,
            engine_panic: _,
            explore_nanos: _,
            race_nanos: _,
        } = self;
        *technique == other.technique
            && *schedules == other.schedules
            && *schedules_to_first_bug == other.schedules_to_first_bug
            && *buggy_schedules == other.buggy_schedules
            && *new_schedules_at_final_bound == other.new_schedules_at_final_bound
            && *final_bound == other.final_bound
            && *bound_of_first_bug == other.bound_of_first_bug
            && *first_bug == other.first_bug
            && *max_enabled_threads == other.max_enabled_threads
            && *max_scheduling_points == other.max_scheduling_points
            && *total_threads == other.total_threads
            && *diverged_schedules == other.diverged_schedules
            && *slept == other.slept
            && *pruned_by_sleep == other.pruned_by_sleep
            && *executions == other.executions
            && *cache_hits == other.cache_hits
            && *cache_bytes == other.cache_bytes
            && *complete == other.complete
            && *hit_schedule_limit == other.hit_schedule_limit
            && *bound_exhausted == other.bound_exhausted
    }
}

impl Eq for ExplorationStats {}

impl ExplorationStats {
    /// Fresh statistics for a technique.
    pub fn new(technique: impl Into<String>) -> Self {
        ExplorationStats {
            technique: technique.into(),
            schedules: 0,
            schedules_to_first_bug: None,
            buggy_schedules: 0,
            new_schedules_at_final_bound: 0,
            final_bound: None,
            bound_of_first_bug: None,
            first_bug: None,
            max_enabled_threads: 0,
            max_scheduling_points: 0,
            total_threads: 0,
            diverged_schedules: 0,
            slept: 0,
            pruned_by_sleep: 0,
            executions: 0,
            cache_hits: 0,
            cache_bytes: 0,
            complete: false,
            hit_schedule_limit: false,
            bound_exhausted: false,
            deadline_exceeded: false,
            engine_panic: false,
            explore_nanos: 0,
            race_nanos: 0,
        }
    }

    /// Record the outcome of one terminal schedule.
    pub fn record(&mut self, outcome: &ExecutionOutcome) {
        self.record_parts(
            outcome.is_buggy(),
            outcome.diverged,
            outcome.threads_created,
            outcome.max_enabled,
            outcome.scheduling_points,
            outcome.bug.as_ref(),
        );
    }

    /// Record one terminal schedule from its summary fields. Both [`record`]
    /// and [`TerminalDigest::record_into`] route through this, so executed
    /// and served schedules cannot drift apart.
    ///
    /// [`TerminalDigest::record_into`]: crate::cache::TerminalDigest::record_into
    ///
    /// [`record`]: ExplorationStats::record
    pub fn record_parts(
        &mut self,
        buggy: bool,
        diverged: bool,
        threads_created: usize,
        max_enabled: usize,
        scheduling_points: usize,
        bug: Option<&Bug>,
    ) {
        self.schedules += 1;
        self.max_enabled_threads = self.max_enabled_threads.max(max_enabled);
        self.max_scheduling_points = self.max_scheduling_points.max(scheduling_points);
        self.total_threads = self.total_threads.max(threads_created);
        if diverged {
            self.diverged_schedules += 1;
        }
        if buggy {
            self.buggy_schedules += 1;
            if self.schedules_to_first_bug.is_none() {
                self.schedules_to_first_bug = Some(self.schedules);
                self.first_bug = bug.cloned();
            }
        }
    }

    /// Whether at least one bug was found.
    pub fn found_bug(&self) -> bool {
        self.schedules_to_first_bug.is_some()
    }

    /// Fraction of explored schedules that were buggy (0.0 when none were
    /// explored); the "% buggy" column of Table 3.
    pub fn buggy_fraction(&self) -> f64 {
        if self.schedules == 0 {
            0.0
        } else {
            self.buggy_schedules as f64 / self.schedules as f64
        }
    }

    /// Worst-case number of schedules that might be needed to find the bug
    /// with an adversarial search order within the bound: the number of
    /// non-buggy schedules explored (plus one for the bug itself). This is
    /// the quantity plotted in Figure 4 of the paper.
    pub fn worst_case_schedules_to_bug(&self) -> Option<u64> {
        if self.found_bug() {
            Some(self.schedules - self.buggy_schedules + 1)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_runtime::{Bug, StepRecord, ThreadId};

    fn outcome(buggy: bool, diverged: bool) -> ExecutionOutcome {
        ExecutionOutcome {
            bug: if buggy {
                Some(Bug::Deadlock { blocked: vec![] })
            } else if diverged {
                Some(Bug::StepLimitExceeded { limit: 1 })
            } else {
                None
            },
            steps: vec![StepRecord {
                thread: ThreadId(0),
                enabled: sct_runtime::ThreadSet::from_slice(&[ThreadId(0)]),
                last_enabled: false,
                last: None,
                num_threads: 1,
            }],
            threads_created: 3,
            max_enabled: 2,
            scheduling_points: 5,
            diverged,
            fingerprint: 0,
        }
    }

    #[test]
    fn records_first_bug_position_and_counts() {
        let mut s = ExplorationStats::new("test");
        s.record(&outcome(false, false));
        s.record(&outcome(false, false));
        s.record(&outcome(true, false));
        s.record(&outcome(true, false));
        assert_eq!(s.schedules, 4);
        assert_eq!(s.buggy_schedules, 2);
        assert_eq!(s.schedules_to_first_bug, Some(3));
        assert!(s.found_bug());
        assert!((s.buggy_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(s.worst_case_schedules_to_bug(), Some(3));
        assert_eq!(s.max_enabled_threads, 2);
        assert_eq!(s.max_scheduling_points, 5);
        assert_eq!(s.total_threads, 3);
    }

    #[test]
    fn divergence_is_counted_but_not_a_bug() {
        let mut s = ExplorationStats::new("test");
        s.record(&outcome(false, true));
        assert_eq!(s.diverged_schedules, 1);
        assert!(!s.found_bug());
        assert_eq!(s.worst_case_schedules_to_bug(), None);
        assert_eq!(s.buggy_fraction(), 0.0);
    }

    #[test]
    fn equality_ignores_wall_clock_fields() {
        let mut a = ExplorationStats::new("IDB");
        a.record(&outcome(true, false));
        let mut b = a.clone();
        b.explore_nanos = 123_456_789;
        b.race_nanos = 42;
        assert_eq!(a, b, "timing must not participate in differential equality");
        // Deadlines and panics are environmental outcomes, not search work:
        // they too are excluded, so a deadline-free differential pair stays
        // comparable even if one side carried a (never-firing) budget.
        b.deadline_exceeded = true;
        b.engine_panic = true;
        assert_eq!(a, b, "fault flags must not participate in equality");
        b.schedules += 1;
        assert_ne!(a, b, "non-timing fields still compare");
    }

    #[test]
    fn empty_stats_have_sane_defaults() {
        let s = ExplorationStats::new("x");
        assert_eq!(s.schedules, 0);
        assert_eq!(s.buggy_fraction(), 0.0);
        assert!(!s.found_bug());
    }
}
