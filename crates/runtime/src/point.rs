//! Scheduling points: the information handed to a scheduler when it must pick
//! the next thread to run.

use crate::thread::ThreadId;
use sct_ir::Loc;

/// A summary of the visible operation a thread is parked at. Schedulers that
/// are heuristics over program structure (e.g. the Maple-like idiom scheduler)
/// use this; the systematic schedulers only need the enabled set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingOp {
    /// The thread this summary describes.
    pub thread: ThreadId,
    /// Static location of the pending visible operation.
    pub loc: Loc,
    /// Flattened address of the shared cell accessed, when the pending
    /// operation is a memory access.
    pub addr: Option<usize>,
    /// Whether the pending operation writes shared memory.
    pub is_write: bool,
}

impl PendingOp {
    /// Conservative independence between the *steps* these two summaries
    /// begin: true only when both are shared-memory accesses that commute —
    /// different addresses, or the same address with neither writing. A
    /// pending operation with no address (lock, unlock, spawn, join, wait,
    /// signal, semaphore and barrier operations, yield) is treated as
    /// dependent on everything, which is what makes sleep-set partial-order
    /// reduction over these summaries sound: an operation that can affect
    /// another thread's enabledness always wakes sleeping threads.
    pub fn independent_of(&self, other: &PendingOp) -> bool {
        match (self.addr, other.addr) {
            (Some(a), Some(b)) => a != b || !(self.is_write || other.is_write),
            _ => false,
        }
    }
}

/// The state presented to a scheduler at a scheduling point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulingPoint {
    /// Threads that can take a step, in thread-id order.
    pub enabled: Vec<ThreadId>,
    /// The thread that executed the previous step (`None` at the first step).
    pub last: Option<ThreadId>,
    /// Whether the previous thread is still enabled — the condition under
    /// which choosing a different thread counts as a *preemption* (§2).
    pub last_enabled: bool,
    /// Total number of threads created so far (defines the round-robin order
    /// used by delay bounding).
    pub num_threads: usize,
    /// Index of the step about to be taken (0-based).
    pub step_index: usize,
    /// Pending-operation summaries for the enabled threads, in the same order
    /// as `enabled`.
    pub pending: Vec<PendingOp>,
}

impl SchedulingPoint {
    /// True when more than one thread is enabled, i.e. the scheduler has an
    /// actual choice. The paper's "# max scheduling points" column counts
    /// points with this property.
    pub fn has_choice(&self) -> bool {
        self.enabled.len() > 1
    }

    /// Whether `t` is enabled at this point.
    pub fn is_enabled(&self, t: ThreadId) -> bool {
        self.enabled.contains(&t)
    }

    /// The choice the non-preemptive round-robin deterministic scheduler
    /// would make: keep running the previous thread if it is still enabled,
    /// otherwise take the next enabled thread in creation order, wrapping
    /// around (this is the deterministic scheduler delay bounding is defined
    /// against in §2 of the paper).
    pub fn round_robin_choice(&self) -> ThreadId {
        debug_assert!(!self.enabled.is_empty());
        let start = match self.last {
            Some(t) if self.last_enabled => return t,
            Some(t) => t.index(),
            None => 0,
        };
        let n = self.num_threads.max(1);
        for offset in 0..n {
            let candidate = ThreadId((start + offset) % n);
            if self.is_enabled(candidate) {
                return candidate;
            }
        }
        // Fall back to the lowest-id enabled thread (unreachable when
        // `enabled ⊆ 0..num_threads`, which the runtime guarantees).
        self.enabled[0]
    }

    /// The number of *delays* needed to schedule `t` at this point: the
    /// number of enabled threads that are skipped when walking round-robin
    /// from the previous thread to `t` (definition of `delays(α, t)` in §2).
    pub fn delays_for(&self, t: ThreadId) -> u32 {
        debug_assert!(self.is_enabled(t));
        let n = self.num_threads.max(1);
        let start = match self.last {
            // At the very first scheduling point the deterministic scheduler
            // is at thread 0, so scheduling thread 0 costs no delay.
            None => 0,
            Some(last) => last.index(),
        };
        let distance = (t.index() + n - start) % n;
        let mut delays = 0;
        for x in 0..distance {
            let skipped = ThreadId((start + x) % n);
            let skipped_enabled = if Some(skipped) == self.last {
                self.last_enabled
            } else {
                self.is_enabled(skipped)
            };
            if skipped_enabled {
                delays += 1;
            }
        }
        delays
    }

    /// The preemption cost of choosing `t` at this point: 1 when the previous
    /// thread is still enabled and a different thread is chosen, 0 otherwise
    /// (definition of the preemption count `PC` in §2).
    pub fn preemptions_for(&self, t: ThreadId) -> u32 {
        match self.last {
            Some(last) if self.last_enabled && last != t => 1,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_ir::TemplateId;

    fn point(
        enabled: &[usize],
        last: Option<usize>,
        last_enabled: bool,
        num_threads: usize,
    ) -> SchedulingPoint {
        SchedulingPoint {
            enabled: enabled.iter().map(|&i| ThreadId(i)).collect(),
            last: last.map(ThreadId),
            last_enabled,
            num_threads,
            step_index: 0,
            pending: enabled
                .iter()
                .map(|&i| PendingOp {
                    thread: ThreadId(i),
                    loc: Loc {
                        template: TemplateId(0),
                        pc: 0,
                    },
                    addr: None,
                    is_write: false,
                })
                .collect(),
        }
    }

    #[test]
    fn round_robin_keeps_running_the_last_thread() {
        let p = point(&[0, 1, 2], Some(1), true, 3);
        assert_eq!(p.round_robin_choice(), ThreadId(1));
    }

    #[test]
    fn round_robin_moves_to_next_enabled_when_last_blocked() {
        let p = point(&[0, 2], Some(1), false, 3);
        assert_eq!(p.round_robin_choice(), ThreadId(2));
        let p = point(&[0], Some(2), false, 3);
        assert_eq!(p.round_robin_choice(), ThreadId(0));
    }

    #[test]
    fn preemption_cost_matches_definition() {
        let p = point(&[0, 1], Some(0), true, 2);
        assert_eq!(p.preemptions_for(ThreadId(0)), 0);
        assert_eq!(p.preemptions_for(ThreadId(1)), 1);
        // A non-preemptive context switch (last thread disabled) costs nothing.
        let p = point(&[1], Some(0), false, 2);
        assert_eq!(p.preemptions_for(ThreadId(1)), 0);
    }

    #[test]
    fn delay_cost_matches_paper_example() {
        // Paper §2: last(α) = 3, enabled = {0, 2, 3, 4}, N = 5.
        // delays(α, 2) = 3 because threads 3, 4 and 0 are skipped.
        let p = point(&[0, 2, 3, 4], Some(3), true, 5);
        assert_eq!(p.delays_for(ThreadId(2)), 3);
        assert_eq!(p.delays_for(ThreadId(3)), 0);
        assert_eq!(p.delays_for(ThreadId(4)), 1);
        assert_eq!(p.delays_for(ThreadId(0)), 2);
    }

    #[test]
    fn delay_cost_when_last_thread_is_disabled() {
        // Continuing past a disabled thread costs nothing extra.
        let p = point(&[1, 2], Some(0), false, 3);
        assert_eq!(p.delays_for(ThreadId(1)), 0);
        assert_eq!(p.delays_for(ThreadId(2)), 1);
    }

    #[test]
    fn first_point_charges_delays_from_thread_zero() {
        let p = point(&[0], None, false, 1);
        assert_eq!(p.delays_for(ThreadId(0)), 0);
        assert_eq!(p.preemptions_for(ThreadId(0)), 0);
    }

    #[test]
    fn pending_op_independence_matches_the_dependence_relation() {
        let op = |thread: usize, addr: Option<usize>, is_write: bool| PendingOp {
            thread: ThreadId(thread),
            loc: Loc {
                template: TemplateId(0),
                pc: 0,
            },
            addr,
            is_write,
        };
        // Reads of different cells, and of the same cell, commute.
        assert!(op(0, Some(1), false).independent_of(&op(1, Some(2), false)));
        assert!(op(0, Some(1), false).independent_of(&op(1, Some(1), false)));
        // Writes commute only across different cells.
        assert!(op(0, Some(1), true).independent_of(&op(1, Some(2), true)));
        assert!(!op(0, Some(1), true).independent_of(&op(1, Some(1), false)));
        assert!(!op(0, Some(1), false).independent_of(&op(1, Some(1), true)));
        // Address-less operations (sync objects, spawn, join, yield) are
        // dependent on everything, in both argument positions.
        assert!(!op(0, None, false).independent_of(&op(1, Some(1), false)));
        assert!(!op(0, Some(1), false).independent_of(&op(1, None, false)));
        assert!(!op(0, None, false).independent_of(&op(1, None, false)));
    }

    #[test]
    fn has_choice_requires_two_enabled_threads() {
        assert!(!point(&[0], Some(0), true, 1).has_choice());
        assert!(point(&[0, 1], Some(0), true, 2).has_choice());
    }
}
