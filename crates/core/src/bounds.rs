//! Schedule-bounding policies: the cost functions that preemption bounding
//! and delay bounding assign to scheduling decisions (§2 of the paper).

use sct_runtime::{SchedulingPoint, ThreadId};

/// Which bounding function a bounded search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundKind {
    /// No bound (plain depth-first search).
    None,
    /// Preemption bounding: each preemptive context switch costs 1.
    Preemption,
    /// Delay bounding against the non-preemptive round-robin scheduler: a
    /// decision costs the number of enabled threads skipped.
    Delay,
}

impl BoundKind {
    /// Construct the policy object for this kind.
    pub fn policy(self) -> Box<dyn BoundPolicy> {
        match self {
            BoundKind::None => Box::new(NoBound),
            BoundKind::Preemption => Box::new(PreemptionBound),
            BoundKind::Delay => Box::new(DelayBound),
        }
    }
}

/// The cost a scheduling decision contributes towards a schedule bound.
///
/// The *schedule cost* of a schedule is the sum of the per-decision costs;
/// preemption bounding explores schedules whose cost (preemption count `PC`)
/// is at most the bound, delay bounding those whose delay count `DC` is at
/// most the bound.
pub trait BoundPolicy {
    /// Cost of choosing `choice` at `point`.
    fn cost(&self, point: &SchedulingPoint, choice: ThreadId) -> u32;

    /// Name of the policy ("preemption", "delay", "none").
    fn name(&self) -> &'static str;

    /// Whether this policy can ever exclude a decision, i.e. whether any
    /// choice can have non-zero cost. A policy that never prunes makes the
    /// sleep-set wake-on-bound-conflict rule vacuous: the previously-chosen
    /// thread *always* goes to sleep on backtrack, so the entry sleep set of
    /// every sibling subtree is known before the subtree to its left has been
    /// explored — the property the work-stealing frontier
    /// ([`crate::steal`]) relies on to hand out sibling subtrees in parallel.
    fn can_prune(&self) -> bool {
        true
    }
}

/// No bounding: every decision is free. Bounded DFS with this policy is plain
/// depth-first search.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBound;

impl BoundPolicy for NoBound {
    fn cost(&self, _point: &SchedulingPoint, _choice: ThreadId) -> u32 {
        0
    }
    fn name(&self) -> &'static str {
        "none"
    }
    fn can_prune(&self) -> bool {
        false
    }
}

/// Preemption bounding (Musuvathi & Qadeer): a decision costs 1 when the
/// previously running thread was still enabled but a different thread is
/// chosen.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreemptionBound;

impl BoundPolicy for PreemptionBound {
    fn cost(&self, point: &SchedulingPoint, choice: ThreadId) -> u32 {
        point.preemptions_for(choice)
    }
    fn name(&self) -> &'static str {
        "preemption"
    }
}

/// Delay bounding (Emmi, Qadeer, Rakamarić) against the non-preemptive
/// round-robin deterministic scheduler: a decision costs the number of
/// enabled threads skipped when walking round-robin from the previous thread
/// to the chosen one.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelayBound;

impl BoundPolicy for DelayBound {
    fn cost(&self, point: &SchedulingPoint, choice: ThreadId) -> u32 {
        point.delays_for(choice)
    }
    fn name(&self) -> &'static str {
        "delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_ir::{Loc, TemplateId};
    use sct_runtime::PendingOp;

    fn point(
        enabled: &[usize],
        last: Option<usize>,
        last_enabled: bool,
        n: usize,
    ) -> SchedulingPoint {
        SchedulingPoint {
            enabled: enabled.iter().map(|&i| ThreadId(i)).collect(),
            last: last.map(ThreadId),
            last_enabled,
            num_threads: n,
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
    fn delay_cost_dominates_preemption_cost() {
        // For every choice, the delay cost is at least the preemption cost —
        // which is why the set of schedules with ≤ c delays is a subset of
        // those with ≤ c preemptions (§2).
        let points = [
            point(&[0, 1, 2], Some(0), true, 3),
            point(&[1, 2], Some(0), false, 3),
            point(&[0, 2, 3, 4], Some(3), true, 5),
            point(&[0], None, false, 1),
        ];
        for p in &points {
            for &t in &p.enabled {
                assert!(
                    DelayBound.cost(p, t) >= PreemptionBound.cost(p, t),
                    "delay < preemption at {p:?} choosing {t}"
                );
            }
        }
    }

    #[test]
    fn round_robin_choice_is_free_under_both_policies() {
        let points = [
            point(&[0, 1, 2], Some(1), true, 3),
            point(&[0, 2], Some(1), false, 3),
            point(&[2], Some(0), false, 3),
        ];
        for p in &points {
            let rr = p.round_robin_choice();
            assert_eq!(PreemptionBound.cost(p, rr), 0);
            assert_eq!(DelayBound.cost(p, rr), 0);
            assert_eq!(NoBound.cost(p, rr), 0);
        }
    }

    #[test]
    fn adversarial_example_from_section_2() {
        // Example 2: with threads T1..Tn between the writer and the asserting
        // thread, scheduling the asserting thread early needs many delays but
        // only one preemption.
        let p = point(&[1, 2, 3, 4], Some(1), true, 5);
        // Choosing thread 4 skips enabled threads 1, 2, 3 => 3 delays.
        assert_eq!(DelayBound.cost(&p, ThreadId(4)), 3);
        assert_eq!(PreemptionBound.cost(&p, ThreadId(4)), 1);
    }

    #[test]
    fn bound_kind_constructs_matching_policies() {
        assert_eq!(BoundKind::None.policy().name(), "none");
        assert_eq!(BoundKind::Preemption.policy().name(), "preemption");
        assert_eq!(BoundKind::Delay.policy().name(), "delay");
    }
}
