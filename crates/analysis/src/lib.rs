//! Static lockset and lock-order analysis over built [`sct_ir::Program`]s.
//!
//! The dynamic study (PAPER.md §5) spends 10 uncontrolled executions per
//! benchmark discovering racy locations before systematic exploration can
//! start. This crate computes a sound over-approximation of that set without
//! executing anything, plus a deadlock prediction and a lint catalogue, from
//! four purely static ingredients:
//!
//! 1. **CFGs** ([`mod@cfg`]) — per-template basic blocks and may-reach over the
//!    flat instruction stream.
//! 2. **Locksets** ([`lockset`]) — a must-held (intersection) and may-held
//!    (union) mutex dataflow, with condvar `Wait` modeled as
//!    release + re-acquire.
//! 3. **May-happen-in-parallel** ([`conc`]) — which template pairs can
//!    overlap, driven by spawn sites and spawn loops.
//! 4. **Passes** — Eraser-style race candidates ([`races`]), a Goodlock-style
//!    lock-order graph with cycle detection ([`lockorder`]), and a lint
//!    catalogue plus blocking-site inventory ([`lints`]).
//!
//! Everything over-approximates in the same direction: the race-candidate
//! set must contain every race the dynamic detector can report, and
//! [`AnalysisReport::flags_deadlock`] must fire on every benchmark whose
//! exploration finds a `Bug::Deadlock`. `tests/integration.rs` enforces both
//! differentially against the whole SCTBench registry.

#![warn(missing_docs)]

pub mod cfg;
pub mod conc;
pub mod lints;
pub mod lockorder;
pub mod lockset;
pub mod races;

pub use cfg::Cfg;
pub use conc::Concurrency;
pub use lints::{BlockingKind, BlockingSite, Lint};
pub use lockorder::LockEdge;
pub use lockset::{LockNode, TemplateFacts};
pub use races::RaceCandidate;

use sct_ir::{pretty, Loc, Program};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Everything the static analyses derive from one program.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Program (benchmark) name.
    pub name: String,
    /// Static race candidates, sorted.
    pub candidates: Vec<RaceCandidate>,
    /// Lock-order graph edges.
    pub lock_edges: Vec<LockEdge>,
    /// Lock-order cycles (each a sorted strongly-connected component).
    pub lock_cycles: Vec<Vec<LockNode>>,
    /// Reachable potentially-blocking operations (condvar / semaphore /
    /// barrier waits).
    pub blocking: Vec<BlockingSite>,
    /// Lint catalogue.
    pub lints: Vec<Lint>,
}

impl AnalysisReport {
    /// The set of instruction locations involved in any race candidate.
    /// This is the static replacement for the dynamic race phase's racy
    /// location set: feed it to `ExecConfig::with_racy_locations`.
    pub fn candidate_locations(&self) -> BTreeSet<Loc> {
        self.candidates
            .iter()
            .flat_map(|c| [c.first, c.second])
            .collect()
    }

    /// Candidate pairs as unordered `(low, high)` location pairs.
    pub fn candidate_pairs(&self) -> BTreeSet<(Loc, Loc)> {
        self.candidates
            .iter()
            .map(|c| (c.first, c.second))
            .collect()
    }

    /// Whether the static analyses see any way for an execution to deadlock:
    /// a lock-order cycle, a potentially-blocking wait, or a template that
    /// can exit while holding a lock. Conservative by design — the
    /// integration oracle requires this to fire on every benchmark whose
    /// exploration reaches a `Bug::Deadlock`.
    pub fn flags_deadlock(&self) -> bool {
        !self.lock_cycles.is_empty()
            || !self.blocking.is_empty()
            || self
                .lints
                .iter()
                .any(|l| matches!(l, Lint::LockLeak { .. }))
    }

    /// Render the report for human consumption (the `sct-table lint`
    /// subcommand). Names come from the program's declarations via
    /// [`sct_ir::pretty`].
    pub fn render(&self, program: &Program) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {}: {} race candidate(s), {} lock-order cycle(s), {} lint(s), deadlock risk: {}",
            self.name,
            self.candidates.len(),
            self.lock_cycles.len(),
            self.lints.len(),
            if self.flags_deadlock() { "yes" } else { "no" }
        );
        for cycle in &self.lock_cycles {
            let nodes: Vec<String> = cycle.iter().map(|n| n.render(program)).collect();
            let _ = writeln!(out, "  lock-order cycle: {{{}}}", nodes.join(", "));
        }
        for c in &self.candidates {
            let _ = writeln!(
                out,
                "  race candidate on {}: {} [{}] <-> {} [{}]",
                program.globals[c.var.index()].name,
                c.first,
                render_op_at(program, c.first),
                c.second,
                render_op_at(program, c.second),
            );
        }
        for l in &self.lints {
            let _ = writeln!(out, "  lint: {}", render_lint(program, l));
        }
        for b in &self.blocking {
            let kind = match b.kind {
                BlockingKind::CondvarWait => "condvar wait",
                BlockingKind::SemWait => "semaphore wait",
                BlockingKind::BarrierWait => "barrier wait",
            };
            let _ = writeln!(
                out,
                "  blocking site: {} [{}] ({kind})",
                b.loc,
                render_op_at(program, b.loc)
            );
        }
        out
    }
}

fn render_op_at(program: &Program, loc: Loc) -> String {
    program
        .templates
        .get(loc.template.index())
        .and_then(|t| t.body.get(loc.pc as usize))
        .and_then(|i| i.op())
        .map(|op| pretty::op_to_string(program, op))
        .unwrap_or_else(|| "?".into())
}

fn render_lint(program: &Program, lint: &Lint) -> String {
    match lint {
        Lint::UnlockUnheld {
            loc,
            mutex,
            on_every_path,
        } => {
            let when = if *on_every_path {
                "never held there"
            } else {
                "not held on every path"
            };
            format!("unlock of {} at {loc} is {when}", mutex.render(program))
        }
        Lint::LockLeak { template, held } => {
            let held: Vec<String> = held.iter().map(|n| n.render(program)).collect();
            format!(
                "template {} can exit still holding {{{}}}",
                program.templates[template.index()].name,
                held.join(", ")
            )
        }
        Lint::MixedAtomicity {
            var,
            atomic_at,
            non_atomic_at,
        } => format!(
            "{} is accessed atomically at {atomic_at} and non-atomically at {non_atomic_at}",
            program.globals[var.index()].name
        ),
        Lint::WaitUnsignalled { loc, condvar } => format!(
            "wait at {loc} on {} has no reachable signal/broadcast",
            program.condvars[condvar.index()].name
        ),
        Lint::SemWaitNeverPosted { loc, sem } => format!(
            "semaphore down at {loc} on {} has no reachable up",
            program.sems[sem.index()].name
        ),
    }
}

/// Run every static analysis over a program.
pub fn analyze(program: &Program) -> AnalysisReport {
    let imprecise = lockset::imprecise_bases(program);
    let facts = lockset::program_facts(program, &imprecise);
    let conc = Concurrency::build(program, &facts);
    let candidates = races::race_candidates(program, &facts, &conc);
    let lock_edges = lockorder::lock_order_edges(program, &facts, &conc, &imprecise);
    let lock_cycles = lockorder::lock_cycles(&lock_edges);
    let blocking = lints::blocking_sites(program, &facts, &conc);
    let lints = lints::collect_lints(program, &facts, &conc, &imprecise);
    AnalysisReport {
        name: program.name.clone(),
        candidates,
        lock_edges,
        lock_cycles,
        blocking,
        lints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_ir::prelude::*;

    #[test]
    fn report_renders_with_stable_markers() {
        let mut p = ProgramBuilder::new("demo");
        let g = p.global("x", 0);
        let a = p.mutex("a");
        let b = p.mutex("b");
        let t = p.thread("worker", move |bb| {
            bb.lock(b);
            bb.lock(a);
            bb.unlock(a);
            bb.unlock(b);
            bb.store(g, 1);
        });
        p.main(move |bb| {
            bb.spawn(t);
            bb.lock(a);
            bb.lock(b);
            bb.unlock(b);
            bb.unlock(a);
            bb.store(g, 2);
        });
        let program = p.build().unwrap();
        let report = analyze(&program);
        assert!(report.flags_deadlock());
        assert_eq!(report.candidates.len(), 1);
        let text = report.render(&program);
        assert!(text.contains("lock-order cycle"), "{text}");
        assert!(text.contains("race candidate on x"), "{text}");
        assert!(text.contains("deadlock risk: yes"), "{text}");
    }

    #[test]
    fn clean_program_is_clean() {
        let mut p = ProgramBuilder::new("clean");
        let g = p.global("x", 0);
        let m = p.mutex("m");
        let t = p.thread("worker", move |bb| {
            bb.lock(m);
            bb.fetch_add(g, 1);
            bb.unlock(m);
        });
        p.main(move |bb| {
            bb.spawn(t);
            bb.lock(m);
            bb.fetch_add(g, 1);
            bb.unlock(m);
        });
        let program = p.build().unwrap();
        let report = analyze(&program);
        assert!(report.candidates.is_empty());
        assert!(report.lock_cycles.is_empty());
        assert!(report.lints.is_empty());
        assert!(!report.flags_deadlock());
        assert!(report.render(&program).contains("deadlock risk: no"));
    }

    #[test]
    fn registry_smoke_runs_on_every_benchmark() {
        for spec in sctbench::all_benchmarks() {
            let program = spec.program();
            let report = analyze(&program);
            // Rendering must never panic and always carries the header.
            assert!(report
                .render(&program)
                .starts_with(&format!("== {}", spec.name)));
        }
    }
}
