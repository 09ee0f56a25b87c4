//! # sct — systematic concurrency testing with schedule bounding
//!
//! A Rust reproduction of the system behind *"Concurrency Testing Using
//! Schedule Bounding: an Empirical Study"* (Thomson, Donaldson, Betts,
//! PPoPP 2014): a controlled-concurrency runtime, the schedule-bounding
//! search techniques the paper compares (iterative preemption bounding,
//! iterative delay bounding, unbounded DFS, a naive random scheduler, PCT and
//! a Maple-style idiom-driven scheduler), a vector-clock data-race detector,
//! a Rust port of the 52-benchmark **SCTBench** suite, and the experiment
//! harness that regenerates the paper's tables and figures.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names so downstream users can depend on a single crate.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`ir`] | `sct-ir` | the program IR and builder DSL |
//! | [`analysis`] | `sct-analysis` | static lockset/lock-order analysis, race candidates and lints |
//! | [`runtime`] | `sct-runtime` | the deterministic controlled-execution engine |
//! | [`race`] | `sct-race` | vector clocks, the FastTrack-style detector, the race-detection phase |
//! | [`core`] | `sct-core` | schedulers, schedule bounding, exploration drivers, statistics and the telemetry event stream |
//! | [`mod@bench`] | `sctbench` | the 52 SCTBench benchmarks and their registry |
//! | [`harness`] | `sct-harness` | the study pipeline, tables and figures |
//!
//! ## Quick start
//!
//! ```
//! use sct::prelude::*;
//!
//! // Build the paper's Figure 1 program.
//! let mut p = ProgramBuilder::new("figure1");
//! let x = p.global("x", 0);
//! let y = p.global("y", 0);
//! let t1 = p.thread("t1", |b| { b.store(x, 1); b.store(y, 1); });
//! let t3 = p.thread("t3", |b| {
//!     let rx = b.local("rx");
//!     let ry = b.local("ry");
//!     b.load(x, rx);
//!     b.load(y, ry);
//!     b.assert_cond(eq(rx, ry), "x == y");
//! });
//! p.main(|b| { b.spawn(t1); b.spawn(t3); });
//! let program = p.build().unwrap();
//!
//! // Explore it with iterative delay bounding.
//! let stats = iterative_bounding(
//!     &program,
//!     &ExecConfig::all_visible(),
//!     BoundKind::Delay,
//!     &ExploreLimits::with_schedule_limit(1_000),
//! );
//! assert!(stats.found_bug());
//! assert_eq!(stats.bound_of_first_bug, Some(1)); // one delay suffices
//! ```

/// The program intermediate representation and builder DSL (`sct-ir`).
pub mod ir {
    pub use sct_ir::*;
}

/// Static lockset and lock-order analysis over the IR (`sct-analysis`).
pub mod analysis {
    pub use sct_analysis::*;
}

/// The controlled, deterministic execution runtime (`sct-runtime`).
pub mod runtime {
    pub use sct_runtime::*;
}

/// Dynamic data-race detection and the race-detection phase (`sct-race`).
pub mod race {
    pub use sct_race::*;
}

/// Schedulers, schedule bounding and exploration drivers (`sct-core`).
pub mod core {
    pub use sct_core::*;
}

/// The SCTBench benchmark suite (`sctbench`).
pub mod bench {
    pub use sctbench::*;
}

/// The experiment harness: study pipeline, tables and figures (`sct-harness`).
pub mod harness {
    pub use sct_harness::*;
}

/// One-stop imports for writing and exploring test programs.
pub mod prelude {
    pub use sct_core::prelude::*;
    pub use sct_ir::prelude::*;
    pub use sct_runtime::{
        Bug, ExecConfig, ExecutionOutcome, SchedulingPoint, ThreadId, VisibilityMode,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_modules_are_wired_to_the_right_crates() {
        // A couple of spot checks that the re-exports resolve.
        let benchmarks = crate::bench::all_benchmarks();
        assert_eq!(benchmarks.len(), 52);
        let _cfg = crate::runtime::ExecConfig::all_visible();
        let _limits = crate::core::ExploreLimits::with_schedule_limit(10);
        assert!(!crate::core::Telemetry::off().is_on());
        let report = crate::analysis::analyze(&benchmarks[0].program());
        assert_eq!(report.name, benchmarks[0].name);
    }
}
