//! # sct-core
//!
//! Systematic concurrency testing (SCT) on top of the controlled runtime in
//! `sct-runtime`. This crate is the Rust reproduction of the techniques the
//! PPoPP'14 study "Concurrency Testing Using Schedule Bounding: an Empirical
//! Study" compares:
//!
//! * **DFS** — unbounded stateless depth-first search over schedules
//!   ([`dfs::BoundedDfs`] with [`bounds::NoBound`]);
//! * **IPB** — iterative preemption bounding ([`explore::iterative_bounding`]
//!   with [`bounds::PreemptionBound`]), the CHESS algorithm;
//! * **IDB** — iterative delay bounding ([`bounds::DelayBound`]), the
//!   delay-bounded scheduler of Emmi et al. instantiated with the
//!   non-preemptive round-robin deterministic scheduler;
//! * **Rand** — a naive random scheduler ([`random::RandomScheduler`]);
//! * **PCT** — the probabilistic concurrency testing scheduler
//!   ([`pct::PctScheduler`]), discussed as related work in the paper and used
//!   here for ablation benchmarks;
//! * **MapleLike** — a simplified re-implementation of Maple's default
//!   idiom-driven algorithm ([`maple::MapleLikeScheduler`]).
//!
//! The [`explore`] module runs every search as a producer of schedules
//! folded by one fold, under a terminal schedule limit (10,000 in the
//! study), and gathers the statistics reported in Table 3 of the paper
//! ([`stats::ExplorationStats`]). The [`steal`] module splits one search
//! across threads without changing any of them.
//!
//! ```
//! use sct_core::prelude::*;
//! use sct_ir::prelude::*;
//!
//! // Figure 1 of the paper: the assertion can only fail with ≥1 preemption.
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
//! let config = sct_runtime::ExecConfig::all_visible();
//! let limits = ExploreLimits::with_schedule_limit(1_000);
//! let zero = explore::bounded_dfs(&program, &config, BoundKind::Preemption, 0, &limits);
//! assert!(!zero.found_bug());          // needs a preemption
//! let one = explore::bounded_dfs(&program, &config, BoundKind::Preemption, 1, &limits);
//! assert!(one.found_bug());            // found with preemption bound 1
//! ```

pub mod bounds;
pub mod cache;
pub mod corpus;
pub mod dfs;
pub mod explore;
pub mod fault;
pub mod maple;
pub mod parallel;
pub mod pct;
pub mod random;
pub mod scheduler;
pub mod stats;
pub mod steal;
pub mod telemetry;

pub use bounds::{BoundKind, BoundPolicy, DelayBound, NoBound, PreemptionBound};
pub use cache::{CacheHandle, ScheduleCache, ScheduleRun, SharedCache, TerminalDigest};
pub use corpus::{BugCorpus, BugRecord, Corpus, CorpusError};
pub use dfs::{BoundedDfs, SubtreeSeed};
pub use explore::{explore_with, iterative_bounding, ExploreLimits, Technique};
pub use fault::{FaultGuard, FaultKind};
pub use maple::MapleLikeScheduler;
pub use parallel::{default_workers, map_indexed};
pub use pct::PctScheduler;
pub use random::RandomScheduler;
pub use scheduler::Scheduler;
pub use stats::ExplorationStats;
pub use steal::explore_bounded_stealing_digests;
pub use telemetry::{Event, Recorder, Telemetry};

/// Convenient glob import.
pub mod prelude {
    pub use crate::bounds::{BoundKind, BoundPolicy, DelayBound, NoBound, PreemptionBound};
    pub use crate::cache::{
        self, CacheHandle, ScheduleCache, ScheduleRun, SharedCache, TerminalDigest,
    };
    pub use crate::corpus::{self, BugCorpus, BugRecord, Corpus, CorpusError};
    pub use crate::dfs::{BoundedDfs, SubtreeSeed};
    pub use crate::explore::{self, explore_with, iterative_bounding, ExploreLimits, Technique};
    pub use crate::fault::{self, FaultGuard, FaultKind};
    pub use crate::maple::MapleLikeScheduler;
    pub use crate::parallel::{self, default_workers, map_indexed};
    pub use crate::pct::PctScheduler;
    pub use crate::random::RandomScheduler;
    pub use crate::scheduler::Scheduler;
    pub use crate::stats::ExplorationStats;
    pub use crate::steal::{self, explore_bounded_stealing_digests};
    pub use crate::telemetry::{self, Event, Recorder, Telemetry};
}
