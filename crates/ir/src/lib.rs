//! # sct-ir
//!
//! A small intermediate representation (IR) for multi-threaded test programs,
//! together with a builder DSL that emits the flat instruction form
//! interpreted by `sct-runtime`: structured `if`/`while` blocks become
//! conditional branches and jumps as they are written, so instruction
//! indices are stable from the moment a program is built.
//!
//! The IR plays the role of the *programs under test* in the PPoPP'14 study
//! "Concurrency Testing Using Schedule Bounding: an Empirical Study"
//! (Thomson, Donaldson, Betts). The original study instruments native pthread
//! binaries; here, benchmarks are expressed as data — a set of shared global
//! variables, synchronisation objects (mutexes, condition variables,
//! semaphores, barriers) and *thread templates* whose bodies are sequences of
//! instructions. Every operation that touches shared state is a *visible
//! operation* candidate, exactly matching the paper's execution model (§2):
//! a step is a visible operation followed by invisible (thread-local) work up
//! to the next visible operation.
//!
//! ## Quick example
//!
//! The program of Figure 1 in the paper — three worker threads racing on two
//! flags with an assertion — looks like this:
//!
//! ```
//! use sct_ir::prelude::*;
//!
//! let mut p = ProgramBuilder::new("figure1");
//! let x = p.global("x", 0);
//! let y = p.global("y", 0);
//!
//! let t1 = p.thread("t1", |b| {
//!     b.store(x, 1);
//!     b.store(y, 1);
//! });
//! let t2 = p.thread("t2", |b| {
//!     b.store(x, 1);
//! });
//! let t3 = p.thread("t3", |b| {
//!     let rx = b.local("rx");
//!     let ry = b.local("ry");
//!     b.load(x, rx);
//!     b.load(y, ry);
//!     b.assert_cond(eq(rx, ry), "x == y");
//! });
//! p.main(|b| {
//!     b.spawn(t1);
//!     b.spawn(t2);
//!     b.spawn(t3);
//! });
//! let program = p.build().unwrap();
//! assert_eq!(program.templates.len(), 4); // main + 3 workers
//! ```

pub mod builder;
pub mod error;
pub mod expr;
pub mod instr;
pub mod pretty;
pub mod program;

pub use builder::{BodyBuilder, ProgramBuilder};
pub use error::IrError;
pub use expr::{BinOp, Expr, UnOp};
pub use instr::{BarrierRef, CondvarRef, Instr, Loc, MutexRef, Op, RmwOp, SemRef, VarRef};
pub use program::{
    BarrierDecl, BarrierId, CondvarDecl, CondvarId, GlobalDecl, LocalId, MutexDecl, MutexId,
    Program, SemDecl, SemId, Template, TemplateId, VarId,
};

/// Convenient glob import for writing programs with the builder DSL.
pub mod prelude {
    pub use crate::builder::{BodyBuilder, ProgramBuilder};
    pub use crate::expr::{
        add, and, div, eq, ge, gt, le, lt, max, min, mul, ne, neg, not, or, rem, sub, Expr,
    };
    pub use crate::instr::{RmwOp, VarRef};
    pub use crate::program::{
        BarrierId, CondvarId, LocalId, MutexId, Program, SemId, TemplateId, VarId,
    };
}
