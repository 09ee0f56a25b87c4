//! Flat instruction form: the one program representation, emitted directly
//! by the builder DSL and interpreted by the runtime. Structured control flow
//! is emitted as conditional branches so that a thread's continuation is a
//! single program counter.

use crate::expr::Expr;
use crate::program::{BarrierId, CondvarId, LocalId, MutexId, SemId, TemplateId, VarId};
use std::fmt;

/// Reference to a shared variable cell: a declaration plus an optional index
/// expression for array declarations.
#[derive(Debug, Clone, PartialEq)]
pub struct VarRef {
    /// The global declaration.
    pub var: VarId,
    /// Index into the declaration when it is an array; `None` addresses cell 0.
    pub index: Option<Expr>,
}

impl VarRef {
    /// Reference cell `index` of an array declaration.
    pub fn indexed(var: VarId, index: impl Into<Expr>) -> Self {
        VarRef {
            var,
            index: Some(index.into()),
        }
    }
}

impl From<VarId> for VarRef {
    fn from(var: VarId) -> Self {
        VarRef { var, index: None }
    }
}

macro_rules! obj_ref {
    ($(#[$meta:meta])* $name:ident, $id:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            /// The declaration being referenced.
            pub base: $id,
            /// Index when the declaration is an array; `None` addresses instance 0.
            pub index: Option<Expr>,
        }

        impl $name {
            /// Reference instance `index` of an array declaration.
            pub fn indexed(base: $id, index: impl Into<Expr>) -> Self {
                Self { base, index: Some(index.into()) }
            }
        }

        impl From<$id> for $name {
            fn from(base: $id) -> Self {
                Self { base, index: None }
            }
        }
    };
}

obj_ref!(
    /// Reference to a mutex instance.
    MutexRef,
    MutexId
);
obj_ref!(
    /// Reference to a condition-variable instance.
    CondvarRef,
    CondvarId
);
obj_ref!(
    /// Reference to a semaphore instance.
    SemRef,
    SemId
);
obj_ref!(
    /// Reference to a barrier instance.
    BarrierRef,
    BarrierId
);

/// Atomic read-modify-write operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmwOp {
    /// `fetch_add`
    Add,
    /// `fetch_sub`
    Sub,
    /// `swap`
    Exchange,
    /// `fetch_max`
    Max,
    /// `fetch_min`
    Min,
}

/// A static program location: a (template, instruction index) pair.
///
/// Locations identify *instructions*, not dynamic events; the race-detection
/// phase of the study reports the set of racy locations, which the runtime
/// then treats as visible operations during systematic exploration (§5 of the
/// paper: racy instructions, stored as binary offsets, are promoted to
/// visible operations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// Template the instruction belongs to.
    pub template: TemplateId,
    /// Index of the instruction within the template body.
    pub pc: u32,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.template, self.pc)
    }
}

/// A non-control-flow operation. These are the candidates for visible
/// operations; the runtime decides visibility per operation kind and per the
/// configured set of racy locations.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Read a shared cell into a local.
    Load {
        var: VarRef,
        dst: LocalId,
        atomic: bool,
    },
    /// Write a shared cell.
    Store {
        var: VarRef,
        value: Expr,
        atomic: bool,
    },
    /// Atomic read-modify-write.
    Rmw {
        var: VarRef,
        op: RmwOp,
        operand: Expr,
        dst_old: Option<LocalId>,
    },
    /// Atomic compare-and-swap.
    Cas {
        var: VarRef,
        expected: Expr,
        new: Expr,
        dst_success: Option<LocalId>,
        dst_old: Option<LocalId>,
    },
    /// Acquire a mutex.
    Lock { mutex: MutexRef },
    /// Release a mutex.
    Unlock { mutex: MutexRef },
    /// Destroy a mutex.
    MutexDestroy { mutex: MutexRef },
    /// Condition wait (release + block + re-acquire).
    Wait {
        condvar: CondvarRef,
        mutex: MutexRef,
    },
    /// Wake one waiter.
    Signal { condvar: CondvarRef },
    /// Wake all waiters.
    Broadcast { condvar: CondvarRef },
    /// Semaphore down.
    SemWait { sem: SemRef },
    /// Semaphore up.
    SemPost { sem: SemRef },
    /// Barrier wait.
    BarrierWait { barrier: BarrierRef },
    /// Thread creation.
    Spawn {
        template: TemplateId,
        dst: Option<LocalId>,
    },
    /// Thread join.
    Join { thread: Expr },
    /// Visible no-op.
    Yield,
    /// Local assignment (always invisible).
    Assign { dst: LocalId, value: Expr },
    /// Assertion over locals (always invisible; failure is a bug).
    Assert { cond: Expr, msg: String },
    /// Unconditional failure (always invisible; reaching it is a bug).
    Fail { msg: String },
}

impl Op {
    /// Whether this operation is a synchronisation operation, i.e. always a
    /// visible operation regardless of the racy-location set.
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Op::Lock { .. }
                | Op::Unlock { .. }
                | Op::MutexDestroy { .. }
                | Op::Wait { .. }
                | Op::Signal { .. }
                | Op::Broadcast { .. }
                | Op::SemWait { .. }
                | Op::SemPost { .. }
                | Op::BarrierWait { .. }
                | Op::Spawn { .. }
                | Op::Join { .. }
                | Op::Yield
        )
    }

    /// Whether this operation accesses shared memory (load/store/rmw/cas).
    pub fn is_memory_access(&self) -> bool {
        matches!(
            self,
            Op::Load { .. } | Op::Store { .. } | Op::Rmw { .. } | Op::Cas { .. }
        )
    }

    /// Whether this is an atomic memory access (always visible, never racy).
    pub fn is_atomic_access(&self) -> bool {
        match self {
            Op::Load { atomic, .. } | Op::Store { atomic, .. } => *atomic,
            Op::Rmw { .. } | Op::Cas { .. } => true,
            _ => false,
        }
    }

    /// Whether this operation only touches thread-local state.
    pub fn is_local(&self) -> bool {
        matches!(
            self,
            Op::Assign { .. } | Op::Assert { .. } | Op::Fail { .. }
        )
    }

    /// A short mnemonic used by traces and the pretty printer.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Load { .. } => "load",
            Op::Store { .. } => "store",
            Op::Rmw { .. } => "rmw",
            Op::Cas { .. } => "cas",
            Op::Lock { .. } => "lock",
            Op::Unlock { .. } => "unlock",
            Op::MutexDestroy { .. } => "mutex_destroy",
            Op::Wait { .. } => "wait",
            Op::Signal { .. } => "signal",
            Op::Broadcast { .. } => "broadcast",
            Op::SemWait { .. } => "sem_wait",
            Op::SemPost { .. } => "sem_post",
            Op::BarrierWait { .. } => "barrier_wait",
            Op::Spawn { .. } => "spawn",
            Op::Join { .. } => "join",
            Op::Yield => "yield",
            Op::Assign { .. } => "assign",
            Op::Assert { .. } => "assert",
            Op::Fail { .. } => "fail",
        }
    }
}

/// A flat instruction: an operation or a control-flow transfer.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Execute an operation and fall through to the next instruction.
    Op { op: Op },
    /// Unconditional jump.
    Goto { target: usize },
    /// Jump to `target` when `cond` evaluates to zero, otherwise fall through.
    Branch { cond: Expr, target: usize },
    /// Thread termination.
    Halt,
}

impl Instr {
    /// The operation carried by this instruction, if any.
    pub fn op(&self) -> Option<&Op> {
        match self {
            Instr::Op { op } => Some(op),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_ref_conversion() {
        let r: VarRef = VarId(3).into();
        assert_eq!(r.var, VarId(3));
        assert!(r.index.is_none());
        let r = VarRef::indexed(VarId(1), 4);
        assert_eq!(r.index, Some(Expr::Const(4)));
    }

    #[test]
    fn obj_ref_conversion() {
        let m: MutexRef = MutexId(0).into();
        assert!(m.index.is_none());
        let m = MutexRef::indexed(MutexId(2), LocalId(0));
        assert_eq!(m.base, MutexId(2));
        assert!(m.index.is_some());
    }

    #[test]
    fn sync_classification() {
        assert!(Op::Lock {
            mutex: MutexId(0).into()
        }
        .is_sync());
        assert!(Op::Yield.is_sync());
        assert!(!Op::Load {
            var: VarId(0).into(),
            dst: LocalId(0),
            atomic: false
        }
        .is_sync());
        assert!(Op::Assign {
            dst: LocalId(0),
            value: Expr::Const(0)
        }
        .is_local());
    }

    #[test]
    fn atomic_classification() {
        assert!(Op::Cas {
            var: VarId(0).into(),
            expected: Expr::Const(0),
            new: Expr::Const(1),
            dst_success: None,
            dst_old: None
        }
        .is_atomic_access());
        assert!(Op::Load {
            var: VarId(0).into(),
            dst: LocalId(0),
            atomic: true
        }
        .is_atomic_access());
        assert!(!Op::Store {
            var: VarId(0).into(),
            value: Expr::Const(1),
            atomic: false
        }
        .is_atomic_access());
    }

    #[test]
    fn loc_display() {
        let loc = Loc {
            template: TemplateId(2),
            pc: 7,
        };
        assert_eq!(loc.to_string(), "T2:7");
    }

    #[test]
    fn mnemonics_are_stable() {
        assert_eq!(Op::Yield.mnemonic(), "yield");
        assert_eq!(
            Op::BarrierWait {
                barrier: crate::program::BarrierId(0).into()
            }
            .mnemonic(),
            "barrier_wait"
        );
    }
}
