//! Program-level declarations: identifiers, global variables, synchronisation
//! objects and thread templates.

use crate::error::IrError;
use crate::instr::{Instr, Op};
use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Raw index of this identifier within its declaration table.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a shared global variable (scalar or array base).
    VarId,
    "g"
);
id_type!(
    /// Identifier of a per-thread local slot.
    LocalId,
    "l"
);
id_type!(
    /// Identifier of a mutex declaration (possibly an array of mutexes).
    MutexId,
    "m"
);
id_type!(
    /// Identifier of a condition-variable declaration.
    CondvarId,
    "cv"
);
id_type!(
    /// Identifier of a counting-semaphore declaration.
    SemId,
    "s"
);
id_type!(
    /// Identifier of a barrier declaration.
    BarrierId,
    "bar"
);
id_type!(
    /// Identifier of a thread template (the static "body" threads are spawned from).
    TemplateId,
    "T"
);

/// Declaration of a shared global variable.
///
/// A declaration with `len > 1` is an array of `len` cells; cell `0` of a
/// scalar declaration is addressed without an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDecl {
    /// Human-readable name used in traces and pretty printing.
    pub name: String,
    /// Number of cells (1 for a scalar).
    pub len: u32,
    /// Initial values, one per cell.
    pub init: Vec<i64>,
}

/// Declaration of one or more mutexes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutexDecl {
    /// Human-readable name.
    pub name: String,
    /// Number of mutexes declared under this identifier (1 for a single mutex).
    pub len: u32,
}

/// Declaration of one or more condition variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondvarDecl {
    /// Human-readable name.
    pub name: String,
    /// Number of condition variables declared under this identifier.
    pub len: u32,
}

/// Declaration of one or more counting semaphores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemDecl {
    /// Human-readable name.
    pub name: String,
    /// Number of semaphores declared under this identifier.
    pub len: u32,
    /// Initial count of each semaphore.
    pub init: i64,
}

/// Declaration of one or more barriers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierDecl {
    /// Human-readable name.
    pub name: String,
    /// Number of barriers declared under this identifier.
    pub len: u32,
    /// Number of threads that must arrive before the barrier releases.
    pub participants: u32,
}

/// A thread template: a flat instruction sequence plus the number of
/// local slots its body uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// Human-readable name used in traces.
    pub name: String,
    /// Number of per-thread local slots (locals are initialised to zero).
    pub locals: u32,
    /// Flat instruction sequence emitted by [`crate::BodyBuilder`], ending in
    /// [`Instr::Halt`].
    pub body: Vec<Instr>,
}

/// A complete multi-threaded test program.
///
/// The program starts with a single thread running `templates[main]`; further
/// threads are created with `Spawn` instructions and are numbered in creation
/// order (the initial thread has id 0), which is the order used by the
/// round-robin deterministic scheduler that underpins delay bounding.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (benchmark id).
    pub name: String,
    /// Shared global variables.
    pub globals: Vec<GlobalDecl>,
    /// Mutex declarations.
    pub mutexes: Vec<MutexDecl>,
    /// Condition-variable declarations.
    pub condvars: Vec<CondvarDecl>,
    /// Semaphore declarations.
    pub sems: Vec<SemDecl>,
    /// Barrier declarations.
    pub barriers: Vec<BarrierDecl>,
    /// Thread templates (bodies).
    pub templates: Vec<Template>,
    /// Template executed by the initial thread.
    pub main: TemplateId,
}

impl Program {
    /// Total number of global memory cells (arrays flattened).
    pub fn global_cells(&self) -> usize {
        self.globals.iter().map(|g| g.len as usize).sum()
    }

    /// Offset of the first cell of `var` in the flattened global store.
    pub fn global_offset(&self, var: VarId) -> usize {
        self.globals[..var.index()]
            .iter()
            .map(|g| g.len as usize)
            .sum()
    }

    /// Total number of mutex instances (arrays flattened).
    pub fn mutex_instances(&self) -> usize {
        self.mutexes.iter().map(|m| m.len as usize).sum()
    }

    /// Offset of the first instance of `id` in the flattened mutex table.
    pub fn mutex_offset(&self, id: MutexId) -> usize {
        self.mutexes[..id.index()]
            .iter()
            .map(|m| m.len as usize)
            .sum()
    }

    /// Total number of condition-variable instances.
    pub fn condvar_instances(&self) -> usize {
        self.condvars.iter().map(|c| c.len as usize).sum()
    }

    /// Offset of the first instance of `id` in the flattened condvar table.
    pub fn condvar_offset(&self, id: CondvarId) -> usize {
        self.condvars[..id.index()]
            .iter()
            .map(|c| c.len as usize)
            .sum()
    }

    /// Total number of semaphore instances.
    pub fn sem_instances(&self) -> usize {
        self.sems.iter().map(|s| s.len as usize).sum()
    }

    /// Offset of the first instance of `id` in the flattened semaphore table.
    pub fn sem_offset(&self, id: SemId) -> usize {
        self.sems[..id.index()].iter().map(|s| s.len as usize).sum()
    }

    /// Total number of barrier instances.
    pub fn barrier_instances(&self) -> usize {
        self.barriers.iter().map(|b| b.len as usize).sum()
    }

    /// Offset of the first instance of `id` in the flattened barrier table.
    pub fn barrier_offset(&self, id: BarrierId) -> usize {
        self.barriers[..id.index()]
            .iter()
            .map(|b| b.len as usize)
            .sum()
    }

    /// An upper bound on the number of threads the program can create,
    /// assuming each `Spawn` instruction executes at most `loop_bound` times.
    ///
    /// This is only a heuristic used for sizing vector clocks; the runtime
    /// grows its tables dynamically.
    pub fn spawn_sites(&self) -> usize {
        self.templates
            .iter()
            .flat_map(|t| t.body.iter())
            .filter(|i| {
                matches!(
                    i,
                    Instr::Op {
                        op: Op::Spawn { .. },
                        ..
                    }
                )
            })
            .count()
    }

    /// Structural validation: every identifier referenced by an instruction
    /// must be declared, jump targets must be in range, and initialiser
    /// lengths must match declaration lengths.
    pub fn validate(&self) -> Result<(), IrError> {
        if self.main.index() >= self.templates.len() {
            return Err(IrError::UnknownTemplate(self.main));
        }
        for (gi, g) in self.globals.iter().enumerate() {
            if g.len == 0 {
                return Err(IrError::EmptyDeclaration(format!("global `{}`", g.name)));
            }
            if g.init.len() != g.len as usize {
                return Err(IrError::InitLengthMismatch {
                    name: g.name.clone(),
                    declared: g.len as usize,
                    provided: g.init.len(),
                });
            }
            let _ = gi;
        }
        for m in &self.mutexes {
            if m.len == 0 {
                return Err(IrError::EmptyDeclaration(format!("mutex `{}`", m.name)));
            }
        }
        for b in &self.barriers {
            if b.participants == 0 {
                return Err(IrError::EmptyDeclaration(format!(
                    "barrier `{}` with zero participants",
                    b.name
                )));
            }
        }
        for (ti, t) in self.templates.iter().enumerate() {
            for (pc, instr) in t.body.iter().enumerate() {
                self.validate_instr(TemplateId(ti as u32), pc, instr, t)?;
            }
        }
        Ok(())
    }

    fn validate_instr(
        &self,
        template: TemplateId,
        pc: usize,
        instr: &Instr,
        t: &Template,
    ) -> Result<(), IrError> {
        let check_local = |l: LocalId| -> Result<(), IrError> {
            if l.index() >= t.locals as usize {
                Err(IrError::UnknownLocal {
                    template,
                    pc,
                    local: l,
                })
            } else {
                Ok(())
            }
        };
        let check_target = |target: usize| -> Result<(), IrError> {
            if target > t.body.len() {
                Err(IrError::JumpOutOfRange {
                    template,
                    pc,
                    target,
                    len: t.body.len(),
                })
            } else {
                Ok(())
            }
        };
        match instr {
            Instr::Goto { target } => check_target(*target)?,
            Instr::Branch { target, .. } => check_target(*target)?,
            Instr::Halt => {}
            Instr::Op { op, .. } => match op {
                Op::Load { var, dst, .. } => {
                    self.check_var(template, pc, var.var)?;
                    check_local(*dst)?;
                }
                Op::Store { var, .. } => self.check_var(template, pc, var.var)?,
                Op::Rmw { var, dst_old, .. } => {
                    self.check_var(template, pc, var.var)?;
                    if let Some(d) = dst_old {
                        check_local(*d)?;
                    }
                }
                Op::Cas {
                    var,
                    dst_success,
                    dst_old,
                    ..
                } => {
                    self.check_var(template, pc, var.var)?;
                    if let Some(d) = dst_success {
                        check_local(*d)?;
                    }
                    if let Some(d) = dst_old {
                        check_local(*d)?;
                    }
                }
                Op::Lock { mutex } | Op::Unlock { mutex } | Op::MutexDestroy { mutex } => {
                    self.check_mutex(template, pc, mutex.base)?
                }
                Op::Wait { condvar, mutex } => {
                    self.check_condvar(template, pc, condvar.base)?;
                    self.check_mutex(template, pc, mutex.base)?;
                }
                Op::Signal { condvar } | Op::Broadcast { condvar } => {
                    self.check_condvar(template, pc, condvar.base)?
                }
                Op::SemWait { sem } | Op::SemPost { sem } => {
                    self.check_sem(template, pc, sem.base)?
                }
                Op::BarrierWait { barrier } => self.check_barrier(template, pc, barrier.base)?,
                Op::Spawn {
                    template: spawned,
                    dst,
                } => {
                    if spawned.index() >= self.templates.len() {
                        return Err(IrError::UnknownTemplate(*spawned));
                    }
                    if let Some(d) = dst {
                        check_local(*d)?;
                    }
                }
                Op::Join { .. } | Op::Yield | Op::Assert { .. } | Op::Fail { .. } => {}
                Op::Assign { dst, .. } => check_local(*dst)?,
            },
        }
        Ok(())
    }

    fn check_var(&self, template: TemplateId, pc: usize, var: VarId) -> Result<(), IrError> {
        if var.index() >= self.globals.len() {
            Err(IrError::UnknownGlobal { template, pc, var })
        } else {
            Ok(())
        }
    }

    fn check_mutex(&self, template: TemplateId, pc: usize, id: MutexId) -> Result<(), IrError> {
        if id.index() >= self.mutexes.len() {
            Err(IrError::UnknownObject {
                template,
                pc,
                kind: "mutex",
                index: id.index(),
            })
        } else {
            Ok(())
        }
    }

    fn check_condvar(&self, template: TemplateId, pc: usize, id: CondvarId) -> Result<(), IrError> {
        if id.index() >= self.condvars.len() {
            Err(IrError::UnknownObject {
                template,
                pc,
                kind: "condvar",
                index: id.index(),
            })
        } else {
            Ok(())
        }
    }

    fn check_sem(&self, template: TemplateId, pc: usize, id: SemId) -> Result<(), IrError> {
        if id.index() >= self.sems.len() {
            Err(IrError::UnknownObject {
                template,
                pc,
                kind: "semaphore",
                index: id.index(),
            })
        } else {
            Ok(())
        }
    }

    fn check_barrier(&self, template: TemplateId, pc: usize, id: BarrierId) -> Result<(), IrError> {
        if id.index() >= self.barriers.len() {
            Err(IrError::UnknownObject {
                template,
                pc,
                kind: "barrier",
                index: id.index(),
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;

    #[test]
    fn id_display_uses_prefixes() {
        assert_eq!(VarId(3).to_string(), "g3");
        assert_eq!(LocalId(0).to_string(), "l0");
        assert_eq!(MutexId(1).to_string(), "m1");
        assert_eq!(TemplateId(2).to_string(), "T2");
        assert_eq!(BarrierId(7).to_string(), "bar7");
    }

    #[test]
    fn global_offsets_flatten_arrays() {
        let mut p = ProgramBuilder::new("offsets");
        let a = p.global("a", 0);
        let b = p.global_array("b", vec![1, 2, 3]);
        let c = p.global("c", 9);
        p.main(|_| {});
        let prog = p.build().unwrap();
        assert_eq!(prog.global_cells(), 5);
        assert_eq!(prog.global_offset(a), 0);
        assert_eq!(prog.global_offset(b), 1);
        assert_eq!(prog.global_offset(c), 4);
    }

    #[test]
    fn sync_object_offsets_flatten_arrays() {
        let mut p = ProgramBuilder::new("sync-offsets");
        let m0 = p.mutex("m0");
        let forks = p.mutex_array("forks", 5);
        let cv = p.condvar("cv");
        let s = p.sem("s", 2);
        let bar = p.barrier("bar", 3);
        p.main(|_| {});
        let prog = p.build().unwrap();
        assert_eq!(prog.mutex_instances(), 6);
        assert_eq!(prog.mutex_offset(m0), 0);
        assert_eq!(prog.mutex_offset(forks), 1);
        assert_eq!(prog.condvar_offset(cv), 0);
        assert_eq!(prog.sem_offset(s), 0);
        assert_eq!(prog.barrier_offset(bar), 0);
        assert_eq!(prog.barrier_instances(), 1);
        assert_eq!(prog.sem_instances(), 1);
        assert_eq!(prog.condvar_instances(), 1);
    }

    #[test]
    fn validate_accepts_builder_output() {
        let mut p = ProgramBuilder::new("ok");
        let x = p.global("x", 0);
        let t = p.thread("t", |b| {
            b.store(x, 1);
        });
        p.main(|b| {
            let h = b.local("h");
            b.spawn_into(t, h);
            b.join(h);
        });
        let prog = p.build().unwrap();
        assert!(prog.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_init_length() {
        let mut p = ProgramBuilder::new("bad");
        p.main(|_| {});
        let mut prog = p.build().unwrap();
        prog.globals.push(GlobalDecl {
            name: "broken".into(),
            len: 2,
            init: vec![0],
        });
        assert!(matches!(
            prog.validate(),
            Err(IrError::InitLengthMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_unknown_template_main() {
        let mut p = ProgramBuilder::new("bad-main");
        p.main(|_| {});
        let mut prog = p.build().unwrap();
        prog.main = TemplateId(42);
        assert!(matches!(prog.validate(), Err(IrError::UnknownTemplate(_))));
    }

    #[test]
    fn spawn_sites_counts_spawn_instructions() {
        let mut p = ProgramBuilder::new("spawns");
        let t = p.thread("t", |_| {});
        p.main(|b| {
            b.spawn(t);
            b.spawn(t);
        });
        let prog = p.build().unwrap();
        assert_eq!(prog.spawn_sites(), 2);
    }
}
