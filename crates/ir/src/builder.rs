//! Builder DSL for constructing programs.
//!
//! [`ProgramBuilder`] declares shared state and thread templates;
//! [`BodyBuilder`] emits a thread body as flat [`Instr`]s. The DSL is the
//! surface most of `sctbench` is written against, so it favours terseness:
//! most methods accept `impl Into<Expr>` / `impl Into<VarRef>` so literals,
//! locals and indexed references can be passed directly.

use crate::error::IrError;
use crate::expr::Expr;
use crate::instr::{BarrierRef, CondvarRef, Instr, MutexRef, Op, RmwOp, SemRef, VarRef};
use crate::program::{
    BarrierDecl, BarrierId, CondvarDecl, CondvarId, GlobalDecl, LocalId, MutexDecl, MutexId,
    Program, SemDecl, SemId, Template, TemplateId, VarId,
};

impl VarId {
    /// Reference cell `index` of this (array) global.
    pub fn at(self, index: impl Into<Expr>) -> VarRef {
        VarRef::indexed(self, index)
    }
}

impl MutexId {
    /// Reference instance `index` of this (array) mutex declaration.
    pub fn at(self, index: impl Into<Expr>) -> MutexRef {
        MutexRef::indexed(self, index)
    }
}

impl CondvarId {
    /// Reference instance `index` of this (array) condvar declaration.
    pub fn at(self, index: impl Into<Expr>) -> CondvarRef {
        CondvarRef::indexed(self, index)
    }
}

impl SemId {
    /// Reference instance `index` of this (array) semaphore declaration.
    pub fn at(self, index: impl Into<Expr>) -> SemRef {
        SemRef::indexed(self, index)
    }
}

impl BarrierId {
    /// Reference instance `index` of this (array) barrier declaration.
    pub fn at(self, index: impl Into<Expr>) -> BarrierRef {
        BarrierRef::indexed(self, index)
    }
}

/// Builds a [`Program`]: declares globals, synchronisation objects and thread
/// templates.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    globals: Vec<GlobalDecl>,
    mutexes: Vec<MutexDecl>,
    condvars: Vec<CondvarDecl>,
    sems: Vec<SemDecl>,
    barriers: Vec<BarrierDecl>,
    templates: Vec<Template>,
    main: Option<TemplateId>,
}

impl ProgramBuilder {
    /// Start building a program with the given benchmark name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declare a scalar shared variable with an initial value.
    pub fn global(&mut self, name: impl Into<String>, init: i64) -> VarId {
        let id = VarId(self.globals.len() as u32);
        self.globals.push(GlobalDecl {
            name: name.into(),
            len: 1,
            init: vec![init],
        });
        id
    }

    /// Declare a shared array initialised with the given values.
    pub fn global_array(&mut self, name: impl Into<String>, init: Vec<i64>) -> VarId {
        let id = VarId(self.globals.len() as u32);
        self.globals.push(GlobalDecl {
            name: name.into(),
            len: init.len() as u32,
            init,
        });
        id
    }

    /// Declare a shared array of `len` zero-initialised cells.
    pub fn global_array_zeroed(&mut self, name: impl Into<String>, len: usize) -> VarId {
        self.global_array(name, vec![0; len])
    }

    /// Declare a single mutex.
    pub fn mutex(&mut self, name: impl Into<String>) -> MutexId {
        self.mutex_array(name, 1)
    }

    /// Declare an array of `len` mutexes.
    pub fn mutex_array(&mut self, name: impl Into<String>, len: u32) -> MutexId {
        let id = MutexId(self.mutexes.len() as u32);
        self.mutexes.push(MutexDecl {
            name: name.into(),
            len,
        });
        id
    }

    /// Declare a single condition variable.
    pub fn condvar(&mut self, name: impl Into<String>) -> CondvarId {
        self.condvar_array(name, 1)
    }

    /// Declare an array of `len` condition variables.
    pub fn condvar_array(&mut self, name: impl Into<String>, len: u32) -> CondvarId {
        let id = CondvarId(self.condvars.len() as u32);
        self.condvars.push(CondvarDecl {
            name: name.into(),
            len,
        });
        id
    }

    /// Declare a single counting semaphore with an initial count.
    pub fn sem(&mut self, name: impl Into<String>, init: i64) -> SemId {
        self.sem_array(name, 1, init)
    }

    /// Declare an array of `len` semaphores, each with initial count `init`.
    pub fn sem_array(&mut self, name: impl Into<String>, len: u32, init: i64) -> SemId {
        let id = SemId(self.sems.len() as u32);
        self.sems.push(SemDecl {
            name: name.into(),
            len,
            init,
        });
        id
    }

    /// Declare a barrier for `participants` threads.
    pub fn barrier(&mut self, name: impl Into<String>, participants: u32) -> BarrierId {
        let id = BarrierId(self.barriers.len() as u32);
        self.barriers.push(BarrierDecl {
            name: name.into(),
            len: 1,
            participants,
        });
        id
    }

    /// Define a thread template; the closure receives a [`BodyBuilder`].
    pub fn thread(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut BodyBuilder),
    ) -> TemplateId {
        let id = TemplateId(self.templates.len() as u32);
        let mut b = BodyBuilder::default();
        f(&mut b);
        b.body.push(Instr::Halt);
        self.templates.push(Template {
            name: name.into(),
            locals: b.next_local,
            body: b.body,
        });
        id
    }

    /// Define the main thread (the single thread that exists when execution
    /// starts). Must be called exactly once before [`Self::build`].
    pub fn main(&mut self, f: impl FnOnce(&mut BodyBuilder)) -> TemplateId {
        let id = self.thread("main", f);
        self.main = Some(id);
        id
    }

    /// Produce the validated [`Program`].
    pub fn build(self) -> Result<Program, IrError> {
        let main = self.main.ok_or(IrError::MissingMain)?;
        let program = Program {
            name: self.name,
            globals: self.globals,
            mutexes: self.mutexes,
            condvars: self.condvars,
            sems: self.sems,
            barriers: self.barriers,
            templates: self.templates,
            main,
        };
        program.validate()?;
        Ok(program)
    }
}

/// Builds the body of a single thread template: every method appends the
/// flat instructions the runtime interprets.
#[derive(Debug, Default)]
pub struct BodyBuilder {
    body: Vec<Instr>,
    next_local: u32,
}

impl BodyBuilder {
    fn op(&mut self, op: Op) {
        self.body.push(Instr::Op { op });
    }

    /// Append `instr` and return its index, for a later [`Self::jump_here`].
    fn emit(&mut self, instr: Instr) -> usize {
        self.body.push(instr);
        self.body.len() - 1
    }

    /// Point the forward jump at `at` to the next instruction to be emitted.
    fn jump_here(&mut self, at: usize) {
        let here = self.body.len();
        match &mut self.body[at] {
            Instr::Goto { target } | Instr::Branch { target, .. } => *target = here,
            _ => unreachable!("jump target patched on a non-jump instruction"),
        }
    }

    /// Declare a fresh local slot (initialised to zero). The name is only for
    /// readability at the call site.
    pub fn local(&mut self, _name: &str) -> LocalId {
        let id = LocalId(self.next_local);
        self.next_local += 1;
        id
    }

    /// Declare a local slot and immediately assign a constant to it.
    pub fn local_init(&mut self, name: &str, value: impl Into<Expr>) -> LocalId {
        let id = self.local(name);
        self.assign(id, value);
        id
    }

    // ----- shared memory -----

    /// Non-atomic load of a shared cell into a local.
    pub fn load(&mut self, var: impl Into<VarRef>, dst: LocalId) {
        self.op(Op::Load {
            var: var.into(),
            dst,
            atomic: false,
        });
    }

    /// Non-atomic store of an expression to a shared cell.
    pub fn store(&mut self, var: impl Into<VarRef>, value: impl Into<Expr>) {
        self.op(Op::Store {
            var: var.into(),
            value: value.into(),
            atomic: false,
        });
    }

    /// Atomic (synchronising) load.
    pub fn atomic_load(&mut self, var: impl Into<VarRef>, dst: LocalId) {
        self.op(Op::Load {
            var: var.into(),
            dst,
            atomic: true,
        });
    }

    /// Atomic (synchronising) store.
    pub fn atomic_store(&mut self, var: impl Into<VarRef>, value: impl Into<Expr>) {
        self.op(Op::Store {
            var: var.into(),
            value: value.into(),
            atomic: true,
        });
    }

    /// Atomic fetch-and-add, discarding the old value.
    pub fn fetch_add(&mut self, var: impl Into<VarRef>, operand: impl Into<Expr>) {
        self.rmw(var, RmwOp::Add, operand, None);
    }

    /// Atomic fetch-and-add, storing the old value into `dst_old`.
    pub fn fetch_add_into(
        &mut self,
        var: impl Into<VarRef>,
        operand: impl Into<Expr>,
        dst_old: LocalId,
    ) {
        self.rmw(var, RmwOp::Add, operand, Some(dst_old));
    }

    /// Atomic read-modify-write with an arbitrary operator.
    pub fn rmw(
        &mut self,
        var: impl Into<VarRef>,
        op: RmwOp,
        operand: impl Into<Expr>,
        dst_old: Option<LocalId>,
    ) {
        self.op(Op::Rmw {
            var: var.into(),
            op,
            operand: operand.into(),
            dst_old,
        });
    }

    /// Atomic exchange, storing the old value into `dst_old`.
    pub fn exchange(&mut self, var: impl Into<VarRef>, value: impl Into<Expr>, dst_old: LocalId) {
        self.rmw(var, RmwOp::Exchange, value, Some(dst_old));
    }

    /// Atomic compare-and-swap: 1 is written to `success` if the swap happened.
    pub fn cas(
        &mut self,
        var: impl Into<VarRef>,
        expected: impl Into<Expr>,
        new: impl Into<Expr>,
        success: LocalId,
    ) {
        self.cas_full(var, expected, new, Some(success), None);
    }

    /// Atomic compare-and-swap capturing both the success flag and the old value.
    pub fn cas_full(
        &mut self,
        var: impl Into<VarRef>,
        expected: impl Into<Expr>,
        new: impl Into<Expr>,
        success: Option<LocalId>,
        old: Option<LocalId>,
    ) {
        self.op(Op::Cas {
            var: var.into(),
            expected: expected.into(),
            new: new.into(),
            dst_success: success,
            dst_old: old,
        });
    }

    // ----- synchronisation -----

    /// Acquire a mutex.
    pub fn lock(&mut self, mutex: impl Into<MutexRef>) {
        self.op(Op::Lock {
            mutex: mutex.into(),
        });
    }

    /// Release a mutex. Releasing a mutex the thread does not hold is a bug
    /// reported by the runtime (this is how several RADBench models crash).
    pub fn unlock(&mut self, mutex: impl Into<MutexRef>) {
        self.op(Op::Unlock {
            mutex: mutex.into(),
        });
    }

    /// Destroy a mutex; later operations on it are bugs.
    pub fn mutex_destroy(&mut self, mutex: impl Into<MutexRef>) {
        self.op(Op::MutexDestroy {
            mutex: mutex.into(),
        });
    }

    /// Condition wait (`pthread_cond_wait` semantics): atomically release
    /// `mutex` and block on `condvar`, re-acquiring `mutex` before returning.
    pub fn wait(&mut self, condvar: impl Into<CondvarRef>, mutex: impl Into<MutexRef>) {
        self.op(Op::Wait {
            condvar: condvar.into(),
            mutex: mutex.into(),
        });
    }

    /// Wake one waiter on a condition variable.
    pub fn signal(&mut self, condvar: impl Into<CondvarRef>) {
        self.op(Op::Signal {
            condvar: condvar.into(),
        });
    }

    /// Wake all waiters on a condition variable.
    pub fn broadcast(&mut self, condvar: impl Into<CondvarRef>) {
        self.op(Op::Broadcast {
            condvar: condvar.into(),
        });
    }

    /// Semaphore down (blocks while the count is zero).
    pub fn sem_wait(&mut self, sem: impl Into<SemRef>) {
        self.op(Op::SemWait { sem: sem.into() });
    }

    /// Semaphore up.
    pub fn sem_post(&mut self, sem: impl Into<SemRef>) {
        self.op(Op::SemPost { sem: sem.into() });
    }

    /// Wait at a barrier until its `participants` threads have arrived.
    pub fn barrier_wait(&mut self, barrier: impl Into<BarrierRef>) {
        self.op(Op::BarrierWait {
            barrier: barrier.into(),
        });
    }

    /// Spawn a thread from a template, discarding its id.
    pub fn spawn(&mut self, template: TemplateId) {
        self.op(Op::Spawn {
            template,
            dst: None,
        });
    }

    /// Spawn a thread from a template, storing the new thread id in `dst`.
    pub fn spawn_into(&mut self, template: TemplateId, dst: LocalId) {
        self.op(Op::Spawn {
            template,
            dst: Some(dst),
        });
    }

    /// Join the thread whose id is the value of `thread`.
    pub fn join(&mut self, thread: impl Into<Expr>) {
        self.op(Op::Join {
            thread: thread.into(),
        });
    }

    /// Visible no-op scheduling point (models `sched_yield`).
    pub fn yield_(&mut self) {
        self.op(Op::Yield);
    }

    // ----- local computation, assertions -----

    /// Assign an expression to a local slot.
    pub fn assign(&mut self, dst: LocalId, value: impl Into<Expr>) {
        self.op(Op::Assign {
            dst,
            value: value.into(),
        });
    }

    /// Assert a condition over locals.
    pub fn assert_cond(&mut self, cond: impl Into<Expr>, msg: impl Into<String>) {
        self.op(Op::Assert {
            cond: cond.into(),
            msg: msg.into(),
        });
    }

    /// Unconditional failure; reaching this point is a bug (models crashes
    /// such as out-of-bounds accesses or double frees).
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.op(Op::Fail { msg: msg.into() });
    }

    // ----- control flow -----
    //
    // A conditional is a `Branch` that jumps past its block when the
    // condition is zero; its target is patched once the block is emitted.

    /// `if cond { ... }`
    pub fn if_(&mut self, cond: impl Into<Expr>, then_f: impl FnOnce(&mut BodyBuilder)) {
        let branch = self.emit(Instr::Branch {
            cond: cond.into(),
            target: usize::MAX,
        });
        then_f(self);
        self.jump_here(branch);
    }

    /// `if cond { ... } else { ... }`: the then-block ends in a `Goto` over
    /// the else-block. An empty else-block emits no `Goto`, as in [`Self::if_`].
    pub fn if_else(
        &mut self,
        cond: impl Into<Expr>,
        then_f: impl FnOnce(&mut BodyBuilder),
        else_f: impl FnOnce(&mut BodyBuilder),
    ) {
        let branch = self.emit(Instr::Branch {
            cond: cond.into(),
            target: usize::MAX,
        });
        then_f(self);
        let goto = self.emit(Instr::Goto { target: usize::MAX });
        self.jump_here(branch);
        else_f(self);
        if self.body.len() == goto + 1 {
            self.body.pop();
            self.jump_here(branch);
        } else {
            self.jump_here(goto);
        }
    }

    /// `while cond { ... }`: the body ends in a `Goto` back to the `Branch`.
    pub fn while_(&mut self, cond: impl Into<Expr>, body_f: impl FnOnce(&mut BodyBuilder)) {
        let head = self.emit(Instr::Branch {
            cond: cond.into(),
            target: usize::MAX,
        });
        body_f(self);
        self.emit(Instr::Goto { target: head });
        self.jump_here(head);
    }

    /// Counted loop: declares a fresh counter local iterating `from..to`
    /// (exclusive upper bound) and passes it to the body closure.
    pub fn for_range(
        &mut self,
        name: &str,
        from: impl Into<Expr>,
        to: impl Into<Expr>,
        body_f: impl FnOnce(&mut BodyBuilder, LocalId),
    ) {
        let counter = self.local(name);
        self.assign(counter, from);
        self.while_(crate::expr::lt(counter, to), |b| {
            body_f(b, counter);
            b.assign(counter, crate::expr::add(counter, 1));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{eq, lt};

    /// The body of a program whose only template is `main`.
    fn main_body(f: impl FnOnce(&mut BodyBuilder)) -> Vec<Instr> {
        let mut p = ProgramBuilder::new("body");
        p.main(f);
        p.build().unwrap().templates.remove(0).body
    }

    #[test]
    fn straight_line_code_appends_halt() {
        let body = main_body(|b| {
            let v = b.local("v");
            b.assign(v, 1);
            b.yield_();
        });
        assert_eq!(body.len(), 3);
        assert!(matches!(body[2], Instr::Halt));
    }

    #[test]
    fn if_without_else_branches_past_then() {
        let body = main_body(|b| {
            let c = b.local("c");
            let v = b.local("v");
            b.if_(c, |b| b.assign(v, 5));
        });
        // branch, assign, halt
        assert_eq!(body.len(), 3);
        match &body[0] {
            Instr::Branch { target, .. } => assert_eq!(*target, 2),
            other => panic!("expected branch, got {other:?}"),
        }
        // An empty else-block emits the same body: no `Goto` over nothing.
        let empty_else = main_body(|b| {
            let c = b.local("c");
            let v = b.local("v");
            b.if_else(c, |b| b.assign(v, 5), |_| {});
        });
        assert_eq!(empty_else, body);
    }

    #[test]
    fn if_with_else_skips_over_else_on_then_path() {
        let body = main_body(|b| {
            let c = b.local("c");
            let v = b.local("v");
            b.if_else(c, |b| b.assign(v, 1), |b| b.assign(v, 2));
        });
        // 0: branch(!cond -> 3), 1: assign then, 2: goto 4, 3: assign else, 4: halt
        assert_eq!(body.len(), 5);
        match &body[0] {
            Instr::Branch { target, .. } => assert_eq!(*target, 3),
            other => panic!("expected branch, got {other:?}"),
        }
        match &body[2] {
            Instr::Goto { target } => assert_eq!(*target, 4),
            other => panic!("expected goto, got {other:?}"),
        }
    }

    #[test]
    fn while_loops_back_to_condition() {
        let body = main_body(|b| {
            let i = b.local("i");
            b.while_(lt(i, 3), |b| b.assign(i, 1));
        });
        // 0: branch(!cond -> 3), 1: assign, 2: goto 0, 3: halt
        assert_eq!(body.len(), 4);
        match &body[0] {
            Instr::Branch { target, .. } => assert_eq!(*target, 3),
            other => panic!("expected branch, got {other:?}"),
        }
        match &body[2] {
            Instr::Goto { target } => assert_eq!(*target, 0),
            other => panic!("expected goto, got {other:?}"),
        }
    }

    #[test]
    fn nested_control_flow_emits_consistently() {
        let mut p = ProgramBuilder::new("nested");
        let x = p.global("x", 0);
        p.main(|b| {
            let i = b.local("i");
            let c = b.local("c");
            let v = b.local("v");
            b.while_(lt(i, 2), |b| {
                b.if_else(c, |b| b.assign(v, 1), |b| b.assign(v, 2));
                b.assign(i, 1);
            });
            b.store(x, 7);
        });
        let body = p.build().unwrap().templates.remove(0).body;
        // Every Goto/Branch target must be within bounds.
        for i in &body {
            match i {
                Instr::Goto { target } | Instr::Branch { target, .. } => {
                    assert!(*target < body.len());
                }
                _ => {}
            }
        }
        // Emitting memory ops preserves operands.
        match body[body.len() - 2].op().unwrap() {
            Op::Store { value, .. } => assert_eq!(value, &Expr::Const(7)),
            other => panic!("expected store, got {other:?}"),
        }
    }

    #[test]
    fn build_requires_main() {
        let p = ProgramBuilder::new("no-main");
        assert!(matches!(p.build(), Err(IrError::MissingMain)));
    }

    #[test]
    fn locals_are_counted_across_nested_blocks() {
        let mut p = ProgramBuilder::new("locals");
        p.main(|b| {
            let a = b.local("a");
            b.if_(eq(a, 0), |b| {
                let c = b.local("c");
                b.assign(c, 1);
            });
            let d = b.local("d");
            b.assign(d, 2);
        });
        let prog = p.build().unwrap();
        assert_eq!(prog.templates[0].locals, 3);
    }

    #[test]
    fn for_range_compiles_to_a_bounded_loop() {
        let mut p = ProgramBuilder::new("loop");
        let x = p.global("x", 0);
        p.main(|b| {
            b.for_range("i", 0, 3, |b, _i| {
                b.store(x, 1);
            });
        });
        let prog = p.build().unwrap();
        let body = &prog.templates[0].body;
        // assign, branch, store, assign(incr), goto, halt
        assert_eq!(body.len(), 6);
        assert!(matches!(body[1], Instr::Branch { .. }));
        assert!(matches!(body[4], Instr::Goto { .. }));
    }

    #[test]
    fn dsl_helpers_produce_expected_ops() {
        let mut p = ProgramBuilder::new("ops");
        let x = p.global("x", 0);
        let arr = p.global_array("arr", vec![0, 0, 0]);
        let m = p.mutex("m");
        let cv = p.condvar("cv");
        let s = p.sem("s", 1);
        let bar = p.barrier("bar", 2);
        let t = p.thread("worker", |b| {
            b.barrier_wait(bar);
            b.sem_wait(s);
            b.sem_post(s);
        });
        p.main(|b| {
            let r = b.local("r");
            let h = b.local("h");
            b.lock(m);
            b.load(x, r);
            b.store(arr.at(1), 7);
            b.atomic_store(x, 1);
            b.fetch_add_into(x, 1, r);
            b.cas(x, 2, 3, r);
            b.wait(cv, m);
            b.signal(cv);
            b.broadcast(cv);
            b.unlock(m);
            b.spawn_into(t, h);
            b.join(h);
            b.yield_();
            b.assert_cond(lt(r, 100), "r < 100");
        });
        let prog = p.build().unwrap();
        assert!(prog.validate().is_ok());
        let main = &prog.templates[prog.main.index()];
        let mnemonics: Vec<&str> = main
            .body
            .iter()
            .filter_map(|i| i.op().map(Op::mnemonic))
            .collect();
        assert_eq!(
            mnemonics,
            vec![
                "lock",
                "load",
                "store",
                "store",
                "rmw",
                "cas",
                "wait",
                "signal",
                "broadcast",
                "unlock",
                "spawn",
                "join",
                "yield",
                "assert"
            ]
        );
    }

    #[test]
    fn indexed_references_carry_expressions() {
        let mut p = ProgramBuilder::new("indexed");
        let forks = p.mutex_array("forks", 5);
        p.main(|b| {
            let i = b.local("i");
            b.lock(forks.at(i));
            b.unlock(forks.at(i));
        });
        let prog = p.build().unwrap();
        let main = &prog.templates[prog.main.index()];
        match main.body[0].op().unwrap() {
            Op::Lock { mutex } => assert!(mutex.index.is_some()),
            other => panic!("expected lock, got {other:?}"),
        }
    }

    #[test]
    fn local_init_assigns_before_use() {
        let mut p = ProgramBuilder::new("local-init");
        p.main(|b| {
            let v = b.local_init("v", 41);
            b.assert_cond(eq(v, 41), "init");
        });
        let prog = p.build().unwrap();
        assert_eq!(prog.templates[0].locals, 1);
        assert!(matches!(
            prog.templates[0].body[0].op().unwrap(),
            Op::Assign { .. }
        ));
    }
}
