//! The execution engine: a deterministic interpreter of `sct-ir` programs in
//! which every scheduling decision is delegated to a caller-supplied
//! function.

use crate::bug::Bug;
use crate::config::ExecConfig;
use crate::objects::{BarrierState, CondvarState, MutexState, SemState};
use crate::observer::{ExecObserver, SyncObjectId};
use crate::outcome::{ExecutionOutcome, StepRecord};
use crate::point::{PendingOp, SchedulingPoint};
use crate::thread::{ThreadId, ThreadState, ThreadStatus};
use sct_ir::{
    BarrierRef, CondvarRef, Expr, Instr, Loc, MutexRef, Op, Program, RmwOp, SemRef, VarRef,
};
use std::borrow::Cow;

/// A single controlled execution of a program.
///
/// The expected call pattern is [`Execution::new`] followed by
/// [`Execution::run`]. `run` allocates nothing per step while every
/// enabled thread id is below 64, the inline capacity of a step record's
/// [`crate::ThreadSet`]: instructions are executed in place, borrowed from
/// the program, and every scheduling point is refilled into one
/// [`SchedulingPoint`] buffer owned by the execution. Each thread's
/// enabledness condition (its gate) and pending-operation summary are cached
/// and recomputed only where that thread's own state changes, so refilling a
/// point checks each cached gate against the live synchronisation objects
/// instead of re-deriving it from the thread's instruction and locals.
/// [`Execution::start`], [`Execution::scheduling_point`] and
/// [`Execution::step`] expose the same steps one at a time (the point is then
/// a fresh copy built by the code `run` uses), for tests and tools that
/// inspect the state between steps.
///
/// Explorers that run many schedules of the same program should construct the
/// execution **once** (with [`Execution::new_shared`], which borrows the
/// configuration instead of cloning it) and call [`Execution::reset`] between
/// schedules: the rewind reuses every internal allocation, including the
/// per-thread state of previously spawned threads and the point buffer,
/// instead of rebuilding a dozen `Vec`s per schedule.
pub struct Execution<'p> {
    program: &'p Program,
    config: Cow<'p, ExecConfig>,

    globals: Vec<i64>,
    global_base: Vec<usize>,
    global_len: Vec<u32>,

    mutexes: Vec<MutexState>,
    mutex_base: Vec<usize>,
    mutex_len: Vec<u32>,

    condvars: Vec<CondvarState>,
    condvar_base: Vec<usize>,
    condvar_len: Vec<u32>,

    sems: Vec<SemState>,
    sem_base: Vec<usize>,
    sem_len: Vec<u32>,

    barriers: Vec<BarrierState>,
    barrier_base: Vec<usize>,
    barrier_len: Vec<u32>,

    threads: Vec<ThreadState>,
    /// Per-thread cache, indexed like `threads`: the thread's [`Gate`] and
    /// the summary of its pending operation. Both depend on the thread's own
    /// state only, so they are recomputed ([`Execution::refresh`]) exactly
    /// where that state changes, and building a scheduling point only checks
    /// each gate against the live synchronisation objects.
    gates: Vec<(Gate, PendingOp)>,
    /// Thread states recycled by [`Execution::reset`]; `Spawn` pops from here
    /// before allocating, so repeated schedules of the same program reuse the
    /// per-thread `locals` buffers.
    thread_pool: Vec<ThreadState>,

    /// The point handed to the scheduler by [`Execution::run`], refilled in
    /// place at every step.
    point: SchedulingPoint,

    last: Option<ThreadId>,
    steps: Vec<StepRecord>,
    bug: Option<Bug>,
    diverged: bool,
    max_enabled: usize,
    scheduling_points: usize,
    started: bool,
}

impl<'p> Execution<'p> {
    /// Set up a fresh execution of `program`, taking ownership of `config`.
    pub fn new(program: &'p Program, config: ExecConfig) -> Self {
        Execution::with_config(program, Cow::Owned(config))
    }

    /// Set up a fresh execution of `program` borrowing `config`, so explorers
    /// that run many schedules never clone the (potentially large) racy-set
    /// configuration.
    pub fn new_shared(program: &'p Program, config: &'p ExecConfig) -> Self {
        Execution::with_config(program, Cow::Borrowed(config))
    }

    fn with_config(program: &'p Program, config: Cow<'p, ExecConfig>) -> Self {
        let global_base: Vec<usize> = program
            .globals
            .iter()
            .scan(0usize, |acc, g| {
                let base = *acc;
                *acc += g.len as usize;
                Some(base)
            })
            .collect();
        let global_len: Vec<u32> = program.globals.iter().map(|g| g.len).collect();
        let globals: Vec<i64> = program
            .globals
            .iter()
            .flat_map(|g| g.init.clone())
            .collect();

        let mutex_base: Vec<usize> = scan_offsets(program.mutexes.iter().map(|m| m.len));
        let mutex_len: Vec<u32> = program.mutexes.iter().map(|m| m.len).collect();
        let mutexes = vec![MutexState::default(); program.mutex_instances()];

        let condvar_base: Vec<usize> = scan_offsets(program.condvars.iter().map(|c| c.len));
        let condvar_len: Vec<u32> = program.condvars.iter().map(|c| c.len).collect();
        let condvars = vec![CondvarState::default(); program.condvar_instances()];

        let sem_base: Vec<usize> = scan_offsets(program.sems.iter().map(|s| s.len));
        let sem_len: Vec<u32> = program.sems.iter().map(|s| s.len).collect();
        let sems: Vec<SemState> = program
            .sems
            .iter()
            .flat_map(|s| std::iter::repeat_n(SemState { count: s.init }, s.len as usize))
            .collect();

        let barrier_base: Vec<usize> = scan_offsets(program.barriers.iter().map(|b| b.len));
        let barrier_len: Vec<u32> = program.barriers.iter().map(|b| b.len).collect();
        let barriers: Vec<BarrierState> = program
            .barriers
            .iter()
            .flat_map(|b| {
                std::iter::repeat_n(
                    BarrierState {
                        participants: b.participants,
                        ..Default::default()
                    },
                    b.len as usize,
                )
            })
            .collect();

        let main_template = &program.templates[program.main.index()];
        let threads = vec![ThreadState::new(program.main, main_template.locals, None)];

        let mut exec = Execution {
            program,
            config,
            globals,
            global_base,
            global_len,
            mutexes,
            mutex_base,
            mutex_len,
            condvars,
            condvar_base,
            condvar_len,
            sems,
            sem_base,
            sem_len,
            barriers,
            barrier_base,
            barrier_len,
            threads,
            gates: Vec::with_capacity(1),
            thread_pool: Vec::new(),
            point: SchedulingPoint::default(),
            last: None,
            steps: Vec::new(),
            bug: None,
            diverged: false,
            max_enabled: 0,
            scheduling_points: 0,
            started: false,
        };
        exec.gates.push(exec.entry_of(ThreadId(0)));
        exec
    }

    /// Rewind to the initial state of the program without releasing any of
    /// the buffers built up so far: globals, synchronisation objects, thread
    /// states (spawned threads are parked in a pool for reuse) and the step
    /// record are all rewritten in place. After `reset`, running the same
    /// schedule produces bit-identical [`StepRecord`]s and fingerprints to a
    /// freshly constructed execution.
    pub fn reset(&mut self) {
        self.globals.clear();
        self.globals.extend(
            self.program
                .globals
                .iter()
                .flat_map(|g| g.init.iter().copied()),
        );

        for m in &mut self.mutexes {
            m.owner = None;
            m.destroyed = false;
        }
        for cv in &mut self.condvars {
            cv.waiters.clear();
        }
        let mut sem = 0usize;
        for s in &self.program.sems {
            for _ in 0..s.len {
                self.sems[sem].count = s.init;
                sem += 1;
            }
        }
        let mut bar = 0usize;
        for b in &self.program.barriers {
            for _ in 0..b.len {
                let state = &mut self.barriers[bar];
                state.waiting.clear();
                state.participants = b.participants;
                state.generation = 0;
                bar += 1;
            }
        }

        // Park spawned threads (locals buffers included) for reuse and rewind
        // the initial thread.
        self.thread_pool.extend(self.threads.drain(1..));
        let main_template = &self.program.templates[self.program.main.index()];
        self.threads[0].reinit(self.program.main, main_template.locals, None);
        self.gates.truncate(1);
        self.gates[0] = self.entry_of(ThreadId(0));

        self.last = None;
        self.steps.clear();
        self.bug = None;
        self.diverged = false;
        self.max_enabled = 0;
        self.scheduling_points = 0;
        self.started = false;
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        self.program
    }

    /// Number of threads created so far (including the initial thread).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The bug found so far, if any.
    pub fn bug(&self) -> Option<&Bug> {
        self.bug.as_ref()
    }

    /// Current value of a flattened global cell (test/diagnostic helper).
    pub fn global_cell(&self, addr: usize) -> i64 {
        self.globals[addr]
    }

    // ----- enabledness -----

    fn thread_enabled(&self, tid: ThreadId) -> bool {
        self.gate_open(self.gates[tid.index()].0)
    }

    /// Whether `gate` lets its thread run in the current state: the only
    /// place enabledness reads other threads or synchronisation objects.
    fn gate_open(&self, gate: Gate) -> bool {
        match gate {
            Gate::Open => true,
            Gate::Closed => false,
            Gate::MutexFree(m) => self.mutexes[m].is_free(),
            Gate::SemPositive(s) => self.sems[s].count > 0,
            Gate::Joined(t) => self
                .threads
                .get(t)
                .is_none_or(|target| target.status.is_finished()),
        }
    }

    /// What `tid`'s enabledness depends on, derived from its own state.
    fn gate_of(&self, tid: ThreadId) -> Gate {
        let t = &self.threads[tid.index()];
        let op = match t.status {
            ThreadStatus::Finished
            | ThreadStatus::WaitingCondvar { .. }
            | ThreadStatus::WaitingBarrier { .. } => return Gate::Closed,
            ThreadStatus::Reacquiring { mutex } => return Gate::MutexFree(mutex),
            ThreadStatus::Runnable => match self.pending_instr(tid) {
                Some(Instr::Op { op }) => op,
                // A runnable thread is always parked at a visible operation
                // (or at its first instruction before the execution starts).
                _ => return Gate::Open,
            },
        };
        // Resolution errors surface as bugs when the op executes.
        match op {
            Op::Lock { mutex } => self
                .resolve_mutex(tid, mutex)
                .map_or(Gate::Open, Gate::MutexFree),
            Op::SemWait { sem } => self
                .resolve_sem(tid, sem)
                .map_or(Gate::Open, Gate::SemPositive),
            // A negative target is open: executing reports InvalidJoin.
            Op::Join { thread } => {
                usize::try_from(thread.eval(&t.locals)).map_or(Gate::Open, Gate::Joined)
            }
            _ => Gate::Open,
        }
    }

    /// `tid`'s cache entry, evaluated from scratch.
    fn entry_of(&self, tid: ThreadId) -> (Gate, PendingOp) {
        (self.gate_of(tid), self.pending_summary(tid))
    }

    /// Re-evaluate `tid`'s cache entry after its own state changed.
    fn refresh(&mut self, tid: ThreadId) {
        self.gates[tid.index()] = self.entry_of(tid);
    }

    /// Debug cross-check: every cached gate and pending summary equals a
    /// from-scratch evaluation of the current state.
    #[cfg(any(test, debug_assertions))]
    fn assert_gates_fresh(&self) {
        assert_eq!(
            self.gates.len(),
            self.threads.len(),
            "incremental enabled set drifted: gate table length"
        );
        for (t, &entry) in self.gates.iter().enumerate() {
            assert_eq!(
                entry,
                self.entry_of(ThreadId(t)),
                "incremental enabled set drifted: t{t} before step {}",
                self.steps.len()
            );
        }
    }

    /// The instruction `tid` is parked at, borrowed from the program rather
    /// than from `self`, so the interpreter can execute it while mutating its
    /// own state.
    fn pending_instr(&self, tid: ThreadId) -> Option<&'p Instr> {
        let program: &'p Program = self.program;
        let t = &self.threads[tid.index()];
        program.templates[t.template.index()].body.get(t.pc)
    }

    /// Threads currently enabled, in thread-id order.
    pub fn enabled_threads(&self) -> Vec<ThreadId> {
        let mut point = SchedulingPoint::default();
        self.fill_point(&mut point);
        point.enabled
    }

    /// True when every thread has finished.
    pub fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status.is_finished())
    }

    /// True once the execution can make no further progress (terminal state,
    /// bug found, or divergence).
    pub fn is_terminal(&self) -> bool {
        self.bug.is_some() || !self.gates.iter().any(|&(gate, _)| self.gate_open(gate))
    }

    // ----- scheduling point construction -----

    fn pending_summary(&self, tid: ThreadId) -> PendingOp {
        let t = &self.threads[tid.index()];
        let loc = Loc {
            template: t.template,
            pc: t.pc.min(u32::MAX as usize) as u32,
        };
        let (addr, is_write) = match t.status {
            ThreadStatus::Runnable => match self.pending_instr(tid) {
                Some(Instr::Op { op }) => match op {
                    Op::Load { var, .. } => (self.resolve_var(tid, var).ok(), false),
                    Op::Store { var, .. } | Op::Rmw { var, .. } | Op::Cas { var, .. } => {
                        (self.resolve_var(tid, var).ok(), true)
                    }
                    _ => (None, false),
                },
                _ => (None, false),
            },
            _ => (None, false),
        };
        PendingOp {
            thread: tid,
            loc,
            addr,
            is_write,
        }
    }

    /// Build the scheduling point for the current state, with the code
    /// [`Execution::run`] uses for the point it hands to its scheduler.
    /// `enabled` must be the current enabled set (callers obtain it from
    /// [`Execution::enabled_threads`]; checked in debug builds).
    pub fn scheduling_point(&self, enabled: &[ThreadId]) -> SchedulingPoint {
        let mut point = SchedulingPoint::default();
        self.fill_point(&mut point);
        debug_assert_eq!(point.enabled, enabled, "stale enabled set");
        point
    }

    /// Rewrite `point` in place to describe the current state, reusing its
    /// vectors' capacity: the one place a scheduling point is built.
    fn fill_point(&self, point: &mut SchedulingPoint) {
        #[cfg(debug_assertions)]
        self.assert_gates_fresh();
        point.enabled.clear();
        point.pending.clear();
        for &(gate, pending) in &self.gates {
            if self.gate_open(gate) {
                point.enabled.push(pending.thread);
                point.pending.push(pending);
            }
        }
        point.last = self.last;
        point.last_enabled = self.last.is_some_and(|l| self.thread_enabled(l));
        point.num_threads = self.threads.len();
        point.step_index = self.steps.len();
    }

    // ----- resolution helpers -----

    fn loc_of(&self, tid: ThreadId) -> Loc {
        let t = &self.threads[tid.index()];
        Loc {
            template: t.template,
            pc: t.pc.min(u32::MAX as usize) as u32,
        }
    }

    fn resolve_indexed(
        &self,
        tid: ThreadId,
        base: usize,
        len: u32,
        index: &Option<Expr>,
    ) -> Result<usize, Bug> {
        let idx = match index {
            None => 0,
            Some(e) => e.eval(&self.threads[tid.index()].locals),
        };
        if idx < 0 || idx as u32 >= len {
            Err(Bug::OutOfBounds {
                thread: tid,
                loc: self.loc_of(tid),
                index: idx,
                len,
            })
        } else {
            Ok(base + idx as usize)
        }
    }

    fn resolve_var(&self, tid: ThreadId, var: &VarRef) -> Result<usize, Bug> {
        self.resolve_indexed(
            tid,
            self.global_base[var.var.index()],
            self.global_len[var.var.index()],
            &var.index,
        )
    }

    fn resolve_mutex(&self, tid: ThreadId, m: &MutexRef) -> Result<usize, Bug> {
        self.resolve_indexed(
            tid,
            self.mutex_base[m.base.index()],
            self.mutex_len[m.base.index()],
            &m.index,
        )
    }

    fn resolve_condvar(&self, tid: ThreadId, c: &CondvarRef) -> Result<usize, Bug> {
        self.resolve_indexed(
            tid,
            self.condvar_base[c.base.index()],
            self.condvar_len[c.base.index()],
            &c.index,
        )
    }

    fn resolve_sem(&self, tid: ThreadId, s: &SemRef) -> Result<usize, Bug> {
        self.resolve_indexed(
            tid,
            self.sem_base[s.base.index()],
            self.sem_len[s.base.index()],
            &s.index,
        )
    }

    fn resolve_barrier(&self, tid: ThreadId, b: &BarrierRef) -> Result<usize, Bug> {
        self.resolve_indexed(
            tid,
            self.barrier_base[b.base.index()],
            self.barrier_len[b.base.index()],
            &b.index,
        )
    }

    // ----- visibility -----

    fn op_visible(&self, op: &Op, loc: Loc) -> bool {
        if op.is_sync() || op.is_atomic_access() {
            return true;
        }
        if op.is_memory_access() {
            return self.config.visibility.data_access_visible(loc);
        }
        false
    }

    // ----- execution -----

    fn set_bug(&mut self, bug: Bug) {
        if self.bug.is_none() {
            if matches!(bug, Bug::StepLimitExceeded { .. }) {
                self.diverged = true;
            }
            self.bug = Some(bug);
        }
    }

    /// Execute invisible instructions of `tid` until it parks at a visible
    /// operation, blocks, finishes or a bug is found, then refresh its gate.
    fn advance(&mut self, tid: ThreadId, observer: &mut dyn ExecObserver) {
        let mut executed = 0usize;
        loop {
            if self.bug.is_some() {
                break;
            }
            if executed > self.config.max_invisible_ops_per_step {
                self.set_bug(Bug::StepLimitExceeded {
                    limit: self.config.max_invisible_ops_per_step,
                });
                break;
            }
            let t = &self.threads[tid.index()];
            if !matches!(t.status, ThreadStatus::Runnable) {
                break;
            }
            let template = t.template;
            let pc = t.pc;
            let Some(instr) = self.pending_instr(tid) else {
                // Running off the end of the body terminates the thread.
                self.finish_thread(tid, observer);
                break;
            };
            match instr {
                Instr::Halt => {
                    self.finish_thread(tid, observer);
                    break;
                }
                Instr::Goto { target } => {
                    self.threads[tid.index()].pc = *target;
                }
                Instr::Branch { cond, target } => {
                    let v = cond.eval(&self.threads[tid.index()].locals);
                    self.threads[tid.index()].pc = if v == 0 { *target } else { pc + 1 };
                }
                Instr::Op { op } => {
                    let loc = Loc {
                        template,
                        pc: pc as u32,
                    };
                    if self.op_visible(op, loc) {
                        break; // parked at a visible operation
                    }
                    self.execute_invisible_op(tid, op, loc, observer);
                    if self.bug.is_some() {
                        break;
                    }
                }
            }
            executed += 1;
        }
        self.refresh(tid);
    }

    fn finish_thread(&mut self, tid: ThreadId, observer: &mut dyn ExecObserver) {
        self.threads[tid.index()].status = ThreadStatus::Finished;
        observer.on_thread_finished(tid);
    }

    fn execute_invisible_op(
        &mut self,
        tid: ThreadId,
        op: &Op,
        loc: Loc,
        observer: &mut dyn ExecObserver,
    ) {
        match op {
            Op::Assign { dst, value } => {
                let v = value.eval(&self.threads[tid.index()].locals);
                self.threads[tid.index()].locals[dst.index()] = v;
                self.threads[tid.index()].pc += 1;
            }
            Op::Assert { cond, msg } => {
                let v = cond.eval(&self.threads[tid.index()].locals);
                if v == 0 {
                    self.set_bug(Bug::AssertionFailure {
                        thread: tid,
                        loc,
                        msg: msg.clone(),
                    });
                } else {
                    self.threads[tid.index()].pc += 1;
                }
            }
            Op::Fail { msg } => {
                self.set_bug(Bug::ExplicitFailure {
                    thread: tid,
                    loc,
                    msg: msg.clone(),
                });
            }
            Op::Load { var, dst, atomic } => match self.resolve_var(tid, var) {
                Ok(addr) => {
                    let v = self.globals[addr];
                    self.threads[tid.index()].locals[dst.index()] = v;
                    observer.on_access(tid, loc, addr, false, *atomic);
                    self.threads[tid.index()].pc += 1;
                }
                Err(bug) => self.set_bug(bug),
            },
            Op::Store { var, value, atomic } => match self.resolve_var(tid, var) {
                Ok(addr) => {
                    let v = value.eval(&self.threads[tid.index()].locals);
                    self.globals[addr] = v;
                    observer.on_access(tid, loc, addr, true, *atomic);
                    self.threads[tid.index()].pc += 1;
                }
                Err(bug) => self.set_bug(bug),
            },
            // Atomics and synchronisation operations are always visible and
            // never reach the invisible-execution path.
            other => unreachable!("invisible execution of visible op {:?}", other.mnemonic()),
        }
    }

    /// Execute one step of `tid`: its pending visible operation followed by
    /// the invisible operations up to the next visible one. `tid` must be
    /// enabled.
    fn execute(&mut self, tid: ThreadId, observer: &mut dyn ExecObserver) {
        debug_assert!(self.thread_enabled(tid), "step() on a disabled thread");

        // A woken condition waiter re-acquires its mutex as its visible step.
        if let ThreadStatus::Reacquiring { mutex } = self.threads[tid.index()].status {
            self.mutexes[mutex].owner = Some(tid);
            observer.on_acquire(tid, SyncObjectId::Mutex(mutex));
            self.threads[tid.index()].status = ThreadStatus::Runnable;
            self.last = Some(tid);
            self.advance(tid, observer);
            return;
        }

        let Some(instr) = self.pending_instr(tid) else {
            self.finish_thread(tid, observer);
            self.refresh(tid);
            self.last = Some(tid);
            return;
        };
        let loc = self.loc_of(tid);
        self.last = Some(tid);
        // `advance` never parks a thread at a control-flow instruction, so
        // after `start` a runnable thread is always at an `Op`.
        if let Instr::Op { op } = instr {
            self.execute_visible_op(tid, op, loc, observer);
        }
        if self.bug.is_none() {
            self.advance(tid, observer);
        } else {
            // A bug ends the step before `advance`, which refreshes `tid`'s
            // gate, after a spawn or barrier release may have moved its pc.
            self.refresh(tid);
        }
    }

    fn execute_visible_op(
        &mut self,
        tid: ThreadId,
        op: &Op,
        loc: Loc,
        observer: &mut dyn ExecObserver,
    ) {
        macro_rules! resolve {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(bug) => {
                        self.set_bug(bug);
                        return;
                    }
                }
            };
        }
        match op {
            Op::Load { var, dst, atomic } => {
                let addr = resolve!(self.resolve_var(tid, var));
                let v = self.globals[addr];
                self.threads[tid.index()].locals[dst.index()] = v;
                observer.on_access(tid, loc, addr, false, *atomic);
                if *atomic {
                    observer.on_acquire(tid, SyncObjectId::AtomicCell(addr));
                    observer.on_release(tid, SyncObjectId::AtomicCell(addr));
                }
                self.threads[tid.index()].pc += 1;
            }
            Op::Store { var, value, atomic } => {
                let addr = resolve!(self.resolve_var(tid, var));
                let v = value.eval(&self.threads[tid.index()].locals);
                self.globals[addr] = v;
                observer.on_access(tid, loc, addr, true, *atomic);
                if *atomic {
                    observer.on_acquire(tid, SyncObjectId::AtomicCell(addr));
                    observer.on_release(tid, SyncObjectId::AtomicCell(addr));
                }
                self.threads[tid.index()].pc += 1;
            }
            Op::Rmw {
                var,
                op: rmw_op,
                operand,
                dst_old,
            } => {
                let addr = resolve!(self.resolve_var(tid, var));
                let old = self.globals[addr];
                let operand = operand.eval(&self.threads[tid.index()].locals);
                let new = match rmw_op {
                    RmwOp::Add => old.wrapping_add(operand),
                    RmwOp::Sub => old.wrapping_sub(operand),
                    RmwOp::Exchange => operand,
                    RmwOp::Max => old.max(operand),
                    RmwOp::Min => old.min(operand),
                };
                self.globals[addr] = new;
                if let Some(dst) = dst_old {
                    self.threads[tid.index()].locals[dst.index()] = old;
                }
                observer.on_access(tid, loc, addr, true, true);
                observer.on_acquire(tid, SyncObjectId::AtomicCell(addr));
                observer.on_release(tid, SyncObjectId::AtomicCell(addr));
                self.threads[tid.index()].pc += 1;
            }
            Op::Cas {
                var,
                expected,
                new,
                dst_success,
                dst_old,
            } => {
                let addr = resolve!(self.resolve_var(tid, var));
                let old = self.globals[addr];
                let expected = expected.eval(&self.threads[tid.index()].locals);
                let success = old == expected;
                if success {
                    let new = new.eval(&self.threads[tid.index()].locals);
                    self.globals[addr] = new;
                }
                if let Some(dst) = dst_success {
                    self.threads[tid.index()].locals[dst.index()] = i64::from(success);
                }
                if let Some(dst) = dst_old {
                    self.threads[tid.index()].locals[dst.index()] = old;
                }
                observer.on_access(tid, loc, addr, success, true);
                observer.on_acquire(tid, SyncObjectId::AtomicCell(addr));
                observer.on_release(tid, SyncObjectId::AtomicCell(addr));
                self.threads[tid.index()].pc += 1;
            }
            Op::Lock { mutex } => {
                let m = resolve!(self.resolve_mutex(tid, mutex));
                if self.mutexes[m].destroyed {
                    self.set_bug(Bug::UseAfterDestroy { thread: tid, loc });
                    return;
                }
                debug_assert!(self.mutexes[m].is_free());
                self.mutexes[m].owner = Some(tid);
                observer.on_acquire(tid, SyncObjectId::Mutex(m));
                self.threads[tid.index()].pc += 1;
            }
            Op::Unlock { mutex } => {
                let m = resolve!(self.resolve_mutex(tid, mutex));
                if self.mutexes[m].destroyed {
                    self.set_bug(Bug::UseAfterDestroy { thread: tid, loc });
                    return;
                }
                if self.mutexes[m].owner != Some(tid) {
                    self.set_bug(Bug::UnlockNotHeld { thread: tid, loc });
                    return;
                }
                self.mutexes[m].owner = None;
                observer.on_release(tid, SyncObjectId::Mutex(m));
                self.threads[tid.index()].pc += 1;
            }
            Op::MutexDestroy { mutex } => {
                let m = resolve!(self.resolve_mutex(tid, mutex));
                if self.mutexes[m].destroyed {
                    self.set_bug(Bug::UseAfterDestroy { thread: tid, loc });
                    return;
                }
                if self.mutexes[m].owner.is_some() {
                    self.set_bug(Bug::DestroyBusy { thread: tid, loc });
                    return;
                }
                self.mutexes[m].destroyed = true;
                self.threads[tid.index()].pc += 1;
            }
            Op::Wait { condvar, mutex } => {
                let cv = resolve!(self.resolve_condvar(tid, condvar));
                let m = resolve!(self.resolve_mutex(tid, mutex));
                if self.mutexes[m].destroyed {
                    self.set_bug(Bug::UseAfterDestroy { thread: tid, loc });
                    return;
                }
                if self.mutexes[m].owner != Some(tid) {
                    self.set_bug(Bug::WaitWithoutMutex { thread: tid, loc });
                    return;
                }
                self.mutexes[m].owner = None;
                observer.on_release(tid, SyncObjectId::Mutex(m));
                self.condvars[cv].waiters.push_back(tid);
                self.threads[tid.index()].status = ThreadStatus::WaitingCondvar {
                    condvar: cv,
                    mutex: m,
                };
                self.threads[tid.index()].pc += 1;
            }
            Op::Signal { condvar } => {
                let cv = resolve!(self.resolve_condvar(tid, condvar));
                observer.on_release(tid, SyncObjectId::Condvar(cv));
                if let Some(w) = self.condvars[cv].waiters.pop_front() {
                    self.wake_condvar_waiter(w, cv, observer);
                }
                self.threads[tid.index()].pc += 1;
            }
            Op::Broadcast { condvar } => {
                let cv = resolve!(self.resolve_condvar(tid, condvar));
                observer.on_release(tid, SyncObjectId::Condvar(cv));
                while let Some(w) = self.condvars[cv].waiters.pop_front() {
                    self.wake_condvar_waiter(w, cv, observer);
                }
                self.threads[tid.index()].pc += 1;
            }
            Op::SemWait { sem } => {
                let s = resolve!(self.resolve_sem(tid, sem));
                debug_assert!(self.sems[s].count > 0);
                self.sems[s].count -= 1;
                observer.on_acquire(tid, SyncObjectId::Sem(s));
                self.threads[tid.index()].pc += 1;
            }
            Op::SemPost { sem } => {
                let s = resolve!(self.resolve_sem(tid, sem));
                self.sems[s].count += 1;
                observer.on_release(tid, SyncObjectId::Sem(s));
                self.threads[tid.index()].pc += 1;
            }
            Op::BarrierWait { barrier } => {
                let b = resolve!(self.resolve_barrier(tid, barrier));
                observer.on_release(tid, SyncObjectId::Barrier(b));
                self.threads[tid.index()].pc += 1;
                if self.barriers[b].is_last_arrival() {
                    let waiting = std::mem::take(&mut self.barriers[b].waiting);
                    self.barriers[b].generation += 1;
                    observer.on_acquire(tid, SyncObjectId::Barrier(b));
                    for w in waiting {
                        observer.on_acquire(w, SyncObjectId::Barrier(b));
                        self.threads[w.index()].status = ThreadStatus::Runnable;
                        self.advance(w, observer);
                        if self.bug.is_some() {
                            return;
                        }
                    }
                } else {
                    self.barriers[b].waiting.push(tid);
                    self.threads[tid.index()].status = ThreadStatus::WaitingBarrier { barrier: b };
                }
            }
            Op::Spawn { template, dst } => {
                let child = ThreadId(self.threads.len());
                let locals = self.program.templates[template.index()].locals;
                let state = match self.thread_pool.pop() {
                    Some(mut pooled) => {
                        pooled.reinit(*template, locals, Some(tid));
                        pooled
                    }
                    None => ThreadState::new(*template, locals, Some(tid)),
                };
                self.threads.push(state);
                self.gates.push(self.entry_of(child));
                if let Some(dst) = dst {
                    self.threads[tid.index()].locals[dst.index()] = child.index() as i64;
                }
                observer.on_thread_created(tid, child);
                self.threads[tid.index()].pc += 1;
                self.advance(child, observer);
            }
            Op::Join { thread } => {
                let target = thread.eval(&self.threads[tid.index()].locals);
                if target < 0 || target as usize >= self.threads.len() {
                    self.set_bug(Bug::InvalidJoin {
                        thread: tid,
                        loc,
                        target,
                    });
                    return;
                }
                debug_assert!(self.threads[target as usize].status.is_finished());
                observer.on_join(tid, ThreadId(target as usize));
                self.threads[tid.index()].pc += 1;
            }
            Op::Yield => {
                self.threads[tid.index()].pc += 1;
            }
            Op::Assign { .. } | Op::Assert { .. } | Op::Fail { .. } => {
                unreachable!("local-only op treated as visible")
            }
        }
    }

    fn wake_condvar_waiter(&mut self, w: ThreadId, cv: usize, observer: &mut dyn ExecObserver) {
        // The signal happens-before everything the waiter does after waking,
        // so the acquire edge can be recorded at wake-up time.
        observer.on_acquire(w, SyncObjectId::Condvar(cv));
        if let ThreadStatus::WaitingCondvar { mutex, .. } = self.threads[w.index()].status {
            self.threads[w.index()].status = ThreadStatus::Reacquiring { mutex };
            self.refresh(w);
        }
    }

    // ----- driver -----

    /// Run the initial thread's invisible prefix, up to its first visible
    /// operation: the state the first scheduling point describes. `run` and
    /// `step` call this themselves; it does nothing after the first call
    /// (until [`Execution::reset`]). Call it before building the first point
    /// with [`Execution::scheduling_point`] when driving steps by hand.
    pub fn start(&mut self, observer: &mut dyn ExecObserver) {
        if !self.started {
            self.started = true;
            self.advance(ThreadId(0), observer);
        }
    }

    /// Take one step of `tid` from the current scheduling point, exactly as
    /// [`Execution::run`] does once its scheduler has chosen `tid`: record
    /// the step, then execute `tid`'s pending visible operation followed by
    /// the invisible operations up to the next visible one. The caller must
    /// ensure `tid` is currently enabled.
    pub fn step(&mut self, tid: ThreadId, observer: &mut dyn ExecObserver) {
        self.start(observer);
        let mut point = std::mem::take(&mut self.point);
        self.fill_point(&mut point);
        self.record(&point, tid);
        self.point = point;
        self.execute(tid, observer);
    }

    /// Account for the step `choice` takes from `point`.
    fn record(&mut self, point: &SchedulingPoint, choice: ThreadId) {
        self.max_enabled = self.max_enabled.max(point.enabled.len());
        if point.has_choice() {
            self.scheduling_points += 1;
        }
        self.steps.push(StepRecord {
            thread: choice,
            enabled: crate::ThreadSet::from_slice(&point.enabled),
            last_enabled: point.last_enabled,
            last: point.last,
            num_threads: point.num_threads,
        });
    }

    /// Run the execution to a terminal state, consulting `choose` at every
    /// scheduling point.
    pub fn run(
        &mut self,
        choose: &mut dyn FnMut(&SchedulingPoint) -> ThreadId,
        observer: &mut dyn ExecObserver,
    ) -> ExecutionOutcome {
        self.start(observer);
        // Taken out of `self` for the loop so `fill_point` can borrow the
        // state while refilling it; put back (capacity intact) afterwards.
        let mut point = std::mem::take(&mut self.point);
        loop {
            if self.bug.is_some() {
                break;
            }
            if self.steps.len() >= self.config.max_steps {
                self.set_bug(Bug::StepLimitExceeded {
                    limit: self.config.max_steps,
                });
                break;
            }
            self.fill_point(&mut point);
            if point.enabled.is_empty() {
                if !self.all_finished() {
                    let blocked = (0..self.threads.len())
                        .map(ThreadId)
                        .filter(|t| !self.threads[t.index()].status.is_finished())
                        .collect();
                    self.set_bug(Bug::Deadlock { blocked });
                }
                break;
            }
            let mut choice = choose(&point);
            if !point.is_enabled(choice) {
                debug_assert!(false, "scheduler chose a disabled thread {choice}");
                choice = point.enabled[0];
            }
            self.record(&point, choice);
            self.execute(choice, observer);
        }
        self.point = point;
        self.outcome()
    }

    fn outcome(&self) -> ExecutionOutcome {
        ExecutionOutcome {
            bug: self.bug.clone(),
            steps: self.steps.clone(),
            threads_created: self.threads.len(),
            max_enabled: self.max_enabled,
            scheduling_points: self.scheduling_points,
            diverged: self.diverged,
            fingerprint: self.fingerprint(),
        }
    }

    /// Hash of the current program state, used to check replay determinism.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for &g in &self.globals {
            h.write_i64(g);
        }
        for t in &self.threads {
            h.write_u64(t.pc as u64);
            h.write_u64(match t.status {
                ThreadStatus::Runnable => 1,
                ThreadStatus::WaitingCondvar { condvar, .. } => 100 + condvar as u64,
                ThreadStatus::Reacquiring { mutex } => 200 + mutex as u64,
                ThreadStatus::WaitingBarrier { barrier } => 300 + barrier as u64,
                ThreadStatus::Finished => 2,
            });
            for &l in &t.locals {
                h.write_i64(l);
            }
        }
        for m in &self.mutexes {
            h.write_u64(m.owner.map(|t| t.index() as u64 + 1).unwrap_or(0));
            h.write_u64(u64::from(m.destroyed));
        }
        for s in &self.sems {
            h.write_i64(s.count);
        }
        h.finish()
    }
}

/// What a thread's enabledness depends on, derived from the thread's own state
/// by [`Execution::gate_of`] and checked against live object state by
/// [`Execution::gate_open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Enabled whatever other threads do, including at an operation whose
    /// operand does not resolve (executing it reports the bug).
    Open,
    /// Finished, or blocked in a condition or barrier wait: only a change to
    /// the thread's own state reopens it.
    Closed,
    /// Enabled while mutex instance `m` is free: a `Lock`, or re-acquiring
    /// after a condition wake.
    MutexFree(usize),
    /// Enabled while semaphore instance `s` has a positive count.
    SemPositive(usize),
    /// A `Join` on thread index `t`: enabled once `t` has finished, or while
    /// no thread `t` exists yet (executing then reports `InvalidJoin`).
    Joined(usize),
}

fn scan_offsets(lens: impl Iterator<Item = u32>) -> Vec<usize> {
    lens.scan(0usize, |acc, len| {
        let base = *acc;
        *acc += len as usize;
        Some(base)
    })
    .collect()
}

/// Minimal FNV-1a hasher (avoids pulling in a hashing crate and keeps
/// fingerprints stable across platforms).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExecConfig, VisibilityMode};
    use crate::observer::{CountingObserver, NoopObserver};
    use sct_ir::prelude::*;

    /// Round-robin driver used by the unit tests.
    fn run_round_robin(program: &Program, config: ExecConfig) -> ExecutionOutcome {
        let mut exec = Execution::new(program, config);
        exec.run(
            &mut |p: &SchedulingPoint| p.round_robin_choice(),
            &mut NoopObserver,
        )
    }

    fn figure1() -> Program {
        let mut p = ProgramBuilder::new("figure1");
        let x = p.global("x", 0);
        let y = p.global("y", 0);
        let z = p.global("z", 0);
        let t1 = p.thread("t1", |b| {
            b.store(x, 1);
            b.store(y, 1);
        });
        let t2 = p.thread("t2", |b| {
            b.store(z, 1);
        });
        let t3 = p.thread("t3", |b| {
            let rx = b.local("rx");
            let ry = b.local("ry");
            b.load(x, rx);
            b.load(y, ry);
            b.assert_cond(eq(rx, ry), "x == y");
        });
        p.main(|b| {
            b.spawn(t1);
            b.spawn(t2);
            b.spawn(t3);
        });
        p.build().unwrap()
    }

    #[test]
    fn figure1_round_robin_is_bug_free() {
        let prog = figure1();
        let outcome = run_round_robin(&prog, ExecConfig::all_visible());
        assert!(outcome.bug.is_none(), "unexpected bug: {:?}", outcome.bug);
        assert_eq!(outcome.threads_created, 4);
        assert!(!outcome.diverged);
        // The round-robin schedule performs no preemptions and no delays.
        assert_eq!(outcome.preemption_count(), 0);
        assert_eq!(outcome.delay_count(), 0);
    }

    #[test]
    fn figure1_buggy_schedule_found_by_forcing_t3_early() {
        let prog = figure1();
        // Schedule: run main to completion, then t1 (one store), then t3.
        // t3 reads x == 1, y == 0 and the assertion fails, as in Example 1.
        let mut exec = Execution::new(&prog, ExecConfig::all_visible());
        let mut choose = |p: &SchedulingPoint| {
            // Prefer t3 once t1 has executed exactly one visible store.
            if p.is_enabled(ThreadId(3)) && p.step_index >= 5 {
                ThreadId(3)
            } else {
                p.round_robin_choice()
            }
        };
        let outcome = exec.run(&mut choose, &mut NoopObserver);
        // Depending on where step 5 falls this may or may not trip the
        // assertion; the deterministic property we check is reproducibility.
        let mut exec2 = Execution::new(&prog, ExecConfig::all_visible());
        let schedule = outcome.schedule();
        let mut i = 0usize;
        let mut replay = |p: &SchedulingPoint| {
            let t = schedule[i.min(schedule.len() - 1)];
            i += 1;
            if p.is_enabled(t) {
                t
            } else {
                p.round_robin_choice()
            }
        };
        let outcome2 = exec2.run(&mut replay, &mut NoopObserver);
        assert_eq!(outcome.fingerprint, outcome2.fingerprint);
        assert_eq!(outcome.is_buggy(), outcome2.is_buggy());
    }

    #[test]
    fn mutex_provides_mutual_exclusion_and_counts_sync_events() {
        let mut p = ProgramBuilder::new("counter");
        let counter = p.global("counter", 0);
        let m = p.mutex("m");
        let worker = p.thread("worker", |b| {
            let r = b.local("r");
            b.lock(m);
            b.load(counter, r);
            b.assign(r, add(r, 1));
            b.store(counter, r);
            b.unlock(m);
        });
        p.main(|b| {
            let h1 = b.local("h1");
            let h2 = b.local("h2");
            b.spawn_into(worker, h1);
            b.spawn_into(worker, h2);
            b.join(h1);
            b.join(h2);
            let r = b.local("r");
            b.load(counter, r);
            b.assert_cond(eq(r, 2), "counter == 2");
        });
        let prog = p.build().unwrap();
        let mut obs = CountingObserver::default();
        let mut exec = Execution::new(&prog, ExecConfig::sync_only());
        let outcome = exec.run(&mut |p: &SchedulingPoint| p.round_robin_choice(), &mut obs);
        assert!(outcome.bug.is_none(), "{:?}", outcome.bug);
        assert_eq!(obs.threads_created, 2);
        assert_eq!(obs.threads_finished, 3);
        assert_eq!(obs.joins, 2);
        // Two lock acquisitions, two unlock releases.
        assert_eq!(obs.acquires, 2);
        assert_eq!(obs.releases, 2);
    }

    #[test]
    fn lock_order_inversion_deadlocks_under_an_adversarial_schedule() {
        let mut p = ProgramBuilder::new("deadlock");
        let a = p.mutex("a");
        let bmx = p.mutex("b");
        let t1 = p.thread("t1", |b| {
            b.lock(a);
            b.lock(bmx);
            b.unlock(bmx);
            b.unlock(a);
        });
        let t2 = p.thread("t2", |b| {
            b.lock(bmx);
            b.lock(a);
            b.unlock(a);
            b.unlock(bmx);
        });
        p.main(|b| {
            b.spawn(t1);
            b.spawn(t2);
        });
        let prog = p.build().unwrap();

        // Round robin: no deadlock (t1 runs to completion first).
        let ok = run_round_robin(&prog, ExecConfig::sync_only());
        assert!(ok.bug.is_none());

        // Alternate t1/t2 after both exist: t1 takes a, t2 takes b => deadlock.
        let mut exec = Execution::new(&prog, ExecConfig::sync_only());
        let mut choose = |p: &SchedulingPoint| {
            if p.is_enabled(ThreadId(1)) && p.is_enabled(ThreadId(2)) {
                // Alternate between the two workers.
                if p.last == Some(ThreadId(1)) {
                    ThreadId(2)
                } else {
                    ThreadId(1)
                }
            } else {
                p.round_robin_choice()
            }
        };
        let outcome = exec.run(&mut choose, &mut NoopObserver);
        assert!(
            matches!(outcome.bug, Some(Bug::Deadlock { .. })),
            "expected deadlock, got {:?}",
            outcome.bug
        );
        assert!(outcome.is_buggy());
    }

    #[test]
    fn condvar_wait_signal_round_trip() {
        let mut p = ProgramBuilder::new("condvar");
        let ready = p.global("ready", 0);
        let m = p.mutex("m");
        let cv = p.condvar("cv");
        let consumer = p.thread("consumer", |b| {
            let r = b.local("r");
            b.lock(m);
            b.load(ready, r);
            b.while_(eq(r, 0), |b| {
                b.wait(cv, m);
                b.load(ready, r);
            });
            b.unlock(m);
            b.assert_cond(eq(r, 1), "saw ready");
        });
        let producer = p.thread("producer", |b| {
            b.lock(m);
            b.store(ready, 1);
            b.signal(cv);
            b.unlock(m);
        });
        p.main(|b| {
            let h1 = b.local("h1");
            let h2 = b.local("h2");
            b.spawn_into(consumer, h1);
            b.spawn_into(producer, h2);
            b.join(h1);
            b.join(h2);
        });
        let prog = p.build().unwrap();
        // Under round-robin the consumer runs first, waits, and is then
        // signalled by the producer; the program must terminate cleanly.
        let outcome = run_round_robin(&prog, ExecConfig::sync_only());
        assert!(outcome.bug.is_none(), "{:?}", outcome.bug);
        assert!(!outcome.diverged);
    }

    #[test]
    fn lost_signal_is_a_deadlock() {
        // The classic bug: the producer signals before the consumer waits and
        // the signal is lost, so the consumer blocks forever.
        let mut p = ProgramBuilder::new("lost-signal");
        let m = p.mutex("m");
        let cv = p.condvar("cv");
        let consumer = p.thread("consumer", |b| {
            b.lock(m);
            b.wait(cv, m); // unconditional wait: loses the wake-up
            b.unlock(m);
        });
        let producer = p.thread("producer", |b| {
            b.signal(cv);
        });
        p.main(|b| {
            b.spawn(producer);
            b.spawn(consumer);
        });
        let prog = p.build().unwrap();
        let outcome = run_round_robin(&prog, ExecConfig::sync_only());
        assert!(matches!(outcome.bug, Some(Bug::Deadlock { .. })));
    }

    #[test]
    fn barrier_releases_all_participants() {
        let mut p = ProgramBuilder::new("barrier");
        let done = p.global("done", 0);
        let bar = p.barrier("bar", 3);
        let worker = p.thread("worker", |b| {
            b.barrier_wait(bar);
            b.fetch_add(done, 1);
        });
        p.main(|b| {
            let h1 = b.local("h1");
            let h2 = b.local("h2");
            b.spawn_into(worker, h1);
            b.spawn_into(worker, h2);
            b.barrier_wait(bar);
            b.join(h1);
            b.join(h2);
            let r = b.local("r");
            b.load(done, r);
            b.assert_cond(eq(r, 2), "both workers passed the barrier");
        });
        let prog = p.build().unwrap();
        let outcome = run_round_robin(&prog, ExecConfig::sync_only());
        assert!(outcome.bug.is_none(), "{:?}", outcome.bug);
    }

    #[test]
    fn semaphores_enforce_capacity() {
        let mut p = ProgramBuilder::new("sem");
        let in_critical = p.global("in_critical", 0);
        let s = p.sem("s", 1);
        let worker = p.thread("worker", |b| {
            let r = b.local("r");
            b.sem_wait(s);
            b.load(in_critical, r);
            b.assert_cond(eq(r, 0), "critical section empty");
            b.store(in_critical, 1);
            b.store(in_critical, 0);
            b.sem_post(s);
        });
        p.main(|b| {
            b.spawn(worker);
            b.spawn(worker);
        });
        let prog = p.build().unwrap();
        let outcome = run_round_robin(&prog, ExecConfig::sync_only());
        assert!(outcome.bug.is_none(), "{:?}", outcome.bug);
    }

    #[test]
    fn unlock_not_held_is_reported() {
        let mut p = ProgramBuilder::new("bad-unlock");
        let m = p.mutex("m");
        p.main(|b| {
            b.unlock(m);
        });
        let prog = p.build().unwrap();
        let outcome = run_round_robin(&prog, ExecConfig::sync_only());
        assert!(matches!(outcome.bug, Some(Bug::UnlockNotHeld { .. })));
    }

    #[test]
    fn use_after_destroy_is_reported() {
        let mut p = ProgramBuilder::new("use-after-destroy");
        let m = p.mutex("m");
        p.main(|b| {
            b.mutex_destroy(m);
            b.lock(m);
        });
        let prog = p.build().unwrap();
        let outcome = run_round_robin(&prog, ExecConfig::sync_only());
        assert!(matches!(outcome.bug, Some(Bug::UseAfterDestroy { .. })));
    }

    #[test]
    fn out_of_bounds_access_is_reported() {
        let mut p = ProgramBuilder::new("oob");
        let arr = p.global_array_zeroed("arr", 3);
        p.main(|b| {
            let i = b.local_init("i", 5);
            b.store(arr.at(i), 1);
        });
        let prog = p.build().unwrap();
        let outcome = run_round_robin(&prog, ExecConfig::all_visible());
        assert!(matches!(outcome.bug, Some(Bug::OutOfBounds { len: 3, .. })));
    }

    #[test]
    fn assertion_failure_reports_message_and_thread() {
        let mut p = ProgramBuilder::new("assert");
        p.main(|b| {
            let r = b.local_init("r", 3);
            b.assert_cond(eq(r, 4), "three is four");
        });
        let prog = p.build().unwrap();
        let outcome = run_round_robin(&prog, ExecConfig::sync_only());
        match outcome.bug {
            Some(Bug::AssertionFailure {
                thread, ref msg, ..
            }) => {
                assert_eq!(thread, ThreadId(0));
                assert_eq!(msg, "three is four");
            }
            ref other => panic!("expected assertion failure, got {other:?}"),
        }
    }

    #[test]
    fn racy_only_visibility_limits_scheduling_points() {
        // A benign racy counter: with AllSharedAccesses the data accesses are
        // scheduling points; with an empty racy set they are invisible.
        let mut p = ProgramBuilder::new("visibility");
        let x = p.global("x", 0);
        let t = p.thread("t", |b| {
            let r = b.local("r");
            b.load(x, r);
            b.store(x, add(r, 1));
        });
        p.main(|b| {
            b.spawn(t);
            b.spawn(t);
        });
        let prog = p.build().unwrap();

        let all = run_round_robin(&prog, ExecConfig::all_visible());
        let sync_only = run_round_robin(
            &prog,
            ExecConfig {
                visibility: VisibilityMode::racy([]),
                ..ExecConfig::default()
            },
        );
        assert!(all.steps.len() > sync_only.steps.len());
        assert!(all.bug.is_none());
        assert!(sync_only.bug.is_none());
    }

    #[test]
    fn step_limit_reports_divergence_not_bug() {
        let mut p = ProgramBuilder::new("spin");
        let flag = p.global("flag", 0);
        p.main(|b| {
            let r = b.local("r");
            b.load(flag, r);
            b.while_(eq(r, 0), |b| {
                b.load(flag, r);
            });
        });
        let prog = p.build().unwrap();
        let cfg = ExecConfig {
            visibility: VisibilityMode::AllSharedAccesses,
            max_steps: 50,
            ..ExecConfig::default()
        };
        let outcome = run_round_robin(&prog, cfg);
        assert!(outcome.diverged);
        assert!(!outcome.is_buggy());
    }

    #[test]
    fn reset_reproduces_a_fresh_execution_exactly() {
        // Two runs from one reused instance must equal two fresh instances:
        // same StepRecords, same fingerprints, same outcome classification.
        let prog = figure1();
        let config = ExecConfig::all_visible();

        let mut reused = Execution::new_shared(&prog, &config);
        let a1 = reused.run(
            &mut |p: &SchedulingPoint| p.round_robin_choice(),
            &mut NoopObserver,
        );
        reused.reset();
        let a2 = reused.run(
            &mut |p: &SchedulingPoint| p.round_robin_choice(),
            &mut NoopObserver,
        );

        let fresh1 = run_round_robin(&prog, ExecConfig::all_visible());
        let fresh2 = run_round_robin(&prog, ExecConfig::all_visible());

        assert_eq!(a1.steps, fresh1.steps);
        assert_eq!(a2.steps, fresh2.steps);
        assert_eq!(a1.fingerprint, fresh1.fingerprint);
        assert_eq!(a2.fingerprint, fresh2.fingerprint);
        assert_eq!(a1.threads_created, a2.threads_created);
        assert_eq!(a1.scheduling_points, a2.scheduling_points);
        assert_eq!(a1.is_buggy(), a2.is_buggy());
    }

    #[test]
    fn reset_clears_bugs_sync_state_and_step_records() {
        // Drive an execution into a deadlock, then reset and check the rewind
        // restored a clean initial state (including mutex/condvar state).
        let mut p = ProgramBuilder::new("deadlock");
        let a = p.mutex("a");
        let bmx = p.mutex("b");
        let t1 = p.thread("t1", |b| {
            b.lock(a);
            b.lock(bmx);
            b.unlock(bmx);
            b.unlock(a);
        });
        let t2 = p.thread("t2", |b| {
            b.lock(bmx);
            b.lock(a);
            b.unlock(a);
            b.unlock(bmx);
        });
        p.main(|b| {
            b.spawn(t1);
            b.spawn(t2);
        });
        let prog = p.build().unwrap();
        let config = ExecConfig::sync_only();
        let mut exec = Execution::new_shared(&prog, &config);
        let mut adversarial = |p: &SchedulingPoint| {
            if p.is_enabled(ThreadId(1)) && p.is_enabled(ThreadId(2)) {
                if p.last == Some(ThreadId(1)) {
                    ThreadId(2)
                } else {
                    ThreadId(1)
                }
            } else {
                p.round_robin_choice()
            }
        };
        let deadlocked = exec.run(&mut adversarial, &mut NoopObserver);
        assert!(matches!(deadlocked.bug, Some(Bug::Deadlock { .. })));
        assert_eq!(exec.thread_count(), 3);

        exec.reset();
        assert!(exec.bug().is_none());
        assert_eq!(exec.thread_count(), 1);
        // The benign round-robin schedule must now complete cleanly.
        let clean = exec.run(
            &mut |p: &SchedulingPoint| p.round_robin_choice(),
            &mut NoopObserver,
        );
        assert!(clean.bug.is_none(), "{:?}", clean.bug);
        let reference = run_round_robin(&prog, ExecConfig::sync_only());
        assert_eq!(clean.steps, reference.steps);
        assert_eq!(clean.fingerprint, reference.fingerprint);
    }

    #[test]
    fn reset_restores_globals_sems_and_barriers() {
        let mut p = ProgramBuilder::new("state");
        let x = p.global("x", 7);
        let s = p.sem("s", 2);
        let bar = p.barrier("bar", 2);
        let w = p.thread("w", |b| {
            b.sem_wait(s);
            b.barrier_wait(bar);
            b.store(x, 99);
        });
        p.main(|b| {
            let h = b.local("h");
            b.spawn_into(w, h);
            b.sem_wait(s);
            b.barrier_wait(bar);
            b.join(h);
        });
        let prog = p.build().unwrap();
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(&prog, &config);
        let first = exec.run(
            &mut |p: &SchedulingPoint| p.round_robin_choice(),
            &mut NoopObserver,
        );
        assert!(first.bug.is_none(), "{:?}", first.bug);
        assert_eq!(exec.global_cell(0), 99);

        exec.reset();
        assert_eq!(exec.global_cell(0), 7, "global rewound to its initialiser");
        let second = exec.run(
            &mut |p: &SchedulingPoint| p.round_robin_choice(),
            &mut NoopObserver,
        );
        assert!(second.bug.is_none(), "{:?}", second.bug);
        assert_eq!(first.fingerprint, second.fingerprint);
        assert_eq!(first.steps, second.steps);
    }

    /// A program that takes every borrowed-instruction path of the
    /// interpreter: `While` loops (branch + goto), indexed array stores and
    /// loads (main's index runs out of bounds once the filler has signalled),
    /// an assertion that fails when the waiter overtakes the filler, a
    /// condition-variable wake (the `Reacquiring` step) and a barrier release,
    /// where `advance` runs the released thread from inside
    /// `execute_visible_op`.
    fn mixed_paths() -> Program {
        let mut p = ProgramBuilder::new("mixed-paths");
        let arr = p.global_array_zeroed("arr", 3);
        let ready = p.global("ready", 0);
        let m = p.mutex("m");
        let cv = p.condvar("cv");
        let bar = p.barrier("bar", 2);
        let filler = p.thread("filler", |b| {
            let i = b.local_init("i", 0);
            b.while_(lt(i, 3), |b| {
                b.store(arr.at(i), add(i, 1));
                b.assign(i, add(i, 1));
            });
            b.barrier_wait(bar);
            b.lock(m);
            b.store(ready, 1);
            b.signal(cv);
            b.unlock(m);
        });
        let waiter = p.thread("waiter", |b| {
            let v = b.local("v");
            b.load(arr.at(0), v);
            b.assert_cond(eq(v, 1), "the filler's first store is visible");
            let r = b.local("r");
            b.lock(m);
            b.load(ready, r);
            b.while_(eq(r, 0), |b| {
                b.wait(cv, m);
                b.load(ready, r);
            });
            b.unlock(m);
        });
        p.main(|b| {
            let h1 = b.local("h1");
            let h2 = b.local("h2");
            b.spawn_into(filler, h1);
            b.spawn_into(waiter, h2);
            b.barrier_wait(bar);
            let r = b.local("r");
            let v = b.local("v");
            b.load(ready, r);
            b.load(arr.at(mul(r, 3)), v);
            b.join(h1);
            b.join(h2);
        });
        p.build().unwrap()
    }

    /// Counts condition-variable wake-ups and barrier acquisitions.
    #[derive(Default)]
    struct Wakes {
        condvar: usize,
        barrier: usize,
    }

    impl ExecObserver for Wakes {
        fn on_acquire(&mut self, _thread: ThreadId, object: SyncObjectId) {
            match object {
                SyncObjectId::Condvar(_) => self.condvar += 1,
                SyncObjectId::Barrier(_) => self.barrier += 1,
                _ => {}
            }
        }
    }

    /// Schedule `k`: round robin, two adversarial orders (highest id first;
    /// the waiter whenever it can run) and, from `k = 3`, a seeded random walk.
    fn pick(k: u64, p: &SchedulingPoint, rng: &mut u64) -> ThreadId {
        match k {
            0 => p.round_robin_choice(),
            1 => *p.enabled.last().unwrap(),
            2 if p.is_enabled(ThreadId(2)) => ThreadId(2),
            2 => p.enabled[0],
            _ => {
                *rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                p.enabled[(*rng >> 33) as usize % p.enabled.len()]
            }
        }
    }

    #[test]
    fn reset_reuse_matches_fresh_executions_on_every_interpreter_path() {
        let prog = mixed_paths();
        // With invisible data accesses the filler's stores and main's reads
        // run inside the synchronisation steps, so only the condvar and
        // barrier orders vary and every schedule is clean.
        for (config, expected) in [
            (
                ExecConfig::all_visible(),
                &["assertion", "clean", "out-of-bounds"][..],
            ),
            (ExecConfig::sync_only(), &["clean"][..]),
        ] {
            let mut reused = Execution::new_shared(&prog, &config);
            let mut outcomes = std::collections::BTreeSet::new();
            let mut wakes = Wakes::default();
            for k in 0..24u64 {
                reused.reset();
                let mut rng = k;
                let a = reused.run(&mut |p| pick(k, p, &mut rng), &mut wakes);
                let mut rng = k;
                let b = Execution::new(&prog, config.clone())
                    .run(&mut |p| pick(k, p, &mut rng), &mut NoopObserver);
                assert_eq!(a.steps, b.steps, "schedule {k}");
                assert_eq!(a.fingerprint, b.fingerprint, "schedule {k}");
                assert_eq!(a.bug, b.bug, "schedule {k}");
                outcomes.insert(match a.bug {
                    None => "clean",
                    Some(Bug::AssertionFailure { .. }) => "assertion",
                    Some(Bug::OutOfBounds { index: 3, .. }) => "out-of-bounds",
                    Some(other) => panic!("schedule {k}: unexpected {other:?}"),
                });
            }
            assert_eq!(
                outcomes.into_iter().collect::<Vec<_>>(),
                expected,
                "{:?}",
                config.visibility
            );
            assert!(wakes.condvar > 0, "no schedule woke the condvar waiter");
            assert!(wakes.barrier > 0, "no schedule released the barrier");
        }
    }

    /// A program that reaches every gate kind: two threads contending for a
    /// lock; three condition waiters woken by a `Signal` and a `Broadcast`,
    /// which then re-acquire the mutex; a semaphore wait blocked until its
    /// post; a barrier releasing its waiter; joins on a running thread, on
    /// the index of a thread main spawns last (an `InvalidJoin` when it runs
    /// first) and on a negative index (an `InvalidJoin` ending every run that
    /// gets that far); and 78 threads in all. Returns the last thread's index.
    fn every_gate() -> (Program, usize) {
        const FILLERS: usize = 64;
        const LAST: usize = 13 + FILLERS;
        let mut p = ProgramBuilder::new("every-gate");
        let ready = p.global("ready", 0);
        let count = p.global("count", 0);
        let m = p.mutex("m");
        let cv = p.condvar("cv");
        let s = p.sem("s", 0);
        let bar = p.barrier("bar", 2);
        let late_joiner = p.thread("late_joiner", |b| b.join(LAST));
        let locker = p.thread("locker", |b| {
            b.lock(m);
            b.fetch_add(count, 1);
            b.unlock(m);
        });
        let waiter = p.thread("waiter", |b| {
            let r = b.local("r");
            b.lock(m);
            b.load(ready, r);
            b.while_(eq(r, 0), |b| {
                b.wait(cv, m);
                b.load(ready, r);
            });
            b.unlock(m);
        });
        let signaller = p.thread("signaller", |b| {
            b.lock(m);
            b.store(ready, 1);
            b.signal(cv);
            b.unlock(m);
        });
        let broadcaster = p.thread("broadcaster", |b| {
            b.lock(m);
            b.store(ready, 1);
            b.broadcast(cv);
            b.unlock(m);
        });
        let sem_waiter = p.thread("sem_waiter", |b| b.sem_wait(s));
        let sem_poster = p.thread("sem_poster", |b| b.sem_post(s));
        let arriver = p.thread("arriver", |b| {
            b.barrier_wait(bar);
            b.fetch_add(count, 1);
        });
        let filler = p.thread("filler", |b| b.fetch_add(count, 1));
        let last = p.thread("last", |b| b.yield_());
        p.main(|b| {
            for t in [late_joiner, locker, locker, waiter, waiter, waiter] {
                b.spawn(t);
            }
            for t in [signaller, broadcaster, sem_waiter, sem_poster] {
                b.spawn(t);
            }
            b.spawn(arriver);
            b.spawn(arriver);
            b.for_range("i", 0, FILLERS, |b, _| b.spawn(filler));
            let h = b.local("h");
            b.spawn_into(last, h);
            b.join(h);
            b.join(1);
            b.join(-1);
        });
        (p.build().unwrap(), LAST)
    }

    #[test]
    fn cached_gates_match_a_from_scratch_evaluation_at_every_step() {
        let (prog, last) = every_gate();
        let config = ExecConfig::all_visible();
        let mut exec = Execution::new_shared(&prog, &config);
        let mut blocked = std::collections::BTreeSet::new();
        let mut woken_per_step = std::collections::BTreeSet::new();
        let mut outcomes = std::collections::BTreeSet::new();
        let mut barrier_releases = 0;
        let mut max_threads = 0;
        for k in 0..48u64 {
            exec.reset();
            let mut wakes = Wakes::default();
            let mut rng = k;
            exec.start(&mut wakes);
            while !exec.is_terminal() {
                // Checked here as well as in `fill_point`, so the test also
                // checks release builds.
                exec.assert_gates_fresh();
                for (t, &(gate, _)) in exec.gates.iter().enumerate() {
                    let reacquiring =
                        matches!(exec.threads[t].status, ThreadStatus::Reacquiring { .. });
                    blocked.insert(match gate {
                        Gate::Joined(target) if target >= exec.threads.len() => "unspawned join",
                        _ if exec.gate_open(gate) => continue,
                        Gate::MutexFree(_) if reacquiring => "reacquire",
                        Gate::MutexFree(_) => "lock",
                        Gate::SemPositive(_) => "sem",
                        Gate::Joined(_) => "join",
                        Gate::Open | Gate::Closed => continue,
                    });
                }
                let point = exec.scheduling_point(&exec.enabled_threads());
                let before = wakes.condvar;
                exec.step(pick(k, &point, &mut rng), &mut wakes);
                woken_per_step.insert((wakes.condvar - before).min(2));
            }
            exec.assert_gates_fresh();
            barrier_releases += wakes.barrier;
            max_threads = max_threads.max(exec.thread_count());
            outcomes.insert(match exec.bug() {
                Some(&Bug::InvalidJoin { target, .. }) => target,
                other => panic!("schedule {k}: unexpected {other:?}"),
            });
            // Stepping by hand matches `run` on a fresh execution.
            let mut rng = k;
            let fresh = Execution::new(&prog, config.clone())
                .run(&mut |p| pick(k, p, &mut rng), &mut NoopObserver);
            assert_eq!(exec.outcome().steps, fresh.steps, "schedule {k}");
        }
        assert_eq!(
            blocked.into_iter().collect::<Vec<_>>(),
            ["join", "lock", "reacquire", "sem", "unspawned join"]
        );
        // Some step woke no waiter, some exactly one (a signal), some more
        // than one (a broadcast).
        assert_eq!(woken_per_step.into_iter().collect::<Vec<_>>(), [0, 1, 2]);
        assert!(barrier_releases > 0, "no schedule released the barrier");
        assert_eq!(max_threads, last + 1);
        assert_eq!(
            outcomes.into_iter().collect::<Vec<_>>(),
            [-1, last as i64],
            "InvalidJoin targets"
        );
    }

    #[test]
    fn fingerprint_is_deterministic_across_identical_runs() {
        let prog = figure1();
        let a = run_round_robin(&prog, ExecConfig::all_visible());
        let b = run_round_robin(&prog, ExecConfig::all_visible());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.schedule(), b.schedule());
    }

    #[test]
    fn scheduling_point_statistics_are_recorded() {
        let prog = figure1();
        let outcome = run_round_robin(&prog, ExecConfig::all_visible());
        assert!(outcome.max_enabled >= 2);
        assert!(outcome.scheduling_points > 0);
        assert_eq!(outcome.threads_created, 4);
    }
}
