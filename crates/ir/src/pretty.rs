//! Human-readable rendering of programs, used by example binaries and
//! debugging output in the harness.

use crate::expr::Expr;
use crate::instr::{Instr, Op, VarRef};
use crate::program::Program;
use std::fmt::Write as _;

/// Render a whole program as indented text, one instruction per line.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", program.name);
    for g in &program.globals {
        let _ = writeln!(out, "  global {} x{} = {:?}", g.name, g.len, g.init);
    }
    for m in &program.mutexes {
        let _ = writeln!(out, "  mutex {} x{}", m.name, m.len);
    }
    for c in &program.condvars {
        let _ = writeln!(out, "  condvar {} x{}", c.name, c.len);
    }
    for s in &program.sems {
        let _ = writeln!(out, "  sem {} x{} = {}", s.name, s.len, s.init);
    }
    for b in &program.barriers {
        let _ = writeln!(
            out,
            "  barrier {} ({} participants)",
            b.name, b.participants
        );
    }
    for (ti, t) in program.templates.iter().enumerate() {
        let main_marker = if ti == program.main.index() {
            " (main)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  thread {}{} [{} locals]",
            t.name, main_marker, t.locals
        );
        for (pc, instr) in t.body.iter().enumerate() {
            let _ = writeln!(out, "    {pc:>3}: {}", instr_to_string(program, instr));
        }
    }
    out
}

fn var_ref_to_string(program: &Program, var: &VarRef) -> String {
    let name = &program.globals[var.var.index()].name;
    match &var.index {
        Some(idx) => format!("{name}[{idx}]"),
        None => name.clone(),
    }
}

/// Render a single instruction.
pub fn instr_to_string(program: &Program, instr: &Instr) -> String {
    match instr {
        Instr::Goto { target } => format!("goto {target}"),
        Instr::Branch { cond, target } => format!("if !({cond}) goto {target}"),
        Instr::Halt => "halt".to_string(),
        Instr::Op { op } => op_to_string(program, op),
    }
}

/// Render a single operation.
pub fn op_to_string(program: &Program, op: &Op) -> String {
    let obj_name = |idx: usize, names: &[String], index: &Option<Expr>| -> String {
        let name = names.get(idx).cloned().unwrap_or_else(|| format!("#{idx}"));
        match index {
            Some(e) => format!("{name}[{e}]"),
            None => name,
        }
    };
    let mutex_names: Vec<String> = program.mutexes.iter().map(|m| m.name.clone()).collect();
    let condvar_names: Vec<String> = program.condvars.iter().map(|c| c.name.clone()).collect();
    let sem_names: Vec<String> = program.sems.iter().map(|s| s.name.clone()).collect();
    let barrier_names: Vec<String> = program.barriers.iter().map(|b| b.name.clone()).collect();
    match op {
        Op::Load { var, dst, atomic } => format!(
            "{dst} = {}load {}",
            if *atomic { "atomic " } else { "" },
            var_ref_to_string(program, var)
        ),
        Op::Store { var, value, atomic } => format!(
            "{}store {} = {value}",
            if *atomic { "atomic " } else { "" },
            var_ref_to_string(program, var)
        ),
        Op::Rmw {
            var,
            op,
            operand,
            dst_old,
        } => format!(
            "{}rmw({op:?}) {} {operand}",
            dst_old.map(|d| format!("{d} = ")).unwrap_or_default(),
            var_ref_to_string(program, var)
        ),
        Op::Cas {
            var,
            expected,
            new,
            dst_success,
            dst_old,
        } => format!(
            "{}cas {} {expected} -> {new}{}",
            dst_success.map(|d| format!("{d} = ")).unwrap_or_default(),
            var_ref_to_string(program, var),
            dst_old
                .map(|d| format!(" (old -> {d})"))
                .unwrap_or_default()
        ),
        Op::Lock { mutex } => format!(
            "lock {}",
            obj_name(mutex.base.index(), &mutex_names, &mutex.index)
        ),
        Op::Unlock { mutex } => format!(
            "unlock {}",
            obj_name(mutex.base.index(), &mutex_names, &mutex.index)
        ),
        Op::MutexDestroy { mutex } => format!(
            "destroy {}",
            obj_name(mutex.base.index(), &mutex_names, &mutex.index)
        ),
        Op::Wait { condvar, mutex } => format!(
            "wait {} / {}",
            obj_name(condvar.base.index(), &condvar_names, &condvar.index),
            obj_name(mutex.base.index(), &mutex_names, &mutex.index)
        ),
        Op::Signal { condvar } => format!(
            "signal {}",
            obj_name(condvar.base.index(), &condvar_names, &condvar.index)
        ),
        Op::Broadcast { condvar } => format!(
            "broadcast {}",
            obj_name(condvar.base.index(), &condvar_names, &condvar.index)
        ),
        Op::SemWait { sem } => format!(
            "sem_wait {}",
            obj_name(sem.base.index(), &sem_names, &sem.index)
        ),
        Op::SemPost { sem } => format!(
            "sem_post {}",
            obj_name(sem.base.index(), &sem_names, &sem.index)
        ),
        Op::BarrierWait { barrier } => format!(
            "barrier_wait {}",
            obj_name(barrier.base.index(), &barrier_names, &barrier.index)
        ),
        Op::Spawn { template, dst } => format!(
            "{}spawn {}",
            dst.map(|d| format!("{d} = ")).unwrap_or_default(),
            program
                .templates
                .get(template.index())
                .map(|t| t.name.clone())
                .unwrap_or_else(|| template.to_string())
        ),
        Op::Join { thread } => format!("join {thread}"),
        Op::Yield => "yield".to_string(),
        Op::Assign { dst, value } => format!("{dst} = {value}"),
        Op::Assert { cond, msg } => format!("assert {cond} \"{msg}\""),
        Op::Fail { msg } => format!("fail \"{msg}\""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::expr::eq;

    #[test]
    fn pretty_prints_every_declared_entity() {
        let mut p = ProgramBuilder::new("pretty");
        let x = p.global("x", 0);
        let m = p.mutex("m");
        let cv = p.condvar("cv");
        let s = p.sem("slots", 2);
        let bar = p.barrier("bar", 2);
        let worker = p.thread("worker", |b| {
            b.lock(m);
            b.store(x, 1);
            b.wait(cv, m);
            b.unlock(m);
            b.sem_wait(s);
            b.barrier_wait(bar);
        });
        p.main(|b| {
            let r = b.local("r");
            b.spawn(worker);
            b.load(x, r);
            b.assert_cond(eq(r, 1), "x is one");
        });
        let prog = p.build().unwrap();
        let text = program_to_string(&prog);
        for needle in [
            "program pretty",
            "global x",
            "mutex m",
            "condvar cv",
            "sem slots",
            "barrier bar",
            "thread worker",
            "thread main (main)",
            "lock m",
            "wait cv / m",
            "sem_wait slots",
            "barrier_wait bar",
            "spawn worker",
            "assert",
            "halt",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn cas_renders_every_destination_variant() {
        // Regression test: `cas_full`'s old-value destination used to be
        // silently dropped from the rendering, so two different instructions
        // printed identically.
        let mut p = ProgramBuilder::new("cas");
        let x = p.global("x", 0);
        p.main(|b| {
            let ok = b.local("ok");
            let old = b.local("old");
            b.cas(x, 0, 1, ok);
            b.cas_full(x, 1, 2, Some(ok), Some(old));
            b.cas_full(x, 2, 3, None, Some(old));
            b.cas_full(x, 3, 4, None, None);
        });
        let prog = p.build().unwrap();
        let text = program_to_string(&prog);
        assert!(text.contains("l0 = cas x 0 -> 1\n"), "{text}");
        assert!(text.contains("l0 = cas x 1 -> 2 (old -> l1)"), "{text}");
        assert!(text.contains(": cas x 2 -> 3 (old -> l1)"), "{text}");
        assert!(text.contains(": cas x 3 -> 4\n"), "{text}");
    }
}
