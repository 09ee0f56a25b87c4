//! Per-template control-flow graphs over the flat [`Instr`] stream.
//!
//! The builder emits structured control flow as `Goto`/`Branch`
//! instructions whose targets are instruction indices, so a CFG is recovered
//! by splitting the body at branch targets and post-branch positions. The
//! graph answers the reachability queries the dataflow passes and the
//! may-happen-in-parallel model need:
//!
//! * [`Cfg::is_reachable`] — is a pc reachable from the template entry?
//! * [`Cfg::reaches`] — can control flow from one pc to another (zero or
//!   more steps)?
//! * [`Cfg::may_reach_after`] — can control *continue past* a pc and later
//!   arrive at another (one or more steps)? Used to decide whether a spawn
//!   site can still run code afterwards, and whether a spawn sits on a loop.

use sct_ir::Instr;

/// A maximal straight-line run of instructions: `start..end`, with edges out
/// of the last instruction to the `succs` blocks.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// First instruction index in the block.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor block indices (empty for exit blocks).
    pub succs: Vec<usize>,
}

/// Control-flow graph of one template body.
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    /// Block index of each instruction.
    block_of: Vec<usize>,
    /// `reach[b]` holds every block reachable from `b` via one or more edges.
    reach: Vec<Vec<bool>>,
    /// Instruction-level successors (targets past the end of the body, i.e.
    /// thread exit, are omitted).
    succ: Vec<Vec<usize>>,
    /// Reachable from the template entry.
    reachable: Vec<bool>,
}

fn instr_succs(body: &[Instr], pc: usize) -> Vec<usize> {
    let len = body.len();
    let mut out = Vec::new();
    match &body[pc] {
        Instr::Op { .. } => {
            if pc + 1 < len {
                out.push(pc + 1);
            }
        }
        Instr::Goto { target } => {
            if *target < len {
                out.push(*target);
            }
        }
        Instr::Branch { target, .. } => {
            if pc + 1 < len {
                out.push(pc + 1);
            }
            if *target < len && !out.contains(target) {
                out.push(*target);
            }
        }
        Instr::Halt => {}
    }
    out
}

impl Cfg {
    /// Build the CFG of one template body.
    pub fn build(body: &[Instr]) -> Cfg {
        let len = body.len();
        let succ: Vec<Vec<usize>> = (0..len).map(|pc| instr_succs(body, pc)).collect();

        // Leaders: entry, every branch target, and every instruction after a
        // control transfer.
        let mut leader = vec![false; len];
        if len > 0 {
            leader[0] = true;
        }
        for pc in 0..len {
            match &body[pc] {
                Instr::Goto { target } | Instr::Branch { target, .. } => {
                    if *target < len {
                        leader[*target] = true;
                    }
                    if pc + 1 < len {
                        leader[pc + 1] = true;
                    }
                }
                Instr::Halt => {
                    if pc + 1 < len {
                        leader[pc + 1] = true;
                    }
                }
                Instr::Op { .. } => {}
            }
        }

        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of = vec![0usize; len];
        for pc in 0..len {
            if leader[pc] {
                blocks.push(BasicBlock {
                    start: pc,
                    end: pc + 1,
                    succs: Vec::new(),
                });
            } else {
                blocks.last_mut().expect("entry is a leader").end = pc + 1;
            }
            block_of[pc] = blocks.len() - 1;
        }
        for block in &mut blocks {
            let last = block.end - 1;
            // Every instruction-level successor of a block terminator is a
            // leader, so the mapping to block indices is exact.
            block.succs = succ[last].iter().map(|&t| block_of[t]).collect();
            block.succs.dedup();
        }

        // Transitive closure over >= 1 block edge, one DFS per block.
        let nb = blocks.len();
        let mut reach = vec![vec![false; nb]; nb];
        for (b, row) in reach.iter_mut().enumerate() {
            let mut stack: Vec<usize> = blocks[b].succs.clone();
            while let Some(c) = stack.pop() {
                if !row[c] {
                    row[c] = true;
                    stack.extend(blocks[c].succs.iter().copied());
                }
            }
        }

        // A block is entered at its start, so every pc of a block reachable
        // from the entry block (or in it) is reachable.
        let mut reachable = vec![false; len];
        if len > 0 {
            for pc in 0..len {
                let b = block_of[pc];
                reachable[pc] = b == 0 || reach[0][b];
            }
        }

        Cfg {
            blocks,
            block_of,
            reach,
            succ,
            reachable,
        }
    }

    /// The basic blocks, in instruction order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// Instruction-level successors of `pc` (exits omitted).
    pub fn succs(&self, pc: usize) -> &[usize] {
        &self.succ[pc]
    }

    /// Whether `pc` is reachable from the template entry.
    pub fn is_reachable(&self, pc: usize) -> bool {
        self.reachable.get(pc).copied().unwrap_or(false)
    }

    /// Whether control at `from` can reach `to` in zero or more steps.
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        let (fb, tb) = (self.block_of[from], self.block_of[to]);
        (fb == tb && to >= from) || self.reach[fb][tb]
    }

    /// Whether control can *continue past* `from` (take one of its
    /// successors) and then reach `to`. `may_reach_after(pc, pc)` is true
    /// exactly when `pc` sits on a cycle.
    pub fn may_reach_after(&self, from: usize, to: usize) -> bool {
        self.succ[from].iter().any(|&s| self.reaches(s, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_ir::Expr;

    fn goto(target: usize) -> Instr {
        Instr::Goto { target }
    }

    fn branch(target: usize) -> Instr {
        Instr::Branch {
            cond: Expr::Const(1),
            target,
        }
    }

    fn yield_op() -> Instr {
        Instr::Op {
            op: sct_ir::Op::Yield,
        }
    }

    #[test]
    fn straight_line_is_one_block() {
        let body = vec![yield_op(), yield_op(), Instr::Halt];
        let cfg = Cfg::build(&body);
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.reaches(0, 2));
        assert!(!cfg.reaches(2, 0));
        assert!(cfg.is_reachable(2));
        assert!(!cfg.may_reach_after(2, 2));
    }

    #[test]
    fn branch_splits_blocks_and_loops_are_cycles() {
        // 0: branch -> 3
        // 1: yield
        // 2: goto 0
        // 3: halt
        let body = vec![branch(3), yield_op(), goto(0), Instr::Halt];
        let cfg = Cfg::build(&body);
        assert!(cfg.reaches(0, 3));
        assert!(cfg.reaches(1, 0), "loop back-edge");
        assert!(cfg.may_reach_after(0, 0), "pc 0 sits on a cycle");
        assert!(!cfg.may_reach_after(3, 3));
        assert!(cfg.is_reachable(1));
    }

    #[test]
    fn code_after_unconditional_transfer_is_unreachable() {
        // 0: goto 2
        // 1: yield   <- dead
        // 2: halt
        let body = vec![goto(2), yield_op(), Instr::Halt];
        let cfg = Cfg::build(&body);
        assert!(cfg.is_reachable(0));
        assert!(!cfg.is_reachable(1));
        assert!(cfg.is_reachable(2));
    }

    #[test]
    fn empty_body() {
        let cfg = Cfg::build(&[]);
        assert!(cfg.blocks().is_empty());
        assert!(!cfg.is_reachable(0));
    }
}
