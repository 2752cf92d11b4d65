//! Static control-independence opportunity report.
//!
//! [`CfgReport::build`] summarizes one program's CFG for the `tp cfgstats`
//! bench tool: how many branches have a static re-convergent point, how
//! far away it is, how big the control-dependent region in between is,
//! and how deeply nested the loops are. This is the *static ceiling* on
//! what the simulator's CGCI/FGCI heuristics can exploit dynamically.

use tp_isa::{Pc, Program};

use crate::analysis::CfgAnalysis;
use crate::lint::{lint, LintFinding};

/// Static classification of one conditional branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchKind {
    /// Backward branch whose re-convergent point is its not-taken
    /// successor — the MLB heuristic's single-exit-loop shape.
    SingleExitLoop,
    /// Backward branch with a later (or no) re-convergent point.
    MultiExitLoop,
    /// Forward branch with an intra-function re-convergent point — a
    /// hammock the FGCI/CGCI machinery can in principle bridge.
    ForwardHammock,
    /// Branch that re-converges only at the function exit (both arms
    /// return or halt) — the RET heuristic's territory.
    FunctionExit,
}

impl BranchKind {
    /// All kinds, in reporting order.
    pub const ALL: [BranchKind; 4] = [
        BranchKind::SingleExitLoop,
        BranchKind::MultiExitLoop,
        BranchKind::ForwardHammock,
        BranchKind::FunctionExit,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BranchKind::SingleExitLoop => "single-exit-loop",
            BranchKind::MultiExitLoop => "multi-exit-loop",
            BranchKind::ForwardHammock => "forward-hammock",
            BranchKind::FunctionExit => "function-exit",
        }
    }
}

/// One conditional branch's static re-convergence facts.
#[derive(Clone, Debug)]
pub struct BranchReport {
    /// The branch PC.
    pub pc: Pc,
    /// Static classification.
    pub kind: BranchKind,
    /// The immediate post-dominator, when intra-function.
    pub reconv: Option<Pc>,
    /// Signed PC distance to the re-convergent point.
    pub distance: Option<i64>,
    /// Instructions strictly between the branch and its re-convergent
    /// point.
    pub region_size: Option<usize>,
    /// Natural-loop nesting depth at the branch.
    pub loop_depth: u32,
}

/// The full static report for one program.
#[derive(Clone, Debug)]
pub struct CfgReport {
    /// Program name.
    pub name: String,
    /// Instruction count.
    pub insts: usize,
    /// Function entries (program entry plus call targets).
    pub functions: usize,
    /// Interprocedurally reachable instructions.
    pub reachable_insts: usize,
    /// Natural loops (distinct headers).
    pub loops: usize,
    /// Deepest loop nesting.
    pub max_loop_depth: u32,
    /// Indirect-transfer sites.
    pub indirect_sites: usize,
    /// Sites whose jump table the resolver recovered exactly.
    pub resolved_indirect_sites: usize,
    /// Every conditional branch.
    pub branches: Vec<BranchReport>,
    /// Lint findings (empty for clean workloads).
    pub lint: Vec<LintFinding>,
}

impl CfgReport {
    /// Builds the report (and runs the lint pass) for `program`.
    pub fn build(program: &Program, analysis: &CfgAnalysis) -> CfgReport {
        let mut branches = Vec::new();
        for (pc, inst) in program.insts().iter().enumerate() {
            if !inst.is_cond_branch() {
                continue;
            }
            let pc = pc as Pc;
            let reconv = analysis.reconv_point(pc);
            let backward = inst.is_backward_branch(pc);
            let kind = match (backward, reconv) {
                (true, Some(r)) if r == pc + 1 => BranchKind::SingleExitLoop,
                (true, _) => BranchKind::MultiExitLoop,
                (false, Some(_)) => BranchKind::ForwardHammock,
                (false, None) => BranchKind::FunctionExit,
            };
            branches.push(BranchReport {
                pc,
                kind,
                reconv,
                distance: reconv.map(|r| i64::from(r) - i64::from(pc)),
                region_size: analysis.region_size(pc),
                loop_depth: analysis.loop_depth(pc),
            });
        }
        let n = program.len();
        CfgReport {
            name: program.name().to_string(),
            insts: n,
            functions: analysis.function_entries().len(),
            reachable_insts: (0..n as Pc).filter(|&pc| analysis.is_reachable(pc)).count(),
            loops: analysis.loop_headers().len(),
            max_loop_depth: (0..n as Pc).map(|pc| analysis.loop_depth(pc)).max().unwrap_or(0),
            indirect_sites: analysis.indirect_sites().count(),
            resolved_indirect_sites: analysis.indirect_sites().filter(|&(_, r)| r).count(),
            branches,
            lint: lint(program, analysis),
        }
    }

    /// Branch count for one kind.
    pub fn count(&self, kind: BranchKind) -> usize {
        self.branches.iter().filter(|b| b.kind == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tp_isa::asm::Asm;
    use tp_isa::{Cond, Reg};

    #[test]
    fn report_classifies_branch_shapes() {
        let mut a = Asm::new("t");
        let r = Reg::new(1);
        // A forward hammock...
        a.branch(Cond::Eq, r, Reg::ZERO, "join"); // pc 0
        a.addi(r, r, 1);
        a.label("join");
        // ...then a single-exit loop.
        a.label("top");
        a.addi(r, r, -1);
        a.branch(Cond::Gt, r, Reg::ZERO, "top"); // pc 3
        a.halt();
        let p = a.assemble().unwrap();
        let report = CfgReport::build(&p, &CfgAnalysis::build(&p));
        assert_eq!(report.insts, 5);
        assert_eq!(report.count(BranchKind::ForwardHammock), 1);
        assert_eq!(report.count(BranchKind::SingleExitLoop), 1);
        assert_eq!(report.loops, 1);
        assert_eq!(report.max_loop_depth, 1);
        assert!(report.lint.is_empty());
        let hammock = &report.branches[0];
        assert_eq!(hammock.reconv, Some(2));
        assert_eq!(hammock.distance, Some(2));
        assert_eq!(hammock.region_size, Some(1));
    }
}
