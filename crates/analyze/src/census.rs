//! Static branch census and the static/dynamic trace cross-check.
//!
//! The census is the static half of the paper's DEE-tree inputs: every
//! conditional branch with its taxonomy (loop-back vs forward), its
//! reconvergence point (from [`dee_isa::cfg::PostDoms`]), and the static
//! path length to the next branch. The cross-check turns any `DEETRC1`
//! replay into a verifier: every dynamic record must be explainable by the
//! static program — branch PCs must be census members with the recorded
//! direction possibilities, operands must match the static def/use sets,
//! and consecutive PCs must follow a static edge. A trace that drifts from
//! its program (bit rot, version skew, a buggy mutation) produces a typed
//! [`CrossCheckError`], never a panic.

use std::collections::BTreeMap;
use std::fmt;

use dee_isa::cfg::Cfg;
use dee_isa::{Instr, Program};
use dee_vm::Trace;

/// Classification of a conditional branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BranchKind {
    /// Taken edge closes a natural loop (target dominates the branch).
    LoopBack,
    /// Taken edge goes backward without closing a natural loop.
    Retreating,
    /// Taken edge goes forward.
    Forward,
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BranchKind::LoopBack => "loop-back",
            BranchKind::Retreating => "retreating",
            BranchKind::Forward => "forward",
        })
    }
}

/// Static facts about one conditional branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchInfo {
    /// The branch address.
    pub pc: u32,
    /// The taken target.
    pub taken_target: u32,
    /// The not-taken successor (`pc + 1`, or the exit for a final branch).
    pub fallthrough: u32,
    /// Taxonomy of the taken edge.
    pub kind: BranchKind,
    /// Where taken and not-taken paths rejoin, if before program exit.
    pub reconvergence: Option<u32>,
    /// Instructions along the not-taken path until (and including) the next
    /// conditional branch, capped at the program length.
    pub static_path_len: u32,
}

/// What one instruction lets the dynamic successor PC be.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StepKind {
    /// Falls through to `pc + 1`.
    Fall,
    /// Unconditional transfer to a static target.
    Jump(u32),
    /// Conditional: taken target or fall-through.
    Cond { taken: u32 },
    /// Dynamic target (`jr`): any in-range PC.
    Indirect,
    /// Terminates execution (`halt`).
    Stop,
}

/// The static branch census of one program.
#[derive(Clone, Debug)]
pub struct BranchCensus {
    len: u32,
    branches: BTreeMap<u32, BranchInfo>,
    steps: Vec<StepKind>,
    defs: Vec<Option<dee_isa::Reg>>,
    uses: Vec<[Option<dee_isa::Reg>; 2]>,
}

impl BranchCensus {
    /// Builds the census from a validated program, using the simulator CFG
    /// (intraprocedural, like the timing models) for reconvergence and the
    /// dominator relation for the loop-back taxonomy.
    #[must_use]
    pub fn build(program: &Program) -> Self {
        let cfg = Cfg::new(program);
        let pdoms = cfg.postdominators();
        let flow = crate::flow::Flow::new(program.instrs());
        let doms = crate::structure::Doms::compute(&flow);

        let mut branches = BTreeMap::new();
        let mut steps = Vec::with_capacity(program.len());
        let mut defs = Vec::with_capacity(program.len());
        let mut uses = Vec::with_capacity(program.len());
        for (pc, instr) in program.iter() {
            defs.push(instr.def());
            uses.push(instr.uses());
            match *instr {
                Instr::Branch { target, .. } => {
                    let fallthrough = if (pc as usize) + 1 < program.len() {
                        pc + 1
                    } else {
                        cfg.exit()
                    };
                    let kind = if target <= pc && doms.dominates(target, pc) {
                        BranchKind::LoopBack
                    } else if target <= pc {
                        BranchKind::Retreating
                    } else {
                        BranchKind::Forward
                    };
                    branches.insert(
                        pc,
                        BranchInfo {
                            pc,
                            taken_target: target,
                            fallthrough,
                            kind,
                            reconvergence: pdoms.reconvergence(pc),
                            static_path_len: static_path_len(program, pc),
                        },
                    );
                    steps.push(StepKind::Cond { taken: target });
                }
                Instr::Jump { target } | Instr::Jal { target } => {
                    steps.push(StepKind::Jump(target))
                }
                Instr::Jr { .. } => steps.push(StepKind::Indirect),
                Instr::Halt => steps.push(StepKind::Stop),
                _ => steps.push(StepKind::Fall),
            }
        }
        BranchCensus {
            len: program.len() as u32,
            branches,
            steps,
            defs,
            uses,
        }
    }

    /// Number of instructions in the censused program.
    #[must_use]
    pub fn program_len(&self) -> u32 {
        self.len
    }

    /// All conditional branches, ascending by address.
    pub fn branches(&self) -> impl Iterator<Item = &BranchInfo> {
        self.branches.values()
    }

    /// The census entry for the branch at `pc`, if one exists.
    #[must_use]
    pub fn branch(&self, pc: u32) -> Option<&BranchInfo> {
        self.branches.get(&pc)
    }

    /// Number of conditional branches.
    #[must_use]
    pub fn num_branches(&self) -> usize {
        self.branches.len()
    }

    /// Number of loop-back branches.
    #[must_use]
    pub fn num_loop_back(&self) -> usize {
        self.branches
            .values()
            .filter(|b| b.kind == BranchKind::LoopBack)
            .count()
    }

    /// Mean static path length over all branches (0 when there are none).
    #[must_use]
    pub fn mean_static_path_len(&self) -> f64 {
        if self.branches.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .branches
            .values()
            .map(|b| u64::from(b.static_path_len))
            .sum();
        total as f64 / self.branches.len() as f64
    }

    /// Verifies a dynamic trace against this census.
    ///
    /// On success returns per-branch dynamic direction counts (the
    /// statistics a static DEE tree would be weighted with). Traces may be
    /// truncated (step limits), so the final record is not required to be a
    /// `halt`; every *consecutive* pair must still follow a static edge.
    pub fn verify_trace(&self, trace: &Trace) -> Result<CrossCheck, CrossCheckError> {
        // The VM records at least one step for every accepted program (even
        // a lone `halt`), so a zero-record trace can only mean corruption
        // or version skew — report it precisely instead of vacuously
        // passing. Single-block programs (no conditional branches) are
        // *not* degenerate: they verify normally with empty counts.
        if trace.is_empty() {
            return Err(CrossCheckError::EmptyTrace);
        }
        // Direction totals per pc, kept to the branches that ran at the end.
        let mut per_pc = vec![DirectionCounts::default(); self.len as usize];
        // The previous record's index and pc, and the pc its step lets
        // this record have: `None` for any (after `jr`), an error when no
        // record may follow (after `halt`).
        let mut successor: Option<(usize, u32, Result<Option<u32>, CrossCheckError>)> = None;
        for (index, rec) in trace.records().enumerate() {
            // Successor consistency.
            if let Some((prev_index, prev_pc, expected)) = successor.take() {
                if let Some(expected) = expected? {
                    if rec.pc != expected {
                        return Err(CrossCheckError::SuccessorMismatch {
                            index: prev_index,
                            pc: prev_pc,
                            expected,
                            got: rec.pc,
                        });
                    }
                }
            }
            if rec.pc >= self.len {
                return Err(CrossCheckError::PcOutOfRange {
                    index,
                    pc: rec.pc,
                    len: self.len,
                });
            }
            let pc = rec.pc as usize;
            // Branch membership and direction possibilities.
            let expected = match (self.steps[pc], rec.branch) {
                (StepKind::Cond { taken }, Some(outcome)) => {
                    if outcome.target != taken {
                        return Err(CrossCheckError::TargetMismatch {
                            index,
                            pc: rec.pc,
                            expected: taken,
                            got: outcome.target,
                        });
                    }
                    let c = &mut per_pc[pc];
                    if outcome.taken {
                        c.taken += 1;
                        Ok(Some(taken))
                    } else {
                        c.not_taken += 1;
                        Ok(Some(rec.pc + 1))
                    }
                }
                (StepKind::Cond { .. }, None) => {
                    return Err(CrossCheckError::MissingOutcome { index, pc: rec.pc });
                }
                (_, Some(_)) => {
                    return Err(CrossCheckError::NotABranch { index, pc: rec.pc });
                }
                (StepKind::Fall, None) => Ok(Some(rec.pc + 1)),
                (StepKind::Jump(target), None) => Ok(Some(target)),
                (StepKind::Indirect, None) => Ok(None),
                (StepKind::Stop, None) => {
                    Err(CrossCheckError::RecordAfterHalt { index, pc: rec.pc })
                }
            };
            // Operand consistency.
            if rec.dst != self.defs[pc] || rec.srcs != self.uses[pc] {
                return Err(CrossCheckError::OperandMismatch { index, pc: rec.pc });
            }
            successor = Some((index, rec.pc, expected));
        }
        let counts = per_pc
            .into_iter()
            .zip(0..)
            .filter(|(c, _)| c.taken + c.not_taken > 0)
            .map(|(c, pc)| (pc, c))
            .collect();
        Ok(CrossCheck {
            records: trace.len() as u64,
            counts,
        })
    }
}

/// Dynamic taken/not-taken totals for one branch.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct DirectionCounts {
    /// Times the branch was taken.
    pub taken: u64,
    /// Times it fell through.
    pub not_taken: u64,
}

/// A successful cross-check: the dynamic statistics backing the census.
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// Dynamic records verified.
    pub records: u64,
    /// Per-branch direction totals (only branches that executed appear).
    pub counts: BTreeMap<u32, DirectionCounts>,
}

/// A typed static/dynamic mismatch. `index` is the dynamic record index.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrossCheckError {
    /// A record's PC is outside the program.
    PcOutOfRange {
        /// Dynamic record index.
        index: usize,
        /// The offending PC.
        pc: u32,
        /// The program length.
        len: u32,
    },
    /// A record carries a branch outcome but the static instruction is not
    /// a conditional branch.
    NotABranch {
        /// Dynamic record index.
        index: usize,
        /// The offending PC.
        pc: u32,
    },
    /// The static instruction is a conditional branch but the record has no
    /// outcome.
    MissingOutcome {
        /// Dynamic record index.
        index: usize,
        /// The offending PC.
        pc: u32,
    },
    /// The recorded taken-target differs from the static target.
    TargetMismatch {
        /// Dynamic record index.
        index: usize,
        /// The branch PC.
        pc: u32,
        /// Static taken-target.
        expected: u32,
        /// Recorded taken-target.
        got: u32,
    },
    /// A record's register operands differ from the static def/use sets.
    OperandMismatch {
        /// Dynamic record index.
        index: usize,
        /// The offending PC.
        pc: u32,
    },
    /// Consecutive records do not follow a static control-flow edge.
    SuccessorMismatch {
        /// Dynamic record index of the first record.
        index: usize,
        /// Its PC.
        pc: u32,
        /// The only PC the static program allows next.
        expected: u32,
        /// The PC the trace actually has next.
        got: u32,
    },
    /// A record follows a `halt`.
    RecordAfterHalt {
        /// Dynamic record index of the halt.
        index: usize,
        /// The halt's PC.
        pc: u32,
    },
    /// The trace holds zero dynamic records (`DEE-E015`): the VM always
    /// records at least one step, so an empty trace is corruption.
    EmptyTrace,
}

impl CrossCheckError {
    /// The stable lint backing this error, when the catalogue has one.
    /// Structural record mismatches render via `Display` only.
    #[must_use]
    pub fn lint(&self) -> Option<crate::lint::Lint> {
        match self {
            CrossCheckError::EmptyTrace => Some(crate::lint::Lint::EmptyTrace),
            _ => None,
        }
    }
}

impl fmt::Display for CrossCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CrossCheckError::PcOutOfRange { index, pc, len } => {
                write!(f, "record {index}: pc {pc} outside program of {len}")
            }
            CrossCheckError::NotABranch { index, pc } => write!(
                f,
                "record {index}: branch outcome at pc {pc}, which is not a conditional branch"
            ),
            CrossCheckError::MissingOutcome { index, pc } => write!(
                f,
                "record {index}: conditional branch at pc {pc} has no recorded outcome"
            ),
            CrossCheckError::TargetMismatch {
                index,
                pc,
                expected,
                got,
            } => write!(
                f,
                "record {index}: branch at pc {pc} records target {got}, census says {expected}"
            ),
            CrossCheckError::OperandMismatch { index, pc } => write!(
                f,
                "record {index}: operands at pc {pc} disagree with static def/use sets"
            ),
            CrossCheckError::SuccessorMismatch {
                index,
                pc,
                expected,
                got,
            } => write!(
                f,
                "record {index}: pc {pc} must be followed by {expected}, trace has {got}"
            ),
            CrossCheckError::RecordAfterHalt { index, pc } => {
                write!(f, "record {index}: records continue after halt at pc {pc}")
            }
            CrossCheckError::EmptyTrace => {
                write!(
                    f,
                    "[DEE-E015] trace holds zero records (corrupt or truncated container)"
                )
            }
        }
    }
}

impl std::error::Error for CrossCheckError {}

/// Instructions along the not-taken path from `pc` until (and including)
/// the next conditional branch, following unconditional control, capped at
/// the program length (cycles without branches terminate the walk).
fn static_path_len(program: &Program, pc: u32) -> u32 {
    let mut len = 0u32;
    let mut cur = pc as usize + 1;
    let cap = program.len() as u32;
    while len < cap {
        let Some(instr) = program.get(cur as u32) else {
            break;
        };
        len += 1;
        match *instr {
            Instr::Branch { .. } => break,
            Instr::Jump { target } | Instr::Jal { target } => cur = target as usize,
            Instr::Jr { .. } | Instr::Halt => break,
            _ => cur += 1,
        }
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::Reg;

    fn single_block() -> Program {
        // One straight-line block, no conditional branches.
        let t = Reg::new(8);
        Program::new(vec![
            Instr::Li { rd: t, imm: 7 },
            Instr::Out { rs: t },
            Instr::Halt,
        ])
        .expect("valid program")
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        let program = single_block();
        let census = BranchCensus::build(&program);
        let err = census
            .verify_trace(&Trace::from_parts(Vec::new(), Vec::new()))
            .expect_err("zero records must not verify");
        assert_eq!(err, CrossCheckError::EmptyTrace);
        assert_eq!(err.lint(), Some(crate::lint::Lint::EmptyTrace));
        assert!(err.to_string().contains("DEE-E015"));
    }

    #[test]
    fn single_block_program_verifies_with_empty_counts() {
        let program = single_block();
        let census = BranchCensus::build(&program);
        assert_eq!(census.num_branches(), 0);
        let trace = dee_vm::trace_program(&program, &[], u64::MAX).expect("runs");
        let check = census.verify_trace(&trace).expect("verifies");
        assert_eq!(check.records, trace.len() as u64);
        assert!(check.counts.is_empty());
    }

    #[test]
    fn lone_halt_program_verifies() {
        let program = Program::new(vec![Instr::Halt]).expect("valid program");
        let census = BranchCensus::build(&program);
        let trace = dee_vm::trace_program(&program, &[], u64::MAX).expect("runs");
        let check = census.verify_trace(&trace).expect("verifies");
        assert_eq!(check.records, 1);
        assert!(check.counts.is_empty());
    }
}
