//! Property tests for the dataflow framework over seeded-random programs,
//! plus hand-built mini-programs with known dominator trees and loop nests.
//!
//! Each random program is drawn from its own `dee-rng` seed, so a failure
//! reproduces exactly; every assertion message carries the seed.

use dee_analyze::bitset::BitSet;
use dee_analyze::dataflow::{solve, transfer, Direction, GenKill, Meet};
use dee_analyze::flow::Flow;
use dee_analyze::passes::{Liveness, ReachingDefs};
use dee_analyze::structure::{find_loops, Doms};
use dee_isa::{AluOp, BranchCond, Instr, Reg};
use dee_rng::Rng;

fn reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.below(8) as u8)
}

/// A random program of `len` instructions with all targets in range.
fn random_program(rng: &mut Rng, len: u32) -> Vec<Instr> {
    (0..len)
        .map(|_| {
            let target = rng.below(len as usize) as u32;
            match rng.below(10) {
                0 => Instr::Li {
                    rd: reg(rng),
                    imm: rng.below(100) as i32,
                },
                1 => Instr::Alu {
                    op: AluOp::Add,
                    rd: reg(rng),
                    rs: reg(rng),
                    rt: reg(rng),
                },
                2 => Instr::AluImm {
                    op: AluOp::Mul,
                    rd: reg(rng),
                    rs: reg(rng),
                    imm: 3,
                },
                3 => Instr::Lw {
                    rd: reg(rng),
                    base: reg(rng),
                    offset: rng.below(16) as i32,
                },
                4 => Instr::Sw {
                    rs: reg(rng),
                    base: reg(rng),
                    offset: rng.below(16) as i32,
                },
                5 => Instr::Branch {
                    cond: BranchCond::Ne,
                    rs: reg(rng),
                    rt: reg(rng),
                    target,
                },
                6 => Instr::Jump { target },
                7 => Instr::Jal { target },
                8 => Instr::Out { rs: reg(rng) },
                _ => Instr::Nop,
            }
        })
        .chain([Instr::Halt])
        .collect()
}

/// Checks the fixpoint equations of a solved pass at every node:
/// the merge side equals the meet over dataflow-predecessor facts (with
/// the boundary on the virtual edge) and the apply side equals the
/// transfer of the merge side.
fn assert_fixpoint(instrs: &[Instr], flow: &Flow, pass: &impl GenKill, seed: u64) {
    let solution = solve(flow, pass);
    let forward = pass.direction() == Direction::Forward;
    let boundary = pass.boundary();
    for pc in 0..instrs.len() as u32 {
        let edges: &[u32] = if forward {
            flow.predecessors(pc)
        } else {
            flow.successors(pc)
        };
        let mut expect: Option<BitSet> = None;
        for &e in edges {
            let fact = if e == flow.exit() {
                boundary.clone()
            } else if forward {
                solution.output[e as usize].clone()
            } else {
                solution.input[e as usize].clone()
            };
            expect = Some(match expect {
                None => fact,
                Some(mut acc) => {
                    match pass.meet() {
                        Meet::Union => acc.union_with(&fact),
                        Meet::Intersect => acc.intersect_with(&fact),
                    };
                    acc
                }
            });
        }
        // The entry of a forward pass folds the boundary in as a virtual
        // incoming edge.
        let mut expect = expect.unwrap_or_else(|| boundary.clone());
        if forward && pc == 0 {
            match pass.meet() {
                Meet::Union => expect.union_with(&boundary),
                Meet::Intersect => expect.intersect_with(&boundary),
            };
        }
        let (merge_side, apply_side) = if forward {
            (&solution.input[pc as usize], &solution.output[pc as usize])
        } else {
            (&solution.output[pc as usize], &solution.input[pc as usize])
        };
        assert_eq!(
            *merge_side, expect,
            "seed {seed}: merge equation violated at pc {pc}"
        );
        assert_eq!(
            *apply_side,
            transfer(pass, pc, merge_side),
            "seed {seed}: transfer equation violated at pc {pc}"
        );
    }
}

#[test]
fn fixpoint_equations_hold_on_random_programs() {
    for seed in 0..50u64 {
        let mut rng = Rng::new(seed);
        let len = 4 + rng.below(36) as u32;
        let instrs = random_program(&mut rng, len);
        let flow = Flow::new(&instrs);
        assert_fixpoint(&instrs, &flow, &Liveness::new(&instrs), seed);
        assert_fixpoint(&instrs, &flow, &ReachingDefs::new(&instrs), seed);
    }
}

#[test]
fn transfer_is_monotone() {
    // A ⊆ B ⇒ transfer(A) ⊆ transfer(B), for random subsets at random
    // program points. Monotonicity is what makes the worklist fixpoint
    // unique, so it is worth checking directly rather than trusting the
    // gen/kill algebra.
    fn check(pass: &impl GenKill, pc: u32, rng: &mut Rng, seed: u64) {
        let bits = pass.bits();
        let mut a = BitSet::new(bits);
        let mut b = BitSet::new(bits);
        for i in 0..bits {
            match rng.below(4) {
                0 => {
                    a.insert(i);
                    b.insert(i);
                }
                1 => {
                    b.insert(i);
                }
                _ => {}
            }
        }
        assert!(a.is_subset_of(&b));
        let ta = transfer(pass, pc, &a);
        let tb = transfer(pass, pc, &b);
        assert!(
            ta.is_subset_of(&tb),
            "seed {seed}: transfer not monotone at pc {pc}"
        );
    }
    for seed in 1000..1030u64 {
        let mut rng = Rng::new(seed);
        let len = 4 + rng.below(28) as u32;
        let instrs = random_program(&mut rng, len);
        let live = Liveness::new(&instrs);
        let reach = ReachingDefs::new(&instrs);
        for _ in 0..20 {
            let pc = rng.below(len as usize) as u32;
            check(&live, pc, &mut rng, seed);
            check(&reach, pc, &mut rng, seed);
        }
    }
}

#[test]
fn liveness_contains_use_before_def_on_the_entry_prefix() {
    // Walk the straight-line prefix from entry (stop at the first control
    // transfer): any register read before it is written must be live-in at
    // pc 0. This pins liveness to an independently computable ground truth.
    for seed in 2000..2100u64 {
        let mut rng = Rng::new(seed);
        let len = 4 + rng.below(36) as u32;
        let instrs = random_program(&mut rng, len);
        let flow = Flow::new(&instrs);
        let live = Liveness::new(&instrs);
        let solution = live.solve(&flow);
        let mut written = [false; Reg::COUNT];
        let mut use_before_def = Vec::new();
        for instr in &instrs {
            for reg in instr.uses().into_iter().flatten() {
                if !written[reg.index()] {
                    use_before_def.push(reg);
                }
            }
            if let Some(reg) = instr.def() {
                written[reg.index()] = true;
            }
            if matches!(
                instr,
                Instr::Branch { .. }
                    | Instr::Jump { .. }
                    | Instr::Jal { .. }
                    | Instr::Jr { .. }
                    | Instr::Halt
            ) {
                break;
            }
        }
        for reg in use_before_def {
            assert!(
                solution.input[0].contains(reg.index()),
                "seed {seed}: {reg} read before written but not live-in at entry"
            );
        }
    }
}

#[test]
fn diamond_has_the_textbook_dominator_tree() {
    // 0: branch → 3        entry, dominates everything
    // 1: li r1, 1          left arm
    // 2: jump → 4
    // 3: li r1, 2          right arm
    // 4: out r1            join — idom is the *branch*, not either arm
    // 5: halt
    let instrs = [
        Instr::Branch {
            cond: BranchCond::Eq,
            rs: Reg::new(1),
            rt: Reg::ZERO,
            target: 3,
        },
        Instr::Li {
            rd: Reg::new(1),
            imm: 1,
        },
        Instr::Jump { target: 4 },
        Instr::Li {
            rd: Reg::new(1),
            imm: 2,
        },
        Instr::Out { rs: Reg::new(1) },
        Instr::Halt,
    ];
    let flow = Flow::new(&instrs);
    let doms = Doms::compute(&flow);
    assert_eq!(doms.idom(0), None, "entry has no idom");
    assert_eq!(doms.idom(1), Some(0));
    assert_eq!(doms.idom(2), Some(1));
    assert_eq!(doms.idom(3), Some(0));
    assert_eq!(doms.idom(4), Some(0), "join is dominated by the branch");
    assert_eq!(doms.idom(5), Some(4));
    assert!(doms.dominates(0, 5));
    assert!(!doms.dominates(1, 4));
    let forest = find_loops(&flow, &doms);
    assert!(forest.is_reducible());
    assert!(forest.loops.is_empty());
}

#[test]
fn nested_loops_have_the_expected_headers_and_nesting() {
    // 0: li r1, 0
    // 1: li r2, 0          outer header is 1? No: loops are defined by
    // 2: addi r2, r2, 1    back edges. inner: 2..=3 (3 → 2), outer:
    // 3: branch → 2        1..=5 (5 → 1).
    // 4: addi r1, r1, 1
    // 5: branch → 1
    // 6: halt
    let r1 = Reg::new(1);
    let r2 = Reg::new(2);
    let instrs = [
        Instr::Li { rd: r1, imm: 0 },
        Instr::Li { rd: r2, imm: 0 },
        Instr::AluImm {
            op: AluOp::Add,
            rd: r2,
            rs: r2,
            imm: 1,
        },
        Instr::Branch {
            cond: BranchCond::Lt,
            rs: r2,
            rt: r1,
            target: 2,
        },
        Instr::AluImm {
            op: AluOp::Add,
            rd: r1,
            rs: r1,
            imm: 1,
        },
        Instr::Branch {
            cond: BranchCond::Lt,
            rs: r1,
            rt: r2,
            target: 1,
        },
        Instr::Halt,
    ];
    let flow = Flow::new(&instrs);
    let doms = Doms::compute(&flow);
    let forest = find_loops(&flow, &doms);
    assert!(forest.is_reducible());
    let mut headers: Vec<u32> = forest.loops.iter().map(|l| l.header).collect();
    headers.sort_unstable();
    assert_eq!(headers, vec![1, 2]);
    let outer = forest.loops.iter().find(|l| l.header == 1).unwrap();
    let inner = forest.loops.iter().find(|l| l.header == 2).unwrap();
    for pc in [1u32, 2, 3, 4, 5] {
        assert!(outer.body.contains(&pc), "outer loop must contain {pc}");
    }
    assert_eq!(inner.body, vec![2, 3]);
    // Innermost containment: pc 2 sits in the inner loop, pc 4 only in
    // the outer one.
    assert_eq!(forest.innermost_containing(2).unwrap().header, 2);
    assert_eq!(forest.innermost_containing(4).unwrap().header, 1);
    assert!(forest.innermost_containing(0).is_none());
}

#[test]
fn jump_into_a_loop_body_is_irreducible() {
    // 0: branch → 3   jumps *into* the body of the loop {2, 3}, so the
    // 1: jump → 2     retreating edge 3 → 2 has a header that does not
    // 2: nop          dominate its source: a classic irreducible region.
    // 3: branch → 2
    // 4: halt
    let instrs = [
        Instr::Branch {
            cond: BranchCond::Eq,
            rs: Reg::new(1),
            rt: Reg::ZERO,
            target: 3,
        },
        Instr::Jump { target: 2 },
        Instr::Nop,
        Instr::Branch {
            cond: BranchCond::Ne,
            rs: Reg::new(1),
            rt: Reg::ZERO,
            target: 2,
        },
        Instr::Halt,
    ];
    let flow = Flow::new(&instrs);
    let doms = Doms::compute(&flow);
    let forest = find_loops(&flow, &doms);
    assert!(!forest.is_reducible());
    assert!(!forest.irreducible_edges.is_empty());
}
