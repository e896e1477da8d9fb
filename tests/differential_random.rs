//! Differential testing on randomly generated structured programs: the
//! functional VM and the Levo machine model must compute identical output
//! for arbitrary (halting) programs, and the ILP models must respect the
//! oracle on all of them — not just on the five curated workloads.

use dee::ilpsim::{simulate, Model, PreparedTrace, SimConfig};
use dee::isa::{Assembler, Program, Reg};
use dee::levo::{Levo, LevoConfig, PredictorKind};
use dee::vm::trace_program;
use dee_rng::Rng;

/// Registers the generator plays with.
fn pool(rng: &mut Rng) -> Reg {
    Reg::new(1 + (rng.below(8) as u8))
}

/// Emits a random ALU instruction over the register pool.
fn random_alu(asm: &mut Assembler, rng: &mut Rng) {
    let (d, a, b) = (pool(rng), pool(rng), pool(rng));
    match rng.below(8) {
        0 => asm.add(d, a, b),
        1 => asm.sub(d, a, b),
        2 => asm.mul(d, a, b),
        3 => asm.and(d, a, b),
        4 => asm.or(d, a, b),
        5 => asm.xor(d, a, b),
        6 => asm.addi(d, a, rng.below(64) as i32 - 32),
        _ => asm.slt(d, a, b),
    };
}

/// Emits a bounded memory access: address masked into a 64-word region.
fn random_mem(asm: &mut Assembler, rng: &mut Rng) {
    let addr_reg = Reg::new(20);
    let v = pool(rng);
    asm.andi(addr_reg, pool(rng), 63);
    if rng.below(2) == 0 {
        asm.sw(v, addr_reg, 0);
    } else {
        asm.lw(v, addr_reg, 0);
    }
}

/// Builds a random structured program: init, then a few blocks (straight
/// line, counted loop, or if/else), then output of the whole pool. Each
/// test case is one seed, printed on failure for exact reproduction.
fn random_program(seed: u64) -> Program {
    let mut rng = Rng::new(seed);
    let mut asm = Assembler::new();
    for i in 1..=8u8 {
        asm.li(Reg::new(i), rng.below(1000) as i32 - 500);
    }
    let blocks = 2 + rng.below(4);
    for b in 0..blocks {
        match rng.below(4) {
            0 | 1 => {
                for _ in 0..(1 + rng.below(5)) {
                    if rng.below(4) == 0 {
                        random_mem(&mut asm, &mut rng);
                    } else {
                        random_alu(&mut asm, &mut rng);
                    }
                }
            }
            2 => {
                // Counted loop with a data-dependent body.
                let counter = Reg::new(16);
                let top = format!("loop_{b}");
                asm.li(counter, 1 + rng.below(8) as i32);
                asm.label(&top);
                for _ in 0..(1 + rng.below(3)) {
                    random_alu(&mut asm, &mut rng);
                }
                asm.addi(counter, counter, -1);
                asm.bgt_label(counter, Reg::ZERO, &top);
            }
            _ => {
                // If/else on a data-dependent condition.
                let (a, b2) = (pool(&mut rng), pool(&mut rng));
                let arm = format!("else_{b}");
                let join = format!("join_{b}");
                asm.blt_label(a, b2, &arm);
                random_alu(&mut asm, &mut rng);
                asm.j_label(&join);
                asm.label(&arm);
                random_alu(&mut asm, &mut rng);
                random_alu(&mut asm, &mut rng);
                asm.label(&join);
            }
        }
    }
    for i in 1..=8u8 {
        asm.out(Reg::new(i));
    }
    asm.halt();
    asm.assemble().expect("generated program assembles")
}

/// VM and Levo agree on every random program, in all configurations.
#[test]
fn levo_agrees_with_vm_on_random_programs() {
    for seed in 0..48u64 {
        let program = random_program(seed);
        let trace = trace_program(&program, &[], 200_000).expect("halts");
        for config in [
            LevoConfig::condel2(),
            LevoConfig::default(),
            LevoConfig::levo_100(),
            LevoConfig {
                n: 16,
                m: 4,
                ..LevoConfig::default()
            },
            LevoConfig {
                predictor: PredictorKind::PapSpeculative,
                ..LevoConfig::default()
            },
        ] {
            let report = Levo::new(config).run(&program, &[]).expect("levo runs");
            assert_eq!(
                report.output,
                trace.output().to_vec(),
                "seed {seed} config {config:?}"
            );
            assert_eq!(report.retired, trace.len() as u64, "seed {seed}");
        }
    }
}

/// The model hierarchy and the oracle bound hold on random programs.
#[test]
fn ilpsim_invariants_on_random_programs() {
    for seed in 0..48u64 {
        let program = random_program(seed);
        let trace = trace_program(&program, &[], 200_000).expect("halts");
        let prepared = PreparedTrace::new(&program, &trace);
        let oracle = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        let mut cycles = Vec::new();
        for model in Model::all_constrained() {
            let out = simulate(&prepared, &SimConfig::new(model, 64));
            assert!(
                out.cycles >= oracle.cycles,
                "seed {seed}: {model} beat oracle"
            );
            assert!(
                out.cycles <= trace.len() as u64 + 2,
                "seed {seed}: {model} slower than sequential"
            );
            cycles.push((model, out.cycles));
        }
        // Refinements never hurt.
        let get = |m: Model| cycles.iter().find(|(x, _)| *x == m).expect("simulated").1;
        assert!(get(Model::SpCd) <= get(Model::Sp), "seed {seed}");
        assert!(get(Model::SpCdMf) <= get(Model::SpCd), "seed {seed}");
        assert!(get(Model::DeeCd) <= get(Model::Dee), "seed {seed}");
        assert!(get(Model::DeeCdMf) <= get(Model::DeeCd), "seed {seed}");
    }
}
