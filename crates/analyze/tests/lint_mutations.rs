//! Seeded-mutation coverage for every Error-severity lint: start from a
//! shipped (lint-clean) workload, apply one targeted corruption chosen by
//! a seeded `dee-rng` stream, and assert the expected `DEE-E*` diagnostic
//! fires. Each round has its own seed, so repeated rounds probe different
//! program points while staying exactly reproducible.

use dee_analyze::{analyze_instrs, AnalyzeConfig, Lint, Severity};
use dee_isa::{Instr, Reg};
use dee_rng::Rng;
use dee_workloads::Scale;

fn base_instrs() -> Vec<Instr> {
    let w = dee_workloads::compress::build(Scale::Tiny);
    let instrs = w.program.instrs().to_vec();
    let report = analyze_instrs(&instrs, &AnalyzeConfig::default());
    assert!(report.is_clean(), "baseline must be clean");
    instrs
}

fn assert_fires(instrs: &[Instr], lint: Lint, seed: u64) {
    let report = analyze_instrs(instrs, &AnalyzeConfig::default());
    assert!(
        report.has(lint),
        "seed {seed}: expected {} ({}), got:\n{}",
        lint.code(),
        lint.name(),
        report.render_text("mutated")
    );
    assert_eq!(lint.severity(), Severity::Error);
    assert!(report.has_errors());
}

#[test]
fn e002_fires_on_an_emptied_program() {
    assert_fires(&[], Lint::EmptyProgram, 0);
}

#[test]
fn e003_fires_when_a_definition_is_knocked_out() {
    // Replace a reachable defining instruction with a use of its own
    // destination: the register loses every reaching definition on some
    // path and the read becomes provably uninitialized.
    let base = base_instrs();
    let mut fired = 0;
    for seed in 0xE003_0000..0xE003_0028u64 {
        let mut rng = Rng::new(seed);
        let mut instrs = base.clone();
        let idx = rng.below(instrs.len());
        let Some(rd) = instrs[idx].def() else {
            continue;
        };
        instrs[idx] = Instr::Out { rs: rd };
        let report = analyze_instrs(&instrs, &AnalyzeConfig::default());
        // Not every knockout leaves the read undefined (another def may
        // reach it), but when E003 fires it must name an error.
        if report.has(Lint::UninitializedRegisterRead) {
            assert!(report.has_errors(), "seed {seed}");
            fired += 1;
        }
    }
    assert!(fired > 0, "no seed produced an uninitialized read");
    // And a deterministic minimal case, so the lint is pinned regardless
    // of workload shape.
    let minimal = [Instr::Out { rs: Reg::new(5) }, Instr::Halt];
    assert_fires(&minimal, Lint::UninitializedRegisterRead, 0);
}

#[test]
fn e004_fires_when_every_halt_is_removed() {
    let instrs: Vec<Instr> = base_instrs()
        .into_iter()
        .map(|i| {
            if matches!(i, Instr::Halt) {
                // Replace rather than delete so no target shifts.
                Instr::Nop
            } else {
                i
            }
        })
        .collect();
    assert_fires(&instrs, Lint::NoHalt, 0xE004);
}

#[test]
fn e005_fires_on_a_retargeted_branch() {
    let base = base_instrs();
    let branch_sites: Vec<usize> = base
        .iter()
        .enumerate()
        .filter(|(_, i)| {
            matches!(
                i,
                Instr::Branch { .. } | Instr::Jump { .. } | Instr::Jal { .. }
            )
        })
        .map(|(idx, _)| idx)
        .collect();
    assert!(!branch_sites.is_empty());
    for seed in 0xE005_0000..0xE005_000Au64 {
        let mut rng = Rng::new(seed);
        let mut instrs = base.clone();
        let idx = rng.pick(&branch_sites);
        let bogus = instrs.len() as u32 + 1 + rng.below(1000) as u32;
        match &mut instrs[idx] {
            Instr::Branch { target, .. } | Instr::Jump { target } | Instr::Jal { target } => {
                *target = bogus;
            }
            _ => unreachable!(),
        }
        assert_fires(&instrs, Lint::JumpTargetOutOfRange, seed);
    }
}

#[test]
fn e011_fires_on_a_store_through_an_oob_constant() {
    let mem_words = AnalyzeConfig::default().mem_words;
    for seed in 0xE011_0000..0xE011_000Au64 {
        let mut rng = Rng::new(seed);
        // A fresh straight-line program: li an out-of-bounds address,
        // store through it. The offset is seed-chosen.
        let overshoot = rng.below(1 << 20) as i32;
        let instrs = [
            Instr::Li {
                rd: Reg::new(1),
                imm: mem_words as i32 + overshoot,
            },
            Instr::Sw {
                rs: Reg::new(1),
                base: Reg::new(1),
                offset: 0,
            },
            Instr::Halt,
        ];
        assert_fires(&instrs, Lint::OobConstantStore, seed);
    }
}

#[test]
fn e013_fires_on_a_load_through_an_oob_constant() {
    let mem_words = AnalyzeConfig::default().mem_words;
    for seed in 0xE013_0000..0xE013_000Au64 {
        let mut rng = Rng::new(seed);
        let instrs = [
            Instr::Li {
                rd: Reg::new(2),
                imm: -1 - rng.below(1 << 16) as i32,
            },
            Instr::Lw {
                rd: Reg::new(3),
                base: Reg::new(2),
                offset: 0,
            },
            Instr::Out { rs: Reg::new(3) },
            Instr::Halt,
        ];
        let _ = mem_words;
        assert_fires(&instrs, Lint::OobConstantLoad, seed);
    }
}
