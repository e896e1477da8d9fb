//! Seeded fuzz of the lowering pipeline: for any instruction stream —
//! malformed or not — `DecodedProgram::from_instrs` must agree with
//! `Program::new` (same accept/reject decision, matching typed errors),
//! and on accepted programs the decoded engine must produce bit-identical
//! traces, outputs, final state, and *traps* (same `VmError` value at the
//! same point) as the reference interpreter. Nothing here may panic or
//! diverge.
//!
//! `DEE_CHAOS_SEED` (default 42) picks the stream; `DEE_CHAOS_ITERS`
//! (default 300) scales how many programs are fuzzed.

use dee_isa::{AluOp, BranchCond, Instr, Program, ProgramError, Reg};
use dee_rng::{env_u64, Rng};
use dee_vm::{
    trace_program, trace_program_decoded, DecodeError, DecodedProgram, Machine, StepOutcome,
    TraceRecord, VmError,
};

fn reg(rng: &mut Rng) -> Reg {
    Reg::new(rng.below(Reg::COUNT) as u8)
}

fn alu_op(rng: &mut Rng) -> AluOp {
    rng.pick(&[
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Nor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
        AluOp::Seq,
    ])
}

fn cond(rng: &mut Rng) -> BranchCond {
    rng.pick(&[
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Le,
        BranchCond::Gt,
    ])
}

/// A mostly-in-range static target; ~1 in 8 draws lands past the end,
/// exercising the `TargetOutOfRange` validation on both paths.
fn target(rng: &mut Rng, len: usize) -> u32 {
    if rng.below(8) == 0 {
        (len + rng.below(4)) as u32
    } else {
        rng.below(len.max(1)) as u32
    }
}

/// Offsets biased small but occasionally extreme, so stores and loads
/// hit both valid memory and the out-of-range trap.
fn offset(rng: &mut Rng) -> i32 {
    match rng.below(10) {
        0 => i32::MIN + rng.below(1000) as i32,
        1 => i32::MAX - rng.below(1000) as i32,
        _ => rng.below(64) as i32 - 8,
    }
}

fn instr(rng: &mut Rng, len: usize) -> Instr {
    match rng.below(12) {
        0 => Instr::Alu {
            op: alu_op(rng),
            rd: reg(rng),
            rs: reg(rng),
            rt: reg(rng),
        },
        1 => Instr::AluImm {
            op: alu_op(rng),
            rd: reg(rng),
            rs: reg(rng),
            imm: offset(rng),
        },
        2 => Instr::Li {
            rd: reg(rng),
            imm: rng.below(1 << 20) as i32 - (1 << 19),
        },
        3 => Instr::Lw {
            rd: reg(rng),
            base: reg(rng),
            offset: offset(rng),
        },
        4 => Instr::Sw {
            rs: reg(rng),
            base: reg(rng),
            offset: offset(rng),
        },
        5 => Instr::Branch {
            cond: cond(rng),
            rs: reg(rng),
            rt: reg(rng),
            target: target(rng, len),
        },
        6 => Instr::Jump {
            target: target(rng, len),
        },
        7 => Instr::Jal {
            target: target(rng, len),
        },
        // `jr` through an arbitrary register: negative values, table
        // dispatch, and targets past the end all arise dynamically.
        8 => Instr::Jr { rs: reg(rng) },
        9 => Instr::Out { rs: reg(rng) },
        10 => Instr::Halt,
        _ => Instr::Nop,
    }
}

/// Collapses both error types onto a comparable shape.
fn program_err_key(e: &ProgramError) -> (u8, u32, u32) {
    match *e {
        ProgramError::Empty => (0, 0, 0),
        ProgramError::TargetOutOfRange { pc, target } => (1, pc, target),
        ProgramError::NoHalt => (2, 0, 0),
    }
}

fn decode_err_key(e: &DecodeError) -> (u8, u32, u32) {
    match *e {
        DecodeError::Empty => (0, 0, 0),
        DecodeError::TargetOutOfRange { pc, target } => (1, pc, target),
        DecodeError::NoHalt => (2, 0, 0),
    }
}

/// The records `Machine::step` returns on a fresh machine, in a plain
/// `Vec`, or the trap that ends the run: the reference for both engines.
fn stepped_records(
    program: &Program,
    memory: &[i32],
    limit: u64,
) -> Result<Vec<TraceRecord>, VmError> {
    let mut machine = Machine::new();
    machine.try_load_memory(memory)?;
    let mut records = Vec::new();
    loop {
        if machine.executed() >= limit {
            return Err(VmError::StepLimit { limit });
        }
        let (outcome, record) = machine.step(program)?;
        records.push(record);
        if outcome == StepOutcome::Halted {
            return Ok(records);
        }
    }
}

/// One fuzzed stream: validation must agree; accepted programs must run
/// identically (records, output, and trap) under both engines.
fn check_stream(instrs: Vec<Instr>, memory: &[i32], limit: u64, label: &str) {
    let validated = Program::new(instrs.clone());
    let lowered = DecodedProgram::from_instrs(&instrs);
    match (&validated, &lowered) {
        (Ok(_), Ok(_)) => {}
        (Err(pe), Err(de)) => {
            assert_eq!(
                program_err_key(pe),
                decode_err_key(de),
                "{label}: rejection reasons diverge ({pe} vs {de})"
            );
            return;
        }
        (Ok(_), Err(de)) => panic!("{label}: lowering rejects a valid program: {de}"),
        (Err(pe), Ok(_)) => panic!("{label}: lowering accepts an invalid program: {pe}"),
    }
    let program = validated.expect("both accepted");
    let interp = trace_program(&program, memory, limit);
    let decoded = trace_program_decoded(&program, memory, limit);
    let stepped = stepped_records(&program, memory, limit);
    match (&interp, &decoded) {
        (Ok(a), Ok(b)) => {
            // Both engines write one compact trace; the stepped records
            // never pass through it.
            let stepped = stepped.unwrap_or_else(|e| panic!("{label}: stepping trapped: {e}"));
            assert!(
                a.records().eq(stepped.iter().copied()),
                "{label}: interp records diverge"
            );
            assert!(
                b.records().eq(stepped.iter().copied()),
                "{label}: decoded records diverge"
            );
            assert_eq!(a.output(), b.output(), "{label}: outputs diverge");
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{label}: traps diverge");
            assert_eq!(
                stepped.as_ref().err(),
                Some(a),
                "{label}: stepping traps differently"
            );
        }
        (a, b) => panic!("{label}: one engine trapped, the other did not: {a:?} vs {b:?}"),
    }
}

#[test]
fn random_streams_lower_and_run_identically() {
    let seed = env_u64("DEE_CHAOS_SEED", 42);
    let iters = env_u64("DEE_CHAOS_ITERS", 300);
    let mut rng = Rng::from_state((seed ^ 0x4c4f_5745_5246_555a) | 1); // "LOWERFUZ"
    for case in 0..iters {
        let len = 1 + rng.below(40);
        let mut instrs: Vec<Instr> = (0..len).map(|_| instr(&mut rng, len)).collect();
        // Half the streams get a guaranteed halt so a healthy fraction
        // survives validation; the rest exercise the NoHalt reject.
        if rng.below(2) == 0 {
            let at = rng.below(len);
            instrs[at] = Instr::Halt;
        }
        let memory: Vec<i32> = (0..rng.below(32))
            .map(|_| rng.below(1 << 16) as i32)
            .collect();
        check_stream(
            instrs,
            &memory,
            10_000,
            &format!("case {case} (seed {seed})"),
        );
    }
}

#[test]
fn hand_picked_malformed_streams_reject_identically() {
    // Empty stream.
    check_stream(Vec::new(), &[], 100, "empty");
    // No halt anywhere.
    check_stream(vec![Instr::Nop, Instr::Nop], &[], 100, "no-halt");
    // Static branch target one past the end.
    check_stream(
        vec![
            Instr::Branch {
                cond: BranchCond::Eq,
                rs: Reg::ZERO,
                rt: Reg::ZERO,
                target: 2,
            },
            Instr::Halt,
        ],
        &[],
        100,
        "branch-past-end",
    );
    // Jump table truncated: a jr whose register indexes past the table.
    let table_base = 3;
    check_stream(
        vec![
            Instr::Li {
                rd: Reg::new(1),
                imm: table_base + 5, // past the 2-entry table
            },
            Instr::Jr { rs: Reg::new(1) },
            Instr::Halt,
            Instr::Jump { target: 2 },
            Instr::Jump { target: 2 },
        ],
        &[],
        100,
        "truncated-jr-table",
    );
    // Negative jr target.
    check_stream(
        vec![
            Instr::Li {
                rd: Reg::new(1),
                imm: -7,
            },
            Instr::Jr { rs: Reg::new(1) },
            Instr::Halt,
        ],
        &[],
        100,
        "negative-jr",
    );
    // A store aimed at the program's own (nonexistent) code addresses:
    // the toy ISA has no self-modification, so this is just a memory
    // write both engines must age identically.
    check_stream(
        vec![
            Instr::Li {
                rd: Reg::new(1),
                imm: 1,
            },
            Instr::Sw {
                rs: Reg::new(1),
                base: Reg::ZERO,
                offset: 0,
            },
            Instr::Lw {
                rd: Reg::new(2),
                base: Reg::ZERO,
                offset: 0,
            },
            Instr::Out { rs: Reg::new(2) },
            Instr::Halt,
        ],
        &[0],
        100,
        "store-over-code-image",
    );
    // Step-limit trap must fire identically (limit cuts the loop short).
    check_stream(
        vec![Instr::Jump { target: 0 }, Instr::Halt],
        &[],
        10,
        "step-limit",
    );
}
