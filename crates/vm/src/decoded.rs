//! Pre-decoded execution engine: a compile step that lowers a validated
//! [`Program`] into a dense, cache-friendly form executed by a tight
//! indexed dispatch loop.
//!
//! The reference interpreter ([`Machine`]) re-matches the full [`Instr`]
//! enum and re-filters `r0` on every dynamic step. For trace capture that
//! per-step work dominates the sweep binaries and `dee trace record`. The
//! decoded engine (modeled on classic decoded-opcode emulators) does all
//! per-instruction analysis once, at compile time:
//!
//! * **Fused operands** — every register operand is pre-resolved to a raw
//!   array index. Writes to the hardwired-zero register are redirected to
//!   a 33rd *sink* slot, so the dispatch loop never tests `is_zero`; the
//!   invariant `regs[0] == 0` makes reads checkless too.
//! * **Pre-resolved control flow** — static branch/jump/call targets were
//!   validated by [`Program::new`] (or [`DecodedProgram::from_instrs`]),
//!   so taken edges assign `pc` without bounds checks; only fall-through
//!   off the end and dynamic `jr` targets are checked, exactly where the
//!   interpreter would fault.
//! * **`jr` table spans** — maximal runs of ≥ 2 consecutive `Jump`
//!   instructions (the dispatch tables `dee-gen` emits for its
//!   register-indirect branches) are detected at compile time and their
//!   targets pre-resolved into dense spans, exposed via
//!   [`DecodedProgram::jr_tables`] for consumers that want to reason about
//!   indirect dispatch without rescanning the program.
//! * **Trace-record shapes** — the static part of every record (`pc`,
//!   `srcs`, `dst`, which dynamic fields it carries, a branch's target)
//!   is precomputed per pc and seeds the captured [`Trace`]'s shape
//!   table, so a record's shape id is its pc. The dispatch loop writes
//!   only that id and the dynamic fields: a memory address, a taken bit,
//!   and the call depth where `jal` or `jr` changes it.
//!
//! The engine is *observationally identical* to the interpreter: same
//! trace records, same output, same [`VmError`] on the same step. The
//! differential harness in `tests/engine_differential.rs` and the seeded
//! lowering fuzz in `crates/vm/tests/lowering_fuzz.rs` lock this down.

use std::fmt;

use dee_isa::{AluOp, BranchCond, Instr, Program, Reg};

use crate::machine::{Machine, RunResult, VmError};
use crate::trace::{program_shapes, trace_program, Shape, Trace};

/// Index of the write sink: register writes to `r0` land here and are
/// never read back, preserving the hardwired-zero semantics without a
/// per-step test.
const SINK: u8 = Reg::COUNT as u8;

/// One pre-decoded instruction. Register fields are raw indices into the
/// 33-slot register file (destinations may be [`SINK`]); targets are
/// absolute instruction indices already validated in range.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DecodedOp {
    Alu {
        op: AluOp,
        rd: u8,
        rs: u8,
        rt: u8,
    },
    AluImm {
        op: AluOp,
        rd: u8,
        rs: u8,
        imm: i32,
    },
    Li {
        rd: u8,
        imm: i32,
    },
    Lw {
        rd: u8,
        base: u8,
        offset: i32,
    },
    Sw {
        rs: u8,
        base: u8,
        offset: i32,
    },
    Branch {
        cond: BranchCond,
        rs: u8,
        rt: u8,
        target: u32,
    },
    Jump {
        target: u32,
    },
    Jal {
        target: u32,
    },
    Jr {
        rs: u8,
    },
    Out {
        rs: u8,
    },
    Halt,
    Nop,
}

/// A pre-resolved `jr` dispatch table: a maximal span of ≥ 2 consecutive
/// unconditional `Jump` instructions, with every entry's target collected
/// in order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JrTable {
    /// Address of the first `Jump` in the span.
    pub start: u32,
    /// The pre-resolved target of each consecutive `Jump`.
    pub targets: Vec<u32>,
}

impl JrTable {
    /// Number of entries in the span.
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the span is empty (never true for a detected table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

/// Why a raw instruction stream could not be lowered.
///
/// Mirrors the validation of [`Program::new`] so that malformed inputs are
/// rejected with the same typed story on both paths — the lowering fuzz
/// asserts a mutated stream either fails here or traps identically to the
/// interpreter at run time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The instruction stream was empty.
    Empty,
    /// A static branch/jump target at `pc` points outside the program.
    TargetOutOfRange {
        /// Address of the offending instruction.
        pc: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// No `halt` instruction: execution could only end by faulting.
    NoHalt,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::Empty => f.write_str("cannot lower an empty instruction stream"),
            DecodeError::TargetOutOfRange { pc, target } => {
                write!(
                    f,
                    "instruction at {pc} targets out-of-range address {target}"
                )
            }
            DecodeError::NoHalt => f.write_str("instruction stream contains no halt"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn src(r: Reg) -> u8 {
    r.index() as u8
}

fn dst(r: Reg) -> u8 {
    if r.is_zero() {
        SINK
    } else {
        r.index() as u8
    }
}

/// A [`Program`] lowered into the dense pre-decoded form.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    ops: Vec<DecodedOp>,
    templates: Vec<Shape>,
    defs: Vec<Option<Reg>>,
    is_store: Vec<bool>,
    jr_tables: Vec<JrTable>,
}

impl DecodedProgram {
    /// Lowers a validated program. Infallible: `Program::new` already
    /// guarantees everything [`DecodedProgram::from_instrs`] checks.
    #[must_use]
    pub fn compile(program: &Program) -> Self {
        Self::from_instrs(program.instrs()).expect("validated Program must lower")
    }

    /// Lowers a raw instruction stream, re-running the full validation.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] for empty streams, out-of-range
    /// static targets, or missing `halt` — the same inputs
    /// [`Program::new`] rejects.
    pub fn from_instrs(instrs: &[Instr]) -> Result<Self, DecodeError> {
        if instrs.is_empty() {
            return Err(DecodeError::Empty);
        }
        let len = instrs.len() as u32;
        for (pc, instr) in instrs.iter().enumerate() {
            if let Some(target) = instr.static_target() {
                if target >= len {
                    return Err(DecodeError::TargetOutOfRange {
                        pc: pc as u32,
                        target,
                    });
                }
            }
        }
        if !instrs.iter().any(|i| matches!(i, Instr::Halt)) {
            return Err(DecodeError::NoHalt);
        }

        let mut ops = Vec::with_capacity(instrs.len());
        let mut defs = Vec::with_capacity(instrs.len());
        let mut is_store = Vec::with_capacity(instrs.len());
        for instr in instrs {
            ops.push(match *instr {
                Instr::Alu { op, rd, rs, rt } => DecodedOp::Alu {
                    op,
                    rd: dst(rd),
                    rs: src(rs),
                    rt: src(rt),
                },
                Instr::AluImm { op, rd, rs, imm } => DecodedOp::AluImm {
                    op,
                    rd: dst(rd),
                    rs: src(rs),
                    imm,
                },
                Instr::Li { rd, imm } => DecodedOp::Li { rd: dst(rd), imm },
                Instr::Lw { rd, base, offset } => DecodedOp::Lw {
                    rd: dst(rd),
                    base: src(base),
                    offset,
                },
                Instr::Sw { rs, base, offset } => DecodedOp::Sw {
                    rs: src(rs),
                    base: src(base),
                    offset,
                },
                Instr::Branch {
                    cond,
                    rs,
                    rt,
                    target,
                } => DecodedOp::Branch {
                    cond,
                    rs: src(rs),
                    rt: src(rt),
                    target,
                },
                Instr::Jump { target } => DecodedOp::Jump { target },
                Instr::Jal { target } => DecodedOp::Jal { target },
                Instr::Jr { rs } => DecodedOp::Jr { rs: src(rs) },
                Instr::Out { rs } => DecodedOp::Out { rs: src(rs) },
                Instr::Halt => DecodedOp::Halt,
                Instr::Nop => DecodedOp::Nop,
            });
            defs.push(instr.def());
            is_store.push(matches!(instr, Instr::Sw { .. }));
        }

        let mut jr_tables = Vec::new();
        let mut i = 0usize;
        while i < instrs.len() {
            if let Instr::Jump { .. } = instrs[i] {
                let start = i;
                let mut targets = Vec::new();
                while let Some(Instr::Jump { target }) = instrs.get(i) {
                    targets.push(*target);
                    i += 1;
                }
                if targets.len() >= 2 {
                    jr_tables.push(JrTable {
                        start: start as u32,
                        targets,
                    });
                }
            } else {
                i += 1;
            }
        }

        Ok(DecodedProgram {
            ops,
            templates: program_shapes(instrs),
            defs,
            is_store,
            jr_tables,
        })
    }

    /// Number of static instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the lowered program is empty (never true once built).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The register written at `pc` (`r0` writes reported as `None`),
    /// or `None` when out of range — a pre-decoded `Instr::def`.
    #[must_use]
    pub fn def_of(&self, pc: u32) -> Option<Reg> {
        self.defs.get(pc as usize).copied().flatten()
    }

    /// Whether the instruction at `pc` is a store — a pre-decoded
    /// `matches!(_, Instr::Sw { .. })`.
    #[must_use]
    pub fn is_store(&self, pc: u32) -> bool {
        self.is_store.get(pc as usize).copied().unwrap_or(false)
    }

    /// The detected `jr` dispatch-table spans, in address order.
    #[must_use]
    pub fn jr_tables(&self) -> &[JrTable] {
        &self.jr_tables
    }
}

/// Machine state for the decoded engine: identical architectural state to
/// [`Machine`] plus the write-sink register slot.
#[derive(Clone, Debug)]
pub struct DecodedMachine {
    /// 32 architectural registers plus the `r0` write sink at index 32.
    regs: [i32; Reg::COUNT + 1],
    mem: Vec<i32>,
    pc: u32,
    halted: bool,
    depth: u32,
    executed: u64,
    output: Vec<i32>,
}

impl Default for DecodedMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl DecodedMachine {
    /// Creates a machine with the default memory size; SP starts at the
    /// top of memory, matching [`Machine::new`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_memory_size(crate::machine::DEFAULT_MEM_WORDS)
    }

    /// Creates a machine with `words` words of zeroed memory.
    #[must_use]
    pub fn with_memory_size(words: usize) -> Self {
        let mut m = DecodedMachine {
            regs: [0; Reg::COUNT + 1],
            mem: vec![0; words],
            pc: 0,
            halted: false,
            depth: 0,
            executed: 0,
            output: Vec::new(),
        };
        m.regs[Reg::SP.index()] = words as i32;
        m
    }

    /// Copies `image` into memory starting at word 0, rejecting images
    /// that do not fit.
    ///
    /// # Errors
    ///
    /// [`VmError::ImageTooLarge`] when `image` is larger than memory.
    pub fn try_load_memory(&mut self, image: &[i32]) -> Result<(), VmError> {
        if image.len() > self.mem.len() {
            return Err(VmError::ImageTooLarge {
                image: image.len(),
                memory: self.mem.len(),
            });
        }
        self.mem[..image.len()].copy_from_slice(image);
        Ok(())
    }

    /// Reads a register (reads of `r0` always return 0).
    #[must_use]
    pub fn reg(&self, r: Reg) -> i32 {
        self.regs[r.index()]
    }

    /// Reads the memory word at `addr`, or `None` when out of range.
    #[must_use]
    pub fn mem_word(&self, addr: u32) -> Option<i32> {
        self.mem.get(addr as usize).copied()
    }

    /// The current program counter.
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether `halt` has executed.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Current call depth.
    #[must_use]
    pub fn call_depth(&self) -> u32 {
        self.depth
    }

    /// Dynamic instructions executed so far.
    #[must_use]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The output stream produced by `out` instructions.
    #[must_use]
    pub fn output(&self) -> &[i32] {
        &self.output
    }

    /// Digest of the full logical machine state (registers, pc, halt
    /// flag, call depth, executed count, output, memory) for differential
    /// testing; identical to [`Machine::state_digest`] whenever the two
    /// engines agree.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        state_digest_parts(
            |i| self.regs[i],
            self.pc,
            self.halted,
            self.depth,
            self.executed,
            &self.output,
            &self.mem,
        )
    }

    /// Runs the lowered program to `halt`, discarding trace records.
    ///
    /// # Errors
    ///
    /// Same contract as [`Machine::run`].
    pub fn run(&mut self, program: &DecodedProgram, limit: u64) -> Result<RunResult, VmError> {
        let mut sink = Trace::default();
        self.dispatch::<false>(program, limit, &mut sink)?;
        Ok(RunResult {
            executed: self.executed,
            output: self.output.clone(),
        })
    }

    /// The tight indexed dispatch loop. `CAPTURE` selects trace capture at
    /// compile time so the plain-run path pays nothing for it. A record
    /// is written as its shape id (its pc, into a trace seeded with
    /// `program.templates` on a machine at depth 0) plus its dynamic
    /// fields; `jal` and `jr` note the depth of the record after them.
    ///
    /// The same errors as the interpreter on the same dynamic step:
    /// [`VmError::StepLimit`] (checked before each step), pc faults, and
    /// memory faults. On error `trace` keeps the records captured before
    /// the fault, which match what the interpreter captured.
    fn dispatch<const CAPTURE: bool>(
        &mut self,
        program: &DecodedProgram,
        limit: u64,
        trace: &mut Trace,
    ) -> Result<(), VmError> {
        let ops = program.ops.as_slice();
        let mem_len = self.mem.len();
        while !self.halted {
            if self.executed >= limit {
                return Err(VmError::StepLimit { limit });
            }
            let pc = self.pc;
            let Some(op) = ops.get(pc as usize) else {
                return Err(VmError::PcOutOfRange { pc });
            };
            let mut next_pc = pc + 1;
            match *op {
                DecodedOp::Alu { op, rd, rs, rt } => {
                    self.regs[rd as usize] =
                        op.apply(self.regs[rs as usize], self.regs[rt as usize]);
                }
                DecodedOp::AluImm { op, rd, rs, imm } => {
                    self.regs[rd as usize] = op.apply(self.regs[rs as usize], imm);
                }
                DecodedOp::Li { rd, imm } => self.regs[rd as usize] = imm,
                DecodedOp::Lw { rd, base, offset } => {
                    let addr = i64::from(self.regs[base as usize]) + i64::from(offset);
                    if addr < 0 || addr as usize >= mem_len {
                        return Err(VmError::MemOutOfRange { pc, addr });
                    }
                    self.regs[rd as usize] = self.mem[addr as usize];
                    if CAPTURE {
                        trace.addrs.push(addr as u32);
                    }
                }
                DecodedOp::Sw { rs, base, offset } => {
                    let addr = i64::from(self.regs[base as usize]) + i64::from(offset);
                    if addr < 0 || addr as usize >= mem_len {
                        return Err(VmError::MemOutOfRange { pc, addr });
                    }
                    self.mem[addr as usize] = self.regs[rs as usize];
                    if CAPTURE {
                        trace.addrs.push(addr as u32);
                    }
                }
                DecodedOp::Branch {
                    cond,
                    rs,
                    rt,
                    target,
                } => {
                    let taken = cond.eval(self.regs[rs as usize], self.regs[rt as usize]);
                    if CAPTURE {
                        trace.push_taken(taken);
                    }
                    if taken {
                        next_pc = target;
                    }
                }
                DecodedOp::Jump { target } => next_pc = target,
                DecodedOp::Jal { target } => {
                    self.regs[Reg::RA.index()] = (pc + 1) as i32;
                    self.depth += 1;
                    if CAPTURE {
                        trace.set_depth(trace.len() + 1, self.depth);
                    }
                    next_pc = target;
                }
                DecodedOp::Jr { rs } => {
                    let t = self.regs[rs as usize];
                    if t < 0 {
                        return Err(VmError::PcOutOfRange { pc: t as u32 });
                    }
                    if self.depth > 0 {
                        self.depth -= 1;
                        if CAPTURE {
                            trace.set_depth(trace.len() + 1, self.depth);
                        }
                    }
                    next_pc = t as u32;
                }
                DecodedOp::Out { rs } => self.output.push(self.regs[rs as usize]),
                DecodedOp::Halt => {
                    self.halted = true;
                    self.executed += 1;
                    if CAPTURE {
                        trace.ids.push(pc);
                    }
                    continue;
                }
                DecodedOp::Nop => {}
            }
            self.pc = next_pc;
            self.executed += 1;
            if CAPTURE {
                trace.ids.push(pc);
            }
        }
        Ok(())
    }
}

/// Shared state-digest mixer (FNV-1a) so [`Machine`] and
/// [`DecodedMachine`] hash identical logical state identically.
pub(crate) fn state_digest_parts(
    reg: impl Fn(usize) -> i32,
    pc: u32,
    halted: bool,
    depth: u32,
    executed: u64,
    output: &[i32],
    mem: &[i32],
) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for i in 0..Reg::COUNT {
        mix(reg(i) as u32 as u64);
    }
    mix(u64::from(pc));
    mix(u64::from(halted));
    mix(u64::from(depth));
    mix(executed);
    mix(output.len() as u64);
    for &w in output {
        mix(w as u32 as u64);
    }
    // Memory is hashed word-wise; zero-dominated images mix fast enough
    // for test use and the digest stays order-sensitive.
    for &w in mem {
        mix(w as u32 as u64);
    }
    hash
}

/// Which execution engine captures a trace: the reference interpreter or
/// the pre-decoded fast path. The decoded engine is the default
/// everywhere; the interpreter is the reference the differential suites
/// hold it to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// The reference [`Machine`] interpreter.
    Interp,
    /// The pre-decoded fast path ([`DecodedMachine`]).
    #[default]
    Decoded,
}

impl Engine {
    /// Captures a trace with this engine; both engines produce
    /// byte-identical traces and errors.
    ///
    /// # Errors
    ///
    /// Same contract as [`trace_program`].
    pub fn trace(
        self,
        program: &Program,
        initial_memory: &[i32],
        limit: u64,
    ) -> Result<Trace, VmError> {
        match self {
            Engine::Interp => trace_program(program, initial_memory, limit),
            Engine::Decoded => trace_program_decoded(program, initial_memory, limit),
        }
    }
}

/// [`trace_program`] through the decoded engine: compiles the program and
/// runs the tight dispatch loop on a fresh machine.
///
/// # Errors
///
/// Identical to [`trace_program`] on every input.
pub fn trace_program_decoded(
    program: &Program,
    initial_memory: &[i32],
    limit: u64,
) -> Result<Trace, VmError> {
    trace_decoded(&DecodedProgram::compile(program), initial_memory, limit)
}

/// Trace capture from an already-lowered program (compile once, run many).
///
/// # Errors
///
/// Identical to [`trace_program`] on the corresponding source program.
pub fn trace_decoded(
    decoded: &DecodedProgram,
    initial_memory: &[i32],
    limit: u64,
) -> Result<Trace, VmError> {
    let mut machine = DecodedMachine::new();
    machine.try_load_memory(initial_memory)?;
    let mut trace = Trace::with_shapes(decoded.templates.clone());
    machine.dispatch::<true>(decoded, limit, &mut trace)?;
    trace.set_output(machine.output().to_vec());
    Ok(trace)
}

/// Captures a trace with the selected engine — the single entry point the
/// suite loader, store record path, serve miss path, and CLI all share.
///
/// # Errors
///
/// Same contract as [`trace_program`].
pub fn trace_program_with(
    engine: Engine,
    program: &Program,
    initial_memory: &[i32],
    limit: u64,
) -> Result<Trace, VmError> {
    engine.trace(program, initial_memory, limit)
}

impl Machine {
    /// Digest of the full logical machine state; see
    /// [`DecodedMachine::state_digest`].
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        state_digest_parts(
            |i| self.reg(Reg::new(i as u8)),
            self.pc(),
            self.is_halted(),
            self.call_depth(),
            self.executed(),
            self.output(),
            self.mem_slice(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::Assembler;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn countdown(n: i32) -> Program {
        let mut asm = Assembler::new();
        asm.li(r(1), n);
        asm.label("top");
        asm.addi(r(1), r(1), -1);
        asm.bgt_label(r(1), Reg::ZERO, "top");
        asm.out(r(1));
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn decoded_trace_matches_interpreter() {
        let p = countdown(10);
        let a = trace_program(&p, &[], 10_000).unwrap();
        let b = trace_program_decoded(&p, &[], 10_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn r0_write_goes_to_sink() {
        let mut asm = Assembler::new();
        asm.li(Reg::ZERO, 99);
        asm.out(Reg::ZERO);
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program_decoded(&p, &[], 100).unwrap();
        assert_eq!(t.output(), &[0]);
    }

    #[test]
    fn memory_fault_identical_to_interpreter() {
        let mut asm = Assembler::new();
        asm.li(r(1), -5);
        asm.lw(r(2), r(1), 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        assert_eq!(
            trace_program_decoded(&p, &[], 100).unwrap_err(),
            VmError::MemOutOfRange { pc: 1, addr: -5 }
        );
    }

    #[test]
    fn negative_jr_fault_identical_to_interpreter() {
        let mut asm = Assembler::new();
        asm.li(r(1), -1);
        asm.jr(r(1));
        asm.halt();
        let p = asm.assemble().unwrap();
        let a = trace_program(&p, &[], 100).unwrap_err();
        let b = trace_program_decoded(&p, &[], 100).unwrap_err();
        assert_eq!(a, b);
        assert_eq!(b, VmError::PcOutOfRange { pc: (-1i32) as u32 });
    }

    #[test]
    fn forward_jr_past_end_faults_on_next_fetch() {
        let mut asm = Assembler::new();
        asm.li(r(1), 100);
        asm.jr(r(1));
        asm.halt();
        let p = asm.assemble().unwrap();
        let a = trace_program(&p, &[], 100).unwrap_err();
        let b = trace_program_decoded(&p, &[], 100).unwrap_err();
        assert_eq!(a, b);
        assert_eq!(b, VmError::PcOutOfRange { pc: 100 });
    }

    #[test]
    fn step_limit_checked_before_each_step() {
        let p = countdown(100);
        assert_eq!(
            trace_program_decoded(&p, &[], 10).unwrap_err(),
            trace_program(&p, &[], 10).unwrap_err()
        );
        assert_eq!(
            trace_program_decoded(&p, &[], 0).unwrap_err(),
            VmError::StepLimit { limit: 0 }
        );
    }

    #[test]
    fn state_digests_agree_between_engines() {
        let p = countdown(7);
        let mut interp = Machine::with_memory_size(1024);
        while !interp.is_halted() {
            interp.step(&p).unwrap();
        }
        let decoded_p = DecodedProgram::compile(&p);
        let mut fast = DecodedMachine::with_memory_size(1024);
        let mut trace = Trace::with_shapes(decoded_p.templates.clone());
        fast.dispatch::<true>(&decoded_p, 10_000, &mut trace)
            .unwrap();
        assert_eq!(interp.state_digest(), fast.state_digest());
    }

    #[test]
    fn digest_detects_state_divergence() {
        let p = countdown(7);
        let mut a = Machine::with_memory_size(64);
        let mut b = Machine::with_memory_size(64);
        a.run(&p, 1_000).unwrap();
        b.run(&p, 1_000).unwrap();
        assert_eq!(a.state_digest(), b.state_digest());
        b.set_reg(r(5), 1);
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn from_instrs_rejects_what_program_new_rejects() {
        assert_eq!(
            DecodedProgram::from_instrs(&[]).unwrap_err(),
            DecodeError::Empty
        );
        assert_eq!(
            DecodedProgram::from_instrs(&[Instr::Jump { target: 9 }, Instr::Halt]).unwrap_err(),
            DecodeError::TargetOutOfRange { pc: 0, target: 9 }
        );
        assert_eq!(
            DecodedProgram::from_instrs(&[Instr::Nop]).unwrap_err(),
            DecodeError::NoHalt
        );
    }

    #[test]
    fn jr_table_spans_detected() {
        let instrs = vec![
            Instr::Nop,                // 0
            Instr::Jump { target: 5 }, // 1 ── table of 3
            Instr::Jump { target: 6 }, // 2
            Instr::Jump { target: 7 }, // 3
            Instr::Nop,                // 4
            Instr::Jump { target: 0 }, // 5: lone jump, not a table
            Instr::Nop,                // 6
            Instr::Halt,               // 7
        ];
        let d = DecodedProgram::from_instrs(&instrs).unwrap();
        assert_eq!(d.jr_tables().len(), 1);
        assert_eq!(d.jr_tables()[0].start, 1);
        assert_eq!(d.jr_tables()[0].targets, vec![5, 6, 7]);
        assert_eq!(d.jr_tables()[0].len(), 3);
        assert!(!d.jr_tables()[0].is_empty());
    }

    #[test]
    fn def_and_store_tables_match_instr_queries() {
        let p = countdown(3);
        let d = DecodedProgram::compile(&p);
        for (pc, instr) in p.iter() {
            assert_eq!(d.def_of(pc), instr.def());
            assert_eq!(d.is_store(pc), matches!(instr, Instr::Sw { .. }));
        }
        assert_eq!(d.def_of(10_000), None);
        assert!(!d.is_store(10_000));
        assert_eq!(d.len(), p.len());
        assert!(!d.is_empty());
    }

    #[test]
    fn engine_trace_entry_points_agree() {
        let p = countdown(5);
        let a = trace_program_with(Engine::Interp, &p, &[], 1_000).unwrap();
        let b = trace_program_with(Engine::Decoded, &p, &[], 1_000).unwrap();
        assert_eq!(a, b);
    }
}
