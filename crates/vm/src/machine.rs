use std::fmt;

use dee_isa::{Instr, Program, Reg};

use crate::trace::{BranchOutcome, TraceRecord};

/// Default data-memory size in words (4 MiB of 32-bit words).
pub const DEFAULT_MEM_WORDS: usize = 1 << 20;

/// Architectural state of the toy machine: 32 registers, a flat
/// word-addressed data memory, a program counter, and an output stream.
///
/// The machine is a *functional* (architecture-level) interpreter: one
/// instruction per [`step`](Machine::step), no timing. It produces the
/// dynamic [`TraceRecord`] stream consumed by the timing models.
///
/// # Example
///
/// ```
/// use dee_isa::{Assembler, Reg};
/// use dee_vm::{Machine, StepOutcome};
///
/// let mut asm = Assembler::new();
/// asm.li(Reg::new(1), 7);
/// asm.out(Reg::new(1));
/// asm.halt();
/// let p = asm.assemble()?;
///
/// let mut m = Machine::new();
/// while let (StepOutcome::Continue, _) = m.step(&p)? {}
/// assert_eq!(m.output(), &[7]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    regs: [i32; Reg::COUNT],
    mem: Vec<i32>,
    pc: u32,
    halted: bool,
    depth: u32,
    executed: u64,
    output: Vec<i32>,
}

/// Whether a step left the machine running or halted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The machine can execute another instruction.
    Continue,
    /// A `halt` was executed.
    Halted,
}

/// Runtime error raised by the interpreter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VmError {
    /// The program counter left the program (bad `jr` target, usually).
    PcOutOfRange {
        /// The offending program counter value.
        pc: u32,
    },
    /// A load or store computed an address outside data memory.
    MemOutOfRange {
        /// Address of the faulting instruction.
        pc: u32,
        /// The faulting effective word address.
        addr: i64,
    },
    /// [`Machine::run`] hit its dynamic instruction limit.
    StepLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
    /// `step` was called on a halted machine.
    AlreadyHalted,
    /// A memory image larger than the machine's memory was loaded.
    ImageTooLarge {
        /// Words in the rejected image.
        image: usize,
        /// Words of machine memory.
        memory: usize,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            VmError::PcOutOfRange { pc } => write!(f, "program counter {pc} out of range"),
            VmError::MemOutOfRange { pc, addr } => {
                write!(f, "memory address {addr} out of range at pc {pc}")
            }
            VmError::StepLimit { limit } => write!(f, "dynamic instruction limit {limit} exceeded"),
            VmError::AlreadyHalted => f.write_str("machine is halted"),
            VmError::ImageTooLarge { image, memory } => {
                write!(
                    f,
                    "memory image of {image} words exceeds {memory}-word memory"
                )
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Summary of a completed [`Machine::run`].
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Number of dynamic instructions executed.
    pub executed: u64,
    /// The program's output stream.
    pub output: Vec<i32>,
}

/// A complete, explicit copy of the machine's architectural state.
///
/// Everything [`Machine::step`] reads or writes lives here, so restoring
/// a captured state and stepping forward is bit-identical to never having
/// stopped. `dee-snap` serializes this into `DEESNAP1` checkpoints; the
/// fields are public so snapshot encoders can delta-compress the memory
/// image without an extra copy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineState {
    /// The 32 architectural registers (`r0` included, always zero).
    pub regs: [i32; Reg::COUNT],
    /// The full data-memory image.
    pub mem: Vec<i32>,
    /// The program counter.
    pub pc: u32,
    /// Whether `halt` has executed.
    pub halted: bool,
    /// Current call depth.
    pub depth: u32,
    /// Dynamic instructions executed so far.
    pub executed: u64,
    /// The output stream produced so far.
    pub output: Vec<i32>,
}

impl MachineState {
    /// Number of architectural registers in [`MachineState::regs`],
    /// re-exported so serializers need not depend on `dee-isa`.
    pub const REG_COUNT: usize = Reg::COUNT;
}

impl Default for Machine {
    fn default() -> Self {
        Self::new()
    }
}

impl Machine {
    /// Creates a machine with [`DEFAULT_MEM_WORDS`] words of zeroed memory.
    ///
    /// The stack pointer starts at the top of memory; all other registers
    /// are zero.
    #[must_use]
    pub fn new() -> Self {
        Self::with_memory_size(DEFAULT_MEM_WORDS)
    }

    /// Creates a machine with `words` words of zeroed memory.
    #[must_use]
    pub fn with_memory_size(words: usize) -> Self {
        let mut m = Machine {
            regs: [0; Reg::COUNT],
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

    /// Copies `image` into memory starting at word 0.
    ///
    /// # Panics
    ///
    /// Panics if the image is larger than memory. Untrusted images
    /// (request bodies) should go through
    /// [`try_load_memory`](Self::try_load_memory) instead.
    pub fn load_memory(&mut self, image: &[i32]) {
        self.try_load_memory(image).expect("memory image too large");
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
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes a register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: i32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
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

    /// Current call depth (incremented by `jal`, decremented by `jr`).
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

    /// The full data memory, for state digesting.
    pub(crate) fn mem_slice(&self) -> &[i32] {
        &self.mem
    }

    /// Captures the complete architectural state for checkpointing.
    #[must_use]
    pub fn snapshot_state(&self) -> MachineState {
        MachineState {
            regs: self.regs,
            mem: self.mem.clone(),
            pc: self.pc,
            halted: self.halted,
            depth: self.depth,
            executed: self.executed,
            output: self.output.clone(),
        }
    }

    /// The machine's state by value: [`snapshot_state`](Self::snapshot_state)
    /// without copying the memory image or the output stream, for a
    /// caller done with the machine.
    #[must_use]
    pub fn into_state(self) -> MachineState {
        MachineState {
            regs: self.regs,
            mem: self.mem,
            pc: self.pc,
            halted: self.halted,
            depth: self.depth,
            executed: self.executed,
            output: self.output,
        }
    }

    /// Builds a machine from state captured by
    /// [`snapshot_state`](Self::snapshot_state) or
    /// [`into_state`](Self::into_state), taking its memory image
    /// and output stream by value rather than copying them. The memory is
    /// `state.mem.len()` words.
    ///
    /// Stepping the result is bit-identical to the uninterrupted run the
    /// state was captured from (same records, output, and faults).
    #[must_use]
    pub fn from_state(state: MachineState) -> Self {
        Machine {
            regs: state.regs,
            mem: state.mem,
            pc: state.pc,
            halted: state.halted,
            depth: state.depth,
            executed: state.executed,
            output: state.output,
        }
    }

    fn effective_addr(&self, pc: u32, base: Reg, offset: i32) -> Result<u32, VmError> {
        let addr = i64::from(self.reg(base)) + i64::from(offset);
        if addr < 0 || addr as usize >= self.mem.len() {
            Err(VmError::MemOutOfRange { pc, addr })
        } else {
            Ok(addr as u32)
        }
    }

    /// Executes one instruction and returns its dynamic trace record.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] when the machine is already halted, the program
    /// counter is out of range, or a memory access faults.
    pub fn step(&mut self, program: &Program) -> Result<(StepOutcome, TraceRecord), VmError> {
        if self.halted {
            return Err(VmError::AlreadyHalted);
        }
        let pc = self.pc;
        let instr = *program.get(pc).ok_or(VmError::PcOutOfRange { pc })?;

        let mut record = TraceRecord {
            pc,
            srcs: instr.uses(),
            dst: instr.def(),
            mem_read: None,
            mem_write: None,
            branch: None,
            depth: self.depth,
        };

        let mut next_pc = pc + 1;
        match instr {
            Instr::Alu { op, rd, rs, rt } => {
                let v = op.apply(self.reg(rs), self.reg(rt));
                self.set_reg(rd, v);
            }
            Instr::AluImm { op, rd, rs, imm } => {
                let v = op.apply(self.reg(rs), imm);
                self.set_reg(rd, v);
            }
            Instr::Li { rd, imm } => self.set_reg(rd, imm),
            Instr::Lw { rd, base, offset } => {
                let addr = self.effective_addr(pc, base, offset)?;
                record.mem_read = Some(addr);
                self.set_reg(rd, self.mem[addr as usize]);
            }
            Instr::Sw { rs, base, offset } => {
                let addr = self.effective_addr(pc, base, offset)?;
                record.mem_write = Some(addr);
                self.mem[addr as usize] = self.reg(rs);
            }
            Instr::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                let taken = cond.eval(self.reg(rs), self.reg(rt));
                record.branch = Some(BranchOutcome { taken, target });
                if taken {
                    next_pc = target;
                }
            }
            Instr::Jump { target } => next_pc = target,
            Instr::Jal { target } => {
                self.set_reg(Reg::RA, (pc + 1) as i32);
                self.depth += 1;
                next_pc = target;
            }
            Instr::Jr { rs } => {
                let t = self.reg(rs);
                if t < 0 {
                    return Err(VmError::PcOutOfRange { pc: t as u32 });
                }
                self.depth = self.depth.saturating_sub(1);
                next_pc = t as u32;
            }
            Instr::Out { rs } => self.output.push(self.reg(rs)),
            Instr::Halt => {
                self.halted = true;
                self.executed += 1;
                return Ok((StepOutcome::Halted, record));
            }
            Instr::Nop => {}
        }

        self.pc = next_pc;
        self.executed += 1;
        Ok((StepOutcome::Continue, record))
    }

    /// Runs the program to `halt`, discarding trace records.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::StepLimit`] if more than `limit` dynamic
    /// instructions execute, or any error from [`step`](Machine::step).
    pub fn run(&mut self, program: &Program, limit: u64) -> Result<RunResult, VmError> {
        while !self.halted {
            if self.executed >= limit {
                return Err(VmError::StepLimit { limit });
            }
            self.step(program)?;
        }
        Ok(RunResult {
            executed: self.executed,
            output: self.output.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::Assembler;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn arithmetic_and_output() {
        let mut asm = Assembler::new();
        asm.li(r(1), 6);
        asm.li(r(2), 7);
        asm.mul(r(3), r(1), r(2));
        asm.out(r(3));
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let result = m.run(&p, 100).unwrap();
        assert_eq!(result.output, vec![42]);
        assert_eq!(result.executed, 5);
        assert!(m.is_halted());
    }

    #[test]
    fn loop_executes_correct_iteration_count() {
        let mut asm = Assembler::new();
        asm.li(r(1), 10);
        asm.li(r(2), 0);
        asm.label("top");
        asm.add(r(2), r(2), r(1));
        asm.addi(r(1), r(1), -1);
        asm.bgt_label(r(1), Reg::ZERO, "top");
        asm.out(r(2));
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let result = m.run(&p, 1000).unwrap();
        assert_eq!(result.output, vec![55]);
    }

    #[test]
    fn memory_round_trip() {
        let mut asm = Assembler::new();
        asm.li(r(1), 100); // base address
        asm.li(r(2), -9);
        asm.sw(r(2), r(1), 3);
        asm.lw(r(3), r(1), 3);
        asm.out(r(3));
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let result = m.run(&p, 100).unwrap();
        assert_eq!(result.output, vec![-9]);
        assert_eq!(m.mem_word(103), Some(-9));
    }

    #[test]
    fn call_and_return_with_stack() {
        let mut asm = Assembler::new();
        asm.li(r(4), 5);
        asm.call_label("double");
        asm.out(r(2));
        asm.halt();
        asm.label("double");
        asm.add(r(2), r(4), r(4));
        asm.ret();
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let result = m.run(&p, 100).unwrap();
        assert_eq!(result.output, vec![10]);
        assert_eq!(m.call_depth(), 0);
    }

    #[test]
    fn call_depth_tracked_in_records() {
        let mut asm = Assembler::new();
        asm.call_label("f"); // depth 0
        asm.halt(); // depth 0
        asm.label("f");
        asm.nop(); // depth 1
        asm.ret(); // depth 1
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let mut depths = Vec::new();
        loop {
            let (outcome, rec) = m.step(&p).unwrap();
            depths.push((rec.pc, rec.depth));
            if outcome == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(depths, vec![(0, 0), (2, 1), (3, 1), (1, 0)]);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut asm = Assembler::new();
        asm.li(Reg::ZERO, 99);
        asm.out(Reg::ZERO);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let result = m.run(&p, 100).unwrap();
        assert_eq!(result.output, vec![0]);
    }

    #[test]
    fn memory_fault_reported_with_pc() {
        let mut asm = Assembler::new();
        asm.li(r(1), -5);
        asm.lw(r(2), r(1), 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let err = m.run(&p, 100).unwrap_err();
        assert_eq!(err, VmError::MemOutOfRange { pc: 1, addr: -5 });
    }

    #[test]
    fn step_limit_enforced() {
        let mut asm = Assembler::new();
        asm.label("spin");
        asm.j_label("spin");
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let err = m.run(&p, 50).unwrap_err();
        assert_eq!(err, VmError::StepLimit { limit: 50 });
    }

    #[test]
    fn step_after_halt_is_error() {
        let mut asm = Assembler::new();
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let (outcome, _) = m.step(&p).unwrap();
        assert_eq!(outcome, StepOutcome::Halted);
        assert_eq!(m.step(&p).unwrap_err(), VmError::AlreadyHalted);
    }

    #[test]
    fn branch_records_outcome_and_target() {
        let mut asm = Assembler::new();
        asm.li(r(1), 1);
        asm.beq_label(r(1), Reg::ZERO, "skip"); // not taken
        asm.bne_label(r(1), Reg::ZERO, "skip"); // taken
        asm.nop();
        asm.label("skip");
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut m = Machine::new();
        let mut branches = Vec::new();
        loop {
            let (outcome, rec) = m.step(&p).unwrap();
            if let Some(b) = rec.branch {
                branches.push((rec.pc, b.taken, b.target));
            }
            if outcome == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(branches, vec![(1, false, 4), (2, true, 4)]);
    }

    #[test]
    fn stack_pointer_starts_at_top() {
        let m = Machine::with_memory_size(1024);
        assert_eq!(m.reg(Reg::SP), 1024);
    }

    #[test]
    fn try_load_memory_rejects_oversized_images() {
        let mut m = Machine::with_memory_size(2);
        assert_eq!(
            m.try_load_memory(&[1, 2, 3]),
            Err(VmError::ImageTooLarge {
                image: 3,
                memory: 2
            })
        );
        assert!(m.try_load_memory(&[1, 2]).is_ok());
        assert_eq!(m.mem_word(0), Some(1));
        assert_eq!(m.mem_word(1), Some(2));
    }

    #[test]
    fn load_memory_image() {
        let mut m = Machine::with_memory_size(16);
        m.load_memory(&[1, 2, 3]);
        assert_eq!(m.mem_word(0), Some(1));
        assert_eq!(m.mem_word(2), Some(3));
        assert_eq!(m.mem_word(3), Some(0));
    }

    #[test]
    #[should_panic(expected = "memory image too large")]
    fn oversized_image_panics() {
        let mut m = Machine::with_memory_size(2);
        m.load_memory(&[1, 2, 3]);
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut asm = Assembler::new();
        asm.li(r(1), 6);
        asm.li(r(2), 0);
        asm.label("top");
        asm.sw(r(1), Reg::ZERO, 32);
        asm.lw(r(2), Reg::ZERO, 32);
        asm.out(r(2));
        asm.addi(r(1), r(1), -1);
        asm.bgt_label(r(1), Reg::ZERO, "top");
        asm.halt();
        let p = asm.assemble().unwrap();

        // Reference: run straight through, collecting records.
        let mut oracle = Machine::with_memory_size(256);
        let mut oracle_records = Vec::new();
        loop {
            let (outcome, rec) = oracle.step(&p).unwrap();
            oracle_records.push(rec);
            if outcome == StepOutcome::Halted {
                break;
            }
        }

        // Checkpoint mid-run, clobber the machine, restore, resume.
        let mut m = Machine::with_memory_size(256);
        let mut records = Vec::new();
        for _ in 0..7 {
            let (_, rec) = m.step(&p).unwrap();
            records.push(rec);
        }
        let state = m.snapshot_state();
        // Moving the state out gives what copying it does.
        let moved = m.clone().into_state();
        assert_eq!(moved, state);
        m.run(&p, 10_000).unwrap(); // run the original to completion
        let mut m = Machine::from_state(moved);
        assert_eq!(m.snapshot_state(), state);
        loop {
            let (outcome, rec) = m.step(&p).unwrap();
            records.push(rec);
            if outcome == StepOutcome::Halted {
                break;
            }
        }
        assert_eq!(records, oracle_records);
        assert_eq!(m.output(), oracle.output());
        assert_eq!(m.state_digest(), oracle.state_digest());
    }
}
