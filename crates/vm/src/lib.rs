//! Functional interpreter and dynamic trace capture for the
//! [`dee-isa`](dee_isa) toy ISA.
//!
//! The DEE paper's evaluation is *trace driven*: every execution model is a
//! post-processing of the program's dynamic instruction stream. This crate
//! provides:
//!
//! * [`Machine`] — an architectural-level interpreter (registers, flat
//!   word-addressed memory, output stream) with single-step execution;
//! * [`TraceRecord`] — one dynamic instruction: static address, registers
//!   read/written, memory words read/written, branch outcome, call depth;
//! * [`Trace`] — a captured run plus derived statistics (branch counts,
//!   taken rate, branch-path lengths), the input to the
//!   `dee-ilpsim` models and the `dee-predict` accuracy harness. It holds
//!   its records compactly (a shape id per record plus the dynamic
//!   fields) and decodes them through [`Trace::records`].
//!
//! All instructions have unit latency and there are no exceptions, matching
//! the paper's machine assumptions (§5.1).
//!
//! # Example
//!
//! ```
//! use dee_isa::{Assembler, Reg};
//! use dee_vm::trace_program;
//!
//! let mut asm = Assembler::new();
//! let r1 = Reg::new(1);
//! asm.li(r1, 3);
//! asm.label("top");
//! asm.addi(r1, r1, -1);
//! asm.bgt_label(r1, Reg::ZERO, "top");
//! asm.out(r1);
//! asm.halt();
//! let program = asm.assemble()?;
//!
//! let trace = trace_program(&program, &[], 1_000)?;
//! assert_eq!(trace.output(), &[0]);
//! assert_eq!(trace.num_cond_branches(), 3); // three loop iterations
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decoded;
mod machine;
mod serialize;
mod trace;

pub use decoded::{
    trace_decoded, trace_program_decoded, trace_program_with, DecodeError, DecodedMachine,
    DecodedProgram, Engine, JrTable,
};
pub use machine::{Machine, MachineState, RunResult, StepOutcome, VmError, DEFAULT_MEM_WORDS};
pub use serialize::{TraceReader, RECORD_BYTES, TRACE_FORMAT_VERSION};
pub use trace::{
    fnv1a, fnv1a_words, output_checksum, trace_program, BranchOutcome, Records, Trace,
    TraceBuilder, TraceRecord,
};

/// Ignored: `dee_bench::BenchEntry::prepare_probs` takes a chunk size
/// that nothing reads. Kept because the repository benchmark
/// (`perfbench/`) passes this constant there.
pub const DEFAULT_CHUNK_RECORDS: usize = 64 * 1024;
