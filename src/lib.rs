//! Disjoint Eager Execution (DEE) — a reproduction of Uht & Sindagi,
//! "Disjoint Eager Execution: An Optimal Form of Speculative Execution",
//! MICRO-28, 1995.
//!
//! This facade crate re-exports every subsystem of the reproduction:
//!
//! * [`isa`] — the toy MIPS-R3000-like instruction set, assembler, and
//!   control-dependence analyses;
//! * [`vm`] — the functional interpreter and dynamic trace capture;
//! * [`workloads`] — the benchmark registry: five SPECint92-like
//!   programs, the `synacor` bytecode-interpreter workload, and any
//!   generated program registered at runtime;
//! * [`gen`] — the seeded workload-space generator: deterministic toy-ISA
//!   programs from an eight-knob [`gen::GenSpec`], each carrying its
//!   spec+seed header so every artifact is regenerable (`dee gen`);
//! * [`predict`] — branch predictors (2-bit counter, PAp, gshare, static);
//! * [`theory`] — DEE theory: optimal resource assignment and the static
//!   tree heuristic (`dee-core`);
//! * [`ilpsim`] — the resource-constrained trace-driven ILP limit simulator
//!   behind every figure of the paper's evaluation;
//! * [`levo`] — the Levo/CONDEL-2 static-instruction-window machine model;
//! * [`mem`] — the data-cache model (the paper's future-work memory
//!   system), pluggable into the ILP simulator via per-access latencies;
//! * [`serve`] — the resident simulation server: a worker pool and a
//!   sharded prepared-trace cache behind a dependency-free HTTP/JSON API
//!   (`dee serve`);
//! * [`store`] — the persistent, checksummed trace-artifact store:
//!   record-once/replay-many containers with streaming replay, behind
//!   `dee serve --store` and the `dee trace record|info|verify|ls|gc`
//!   subcommands;
//! * [`snap`] — serializable `DEESNAP1` VM snapshots: complete machine +
//!   predictor state at a record index of a published trace, enabling
//!   warm-start range simulation and time travel (`dee snap ls|info|verify`,
//!   `dee trace record --checkpoint-stride`, `POST /simulate_range`);
//! * [`analyze`] — static analysis over toy-ISA programs: CFG dataflow
//!   (liveness, reaching definitions, constant bounds), typed `DEE-*`
//!   lints, and the static branch census that cross-checks dynamic traces
//!   (`dee analyze`).
//!
//! # Quickstart
//!
//! ```
//! use dee::prelude::*;
//!
//! // Build a workload, trace it, and measure DEE-CD-MF speedup.
//! let workload = dee::workloads::xlisp::build(Scale::Tiny);
//! let trace = workload.capture_trace().expect("workload runs to completion");
//! let prepared = PreparedTrace::new(&workload.program, &trace);
//! let outcome = simulate(&prepared, &SimConfig::new(Model::DeeCdMf, 32));
//! assert!(outcome.speedup() > 1.0);
//! ```

#![forbid(unsafe_code)]

pub use dee_analyze as analyze;
pub use dee_core as theory;
pub use dee_gen as gen;
pub use dee_ilpsim as ilpsim;
pub use dee_isa as isa;
pub use dee_levo as levo;
pub use dee_mem as mem;
pub use dee_predict as predict;
pub use dee_serve as serve;
pub use dee_snap as snap;
pub use dee_store as store;
pub use dee_vm as vm;
pub use dee_workloads as workloads;

/// Convenient re-exports of the most common types.
pub mod prelude {
    pub use dee_core::{StaticTree, TreeParams};
    pub use dee_gen::{generate, GenSpec};
    pub use dee_ilpsim::{simulate, LatencyModel, Model, PreparedTrace, SimConfig, SimOutcome};
    pub use dee_isa::{Assembler, Instr, Program, Reg};
    pub use dee_levo::{Levo, LevoConfig, LevoReport, PredictorKind};
    pub use dee_mem::{CacheConfig, MemoryHierarchy};
    pub use dee_predict::{BranchPredictor, TwoBitCounter};
    pub use dee_serve::{Server, ServerConfig};
    pub use dee_vm::{Trace, TraceRecord};
    pub use dee_workloads::{Scale, Workload, WorkloadRegistry};
}
