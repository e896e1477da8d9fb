//! The resource-constrained, trace-driven ILP limit simulator behind every
//! figure of the paper's evaluation (§5).
//!
//! Following §5.1, an "appropriately shaped static tree pattern is
//! superimposed on the dynamic execution trace": code executes only where
//! the tree is; the tree advances one branch path at a time, when its
//! earliest (root) path has fully executed and its exit branch resolved; a
//! branch resolving deeper in the tree frees nothing until everything above
//! it has retired. Branch-path resources `E_T` bound the tree's size; PEs
//! are implicitly (not explicitly) limited; every instruction has unit
//! latency; minimal data dependences are assumed (register flow dependences
//! via renaming, memory flow dependences store→load per word).
//!
//! # The eight models (§5.2)
//!
//! | model      | window (real paths) | mispredict penalty scope  | branches |
//! |------------|---------------------|---------------------------|----------|
//! | `EE`       | `d : 2^(d+1)-2 ≤ E_T` | none (both paths in tree) | parallel |
//! | `SP`       | `E_T`               | all later instructions    | serial   |
//! | `DEE`      | `l` of static tree  | all later, *DEE-covered waived* | serial |
//! | `SP-CD`    | `E_T`               | control-dependent region  | serial   |
//! | `DEE-CD`   | `l`                 | CD region, covered waived | serial   |
//! | `SP-CD-MF` | `E_T`               | control-dependent region  | parallel |
//! | `DEE-CD-MF`| `l`                 | CD region, covered waived | parallel |
//! | `Oracle`   | unlimited           | none                      | parallel |
//!
//! The eight models run four loops: a DEE tree runs its SP model's loop
//! with the main line as the window, and the oracle runs `EE`'s loop at a
//! window no trace fills, so it reads neither `E_T` nor a PE cap and
//! reports `E_T` 0. [`simulate`] answers a call from the trace's window
//! memo when a run it already made is that run or proves it (DESIGN.md
//! §4, item 9), the oracle included.
//!
//! Interpretations (recorded here because the paper inherits its model
//! semantics from Lam & Wilson and from the Levo machine sketch):
//!
//! * **Correctly predicted branches cost nothing** in every speculative
//!   model — speculation removes their control dependences.
//! * **A mispredicted branch** resolving at cycle `t` delays its penalty
//!   scope to `t + 1`. In the restrictive models the scope is every
//!   dynamically later instruction; in the `-CD` models it is the dynamic
//!   control-dependence region — instructions between the branch and its
//!   reconvergence point (the branch's immediate post-dominator, matched at
//!   the same call depth). Code past the join is *not* delayed: the paper's
//!   static instruction window holds it regardless of the branch direction
//!   (§4.1), which is what "reduced control dependencies" buys.
//! * **Loop-back mispredicts are restrictive** in the `-CD` models: when
//!   the predicted (wrong) direction can re-reach the branch before its
//!   reconvergence point, the wrong path crosses an iteration boundary and
//!   invalidates the operand context of everything younger. So is a
//!   branch that reconverges only at program exit.
//! * **The join is searched at most 4096 records ahead**; a join further
//!   away, or none, is treated as lying at 4096 records. The search runs
//!   once per prepared trace (see [`PreparedTraceBuilder`]).
//! * **DEE coverage**: a mispredicted branch resolving at tree level
//!   `k ≤ h_DEE` has a DEE path holding the correct continuation for
//!   `h_DEE − k + 1` branch paths; instructions within that coverage are
//!   exempt from its penalty (they executed in the DEE path), for their
//!   whole lifetime. The level is one plus the number of older branches
//!   still unresolved when the branch resolves, so it is 1 in every model
//!   that serializes branches.
//! * **Serial vs multiple-flow branches**: in non-MF models a conditional
//!   branch may not issue before the dynamically previous conditional
//!   branch resolved (single flow of control, "branches serialized");
//!   `-MF` models drop this constraint.
//! * **Window entry**: real-trace path `P` enters the window the cycle
//!   after path `P − W` retires (in-order retirement, tree movement). The
//!   `EE` tree covers both directions at every level, so its window is only
//!   `d` deep but misprediction-penalty-free; `SP`'s chain is `E_T` deep;
//!   `DEE`'s main line is `l = E_T − h(h+1)/2` deep with the DEE region
//!   providing the coverage waivers.
//! * **Indirect jumps and calls** (`jr`/`jal`) are not predicted and carry
//!   no penalty (a return-address stack is assumed); only conditional
//!   branches are speculated, as in the paper.
//!
//! [`reference`](mod@reference) states the same rules as a cycle-stepped machine, for
//! checking [`simulate`] against.
//!
//! # Example
//!
//! ```
//! use dee_ilpsim::{simulate, Model, PreparedTrace, SimConfig};
//! use dee_workloads::{xlisp, Scale};
//!
//! let w = xlisp::build(Scale::Tiny);
//! let trace = w.capture_trace().expect("runs");
//! let prepared = PreparedTrace::new(&w.program, &trace);
//! let oracle = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
//! let sp = simulate(&prepared, &SimConfig::new(Model::Sp, 32));
//! assert!(oracle.speedup() > sp.speedup());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod model;
mod prepare;
mod probs;
pub mod reference;
mod stats;

pub use engine::{riseman_foster, simulate};
pub use model::{LatencyModel, Model, SimConfig};
pub use prepare::{MemoAnswers, PreparedTrace, PreparedTraceBuilder};
pub use probs::{DirectionPredictor, ProbSource};
pub use stats::{harmonic_mean, SimOutcome};

/// Send/Sync audit (DESIGN.md §8): the sweep pool in `dee-bench` and the
/// `/batch` fan-out in `dee-serve` share one [`PreparedTrace`] per workload
/// across worker threads and move configs/outcomes between them. Every
/// type here is plain owned data — [`simulate`] takes `&PreparedTrace`
/// and builds its loop state locally — except the trace's window memo,
/// which sits behind a `Mutex` and only ever holds finished runs and what
/// they proved, so the order threads fill it in moves no result. This assertion turns an
/// accidental `Rc`/`RefCell`/raw-pointer regression into a compile error
/// rather than a data race.
const _SEND_SYNC_AUDIT: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedTrace>();
    assert_send_sync::<SimConfig>();
    assert_send_sync::<Model>();
    assert_send_sync::<LatencyModel>();
    assert_send_sync::<SimOutcome>();
};
