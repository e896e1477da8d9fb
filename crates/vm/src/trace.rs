use dee_isa::{Program, Reg};

use crate::machine::{Machine, StepOutcome, VmError};

/// The outcome of a dynamic conditional branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchOutcome {
    /// Whether the branch was taken.
    pub taken: bool,
    /// The static taken-target.
    pub target: u32,
}

/// One dynamic instruction in a captured trace.
///
/// Records everything the timing models need: the static address (for
/// predictors and reconvergence analysis), register sources and sink (for
/// minimal data dependences via renaming), effective memory addresses (for
/// memory flow dependences), the branch outcome, and the call depth (for
/// depth-aware dynamic reconvergence).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Static instruction address.
    pub pc: u32,
    /// Registers read (reads of `r0` omitted).
    pub srcs: [Option<Reg>; 2],
    /// Register written (writes to `r0` omitted).
    pub dst: Option<Reg>,
    /// Word address read, for loads.
    pub mem_read: Option<u32>,
    /// Word address written, for stores.
    pub mem_write: Option<u32>,
    /// Branch outcome, for conditional branches.
    pub branch: Option<BranchOutcome>,
    /// Call depth at execution (0 = top level).
    pub depth: u32,
}

impl TraceRecord {
    /// Whether this record is a conditional branch.
    #[must_use]
    pub fn is_cond_branch(&self) -> bool {
        self.branch.is_some()
    }
}

/// A captured dynamic execution: the record stream plus the program output.
///
/// Use [`trace_program`] to produce one. The paper's notion of a *branch
/// path* — "the dynamic code between branches, including the exit branch" —
/// is exposed through [`path_bounds`](Trace::path_bounds) and the derived
/// statistics.
#[derive(Clone, Debug)]
pub struct Trace {
    records: Vec<TraceRecord>,
    output: Vec<i32>,
}

impl Trace {
    /// Wraps a raw record stream and output (mostly for tests; prefer
    /// [`trace_program`]).
    #[must_use]
    pub fn from_parts(records: Vec<TraceRecord>, output: Vec<i32>) -> Self {
        Trace { records, output }
    }

    /// The dynamic instruction records, in execution order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The program's output stream.
    #[must_use]
    pub fn output(&self) -> &[i32] {
        &self.output
    }

    /// Number of dynamic conditional branches.
    #[must_use]
    pub fn num_cond_branches(&self) -> usize {
        self.records.iter().filter(|r| r.is_cond_branch()).count()
    }

    /// Iterates `(pc, outcome)` for every dynamic conditional branch, in
    /// execution order.
    ///
    /// This is the static/dynamic cross-check hook: `dee-analyze`'s branch
    /// census consumes these pairs to verify that every dynamic branch is a
    /// static census member with a matching taken-target.
    pub fn branch_outcomes(&self) -> impl Iterator<Item = (u32, BranchOutcome)> + '_ {
        self.records
            .iter()
            .filter_map(|r| r.branch.map(|b| (r.pc, b)))
    }

    /// Fraction of dynamic conditional branches that were taken, or `None`
    /// when the trace has no branches.
    #[must_use]
    pub fn taken_rate(&self) -> Option<f64> {
        let branches: Vec<_> = self.records.iter().filter_map(|r| r.branch).collect();
        if branches.is_empty() {
            return None;
        }
        let taken = branches.iter().filter(|b| b.taken).count();
        Some(taken as f64 / branches.len() as f64)
    }

    /// Start indices (into [`records`](Trace::records)) of each branch path.
    ///
    /// A branch path ends at each conditional branch (inclusive); a final
    /// partial path covers any trailing non-branch instructions. The result
    /// always starts with 0 for non-empty traces.
    #[must_use]
    pub fn path_bounds(&self) -> Vec<u32> {
        let mut bounds = Vec::new();
        if self.records.is_empty() {
            return bounds;
        }
        bounds.push(0);
        for (i, r) in self.records.iter().enumerate() {
            if r.is_cond_branch() && i + 1 < self.records.len() {
                bounds.push((i + 1) as u32);
            }
        }
        bounds
    }

    /// Mean branch-path length in instructions (the paper reports ~5 for
    /// SPECint92-like code).
    #[must_use]
    pub fn mean_path_len(&self) -> f64 {
        let bounds = self.path_bounds();
        if bounds.is_empty() {
            return 0.0;
        }
        self.records.len() as f64 / bounds.len() as f64
    }

    /// A stable checksum of the output stream, for validating workloads
    /// across execution engines.
    #[must_use]
    pub fn output_checksum(&self) -> u64 {
        output_checksum(&self.output)
    }
}

/// FNV-1a 64-bit hash: tiny, stable across runs and hosts. It keys the
/// serve cache and the artifact store and names generated workloads, so
/// its values are part of those formats.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// [`fnv1a`] over a word slice (little-endian), for memory images and
/// output streams.
#[must_use]
pub fn fnv1a_words(words: &[i32]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |hash, w| {
        fnv1a_extend(hash, &w.to_le_bytes())
    })
}

fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a over the output words; used to validate that different execution
/// engines (functional VM, Levo model) computed identical results.
#[must_use]
pub fn output_checksum(output: &[i32]) -> u64 {
    fnv1a_words(output)
}

/// Runs `program` on a fresh [`Machine`] with `initial_memory` loaded at
/// word 0, capturing the full dynamic trace.
///
/// # Errors
///
/// Returns [`VmError::StepLimit`] if the program does not halt within
/// `limit` dynamic instructions, [`VmError::ImageTooLarge`] when the
/// initial memory does not fit the machine, or any interpreter fault.
pub fn trace_program(
    program: &Program,
    initial_memory: &[i32],
    limit: u64,
) -> Result<Trace, VmError> {
    let mut machine = Machine::new();
    machine.try_load_memory(initial_memory)?;
    let mut records = Vec::new();
    loop {
        if machine.executed() >= limit {
            return Err(VmError::StepLimit { limit });
        }
        let (outcome, record) = machine.step(program)?;
        records.push(record);
        if outcome == StepOutcome::Halted {
            break;
        }
    }
    Ok(Trace {
        records,
        output: machine.output().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::Assembler;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn countdown_trace(n: i32) -> Trace {
        let mut asm = Assembler::new();
        asm.li(r(1), n);
        asm.label("top");
        asm.addi(r(1), r(1), -1);
        asm.bgt_label(r(1), Reg::ZERO, "top");
        asm.out(r(1));
        asm.halt();
        let p = asm.assemble().unwrap();
        trace_program(&p, &[], 10_000).unwrap()
    }

    #[test]
    fn branch_outcomes_yields_every_dynamic_branch() {
        let t = countdown_trace(3);
        let outcomes: Vec<_> = t.branch_outcomes().collect();
        assert_eq!(outcomes.len(), t.num_cond_branches());
        // The countdown branch sits at pc 2 and is taken twice, then falls
        // through.
        assert!(outcomes.iter().all(|&(pc, b)| pc == 2 && b.target == 1));
        assert_eq!(outcomes.iter().filter(|&&(_, b)| b.taken).count(), 2);
    }

    #[test]
    fn oversized_initial_memory_is_a_typed_error() {
        let mut asm = Assembler::new();
        asm.halt();
        let p = asm.assemble().unwrap();
        let image = vec![0; crate::DEFAULT_MEM_WORDS + 1];
        assert!(matches!(
            trace_program(&p, &image, 10),
            Err(VmError::ImageTooLarge { .. })
        ));
    }

    #[test]
    fn trace_captures_every_dynamic_instruction() {
        let t = countdown_trace(4);
        // li + 4*(addi+branch) + out + halt = 11
        assert_eq!(t.len(), 11);
        assert_eq!(t.num_cond_branches(), 4);
        assert_eq!(t.output(), &[0]);
    }

    #[test]
    fn taken_rate_counts_loop_back_edges() {
        let t = countdown_trace(4);
        // 3 taken (continue), 1 not taken (exit).
        assert_eq!(t.taken_rate(), Some(0.75));
    }

    #[test]
    fn taken_rate_none_without_branches() {
        let mut asm = Assembler::new();
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 10).unwrap();
        assert_eq!(t.taken_rate(), None);
    }

    #[test]
    fn path_bounds_split_at_branches() {
        let t = countdown_trace(2);
        // records: li, addi, bgt(T), addi, bgt(N), out, halt
        assert_eq!(t.path_bounds(), vec![0, 3, 5]);
        assert!((t.mean_path_len() - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn path_bounds_empty_trace() {
        let t = Trace::from_parts(vec![], vec![]);
        assert!(t.path_bounds().is_empty());
        assert_eq!(t.mean_path_len(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn initial_memory_visible_to_program() {
        let mut asm = Assembler::new();
        asm.lw(r(1), Reg::ZERO, 2);
        asm.out(r(1));
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[10, 20, 30], 10).unwrap();
        assert_eq!(t.output(), &[30]);
        assert_eq!(t.records()[0].mem_read, Some(2));
    }

    #[test]
    fn checksum_stable_and_discriminating() {
        let a = output_checksum(&[1, 2, 3]);
        let b = output_checksum(&[1, 2, 3]);
        let c = output_checksum(&[3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(output_checksum(&[]), output_checksum(&[0]));
    }

    #[test]
    fn step_limit_propagates() {
        let mut asm = Assembler::new();
        asm.label("spin");
        asm.j_label("spin");
        asm.halt();
        let p = asm.assemble().unwrap();
        assert_eq!(
            trace_program(&p, &[], 10).unwrap_err(),
            VmError::StepLimit { limit: 10 }
        );
    }
}
