use dee_isa::cfg::Cfg;
use dee_isa::{AluOp, Instr, Program};
use dee_predict::{BranchPredictor, TwoBitCounter};
use dee_vm::{Trace, TraceRecord};

/// A trace annotated with everything the models need: per-record
/// misprediction flags (from a predictor replay) and, per mispredict, the
/// end of its control-dependence region.
///
/// Preparing once and simulating many configurations amortizes the
/// predictor replay, the CFG analysis and the region search across the
/// whole parameter sweep. The representation is *columnar*: instead of
/// holding the 40-byte [`TraceRecord`]s, the models' hot loops read one
/// dense per-record column (`meta`, 4 bytes/record) plus the load and
/// store address streams and the per-mispredict `cd_end` index. Nothing
/// here borrows the input trace, so a prepared trace can be built one
/// record at a time (see [`PreparedTraceBuilder`]): a stored artifact
/// streams into it without its record vector ever existing in memory.
#[derive(Clone, Debug)]
pub struct PreparedTrace {
    /// Number of dynamic records.
    pub(crate) len: usize,
    /// Number of branch paths.
    pub(crate) num_paths: u32,
    /// Per dynamic record: every field the hot simulate loops touch, fused
    /// into one u32 (see the `META_*` constants): source and destination
    /// register slots, memory-access and conditional-branch flags, the
    /// latency class, the branch direction, and the mispredict flag. One
    /// 4-byte load per record per cell instead of re-matching the ~40-byte
    /// `TraceRecord`.
    pub(crate) meta: Vec<u32>,
    /// Per mispredicted branch, in trace order: the first younger record
    /// outside its control-dependence region, or `u32::MAX` when its
    /// `-CD` penalty is restrictive (see [`PreparedTraceBuilder`]).
    pub(crate) cd_end: Vec<u32>,
    /// Effective word addresses of loads, in record order (records with
    /// the `META_HAS_READ` bit consume one entry each).
    pub(crate) read_addrs: Vec<u32>,
    /// Effective word addresses of stores, in record order (records with
    /// the `META_HAS_WRITE` bit consume one entry each).
    pub(crate) write_addrs: Vec<u32>,
    /// One past the highest memory word the trace touches, precomputed so
    /// every simulate call sizes its memory-time table without an extra
    /// full pass over the records.
    pub(crate) mem_words: usize,
    /// Dynamic record count per latency class (indexed by `InstrClass as
    /// usize`), giving O(1) sequential-machine cycles per latency model.
    pub(crate) class_counts: [u64; 4],
    /// Optional per-record memory-access latencies (e.g. from a cache
    /// model); overrides the configured `mem` latency per access.
    pub(crate) mem_latency: Option<Vec<u32>>,
    /// The program's output stream (carried through from the trace so
    /// byte-identity checks need no separate trace handle).
    output: Vec<i32>,
    /// Cached count of dynamic conditional branches.
    num_branches: u64,
    /// Cached count of mispredicted dynamic branches.
    num_mispredicts: u64,
    /// Measured accuracy of the predictor used for the flags.
    accuracy: f64,
}

impl PreparedTrace {
    /// Prepares `trace` with the paper's default predictor: the 2-bit
    /// saturating counter, one per static instruction, initialized weakly
    /// taken.
    #[must_use]
    pub fn new(program: &Program, trace: &Trace) -> Self {
        Self::with_predictor(program, trace, &mut TwoBitCounter::new())
    }

    /// Prepares `trace` with a caller-supplied predictor.
    #[must_use]
    pub fn with_predictor(
        program: &Program,
        trace: &Trace,
        predictor: &mut dyn BranchPredictor,
    ) -> Self {
        let mut builder = PreparedTraceBuilder::new(program, predictor);
        builder.reserve(trace.len());
        for record in trace.records() {
            builder.push_record(record);
        }
        builder.finish(trace.output().to_vec())
    }

    /// Attaches per-record memory-access latencies (one entry per dynamic
    /// record; non-memory records are ignored), typically produced by
    /// `dee_mem::annotate_latencies`. Entries for memory records must be
    /// at least 1.
    ///
    /// # Panics
    ///
    /// Panics when the length does not match the trace or a memory
    /// record's latency is zero. Untrusted latency vectors should go
    /// through [`try_with_mem_latencies`](Self::try_with_mem_latencies).
    #[must_use]
    pub fn with_mem_latencies(self, latencies: Vec<u32>) -> Self {
        self.try_with_mem_latencies(latencies)
            .expect("invalid memory latencies")
    }

    /// Fallible form of [`with_mem_latencies`](Self::with_mem_latencies):
    /// validates instead of asserting, for latency vectors that arrive
    /// from outside the process.
    ///
    /// # Errors
    ///
    /// Returns a message when the length does not match the trace or a
    /// memory record's latency is zero.
    pub fn try_with_mem_latencies(mut self, latencies: Vec<u32>) -> Result<Self, String> {
        if latencies.len() != self.len {
            return Err(format!(
                "latency vector has {} entries for a {}-record trace",
                latencies.len(),
                self.len
            ));
        }
        for (i, (lat, &m)) in latencies.iter().zip(&self.meta).enumerate() {
            if m & (META_HAS_READ | META_HAS_WRITE) != 0 && *lat == 0 {
                return Err(format!("memory record {i} has zero latency"));
            }
        }
        self.mem_latency = Some(latencies);
        Ok(self)
    }

    /// Number of dynamic records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace has no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The program's output stream.
    #[must_use]
    pub fn output(&self) -> &[i32] {
        &self.output
    }

    /// Measured accuracy of the predictor that produced the flags — the
    /// natural choice for [`SimConfig::with_p`](crate::SimConfig::with_p).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// Number of dynamic branch paths in the trace.
    #[must_use]
    pub fn num_paths(&self) -> u32 {
        self.num_paths
    }

    /// Number of dynamic conditional branches in the trace.
    #[must_use]
    pub fn num_branches(&self) -> u64 {
        self.num_branches
    }

    /// Number of mispredicted dynamic branches.
    #[must_use]
    pub fn num_mispredicts(&self) -> u64 {
        self.num_mispredicts
    }
}

/// Incremental [`PreparedTrace`] construction: feed records in order,
/// one at a time, then [`finish`](Self::finish).
///
/// The CFG analysis (each branch direction's join) and the per-pc latency
/// classes depend only on the *program*, so they are computed once up
/// front. Each pushed record is packed into the columnar form and replayed
/// through the predictor in stream order.
///
/// The builder also indexes each mispredict's control-dependence region
/// end as the records stream past: the first younger record at the
/// branch's join pc and call depth, at most `CD_SCAN_CAP` (4096) records on
/// (a join further away, or none, counts as lying at the cap), or
/// `u32::MAX` when the predicted direction has no join. A mispredict with
/// a join waits at that pc; a per-pc flag keeps every other record's cost
/// to one load. The index is a function of the record stream alone, so it
/// needs no lookahead past the record being pushed.
pub struct PreparedTraceBuilder<'p> {
    class_of: Vec<InstrClass>,
    /// Per pc and predicted direction: the join pc (see `cd_joins`).
    joins: Vec<[u32; 2]>,
    /// Per pc: whether a mispredict waits for a record at this pc.
    has_waiters: Vec<bool>,
    /// Per pc: the mispredicts waiting for their join here.
    waiters: Vec<Vec<Waiter>>,
    predictor: &'p mut dyn BranchPredictor,
    meta: Vec<u32>,
    cd_end: Vec<u32>,
    read_addrs: Vec<u32>,
    write_addrs: Vec<u32>,
    mem_words: usize,
    class_counts: [u64; 4],
    num_branches: u64,
    wrong: u64,
    last_was_branch: bool,
}

/// A mispredict waiting for its join record.
struct Waiter {
    /// Its entry in `cd_end`.
    slot: u32,
    /// The branch's call depth, which the join record must share.
    depth: u32,
    /// The last record index the search covers.
    last: u32,
}

impl<'p> PreparedTraceBuilder<'p> {
    /// Runs the program-level analysis and readies an empty accumulator.
    #[must_use]
    pub fn new(program: &Program, predictor: &'p mut dyn BranchPredictor) -> Self {
        // The per-static-pc latency classes, resolved up front so the
        // per-record pass below can pack them per dynamic record.
        let class_of: Vec<InstrClass> = program.instrs().iter().map(instr_class).collect();
        PreparedTraceBuilder {
            class_of,
            joins: cd_joins(program),
            has_waiters: vec![false; program.len()],
            waiters: (0..program.len()).map(|_| Vec::new()).collect(),
            predictor,
            meta: Vec::new(),
            cd_end: Vec::new(),
            read_addrs: Vec::new(),
            write_addrs: Vec::new(),
            mem_words: 0,
            class_counts: [0u64; 4],
            num_branches: 0,
            wrong: 0,
            last_was_branch: false,
        }
    }

    /// Pre-sizes the per-record column for `records` entries.
    pub fn reserve(&mut self, records: usize) {
        self.meta.reserve(records);
    }

    /// Packs one dynamic record into the columns, replays it through the
    /// predictor and advances the region index.
    pub fn push_record(&mut self, record: &TraceRecord) {
        let pos = self.meta.len() as u32;
        let pc = record.pc as usize;
        if self.has_waiters[pc] {
            self.reach_join(pc, pos, record.depth);
        }
        let class = self.class_of[pc];
        self.class_counts[class as usize] += 1;
        let mut m = record.srcs[0].map_or(META_READ_SINK, |r| r.index() as u32)
            | record.srcs[1].map_or(META_READ_SINK, |r| r.index() as u32) << META_SRC2_SHIFT
            | record.dst.map_or(META_WRITE_SINK, |r| r.index() as u32) << META_DST_SHIFT
            | (class as u32) << META_CLASS_SHIFT;
        if let Some(addr) = record.mem_read {
            m |= META_HAS_READ;
            self.read_addrs.push(addr);
            self.mem_words = self.mem_words.max(addr as usize + 1);
        }
        if let Some(addr) = record.mem_write {
            m |= META_HAS_WRITE;
            self.write_addrs.push(addr);
            self.mem_words = self.mem_words.max(addr as usize + 1);
        }
        self.last_was_branch = false;
        if let Some(outcome) = record.branch {
            m |= META_IS_COND;
            if outcome.taken {
                m |= META_TAKEN;
            }
            if self.predictor.predict(record.pc) != outcome.taken {
                m |= META_MISPREDICT;
                self.wrong += 1;
                // Mispredicted: the predicted direction is the opposite
                // of the actual one.
                self.await_join(pc, !outcome.taken, pos, record.depth);
            }
            self.predictor.resolve(record.pc, outcome.taken);
            self.num_branches += 1;
            self.last_was_branch = true;
        }
        self.meta.push(m);
    }

    /// Opens the `cd_end` entry of the mispredict at record `pos`: at the
    /// cap until its join record arrives, `u32::MAX` if it has no join.
    fn await_join(&mut self, pc: usize, predicted_taken: bool, pos: u32, depth: u32) {
        let join = self.joins[pc][usize::from(predicted_taken)];
        if join == NO_JOIN {
            self.cd_end.push(u32::MAX);
            return;
        }
        let slot = self.cd_end.len() as u32;
        self.cd_end
            .push(pos.saturating_add(1).saturating_add(CD_SCAN_CAP));
        self.waiters[join as usize].push(Waiter {
            slot,
            depth,
            last: pos.saturating_add(CD_SCAN_CAP),
        });
        self.has_waiters[join as usize] = true;
    }

    /// Record `pos` at `pc` and `depth` ends the region of every mispredict
    /// waiting here at that depth; waiters past their search drop out.
    fn reach_join(&mut self, pc: usize, pos: u32, depth: u32) {
        let cd_end = &mut self.cd_end;
        self.waiters[pc].retain(|w| {
            if pos > w.last {
                return false;
            }
            if w.depth == depth {
                cd_end[w.slot as usize] = pos;
                return false;
            }
            true
        });
        self.has_waiters[pc] = !self.waiters[pc].is_empty();
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.meta.len()
    }

    /// Seals the accumulated columns into a [`PreparedTrace`].
    #[must_use]
    pub fn finish(self, output: Vec<i32>) -> PreparedTrace {
        let num_branches = self.num_branches;
        let accuracy = if num_branches == 0 {
            1.0
        } else {
            1.0 - self.wrong as f64 / num_branches as f64
        };
        let num_paths = if self.meta.is_empty() {
            0
        } else if self.last_was_branch {
            num_branches as u32
        } else {
            num_branches as u32 + 1
        };
        PreparedTrace {
            len: self.meta.len(),
            num_paths,
            meta: self.meta,
            cd_end: self.cd_end,
            read_addrs: self.read_addrs,
            write_addrs: self.write_addrs,
            mem_words: self.mem_words,
            class_counts: self.class_counts,
            mem_latency: None,
            output,
            num_branches,
            num_mispredicts: self.wrong,
            accuracy,
        }
    }
}

/// Bit layout of the packed per-record `meta` word.
///
/// Register fields hold 6-bit *slots* into a [`META_REG_SLOTS`]-entry
/// availability table: real registers occupy slots `0..Reg::COUNT`;
/// absent sources read the always-zero slot [`META_READ_SINK`] and an
/// absent destination writes the never-read slot [`META_WRITE_SINK`], so
/// the simulate loops have no per-operand branches at all.
pub(crate) const META_REG_MASK: u32 = 0x3F;
pub(crate) const META_SRC2_SHIFT: u32 = 6;
pub(crate) const META_DST_SHIFT: u32 = 12;
pub(crate) const META_HAS_READ: u32 = 1 << 18;
pub(crate) const META_HAS_WRITE: u32 = 1 << 19;
pub(crate) const META_IS_COND: u32 = 1 << 20;
pub(crate) const META_MISPREDICT: u32 = 1 << 21;
pub(crate) const META_CLASS_SHIFT: u32 = 22;
/// Actual direction of a conditional branch (set = taken); only
/// meaningful when `META_IS_COND` is set.
pub(crate) const META_TAKEN: u32 = 1 << 24;

/// Size of the register availability tables in the simulate loops.
pub(crate) const META_REG_SLOTS: usize = 64;

/// Slot absent sources read: nothing ever writes it, so it stays zero.
pub(crate) const META_READ_SINK: u32 = 63;

/// Slot absent destinations write: nothing ever reads it.
pub(crate) const META_WRITE_SINK: u32 = 62;

/// Latency class of a static instruction (see
/// [`LatencyModel`](crate::LatencyModel)).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum InstrClass {
    /// Simple ALU / move / immediate.
    Alu,
    /// Multiply, divide, remainder.
    MulDiv,
    /// Load or store.
    Mem,
    /// Conditional branch or indirect jump.
    Branch,
}

/// Longest forward distance, in records, searched for a mispredicted
/// branch's join under reduced control dependences: a join further away
/// is treated as lying at this distance.
pub(crate) const CD_SCAN_CAP: u32 = 4096;

/// Marks a branch direction whose `-CD` penalty never ends (see
/// [`cd_joins`]).
pub(crate) const NO_JOIN: u32 = u32::MAX;

/// The latency class of a static instruction.
pub(crate) fn instr_class(instr: &Instr) -> InstrClass {
    match instr {
        Instr::Alu { op, .. } | Instr::AluImm { op, .. } => match op {
            AluOp::Mul | AluOp::Div | AluOp::Rem => InstrClass::MulDiv,
            _ => InstrClass::Alu,
        },
        Instr::Lw { .. } | Instr::Sw { .. } => InstrClass::Mem,
        Instr::Branch { .. } | Instr::Jr { .. } => InstrClass::Branch,
        _ => InstrClass::Alu,
    }
}

/// Per static pc and *predicted* direction (`[fall-through, taken]`):
/// the pc at which a mispredicted branch's control-dependence region
/// ends, or [`NO_JOIN`] when its penalty is restrictive.
///
/// The region ends at the branch's reconvergence point (its immediate
/// post-dominator). It is restrictive when the branch reconverges only at
/// program exit, or when the predicted (wrong) direction can re-reach the
/// branch before reconverging: such a wrong path crosses an iteration
/// boundary and invalidates the operand context of everything younger.
/// Non-branch pcs hold `[NO_JOIN; 2]`.
pub(crate) fn cd_joins(program: &Program) -> Vec<[u32; 2]> {
    let cfg = Cfg::new(program);
    let postdoms = cfg.postdominators();
    let mut joins = vec![[NO_JOIN; 2]; program.len()];
    for pc in program.cond_branch_pcs() {
        let Some(join) = postdoms.reconvergence(pc) else {
            continue;
        };
        let Instr::Branch { target, .. } = program[pc] else {
            unreachable!("cond_branch_pcs returns branches");
        };
        for (predicted_taken, start) in [(false, pc + 1), (true, target)] {
            if !reaches_without(&cfg, start, pc, Some(join)) {
                joins[pc as usize][usize::from(predicted_taken)] = join;
            }
        }
    }
    joins
}

/// Whether control starting at `from` can reach `goal` without passing
/// through `avoid` (the branch's reconvergence point). BFS over the CFG.
fn reaches_without(cfg: &Cfg, from: u32, goal: u32, avoid: Option<u32>) -> bool {
    if Some(from) == avoid {
        return false;
    }
    let mut visited = vec![false; (cfg.exit() + 1) as usize];
    let mut queue = vec![from];
    visited[from as usize] = true;
    while let Some(node) = queue.pop() {
        if node == goal {
            return true;
        }
        if node == cfg.exit() {
            continue;
        }
        for &s in cfg.successors(node) {
            if Some(s) == avoid || visited[s as usize] {
                continue;
            }
            visited[s as usize] = true;
            queue.push(s);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dee_isa::{Assembler, Reg};
    use dee_vm::trace_program;

    fn countdown(n: i32) -> (Program, Trace) {
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, n);
        asm.label("top");
        asm.addi(r1, r1, -1);
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        (p, t)
    }

    #[test]
    fn path_indices_advance_at_branches() {
        let (p, t) = countdown(3);
        let prepared = PreparedTrace::new(&p, &t);
        // records: li, addi, bgt, addi, bgt, addi, bgt, halt — the
        // trailing halt opens a fourth (partial) path.
        assert_eq!(prepared.num_paths(), 4);
        let cond_flags: Vec<bool> = prepared
            .meta
            .iter()
            .map(|&m| m & META_IS_COND != 0)
            .collect();
        assert_eq!(
            cond_flags,
            vec![false, false, true, false, true, false, true, false]
        );
    }

    #[test]
    fn num_paths_counts_trailing_branch_exactly() {
        // A trace that *ends* on the conditional branch: no trailing
        // partial path beyond it.
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, 1);
        asm.beq_label(r1, Reg::ZERO, "skip");
        asm.label("skip");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100).unwrap();
        let prepared = PreparedTrace::new(&p, &t);
        // records: li, beq, halt — halt trails the branch, so 2 paths.
        assert_eq!(prepared.num_paths(), 2);
    }

    #[test]
    fn meta_packs_operands_and_sinks() {
        let mut asm = Assembler::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        asm.li(r1, 7); // dst r1, no srcs
        asm.sw(r1, Reg::ZERO, 3); // src r1, mem write, no dst
        asm.lw(r2, Reg::ZERO, 3); // mem read, dst r2
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[0, 0, 0, 0], 100).unwrap();
        let prepared = PreparedTrace::new(&p, &t);
        let m0 = prepared.meta[0];
        assert_eq!(m0 & META_REG_MASK, META_READ_SINK, "li reads nothing");
        assert_eq!((m0 >> META_DST_SHIFT) & META_REG_MASK, 1);
        let m1 = prepared.meta[1];
        assert_eq!(m1 & META_REG_MASK, 1, "sw reads r1");
        assert_eq!(
            (m1 >> META_DST_SHIFT) & META_REG_MASK,
            META_WRITE_SINK,
            "sw writes no register"
        );
        assert_ne!(m1 & META_HAS_WRITE, 0);
        let m2 = prepared.meta[2];
        assert_ne!(m2 & META_HAS_READ, 0);
        assert_eq!(prepared.read_addrs, vec![3]);
        assert_eq!(prepared.write_addrs, vec![3]);
        assert_eq!(prepared.mem_words, 4);
    }

    #[test]
    fn meta_records_branch_direction() {
        let (p, t) = countdown(2);
        let prepared = PreparedTrace::new(&p, &t);
        // records: li, addi, bgt(taken), addi, bgt(not taken), halt
        assert_ne!(prepared.meta[2] & META_TAKEN, 0);
        assert_eq!(prepared.meta[4] & META_TAKEN, 0);
        assert_eq!(prepared.output(), t.output());
    }

    #[test]
    fn try_with_mem_latencies_validates_instead_of_panicking() {
        let (p, t) = countdown(3);
        let prepared = PreparedTrace::new(&p, &t);
        // Wrong length: typed error, not an assert.
        let err = prepared.try_with_mem_latencies(vec![1; 3]).unwrap_err();
        assert!(err.contains("3 entries"), "{err}");
        // Right length with no memory records: any latencies accepted.
        let prepared = PreparedTrace::new(&p, &t);
        let n = t.len();
        assert!(prepared.try_with_mem_latencies(vec![0; n]).is_ok());
    }

    #[test]
    fn try_with_mem_latencies_rejects_zero_latency_memory_records() {
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.lw(r1, Reg::ZERO, 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[7], 100).unwrap();
        let prepared = PreparedTrace::new(&p, &t);
        let err = prepared
            .try_with_mem_latencies(vec![0; t.len()])
            .unwrap_err();
        assert!(err.contains("zero latency"), "{err}");
        let prepared = PreparedTrace::new(&p, &t);
        assert!(prepared.try_with_mem_latencies(vec![2; t.len()]).is_ok());
    }

    #[test]
    fn accuracy_matches_flag_count() {
        let (p, t) = countdown(50);
        let prepared = PreparedTrace::new(&p, &t);
        let branches = t.num_cond_branches() as u64;
        let wrong = prepared.num_mispredicts();
        assert!((prepared.accuracy() - (1.0 - wrong as f64 / branches as f64)).abs() < 1e-12);
        // Counter inits taken; the loop mispredicts only near the exit.
        assert!(wrong <= 2, "wrong = {wrong}");
    }

    /// The builder's join table for `p`: per pc, `[fall-through, taken]`.
    fn joins(p: &Program) -> Vec<[u32; 2]> {
        PreparedTraceBuilder::new(p, &mut TwoBitCounter::new()).joins
    }

    #[test]
    fn reconvergence_computed_for_branches_only() {
        let (p, _) = countdown(2);
        let joins = joins(&p);
        // Static pc 2 is the loop branch, reconverging at halt (pc 3):
        // its fall-through side ends there.
        assert_eq!(joins[2][0], 3);
        assert_eq!(joins[0], [NO_JOIN; 2]);
        assert_eq!(joins[1], [NO_JOIN; 2]);
    }

    #[test]
    fn loop_back_edges_classified() {
        let (p, _) = countdown(2);
        // pc 2: bgt -> pc 1 (backward). Predicting taken loops back to
        // the branch, so that penalty is restrictive; fall-through exits.
        assert_eq!(joins(&p)[2], [3, NO_JOIN]);
    }

    #[test]
    fn if_arms_do_not_loop_back() {
        // 0: beq -> 3 ; 1: nop ; 2: j 4 ; 3: nop ; 4: halt
        let mut asm = Assembler::new();
        asm.beq_label(Reg::new(1), Reg::ZERO, "arm");
        asm.nop();
        asm.j_label("join");
        asm.label("arm");
        asm.nop();
        asm.label("join");
        asm.halt();
        let p = asm.assemble().unwrap();
        assert_eq!(joins(&p)[0], [4, 4]);
    }

    #[test]
    fn forward_exit_test_loop_classified() {
        // Test-at-top loop: branch forward to exit; fall-through body jumps
        // back above the branch. The *fall-through* side loops back.
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, 3); // 0
        asm.label("top");
        asm.ble_label(r1, Reg::ZERO, "exit"); // 1
        asm.addi(r1, r1, -1); // 2
        asm.j_label("top"); // 3
        asm.label("exit");
        asm.halt(); // 4
        let p = asm.assemble().unwrap();
        assert_eq!(
            joins(&p)[1],
            [NO_JOIN, 4],
            "fall-through re-reaches the test; taken side exits"
        );
    }

    #[test]
    fn empty_like_trace_tolerated() {
        let mut asm = Assembler::new();
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 10).unwrap();
        let prepared = PreparedTrace::new(&p, &t);
        assert_eq!(prepared.num_paths(), 1);
        assert_eq!(prepared.accuracy(), 1.0);
    }

    /// A loop with a call, loads and stores.
    fn call_loop() -> (Program, Trace) {
        let mut asm = Assembler::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        asm.li(r1, 25);
        asm.li(r2, 0);
        asm.label("top");
        asm.sw(r1, Reg::ZERO, 40);
        asm.lw(r2, Reg::ZERO, 40);
        asm.call_label("bump");
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.out(r2);
        asm.halt();
        asm.label("bump");
        asm.addi(r1, r1, -1);
        asm.ret();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        (p, t)
    }

    /// Alternate trips mispredict a branch whose join lies 4200 records on,
    /// past `CD_SCAN_CAP` (4096).
    fn distant_join() -> (Program, Trace) {
        let mut asm = Assembler::new();
        let (r1, r5, r6) = (Reg::new(1), Reg::new(5), Reg::new(6));
        asm.li(r1, 6);
        asm.li(r5, 0);
        asm.label("top");
        asm.addi(r5, r5, 1);
        asm.andi(r6, r5, 1);
        asm.beq_label(r6, Reg::ZERO, "join");
        for _ in 0..4200 {
            asm.li(Reg::new(3), 1);
        }
        asm.label("join");
        asm.addi(r1, r1, -1);
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        (p, t)
    }

    /// A mispredicted branch whose join pc recurs only one call deeper,
    /// where the program halts: the join never recurs at its own depth.
    fn join_only_deeper() -> (Program, Trace) {
        let mut asm = Assembler::new();
        let r7 = Reg::new(7);
        asm.li(r7, 1);
        asm.call_label("f");
        asm.halt();
        asm.label("f");
        asm.beq_label(r7, Reg::ZERO, "leaf");
        asm.li(r7, 0);
        asm.call_label("f");
        asm.label("leaf");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 1_000).unwrap();
        (p, t)
    }

    /// Asserts that the region index the builder makes while records
    /// stream past equals a forward scan over the materialised records.
    fn assert_region_index(label: &str, p: &Program, t: &Trace) {
        let prepared = PreparedTrace::with_predictor(p, t, &mut TwoBitCounter::new());
        assert_eq!(
            prepared.cd_end,
            crate::reference::cd_region_ends(p, t),
            "{label}: region index differs from the forward scan"
        );
    }

    /// The region index equals the forward scan on a call loop, a join
    /// past the cap and a join that never recurs at its own depth.
    #[test]
    fn region_index_matches_forward_scan_on_crafted_joins() {
        let (p, t) = call_loop();
        assert_region_index("call loop", &p, &t);

        let (p, t) = distant_join();
        let prepared = PreparedTrace::new(&p, &t);
        let beyond_cap = prepared
            .cd_end
            .iter()
            .zip(
                t.records()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| prepared.meta[*i] & META_MISPREDICT != 0),
            )
            .filter(|(&end, (i, _))| end == *i as u32 + 1 + CD_SCAN_CAP)
            .count();
        assert!(beyond_cap > 0, "a join lies past the cap");
        assert_region_index("distant join", &p, &t);

        let (p, t) = join_only_deeper();
        let prepared = PreparedTrace::new(&p, &t);
        // Records: li, call, beq (record 2, mispredicted), ...
        assert_eq!(
            prepared.cd_end[0],
            3 + CD_SCAN_CAP,
            "never found at depth 1"
        );
        assert_region_index("join only deeper", &p, &t);
    }

    #[test]
    fn region_index_matches_forward_scan_on_workloads() {
        let registry = dee_workloads::WorkloadRegistry::builtin();
        for scale in [dee_workloads::Scale::Tiny, dee_workloads::Scale::Small] {
            for name in registry.names() {
                let w = registry.build(name, scale).expect("registry workload");
                let t = w.capture_trace().expect("workload runs");
                assert_region_index(&format!("{name} {scale:?}"), &w.program, &t);
            }
        }
        for (k, spec) in ["default", "pred=0.5,depth=3,calls=0.8,jr=0.3,blocks=6"]
            .iter()
            .enumerate()
        {
            for seed in [1, 7, 42] {
                let spec = dee_gen::GenSpec::parse(spec).expect("valid spec");
                let g = dee_gen::generate(&spec, seed).expect("generates");
                let label = format!("gen grid[{k}] seed {seed}");
                assert_region_index(&label, &g.workload.program, &g.trace);
            }
        }
    }

    #[test]
    fn empty_record_stream_prepares_to_no_paths() {
        let mut asm = Assembler::new();
        asm.halt();
        let p = asm.assemble().unwrap();
        let empty = Trace::from_parts(vec![], vec![]);
        let prepared = PreparedTrace::new(&p, &empty);
        assert_eq!(prepared.num_paths(), 0);
        assert!(prepared.is_empty());
    }
}
