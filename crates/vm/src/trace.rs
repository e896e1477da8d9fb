use std::collections::HashMap;

use dee_isa::{Instr, Program, Reg};

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

/// The static part of a record: everything its pc fixes. A captured
/// trace's shapes are its program's, one per pc, so there a record's
/// shape id is its pc; a record from elsewhere whose static part differs
/// from every shape seen gets a new one.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct Shape {
    pc: u32,
    /// The taken-target of a conditional branch, 0 otherwise.
    target: u32,
    srcs: [Option<Reg>; 2],
    dst: Option<Reg>,
    /// `SHAPE_READ | SHAPE_WRITE | SHAPE_BRANCH`: which dynamic fields a
    /// record of this shape carries.
    flags: u8,
}

const SHAPE_READ: u8 = 1 << 0;
const SHAPE_WRITE: u8 = 1 << 1;
const SHAPE_BRANCH: u8 = 1 << 2;

/// Marks an empty slot in [`TraceBuilder`]'s pc-keyed shape cache.
const NO_SHAPE: u32 = u32::MAX;

impl Shape {
    /// The shape every record of `instr` at `pc` has.
    fn of_instr(pc: u32, instr: &Instr) -> Shape {
        let (flags, target) = match *instr {
            Instr::Lw { .. } => (SHAPE_READ, 0),
            Instr::Sw { .. } => (SHAPE_WRITE, 0),
            Instr::Branch { target, .. } => (SHAPE_BRANCH, target),
            _ => (0, 0),
        };
        Shape {
            pc,
            target,
            srcs: instr.uses(),
            dst: instr.def(),
            flags,
        }
    }

    fn of_record(record: &TraceRecord) -> Shape {
        let mut flags = 0;
        if record.mem_read.is_some() {
            flags |= SHAPE_READ;
        }
        if record.mem_write.is_some() {
            flags |= SHAPE_WRITE;
        }
        if record.branch.is_some() {
            flags |= SHAPE_BRANCH;
        }
        Shape {
            pc: record.pc,
            target: record.branch.map_or(0, |b| b.target),
            srcs: record.srcs,
            dst: record.dst,
            flags,
        }
    }

    fn is_branch(&self) -> bool {
        self.flags & SHAPE_BRANCH != 0
    }
}

/// A captured dynamic execution: the record stream plus the program output.
///
/// Use [`trace_program`] to produce one. The paper's notion of a *branch
/// path* — "the dynamic code between branches, including the exit branch" —
/// is exposed through [`path_bounds`](Trace::path_bounds) and the derived
/// statistics.
///
/// The records are held compactly, not as [`TraceRecord`]s: a shape id
/// per record (4 bytes) into a table of the distinct static parts (for a
/// captured trace, one per pc), one word address per memory access, one
/// bit per conditional branch, and the call depth only where it changes.
/// That is about 4.7 bytes a record on the paper workloads against 40 for
/// a `TraceRecord`. [`records`](Trace::records) decodes them back, and
/// every reader outside this crate goes through it; two traces are equal
/// when their decoded records and outputs are, however their shapes are
/// numbered.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The distinct static parts of the records.
    shapes: Vec<Shape>,
    /// Per record: the index of its shape.
    pub(crate) ids: Vec<u32>,
    /// Per memory access, in record order: its word address. A record
    /// that both reads and writes holds two, the read first.
    pub(crate) addrs: Vec<u32>,
    /// Per conditional branch, in record order: whether it was taken,
    /// 64 to a word.
    taken: Vec<u64>,
    /// Number of conditional branches (bits used in `taken`).
    branches: usize,
    /// `(record index, depth)` wherever the call depth changes, at
    /// strictly increasing indices; the depth is 0 before the first.
    depths: Vec<(u32, u32)>,
    output: Vec<i32>,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.output == other.output
            && self.len() == other.len()
            && self.records().eq(other.records())
    }
}

impl Eq for Trace {}

impl Trace {
    /// Wraps a raw record stream and output (mostly for tests; prefer
    /// [`trace_program`]). Lossless for any records, including ones no
    /// machine emits.
    #[must_use]
    pub fn from_parts(records: impl IntoIterator<Item = TraceRecord>, output: Vec<i32>) -> Self {
        let mut builder = TraceBuilder::new();
        for record in records {
            builder.push(&record);
        }
        builder.finish(output)
    }

    /// An empty trace whose shape `i` is `shapes[i]`: the capture
    /// engines seed it with their program's shapes, one per pc.
    pub(crate) fn with_shapes(shapes: Vec<Shape>) -> Self {
        Trace {
            shapes,
            ..Trace::default()
        }
    }

    /// Appends a conditional branch's taken bit.
    #[inline]
    pub(crate) fn push_taken(&mut self, taken: bool) {
        let bit = self.branches % 64;
        if bit == 0 {
            self.taken.push(0);
        }
        if taken {
            *self.taken.last_mut().expect("a word per 64 branches") |= 1 << bit;
        }
        self.branches += 1;
    }

    /// Records that the call depth is `depth` from record `index` on.
    pub(crate) fn set_depth(&mut self, index: usize, depth: u32) {
        let index = u32::try_from(index).expect("a trace holds fewer than 2^32 records");
        match self.depths.last_mut() {
            Some(last) if last.0 == index => last.1 = depth,
            _ => self.depths.push((index, depth)),
        }
    }

    /// Sets the program's output stream.
    pub(crate) fn set_output(&mut self, output: Vec<i32>) {
        self.output = output;
    }

    fn taken_bit(&self, branch: usize) -> bool {
        self.taken[branch / 64] >> (branch % 64) & 1 != 0
    }

    /// The dynamic instruction records, in execution order, decoded from
    /// the compact columns.
    #[must_use]
    pub fn records(&self) -> Records<'_> {
        Records {
            trace: self,
            next: 0,
            addr: 0,
            branch: 0,
            depth_at: 0,
            change_at: self.change_at(0),
            depth: 0,
        }
    }

    /// The record index depth change `k` applies from, `usize::MAX` past
    /// the last.
    fn change_at(&self, k: usize) -> usize {
        self.depths
            .get(k)
            .map_or(usize::MAX, |&(at, _)| at as usize)
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The program's output stream.
    #[must_use]
    pub fn output(&self) -> &[i32] {
        &self.output
    }

    /// Number of dynamic conditional branches.
    #[must_use]
    pub fn num_cond_branches(&self) -> usize {
        self.branches
    }

    /// Iterates `(record index, pc, outcome)` for every dynamic
    /// conditional branch, in execution order. Reads only the shape ids
    /// and the taken bits.
    pub fn branches(&self) -> impl Iterator<Item = (usize, u32, BranchOutcome)> + '_ {
        self.ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (i, &self.shapes[id as usize]))
            .filter(|(_, shape)| shape.is_branch())
            .enumerate()
            .map(|(k, (i, shape))| {
                let outcome = BranchOutcome {
                    taken: self.taken_bit(k),
                    target: shape.target,
                };
                (i, shape.pc, outcome)
            })
    }

    /// Iterates `(pc, outcome)` for every dynamic conditional branch, in
    /// execution order.
    ///
    /// This is the static/dynamic cross-check hook: `dee-analyze`'s branch
    /// census consumes these pairs to verify that every dynamic branch is a
    /// static census member with a matching taken-target.
    pub fn branch_outcomes(&self) -> impl Iterator<Item = (u32, BranchOutcome)> + '_ {
        self.branches().map(|(_, pc, outcome)| (pc, outcome))
    }

    /// Fraction of dynamic conditional branches that were taken, or `None`
    /// when the trace has no branches.
    #[must_use]
    pub fn taken_rate(&self) -> Option<f64> {
        if self.branches == 0 {
            return None;
        }
        let taken: u32 = self.taken.iter().map(|word| word.count_ones()).sum();
        Some(f64::from(taken) / self.branches as f64)
    }

    /// Start indices (into [`records`](Trace::records)) of each branch path.
    ///
    /// A branch path ends at each conditional branch (inclusive); a final
    /// partial path covers any trailing non-branch instructions. The result
    /// always starts with 0 for non-empty traces.
    #[must_use]
    pub fn path_bounds(&self) -> Vec<u32> {
        let mut bounds = Vec::new();
        if self.is_empty() {
            return bounds;
        }
        bounds.push(0);
        for (i, _, _) in self.branches() {
            if i + 1 < self.len() {
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
        self.len() as f64 / bounds.len() as f64
    }

    /// A stable checksum of the output stream, for validating workloads
    /// across execution engines.
    #[must_use]
    pub fn output_checksum(&self) -> u64 {
        output_checksum(&self.output)
    }
}

/// The decoded records of a [`Trace`], in execution order (see
/// [`Trace::records`]). Cloning it is cheap and resumes at the same
/// record, which lets a reader scan ahead without holding the records.
#[derive(Clone, Debug)]
pub struct Records<'a> {
    trace: &'a Trace,
    /// Index of the next record.
    next: usize,
    /// Index of the next memory address.
    addr: usize,
    /// Index of the next taken bit.
    branch: usize,
    /// Index of the next depth change.
    depth_at: usize,
    /// The record index that change applies from, `usize::MAX` when none
    /// is left.
    change_at: usize,
    depth: u32,
}

impl Iterator for Records<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        let trace = self.trace;
        let &id = trace.ids.get(self.next)?;
        if self.next == self.change_at {
            self.depth = trace.depths[self.depth_at].1;
            self.depth_at += 1;
            self.change_at = trace.change_at(self.depth_at);
        }
        let shape = trace.shapes[id as usize];
        let mut record = TraceRecord {
            pc: shape.pc,
            srcs: shape.srcs,
            dst: shape.dst,
            mem_read: None,
            mem_write: None,
            branch: None,
            depth: self.depth,
        };
        if shape.flags != 0 {
            if shape.flags & SHAPE_READ != 0 {
                record.mem_read = Some(trace.addrs[self.addr]);
                self.addr += 1;
            }
            if shape.flags & SHAPE_WRITE != 0 {
                record.mem_write = Some(trace.addrs[self.addr]);
                self.addr += 1;
            }
            if shape.is_branch() {
                record.branch = Some(BranchOutcome {
                    taken: trace.taken_bit(self.branch),
                    target: shape.target,
                });
                self.branch += 1;
            }
        }
        self.next += 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Records<'_> {}

/// Builds a [`Trace`] from whole [`TraceRecord`]s that arrive from
/// outside a capture engine: the interpreter's steps, a `DEETRC1` stream,
/// a store artifact, [`Trace::from_parts`].
///
/// Each record's static part is looked up among the shapes seen so far
/// through a small pc-keyed cache, sized by the number of shapes and
/// never by a pc, so a record with a hostile pc costs one shape.
#[derive(Debug)]
pub struct TraceBuilder {
    trace: Trace,
    /// Direct-mapped cache: slot `pc % slots.len()` holds the last shape
    /// id looked up at such a pc, or `NO_SHAPE`.
    slots: Vec<u32>,
    /// Every shape's id, for the cache's misses.
    index: HashMap<Shape, u32>,
    /// The depth of the last record pushed.
    depth: u32,
}

/// Slots of a builder's shape cache before it grows.
const MIN_SLOTS: usize = 1 << 12;

impl Default for TraceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shapes(Vec::new())
    }

    /// A builder whose shape `i` is `shapes[i]`.
    pub(crate) fn with_shapes(shapes: Vec<Shape>) -> Self {
        let mut builder = TraceBuilder {
            trace: Trace::with_shapes(shapes),
            slots: Vec::new(),
            index: HashMap::new(),
            depth: 0,
        };
        for (id, &shape) in builder.trace.shapes.iter().enumerate() {
            builder.index.entry(shape).or_insert(id as u32);
        }
        builder.fill_slots();
        builder
    }

    /// Sizes the cache to at least twice the shape count and refills it.
    fn fill_slots(&mut self) {
        let slots = (2 * self.trace.shapes.len())
            .next_power_of_two()
            .max(MIN_SLOTS);
        self.slots.clear();
        self.slots.resize(slots, NO_SHAPE);
        for (id, shape) in self.trace.shapes.iter().enumerate() {
            let slot = shape.pc as usize & (slots - 1);
            if self.slots[slot] == NO_SHAPE {
                self.slots[slot] = id as u32;
            }
        }
    }

    /// The id of `shape`, added to the table if new.
    #[inline]
    fn shape_id(&mut self, shape: Shape) -> u32 {
        let slot = shape.pc as usize & (self.slots.len() - 1);
        let id = self.slots[slot];
        if id != NO_SHAPE && self.trace.shapes[id as usize] == shape {
            return id;
        }
        let shapes = &mut self.trace.shapes;
        let id = *self.index.entry(shape).or_insert_with(|| {
            shapes.push(shape);
            u32::try_from(shapes.len() - 1).expect("fewer than 2^32 shapes")
        });
        if self.trace.shapes.len() * 2 > self.slots.len() {
            self.fill_slots();
        }
        let slot = shape.pc as usize & (self.slots.len() - 1);
        self.slots[slot] = id;
        id
    }

    /// Reserves room for `records` more records' shape ids.
    pub fn reserve(&mut self, records: usize) {
        self.trace.ids.reserve(records);
    }

    /// Appends one record.
    #[inline]
    pub fn push(&mut self, record: &TraceRecord) {
        let id = self.shape_id(Shape::of_record(record));
        let trace = &mut self.trace;
        if record.depth != self.depth {
            trace.set_depth(trace.ids.len(), record.depth);
            self.depth = record.depth;
        }
        trace.ids.push(id);
        if let Some(addr) = record.mem_read {
            trace.addrs.push(addr);
        }
        if let Some(addr) = record.mem_write {
            trace.addrs.push(addr);
        }
        if let Some(outcome) = record.branch {
            trace.push_taken(outcome.taken);
        }
    }

    /// Seals the records with the program's output.
    #[must_use]
    pub fn finish(self, output: Vec<i32>) -> Trace {
        let mut trace = self.trace;
        trace.output = output;
        trace
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
    let mut builder = TraceBuilder::with_shapes(program_shapes(program.instrs()));
    loop {
        if machine.executed() >= limit {
            return Err(VmError::StepLimit { limit });
        }
        let (outcome, record) = machine.step(program)?;
        builder.push(&record);
        if outcome == StepOutcome::Halted {
            break;
        }
    }
    Ok(builder.finish(machine.output().to_vec()))
}

/// The shape of every pc of a program, in pc order: the table a captured
/// trace starts from.
pub(crate) fn program_shapes(instrs: &[Instr]) -> Vec<Shape> {
    instrs
        .iter()
        .enumerate()
        .map(|(pc, instr)| Shape::of_instr(pc as u32, instr))
        .collect()
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
        assert_eq!(t.records().next().unwrap().mem_read, Some(2));
    }

    fn record(pc: u32, depth: u32) -> TraceRecord {
        TraceRecord {
            pc,
            srcs: [Some(r(1)), None],
            dst: Some(r(2)),
            mem_read: None,
            mem_write: None,
            branch: None,
            depth,
        }
    }

    /// `from_parts` over records no machine emits gives the same records
    /// back, and equality follows the records, not the shape numbering.
    #[test]
    fn from_parts_round_trips_records_the_vm_never_emits() {
        let taken = |taken| Some(BranchOutcome { taken, target: 7 });
        let cases: Vec<Vec<TraceRecord>> = vec![
            // Two records at one pc with different operands and kinds.
            vec![
                record(3, 0),
                TraceRecord {
                    srcs: [None, Some(r(9))],
                    mem_write: Some(11),
                    ..record(3, 0)
                },
                TraceRecord {
                    branch: taken(true),
                    ..record(3, 0)
                },
                TraceRecord {
                    branch: taken(false),
                    ..record(3, 0)
                },
                record(3, 0),
            ],
            // A depth that jumps, returns to 0, and starts non-zero.
            vec![
                record(0, 5),
                record(1, 5),
                record(2, 0),
                record(3, 40),
                record(4, 1),
            ],
            // One record reading one address and writing another, and a
            // pc far past any program.
            vec![
                TraceRecord {
                    mem_read: Some(1),
                    mem_write: Some(2),
                    ..record(0x00FF_FFFF, 0)
                },
                record(0, 0),
            ],
            // Empty.
            vec![],
        ];
        for records in cases {
            let trace = Trace::from_parts(records.clone(), vec![9]);
            assert_eq!(trace.records().collect::<Vec<_>>(), records);
            assert_eq!(trace.len(), records.len());
            assert_eq!(
                trace.num_cond_branches(),
                records.iter().filter(|r| r.is_cond_branch()).count()
            );
            assert_eq!(trace.output(), &[9]);
        }
        // The same records through differently seeded shape tables.
        let captured = countdown_trace(3);
        let mut reversed: Vec<_> = captured.records().collect();
        reversed.reverse();
        let backwards = Trace::from_parts(reversed.clone(), vec![0]);
        assert!(backwards.records().eq(reversed));
        let reordered = Trace::from_parts(captured.records(), captured.output().to_vec());
        assert_eq!(reordered, captured);
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
