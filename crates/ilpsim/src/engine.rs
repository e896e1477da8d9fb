//! The single-forward-pass scheduling engine.
//!
//! Every constraint on a dynamic instruction references only dynamically
//! earlier instructions (producers, earlier branches, earlier path
//! retirements), so each model's execution times are computable in one
//! in-order pass over the trace — the same structure as the original Lam &
//! Wilson simulator. See the crate docs for the model semantics.

use std::collections::VecDeque;

use dee_core::{ee_depth, StaticTree, TreeParams};

use crate::model::{LatencyModel, Model, SimConfig};
use crate::prepare::{
    InstrClass, PreparedTrace, RunKey, META_CLASS_SHIFT, META_DST_SHIFT, META_HAS_READ,
    META_HAS_WRITE, META_IS_COND, META_MISPREDICT, META_REG_MASK, META_REG_SLOTS, META_SRC2_SHIFT,
};
use crate::stats::SimOutcome;

/// Maximum tree level tracked in the resolve-location histogram.
pub(crate) const LEVEL_HISTOGRAM_CAP: usize = 64;

/// The `-CD` penalties in force that end at a finite record, kept as a
/// staircase: `end_pos` ascending and `time` strictly descending. A
/// penalty that ends no later than another and is no later is dropped, so
/// the front always holds the binding one and each record reads only it.
#[derive(Default)]
struct Staircase {
    steps: VecDeque<(u32, u32)>,
}

impl Staircase {
    /// Puts a penalty `(end_pos, time)` in force.
    fn insert(&mut self, end_pos: u32, time: u32) {
        let k = self.steps.partition_point(|&(end, _)| end < end_pos);
        if self.steps.get(k).is_some_and(|&(_, t)| t >= time) {
            return; // a penalty lasting at least as long is at least as late
        }
        let mut j = k;
        while j > 0 && self.steps[j - 1].1 <= time {
            j -= 1;
        }
        self.steps.drain(j..k);
        self.steps.insert(j, (end_pos, time));
    }

    /// The earliest cycle record `pos` may execute under the penalties in
    /// force (0 when none holds).
    #[inline]
    fn floor_at(&mut self, pos: u32) -> u32 {
        while let Some(&(end, time)) = self.steps.front() {
            if pos < end {
                return time;
            }
            self.steps.pop_front();
        }
        0
    }
}

/// The latency of an instruction of `class` under `latency`.
pub(crate) fn latency_of(latency: &LatencyModel, class: InstrClass) -> u32 {
    match class {
        InstrClass::Alu => latency.alu,
        InstrClass::MulDiv => latency.mul_div,
        InstrClass::Mem => latency.mem,
        InstrClass::Branch => latency.branch,
    }
}

/// Per-class latencies as a table indexed by the meta class field, so the
/// hot loops resolve a record's latency with one load.
fn latency_table(latency: &LatencyModel) -> [u32; 4] {
    [latency.alu, latency.mul_div, latency.mem, latency.branch]
}

/// Record `i`'s completion offset in [`run`]'s encoding, `2(λ − 1)`:
/// `spans` holds it per class, and an attached memory-system latency
/// overrides it for memory records.
#[inline]
fn meta_span(m: u32, spans: &[u32; 4], mem_override: Option<&[u32]>, i: usize) -> u32 {
    if m & (META_HAS_READ | META_HAS_WRITE) != 0 {
        if let Some(mem) = mem_override {
            return 2 * (mem[i].max(1) - 1);
        }
    }
    spans[(m >> META_CLASS_SHIFT) as usize & 3]
}

/// Ideal sequential machine time: one instruction at a time, each taking
/// its full latency. O(1) from the prepared per-class counts; only an
/// attached memory-latency vector forces a per-record pass.
fn sequential_cycles(prepared: &PreparedTrace, latency: &LatencyModel) -> u64 {
    if let Some(mem) = prepared.mem_latency.as_deref() {
        let table = latency_table(latency);
        return prepared
            .meta
            .iter()
            .zip(mem)
            .map(|(&m, &lat)| {
                u64::from(if m & (META_HAS_READ | META_HAS_WRITE) != 0 {
                    lat.max(1)
                } else {
                    table[(m >> META_CLASS_SHIFT) as usize & 3]
                })
            })
            .sum();
    }
    [
        InstrClass::Alu,
        InstrClass::MulDiv,
        InstrClass::Mem,
        InstrClass::Branch,
    ]
    .into_iter()
    .map(|class| prepared.class_counts[class as usize] * u64::from(latency_of(latency, class)))
    .sum()
}

/// Greedy in-order issue under an explicit PE limit: the earliest cycle at
/// or after `earliest` with a free issue slot.
struct PeSchedule {
    cap: u32,
    /// Issue counts of the cycles from `floor` on.
    issued: VecDeque<u32>,
    floor: u32,
}

impl PeSchedule {
    fn new(cap: u32) -> Self {
        PeSchedule {
            cap,
            issued: VecDeque::new(),
            floor: 0,
        }
    }

    fn issue_at(&mut self, earliest: u32) -> u32 {
        let mut k = earliest.saturating_sub(self.floor) as usize;
        loop {
            if k >= self.issued.len() {
                self.issued.resize(k + 1, 0);
            }
            if self.issued[k] < self.cap {
                self.issued[k] += 1;
                return self.floor + k as u32;
            }
            k += 1;
        }
    }

    /// Drops bookkeeping for cycles no future instruction can use.
    fn prune_below(&mut self, floor: u32) {
        if floor > self.floor {
            let drop = ((floor - self.floor) as usize).min(self.issued.len());
            self.issued.drain(..drop);
            self.floor = floor;
        }
    }
}

/// The Riseman–Foster experiment (cited in §1.2 as "the classic study"):
/// unlimited resources, minimal data dependences, but only `bypassed`
/// conditional branches may be outstanding — an instruction cannot issue
/// until all but the last `bypassed` preceding branches have resolved.
///
/// `bypassed = 0` serializes on every branch; as `bypassed → ∞` this
/// converges to the oracle (Riseman & Foster's famous 25.65× harmonic-mean
/// result for infinitely many bypassed jumps).
#[must_use]
pub fn riseman_foster(prepared: &PreparedTrace, bypassed: u32) -> SimOutcome {
    let n = prepared.len;
    let mut reg_time = [0u32; META_REG_SLOTS];
    let mut mem_time = vec![0u32; prepared.mem_words];
    let mut reads = prepared.read_addrs.iter();
    let mut writes = prepared.write_addrs.iter();
    // Resolve times of all conditional branches seen so far.
    let mut branch_resolves: Vec<u32> = Vec::new();
    let mut total = 0u32;
    for &m in &prepared.meta {
        let mut ready = reg_time[(m & META_REG_MASK) as usize]
            .max(reg_time[((m >> META_SRC2_SHIFT) & META_REG_MASK) as usize]);
        if m & META_HAS_READ != 0 {
            let addr = *reads.next().expect("read stream matches meta") as usize;
            ready = ready.max(mem_time[addr]);
        }
        // All but the last `bypassed` earlier branches must have resolved.
        let k = branch_resolves.len();
        if k > bypassed as usize {
            ready = ready.max(branch_resolves[k - 1 - bypassed as usize]);
        }
        let exec = ready + 1;
        reg_time[((m >> META_DST_SHIFT) & META_REG_MASK) as usize] = exec;
        if m & META_HAS_WRITE != 0 {
            let addr = *writes.next().expect("write stream matches meta") as usize;
            mem_time[addr] = exec;
        }
        if m & META_IS_COND != 0 {
            branch_resolves.push(exec);
        }
        total = total.max(exec);
    }
    SimOutcome::new(
        Model::Oracle,
        bypassed,
        n as u64,
        n as u64,
        u64::from(total),
        prepared.num_branches(),
        prepared.num_mispredicts(),
        vec![0; LEVEL_HISTOGRAM_CAP],
    )
}

/// The longest sequential run [`simulate`] accepts. No record completes
/// later than on the sequential machine, and the loop's largest encoded
/// time, a penalty raised by the last branch, is `2(S + 1) + 1` for `S`
/// sequential cycles, so this keeps every time inside a `u32`.
pub(crate) const MAX_SEQUENTIAL_CYCLES: u64 = (1 << 31) - 2;

/// Runs one model over a prepared trace.
///
/// # Example
///
/// ```
/// use dee_ilpsim::{simulate, Model, PreparedTrace, SimConfig};
/// use dee_workloads::{compress, Scale};
///
/// let w = compress::build(Scale::Tiny);
/// let trace = w.capture_trace().expect("runs");
/// let prepared = PreparedTrace::new(&w.program, &trace);
/// let outcome = simulate(&prepared, &SimConfig::new(Model::DeeCdMf, 64));
/// assert!(outcome.speedup() >= 1.0);
/// ```
///
/// # Panics
///
/// Panics when the sequential machine would take more than 2^31 − 2
/// cycles: times keep a flag in their low bit, leaving 31 bits of cycles
/// (DESIGN.md §4, item 9).
#[must_use]
pub fn simulate(prepared: &PreparedTrace, config: &SimConfig) -> SimOutcome {
    let model = config.model;
    // The oracle is EE with unlimited resources (§5.2): it reads no E_T
    // and no PE cap, and reports E_T 0.
    let (et, max_pe) = if model == Model::Oracle {
        (0, None)
    } else {
        (config.et, config.max_pe)
    };
    // Window depth in real branch paths, and the DEE coverage shape
    // (l, h): from the §3.1 heuristic, or an explicit ablation override.
    let (window, h) = match model {
        Model::Oracle => (u32::MAX, 0),
        Model::Ee => (ee_depth(et).max(1), 0),
        Model::Dee | Model::DeeCd | Model::DeeCdMf => config.dee_shape.unwrap_or_else(|| {
            let tree = StaticTree::build(TreeParams {
                p: config.p.clamp(0.5, 0.9999),
                et,
            });
            (tree.mainline_len(), tree.h_dee())
        }),
        _ => (et, 0),
    };
    let sequential = sequential_cycles(prepared, &config.latency);
    assert!(
        sequential <= MAX_SEQUENTIAL_CYCLES,
        "{sequential} sequential cycles exceed the simulator's {MAX_SEQUENTIAL_CYCLES}"
    );
    // The loop, named by the model that owns it (a DEE tree runs SP's
    // loops with its main line as the window, the oracle EE's with no
    // window), and everything it reads besides the trace: the memo's key
    // (DESIGN §4, item 9).
    let key = RunKey {
        loop_model: match model {
            Model::Oracle => Model::Ee,
            Model::Dee => Model::Sp,
            Model::DeeCd => Model::SpCd,
            Model::DeeCdMf => Model::SpCdMf,
            other => other,
        },
        latency: config.latency,
        max_pe,
        window,
        h,
    };
    // One monomorphised loop per model class, chosen once per call: EE
    // charges no penalties (its tree covers both sides of every branch);
    // the non-MF models serialize branches; the -CD models bound
    // penalties by region.
    type Loop = fn(&PreparedTrace, &RunKey) -> Run;
    let pe = max_pe.is_some();
    let run: Loop = match key.loop_model {
        Model::Ee if pe => run::<false, false, false, true>,
        Model::Ee => run::<false, false, false, false>,
        Model::Sp if pe => run::<true, true, false, true>,
        Model::Sp => run::<true, true, false, false>,
        Model::SpCd if pe => run::<true, true, true, true>,
        Model::SpCd => run::<true, true, true, false>,
        Model::SpCdMf if pe => run::<false, true, true, true>,
        Model::SpCdMf => run::<false, true, true, false>,
        _ => unreachable!("every model runs one of four loops"),
    };
    let memo = &prepared.window_memo;
    let (total, histogram) = memo.answer(&key).unwrap_or_else(|| {
        let Run {
            total,
            window_free,
            histogram,
        } = run(prepared, &key);
        // Greedy PE issue is not monotone in the window, and no rule
        // covers a multiple-flow tree with a DEE region: those runs
        // answer only an identical call.
        let proves = !(pe || (key.loop_model == Model::SpCdMf && h > 0));
        memo.learn(key, total, window_free && proves, &histogram);
        (total, histogram)
    });
    SimOutcome::new(
        model,
        et,
        prepared.len as u64,
        sequential,
        u64::from(total),
        prepared.num_branches(),
        prepared.num_mispredicts(),
        histogram,
    )
}

/// What one pass of [`run`] found.
struct Run {
    /// The last completion cycle.
    total: u32,
    /// Whether a chain of binding constraints with no window-entry edge
    /// sets `total` (with a DEE region, no penalty edge either) and, in a
    /// multiple-flow loop, every branch's resolve time.
    window_free: bool,
    /// Mispredicts by tree level at resolution.
    histogram: Vec<u64>,
}

/// Every model's single pass: each record's issue cycle is one
/// `max` over data readiness, window entry, the penalties in force,
/// branch serialization and the PE limit. Returns the last completion
/// cycle, whether it is window-free, and the resolve-level histogram.
///
/// `SERIAL`: a branch waits for the previous one to resolve. `PENALTIES`:
/// mispredicts delay later instructions. `CD`: penalties end at the
/// branch's control-dependence region end. `PE`: an explicit issue limit.
///
/// Every time `t` is held as `2t + f`, where `f = 1` when a chain of
/// binding constraints with no window-entry edge sets `t`. Window entry
/// enters with `f = 0`; data, serialization and floor inputs keep the
/// flag of the time they came from, and so do penalties when the tree
/// has no DEE region (with one, a penalty enters with `f = 0`, since a
/// deeper region moves it); a plain `max` prefers `f = 1` on a tie. A
/// cycle's delta `d` adds `2d`, so the latency table holds `2(λ − 1)`.
/// The encoding adds no operation to the per-record chain.
fn run<const SERIAL: bool, const PENALTIES: bool, const CD: bool, const PE: bool>(
    prepared: &PreparedTrace,
    key: &RunKey,
) -> Run {
    let window = key.window;
    let mut pe = PeSchedule::new(key.max_pe.unwrap_or(u32::MAX));

    // Unwritten registers hold cycle 0 whatever the window: flag set.
    let mut reg_time = [1u32; META_REG_SLOTS];
    // Unwritten words read as cycle 0 without the flag, so the table
    // stays a zeroed allocation; a load also reads two register slots,
    // whose flagged cycle 0 wins the tie.
    let mut mem_time = vec![0u32; prepared.mem_words];
    let spans = latency_table(&key.latency).map(|lat| 2 * (lat - 1));
    let mem_override = prepared.mem_latency.as_deref();
    let mut reads = prepared.read_addrs.iter();
    let mut writes = prepared.write_addrs.iter();
    let mut cd_end = prepared.cd_end.iter();
    // Branch-path index of the current record: advances past each
    // conditional branch, reproducing the prepare-time numbering without
    // streaming a separate per-record column.
    let mut path = 0u32;
    // Retire times of the latest paths, as a ring indexed by path: window
    // entry reads the one `window` paths back, so a ring of more than
    // `window` slots never overwrites it first. A window past the trace's
    // paths never reads it, so one slot does.
    let slots = if window < prepared.num_paths {
        window as usize + 1
    } else {
        1
    };
    let retire_mask = slots.next_power_of_two() - 1;
    let mut retire = vec![0u32; retire_mask + 1];
    let mut last_retire = 0u32;
    // The cycle the current path entered the window, and the earliest
    // cycle any of its records may execute: the entry and every
    // restrictive penalty in force. Both change only at branches.
    let mut entry = 2u32;
    let mut floor = 2u32;
    let mut global_floor = 0u32;
    // Penalties not yet in force because their DEE path still covers the
    // current branch path, as a calendar of `(time, end_pos)` by the path
    // they start at: a penalty raised on path `p` starts within `h + 1`
    // paths, so a ring of at least that many slots never collides.
    let calendar_mask = (key.h + 1).next_power_of_two() - 1;
    let mut calendar: Vec<Vec<(u32, u32)>> = vec![Vec::new(); calendar_mask as usize + 1];
    let pen_mask = if key.h > 0 { !1 } else { !0 };
    let mut staircase = Staircase::default();
    let mut prev_branch_exec = 0u32;
    let mut path_max_exec = 0u32;
    let mut total = 0u32;
    let mut histogram = vec![0u64; LEVEL_HISTOGRAM_CAP];
    // Multiple-flow models only: the resolve times of the `window - 1`
    // branches before the current one, as a ring, and the latest resolve
    // time of every older branch. Branches older than the window resolved
    // before the current path entered it, so a mispredict resolving at or
    // after that latest time is at the tree root. The levels repeat at a
    // wider window when every resolve time does, so the flags of all
    // resolves are ANDed into `resolves_free`.
    let track_levels = PENALTIES && !SERIAL;
    let mut recent = vec![0u32; if track_levels { window as usize - 1 } else { 0 }];
    let mut recent_slot = 0usize;
    let mut latest_resolve = 0u32;
    let mut resolves_free = 1u32;

    for (i, &m) in prepared.meta.iter().enumerate() {
        let pos = i as u32;
        // Minimal data dependences.
        let mut ready = reg_time[(m & META_REG_MASK) as usize]
            .max(reg_time[((m >> META_SRC2_SHIFT) & META_REG_MASK) as usize]);
        if m & META_HAS_READ != 0 {
            let addr = *reads.next().expect("read stream matches meta") as usize;
            ready = ready.max(mem_time[addr]);
        }
        let span = meta_span(m, &spans, mem_override, i);
        let mut exec = (ready + 2).max(floor);
        if CD {
            exec = exec.max(staircase.floor_at(pos));
        }

        let is_branch = m & META_IS_COND != 0;
        if SERIAL && is_branch {
            exec = exec.max(prev_branch_exec + 2);
        }

        // Explicit PE limit: greedy in-order issue into the first free
        // slot at or after the earliest feasible cycle. The slot is a
        // resource edge, so its flag is clear.
        if PE {
            exec = pe.issue_at(exec >> 1) << 1;
            if i % 4096 == 0 {
                pe.prune_below(entry >> 1);
            }
        }

        // The instruction occupies its unit through `done`; consumers and
        // retirement see the completion time.
        let done = exec + span;
        reg_time[((m >> META_DST_SHIFT) & META_REG_MASK) as usize] = done;
        if m & META_HAS_WRITE != 0 {
            let addr = *writes.next().expect("write stream matches meta") as usize;
            mem_time[addr] = done;
        }
        path_max_exec = path_max_exec.max(done);
        total = total.max(done);

        if !is_branch {
            continue;
        }
        let resolve = done;
        if SERIAL {
            debug_assert!(
                resolve > prev_branch_exec,
                "serialized branches resolve in order"
            );
            prev_branch_exec = resolve;
        }
        // This path retires once fully executed, in order.
        last_retire = last_retire.max(path_max_exec);
        retire[path as usize & retire_mask] = last_retire;
        path_max_exec = 0;

        if PENALTIES && m & META_MISPREDICT != 0 {
            // Tree level at resolution: one plus the number of older
            // branches still unresolved when this one resolves — "as
            // branches resolve at the top of the tree, the tree moves
            // down" (§3.1); the DEE paths hang off the first h pending
            // branches. Serialized branches resolve in order, so at the
            // root. An encoded time is later than cycle `resolve >> 1`
            // exactly when it exceeds `resolve | 1`.
            let level = if SERIAL || latest_resolve <= resolve | 1 {
                1
            } else {
                1 + recent.iter().filter(|&&e| e > resolve | 1).count() as u32
            };
            histogram[(level as usize - 1).min(LEVEL_HISTOGRAM_CAP - 1)] += 1;
            let cov = if level > key.h { 0 } else { key.h - level + 1 };
            let end_pos = if CD {
                *cd_end.next().expect("one region end per mispredict")
            } else {
                u32::MAX
            };
            let from_path = path + cov + 1;
            calendar[(from_path & calendar_mask) as usize]
                .push(((resolve + 2) & pen_mask, end_pos));
        }
        if track_levels {
            if let Some(slot) = recent.get_mut(recent_slot) {
                *slot = resolve;
                recent_slot += 1;
                if recent_slot == recent.len() {
                    recent_slot = 0;
                }
            }
            latest_resolve = latest_resolve.max(resolve);
            resolves_free &= resolve;
        }
        path += 1;

        // Penalties whose DEE coverage ends here come into force: a
        // restrictive one holds every later record, a -CD one until its
        // region ends.
        if PENALTIES {
            for (time, end_pos) in calendar[(path & calendar_mask) as usize].drain(..) {
                if end_pos == u32::MAX {
                    global_floor = global_floor.max(time);
                } else if end_pos > pos + 1 {
                    staircase.insert(end_pos, time);
                }
            }
        }
        // Window entry: the tree covers `window` consecutive real paths.
        // Entering is the one edge a wider window moves, so it clears the
        // flag: `2(retire + 1) + 0`.
        if path >= window {
            entry = (retire[(path - window) as usize & retire_mask] | 1) + 1;
        }
        floor = entry.max(global_floor);
    }
    Run {
        total: total >> 1,
        window_free: total & resolves_free & 1 == 1,
        histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoAnswers;
    use dee_isa::{Assembler, Program, Reg};
    use dee_vm::{trace_program, Trace};

    fn prep(program: &Program, trace: &Trace) -> PreparedTrace {
        PreparedTrace::new(program, trace)
    }

    /// A dependence chain: every instruction depends on the previous one.
    fn serial_chain(n: usize) -> (Program, Trace) {
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, 0);
        for _ in 0..n {
            asm.addi(r1, r1, 1);
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        (p, t)
    }

    /// Fully independent instructions.
    fn parallel_block(n: usize) -> (Program, Trace) {
        let mut asm = Assembler::new();
        for k in 0..n {
            asm.li(Reg::new(1 + (k % 8) as u8), k as i32);
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100_000).unwrap();
        (p, t)
    }

    #[test]
    fn oracle_on_serial_chain_is_sequential() {
        let (p, t) = serial_chain(50);
        let prepared = prep(&p, &t);
        let out = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        // li + 50 dependent addis -> critical path 51; halt parallel.
        assert_eq!(out.cycles, 51);
        assert!(out.speedup() < 1.1);
    }

    #[test]
    fn oracle_on_parallel_block_is_one_cycle() {
        let (p, t) = parallel_block(64);
        let prepared = prep(&p, &t);
        let out = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        assert_eq!(out.cycles, 1, "no dependences: all in cycle 1");
        assert!(out.speedup() > 60.0);
    }

    #[test]
    fn oracle_respects_memory_flow_dependences() {
        let mut asm = Assembler::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        asm.li(r1, 7); // cycle 1
        asm.sw(r1, Reg::ZERO, 100); // cycle 2
        asm.lw(r2, Reg::ZERO, 100); // cycle 3 (flow through memory)
        asm.out(r2); // cycle 4
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100).unwrap();
        let prepared = prep(&p, &t);
        let out = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        assert_eq!(out.cycles, 4);
    }

    #[test]
    fn constrained_models_never_beat_oracle() {
        let w = dee_workloads::compress::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let oracle = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        for model in Model::all_constrained() {
            for et in [8, 32, 256] {
                let out = simulate(&prepared, &SimConfig::new(model, et));
                assert!(
                    out.cycles >= oracle.cycles,
                    "{model} at {et}: {} < oracle {}",
                    out.cycles,
                    oracle.cycles
                );
                assert!(out.speedup() >= 0.9, "{model}: no slowdown vs sequential");
            }
        }
    }

    #[test]
    fn speedups_monotone_in_resources() {
        let w = dee_workloads::xlisp::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        for model in Model::all_constrained() {
            let mut last = 0.0;
            for et in [8, 16, 32, 64, 128, 256] {
                let s = simulate(&prepared, &SimConfig::new(model, et)).speedup();
                assert!(
                    s >= last - 1e-9,
                    "{model}: speedup not monotone at et={et}: {s} < {last}"
                );
                last = s;
            }
        }
    }

    #[test]
    fn dee_equals_sp_when_tree_degenerates() {
        // p = 0.9053, et <= 16: the DEE static tree is a pure SP chain
        // (paper §5.3), so the models must coincide exactly.
        let w = dee_workloads::espresso::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        for et in [8, 16] {
            let sp = simulate(&prepared, &SimConfig::new(Model::Sp, et));
            let dee = simulate(&prepared, &SimConfig::new(Model::Dee, et));
            assert_eq!(sp.cycles, dee.cycles, "et={et}");
        }
    }

    #[test]
    fn dee_beats_sp_with_enough_resources() {
        let w = dee_workloads::xlisp::build(dee_workloads::Scale::Small);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let p = prepared.accuracy();
        let sp = simulate(&prepared, &SimConfig::new(Model::Sp, 128).with_p(p));
        let dee = simulate(&prepared, &SimConfig::new(Model::Dee, 128).with_p(p));
        assert!(
            dee.cycles < sp.cycles,
            "DEE {} should beat SP {}",
            dee.cycles,
            sp.cycles
        );
    }

    #[test]
    fn cd_mf_ordering_holds() {
        // SP <= SP-CD <= SP-CD-MF (cycles non-increasing), likewise DEE.
        let w = dee_workloads::cc1::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let cycles = |m: Model| simulate(&prepared, &SimConfig::new(m, 64)).cycles;
        assert!(cycles(Model::SpCd) <= cycles(Model::Sp));
        assert!(cycles(Model::SpCdMf) <= cycles(Model::SpCd));
        assert!(cycles(Model::DeeCd) <= cycles(Model::Dee));
        assert!(cycles(Model::DeeCdMf) <= cycles(Model::DeeCd));
    }

    #[test]
    fn perfect_prediction_removes_all_barriers() {
        // With no mispredicts, SP == SP-CD == SP-CD-MF except for branch
        // serialization (identical across the three), so cycles match.
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        // An always-taken-until-exit loop is almost perfectly predicted by
        // the weakly-taken-initialized counter: only the final exit misses.
        asm.li(r1, 40);
        asm.label("top");
        asm.addi(r1, r1, -1);
        asm.bgt_label(r1, Reg::ZERO, "top");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 10_000).unwrap();
        let prepared = prep(&p, &t);
        assert_eq!(prepared.num_mispredicts(), 1, "only the loop exit misses");
        let sp = simulate(&prepared, &SimConfig::new(Model::Sp, 64));
        let spcd = simulate(&prepared, &SimConfig::new(Model::SpCd, 64));
        // The final-exit mispredict penalizes at most the trailing halt.
        assert!(sp.cycles >= spcd.cycles);
        assert!(sp.cycles - spcd.cycles <= 2);
    }

    #[test]
    fn ee_is_insensitive_to_prediction_but_window_limited() {
        let w = dee_workloads::cc1::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let ee8 = simulate(&prepared, &SimConfig::new(Model::Ee, 8));
        let ee256 = simulate(&prepared, &SimConfig::new(Model::Ee, 256));
        // Depth 2 at 8 paths vs depth 7 at 256.
        assert!(ee256.speedup() > ee8.speedup());
        // EE's histogram records nothing (no penalties).
        assert!(ee8.resolve_level_histogram.iter().all(|&c| c == 0));
    }

    #[test]
    fn resolve_levels_concentrate_near_tree_top() {
        // §5.3: "most of the resolving is done at the root of the tree" —
        // in our traces MF-model resolutions concentrate in the first few
        // levels (within DEE coverage).
        let w = dee_workloads::eqntott::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let out = simulate(
            &prepared,
            &SimConfig::new(Model::DeeCdMf, 100).with_p(prepared.accuracy()),
        );
        let total: u64 = out.resolve_level_histogram.iter().sum();
        assert!(total > 0);
        let top5: u64 = out.resolve_level_histogram.iter().take(5).sum();
        assert!(
            top5 as f64 / total as f64 > 0.6,
            "resolutions should concentrate near the top: {top5}/{total}"
        );
    }

    #[test]
    fn serialized_models_resolve_at_the_root() {
        // A serialized branch issues only after the previous one resolved,
        // so no older branch is ever pending when it resolves.
        let registry = dee_workloads::WorkloadRegistry::builtin();
        for name in registry.names() {
            let w = registry.build(name, dee_workloads::Scale::Tiny).unwrap();
            let t = w.capture_trace().unwrap();
            let prepared = prep(&w.program, &t);
            for model in [Model::Sp, Model::Dee, Model::SpCd, Model::DeeCd] {
                for et in [2, 16, 100, 256] {
                    let config = SimConfig::new(model, et).with_p(prepared.accuracy());
                    let out = simulate(&prepared, &config);
                    assert_eq!(
                        out.root_resolve_fraction(),
                        (prepared.num_mispredicts() > 0).then_some(1.0),
                        "{name} {model} at {et}"
                    );
                }
            }
        }
    }

    #[test]
    fn riseman_foster_interpolates_to_oracle() {
        let w = dee_workloads::espresso::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let oracle = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        let mut last = 0.0;
        for bypassed in [0u32, 1, 2, 4, 8, 32, 128, 100_000] {
            let out = riseman_foster(&prepared, bypassed);
            assert!(
                out.speedup() >= last - 1e-9,
                "bypassed={bypassed}: {} < {last}",
                out.speedup()
            );
            assert!(out.cycles >= oracle.cycles);
            last = out.speedup();
        }
        // With effectively infinite bypassing the branch constraint is gone.
        let unlimited = riseman_foster(&prepared, u32::MAX);
        assert_eq!(unlimited.cycles, oracle.cycles);
        // With zero bypassing, speedup collapses toward the branch density
        // bound (instructions per branch path).
        let zero = riseman_foster(&prepared, 0);
        assert!(zero.speedup() < t.mean_path_len() + 1.0);
    }

    #[test]
    fn non_unit_latency_stretches_serial_chains() {
        // A chain of dependent multiplies: with 4-cycle multiply the
        // oracle's critical path is ~4x the unit-latency one, and so is
        // the sequential baseline, so the speedup stays ~1.
        let mut asm = Assembler::new();
        let r1 = Reg::new(1);
        asm.li(r1, 1);
        for _ in 0..20 {
            asm.muli(r1, r1, 3);
        }
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 1000).unwrap();
        let prepared = prep(&p, &t);
        let unit = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        let classic = simulate(
            &prepared,
            &SimConfig::new(Model::Oracle, 0).with_latency(LatencyModel::CLASSIC),
        );
        assert!(
            classic.cycles >= unit.cycles + 3 * 20,
            "{} vs {}",
            classic.cycles,
            unit.cycles
        );
        assert_eq!(classic.sequential_cycles, unit.sequential_cycles + 3 * 20);
        assert!((classic.speedup() - unit.speedup()).abs() < 0.3);
    }

    #[test]
    fn latency_answers_the_papers_open_question() {
        // §5.3: "It is not yet clear what the net effect of assuming
        // non-unit latencies on the DEE-CD-MF model will be." Measure it:
        // IPC must drop, while speedup-vs-sequential is cushioned by the
        // overlap the model exposes.
        let w = dee_workloads::espresso::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let unit = simulate(&prepared, &SimConfig::new(Model::DeeCdMf, 100));
        let classic = simulate(
            &prepared,
            &SimConfig::new(Model::DeeCdMf, 100).with_latency(LatencyModel::CLASSIC),
        );
        assert!(classic.ipc() < unit.ipc());
        assert!(classic.speedup() > 1.0);
    }

    #[test]
    fn attached_mem_latencies_override_class_latency() {
        let mut asm = Assembler::new();
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        asm.li(r1, 7); // record 0
        asm.sw(r1, Reg::ZERO, 10); // record 1: store, latency 5
        asm.lw(r2, Reg::ZERO, 10); // record 2: load, latency 9
        asm.out(r2); // record 3
        asm.halt(); // record 4
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 100).unwrap();
        let prepared = prep(&p, &t).with_mem_latencies(vec![0, 5, 9, 0, 0]);
        let out = simulate(&prepared, &SimConfig::new(Model::Oracle, 0));
        // li done at 1; store issues 2, done 6; load issues 7, done 15;
        // out issues 16.
        assert_eq!(out.cycles, 16);
        assert_eq!(out.sequential_cycles, 1 + 5 + 9 + 1 + 1);
    }

    #[test]
    #[should_panic(expected = "invalid memory latencies")]
    fn mem_latencies_length_checked() {
        let (p, t) = serial_chain(3);
        let _ = prep(&p, &t).with_mem_latencies(vec![1]);
    }

    #[test]
    #[should_panic(expected = "invalid memory latencies")]
    fn zero_mem_latency_rejected_for_memory_records() {
        let mut asm = Assembler::new();
        asm.sw(Reg::new(1), Reg::ZERO, 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = trace_program(&p, &[], 10).unwrap();
        let _ = prep(&p, &t).with_mem_latencies(vec![0, 0]);
    }

    #[test]
    fn pe_cap_bounds_issue_rate() {
        let (p, t) = parallel_block(64);
        let prepared = prep(&p, &t);
        let capped = simulate(
            &prepared,
            &SimConfig::new(Model::SpCdMf, 256).with_max_pe(4),
        );
        // 65 instructions at <= 4 per cycle need >= 17 cycles.
        assert!(capped.cycles >= 17, "cycles = {}", capped.cycles);
        assert!(capped.speedup() <= 4.0 + 1e-9);
    }

    #[test]
    fn pe_cap_is_monotone() {
        let w = dee_workloads::eqntott::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let mut last = u64::MAX;
        for cap in [1u32, 2, 4, 16, 64] {
            let out = simulate(
                &prepared,
                &SimConfig::new(Model::DeeCdMf, 100).with_max_pe(cap),
            );
            assert!(out.cycles <= last, "cap {cap}: {} > {last}", out.cycles);
            assert!(out.speedup() <= f64::from(cap) + 1e-9);
            last = out.cycles;
        }
        let unlimited = simulate(&prepared, &SimConfig::new(Model::DeeCdMf, 100));
        assert!(unlimited.cycles <= last);
    }

    #[test]
    fn window_memo_answers_only_the_loops_it_covers() {
        let w = dee_workloads::xlisp::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let fresh = |config: &SimConfig| simulate(&prep(&w.program, &t), config);
        let dee = |model: Model, l: u32, h: u32| {
            SimConfig::new(model, l + h * (h + 1) / 2).with_dee_shape(l, h)
        };
        let asks = |configs: &[SimConfig]| {
            for config in configs {
                assert_eq!(simulate(&prepared, config), fresh(config), "{config:?}");
            }
            prepared.window_memo_answers()
        };
        // On xlisp these runs are free: SP's and SP-CD-MF's plateaus start
        // below 64 paths, and a DEE tree (17, 5) is already bound by data
        // and serialization alone. A capped run and a multiple-flow tree
        // with a DEE region are kept for an identical call only, and the
        // oracle's run, EE's loop with no window, proves no finite window.
        let capped = SimConfig::new(Model::Sp, 64).with_max_pe(64);
        let oracle = SimConfig::new(Model::Oracle, 0);
        let learned = [
            SimConfig::new(Model::Sp, 64),
            dee(Model::Dee, 17, 5),
            SimConfig::new(Model::SpCdMf, 64),
            dee(Model::DeeCdMf, 17, 5),
            capped,
            oracle,
        ];
        assert_eq!(asks(&learned), MemoAnswers::default());
        // The oracle reads no E_T and no PE cap: any of them is its run.
        let oracle_capped = SimConfig::new(Model::Oracle, 256).with_max_pe(4);
        assert_eq!(fresh(&oracle_capped), fresh(&oracle));
        let answered = MemoAnswers {
            identical: 5,
            wider_window: 2,
            deeper_tree: 2,
            multiple_flow: 2,
        };
        let answers = asks(&[
            // Repeats, and a tree that is SP-CD-MF's 64-path chain.
            capped,
            oracle,
            oracle_capped,
            dee(Model::DeeCdMf, 17, 5),
            dee(Model::DeeCdMf, 64, 0),
            // Wider windows of a loop without a DEE region.
            SimConfig::new(Model::Sp, 256),
            dee(Model::Dee, 100, 0),
            // Longer main lines and deeper regions of a serialized tree.
            dee(Model::Dee, 19, 9),
            dee(Model::Dee, 17, 6),
            // A wider window of the multiple-flow loop, histogram included.
            SimConfig::new(Model::SpCdMf, 256),
            dee(Model::DeeCdMf, 100, 0),
        ]);
        assert_eq!(answers, answered);
        // Another loop, latency table or PE cap runs, and so do a narrower
        // window (EE's against the oracle's) and a tree that no learned
        // tree dominates.
        let answers = asks(&[
            SimConfig::new(Model::Sp, 32),
            SimConfig::new(Model::SpCd, 256),
            SimConfig::new(Model::Ee, 8),
            SimConfig::new(Model::Ee, 256),
            SimConfig::new(Model::Sp, 256).with_latency(LatencyModel::CLASSIC),
            SimConfig::new(Model::Sp, 256).with_max_pe(64),
            dee(Model::Dee, 16, 9),
            dee(Model::Dee, 90, 4),
            dee(Model::Dee, 100, 1),
            dee(Model::DeeCd, 19, 9),
            dee(Model::DeeCdMf, 19, 9),
        ]);
        assert_eq!(answers, answered);
        // The memo keeps the latest 64 runs: the oldest are forgotten.
        for pe in 1..=64 {
            let _ = simulate(&prepared, &SimConfig::new(Model::Ee, 8).with_max_pe(pe));
        }
        assert_eq!(asks(&[SimConfig::new(Model::Sp, 256)]), answered);
        // Memory latencies start the memo afresh.
        let n = prepared.len();
        let prepared = prepared.with_mem_latencies(vec![3; n]);
        let _ = simulate(&prepared, &SimConfig::new(Model::Sp, 64));
        assert_eq!(prepared.window_memo_answers(), MemoAnswers::default());
        // With no branch there is no window edge, so an EE run is free and
        // answers the oracle, EE's loop at the widest window.
        let (p, t) = parallel_block(64);
        let prepared = prep(&p, &t);
        let _ = simulate(&prepared, &SimConfig::new(Model::Ee, 8));
        assert_eq!(
            simulate(&prepared, &oracle),
            simulate(&prep(&p, &t), &oracle)
        );
        let wider = MemoAnswers {
            wider_window: 1,
            ..MemoAnswers::default()
        };
        assert_eq!(prepared.window_memo_answers(), wider);
    }

    #[test]
    fn a_wider_window_can_cost_a_pe_capped_run_cycles() {
        // Why a PE-capped run answers only an identical call (DESIGN §4,
        // item 9): greedy issue into the first free slot is not monotone
        // in the window, since an earlier issue can take a slot a later
        // record needed.
        let w = dee_workloads::compress::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let prepared = prep(&w.program, &t);
        let cycles =
            |et| simulate(&prepared, &SimConfig::new(Model::SpCd, et).with_max_pe(4)).cycles;
        assert_eq!((cycles(12), cycles(13)), (3430, 3431));
    }

    #[test]
    fn cycles_bounded_by_trace_length() {
        let w = dee_workloads::compress::build(dee_workloads::Scale::Tiny);
        let t = w.capture_trace().unwrap();
        let n = t.len() as u64;
        let prepared = prep(&w.program, &t);
        for model in Model::all_constrained() {
            let out = simulate(&prepared, &SimConfig::new(model, 16));
            assert!(out.cycles <= n + 2, "{model}: {} > {n}", out.cycles);
        }
    }
}
