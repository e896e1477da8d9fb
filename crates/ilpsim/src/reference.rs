//! A literal, cycle-stepped formulation of the §5.1 models, for checking
//! [`simulate`](crate::simulate) and
//! [`riseman_foster`](crate::riseman_foster).
//!
//! The fast path computes each instruction's issue cycle as one `max`
//! over its constraints, in a single pass. This module states the same
//! semantics operationally instead, in the style of an
//! instantaneous-instruction-execution machine, and is written for
//! clarity rather than speed:
//!
//! * a clock advances one cycle at a time;
//! * an explicit window of branch paths is laid on the trace: the `E_T`
//!   chain for SP, the depth-`d` tree for EE, and the main line of the
//!   [`StaticTree`] for DEE, whose DEE paths hang off the first `h_DEE`
//!   pending branches;
//! * each cycle, oldest first, every instruction in the window that has
//!   not yet issued is asked whether it may issue now, and at most the PE
//!   limit of them do;
//! * at the end of each cycle, paths whose instructions have all
//!   completed retire in order, and the window slides down past them;
//! * a branch's tree level is one plus the number of older branches
//!   still unresolved in the cycle it resolves.
//!
//! It reads the raw [`Trace`], replays the 2-bit predictor itself and
//! finds each mispredict's control-dependence region by scanning the
//! records forward, so it shares only the program-level CFG analysis
//! with the fast path. Agreement on every [`SimOutcome`] field is the
//! evidence that the fast path implements the rules below.
//!
//! # Rules
//!
//! An instruction may issue in cycle `t` only when all of these hold:
//!
//! 1. **Data.** Every producer has completed by cycle `t − 1`: the last
//!    older writer of each source register (renaming removes the other
//!    register dependences) and the last older store to the loaded word.
//! 2. **Window.** Its branch path is in the window.
//! 3. **Mispredicts.** Every older mispredicted branch whose penalty
//!    scope holds it has resolved by cycle `t − 1`. The scope is every
//!    younger instruction in the restrictive models and the branch's
//!    control-dependence region in the `-CD` models, minus the branch
//!    paths its DEE path covers.
//! 4. **Serial branches.** In the models without multiple flows, a
//!    conditional branch issues only after the previous one resolved.
//! 5. **PEs.** Fewer than the PE limit of instructions issued in cycle `t`
//!    before it.
//!
//! An instruction issued in cycle `t` with latency `λ` completes in cycle
//! `t + λ − 1`; a branch resolves when it completes.
//!
//! # Interpretations
//!
//! Where §5.1 leaves a rule open, the simulator fixes one. Each is stated
//! here and in DESIGN.md §4.
//!
//! * **Coverage is fixed at resolution.** A mispredict's DEE coverage
//!   follows from the level at which it *resolves*, yet it waives the
//!   penalty for the covered instructions over their whole lifetime,
//!   including cycles before the branch resolved. A clocked machine
//!   cannot know that level early, so this module guesses every level,
//!   simulates, reads the levels off the schedule and repeats until they
//!   agree (see [`Reference::simulate`]).
//! * **The `-CD` join is searched at most 4096 records ahead.** A join
//!   further away, or none, is treated as lying at that distance.
//! * **Loop-back directions are restrictive.** When the predicted (wrong)
//!   direction can re-reach the branch before its join, or the branch
//!   rejoins only at program exit, the penalty holds for every younger
//!   instruction.
//! * **Riseman–Foster waits on one branch.** An instruction waits for the
//!   resolution of the single branch `bypassed + 1` back, not of every
//!   older branch but the last `bypassed` (see
//!   [`Reference::riseman_foster`]); the two readings disagree.

use std::collections::{BTreeSet, HashMap};

use dee_core::{ee_depth, StaticTree, TreeParams};
use dee_isa::Program;
use dee_predict::{mispredict_flags, TwoBitCounter};
use dee_vm::Trace;

use crate::engine::{latency_of, LEVEL_HISTOGRAM_CAP};
use crate::model::{Model, SimConfig};
use crate::prepare::{cd_joins, instr_class, InstrClass, CD_SCAN_CAP, NO_JOIN};
use crate::stats::SimOutcome;

/// A trace laid out for the cycle-stepped reference: per-record
/// producers, paths, mispredicts and control-dependence regions.
///
/// # Example
///
/// ```
/// use dee_ilpsim::{reference::Reference, simulate, Model, PreparedTrace, SimConfig};
/// use dee_workloads::{compress, Scale};
///
/// let w = compress::build(Scale::Tiny);
/// let trace = w.capture_trace().expect("runs");
/// let config = SimConfig::new(Model::DeeCd, 16);
/// let fast = simulate(&PreparedTrace::new(&w.program, &trace), &config);
/// let literal = Reference::new(&w.program, &trace).simulate(None, &config);
/// assert_eq!(fast, literal);
/// ```
pub struct Reference {
    /// Latency class per record.
    class: Vec<InstrClass>,
    /// Whether each record loads or stores.
    is_mem: Vec<bool>,
    /// Per record: the older records it reads (register and memory flow
    /// dependences).
    producers: Vec<Vec<usize>>,
    /// Per record: its branch-path index.
    path: Vec<usize>,
    /// Per path: its first record.
    path_start: Vec<usize>,
    /// Record index of each conditional branch; branch `k` closes path `k`.
    branches: Vec<usize>,
    /// Per record: whether it is a mispredicted conditional branch.
    mispredicted: Vec<bool>,
    /// Per record: for a mispredicted branch, the first younger record
    /// outside its control-dependence region (`usize::MAX` when its
    /// penalty is restrictive).
    cd_end: Vec<usize>,
}

/// One run of the clock: the cycle each record completes, and each
/// mispredicted branch's tree level at resolution (0 elsewhere).
struct Schedule {
    done: Vec<u64>,
    level: Vec<u32>,
}

/// The tree laid on the trace, as the clock sees it.
#[derive(Clone, Copy)]
struct Tree {
    /// Real branch paths in the window.
    window: usize,
    /// DEE paths hang off the first `h` pending branches (0 = none).
    h: u32,
}

impl Tree {
    /// Branch paths past a mispredict at `level` that its DEE path holds.
    fn coverage(self, level: u32) -> usize {
        if level >= 1 && level <= self.h {
            (self.h - level + 1) as usize
        } else {
            0
        }
    }
}

impl Reference {
    /// Lays `trace` out, flagging mispredicts with the paper's 2-bit
    /// counter (as [`PreparedTrace::new`](crate::PreparedTrace::new) does).
    #[must_use]
    pub fn new(program: &Program, trace: &Trace) -> Self {
        let n = trace.len();
        let mispredicted = mispredict_flags(&mut TwoBitCounter::new(), trace);
        let mut region_ends = cd_region_ends(program, trace).into_iter();

        let mut last_reg_writer: Vec<Option<usize>> = vec![None; 64];
        let mut last_store: HashMap<u32, usize> = HashMap::new();
        let mut producers = Vec::with_capacity(n);
        let mut path = Vec::with_capacity(n);
        let mut path_start = vec![0];
        let mut branches = Vec::new();
        let mut cd_end = vec![usize::MAX; n];
        for (i, r) in trace.records().enumerate() {
            let mut from: Vec<usize> = r
                .srcs
                .iter()
                .flatten()
                .filter_map(|reg| last_reg_writer[reg.index()])
                .collect();
            if let Some(addr) = r.mem_read {
                from.extend(last_store.get(&addr));
            }
            producers.push(from);
            if let Some(reg) = r.dst {
                last_reg_writer[reg.index()] = Some(i);
            }
            if let Some(addr) = r.mem_write {
                last_store.insert(addr, i);
            }
            path.push(branches.len());
            if r.branch.is_some() {
                branches.push(i);
                path_start.push(i + 1);
                if mispredicted[i] {
                    let end = region_ends.next().expect("one region end per mispredict");
                    if end != u32::MAX {
                        cd_end[i] = end as usize;
                    }
                }
            }
        }
        Reference {
            class: trace
                .records()
                .map(|r| instr_class(&program[r.pc]))
                .collect(),
            is_mem: trace
                .records()
                .map(|r| r.mem_read.is_some() || r.mem_write.is_some())
                .collect(),
            producers,
            path,
            path_start,
            branches,
            mispredicted,
            cd_end,
        }
    }

    /// Number of records.
    fn len(&self) -> usize {
        self.class.len()
    }

    /// Runs `config.model` on the clock. `mem_latency`, when given, holds
    /// one latency per record and overrides the class latency of loads
    /// and stores (as
    /// [`PreparedTrace::with_mem_latencies`](crate::PreparedTrace::with_mem_latencies)
    /// does).
    ///
    /// DEE coverage depends on each mispredict's level at resolution,
    /// which the clock learns only when the branch resolves (see the
    /// module's interpretations). So the run starts from a guess of
    /// level 1 for every mispredict and repeats with the levels it read
    /// off the previous schedule until they agree. The fixed point is
    /// unique and is reached: an instruction's schedule depends only on
    /// the levels of older mispredicts, so each repeat leaves correct at
    /// least one more mispredict, in trace order.
    #[must_use]
    pub fn simulate(&self, mem_latency: Option<&[u32]>, config: &SimConfig) -> SimOutcome {
        let model = config.model;
        let latency: Vec<u64> = (0..self.len())
            .map(|i| match mem_latency {
                Some(mem) if self.is_mem[i] => u64::from(mem[i].max(1)),
                _ => u64::from(latency_of(&config.latency, self.class[i])),
            })
            .collect();
        let sequential: u64 = latency.iter().sum();

        let tree = match model {
            Model::Oracle => Tree {
                window: usize::MAX,
                h: 0,
            },
            Model::Ee => Tree {
                window: ee_depth(config.et).max(1) as usize,
                h: 0,
            },
            Model::Dee | Model::DeeCd | Model::DeeCdMf => {
                let (l, h) = config.dee_shape.unwrap_or_else(|| {
                    let tree = StaticTree::build(TreeParams {
                        p: config.p.clamp(0.5, 0.9999),
                        et: config.et,
                    });
                    (tree.mainline_len(), tree.h_dee())
                });
                Tree {
                    window: l as usize,
                    h,
                }
            }
            _ => Tree {
                window: config.et as usize,
                h: 0,
            },
        };

        let mut guess: Vec<u32> = self.mispredicted.iter().map(|&m| u32::from(m)).collect();
        let schedule = loop {
            let run = self.run_clock(config, tree, &latency, &guess);
            // Without DEE paths the levels feed nothing back.
            if tree.h == 0 || run.level == guess {
                break run;
            }
            guess = run.level;
        };

        let mut histogram = vec![0u64; LEVEL_HISTOGRAM_CAP];
        for (&level, &wrong) in schedule.level.iter().zip(&self.mispredicted) {
            if wrong && penalties(model) {
                histogram[(level as usize - 1).min(LEVEL_HISTOGRAM_CAP - 1)] += 1;
            }
        }
        let mispredicts = self.mispredicted.iter().filter(|&&m| m).count() as u64;
        SimOutcome::new(
            model,
            if model == Model::Oracle { 0 } else { config.et },
            self.len() as u64,
            sequential,
            schedule.done.iter().copied().max().unwrap_or(0),
            self.branches.len() as u64,
            mispredicts,
            histogram,
        )
    }

    /// One run of the clock under fixed guesses of each mispredict's
    /// level (read only for DEE coverage).
    fn run_clock(
        &self,
        config: &SimConfig,
        tree: Tree,
        latency: &[u64],
        guess: &[u32],
    ) -> Schedule {
        let n = self.len();
        let model = config.model;
        // The oracle has unlimited resources.
        let pe_limit = match config.max_pe {
            Some(pe) if model != Model::Oracle => pe as usize,
            _ => usize::MAX,
        };
        let mut done: Vec<Option<u64>> = vec![None; n];
        let mut level = vec![0u32; n];
        let mut retired = 0usize; // paths retired so far
        let mut frontier = Frontier::new(&self.producers);
        let mut t = 0u64;
        while !frontier.all_issued() {
            t += 1;
            let resolved_before = |done: &[Option<u64>], r: usize| done[r].is_some_and(|d| d < t);

            // The window: paths retired..retired + window.
            let window_paths = retired.saturating_add(tree.window);
            let window_end = self.path_start.get(window_paths).copied().unwrap_or(n);
            let window_branches = &self.branches[retired..window_paths.min(self.branches.len())];
            // Mispredicts in the window not yet resolved: their penalties
            // still hold.
            let open: Vec<usize> = window_branches
                .iter()
                .copied()
                .filter(|&b| penalties(model) && self.mispredicted[b] && !resolved_before(&done, b))
                .collect();

            let mut issued = 0;
            for j in frontier.candidates(window_end) {
                if issued == pe_limit {
                    break;
                }
                let data = self.producers[j].iter().all(|&p| resolved_before(&done, p));
                let penalty = open.iter().any(|&b| {
                    b < j
                        && j < self.cd_end_for(model, b)
                        && self.path[j] > self.path[b] + tree.coverage(guess[b])
                });
                let serial = !model.is_mf()
                    && self.is_branch(j)
                    && self.path[j] > 0
                    && !resolved_before(&done, self.branches[self.path[j] - 1]);
                if data && !penalty && !serial {
                    done[j] = Some(t + latency[j] - 1);
                    frontier.issue(j);
                    issued += 1;
                }
            }

            // Mispredicts resolving this cycle learn their tree level.
            for &b in window_branches {
                if penalties(model) && self.mispredicted[b] && done[b] == Some(t) {
                    let older_unresolved = window_branches
                        .iter()
                        .filter(|&&o| o < b && done[o].is_none_or(|d| d > t))
                        .count();
                    level[b] = 1 + older_unresolved as u32;
                }
            }

            // In-order retirement of fully executed paths.
            while retired < self.branches.len()
                && (self.path_start[retired]..=self.branches[retired])
                    .all(|r| done[r].is_some_and(|d| d <= t))
            {
                retired += 1;
            }
        }
        Schedule {
            done: done
                .into_iter()
                .map(|d| d.expect("every record issued"))
                .collect(),
            level,
        }
    }

    /// Whether record `r` is a conditional branch.
    fn is_branch(&self, r: usize) -> bool {
        self.branches.get(self.path[r]) == Some(&r)
    }

    /// First younger record outside mispredict `b`'s penalty scope.
    fn cd_end_for(&self, model: Model, b: usize) -> usize {
        if model.is_cd() {
            self.cd_end[b]
        } else {
            usize::MAX
        }
    }

    /// The Riseman–Foster experiment on the clock: unit latency, no
    /// window, no mispredict penalties, and at most `bypassed`
    /// conditional branches outstanding ahead of an instruction.
    ///
    /// Interpretation: the instruction waits for the single branch
    /// `bypassed + 1` back. Older branches may still be unresolved, since
    /// nothing orders branches among themselves.
    #[must_use]
    pub fn riseman_foster(&self, bypassed: u32) -> SimOutcome {
        let n = self.len();
        // The gating branch waits like one more producer.
        let waits_on: Vec<Vec<usize>> = (0..n)
            .map(|j| {
                let mut from = self.producers[j].clone();
                let older_branches = self.path[j];
                if older_branches > bypassed as usize {
                    from.push(self.branches[older_branches - 1 - bypassed as usize]);
                }
                from
            })
            .collect();
        let mut done: Vec<Option<u64>> = vec![None; n];
        let mut frontier = Frontier::new(&waits_on);
        let mut t = 0u64;
        while !frontier.all_issued() {
            t += 1;
            for j in frontier.candidates(n) {
                if waits_on[j].iter().all(|&p| done[p].is_some_and(|d| d < t)) {
                    done[j] = Some(t);
                    frontier.issue(j);
                }
            }
        }
        let mispredicts = self.mispredicted.iter().filter(|&&m| m).count() as u64;
        SimOutcome::new(
            Model::Oracle,
            bypassed,
            n as u64,
            n as u64,
            done.iter().flatten().copied().max().unwrap_or(0),
            self.branches.len() as u64,
            mispredicts,
            vec![0; LEVEL_HISTOGRAM_CAP],
        )
    }
}

/// The unissued records whose producers have all issued. An instruction
/// with an unissued producer cannot be ready, so the clock asks only these
/// each cycle; the answers are those of asking every instruction.
struct Frontier {
    /// Per record: the records reading it.
    consumers: Vec<Vec<usize>>,
    /// Per record: how many of its producers have not issued.
    unissued_producers: Vec<usize>,
    ready: BTreeSet<usize>,
    remaining: usize,
}

impl Frontier {
    fn new(producers: &[Vec<usize>]) -> Self {
        let mut consumers = vec![Vec::new(); producers.len()];
        for (j, from) in producers.iter().enumerate() {
            for &p in from {
                consumers[p].push(j);
            }
        }
        Frontier {
            consumers,
            unissued_producers: producers.iter().map(Vec::len).collect(),
            ready: (0..producers.len())
                .filter(|&j| producers[j].is_empty())
                .collect(),
            remaining: producers.len(),
        }
    }

    fn all_issued(&self) -> bool {
        self.remaining == 0
    }

    /// The candidates older than record `end`, oldest first.
    fn candidates(&self, end: usize) -> Vec<usize> {
        self.ready.range(..end).copied().collect()
    }

    fn issue(&mut self, j: usize) {
        self.ready.remove(&j);
        self.remaining -= 1;
        for &c in &self.consumers[j] {
            self.unissued_producers[c] -= 1;
            if self.unissued_producers[c] == 0 {
                self.ready.insert(c);
            }
        }
    }
}

/// The control-dependence region end of each branch the 2-bit counter
/// mispredicts, in trace order: the first younger record at the join pc
/// of the predicted direction and at the branch's call depth, searched at
/// most `CD_SCAN_CAP` (4096) records on (the cap when not found), or
/// `u32::MAX` when the direction has no join (see
/// `cd_joins` in the prepare module).
///
/// A forward scan over the decoded records, kept as the brute force that
/// the prepare-time index is checked against.
#[must_use]
pub fn cd_region_ends(program: &Program, trace: &Trace) -> Vec<u32> {
    let joins = cd_joins(program);
    let mispredicted = mispredict_flags(&mut TwoBitCounter::new(), trace);
    let cap = CD_SCAN_CAP as usize;
    let mut ends = Vec::new();
    let mut records = trace.records().enumerate();
    while let Some((i, r)) = records.next() {
        let Some(outcome) = r.branch.filter(|_| mispredicted[i]) else {
            continue;
        };
        let predicted_taken = !outcome.taken;
        let join = joins[r.pc as usize][usize::from(predicted_taken)];
        ends.push(if join == NO_JOIN {
            u32::MAX
        } else {
            // `records` resumes at record `i + 1`, the first younger one.
            let end = records
                .clone()
                .take(cap)
                .find(|(_, next)| next.pc == join && next.depth == r.depth)
                .map_or(i + 1 + cap, |(j, _)| j);
            u32::try_from(end).unwrap_or(u32::MAX)
        });
    }
    ends
}

/// Whether the model charges mispredict penalties (EE holds both sides of
/// every branch in its tree; the oracle has no control constraints).
fn penalties(model: Model) -> bool {
    !matches!(model, Model::Ee | Model::Oracle)
}
