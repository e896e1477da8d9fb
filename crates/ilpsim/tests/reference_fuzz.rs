//! Differential fuzz of the fast simulator against the cycle-stepped
//! reference (`dee_ilpsim::reference`).
//!
//! The fast path computes each issue cycle as one `max` in a single pass;
//! the reference steps a clock over an explicit window of paths. Every
//! [`SimOutcome`] field must agree, the resolve-level histogram included,
//! for all eight models and the Riseman–Foster experiment.
//!
//! * `seeded_generated_programs_agree`: per iteration, a seeded `dee-gen`
//!   program of a few thousand records. First two sweeps run ascending on
//!   one `PreparedTrace`: every constrained model over E_T {1, 2, 3, 5, 8,
//!   16, 32}, then DEE and DEE-CD over explicit `(l, h)` shapes in
//!   dominance order, then the oracle, so the window memo answers what the
//!   runs before prove (DESIGN.md §4, item 9). Then both sweeps run
//!   descending on a trace whose memo is empty, the oracle first, where a
//!   rule that answers a narrower window or a shallower DEE region would
//!   answer wrongly. Every cell, answered or run, must equal the
//!   reference. When the iteration draws a memory latency vector, the
//!   ascending sweeps run without it and the descending trace is the
//!   ascending one with the vector attached, so a memo learned without it
//!   must not answer.
//!   Then, on the descending trace, all eight models and `riseman_foster`
//!   at an E_T from that list, a PE limit from {none, 1, 4}, unit or
//!   `CLASSIC` latencies and sometimes a DEE shape override. Each of the
//!   memo's rules must answer some cell over the run.
//! * `paper_workloads_agree_at_tiny`: the registry workloads at tiny over
//!   a fixed grid.
//! * `long_and_recursive_regions_agree`: a crafted listing whose `-CD`
//!   regions the generator never produces.
//!
//! `DEE_CHAOS_SEED` (default 42) seeds the draws; `DEE_CHAOS_ITERS`
//! (default 16, so a debug `cargo test` stays quick; CI runs 300 in
//! release) sets the number of generated programs.

use dee_gen::{generate, GenSpec};
use dee_ilpsim::reference::Reference;
use dee_ilpsim::{
    riseman_foster, simulate, LatencyModel, MemoAnswers, Model, PreparedTrace, SimConfig,
    SimOutcome,
};
use dee_rng::{env_u64, Rng};
use dee_workloads::{Scale, WorkloadRegistry};

const ETS: [u32; 7] = [1, 2, 3, 5, 8, 16, 32];

/// DEE main-line lengths and region heights of the shape sweep.
const MAINLINES: [u32; 6] = [1, 2, 3, 5, 8, 16];
const HEIGHTS: [u32; 4] = [0, 1, 2, 4];

const ALL_MODELS: [Model; 8] = [
    Model::Ee,
    Model::Sp,
    Model::Dee,
    Model::SpCd,
    Model::DeeCd,
    Model::SpCdMf,
    Model::DeeCdMf,
    Model::Oracle,
];

fn assert_agree(fast: &SimOutcome, literal: &SimOutcome, label: &str) {
    assert_eq!(
        fast, literal,
        "{label}: fast path and reference disagree (left fast, right reference)"
    );
}

/// Every constrained model at every E_T of [`ETS`], ascending, then DEE
/// and DEE-CD over every shape of [`HEIGHTS`] × [`MAINLINES`], each height
/// ascending through the main lines before the next, so every shape comes
/// after the shapes it dominates, then the oracle, EE's loop with no
/// window, after the EE runs that may answer it. Each with the
/// reference's outcome under `mem_latency`.
fn window_sweep(
    literal: &Reference,
    mem_latency: Option<&[u32]>,
    (p, latency): (f64, LatencyModel),
) -> Vec<(SimConfig, SimOutcome)> {
    let windows = Model::all_constrained()
        .into_iter()
        .flat_map(|model| ETS.map(|et| SimConfig::new(model, et)));
    let shapes = [Model::Dee, Model::DeeCd].into_iter().flat_map(|model| {
        HEIGHTS.into_iter().flat_map(move |h| {
            MAINLINES.map(|l| SimConfig::new(model, l + h * (h + 1) / 2).with_dee_shape(l, h))
        })
    });
    windows
        .chain(shapes)
        .chain([SimConfig::new(Model::Oracle, 0)])
        .map(|config| {
            let config = config.with_p(p).with_latency(latency);
            (config, literal.simulate(mem_latency, &config))
        })
        .collect()
}

/// Adds `more` to `sum`, rule by rule.
fn add_answers(sum: &mut MemoAnswers, more: MemoAnswers) {
    sum.identical += more.identical;
    sum.wider_window += more.wider_window;
    sum.deeper_tree += more.deeper_tree;
    sum.multiple_flow += more.multiple_flow;
}

/// Simulates each cell on `prepared`, in the order given.
fn sweep_agrees<'a>(
    prepared: &PreparedTrace,
    cells: impl Iterator<Item = &'a (SimConfig, SimOutcome)>,
    label: &str,
) {
    for (config, literal) in cells {
        assert_agree(
            &simulate(prepared, config),
            literal,
            &format!("{label}, window sweep: {config:?}"),
        );
    }
}

/// A random spec sized for a few thousand records.
fn random_spec(rng: &mut Rng) -> GenSpec {
    GenSpec {
        pred: 0.3 + 0.7 * rng.f64(),
        spread: 0.2 * rng.f64(),
        depth: 1 + rng.below(3) as u32,
        calls: rng.f64() * 0.6,
        jr: rng.f64() * 0.4,
        alias: rng.f64(),
        blocks: 1 + rng.below(8) as u32,
        iters: 4 + rng.below(28) as u32,
    }
}

#[test]
fn seeded_generated_programs_agree() {
    let seed = env_u64("DEE_CHAOS_SEED", 42);
    let iters = env_u64("DEE_CHAOS_ITERS", 16);
    let (mut records, mut answers) = (0usize, MemoAnswers::default());
    for it in 0..iters {
        let mut rng = Rng::new(seed ^ (it << 20) ^ 0x5eed);
        let spec = random_spec(&mut rng);
        let gen_seed = rng.next_u64() % 10_000;
        let g = generate(&spec, gen_seed).expect("generator specs are valid");
        let (program, trace) = (&g.workload.program, &g.trace);
        records += trace.len();
        let literal = Reference::new(program, trace);

        // A per-record memory latency vector on some iterations: loads
        // and stores take 1..=6 cycles.
        let mem_latency: Option<Vec<u32>> = (rng.below(3) == 0).then(|| {
            trace
                .records()
                .map(|r| {
                    if r.mem_read.is_some() || r.mem_write.is_some() {
                        1 + rng.below(6) as u32
                    } else {
                        0
                    }
                })
                .collect()
        });
        let ascending = PreparedTrace::new(program, trace);

        let et = rng.pick(&ETS);
        let max_pe = rng.pick(&[None, Some(1), Some(4)]);
        let latency = rng.pick(&[LatencyModel::UNIT, LatencyModel::CLASSIC]);
        let p = rng.pick(&[0.9053, ascending.accuracy(), 0.6]);

        let program_label = format!(
            "seed {seed} iter {it} ({} records, spec `{}` seed {gen_seed})",
            trace.len(),
            spec.canonical()
        );
        let cells = window_sweep(&literal, None, (p, latency));
        sweep_agrees(&ascending, cells.iter(), &program_label);
        add_answers(&mut answers, ascending.window_memo_answers());
        // Descending, only the runs of this sweep can answer.
        let (prepared, cells) = match &mem_latency {
            Some(mem) => (
                ascending.with_mem_latencies(mem.clone()),
                window_sweep(&literal, Some(mem), (p, latency)),
            ),
            None => (PreparedTrace::new(program, trace), cells),
        };
        sweep_agrees(&prepared, cells.iter().rev(), &program_label);

        for model in ALL_MODELS {
            let mut config = SimConfig::new(model, et).with_p(p).with_latency(latency);
            if let Some(pe) = max_pe {
                config = config.with_max_pe(pe);
            }
            if model.is_dee() && et >= 3 && rng.below(4) == 0 {
                // A shape override: the widest DEE region that fits.
                let mut h = 1;
                while (h + 1) * (h + 2) / 2 < et {
                    h += 1;
                }
                config = config.with_dee_shape(et - h * (h + 1) / 2, h);
            }
            assert_agree(
                &simulate(&prepared, &config),
                &literal.simulate(mem_latency.as_deref(), &config),
                &format!("{program_label}: {config:?}"),
            );
        }
        add_answers(&mut answers, prepared.window_memo_answers());
        let bypassed = rng.pick(&[0, 1, 2, 4, 8, u32::MAX]);
        assert_agree(
            &riseman_foster(&prepared, bypassed),
            &literal.riseman_foster(bypassed),
            &format!("seed {seed} iter {it}: riseman_foster bypassed={bypassed}"),
        );
    }
    eprintln!(
        "reference fuzz: seed {seed}, {iters} programs, {records} records, \
         cells answered from the window memo: {answers:?}"
    );
    let MemoAnswers {
        identical,
        wider_window,
        deeper_tree,
        multiple_flow,
    } = answers;
    assert!(
        iters == 0
            || [identical, wider_window, deeper_tree, multiple_flow]
                .iter()
                .all(|&n| n > 0),
        "the sweeps reach every rule of the window memo: {answers:?}"
    );
}

#[test]
fn paper_workloads_agree_at_tiny() {
    let registry = WorkloadRegistry::builtin();
    for name in registry.names() {
        let w = registry
            .build(name, Scale::Tiny)
            .expect("registry workload");
        let trace = w.capture_trace().expect("workload runs");
        let prepared = PreparedTrace::new(&w.program, &trace);
        let literal = Reference::new(&w.program, &trace);
        for model in ALL_MODELS {
            for et in [3, 16] {
                let config = SimConfig::new(model, et).with_p(prepared.accuracy());
                assert_agree(
                    &simulate(&prepared, &config),
                    &literal.simulate(None, &config),
                    &format!("{name} tiny ({} records): {config:?}", trace.len()),
                );
            }
        }
        assert_agree(
            &riseman_foster(&prepared, 2),
            &literal.riseman_foster(2),
            &format!("{name} tiny: riseman_foster bypassed=2"),
        );
    }
}

/// Control-dependence regions the generated programs never produce: a
/// join more than `CD_SCAN_CAP` (4096) records past its branch, with the
/// program's critical path starting past the cap, and a join pc passed
/// first at a deeper call depth, through recursion.
fn long_and_recursive_regions() -> String {
    let long_arm = format!(
        "{}        li   r9, 0\n{}",
        "        li   r3, 1\n".repeat(4200),
        "        addi r9, r9, 1\n".repeat(100)
    );
    format!(
        "
        li   r1, 13
        li   r5, 0
outer:  addi r5, r5, 1
        andi r6, r5, 1
        beq  r6, r0, skip       # odd trips run the long arm
{long_arm}
skip:   andi r7, r5, 2          # join of the beq, 4301 records on
        call f
        addi r1, r1, -1
        bgt  r1, r0, outer
        out  r8
        out  r9
        halt
f:      beq  r7, r0, leaf       # nonzero r7 recurses once
        sw   ra, 900(r0)
        li   r7, 0
        call f                  # passes `leaf` one call deeper first
        lw   ra, 900(r0)
leaf:   addi r8, r8, 1          # join of f's beq
        ret
"
    )
}

#[test]
fn long_and_recursive_regions_agree() {
    let program =
        dee_isa::parse::parse_program(&long_and_recursive_regions()).expect("listing parses");
    let trace = dee_vm::trace_program(&program, &[0; 1024], 1_000_000).expect("runs");
    let prepared = PreparedTrace::new(&program, &trace);
    let literal = Reference::new(&program, &trace);
    for model in ALL_MODELS {
        for et in ETS {
            let config = SimConfig::new(model, et);
            assert_agree(
                &simulate(&prepared, &config),
                &literal.simulate(None, &config),
                &format!("long and recursive regions: {config:?}"),
            );
        }
    }
}
