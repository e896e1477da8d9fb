//! Differential testing of the two execution engines.
//!
//! The pre-decoded engine (`Engine::Decoded`) is a performance rewrite of
//! the reference interpreter (`Engine::Interp`); its contract is *byte
//! identity*, not approximate agreement. For every builtin registry
//! workload and a seeded grid of `dee-gen` workload-space points, both
//! engines must produce:
//!
//! * identical `DEETRC1` serialized trace bytes,
//! * identical final machine state (FNV-1a state digest over registers,
//!   pc, halt flag, call depth, executed count, output, and memory), and
//! * identical predictor accuracy counters when the captured traces are
//!   replayed through the paper's 2-bit predictor.
//!
//! Both engines write one compact `Trace`, so comparing their decoded
//! records alone would share the encoder. Each engine's records are
//! also held to a plain `Vec` of the records `Machine::step` returns,
//! which never passes through the encoding.
//!
//! `DEE_CHAOS_SEED` (default 42) picks the generated grid;
//! `DEE_CHAOS_ITERS` (default 300) scales how many grid points run.

use dee::gen::{generate_with, GenSpec};
use dee::predict::{measure_accuracy, TwoBitCounter};
use dee::vm::{DecodedMachine, DecodedProgram, Engine, Machine, StepOutcome, Trace, TraceRecord};
use dee::workloads::{Scale, Workload, WorkloadRegistry};
use dee_rng::env_u64;

fn deetrc1_bytes(trace: &Trace) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("in-memory serialization");
    bytes
}

/// The records `Machine::step` returns for the workload, collected into a
/// plain `Vec`: the reference for both engines' decoded traces.
fn stepped_records(w: &Workload, label: &str) -> Vec<TraceRecord> {
    let mut machine = Machine::new();
    machine.load_memory(&w.initial_memory);
    let mut records = Vec::new();
    loop {
        assert!(machine.executed() < w.step_limit, "{label}: step limit");
        let (outcome, record) = machine
            .step(&w.program)
            .unwrap_or_else(|e| panic!("{label}: step failed: {e}"));
        records.push(record);
        if outcome == StepOutcome::Halted {
            return records;
        }
    }
}

/// Requires `trace`'s decoded records to equal `stepped`, naming the
/// first record that differs.
fn assert_records_match(trace: &Trace, stepped: &[TraceRecord], label: &str) {
    assert_eq!(trace.len(), stepped.len(), "{label}: record counts differ");
    if let Some((i, (got, want))) = trace
        .records()
        .zip(stepped)
        .enumerate()
        .find(|(_, (got, want))| got != *want)
    {
        panic!("{label}: record {i} decodes as {got:?}, stepped {want:?}");
    }
}

/// Runs the workload to completion on both machines and asserts every
/// observable agrees: trace bytes, state digests, accuracy counters, and
/// each engine's records against the stepped reference.
fn assert_engines_identical(w: &Workload, label: &str) {
    let interp = w
        .capture_trace_with(Engine::Interp)
        .unwrap_or_else(|e| panic!("{label}: interpreter capture failed: {e}"));
    let decoded = w
        .capture_trace_with(Engine::Decoded)
        .unwrap_or_else(|e| panic!("{label}: decoded capture failed: {e}"));

    assert_eq!(
        deetrc1_bytes(&interp),
        deetrc1_bytes(&decoded),
        "{label}: DEETRC1 bytes diverge between engines"
    );
    let stepped = stepped_records(w, label);
    assert_records_match(&interp, &stepped, &format!("{label} (interp)"));
    assert_records_match(&decoded, &stepped, &format!("{label} (decoded)"));

    let mut reference = Machine::new();
    reference.load_memory(&w.initial_memory);
    reference
        .run(&w.program, w.step_limit)
        .unwrap_or_else(|e| panic!("{label}: interpreter run failed: {e}"));
    let program = DecodedProgram::compile(&w.program);
    let mut fast = DecodedMachine::new();
    fast.try_load_memory(&w.initial_memory)
        .unwrap_or_else(|e| panic!("{label}: memory image rejected: {e}"));
    fast.run(&program, w.step_limit)
        .unwrap_or_else(|e| panic!("{label}: decoded run failed: {e}"));
    assert_eq!(
        reference.state_digest(),
        fast.state_digest(),
        "{label}: final machine state diverges between engines"
    );

    let a = measure_accuracy(&mut TwoBitCounter::new(), &interp);
    let b = measure_accuracy(&mut TwoBitCounter::new(), &decoded);
    assert_eq!(
        a, b,
        "{label}: predictor accuracy counters diverge between engines"
    );
    assert_eq!(interp.output(), w.expected_output.as_slice(), "{label}");
}

#[test]
fn registry_workloads_identical_across_engines() {
    let registry = WorkloadRegistry::builtin();
    for name in registry.names() {
        let w = registry.build(name, Scale::Tiny).expect("registered");
        assert_engines_identical(&w, name);
    }
}

/// At small, the decoded engine's records against the stepped reference
/// (the interpreter's capture adds nothing the tiny sweep does not check).
#[test]
fn registry_workloads_decode_to_stepped_records_at_small() {
    let registry = WorkloadRegistry::builtin();
    for name in registry.names() {
        let w = registry.build(name, Scale::Small).expect("registered");
        let decoded = w
            .capture_trace_with(Engine::Decoded)
            .unwrap_or_else(|e| panic!("{name}: decoded capture failed: {e}"));
        assert_records_match(&decoded, &stepped_records(&w, name), name);
    }
}

#[test]
fn seeded_gen_grid_identical_across_engines() {
    // A spec grid spanning the generator's knobs: predictability sweep,
    // deep loop nests, call- and jr-heavy control, aliased memory.
    let specs = [
        "",
        "pred=0.6,spread=0.2",
        "pred=0.95,iters=32",
        "depth=3,blocks=6,iters=24",
        "calls=0.6,jr=0.4,iters=32",
        "alias=0.9,pred=0.75,iters=48",
    ];
    let seed = env_u64("DEE_CHAOS_SEED", 42);
    // Default 300 "iterations" maps to 12 grid points (two engine runs
    // plus two machine runs each); scale up for soak runs.
    let points = (env_u64("DEE_CHAOS_ITERS", 300) / 25).max(specs.len() as u64);

    for point in 0..points {
        let spec_text = specs[(point as usize) % specs.len()];
        let spec = GenSpec::parse(spec_text).expect("grid specs are valid");
        let point_seed = seed ^ (point.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let label = format!("gen[{spec_text}] seed={point_seed}");

        let interp = generate_with(&spec, point_seed, Engine::Interp)
            .unwrap_or_else(|e| panic!("{label}: interp generation failed: {e}"));
        let decoded = generate_with(&spec, point_seed, Engine::Decoded)
            .unwrap_or_else(|e| panic!("{label}: decoded generation failed: {e}"));

        // The generator validates against its own reference execution, so
        // engine-sensitive capture would surface here first.
        assert_eq!(
            interp.workload.expected_output, decoded.workload.expected_output,
            "{label}: generation-time outputs diverge"
        );
        assert_eq!(
            deetrc1_bytes(&interp.trace),
            deetrc1_bytes(&decoded.trace),
            "{label}: generation-time DEETRC1 bytes diverge"
        );
        assert_engines_identical(&interp.workload, &label);
    }
}
