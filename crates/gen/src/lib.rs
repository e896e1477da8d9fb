//! # dee-gen — seeded workload-space generator
//!
//! The paper's five workload models sit in a narrow band of branch
//! predictability (85–95%), which is exactly where DEE's advantage over
//! single-path speculation is claimed to peak. To *map* that advantage as
//! a function of predictability — rather than sample it at five points —
//! this crate generates synthetic toy-ISA programs whose branch behavior,
//! control structure, and memory behavior are independently dialable:
//!
//! * [`GenSpec`] is the knob vector (predictability, per-site spread,
//!   loop-nest depth, call density, indirect-jump density, aliasing
//!   degree, block count, trip count) with a canonical `key=value` text
//!   form.
//! * [`generate`] turns `(spec, seed)` into a [`Generated`] program:
//!   deterministic, validated against its own reference execution, and
//!   wrapped in a [`dee_workloads::Workload`] so every downstream layer
//!   (trace capture, the artifact store, `dee analyze`, the sweep
//!   binaries) treats it exactly like the paper five.
//! * Every listing rendered by [`Generated::listing`] opens with a
//!   `# dee-gen v1 seed=… pred=… …` comment header; [`from_listing`]
//!   regenerates the identical program from that header alone, so any
//!   file (or CSV row echoing the spec columns) is self-reproducing.
//!
//! Determinism contract: the same `(spec, seed)` yields byte-identical
//! listings, memory images, and traces on every host — the generator draws
//! only from `dee-rng`'s seeded xorshift64* and no platform-dependent
//! state.

pub mod emit;
pub mod spec;

pub use spec::{parse_header, render_header, GenSpec, SpecError, HEADER_TAG};

use dee_vm::{trace_program_with, Engine, Trace};
use dee_workloads::{Workload, WorkloadRegistry};

use std::fmt;

/// Why generation failed.
#[derive(Clone, Debug)]
pub enum GenError {
    /// The spec was malformed or out of range.
    Spec(SpecError),
    /// The generated program failed its own reference execution — a
    /// generator bug, never an expected outcome.
    Runtime(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Spec(e) => write!(f, "{e}"),
            GenError::Runtime(e) => write!(f, "generated program failed to run: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<SpecError> for GenError {
    fn from(e: SpecError) -> Self {
        GenError::Spec(e)
    }
}

/// A generated program plus everything needed to reproduce and run it.
pub struct Generated {
    /// The knob vector it was generated from.
    pub spec: GenSpec,
    /// The PRNG seed.
    pub seed: u64,
    /// The program as a first-class workload (name, program, memory
    /// image, expected output from the generation-time reference run, and
    /// a sound step budget).
    pub workload: Workload,
    /// The reference trace captured while validating generation; callers
    /// may reuse it instead of re-running the VM.
    pub trace: Trace,
    /// Total innermost-body executions (outer trips × inner loop trips).
    pub inner_iterations: u64,
}

impl Generated {
    /// The workload name: `gen-<spec digest>-s<seed>`, content-derived so
    /// distinct points in workload space never collide in the store.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.workload.name
    }

    /// The program listing prefixed with the reproducibility header;
    /// parseable by `dee_isa::parse_program` (the header is a comment)
    /// and by [`from_listing`] (which regenerates the whole workload).
    #[must_use]
    pub fn listing(&self) -> String {
        format!(
            "{}{}",
            render_header(&self.spec, self.seed),
            self.workload.program.to_listing()
        )
    }

    /// Registers this program's `(spec, seed)` as a constructor under its
    /// generated name, so suites can build it like any built-in workload.
    /// Scale is ignored: generated programs carry their size in `iters`.
    pub fn register(&self, registry: &mut WorkloadRegistry) {
        let spec = self.spec;
        let seed = self.seed;
        registry.register(self.name(), move |_scale| {
            generate(&spec, seed)
                .expect("a spec+seed that generated once generates again")
                .workload
        });
    }
}

/// The workload name for a `(spec, seed)` point without generating it.
#[must_use]
pub fn workload_name(spec: &GenSpec, seed: u64) -> String {
    format!("gen-{:08x}-s{seed}", spec.digest())
}

/// Generates the program for `(spec, seed)`: two emitter passes to
/// materialize dispatch-table addresses, decision-stream memory image,
/// then one reference execution to capture the expected output and prove
/// the program halts within its declared budget.
///
/// # Errors
///
/// [`GenError::Spec`] for out-of-range knobs; [`GenError::Runtime`] if
/// the emitted program faults or overruns its budget (a generator bug).
pub fn generate(spec: &GenSpec, seed: u64) -> Result<Generated, GenError> {
    generate_with(spec, seed, Engine::default())
}

/// [`generate`] with an explicit trace-capture engine. Both engines
/// produce byte-identical traces, so this only changes generation speed.
///
/// # Errors
///
/// Same contract as [`generate`].
pub fn generate_with(spec: &GenSpec, seed: u64, engine: Engine) -> Result<Generated, GenError> {
    spec.validate()?;
    let probe = emit::emit(spec, seed, &[]);
    let emitted = emit::emit(spec, seed, &probe.tables);
    // Both passes draw the same PRNG sequence and `li` is one
    // instruction regardless of value, so the layout cannot move.
    assert_eq!(
        emitted.tables, probe.tables,
        "dispatch tables moved between emitter passes"
    );
    let initial_memory = emit::build_memory(&emitted.sites, seed);

    // Sound budget: every innermost iteration executes at most the whole
    // program once (it executes far less), plus setup slack.
    let step_limit = 2 * (emitted.program.len() as u64 + 8) * (emitted.inner_iterations + 4) + 1024;

    let trace = trace_program_with(engine, &emitted.program, &initial_memory, step_limit)
        .map_err(|e| GenError::Runtime(format!("{} (seed {seed}): {e}", spec.canonical())))?;
    let workload = Workload {
        name: workload_name(spec, seed),
        program: emitted.program,
        initial_memory,
        expected_output: trace.output().to_vec(),
        step_limit,
    };
    Ok(Generated {
        spec: *spec,
        seed,
        workload,
        trace,
        inner_iterations: emitted.inner_iterations,
    })
}

/// Regenerates a program from the `# dee-gen v1` header inside `text`
/// (typically a listing produced by [`Generated::listing`]).
///
/// # Errors
///
/// Header-parse failures and any [`generate`] error.
pub fn from_listing(text: &str) -> Result<Generated, GenError> {
    let (spec, seed) = parse_header(text)?;
    generate(&spec, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_generates_and_validates() {
        let g = generate(&GenSpec::default(), 1).unwrap();
        let trace = g.workload.validate().expect("generated workload runs");
        assert_eq!(trace.output(), g.trace.output());
        assert!(g.workload.expected_output.len() == 5);
    }

    #[test]
    fn listing_header_regenerates_identical_program() {
        let spec = GenSpec::parse("pred=0.7,jr=0.4,calls=0.5,depth=3,iters=16").unwrap();
        let g = generate(&spec, 7).unwrap();
        let back = from_listing(&g.listing()).unwrap();
        assert_eq!(back.listing(), g.listing());
        assert_eq!(back.workload.initial_memory, g.workload.initial_memory);
        assert_eq!(back.workload.expected_output, g.workload.expected_output);
    }

    #[test]
    fn listing_parses_with_stock_parser() {
        let g = generate(&GenSpec::default(), 3).unwrap();
        let parsed = dee_isa::parse::parse_program(&g.listing()).expect("header is a comment");
        assert_eq!(parsed.len(), g.workload.program.len());
    }

    #[test]
    fn seeds_differentiate_programs() {
        let spec = GenSpec::default();
        let a = generate(&spec, 1).unwrap();
        let b = generate(&spec, 2).unwrap();
        assert_ne!(a.name(), b.name());
        assert_ne!(
            a.workload.program.to_listing(),
            b.workload.program.to_listing()
        );
    }

    #[test]
    fn registry_roundtrip_builds_same_workload() {
        let mut registry = WorkloadRegistry::new();
        let g = generate(&GenSpec::default(), 9).unwrap();
        g.register(&mut registry);
        let built = registry
            .build(g.name(), dee_workloads::Scale::Tiny)
            .expect("registered");
        assert_eq!(built.expected_output, g.workload.expected_output);
        assert_eq!(built.program.to_listing(), g.workload.program.to_listing());
    }
}
