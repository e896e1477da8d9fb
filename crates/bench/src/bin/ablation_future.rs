//! The paper's stated future work (§1.2, §5.3): explicitly limited PEs and
//! non-unit instruction latencies.
//!
//! §5.3 leaves open: "It is not yet clear what the net effect of assuming
//! non-unit latencies on the DEE-CD-MF model will be. On one hand, in
//! other studies ... the performance of the models decreased significantly.
//! On the other hand, concurrent instructions in the DEE-CD-MF model may
//! exhibit much more overlap." This binary measures both effects on our
//! traces:
//!
//! 1. latency sweep (unit vs a classic 4-cycle-mul / 2-cycle-mem pipeline)
//!    for SP, SP-CD-MF, and DEE-CD-MF at E_T = 100 — reporting both IPC
//!    and speedup over the (equally slowed) sequential machine;
//! 2. explicit PE limits (issue-width caps) for DEE-CD-MF, showing where
//!    the implicit-PE assumption stops mattering.
//!
//! Additionally compares Levo's per-row predictor options (2-bit counter
//! vs speculative PAp, §4.3).
//!
//! Usage: `ablation_future [tiny|small|medium|large] [--jobs N] [--workloads LIST] [--probs predictor|trace|static] [--max-rss BYTES]`.

use dee_bench::{f2, Sweep, TextTable, SUITE_ARGS};
use dee_ilpsim::{harmonic_mean, simulate, LatencyModel, Model, SimConfig};
use dee_levo::{Levo, LevoConfig, PredictorKind};

fn main() {
    let sweep = Sweep::load("ablation_future", SUITE_ARGS);
    let p = sweep.p();
    let et = 100;

    // Each trace is prepared exactly once and shared by the latency and
    // PE-limit sweeps.
    let prepared = sweep.prepare();

    println!(
        "Non-unit latencies (mul/div 4, mem 2; E_T = {et}, p = {}):\n",
        f2(p)
    );
    let lat_models = [Model::Sp, Model::SpCdMf, Model::DeeCdMf, Model::Oracle];
    // One cell = both latency variants of one (model, benchmark), sharing
    // the prepared trace: (speedup unit, speedup classic, ipc unit, ipc
    // classic).
    let lat_grid = sweep.grid("ablation_future_latency", &lat_models, |&model, b| {
        let unit = simulate(&prepared[b], &SimConfig::new(model, et).with_p(p));
        let classic = simulate(
            &prepared[b],
            &SimConfig::new(model, et)
                .with_p(p)
                .with_latency(LatencyModel::CLASSIC),
        );
        (unit.speedup(), classic.speedup(), unit.ipc(), classic.ipc())
    });
    let mut lat = TextTable::new(&[
        "model",
        "speedup unit",
        "speedup classic",
        "ipc unit",
        "ipc classic",
    ]);
    for (model, group) in lat_models.iter().zip(&lat_grid) {
        let col = |f: fn(&(f64, f64, f64, f64)) -> f64| {
            f2(harmonic_mean(&group.iter().map(f).collect::<Vec<f64>>()))
        };
        lat.row(vec![
            model.name().into(),
            col(|c| c.0),
            col(|c| c.1),
            col(|c| c.2),
            col(|c| c.3),
        ]);
    }
    println!("{}", lat.render());

    println!("Explicit PE limits (DEE-CD-MF, unit latency, E_T = {et}):\n");
    let caps: [Option<u32>; 7] = [
        Some(2),
        Some(4),
        Some(8),
        Some(16),
        Some(32),
        Some(64),
        None,
    ];
    let pe_grid = sweep.grid("ablation_future_pe", &caps, |&cap, b| {
        let mut config = SimConfig::new(Model::DeeCdMf, et).with_p(p);
        if let Some(cap) = cap {
            config = config.with_max_pe(cap);
        }
        simulate(&prepared[b], &config).speedup()
    });
    let mut pes = TextTable::new(&["max PEs/cycle", "HM speedup"]);
    for (cap, speedups) in caps.iter().zip(&pe_grid) {
        let label = cap.map_or("unlimited".to_string(), |c| c.to_string());
        pes.row(vec![label, f2(harmonic_mean(speedups))]);
    }
    println!("{}", pes.render());

    println!("Levo per-row predictor (§4.3), 3 x 1-col DEE paths:\n");
    let levo_flat = sweep.run(
        "ablation_future_levo",
        sweep
            .suite
            .entries
            .iter()
            .map(|entry| {
                move || {
                    let w = &entry.workload;
                    let two_bit = Levo::new(LevoConfig::default())
                        .run(&w.program, &w.initial_memory)
                        .expect("levo 2bc runs");
                    let pap = Levo::new(LevoConfig {
                        predictor: PredictorKind::PapSpeculative,
                        ..LevoConfig::default()
                    })
                    .run(&w.program, &w.initial_memory)
                    .expect("levo pap runs");
                    assert_eq!(two_bit.output, w.expected_output);
                    assert_eq!(pap.output, w.expected_output);
                    (two_bit.ipc(), pap.ipc())
                }
            })
            .collect(),
    );
    let mut pred = TextTable::new(&["benchmark", "ipc 2bc", "ipc pap-spec"]);
    for (entry, &(two_bit, pap)) in sweep.suite.entries.iter().zip(&levo_flat) {
        pred.row(vec![entry.workload.name.clone(), f2(two_bit), f2(pap)]);
    }
    println!("{}", pred.render());

    let path = sweep.write_csv(&lat, "ablation_future");
    println!("wrote {}", path.display());
    sweep.finish();
}
