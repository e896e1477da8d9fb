//! Static-analysis census of the benchmark suite: proves the shipped
//! workloads are lint-clean and publishes their static branch taxonomy.
//!
//! For each workload this runs the full `dee-analyze` lint battery and the
//! static branch census, then emits `results/workload_lint_<scale>.csv` with one
//! row per workload: diagnostic counts (which must be zero — the binary
//! exits nonzero otherwise, making it a CI gate), program size, conditional
//! branch census (loop-back vs forward), reducibility, and the mean static
//! path length between branches — the static half of the paper's §4 DEE
//! tree inputs.
//!
//! Covers every registered workload — the paper five plus `synacor` and
//! `sc` — not just the default suite.
//!
//! Usage: `workload_lint [tiny|small|medium|large]`.

use dee_analyze::{analyze, BranchCensus};
use dee_bench::{f2, scale_tag, Arg, SweepArgs, TextTable};
use dee_workloads::WorkloadRegistry;

fn main() {
    let scale = SweepArgs::from_env("workload_lint", &[Arg::Scale]).scale();
    let tag = scale_tag(scale);
    let mut table = TextTable::new(&[
        "workload",
        "scale",
        "instrs",
        "errors",
        "warnings",
        "branches",
        "loop_back",
        "forward",
        "reducible",
        "mean_static_path",
    ]);
    let mut dirty = 0usize;
    for w in WorkloadRegistry::builtin().build_all(scale) {
        let report = analyze(&w.program);
        if !report.is_clean() {
            eprint!("{}", report.render_text(&w.name));
            dirty += report.diagnostics().len();
        }
        let census = BranchCensus::build(&w.program);
        let loop_back = census.num_loop_back();
        table.row(vec![
            w.name.to_string(),
            tag.clone(),
            w.program.len().to_string(),
            report.error_count().to_string(),
            report.warning_count().to_string(),
            census.num_branches().to_string(),
            loop_back.to_string(),
            (census.num_branches() - loop_back).to_string(),
            // All shipped workloads are structured, but record it rather
            // than assume it.
            {
                use dee_analyze::{flow::Flow, structure};
                let flow = Flow::new(w.program.instrs());
                let doms = structure::Doms::compute(&flow);
                u32::from(structure::find_loops(&flow, &doms).is_reducible()).to_string()
            },
            f2(census.mean_static_path_len()),
        ]);
    }
    println!("Static lint/census over the suite at {scale:?}:\n");
    println!("{}", table.render());
    match table.write_scaled_csv("workload_lint", scale) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("csv write failed: {e}"),
    }
    if dirty > 0 {
        eprintln!("{dirty} diagnostic(s) on shipped workloads");
        std::process::exit(1);
    }
}
