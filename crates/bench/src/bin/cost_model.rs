//! §4.3 hardware cost estimates.
//!
//! Reproduces the paper's transistor-budget shares for the Levo
//! configurations: the ~40% concurrency/scheduling overhead, the DEE share
//! for 11 two-column DEE paths (paper: ~18%) and 3 one-column paths
//! (paper: ~3%), and the ~1M-transistor marginal cost of a one-column DEE
//! path — the basis of the conclusion "the marginal cost of DEE is low".

use dee_bench::{f2, pct, SweepArgs, TextTable};
use dee_levo::cost::CostModel;
use dee_levo::LevoConfig;

fn main() {
    let _ = SweepArgs::from_env("cost_model", &[]);
    let model = CostModel::default();
    println!(
        "Hardware cost model: {:.0}M transistor budget, {:.1}M per DEE column, {:.0}% concurrency overhead\n",
        model.total_transistors / 1e6,
        model.per_dee_column / 1e6,
        model.concurrency_overhead_fraction * 100.0
    );

    let configs: [(&str, LevoConfig, &str); 3] = [
        ("CONDEL-2 (no DEE)", LevoConfig::condel2(), "-"),
        ("3 x 1-col (E_T=32)", LevoConfig::default(), "~3%"),
        ("11 x 2-col (E_T=100)", LevoConfig::levo_100(), "~18%"),
    ];

    let mut t = TextTable::new(&[
        "configuration",
        "DEE columns",
        "DEE transistors",
        "DEE share",
        "paper share",
        "concurrency hw",
        "base hw",
    ]);
    for (name, config, paper) in configs {
        let c = model.breakdown(&config);
        t.row(vec![
            name.into(),
            c.dee_columns.to_string(),
            format!("{:.1}M", c.dee_transistors / 1e6),
            pct(c.dee_fraction),
            paper.into(),
            format!("{:.1}M", c.concurrency_transistors / 1e6),
            format!("{:.1}M", c.base_transistors / 1e6),
        ]);
    }
    println!("{}", t.render());

    // Marginal cost check.
    let mut with_extra = LevoConfig::default();
    with_extra.dee_paths += 1;
    let marginal = model.breakdown(&with_extra).dee_transistors
        - model.breakdown(&LevoConfig::default()).dee_transistors;
    println!(
        "marginal cost of one additional 1-column DEE path: {}M transistors (paper: ~1M)",
        f2(marginal / 1e6)
    );
    println!(
        "note: the paper's 18% share implies a ~{:.0}M-transistor E_T=100 part; with the\n\
         default 75M budget the 22 columns are {} of the chip — the same conclusion, the\n\
         marginal cost of DEE is low.",
        model.breakdown(&LevoConfig::levo_100()).dee_transistors / 0.18 / 1e6,
        pct(model.breakdown(&LevoConfig::levo_100()).dee_fraction)
    );
    let path = t.write_csv("cost_model.csv").expect("csv");
    println!("\nwrote {}", path.display());
}
