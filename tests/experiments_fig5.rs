//! EXPERIMENTS.md §FIG5 quotes `results/fig5_medium.csv`; this suite
//! holds the quotes to the golden, so a change that moves a cell names the
//! doc rows to rewrite.
//!
//! * The harmonic-mean table: every number equals the CSV's
//!   `harmonic-mean` row for its model and E_T, to the two decimals shown.
//! * The window-memo paragraph: "N of the 210 constrained cells" repeat
//!   the previous E_T's speedup to all four decimals.

use std::collections::HashMap;

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");
const FIG5_MEDIUM: &str = include_str!("../results/fig5_medium.csv");

/// `fig5`'s E_T axis (`dee_bench::FIG5_RESOURCES`).
const FIG5_RESOURCES: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// The §FIG5 section of EXPERIMENTS.md.
fn fig5_section() -> &'static str {
    let start = EXPERIMENTS
        .find("\n## FIG5")
        .expect("EXPERIMENTS.md has a FIG5 section");
    let rest = &EXPERIMENTS[start + 1..];
    let end = rest.find("\n## ").unwrap_or(rest.len());
    &rest[..end]
}

/// The CSV's speedups as written, by (benchmark, model, E_T).
fn golden() -> HashMap<(&'static str, &'static str, u32), &'static str> {
    FIG5_MEDIUM
        .lines()
        .skip(1)
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            let [bench, model, et, speedup] = fields[..] else {
                panic!("malformed golden row `{line}`");
            };
            let et = et.parse().expect("E_T is an integer");
            ((bench, model, et), speedup)
        })
        .collect()
}

#[test]
fn fig5_harmonic_mean_table_quotes_the_golden() {
    let golden = golden();
    let table = fig5_section()
        .split("| model | 8 | 16 | 32 | 64 | 128 | 256 |")
        .nth(1)
        .expect("§FIG5 has the harmonic-mean table");
    let mut quoted = 0;
    for row in table.lines().skip(2).take_while(|l| l.starts_with('|')) {
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        let (model, values) = cells.split_first().expect("a row names its model");
        assert_eq!(values.len(), FIG5_RESOURCES.len(), "row `{row}`");
        for (value, et) in values.iter().zip(FIG5_RESOURCES) {
            let speedup: f64 = golden[&("harmonic-mean", *model, et)]
                .parse()
                .expect("speedups are numbers");
            assert_eq!(
                *value,
                format!("{speedup:.2}"),
                "EXPERIMENTS §FIG5 quotes {model} at E_T {et} as {value}; \
                 results/fig5_medium.csv has {speedup}"
            );
            quoted += 1;
        }
    }
    assert_eq!(quoted, 7 * FIG5_RESOURCES.len(), "one row per model");
}

#[test]
fn fig5_repeat_count_matches_the_golden() {
    let golden = golden();
    let repeats = golden
        .keys()
        .filter(|&&(bench, model, et)| {
            let k = FIG5_RESOURCES.iter().position(|&e| e == et);
            bench != "harmonic-mean"
                && model != "Oracle"
                && k.is_some_and(|k| {
                    k > 0
                        && golden[&(bench, model, FIG5_RESOURCES[k - 1])]
                            == golden[&(bench, model, et)]
                })
        })
        .count();
    let phrase = " of the 210 constrained cells";
    let section = fig5_section();
    let at = section
        .find(phrase)
        .expect("§FIG5 counts the repeated cells");
    let quoted: usize = section[..at]
        .rsplit(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("a count precedes the phrase");
    assert_eq!(
        quoted, repeats,
        "EXPERIMENTS §FIG5 counts {quoted} repeated cells; results/fig5_medium.csv has {repeats}"
    );
}
