//! EXPERIMENTS.md §FIG5 quotes `results/fig5_medium.csv`; this suite
//! holds the quotes to the golden, so a change that moves a cell names the
//! doc rows to rewrite.
//!
//! * The harmonic-mean table: every number equals the CSV's
//!   `harmonic-mean` row for its model and E_T, to the two decimals shown.
//! * The window-memo paragraph: "N of the 210 constrained cells" repeat
//!   the previous E_T's speedup to all four decimals.
//! * §TAB-ORACLE's measured column: every benchmark equals the CSV's
//!   `Oracle` row, and the harmonic-mean row the harmonic mean of those
//!   five rows as written, to the two decimals shown.
//! * §TAB-HEADLINE's measured column equals `results/headline_medium.csv`
//!   as written, row by row (a ratio quoted as a percentage, ×100).
//! * §TAB-RESOLVE's root share, per-benchmark range and coverage equal
//!   `results/resolve_location_medium.csv`.

use std::collections::HashMap;

use dee::ilpsim::harmonic_mean;

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");
const FIG5_MEDIUM: &str = include_str!("../results/fig5_medium.csv");
const HEADLINE_MEDIUM: &str = include_str!("../results/headline_medium.csv");
const RESOLVE_MEDIUM: &str = include_str!("../results/resolve_location_medium.csv");

/// `fig5`'s E_T axis (`dee_bench::FIG5_RESOURCES`).
const FIG5_RESOURCES: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// The section of EXPERIMENTS.md that starts with `heading`.
fn section(heading: &str) -> &'static str {
    let start = EXPERIMENTS
        .find(&format!("\n## {heading}"))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has a {heading} section"));
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
    let table = section("FIG5")
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
    let fig5 = section("FIG5");
    let at = fig5.find(phrase).expect("§FIG5 counts the repeated cells");
    let quoted: usize = fig5[..at]
        .rsplit(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("a count precedes the phrase");
    assert_eq!(
        quoted, repeats,
        "EXPERIMENTS §FIG5 counts {quoted} repeated cells; results/fig5_medium.csv has {repeats}"
    );
}

#[test]
fn tab_oracle_quotes_the_golden() {
    let golden = golden();
    let table = section("TAB-ORACLE")
        .split("| benchmark | paper | measured | status |")
        .nth(1)
        .expect("§TAB-ORACLE has the oracle table");
    let mut rows = Vec::new();
    for row in table.lines().skip(2).take_while(|l| l.starts_with('|')) {
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        let [bench, _paper, measured, ..] = cells[..] else {
            panic!("malformed TAB-ORACLE row `{row}`");
        };
        rows.push((bench, measured));
    }
    let (hm_row, bench_rows) = rows.split_last().expect("§TAB-ORACLE has rows");
    let speedups: Vec<f64> = bench_rows
        .iter()
        .map(|&(bench, measured)| {
            let written = golden[&(bench, "Oracle", 0)];
            let speedup: f64 = written.parse().expect("speedups are numbers");
            assert_eq!(
                measured,
                format!("{speedup:.2}"),
                "EXPERIMENTS §TAB-ORACLE quotes {bench}'s oracle as {measured}; \
                 results/fig5_medium.csv has {written}"
            );
            speedup
        })
        .collect();
    assert_eq!(speedups.len(), 5, "one row per paper workload");
    let hm = harmonic_mean(&speedups);
    assert_eq!(hm_row.0, "harmonic mean");
    assert_eq!(
        hm_row.1,
        format!("{hm:.2}"),
        "EXPERIMENTS §TAB-ORACLE quotes the oracle's harmonic mean as {}; \
         the CSV's five rows give {hm}",
        hm_row.1
    );
}

/// The rows of a markdown table in `section` that follows `header`, as
/// trimmed cells.
fn table_rows(section: &'static str, header: &str) -> Vec<Vec<&'static str>> {
    let table = section
        .split(header)
        .nth(1)
        .unwrap_or_else(|| panic!("no table headed `{header}`"));
    table
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| row.trim_matches('|').split('|').map(str::trim).collect())
        .collect()
}

#[test]
fn tab_headline_quotes_the_golden() {
    let rows = table_rows(
        section("TAB-HEADLINE"),
        "| statistic | paper | measured | status |",
    );
    let golden: Vec<(&str, &str)> = HEADLINE_MEDIUM
        .lines()
        .skip(1)
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            (fields[0], fields[1])
        })
        .collect();
    assert_eq!(rows.len(), golden.len(), "one doc row per golden row");
    for (row, (statistic, written)) in rows.iter().zip(&golden) {
        let quoted = row[2];
        let as_written = match quoted.strip_suffix('%') {
            Some(percent) => {
                let ratio: f64 = written.parse().expect("a ratio quoted as a percentage");
                (percent == format!("{:.0}", ratio * 100.0)).then_some(*written)
            }
            None => Some(quoted.trim_end_matches('×')),
        };
        assert_eq!(
            as_written,
            Some(*written),
            "EXPERIMENTS §TAB-HEADLINE quotes `{statistic}` as {quoted}; \
             results/headline_medium.csv has {written}"
        );
    }
}

#[test]
fn tab_resolve_quotes_the_golden() {
    let mut at_root = Vec::new();
    let mut all = None;
    for line in RESOLVE_MEDIUM.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        if fields[0] == "ALL" {
            all = Some((fields[2], fields[4]));
        } else {
            let share: f64 = fields[2].trim_end_matches('%').parse().expect("a share");
            at_root.push(share);
        }
    }
    let (root, covered) = all.expect("resolve_location has an ALL row");
    let lo = at_root.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = at_root.iter().copied().fold(0.0, f64::max);
    let range = format!("{lo:.0}–{hi:.0}%");
    let rows = table_rows(
        section("TAB-RESOLVE"),
        "| quantity | paper | measured | status |",
    );
    let measured = |quantity: &str| {
        rows.iter()
            .find(|row| row[0].starts_with(quantity))
            .unwrap_or_else(|| panic!("§TAB-RESOLVE has a `{quantity}` row"))[2]
    };
    let root_cell = measured("resolved at tree root");
    assert!(
        root_cell.starts_with(&format!("**{root}**")),
        "§TAB-RESOLVE quotes the root share as `{root_cell}`; the golden has {root}"
    );
    assert!(
        root_cell.contains(&format!("per benchmark {range})")),
        "§TAB-RESOLVE quotes the per-benchmark range as `{root_cell}`; the golden spans {range}"
    );
    let covered_cell = measured("within DEE coverage");
    assert_eq!(
        covered_cell, covered,
        "§TAB-RESOLVE quotes coverage as `{covered_cell}`; the golden has {covered}"
    );
}
