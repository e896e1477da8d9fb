//! `dee analyze` exit-code contract, exercised on the real binary:
//!
//! * 0 — program loaded and is diagnostic-free (under the chosen gate);
//! * 1 — program loaded but has lint findings (the gate failed);
//! * 2 — the program never loaded (I/O error or parse error).
//!
//! Scripts and CI use the distinction to separate "dirty program" from
//! "broken invocation", so the codes are pinned here. Every other `dee`
//! command exits 1 on a bad invocation.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dee(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dee"))
        .args(args)
        .output()
        .expect("spawn dee")
}

fn tmp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dee-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write program");
    path
}

#[test]
fn clean_program_exits_zero() {
    let path = tmp_file(
        "clean.s",
        "li r1, 3\nli r2, 4\nadd r1, r1, r2\nout r1\nhalt\n",
    );
    let out = dee(&["analyze", path.to_str().unwrap(), "--deny", "warnings"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn lint_findings_exit_one() {
    // A constant store far outside data memory is a DEE-E013-class error:
    // the program parses, so this is a finding, not a load failure.
    let path = tmp_file("dirty.s", "li r1, 7\nsw r1, 99999999(r0)\nhalt\n");
    let out = dee(&["analyze", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("DEE-"), "diagnostics printed: {stdout}");
}

#[test]
fn io_error_exits_two() {
    let out = dee(&["analyze", "/nonexistent/never/these.s"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn parse_error_exits_two() {
    let path = tmp_file("broken.s", "li r1, 3\nfrobnicate r1, r2\nhalt\n");
    let out = dee(&["analyze", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "error reported: {stderr}");
}

#[test]
fn plan_subcommand_writes_a_loadable_artifact() {
    let dir = std::env::temp_dir().join(format!("dee-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let out_path = dir.join("compress.dplan");
    let out = dee(&[
        "analyze",
        "plan",
        "compress",
        "--scale",
        "tiny",
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let bytes = std::fs::read(&out_path).expect("artifact written");
    let plan = dee::analyze::SpeculationPlan::from_bytes(&bytes).expect("DEEPLAN1 roundtrip");
    assert!(!plan.branches.is_empty());
    assert!(plan.expected_accuracy > 0.5 && plan.expected_accuracy <= 1.0);
}

#[test]
fn plan_io_error_exits_two() {
    let out = dee(&["analyze", "plan", "/nonexistent/never/these.s"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn a_flag_the_command_does_not_read_is_an_error() {
    for (args, code) in [
        (&["tree", "--workers", "3"][..], 1),
        (&["analyze", "compress", "--workers", "3"][..], 2),
    ] {
        let out = dee(args);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let command = args[0];
        assert!(
            stderr
                .lines()
                .any(|l| l == format!("error: unknown flag `--workers` for `dee {command}`")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

#[test]
fn et_outside_one_to_max_et_is_a_usage_error() {
    let gcd = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/asm/gcd.s");
    for args in [
        &["sim", gcd, "--et", "0"][..],
        &["replay", gcd, "/nonexistent/gcd.trace", "--et", "0"],
        &["gen", "sweep", "--et", "0"],
        &["tree", "--et", "0"],
        &["tree", "--et", "100001"],
    ] {
        let out = dee(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr
                .lines()
                .next()
                .is_some_and(|l| { l.starts_with("error: `--et` must be in 1..=100000, not ") }),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing ran");
    }
}

/// `dee replay` refuses a trace captured from another program, naming the
/// first record that does not fit, and still replays a matching pair.
#[test]
fn replay_refuses_a_trace_of_another_program() {
    let root = env!("CARGO_MANIFEST_DIR");
    let dot = format!("{root}/examples/asm/dot_product.s");
    let gcd = format!("{root}/examples/asm/gcd.s");
    let dir = std::env::temp_dir().join(format!("dee-replay-pairs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let dot_trace = dir.join("dot.trace");
    let gcd_trace = dir.join("gcd.trace");
    for (program, trace) in [(&dot, &dot_trace), (&gcd, &gcd_trace)] {
        let out = dee(&["trace", program, "-o", trace.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
    }
    for (program, trace) in [(&gcd, &dot_trace), (&dot, &gcd_trace)] {
        let out = dee(&["replay", program, trace.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("does not belong"), "{stderr}");
        assert!(
            stderr.contains("record "),
            "names the first bad record: {stderr}"
        );
        assert!(out.stdout.is_empty(), "no speedups printed: {out:?}");
    }
    let out = dee(&["replay", &dot, dot_trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("replaying 647 records"));
    std::fs::remove_dir_all(dir).ok();
}
