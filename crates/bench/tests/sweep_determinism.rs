//! Byte-determinism of the parallel sweep engine.
//!
//! The contract from DESIGN.md §8: a sweep binary's output — stdout and
//! every file under `results/` — is a pure function of its inputs,
//! independent of `--jobs`. Each test here runs one converted binary at
//! tiny scale with `--jobs 1` and `--jobs 4` in separate scratch
//! directories and byte-compares everything, including against the
//! goldens committed under `results/` (so regeneration is provably a
//! no-op). The pool itself is additionally property-tested with seeded
//! pseudo-random job durations, which scramble completion order without
//! scrambling results.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use dee_bench::pool;
use dee_rng::Rng;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dee_sweep_det_{}_{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(exe: &str, dir: &Path, jobs: &str) -> String {
    let output = Command::new(exe)
        .args(["tiny", "--jobs", jobs])
        .current_dir(dir)
        .output()
        .expect("spawn sweep binary");
    assert!(
        output.status.success(),
        "{exe} tiny --jobs {jobs} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

/// Everything the run wrote under `results/`, sorted by name.
fn results_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("results"))
        .expect("sweep wrote a results dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf-8 name");
            let bytes = std::fs::read(entry.path()).expect("read result file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

fn check_binary(exe: &str, tag: &str) {
    let serial_dir = temp_dir(&format!("{tag}_j1"));
    let parallel_dir = temp_dir(&format!("{tag}_j4"));
    let serial_out = run(exe, &serial_dir, "1");
    let parallel_out = run(exe, &parallel_dir, "4");
    assert_eq!(
        serial_out, parallel_out,
        "{tag}: stdout differs between --jobs 1 and --jobs 4"
    );
    let serial_files = results_files(&serial_dir);
    let parallel_files = results_files(&parallel_dir);
    assert!(!serial_files.is_empty(), "{tag} wrote nothing to results/");
    assert_eq!(
        serial_files.len(),
        parallel_files.len(),
        "{tag}: file sets differ"
    );
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for ((name, serial), (parallel_name, parallel)) in serial_files.iter().zip(&parallel_files) {
        assert_eq!(name, parallel_name, "{tag}: file sets differ");
        assert!(
            serial == parallel,
            "{tag}: results/{name} differs between --jobs 1 and --jobs 4"
        );
        let golden = std::fs::read(goldens.join(name))
            .unwrap_or_else(|e| panic!("{tag}: committed golden results/{name} unreadable: {e}"));
        assert!(
            serial == &golden,
            "{tag}: results/{name} drifted from the committed golden — \
             regeneration is supposed to be a no-op"
        );
    }
    std::fs::remove_dir_all(serial_dir).ok();
    std::fs::remove_dir_all(parallel_dir).ok();
}

macro_rules! determinism_test {
    ($name:ident, $bin:literal) => {
        #[test]
        fn $name() {
            check_binary(env!(concat!("CARGO_BIN_EXE_", $bin)), $bin);
        }
    };
}

determinism_test!(fig5_is_byte_deterministic, "fig5");
determinism_test!(headline_is_byte_deterministic, "headline");
determinism_test!(levo_eval_is_byte_deterministic, "levo_eval");
determinism_test!(ablation_p_is_byte_deterministic, "ablation_p");
determinism_test!(ablation_shape_is_byte_deterministic, "ablation_shape");
determinism_test!(
    ablation_predictor_is_byte_deterministic,
    "ablation_predictor"
);
determinism_test!(ablation_future_is_byte_deterministic, "ablation_future");
determinism_test!(ablation_memory_is_byte_deterministic, "ablation_memory");
determinism_test!(
    predictor_accuracy_is_byte_deterministic,
    "predictor_accuracy"
);
determinism_test!(riseman_foster_is_byte_deterministic, "riseman_foster");
determinism_test!(resolve_location_is_byte_deterministic, "resolve_location");
determinism_test!(genspace_is_byte_deterministic, "genspace");
determinism_test!(static_probs_is_byte_deterministic, "static_probs");

/// Runs `exe` on a bad command line in an empty `dir` and checks that it
/// exits 2 with an `error:` line naming `token`, before doing any work:
/// `dir` must still be empty afterwards.
fn check_rejected(exe: &str, dir: &Path, argv: &[&str], token: &str) {
    let output = Command::new(exe)
        .args(argv)
        .current_dir(dir)
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let first = stderr.lines().next().unwrap_or_default();
    assert_eq!(output.status.code(), Some(2), "{exe} {argv:?}:\n{stderr}");
    assert!(
        first.starts_with("error:") && first.contains(token),
        "{exe} {argv:?}: error line does not name `{token}`:\n{stderr}"
    );
    let left: Vec<_> = std::fs::read_dir(dir).expect("scratch dir").collect();
    assert!(
        left.is_empty(),
        "{exe} {argv:?} wrote into its working directory"
    );
}

/// Every binary that parses with `SweepArgs`, with a duplicated argument
/// and, where the binary lacks some sweep flag, a flag it does not take.
macro_rules! strict_binaries {
    ($($bin:literal: $($case:expr),+;)+) => {
        [$((env!(concat!("CARGO_BIN_EXE_", $bin)), vec![$(&$case[..]),+])),+]
    };
}

#[test]
fn every_binary_rejects_bad_arguments_before_doing_work() {
    let binaries: [(&str, Vec<&[&str]>); 18] = strict_binaries! {
        "fig5": ["--jobs", "2", "--jobs", "1"];
        "headline": ["--workloads", "cc1", "--workloads=xlisp"];
        "ablation_p": ["--probs", "trace", "--probs", "static"];
        "ablation_shape": ["--workloads", "xlisp", "--workloads", "cc1"];
        "ablation_predictor": ["--max-rss", "1G", "--max-rss", "2G"];
        "ablation_future": ["--jobs=1", "--jobs=1"];
        "ablation_memory": ["--probs", "trace", "--probs=trace"];
        "riseman_foster": ["--workloads=all", "--workloads=all"];
        "resolve_location": ["--probs=static", "--probs", "trace"];
        "predictor_accuracy": ["--jobs", "1", "--jobs", "1"];
        "workload_stats": ["--workloads", "cc1", "--workloads", "cc1"], ["--jobs", "2"];
        "genspace": ["--probs", "trace", "--probs", "trace"], ["--max-rss", "1K"];
        "levo_eval": ["--jobs", "1", "--jobs", "2"], ["--workloads", "cc1"];
        "static_probs": ["--max-rss", "1G", "--max-rss", "1G"], ["--probs", "trace"];
        "workload_lint": ["tiny", "tiny"], ["--jobs", "4"];
        "fig1": ["tiny", "tiny"], ["--max-rss", "1G"];
        "fig2": ["tiny", "tiny"], ["--jobs", "2"];
        "cost_model": ["tiny", "tiny"], ["--probs", "trace"];
    };
    let dir = temp_dir("strict_args");
    for (exe, own_cases) in &binaries {
        let mut cases: Vec<&[&str]> = vec![
            &["--job", "4"],
            &["tinyy"],
            &["--engine", "interp"],
            &["--chunk-records", "7"],
            &["--store", "traces"],
        ];
        cases.extend(own_cases);
        for argv in cases {
            // The first argument is always the bad one.
            let token = argv[0].split('=').next().unwrap_or_default();
            check_rejected(exe, &dir, argv, token);
        }
    }
    // Bad values are typed errors too, never panics.
    let fig5 = env!("CARGO_BIN_EXE_fig5");
    for argv in [
        &["--jobs", "0"][..],
        &["--jobs"],
        &["--max-rss", "lots"],
        &["--probs", "oracle"],
    ] {
        check_rejected(fig5, &dir, argv, argv[0]);
    }
    check_rejected(fig5, &dir, &["--workloads", "cc1,gcc"], "gcc");
    std::fs::remove_dir_all(dir).ok();
}

/// Sweeps always capture their traces on the VM: replaying them from a
/// store was slower than recapture (EXPERIMENTS.md §STORE-REPLAY), so
/// `--store` left every sweep binary. The binaries that took it refuse it
/// as an unknown flag, in either flag form and after a valid scale, and
/// write nothing: no `results/` and no store directory. That replay is
/// byte-identical to capture is held by `Suite::from_workloads`' own test,
/// and `--jobs` invariance by `headline_is_byte_deterministic`.
#[test]
fn headline_store_replay_is_byte_invisible_across_jobs() {
    let dir = temp_dir("retired_store");
    for exe in [
        env!("CARGO_BIN_EXE_headline"),
        env!("CARGO_BIN_EXE_fig5"),
        env!("CARGO_BIN_EXE_genspace"),
        env!("CARGO_BIN_EXE_workload_stats"),
    ] {
        for argv in [
            &["tiny", "--store", "traces"][..],
            &["--store=traces", "tiny"],
        ] {
            check_rejected(exe, &dir, argv, "unknown flag `--store`");
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

/// `n` seeded job durations of 0 to 6 ms.
fn seeded_delays(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.below(7) as u64).collect()
}

#[test]
fn pool_reassembles_randomly_timed_jobs_in_index_order() {
    // Seeded pseudo-random sleeps scramble the completion order; results
    // must come back indexed, none lost, none duplicated, for any job
    // count.
    let delays = seeded_delays(0x5EED, 48);
    for jobs in [1usize, 3, 8] {
        let tasks: Vec<_> = delays
            .iter()
            .enumerate()
            .map(|(i, &ms)| {
                move || {
                    std::thread::sleep(Duration::from_millis(ms));
                    i
                }
            })
            .collect();
        let got: Vec<usize> = pool::run(jobs, tasks)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(got, (0..48).collect::<Vec<_>>(), "jobs={jobs}");
    }
}

#[test]
fn pool_isolates_panics_under_timing_contention() {
    // Every fifth job panics while the rest sleep scrambled durations:
    // exactly the panicking cells error, every other cell completes, and
    // the assignment is identical for serial and parallel runs.
    let delays = seeded_delays(0xDEE, 40);
    let outcomes: Vec<Vec<Result<usize, String>>> = [1usize, 6]
        .iter()
        .map(|&jobs| {
            let tasks: Vec<_> = delays
                .iter()
                .enumerate()
                .map(|(i, &ms)| {
                    move || {
                        std::thread::sleep(Duration::from_millis(ms));
                        assert!(i % 5 != 0, "cell {i} scheduled to fail");
                        i
                    }
                })
                .collect();
            pool::run(jobs, tasks)
                .into_iter()
                .map(|r| r.map_err(|e| e.to_string()))
                .collect()
        })
        .collect();
    assert_eq!(outcomes[0], outcomes[1], "serial and parallel must agree");
    for (i, result) in outcomes[0].iter().enumerate() {
        if i % 5 == 0 {
            let message = result.as_ref().unwrap_err();
            assert!(
                message.contains(&format!("cell {i} scheduled to fail")),
                "{message}"
            );
        } else {
            assert_eq!(*result.as_ref().unwrap(), i);
        }
    }
}
