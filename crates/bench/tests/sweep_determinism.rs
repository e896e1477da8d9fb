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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dee_sweep_det_{}_{tag}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_args(exe: &str, dir: &Path, args: &[&str]) -> (String, String) {
    let output = Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn sweep binary");
    assert!(
        output.status.success(),
        "{exe} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn run(exe: &str, dir: &Path, jobs: &str) -> String {
    run_args(exe, dir, &["tiny", "--jobs", jobs]).0
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
    let binaries: [(&str, Vec<&[&str]>); 19] = strict_binaries! {
        "fig5": ["--jobs", "2", "--jobs", "1"];
        "headline": ["--store", "a", "--store=b"];
        "ablation_p": ["--probs", "trace", "--probs", "static"];
        "ablation_shape": ["--workloads", "xlisp", "--workloads", "cc1"];
        "ablation_predictor": ["--max-rss", "1G", "--max-rss", "2G"];
        "ablation_future": ["--jobs=1", "--jobs=1"];
        "ablation_memory": ["--store", "a", "--store", "a"];
        "riseman_foster": ["--workloads=all", "--workloads=all"];
        "resolve_location": ["--probs=static", "--probs", "trace"];
        "predictor_accuracy": ["--jobs", "1", "--jobs", "1"];
        "workload_stats": ["--store", "a", "--store", "b"], ["--jobs", "2"];
        "genspace": ["--probs", "trace", "--probs", "trace"], ["--max-rss", "1K"];
        "levo_eval": ["--jobs", "1", "--jobs", "2"], ["--store", "D"];
        "static_probs": ["--max-rss", "1G", "--max-rss", "1G"], ["--probs", "trace"];
        "workload_lint": ["tiny", "tiny"], ["--jobs", "4"];
        "store_replay": ["tiny", "tiny"], ["--store", "a", "--store", "b"], ["--jobs", "2"];
        "fig1": ["tiny", "tiny"], ["--store", "D"];
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
    let not_a_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    for argv in [
        &["--jobs", "0"][..],
        &["--jobs"],
        &["--max-rss", "lots"],
        &["--probs", "oracle"],
        &["--store", not_a_dir],
    ] {
        check_rejected(fig5, &dir, argv, argv[0]);
    }
    check_rejected(fig5, &dir, &["--workloads", "cc1,gcc"], "gcc");
    check_rejected(
        env!("CARGO_BIN_EXE_loadgen"),
        &dir,
        &["--job", "4"],
        "--job",
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The store contract from ISSUE/DESIGN §9: `--store` is invisible in
/// every output byte. A recording pass (`--jobs 1`, cold store), a
/// replaying pass (`--jobs 4`, warm store), and a store-less run must
/// produce identical stdout and identical `results/` files — only the
/// stderr `dee_store_*` line may reveal which path ran.
#[test]
fn headline_store_replay_is_byte_invisible_across_jobs() {
    let exe = env!("CARGO_BIN_EXE_headline");
    let store_dir = temp_dir("headline_store_artifacts");
    let store = store_dir.to_str().expect("utf-8 temp path");
    let record_dir = temp_dir("headline_store_j1");
    let replay_dir = temp_dir("headline_store_j4");
    let plain_dir = temp_dir("headline_store_plain");
    let (record_out, record_err) =
        run_args(exe, &record_dir, &["tiny", "--jobs", "1", "--store", store]);
    let (replay_out, replay_err) =
        run_args(exe, &replay_dir, &["tiny", "--jobs", "4", "--store", store]);
    let plain_out = run(exe, &plain_dir, "1");
    assert_eq!(record_out, plain_out, "--store changed stdout");
    assert_eq!(record_out, replay_out, "replay or --jobs changed stdout");
    assert!(
        record_err.contains("dee_store_headline: hits=0 misses=5 writes=5"),
        "cold store should record all five workloads:\n{record_err}"
    );
    assert!(
        replay_err.contains("dee_store_headline: hits=5 misses=0 writes=0"),
        "warm store should replay all five workloads:\n{replay_err}"
    );
    let record_files = results_files(&record_dir);
    for ((name, recorded), (replay_name, replayed)) in
        record_files.iter().zip(&results_files(&replay_dir))
    {
        assert_eq!(name, replay_name, "file sets differ");
        assert!(recorded == replayed, "results/{name} differs under replay");
    }
    for ((name, recorded), (plain_name, plain)) in
        record_files.iter().zip(&results_files(&plain_dir))
    {
        assert_eq!(name, plain_name, "file sets differ");
        assert!(recorded == plain, "results/{name} differs with --store");
    }
    for dir in [store_dir, record_dir, replay_dir, plain_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// One xorshift64* step — the same mixer family the serve fault plan
/// uses; good enough to scramble job durations reproducibly.
fn xorshift_star(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn seeded_delays(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = xorshift_star(state);
            state % 7
        })
        .collect()
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
