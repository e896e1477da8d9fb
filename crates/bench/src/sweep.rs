//! The argument parser and the suite driver shared by the dee-bench
//! binaries.
//!
//! [`SweepArgs::parse`] is the one strict parser. Each binary names the
//! arguments it accepts as a set of [`Arg`]s, and anything else is a typed
//! [`ArgError`]: an unknown or not-accepted flag, a duplicate, a missing or
//! malformed value, an unknown scale or workload, or a stray positional.
//! [`SweepArgs::from_env`] reports the error as `error: …` plus a usage
//! line and exits with status 2 before the binary does any work.
//!
//! [`Sweep`] drives the binaries that load the workload suite. It parses
//! the arguments and loads and validates the suite, capturing every trace
//! on the VM, then offers the remaining shared steps: the characteristic
//! accuracy under `--probs`, preparing every trace through the pool,
//! running a cell grid at `--jobs`, writing
//! `results/<stem>_<scale>.csv` and checking `--max-rss`. Each `main`
//! keeps only its grid and its tables.

use std::fmt;
use std::num::NonZeroUsize;
use std::path::PathBuf;

use dee_ilpsim::{PreparedTrace, ProbSource};
use dee_workloads::{Scale, WorkloadRegistry, PAPER_WORKLOADS};

use crate::{enforce_max_rss, pool, prepare_trace_probs, Suite, TextTable};

/// One argument a dee-bench binary may accept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arg {
    /// At most one positional scale, `tiny|small|medium|large` (default
    /// `small`).
    Scale,
    /// `--jobs N`: pool worker threads (default: the available
    /// parallelism).
    Jobs,
    /// `--workloads a,b,c` or `--workloads all`: the registry workloads to
    /// load (default: the paper five).
    Workloads,
    /// `--probs predictor|trace|static`: the branch-probability source
    /// (default `predictor`).
    Probs,
    /// `--max-rss BYTES`: a peak-RSS budget, with an optional `K`/`M`/`G`
    /// suffix (powers of 1024).
    MaxRss,
}

/// The flags, by name. Every flag takes a value, as `--flag V` or
/// `--flag=V`.
const FLAGS: [(Arg, &str); 4] = [
    (Arg::Jobs, "--jobs"),
    (Arg::Workloads, "--workloads"),
    (Arg::Probs, "--probs"),
    (Arg::MaxRss, "--max-rss"),
];

/// `[scale] --jobs --workloads --probs --max-rss`: the arguments of the
/// suite binaries.
pub const SUITE_ARGS: &[Arg] = &[
    Arg::Scale,
    Arg::Jobs,
    Arg::Workloads,
    Arg::Probs,
    Arg::MaxRss,
];

impl Arg {
    fn usage(self) -> &'static str {
        match self {
            Arg::Scale => "[tiny|small|medium|large]",
            Arg::Jobs => "[--jobs N]",
            Arg::Workloads => "[--workloads LIST]",
            Arg::Probs => "[--probs predictor|trace|static]",
            Arg::MaxRss => "[--max-rss BYTES]",
        }
    }
}

/// The usage line of a binary that accepts `accepts`.
fn usage(bin: &str, accepts: &[Arg]) -> String {
    let mut line = bin.to_string();
    for arg in accepts {
        line.push(' ');
        line.push_str(arg.usage());
    }
    line
}

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A flag no dee-bench binary takes.
    UnknownFlag(String),
    /// A flag other dee-bench binaries take, but this one does not.
    NotAccepted {
        /// The binary.
        bin: String,
        /// The flag.
        flag: String,
    },
    /// A flag given twice.
    Duplicate(String),
    /// A flag with no value.
    MissingValue(String),
    /// A flag value that does not parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The value given.
        value: String,
        /// What the flag takes.
        expected: &'static str,
    },
    /// A positional argument that is not a scale.
    UnknownScale(String),
    /// A `--workloads` name the builtin registry does not know.
    UnknownWorkload(String),
    /// A positional argument after the scale, or where none is taken.
    ExtraPositional(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::NotAccepted { bin, flag } => write!(f, "{bin} does not take `{flag}`"),
            ArgError::Duplicate(arg) => write!(f, "`{arg}` given twice"),
            ArgError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "`{flag}` expects {expected}, got `{value}`"),
            ArgError::UnknownScale(scale) => write!(
                f,
                "unknown scale `{scale}` (expected tiny, small, medium or large)"
            ),
            ArgError::UnknownWorkload(name) => write!(
                f,
                "unknown workload `{name}` (known: {})",
                WorkloadRegistry::builtin().names().join(", ")
            ),
            ArgError::ExtraPositional(arg) => write!(f, "unexpected argument `{arg}`"),
        }
    }
}

impl std::error::Error for ArgError {}

/// A parsed dee-bench command line. Arguments the binary does not accept
/// keep their defaults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepArgs {
    /// The positional scale, if one was given; see [`SweepArgs::scale`].
    scale: Option<Scale>,
    /// `--jobs`.
    pub jobs: usize,
    /// `--workloads`, with `all` expanded to every builtin registration.
    pub workloads: Vec<String>,
    /// `--probs`.
    pub probs: ProbSource,
    /// `--max-rss`, in bytes.
    pub max_rss: Option<u64>,
}

impl SweepArgs {
    /// Parses `argv` (without the program name) for binary `bin`, which
    /// accepts exactly `accepts`. Flags and the scale may come in any
    /// order: `fig5 --probs trace tiny --jobs 4`.
    ///
    /// # Errors
    ///
    /// The first argument that is unknown, not accepted, duplicated,
    /// missing its value or malformed.
    pub fn parse(
        bin: &str,
        accepts: &[Arg],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<SweepArgs, ArgError> {
        let mut args = SweepArgs {
            scale: None,
            jobs: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            workloads: PAPER_WORKLOADS.iter().map(|n| (*n).to_string()).collect(),
            probs: ProbSource::default(),
            max_rss: None,
        };
        let mut seen: Vec<Arg> = Vec::new();
        let mut argv = argv.into_iter().peekable();
        while let Some(token) = argv.next() {
            if !token.starts_with('-') {
                args.set_scale(accepts, token)?;
                continue;
            }
            let (name, inline) = match token.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (token.as_str(), None),
            };
            let Some(&(arg, _)) = FLAGS.iter().find(|(_, flag)| *flag == name) else {
                return Err(ArgError::UnknownFlag(name.to_string()));
            };
            if !accepts.contains(&arg) {
                return Err(ArgError::NotAccepted {
                    bin: bin.to_string(),
                    flag: name.to_string(),
                });
            }
            if seen.contains(&arg) {
                return Err(ArgError::Duplicate(name.to_string()));
            }
            seen.push(arg);
            let value = inline
                .or_else(|| argv.next_if(|v| !v.starts_with("--")))
                .filter(|v| !v.is_empty())
                .ok_or_else(|| ArgError::MissingValue(name.to_string()))?;
            let bad = |expected| ArgError::BadValue {
                flag: name.to_string(),
                value: value.clone(),
                expected,
            };
            match arg {
                Arg::Jobs => {
                    args.jobs = value
                        .parse()
                        .ok()
                        .filter(|&jobs| jobs >= 1)
                        .ok_or_else(|| bad("a positive integer"))?;
                }
                Arg::Workloads => {
                    let registry = WorkloadRegistry::builtin();
                    args.workloads = if value == "all" {
                        registry.names().iter().map(|n| (*n).to_string()).collect()
                    } else {
                        value
                            .split(',')
                            .filter(|n| !n.is_empty())
                            .map(str::to_string)
                            .collect()
                    };
                    if args.workloads.is_empty() {
                        return Err(bad("a comma-separated list of workloads, or `all`"));
                    }
                    if let Some(name) = args.workloads.iter().find(|n| !registry.contains(n)) {
                        return Err(ArgError::UnknownWorkload(name.clone()));
                    }
                }
                Arg::Probs => {
                    args.probs = ProbSource::parse(&value)
                        .ok_or_else(|| bad("`predictor`, `trace` or `static`"))?;
                }
                Arg::MaxRss => {
                    args.max_rss =
                        Some(parse_byte_size(&value).ok_or_else(|| bad("BYTES or <N>K|M|G"))?);
                }
                Arg::Scale => unreachable!("the scale is positional"),
            }
        }
        Ok(args)
    }

    /// [`SweepArgs::parse`] over the process arguments. On error, prints
    /// `error: …` and the usage line to stderr and exits with status 2.
    #[must_use]
    pub fn from_env(bin: &str, accepts: &[Arg]) -> SweepArgs {
        SweepArgs::parse(bin, accepts, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            eprintln!("usage: {}", usage(bin, accepts));
            std::process::exit(2)
        })
    }

    /// The scale given, or `small`.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale.unwrap_or(Scale::Small)
    }

    fn set_scale(&mut self, accepts: &[Arg], token: String) -> Result<(), ArgError> {
        if !accepts.contains(&Arg::Scale) || self.scale.is_some() {
            return Err(ArgError::ExtraPositional(token));
        }
        let Some(scale) = Scale::from_name(&token) else {
            return Err(ArgError::UnknownScale(token));
        };
        self.scale = Some(scale);
        Ok(())
    }
}

fn parse_byte_size(value: &str) -> Option<u64> {
    let (digits, unit) = match value.as_bytes().last()? {
        b'k' | b'K' => (&value[..value.len() - 1], 1 << 10),
        b'm' | b'M' => (&value[..value.len() - 1], 1 << 20),
        b'g' | b'G' => (&value[..value.len() - 1], 1 << 30),
        _ => (value, 1),
    };
    digits
        .parse::<u64>()
        .ok()?
        .checked_mul(unit)
        .filter(|&bytes| bytes > 0)
}

/// The driver of a suite binary: the parsed arguments and the loaded,
/// validated suite, plus the steps every suite binary shares.
pub struct Sweep {
    bin: &'static str,
    /// The parsed command line.
    pub args: SweepArgs,
    /// The workload suite, in `--workloads` order.
    pub suite: Suite,
}

impl Sweep {
    /// Parses the process arguments for `bin` (exiting with status 2 on a
    /// bad one), then loads and validates the suite.
    ///
    /// # Panics
    ///
    /// As [`Suite::load_selected`], when a workload fails validation or
    /// static analysis.
    #[must_use]
    pub fn load(bin: &'static str, accepts: &[Arg]) -> Sweep {
        let args = SweepArgs::from_env(bin, accepts);
        eprintln!("loading suite at {:?}...", args.scale());
        let suite = Suite::load_selected(args.scale(), &args.workloads)
            .expect("SweepArgs::parse checked every workload name");
        Sweep { bin, args, suite }
    }

    /// The suite's characteristic accuracy `p` under `--probs`.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.suite.characteristic_accuracy_probs(self.args.probs)
    }

    /// Prepares every suite trace under `--probs`, one pool cell per
    /// workload (pool line `<bin>_prepare`), in suite order.
    #[must_use]
    pub fn prepare(&self) -> Vec<PreparedTrace> {
        let probs = self.args.probs;
        self.run(
            &format!("{}_prepare", self.bin),
            self.suite
                .entries
                .iter()
                .map(|e| move || prepare_trace_probs(&e.workload.program, &e.trace, probs))
                .collect(),
        )
    }

    /// Runs `tasks` through [`pool::run_sweep`] at `--jobs`.
    pub fn run<T: Send, F: FnOnce() -> T + Send>(&self, name: &str, tasks: Vec<F>) -> Vec<T> {
        pool::run_sweep(name, self.args.jobs, tasks)
    }

    /// Runs `cell(point, b)` for every point and every suite entry `b` as
    /// one pool sweep, and returns the results as `[point][b]`.
    pub fn grid<X: Sync, T: Send>(
        &self,
        name: &str,
        points: &[X],
        cell: impl Fn(&X, usize) -> T + Sync,
    ) -> Vec<Vec<T>> {
        let n = self.suite.entries.len();
        let cell = &cell;
        let tasks: Vec<_> = points
            .iter()
            .flat_map(|x| (0..n).map(move |b| move || cell(x, b)))
            .collect();
        let mut flat = self.run(name, tasks).into_iter();
        points
            .iter()
            .map(|_| flat.by_ref().take(n).collect())
            .collect()
    }

    /// Writes `table` to `results/<stem>_<scale>.csv`.
    ///
    /// # Panics
    ///
    /// On an I/O error.
    pub fn write_csv(&self, table: &TextTable, stem: &str) -> PathBuf {
        table
            .write_scaled_csv(stem, self.suite.scale)
            .unwrap_or_else(|e| panic!("results/{stem}: {e}"))
    }

    /// Checks the `--max-rss` budget; see [`enforce_max_rss`].
    pub fn finish(self) {
        enforce_max_rss(self.args.max_rss);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(accepts: &[Arg], argv: &[&str]) -> Result<SweepArgs, ArgError> {
        SweepArgs::parse("bin", accepts, argv.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults_without_arguments() {
        let args = parse(SUITE_ARGS, &[]).unwrap();
        assert_eq!(args.scale(), Scale::Small);
        assert!(args.jobs >= 1);
        assert_eq!(args.workloads, PAPER_WORKLOADS.to_vec());
        assert_eq!(args.probs, ProbSource::Predictor);
        assert_eq!(args.max_rss, None);
    }

    #[test]
    fn both_flag_forms_in_any_order() {
        let args = parse(
            SUITE_ARGS,
            &[
                "--jobs",
                "3",
                "medium",
                "--probs",
                "static",
                "--workloads=synacor,cc1",
                "--max-rss",
                "64M",
            ],
        )
        .unwrap();
        assert_eq!(args.scale(), Scale::Medium);
        assert_eq!(args.jobs, 3);
        assert_eq!(args.probs, ProbSource::Static);
        assert_eq!(args.workloads, ["synacor", "cc1"]);
        assert_eq!(args.max_rss, Some(64 << 20));
        let args = parse(SUITE_ARGS, &["--jobs=5", "--probs=trace", "tiny"]).unwrap();
        assert_eq!(
            (args.jobs, args.probs, args.scale()),
            (5, ProbSource::Trace, Scale::Tiny)
        );
        // A flag value named like a scale is a value, not the scale.
        assert!(matches!(
            parse(SUITE_ARGS, &["--workloads", "tiny"]),
            Err(ArgError::UnknownWorkload(name)) if name == "tiny"
        ));
    }

    #[test]
    fn max_rss_takes_bytes_or_a_binary_suffix() {
        let rss = |v: &str| parse(SUITE_ARGS, &["--max-rss", v]).map(|a| a.max_rss);
        assert_eq!(rss("1048576"), Ok(Some(1 << 20)));
        assert_eq!(rss("512K"), Ok(Some(512 << 10)));
        assert_eq!(rss("64m"), Ok(Some(64 << 20)));
        assert_eq!(rss("2G"), Ok(Some(2 << 30)));
        for bad in ["lots", "0", "K", "-1M", "17179869185G"] {
            assert!(
                matches!(rss(bad), Err(ArgError::BadValue { .. })),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn workloads_all_selects_every_registration() {
        let all = parse(SUITE_ARGS, &["--workloads", "all"])
            .unwrap()
            .workloads;
        assert_eq!(all, WorkloadRegistry::builtin().names());
        assert!(all.len() > PAPER_WORKLOADS.len());
    }

    #[test]
    fn every_error_names_the_bad_token() {
        let scale_jobs = [Arg::Scale, Arg::Jobs];
        let cases: [(&[Arg], &[&str], ArgError); 13] = [
            (
                SUITE_ARGS,
                &["--job", "4"],
                ArgError::UnknownFlag("--job".into()),
            ),
            (
                SUITE_ARGS,
                &["--engine=interp"],
                ArgError::UnknownFlag("--engine".into()),
            ),
            (
                SUITE_ARGS,
                &["--store", "traces"],
                ArgError::UnknownFlag("--store".into()),
            ),
            (
                &scale_jobs,
                &["--probs", "trace"],
                ArgError::NotAccepted {
                    bin: "bin".into(),
                    flag: "--probs".into(),
                },
            ),
            (
                SUITE_ARGS,
                &["--jobs", "1", "--jobs=2"],
                ArgError::Duplicate("--jobs".into()),
            ),
            (
                SUITE_ARGS,
                &["--jobs"],
                ArgError::MissingValue("--jobs".into()),
            ),
            (
                SUITE_ARGS,
                &["--probs", "--jobs", "2"],
                ArgError::MissingValue("--probs".into()),
            ),
            (
                SUITE_ARGS,
                &["--jobs", "0"],
                ArgError::BadValue {
                    flag: "--jobs".into(),
                    value: "0".into(),
                    expected: "a positive integer",
                },
            ),
            (
                SUITE_ARGS,
                &["--probs", "oracle"],
                ArgError::BadValue {
                    flag: "--probs".into(),
                    value: "oracle".into(),
                    expected: "`predictor`, `trace` or `static`",
                },
            ),
            (
                SUITE_ARGS,
                &["tinyy"],
                ArgError::UnknownScale("tinyy".into()),
            ),
            (
                SUITE_ARGS,
                &["--workloads", "synacor,gcc"],
                ArgError::UnknownWorkload("gcc".into()),
            ),
            (
                SUITE_ARGS,
                &["tiny", "small"],
                ArgError::ExtraPositional("small".into()),
            ),
            (&[], &["tiny"], ArgError::ExtraPositional("tiny".into())),
        ];
        for (accepts, argv, want) in cases {
            let got = parse(accepts, argv).unwrap_err();
            assert_eq!(got, want, "{argv:?}");
            let token = match &got {
                ArgError::NotAccepted { flag, .. } | ArgError::BadValue { flag, .. } => flag,
                ArgError::UnknownFlag(t)
                | ArgError::Duplicate(t)
                | ArgError::MissingValue(t)
                | ArgError::UnknownScale(t)
                | ArgError::UnknownWorkload(t)
                | ArgError::ExtraPositional(t) => t,
            };
            assert!(got.to_string().contains(token.as_str()), "{got}");
        }
    }

    #[test]
    fn usage_lists_the_accepted_arguments() {
        assert_eq!(
            usage("fig5", SUITE_ARGS),
            "fig5 [tiny|small|medium|large] [--jobs N] [--workloads LIST] \
             [--probs predictor|trace|static] [--max-rss BYTES]"
        );
        assert_eq!(usage("fig1", &[]), "fig1");
    }
}
