//! `dee` — command-line front end for the Disjoint Eager Execution stack.
//!
//! ```text
//! dee run <prog.s> [--mem k=v,...]        run on the functional VM
//! dee sim <prog.s> [--model M] [--et N]   trace + ILP-model speedups
//! dee levo <prog.s> [--dee-paths N]       run on the Levo machine model
//! dee unroll <prog.s> [--factor K]        apply the §4.2 loop filter
//! dee tree [--p P] [--et N]               print the static DEE tree
//! dee gen <spec|default> [--seed N] [-o F] generate a seeded program
//! dee gen sweep [--et N] [--seed N]       preview speedup vs the pred knob
//! dee trace <prog.s> -o <file> [--mem ..] capture a binary trace
//! dee trace record <workload> --store DIR [--scale S] [--seed N]
//!                  [--checkpoint-stride N]  publish an artifact (+ snapshots)
//! dee trace info <file.dtrc>...           container header/footer summary
//! dee trace verify <file.dtrc>...         full checksum + layout check
//! dee trace ls --store DIR                list published artifacts
//! dee trace gc --store DIR                sweep tmp/ + quarantine/
//! dee snap ls --store DIR                 list published snapshots
//! dee snap info <file.dsnp>...            snapshot header summary
//! dee snap verify <file.dsnp>...          framing + layout check
//! dee replay <prog.s> <file> [--model M] [--et N]  simulate a captured trace
//! dee serve [--addr H:P] [--workers N] [--store DIR]  run the simulation server
//! ```
//!
//! Programs are assembly text (see `dee_isa::parse`); initial memory cells
//! are set with `--mem addr=value,addr=value,...`. Each command names the
//! flags it reads, and any other flag, or a stray argument, is an error.
//! `--et` takes 1 to [`MAX_ET`] branch paths; `dee serve` requests share
//! that upper bound.

use std::process::ExitCode;

use dee::ilpsim::{simulate, Model, PreparedTrace, SimConfig};
use dee::isa::parse::parse_program;
use dee::isa::transform::{unroll_loops, UnrollConfig};
use dee::isa::Program;
use dee::levo::{Levo, LevoConfig};
use dee::theory::{StaticTree, TreeParams, MAX_ET};
use dee::vm::trace_program;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            // `dee analyze` exit-code contract: lint findings exit 1
            // (raised inside the arm after printing diagnostics); an I/O
            // or parse error lands here and exits 2, so scripts can tell
            // "the program is dirty" from "the program never loaded".
            if args.first().map(String::as_str) == Some("analyze") {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

const USAGE: &str = "usage:
  dee run <prog.s> [--mem a=v,...]          run on the functional VM
  dee analyze <prog.s|workload> [--scale S] [--seed N] [--json] [--deny warnings]
                                            static lints + branch census
                                            (exit 1: findings; exit 2: I/O
                                             or parse error)
  dee analyze plan <prog.s|workload> [-o FILE] [--scale S] [--seed N] [--json]
                                            static speculation plan
                                            (DEEPLAN1 artifact with -o)
  dee sim <prog.s> [--model M] [--et N] [--mem a=v,...]
  dee levo <prog.s> [--dee-paths N] [--mem a=v,...]
  dee unroll <prog.s> [--factor K]          print the unrolled program
  dee tree [--p P] [--et N]                 print the static DEE tree
  dee gen <spec|default> [--seed N] [-o FILE]
                                            generate a seeded program
                                            (knobs: pred spread depth calls
                                             jr alias blocks iters)
  dee gen sweep [--et N] [--seed N]         preview speedup vs the pred knob
  dee trace <prog.s> -o <file> [--mem ..]   capture a binary trace
  dee trace record <workload> --store DIR [--scale tiny|small|medium|large]
            [--seed N] [--checkpoint-stride N]
  dee trace info <file.dtrc>...             container header/footer summary
  dee trace verify <file.dtrc>...           full checksum + layout check
  dee trace ls --store DIR                  list published artifacts
  dee trace gc --store DIR                  sweep tmp/ + quarantine/
  dee snap ls --store DIR                   list published snapshots
  dee snap info <file.dsnp>...              snapshot header summary
  dee snap verify <file.dsnp>...            framing + layout check
  dee replay <prog.s> <file> [--model M] [--et N]
  dee serve [--addr HOST:PORT] [--workers N] [--cache-entries K] [--queue-capacity Q]
            [--read-budget-ms MS] [--chaos-seed SEED] [--store DIR]
A flag a command does not list is an error; `-o` is short for `--output`.";

/// Parsed `--flag value` options after the positional arguments.
struct Options {
    memory: Vec<i32>,
    model: Option<String>,
    et: u32,
    dee_paths: Option<usize>,
    factor: u32,
    p: f64,
    output: Option<String>,
    addr: Option<String>,
    workers: Option<usize>,
    cache_entries: Option<usize>,
    queue_capacity: Option<usize>,
    read_budget_ms: Option<u64>,
    chaos_seed: Option<u64>,
    store: Option<String>,
    scale: Option<String>,
    checkpoint_stride: Option<u64>,
    seed: u64,
    json: bool,
    deny_warnings: bool,
}

/// Parses the flags of `dee <command>`, refusing any flag not in
/// `accepts`: the flags that command reads.
fn parse_options(command: &str, accepts: &[&str], args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        memory: Vec::new(),
        model: None,
        et: 100,
        dee_paths: None,
        factor: 3,
        p: 0.9053,
        output: None,
        addr: None,
        workers: None,
        cache_entries: None,
        queue_capacity: None,
        read_budget_ms: None,
        chaos_seed: None,
        store: None,
        scale: None,
        checkpoint_stride: None,
        seed: 1,
        json: false,
        deny_warnings: false,
    };
    let unknown = |flag: &str| {
        if flag.starts_with('-') {
            format!("unknown flag `{flag}` for `dee {command}`")
        } else {
            format!("unexpected argument `{flag}` for `dee {command}`")
        }
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if !accepts.contains(&flag.as_str()) {
            return Err(unknown(flag));
        }
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        match flag.as_str() {
            "--mem" => {
                for pair in value()?.split(',') {
                    let (addr, val) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("bad --mem entry `{pair}`"))?;
                    let addr: usize = addr
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad address `{addr}`"))?;
                    let val: i32 = val
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad value `{val}`"))?;
                    if options.memory.len() <= addr {
                        options.memory.resize(addr + 1, 0);
                    }
                    options.memory[addr] = val;
                }
            }
            "--model" => options.model = Some(value()?),
            "--et" => {
                let text = value()?;
                options.et = text
                    .parse()
                    .ok()
                    .filter(|et| (1..=MAX_ET).contains(et))
                    .ok_or_else(|| format!("`--et` must be in 1..={MAX_ET}, not `{text}`"))?;
            }
            "--dee-paths" => {
                options.dee_paths = Some(
                    value()?
                        .parse()
                        .map_err(|_| "bad --dee-paths".to_string())?,
                )
            }
            "--factor" => {
                options.factor = value()?.parse().map_err(|_| "bad --factor".to_string())?
            }
            "--p" => {
                // The static tree's recurrences need p in [0.5, 1).
                let text = value()?;
                options.p = text
                    .parse()
                    .ok()
                    .filter(|p| (0.5..1.0).contains(p))
                    .ok_or_else(|| format!("`--p` must be in [0.5, 1), not `{text}`"))?;
            }
            "-o" | "--output" => options.output = Some(value()?),
            "--addr" => options.addr = Some(value()?),
            "--workers" => {
                options.workers = Some(value()?.parse().map_err(|_| "bad --workers".to_string())?)
            }
            "--cache-entries" => {
                options.cache_entries = Some(
                    value()?
                        .parse()
                        .map_err(|_| "bad --cache-entries".to_string())?,
                )
            }
            "--queue-capacity" => {
                options.queue_capacity = Some(
                    value()?
                        .parse()
                        .map_err(|_| "bad --queue-capacity".to_string())?,
                )
            }
            "--read-budget-ms" => {
                options.read_budget_ms = Some(
                    value()?
                        .parse()
                        .map_err(|_| "bad --read-budget-ms".to_string())?,
                )
            }
            "--chaos-seed" => {
                options.chaos_seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "bad --chaos-seed".to_string())?,
                )
            }
            "--store" => options.store = Some(value()?),
            "--scale" => options.scale = Some(value()?),
            "--checkpoint-stride" => {
                let stride: u64 = value()?
                    .parse()
                    .map_err(|_| "bad --checkpoint-stride".to_string())?;
                if stride == 0 {
                    return Err("--checkpoint-stride must be at least 1".to_string());
                }
                options.checkpoint_stride = Some(stride);
            }
            "--seed" => options.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--json" => options.json = true,
            "--deny" => match value()?.as_str() {
                "warnings" => options.deny_warnings = true,
                other => return Err(format!("`--deny` understands `warnings`, not `{other}`")),
            },
            other => return Err(unknown(other)),
        }
    }
    Ok(options)
}

fn load_program(path: &str) -> Result<Program, String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_program(&source).map_err(|e| format!("{path}: {e}"))
}

/// Resolves an analysis target the way `dee analyze` does: a registered
/// workload name builds at `--scale` (default tiny), `gen:<spec>`
/// generates at `--seed`, anything else is an assembly path.
fn analysis_target(target: &str, options: &Options) -> Result<Program, String> {
    if let Some(spec_text) = target.strip_prefix("gen:") {
        Ok(generated_workload(spec_text, options.seed)?.program)
    } else if dee::workloads::WorkloadRegistry::builtin().contains(target) {
        let scale = workload_scale(options.scale.as_deref().unwrap_or("tiny"))?;
        Ok(workload_by_name(target, scale)?.program)
    } else {
        load_program(target)
    }
}

/// `dee analyze plan <target> [-o FILE] [--scale S] [--seed N] [--json]`:
/// builds the static speculation plan (branch probabilities from the
/// Ball–Larus-style heuristics, per-instruction speculation classes from
/// the side-effect/alias pass) and prints a summary. `-o` writes the
/// versioned `DEEPLAN1` artifact.
fn analyze_plan(args: &[String]) -> Result<(), String> {
    let target = args
        .first()
        .ok_or("missing program path or workload name")?;
    let options = parse_options(
        "analyze plan",
        &["-o", "--output", "--scale", "--seed", "--json"],
        &args[1..],
    )?;
    let program = analysis_target(target, &options)?;
    let plan = dee::analyze::SpeculationPlan::build(&program);
    let (eager, mem_spec, unsafe_count) = plan.class_counts();
    if options.json {
        let branches: Vec<String> = plan
            .branches
            .iter()
            .map(|b| {
                format!(
                    r#"{{"pc":{},"taken_prob":{:.6},"freq":{:.6}}}"#,
                    b.pc, b.taken_prob, b.freq
                )
            })
            .collect();
        println!(
            r#"{{"target":{:?},"program_len":{},"program_digest":"{:#018x}","expected_accuracy":{:.6},"classes":{{"safely_eager":{},"memory_speculative":{},"unsafe":{}}},"branches":[{}]}}"#,
            target,
            plan.program_len,
            plan.program_digest,
            plan.expected_accuracy,
            eager,
            mem_spec,
            unsafe_count,
            branches.join(",")
        );
    } else {
        println!(
            "{target}: plan over {} instruction(s), {} conditional branch(es)",
            plan.program_len,
            plan.branches.len()
        );
        println!(
            "expected accuracy {:.1}% (profile-free); program digest {:#018x}",
            plan.expected_accuracy * 100.0,
            plan.program_digest
        );
        println!(
            "classes: {eager} safely-eager, {mem_spec} memory-speculative, {unsafe_count} unsafe"
        );
        for b in &plan.branches {
            println!(
                "  @{:<5} taken {:>6.3}  freq {:>10.3}",
                b.pc, b.taken_prob, b.freq
            );
        }
    }
    if let Some(path) = &options.output {
        let bytes = plan.to_bytes();
        std::fs::write(path, &bytes).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} ({} bytes)", bytes.len());
    }
    Ok(())
}

fn workload_scale(name: &str) -> Result<dee::workloads::Scale, String> {
    dee::workloads::Scale::from_name(name).ok_or_else(|| format!("unknown scale `{name}`"))
}

/// Prints each `--model` (default: all eight) at `--et` over a prepared
/// trace, shaped with its measured accuracy: `dee sim` and `dee replay`.
fn print_speedups(prepared: &PreparedTrace, options: &Options) -> Result<(), String> {
    let models: Vec<Model> = match &options.model {
        Some(name) => {
            vec![Model::from_name(name).ok_or_else(|| format!("unknown model `{name}`"))?]
        }
        None => Model::all().to_vec(),
    };
    let p = prepared.accuracy();
    for model in models {
        let out = simulate(prepared, &SimConfig::new(model, options.et).with_p(p));
        println!(
            "{:<10} @ {:>4} paths: {:>7.2}x",
            model.name(),
            options.et,
            out.speedup()
        );
    }
    Ok(())
}

fn workload_by_name(
    name: &str,
    scale: dee::workloads::Scale,
) -> Result<dee::workloads::Workload, String> {
    let registry = dee::workloads::WorkloadRegistry::builtin();
    registry.build(name, scale).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (known: {})",
            registry.names().join(", ")
        )
    })
}

/// `gen:<spec>` names a generated workload anywhere a builtin name is
/// accepted; the seed comes from `--seed` (default 1).
fn generated_workload(spec_text: &str, seed: u64) -> Result<dee::workloads::Workload, String> {
    let spec = dee::gen::GenSpec::parse(spec_text).map_err(|e| e.to_string())?;
    Ok(dee::gen::generate(&spec, seed)
        .map_err(|e| e.to_string())?
        .workload)
}

fn open_store(options: &Options) -> Result<dee::store::Store, String> {
    let dir = options.store.as_deref().ok_or("missing --store DIR")?;
    dee::store::Store::open(dir).map_err(|e| format!("--store {dir}: {e}"))
}

/// `dee trace record <workload> --store DIR [--scale S] [--seed N]
/// [--checkpoint-stride N]` — trace a workload on the VM (validated
/// against its reference output) and publish the artifact. Idempotent:
/// an already-published key is left alone. With `--checkpoint-stride N`,
/// a `DEESNAP1` snapshot is cut and published every `N` records, enabling
/// warm-start range simulation and time travel on the serve tier.
fn trace_record(args: &[String]) -> Result<(), String> {
    let name = args.get(2).ok_or("missing workload name")?;
    let options = parse_options(
        "trace record",
        &["--store", "--scale", "--seed", "--checkpoint-stride"],
        &args[3..],
    )?;
    let store = open_store(&options)?;
    let scale_name = options.scale.as_deref().unwrap_or("tiny");
    let scale = workload_scale(scale_name)?;
    let workload = match name.strip_prefix("gen:") {
        Some(spec_text) => generated_workload(spec_text, options.seed)?,
        None => workload_by_name(name, scale)?,
    };
    let key = dee::store::ArtifactKey::new(
        &workload.name,
        scale_name,
        &workload.program.to_listing(),
        &workload.initial_memory,
    );
    if store.contains(&key) {
        println!("already published: {}", key.filename());
    } else {
        let trace = workload.validate_with(dee::vm::Engine::default())?;
        let path = store.put(&key, &trace).map_err(|e| e.to_string())?;
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        println!(
            "published {} ({} records, {bytes} bytes)",
            key.filename(),
            trace.len()
        );
    }
    if let Some(stride) = options.checkpoint_stride {
        let cut = dee::snap::publish_checkpoints(
            &store,
            &key,
            &workload.program,
            &workload.initial_memory,
            stride,
        )?;
        println!("published {cut} snapshot(s) at stride {stride}");
    }
    Ok(())
}

/// `dee snap ls --store DIR` — list published snapshots.
fn snap_ls(args: &[String]) -> Result<(), String> {
    let options = parse_options("snap ls", &["--store"], &args[2..])?;
    let store = open_store(&options)?;
    let entries = store.list_snapshots().map_err(|e| e.to_string())?;
    if entries.is_empty() {
        println!("(no snapshots)");
        return Ok(());
    }
    for entry in &entries {
        println!("{:>12}  {}", entry.bytes, entry.name);
    }
    println!("{} snapshot(s)", entries.len());
    Ok(())
}

/// The paths `dee <command>` reads: every argument before its first flag.
/// It reads no flag, so any flag is refused before a file is opened.
fn paths_of<'a>(command: &str, what: &str, args: &'a [String]) -> Result<&'a [String], String> {
    let n = args.iter().take_while(|a| !a.starts_with('-')).count();
    parse_options(command, &[], &args[n..])?;
    if n == 0 {
        return Err(format!("missing {what} path"));
    }
    Ok(&args[..n])
}

/// Runs `each` on every path, past any that fails, then fails with one
/// error line per failed path.
fn each_path(paths: &[String], each: impl Fn(&str) -> Result<(), String>) -> Result<(), String> {
    let errors: Vec<String> = paths.iter().filter_map(|path| each(path).err()).collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\nerror: "))
    }
}

/// `dee snap info <file.dsnp>...` — header-level summary (no parent
/// memory image needed).
fn snap_info(args: &[String]) -> Result<(), String> {
    each_path(paths_of("snap info", "snapshot", &args[2..])?, |path| {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let info = dee::snap::Snapshot::info(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}:");
        println!(
            "  snapshot at record {} of parent {:016x} (trace format v{})",
            info.record_index, info.parent_digest, info.trace_format_version
        );
        println!(
            "  executed {}, {} output word(s), {} memory word(s), halted: {}",
            info.executed, info.output_words, info.mem_words, info.halted
        );
        println!(
            "  predictors: {}",
            if info.predictors.is_empty() {
                "(none)".to_string()
            } else {
                info.predictors.join(", ")
            }
        );
        Ok(())
    })
}

/// `dee snap verify <file.dsnp>...` — magic, trailing checksum, and full
/// section-layout check.
fn snap_verify(args: &[String]) -> Result<(), String> {
    each_path(paths_of("snap verify", "snapshot", &args[2..])?, |path| {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let info = dee::store::verify_snapshot_bytes(&bytes)
            .and_then(|()| dee::snap::Snapshot::info(&bytes))
            .map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: ok — record {}, parent {:016x}, {} byte(s)",
            info.record_index,
            info.parent_digest,
            bytes.len()
        );
        Ok(())
    })
}

/// `dee trace info <file.dtrc>...` — footer-index summary without scanning
/// the payload.
fn trace_info(args: &[String]) -> Result<(), String> {
    each_path(paths_of("trace info", "artifact", &args[2..])?, |path| {
        let info = dee::store::info_file(std::path::Path::new(path))?;
        let encoded = info.total_encoded();
        println!("{path}:");
        println!(
            "  container v{}, trace format v{}, chunk size {} bytes",
            info.header.container_version, info.header.trace_format_version, info.header.chunk_size
        );
        println!(
            "  {} chunk(s), {} raw bytes, {} encoded ({:.1}% of raw), {} file bytes",
            info.chunks.len(),
            info.total_raw,
            encoded,
            if info.total_raw == 0 {
                100.0
            } else {
                100.0 * encoded as f64 / info.total_raw as f64
            },
            info.file_len,
        );
        Ok(())
    })
}

/// `dee trace verify <file.dtrc>...` — stream each artifact through every
/// checksum and layout check.
fn trace_verify(args: &[String]) -> Result<(), String> {
    each_path(paths_of("trace verify", "artifact", &args[2..])?, |path| {
        let report = dee::store::verify_file(std::path::Path::new(path))?;
        println!(
            "{path}: ok — {} records, {} output words, output checksum {:016x}",
            report.records, report.output_words, report.output_checksum
        );
        Ok(())
    })
}

/// `dee trace ls --store DIR` — list published artifacts.
fn trace_ls(args: &[String]) -> Result<(), String> {
    let options = parse_options("trace ls", &["--store"], &args[2..])?;
    let store = open_store(&options)?;
    let entries = store.list().map_err(|e| e.to_string())?;
    if entries.is_empty() {
        println!("(no artifacts)");
        return Ok(());
    }
    for entry in &entries {
        println!("{:>12}  {}", entry.bytes, entry.name);
    }
    println!("{} artifact(s)", entries.len());
    Ok(())
}

/// `dee trace gc --store DIR` — sweep in-flight orphans and quarantined
/// files.
fn trace_gc(args: &[String]) -> Result<(), String> {
    let options = parse_options("trace gc", &["--store"], &args[2..])?;
    let store = open_store(&options)?;
    let report = store.gc().map_err(|e| e.to_string())?;
    println!(
        "removed {} tmp orphan(s), {} quarantined file(s)",
        report.tmp_removed, report.quarantine_removed
    );
    Ok(())
}

/// `dee gen <spec|default> [--seed N] [-o FILE]` — generate a seeded
/// program and emit its listing. The listing leads with the `# dee-gen v1`
/// spec+seed header, so the file alone regenerates the program (and its
/// input memory) bit-for-bit; stdout stays pure listing so it can be
/// piped, with the summary on stderr.
fn gen_program(args: &[String]) -> Result<(), String> {
    let spec_text = args
        .get(1)
        .ok_or("missing gen spec (try `dee gen default`)")?;
    let options = parse_options("gen", &["--seed", "-o", "--output"], &args[2..])?;
    let spec = dee::gen::GenSpec::parse(spec_text).map_err(|e| e.to_string())?;
    let generated = dee::gen::generate(&spec, options.seed).map_err(|e| e.to_string())?;
    let listing = generated.listing();
    let prepared = PreparedTrace::new(&generated.workload.program, &generated.trace);
    let summary = format!(
        "{}: {} instruction(s), {} dynamic, {} branch(es), 2-bit accuracy {:.1}%",
        generated.name(),
        generated.workload.program.len(),
        generated.trace.len(),
        generated.trace.num_cond_branches(),
        prepared.accuracy() * 100.0
    );
    match options.output.as_deref() {
        Some(path) => {
            std::fs::write(path, &listing).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
            println!("{summary}");
        }
        None => {
            print!("{listing}");
            eprintln!("{summary}");
        }
    }
    Ok(())
}

/// `dee gen sweep [--et N] [--seed N]` — a quick serial preview of the
/// workload-space axis: one small generated program per `pred` step,
/// measured 2-bit accuracy, and SP / DEE-CD-MF / oracle speedups. The
/// full seeded grid (with `--jobs` and the committed golden CSV) is the
/// `genspace` bench binary.
fn gen_sweep(args: &[String]) -> Result<(), String> {
    let options = parse_options("gen sweep", &["--et", "--seed"], &args[2..])?;
    println!(
        "pred-knob preview: seed {}, E_T = {} (full grid: `genspace` in crates/bench)",
        options.seed, options.et
    );
    println!(
        "{:>5} {:>9} {:>8} {:>10} {:>8} {:>8}",
        "pred", "accuracy", "SP", "DEE-CD-MF", "Oracle", "DEE/SP"
    );
    for pred in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
        let spec = dee::gen::GenSpec {
            pred,
            spread: 0.02,
            depth: 2,
            calls: 0.2,
            jr: 0.1,
            alias: 0.5,
            blocks: 12,
            iters: 48,
        };
        let generated = dee::gen::generate(&spec, options.seed).map_err(|e| e.to_string())?;
        let prepared = PreparedTrace::new(&generated.workload.program, &generated.trace);
        let p = prepared.accuracy();
        let shape_p = p.clamp(0.5, 0.9999);
        let speedup = |model| {
            simulate(
                &prepared,
                &SimConfig::new(model, options.et).with_p(shape_p),
            )
            .speedup()
        };
        let (sp, dee, oracle) = (
            speedup(Model::Sp),
            speedup(Model::DeeCdMf),
            speedup(Model::Oracle),
        );
        println!(
            "{pred:>5} {:>8.1}% {sp:>8.2} {dee:>10.2} {oracle:>8.2} {:>8.2}",
            p * 100.0,
            dee / sp
        );
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err("no command given".into());
    };
    match command.as_str() {
        "run" => {
            let path = args.get(1).ok_or("missing program path")?;
            let options = parse_options("run", &["--mem"], &args[2..])?;
            let program = load_program(path)?;
            let trace = trace_program(&program, &options.memory, 1_000_000_000)
                .map_err(|e| e.to_string())?;
            println!("output: {:?}", trace.output());
            println!(
                "dynamic instructions: {}, branches: {}, mean path length: {:.2}",
                trace.len(),
                trace.num_cond_branches(),
                trace.mean_path_len()
            );
            Ok(())
        }
        "analyze" => {
            if args.get(1).map(String::as_str) == Some("plan") {
                return analyze_plan(&args[2..]);
            }
            let target = args.get(1).ok_or("missing program path or workload name")?;
            let options = parse_options(
                "analyze",
                &["--scale", "--seed", "--json", "--deny"],
                &args[2..],
            )?;
            // A registered workload name analyses the built program at
            // `--scale` (default tiny); `gen:<spec>` analyses a generated
            // program at `--seed`; anything else is an assembly path.
            let program = analysis_target(target, &options)?;
            let report = dee::analyze::analyze(&program);
            if options.json {
                println!("{}", report.render_json(target));
            } else {
                print!("{}", report.render_text(target));
                let census = dee::analyze::BranchCensus::build(&program);
                println!(
                    "{target}: {} instruction(s), {} conditional branch(es) \
                     ({} loop-back), mean static path {:.2}",
                    program.len(),
                    census.num_branches(),
                    census.num_loop_back(),
                    census.mean_static_path_len()
                );
            }
            let gate_failed = report.has_errors() || (options.deny_warnings && !report.is_clean());
            if gate_failed {
                // Diagnostics have been printed; the nonzero exit is the
                // verdict, and the usage text would only bury it.
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                std::process::exit(1);
            }
            Ok(())
        }
        "sim" => {
            let path = args.get(1).ok_or("missing program path")?;
            let options = parse_options("sim", &["--model", "--et", "--mem"], &args[2..])?;
            let program = load_program(path)?;
            let trace = trace_program(&program, &options.memory, 1_000_000_000)
                .map_err(|e| e.to_string())?;
            let prepared = PreparedTrace::new(&program, &trace);
            println!(
                "2-bit counter accuracy: {:.1}%",
                prepared.accuracy() * 100.0
            );
            print_speedups(&prepared, &options)
        }
        "levo" => {
            let path = args.get(1).ok_or("missing program path")?;
            let options = parse_options("levo", &["--dee-paths", "--mem"], &args[2..])?;
            let program = load_program(path)?;
            let mut config = LevoConfig::default();
            if let Some(paths) = options.dee_paths {
                config.dee_paths = paths;
            }
            let report = Levo::new(config)
                .run(&program, &options.memory)
                .map_err(|e| e.to_string())?;
            println!("output: {:?}", report.output);
            println!(
                "cycles: {}, retired: {}, IPC: {:.2}, mispredicts: {} ({} DEE-covered)",
                report.cycles,
                report.retired,
                report.ipc(),
                report.mispredicts,
                report.dee_covered
            );
            Ok(())
        }
        "unroll" => {
            let path = args.get(1).ok_or("missing program path")?;
            let options = parse_options("unroll", &["--factor"], &args[2..])?;
            let program = load_program(path)?;
            let result = unroll_loops(
                &program,
                &UnrollConfig {
                    factor: options.factor,
                    max_body: 12,
                },
            )
            .map_err(|e| e.to_string())?;
            eprintln!(
                "unrolled {} loop(s), {} -> {} instructions",
                result.unrolled.len(),
                program.len(),
                result.program.len()
            );
            print!("{}", result.program.to_listing());
            Ok(())
        }
        "tree" => {
            let options = parse_options("tree", &["--p", "--et"], &args[1..])?;
            let tree = StaticTree::build(TreeParams {
                p: options.p,
                et: options.et,
            });
            println!(
                "static DEE tree for p = {}, E_T = {}:",
                options.p, options.et
            );
            println!("  main line l = {}", tree.mainline_len());
            println!("  h_DEE       = {}", tree.h_dee());
            println!("  DEE region  = {} paths", tree.dee_region_paths());
            println!("  degenerate  = {}", tree.is_single_path());
            Ok(())
        }
        "gen" => match args.get(1).map(String::as_str) {
            Some("sweep") => gen_sweep(args),
            Some(_) => gen_program(args),
            None => Err("missing gen spec (try `dee gen default`)".into()),
        },
        "snap" => match args.get(1).map(String::as_str) {
            Some("ls") => snap_ls(args),
            Some("info") => snap_info(args),
            Some("verify") => snap_verify(args),
            _ => Err("snap subcommands: ls | info | verify".into()),
        },
        "trace" => match args.get(1).map(String::as_str) {
            Some("record") => trace_record(args),
            Some("info") => trace_info(args),
            Some("verify") => trace_verify(args),
            Some("ls") => trace_ls(args),
            Some("gc") => trace_gc(args),
            // Legacy form: `dee trace <prog.s> -o <file>` captures a
            // bare DEETRC1 stream (no container).
            Some(path) => {
                let options = parse_options("trace", &["-o", "--output", "--mem"], &args[2..])?;
                let out_path = options.output.as_deref().ok_or("missing -o <file>")?;
                let program = load_program(path)?;
                let trace = trace_program(&program, &options.memory, 1_000_000_000)
                    .map_err(|e| e.to_string())?;
                let file = std::fs::File::create(out_path).map_err(|e| e.to_string())?;
                trace
                    .write_to(std::io::BufWriter::new(file))
                    .map_err(|e| e.to_string())?;
                println!("captured {} records to {out_path}", trace.len());
                Ok(())
            }
            None => Err("missing program path or trace subcommand".into()),
        },
        "replay" => {
            let prog_path = args.get(1).ok_or("missing program path")?;
            let trace_path = args.get(2).ok_or("missing trace file")?;
            let options = parse_options("replay", &["--model", "--et"], &args[3..])?;
            let program = load_program(prog_path)?;
            let file = std::fs::File::open(trace_path).map_err(|e| e.to_string())?;
            let trace = dee::vm::Trace::read_from(std::io::BufReader::new(file))
                .map_err(|e| e.to_string())?;
            // Preparing indexes per-pc tables by each record's pc, so a
            // trace of another program must be refused before it.
            dee::analyze::BranchCensus::build(&program)
                .verify_trace(&trace)
                .map_err(|e| format!("{trace_path} does not belong to {prog_path}: {e}"))?;
            println!("replaying {} records", trace.len());
            print_speedups(&PreparedTrace::new(&program, &trace), &options)
        }
        "serve" => {
            let options = parse_options(
                "serve",
                &[
                    "--addr",
                    "--workers",
                    "--cache-entries",
                    "--queue-capacity",
                    "--read-budget-ms",
                    "--chaos-seed",
                    "--store",
                ],
                &args[1..],
            )?;
            let mut config = dee::serve::ServerConfig::default();
            if let Some(addr) = options.addr {
                config.addr = addr;
            } else {
                config.addr = "127.0.0.1:7377".to_string();
            }
            if let Some(workers) = options.workers {
                config.workers = workers;
            }
            if let Some(entries) = options.cache_entries {
                config.cache_entries = entries;
            }
            if let Some(capacity) = options.queue_capacity {
                config.queue_capacity = capacity;
            }
            if let Some(ms) = options.read_budget_ms {
                config.read_budget = std::time::Duration::from_millis(ms);
                config.write_budget = std::time::Duration::from_millis(ms);
            }
            if let Some(dir) = &options.store {
                config.store_dir = Some(dir.into());
                println!("trace-artifact store: {dir} (disk cache tier enabled)");
            }
            if let Some(seed) = options.chaos_seed {
                // A hostile plan for resilience drills: every fault site
                // armed at low rates, fully reproducible from the seed.
                config.faults = std::sync::Arc::new(dee::serve::FaultPlan::hostile(seed));
                println!("chaos mode: hostile fault plan armed with seed {seed}");
            }
            let workers = config.workers;
            let server = dee::serve::Server::spawn(config).map_err(|e| e.to_string())?;
            println!(
                "dee-serve listening on http://{} ({workers} workers); endpoints: {}; \
                 Ctrl-C to stop",
                server.addr(),
                dee::serve::route_summary()
            );
            dee::serve::signal::install();
            while !dee::serve::signal::interrupted() {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            println!("shutting down (draining in-flight requests)...");
            server.shutdown();
            println!("bye");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    /// Asserts that `dee <command> <rest>` fails naming `flag` as
    /// unknown to `dee <command>`.
    fn refuses(command: &str, rest: &str, flag: &str) {
        let line = format!("{command} {rest}");
        let err = run(&strings(&line.split_whitespace().collect::<Vec<_>>())).unwrap_err();
        assert_eq!(err, format!("unknown flag `{flag}` for `dee {command}`"));
    }

    #[test]
    fn options_parse_memory_pairs() {
        let args = strings(&["--mem", "0=5,3=-7", "--et", "64"]);
        let options = parse_options("sim", &["--mem", "--et"], &args).unwrap();
        assert_eq!(options.memory, vec![5, 0, 0, -7]);
        assert_eq!(options.et, 64);
    }

    #[test]
    fn options_reject_bad_memory() {
        let sim = |args: &[&str]| parse_options("sim", &["--mem", "--et"], &strings(args));
        assert!(sim(&["--mem", "x=1"]).is_err());
        assert!(sim(&["--mem", "5"]).is_err());
        assert!(sim(&["--et"]).is_err());
        assert!(sim(&["--bogus"]).is_err());
    }

    #[test]
    fn options_parse_robustness_flags() {
        let flags = ["--read-budget-ms", "--chaos-seed"];
        let serve = |args: &[&str]| parse_options("serve", &flags, &strings(args));
        let options = serve(&["--read-budget-ms", "2500", "--chaos-seed", "12345"]).unwrap();
        assert_eq!(options.read_budget_ms, Some(2500));
        assert_eq!(options.chaos_seed, Some(12345));
        assert!(serve(&["--chaos-seed", "abc"]).is_err());
        // The circuit breaker went: its flags are unknown, not ignored.
        for flag in ["--breaker-threshold", "--breaker-cooldown-ms"] {
            refuses("serve", &format!("{flag} 5"), flag);
        }
    }

    #[test]
    fn gateway_without_peers_is_an_error() {
        // `dee gateway` and `dee cluster` went with the cluster tier: each
        // is an unknown command, with or without peers.
        for args in [&["gateway"][..], &["gateway", "--peers", ","], &["cluster"]] {
            let err = run(&strings(args)).unwrap_err();
            assert!(err.contains("unknown command"), "{err}");
        }
    }

    #[test]
    fn options_parse_cluster_flags() {
        // The cluster flags went with the cluster tier: the parser refuses
        // each one as unknown instead of ignoring it.
        for flag in ["--peers", "--replication", "--nodes", "--hedge-ms"] {
            refuses("serve", &format!("{flag} 1"), flag);
        }
    }

    #[test]
    fn model_names_resolve_case_insensitively() {
        assert_eq!(Model::from_name("dee-cd-mf"), Some(Model::DeeCdMf));
        assert_eq!(Model::from_name("SP"), Some(Model::Sp));
        assert_eq!(Model::from_name("oracle"), Some(Model::Oracle));
        assert_eq!(Model::from_name("warp"), None);
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn tree_command_runs() {
        run(&strings(&["tree", "--p", "0.9", "--et", "34"])).unwrap();
    }

    #[test]
    fn end_to_end_through_temp_files() {
        let dir = std::env::temp_dir().join("dee-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let prog = dir.join("p.s");
        let trace = dir.join("p.trace");
        std::fs::write(&prog, "li r1, 3\nout r1\nhalt\n").unwrap();
        let prog_s = prog.to_string_lossy().to_string();
        let trace_s = trace.to_string_lossy().to_string();
        run(&strings(&["run", &prog_s])).unwrap();
        run(&strings(&["sim", &prog_s, "--model", "sp", "--et", "8"])).unwrap();
        run(&strings(&["levo", &prog_s])).unwrap();
        run(&strings(&["unroll", &prog_s])).unwrap();
        run(&strings(&["trace", &prog_s, "-o", &trace_s])).unwrap();
        run(&strings(&[
            "replay", &prog_s, &trace_s, "--model", "oracle",
        ]))
        .unwrap();
    }

    #[test]
    fn gen_writes_a_regenerable_listing() {
        let dir = std::env::temp_dir().join(format!("dee-cli-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("g.s").to_string_lossy().to_string();
        run(&strings(&[
            "gen",
            "pred=0.9,blocks=4,iters=8",
            "--seed",
            "7",
            "-o",
            &out,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let regenerated = dee::gen::from_listing(&text).unwrap();
        assert_eq!(regenerated.seed, 7);
        assert_eq!(regenerated.listing(), text);
        // The emitted listing is plain assembly: every other file-taking
        // subcommand accepts it.
        run(&strings(&["run", &out])).unwrap();
        run(&strings(&["analyze", &out, "--deny", "warnings"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_spec_names_work_anywhere_workload_names_do() {
        // analyze accepts `gen:<spec>` targets and registry names
        // (including the interpreter workload) interchangeably.
        run(&strings(&[
            "analyze",
            "gen:pred=0.95,blocks=4,iters=8",
            "--seed",
            "3",
            "--deny",
            "warnings",
        ]))
        .unwrap();
        run(&strings(&["analyze", "synacor", "--scale", "tiny"])).unwrap();
    }

    #[test]
    fn gen_rejects_bad_specs() {
        assert!(run(&strings(&["gen"])).is_err());
        assert!(run(&strings(&["gen", "pred=2"])).is_err());
        assert!(run(&strings(&["gen", "warp=1"])).is_err());
        assert!(run(&strings(&["gen", "default", "--seed", "x"])).is_err());
    }

    #[test]
    fn gen_sweep_previews_the_pred_axis() {
        run(&strings(&["gen", "sweep", "--et", "16", "--seed", "2"])).unwrap();
    }

    #[test]
    fn generated_workloads_record_into_the_store() {
        let dir = std::env::temp_dir().join(format!("dee-cli-genstore-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = dir.to_string_lossy().to_string();
        let args = strings(&[
            "trace",
            "record",
            "gen:pred=0.8,blocks=4,iters=8",
            "--store",
            &store,
            "--seed",
            "5",
        ]);
        run(&args).unwrap();
        // Same spec+seed → same key → idempotent re-record.
        run(&args).unwrap();
        let artifacts = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "dtrc"))
            .count();
        assert_eq!(artifacts, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_store_subcommands_round_trip() {
        let dir = std::env::temp_dir().join(format!("dee-cli-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = dir.to_string_lossy().to_string();
        // record publishes, and re-recording the same key is a no-op.
        run(&strings(&[
            "trace", "record", "xlisp", "--store", &store, "--scale", "tiny",
        ]))
        .unwrap();
        run(&strings(&[
            "trace", "record", "xlisp", "--store", &store, "--scale", "tiny",
        ]))
        .unwrap();
        run(&strings(&[
            "trace", "record", "compress", "--store", &store, "--scale", "tiny",
        ]))
        .unwrap();
        run(&strings(&["trace", "ls", "--store", &store])).unwrap();
        let mut artifacts: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "dtrc"))
            .map(|p| p.to_string_lossy().to_string())
            .collect();
        artifacts.sort();
        assert_eq!(artifacts.len(), 2, "two artifacts in one store");
        // info and verify read every path they are given.
        for command in ["info", "verify"] {
            let mut args = vec!["trace", command];
            args.extend(artifacts.iter().map(String::as_str));
            run(&strings(&args)).unwrap();
        }
        run(&strings(&["trace", "gc", "--store", &store])).unwrap();
        // A corrupted second artifact fails verification with a typed
        // error naming it, rather than a panic or a silent skip.
        let mut bytes = std::fs::read(&artifacts[1]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&artifacts[1], bytes).unwrap();
        let err = run(&strings(&["trace", "verify", &artifacts[0], &artifacts[1]])).unwrap_err();
        assert!(err.starts_with(&artifacts[1]), "{err}");
        run(&strings(&["trace", "verify", &artifacts[0]])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snap_subcommands_round_trip() {
        let dir = std::env::temp_dir().join(format!("dee-cli-snap-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = dir.to_string_lossy().to_string();
        // Recording with a checkpoint stride publishes the artifact and
        // its snapshots; re-running is idempotent (snapshots are
        // deterministic, so the republished bytes are identical).
        run(&strings(&[
            "trace",
            "record",
            "compress",
            "--store",
            &store,
            "--scale",
            "tiny",
            "--checkpoint-stride",
            "2000",
        ]))
        .unwrap();
        run(&strings(&[
            "trace",
            "record",
            "compress",
            "--store",
            &store,
            "--scale",
            "tiny",
            "--checkpoint-stride",
            "2000",
        ]))
        .unwrap();
        run(&strings(&["snap", "ls", "--store", &store])).unwrap();
        let snapshots: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "dsnp"))
            .collect();
        // compress/tiny runs 8417 records, so stride 2000 cuts
        // snapshots at 2000, 4000, 6000, and 8000.
        assert_eq!(snapshots.len(), 4);
        let snapshot_s: Vec<String> = snapshots
            .iter()
            .map(|p| p.to_string_lossy().to_string())
            .collect();
        // info and verify read every path they are given.
        for command in ["info", "verify"] {
            let mut args = vec!["snap", command];
            args.extend(snapshot_s.iter().map(String::as_str));
            run(&strings(&args)).unwrap();
        }
        // A corrupted snapshot fails verification with a typed error, even
        // after a good one.
        let mut bytes = std::fs::read(&snapshots[0]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snapshots[0], bytes).unwrap();
        let err = run(&strings(&[
            "snap",
            "verify",
            &snapshot_s[1],
            &snapshot_s[0],
        ]))
        .unwrap_err();
        assert!(err.starts_with(&snapshot_s[0]), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snap_subcommands_reject_bad_arguments() {
        assert!(run(&strings(&["snap"])).is_err());
        assert!(run(&strings(&["snap", "bogus"])).is_err());
        assert!(run(&strings(&["snap", "info"])).is_err());
        assert!(run(&strings(&["snap", "verify", "/tmp/dee-cli-missing.dsnp"])).is_err());
        let stride = |value| {
            let args = strings(&["--checkpoint-stride", value]);
            parse_options("trace record", &["--checkpoint-stride"], &args)
        };
        assert!(stride("0").is_err());
        assert!(stride("abc").is_err());
    }

    #[test]
    fn trace_subcommands_reject_bad_arguments() {
        assert!(run(&strings(&["trace"])).is_err());
        assert!(run(&strings(&["trace", "record", "xlisp"])).is_err());
        assert!(run(&strings(&[
            "trace",
            "record",
            "warp9",
            "--store",
            "/tmp/dee-cli-bogus"
        ]))
        .is_err());
        assert!(run(&strings(&[
            "trace",
            "record",
            "xlisp",
            "--store",
            "/tmp/dee-cli-bogus2",
            "--scale",
            "huge"
        ]))
        .is_err());
        assert!(run(&strings(&["trace", "info", "/nonexistent/x.dtrc"])).is_err());
        assert!(run(&strings(&["trace", "ls"])).is_err());
        std::fs::remove_dir_all("/tmp/dee-cli-bogus").ok();
        std::fs::remove_dir_all("/tmp/dee-cli-bogus2").ok();
    }

    #[test]
    fn program_commands_refuse_flags_they_do_not_read() {
        // Each flag belongs to another command; no path is ever opened.
        for (command, rest, flag) in [
            ("run", "p.s --et 8", "--et"),
            ("sim", "p.s --dee-paths 2", "--dee-paths"),
            ("levo", "p.s --model sp", "--model"),
            ("unroll", "p.s --mem 0=1", "--mem"),
            ("trace", "p.s -o t --et 8", "--et"),
            ("replay", "p.s t --mem 0=1", "--mem"),
        ] {
            refuses(command, rest, flag);
        }
    }

    #[test]
    fn a_stray_argument_is_named_as_an_argument() {
        for (command, rest, stray) in [
            ("tree", "extra", "extra"),
            ("sim", "p.s extra", "extra"),
            ("trace ls", "--store d extra", "extra"),
            ("snap ls", "x.dsnp", "x.dsnp"),
            ("gen sweep", "--et 8 9", "9"),
        ] {
            let line = format!("{command} {rest}");
            let err = run(&strings(&line.split_whitespace().collect::<Vec<_>>())).unwrap_err();
            assert_eq!(
                err,
                format!("unexpected argument `{stray}` for `dee {command}`")
            );
        }
    }

    #[test]
    fn et_and_p_outside_their_ranges_are_refused() {
        for (args, message) in [
            ("tree --et 0", "`--et` must be in 1..=100000, not `0`"),
            (
                "tree --et 100001",
                "`--et` must be in 1..=100000, not `100001`",
            ),
            (
                "gen sweep --et -3",
                "`--et` must be in 1..=100000, not `-3`",
            ),
            ("sim p.s --et x", "`--et` must be in 1..=100000, not `x`"),
            ("tree --p 1", "`--p` must be in [0.5, 1), not `1`"),
            ("tree --p 0.2", "`--p` must be in [0.5, 1), not `0.2`"),
        ] {
            let err = run(&strings(&args.split_whitespace().collect::<Vec<_>>())).unwrap_err();
            assert_eq!(err, message, "dee {args}");
        }
        run(&strings(&["tree", "--et", "100000"])).unwrap();
    }

    #[test]
    fn analyze_commands_refuse_flags_they_do_not_read() {
        for (command, rest, flag) in [
            ("analyze", "compress --workers 3", "--workers"),
            ("analyze", "compress -o x", "-o"),
            ("analyze plan", "compress --deny warnings", "--deny"),
        ] {
            refuses(command, rest, flag);
        }
    }

    #[test]
    fn tree_and_gen_refuse_flags_they_do_not_read() {
        for (command, rest, flag) in [
            ("tree", "--p 0.9 --et 34 --workers 3", "--workers"),
            ("tree", "--store /nonexistent", "--store"),
            ("tree", "--engine interp", "--engine"),
            ("gen", "default --et 8", "--et"),
            ("gen sweep", "-o x", "-o"),
        ] {
            refuses(command, rest, flag);
        }
    }

    #[test]
    fn store_commands_refuse_flags_they_do_not_read() {
        // `--engine` went from `trace record`: both engines write the same
        // artifact bytes.
        for (command, rest, flag) in [
            ("trace record", "xlisp --store d --engine x", "--engine"),
            ("trace ls", "--scale tiny", "--scale"),
            ("trace gc", "--seed 1", "--seed"),
            ("trace info", "x.dtrc --json", "--json"),
            ("trace verify", "x.dtrc -o y", "-o"),
            ("snap ls", "--workers 2", "--workers"),
            ("snap info", "x.dsnp --json", "--json"),
            ("snap verify", "x.dsnp --mem 0=1", "--mem"),
        ] {
            refuses(command, rest, flag);
        }
    }

    #[test]
    fn serve_refuses_flags_it_does_not_read() {
        // Refused before the server binds anything.
        for flag in ["--et", "--scale", "--seed", "--engine"] {
            refuses("serve", &format!("--workers 2 {flag} 1"), flag);
        }
    }
}
