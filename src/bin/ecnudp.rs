//! `ecnudp` — run any ECN-measurement world from a declarative scenario
//! file.
//!
//! ```text
//! ecnudp run --scenario scenarios/paper2015.toml            # full report to stdout
//! ecnudp run --scenario scenarios/lossy-edge.toml --json    # machine-readable summary
//! ecnudp run --scenario my.toml --shards 4 --seed 7         # pin concurrency, override seed
//! ecnudp run --scenario my.toml --metrics out.jsonl \
//!            --progress --sample-traces 8                   # event stream + 1-in-8 traces
//! ecnudp validate --scenario my.toml                        # parse + lower + summarise, no run
//! ```
//!
//! Spec files are TOML; every omitted key keeps its `paper2015` default,
//! so a file only states its deltas. See the "Scenario cookbook" section of README.md for the full
//! schema and `scenarios/` for the documented preset library.
//!
//! The report goes to **stdout** (exactly `FullReport::render()`, byte-
//! identical for any `--shards` value); progress and diagnostics go to
//! stderr, so `ecnudp run ... > report.txt` captures a clean artefact.

use ecnudp::core::{
    campaign_config, engine_config, try_run_engine, write_metrics, EngineConfig, FullReport,
    MpError, RunSummary,
};
use ecnudp::pool::ScenarioSpec;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
ecnudp — declarative ECN-measurement scenarios

USAGE:
    ecnudp run      --scenario <file> [--shards N] [--processes N] [--json]
                    [--seed N] [--servers N] [--quick]
                    [--metrics <file>] [--progress] [--sample-traces N]
                    [--max-retries N] [--worker-timeout S]
                    [--checkpoint <file>] [--resume <file>]
    ecnudp validate --scenario <file> [--seed N] [--servers N] [--quick]
                    [--metrics <file>]
    ecnudp help

COMMANDS:
    run        load the spec, run the sharded campaign engine, and render
               the FullReport (text to stdout; --json for a summary)
    validate   load and cross-check the spec, print what it lowers to,
               and exit without running anything

OPTIONS:
    --scenario <file>   TOML scenario spec (see scenarios/)
    --shards <N>        engine shards per process (default: available
                        parallelism; any value renders byte-identical
                        output; 1 to 1024)
    --processes <N>     worker processes, 1 to 256 (default 1 = in-process,
                        with or without --checkpoint/--resume); with N > 1
                        the remaining units are partitioned across spawned
                        workers under a supervisor and their reducers
                        tree-merged — output stays byte-identical. Each
                        process holds one world blueprint (~2.5 KB per
                        server), a floor this does not divide; the parent
                        drops it after discovery, each worker adds only
                        its units' worlds and aggregates. --metrics and
                        --progress carry the same unit lines at any N,
                        plus worker lifecycle lines; N > 1 is not
                        combinable with --sample-traces (raw trace records
                        stay inside the worker)
    --json              emit a machine-readable RunSummary instead of the
                        text report
    --seed <N>          override the spec's seed
    --servers <N>       override the spec's population size
    --quick             override the schedule profile to `quick`
    --metrics <file>    write a JSON-lines metrics stream (deterministic
                        except the summary's wall_ms; schema in DESIGN.md;
                        never the --scenario, --checkpoint or --resume file)
    --progress          print live unit/observation progress to stderr
    --sample-traces <N> keep 1-in-N logical traces by identity hash and
                        append them to the metrics stream (needs --metrics)
    --max-retries <N>   respawns per failed worker before the campaign
                        fails with a typed error (default 2, at most 1000;
                        retries re-run exactly the failed unit slice,
                        byte-identically; worker processes only, so
                        --processes > 1)
    --worker-timeout <S> per-worker deadline in seconds, above 0 and at
                        most 86400 (fractions allowed; default off): a
                        worker delivering no payload in time is killed and
                        retried (--processes > 1 only)
    --checkpoint <file> atomically persist merged-so-far aggregates + the
                        completed-unit bitmap: after every worker payload
                        with --processes > 1, once at the end in-process
    --resume <file>     resume from a checkpoint: verify its content
                        checksum and that it matches this campaign, re-run
                        only units absent from its bitmap, at any
                        --processes (keeps checkpointing to the same file
                        unless --checkpoint names another; not combinable
                        with --sample-traces, as a checkpoint holds no raw
                        trace records)

EXIT CODES:
    0  success        2  usage error
    1  config/spec/IO error
    3  campaign failed (worker retry budget exhausted, corrupt or
       mismatched checkpoint) — the message names the worker, unit
       range, or file, and the cause

Omitted spec keys keep their paper2015 defaults; unknown keys are errors.";

/// A CLI failure: what to print, and which exit code it maps to.
struct CliError {
    code: u8,
    message: String,
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { code: 1, message }
    }
}

impl CliError {
    /// A supervised-campaign failure (exit code 3): typed, actionable,
    /// never a panic backtrace.
    fn campaign(e: MpError) -> CliError {
        CliError {
            code: 3,
            message: format!("campaign failed: {e}"),
        }
    }
}

struct Args {
    command: String,
    scenario: Option<String>,
    shards: Option<usize>,
    processes: usize,
    json: bool,
    seed: Option<u64>,
    servers: Option<usize>,
    quick: bool,
    metrics: Option<String>,
    progress: bool,
    sample_traces: Option<usize>,
    max_retries: Option<u32>,
    worker_timeout: Option<f64>,
    checkpoint: Option<String>,
    resume: Option<String>,
}

fn parse_args(mut argv: std::env::Args) -> Result<Args, String> {
    let _ = argv.next(); // program name
    let command = argv.next().unwrap_or_else(|| "help".into());
    let mut args = Args {
        command,
        scenario: None,
        shards: None,
        processes: 1,
        json: false,
        seed: None,
        servers: None,
        quick: false,
        metrics: None,
        progress: false,
        sample_traces: None,
        max_retries: None,
        worker_timeout: None,
        checkpoint: None,
        resume: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--scenario" => args.scenario = Some(value("--scenario")?),
            "--shards" => {
                args.shards = Some(count_flag("--shards", &value("--shards")?, MAX_SHARDS)?)
            }
            "--processes" => {
                args.processes = count_flag("--processes", &value("--processes")?, MAX_PROCESSES)?
            }
            "--json" => args.json = true,
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--servers" => {
                args.servers = Some(
                    value("--servers")?
                        .parse()
                        .map_err(|e| format!("--servers: {e}"))?,
                )
            }
            "--quick" => args.quick = true,
            "--metrics" => args.metrics = Some(value("--metrics")?),
            "--progress" => args.progress = true,
            "--sample-traces" => {
                args.sample_traces = Some(
                    value("--sample-traces")?
                        .parse()
                        .map_err(|e| format!("--sample-traces: {e}"))?,
                )
            }
            "--max-retries" => {
                let n: u32 = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?;
                if n > 1000 {
                    return Err(format!("--max-retries must be at most 1000 (got {n})"));
                }
                args.max_retries = Some(n);
            }
            "--worker-timeout" => {
                let raw = value("--worker-timeout")?;
                let s: f64 = raw.parse().map_err(|e| format!("--worker-timeout: {e}"))?;
                // a day bounds the deadline well inside what a Duration holds
                if s.is_nan() || s <= 0.0 || s > 86_400.0 {
                    return Err(format!(
                        "--worker-timeout must be a positive number of seconds, \
                         at most 86400 (got {raw})"
                    ));
                }
                args.worker_timeout = Some(s);
            }
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--resume" => args.resume = Some(value("--resume")?),
            other => return Err(format!("unknown flag `{other}` (see `ecnudp help`)")),
        }
    }
    Ok(args)
}

/// Most engine shards (threads) one process may ask for.
const MAX_SHARDS: usize = 1024;
/// Most worker processes one run may ask for (each rebuilds the world
/// blueprint).
const MAX_PROCESSES: usize = 256;

/// Parse a count flag that must lie in `1..=max`.
fn count_flag(name: &str, raw: &str, max: usize) -> Result<usize, String> {
    match raw.parse().map_err(|e| format!("{name}: {e}"))? {
        0 => Err(format!("{name} must be at least 1 (got 0)")),
        n if n > max => Err(format!("{name} must be at most {max} (got {n})")),
        n => Ok(n),
    }
}

/// Load the TOML spec file and apply the flags that change the
/// experiment: `--seed`, `--servers` and `--quick`.
fn load_spec(args: &Args) -> Result<ScenarioSpec, String> {
    let path = args
        .scenario
        .as_deref()
        .ok_or("missing --scenario <file> (presets live in scenarios/)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut spec = ScenarioSpec::from_toml_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    if let Some(servers) = args.servers {
        spec.population.servers = servers;
    }
    if args.quick {
        spec.schedule.profile = ecnudp::pool::ScheduleProfile::Quick;
    }
    if args.seed.is_some() || args.servers.is_some() || args.quick {
        spec.validate().map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(spec)
}

/// The `--sample-traces` rate (0 = off). Sampled records ride the
/// metrics stream, so sampling without `--metrics` is an error.
fn sample_traces(args: &Args) -> Result<usize, String> {
    match (args.sample_traces.unwrap_or(0), &args.metrics) {
        (n, None) if n > 0 => {
            Err("--sample-traces needs a metrics sink: pass --metrics <file>".into())
        }
        (n, _) => Ok(n),
    }
}

/// Refuse a `--metrics` path that names the `--scenario`, `--checkpoint`
/// or `--resume` file, however it is spelled: opening the metrics stream
/// truncates it.
fn metrics_apart_from_run_files(args: &Args) -> Result<(), String> {
    let Some(metrics) = &args.metrics else {
        return Ok(());
    };
    let at = resolved(metrics);
    for (flag, path) in [
        ("--scenario", &args.scenario),
        ("--checkpoint", &args.checkpoint),
        ("--resume", &args.resume),
    ] {
        if let Some(path) = path {
            if path == metrics || (at.is_some() && at == resolved(path)) {
                return Err(format!(
                    "--metrics `{metrics}` is the {flag} file `{path}`; the metrics \
                     stream would overwrite it: write the metrics to another file"
                ));
            }
        }
    }
    Ok(())
}

/// `path` made absolute with every symlink resolved, whether or not the
/// file exists yet (then only its directory must); `None` if neither.
fn resolved(path: &str) -> Option<PathBuf> {
    let path = Path::new(path);
    if let Ok(full) = path.canonicalize() {
        return Some(full);
    }
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    Some(dir.canonicalize().ok()?.join(path.file_name()?))
}

/// Create/truncate the metrics file up front, so an unwritable path fails
/// before the campaign runs (not after minutes of work). The error names
/// the path.
fn open_metrics(path: &str) -> Result<File, String> {
    File::create(path).map_err(|e| format!("cannot write metrics file `{path}`: {e}"))
}

fn describe(spec: &ScenarioSpec) -> String {
    let plan = spec.plan();
    format!(
        "scenario `{}`: seed {}, {} servers across ~{} ASes, {} vantages, \
         {} ECT-droppers (+{} flaky), {} bleachers ({} probabilistic), \
         traceroute {}",
        spec.name,
        spec.seed,
        plan.servers,
        plan.total_as_count(),
        plan.vantage_count,
        plan.ect_blocked,
        plan.ect_blocked_flaky,
        plan.bleach_pe + plan.bleach_border + plan.bleach_interior + plan.bleach_access,
        plan.bleach_prob_pe + plan.bleach_prob_access,
        if spec.traceroute { "on" } else { "off" },
    )
}

/// Lower the spec plus the CLI's concurrency, supervision and
/// observation flags into the engine configuration. `--resume` doubles as
/// the checkpoint sink so an interrupted resume can itself be resumed,
/// unless `--checkpoint` names another file.
fn build_engine_config(spec: &ScenarioSpec, args: &Args, sample_traces: usize) -> EngineConfig {
    let mut eng = engine_config(spec);
    eng.shards = args.shards;
    eng.processes = args.processes;
    if let Some(n) = args.max_retries {
        eng.max_worker_retries = n;
    }
    eng.worker_timeout = args.worker_timeout.map(Duration::from_secs_f64);
    eng.checkpoint = args
        .checkpoint
        .as_ref()
        .or(args.resume.as_ref())
        .map(Into::into);
    eng.resume = args.resume.as_ref().map(Into::into);
    eng.sample_traces = sample_traces;
    eng.progress = args.progress;
    eng
}

fn cmd_run(args: &Args) -> Result<(), CliError> {
    let spec = load_spec(args)?;
    let sample_traces = sample_traces(args)?;
    eprintln!("{}", describe(&spec));
    let eng = build_engine_config(&spec, args, sample_traces);
    // Refuse every conflict before opening anything: a refused run must
    // leave the user's files as they were.
    if (eng.processes > 1 || eng.resume.is_some()) && eng.sample_traces > 0 {
        return Err(CliError::from(
            "--sample-traces keeps raw trace records, which do not cross the \
             worker-process boundary and are not in a checkpoint; drop it, or \
             run with --processes 1 and no --resume"
                .to_string(),
        ));
    }
    metrics_apart_from_run_files(args)?;
    // Open the metrics sink before the campaign so a bad path fails fast.
    let metrics_file = args.metrics.as_deref().map(open_metrics).transpose()?;
    let run =
        try_run_engine(&spec.plan(), &campaign_config(&spec), &eng).map_err(CliError::campaign)?;
    if let (Some(path), Some(file)) = (&args.metrics, metrics_file) {
        write_metrics(BufWriter::new(file), &spec.name, spec.seed, &run)
            .map_err(|e| format!("cannot write metrics file `{path}`: {e}"))?;
        eprintln!(
            "metrics: {path} ({} sampled trace records)",
            run.result.traces.len()
        );
    }
    let report = FullReport::from_campaign(&run.result);
    eprintln!(
        "campaign done: {} process(es) x {} shards over {} units (merge depth {}), \
         {} targets, {} traces, peak RSS {} kB, per process {:?} kB (parent first); {}",
        run.processes,
        run.shards,
        run.units,
        run.merge_depth,
        run.result.targets.len(),
        run.result.aggregates.trace_stats.len(),
        run.peak_rss_kb,
        run.process_peak_rss_kb,
        run.timing.render(),
    );
    if args.json {
        let summary = RunSummary::new(&spec, &run, &report);
        let json = serde_json::to_string(&summary).map_err(|e| e.to_string())?;
        println!("{json}");
    } else {
        print!("{}", report.render());
    }
    Ok(())
}

fn cmd_validate(args: &Args) -> Result<(), String> {
    let spec = load_spec(args)?;
    let sample_traces = sample_traces(args)?;
    println!("{}", describe(&spec));
    let cfg = ecnudp::core::campaign_config(&spec);
    println!(
        "schedule: {} discovery rounds, traces/vantage {}, target chunks {}, \
         batch 2 at +{}s",
        cfg.discovery_rounds,
        cfg.traces_per_vantage
            .map(|n| n.to_string())
            .unwrap_or_else(|| "full Table 2 allocation".into()),
        spec.schedule.target_chunks,
        cfg.batch2_start.0 / 1_000_000_000,
    );
    if let Some(path) = &args.metrics {
        probe_metrics_writable(path)?;
        let sampling = match sample_traces {
            0 => "no trace sampling".to_string(),
            n => format!("sampling 1-in-{n} traces"),
        };
        println!("observability: metrics to {path} (writable), {sampling}");
    }
    println!("ok");
    Ok(())
}

/// Non-destructively check that the metrics path is writable: open it for
/// append (creating it if absent), then remove it again if this probe
/// created it. An existing file's contents are left untouched.
fn probe_metrics_writable(path: &str) -> Result<(), String> {
    let existed = std::path::Path::new(path).exists();
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot write metrics file `{path}`: {e}"))?;
    if !existed {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

fn main() -> ExitCode {
    // Hidden worker mode: when spawned by a --processes > 1 parent, serve
    // one unit-partition request over stdin/stdout and exit.
    if let Some(code) = ecnudp::core::maybe_worker() {
        return code;
    }
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "run" => cmd_run(&args),
        "validate" => cmd_validate(&args).map_err(CliError::from),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::from(format!(
            "unknown command `{other}` (see `ecnudp help`)"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}
