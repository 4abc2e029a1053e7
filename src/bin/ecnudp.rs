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
//! Spec files are TOML (or JSON with `--json`-style objects); every
//! omitted key keeps its `paper2015` default, so a file only states its
//! deltas. See the "Scenario cookbook" section of README.md for the full
//! schema and `scenarios/` for the documented preset library.
//!
//! The report goes to **stdout** (exactly `FullReport::render()`, byte-
//! identical for any `--shards` value); progress and diagnostics go to
//! stderr, so `ecnudp run ... > report.txt` captures a clean artefact.

use ecnudp::core::{
    campaign_config, engine_config, try_run_engine, try_run_engine_observed, FullReport,
    JsonLinesMetrics, MpError, Progress, RunSummary, TraceSampler,
};
use ecnudp::pool::ScenarioSpec;
use std::fs::File;
use std::io::Write as _;
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
    --scenario <file>   TOML or JSON scenario spec (see scenarios/)
    --shards <N>        engine shards per process (default: available
                        parallelism; any value renders byte-identical
                        output; must be >= 1)
    --processes <N>     worker processes (default 1 = in-process); the
                        unit pool is partitioned across spawned workers
                        under a supervisor and their reducers tree-merged,
                        bounding peak RSS per process — output stays
                        byte-identical; --metrics/--progress then observe
                        worker lifecycle instead of per-probe events; not
                        combinable with --sample-traces (raw trace records
                        stay inside the worker)
    --json              emit a machine-readable RunSummary instead of the
                        text report
    --seed <N>          override the spec's seed
    --servers <N>       override the spec's population size
    --quick             override the schedule profile to `quick`
    --metrics <file>    write a JSON-lines metrics stream (deterministic
                        except the summary's wall_ms; schema in DESIGN.md)
    --progress          print live unit/observation progress to stderr
    --sample-traces <N> keep 1-in-N logical traces by identity hash and
                        append them to the metrics stream (needs --metrics)
    --max-retries <N>   respawns per failed worker before the campaign
                        fails with a typed error (default 2; retries re-run
                        exactly the failed unit slice, byte-identically)
    --worker-timeout <S> per-worker deadline in seconds (fractions allowed;
                        default off): a worker delivering no payload in
                        time is killed and retried
    --checkpoint <file> after every worker payload, atomically persist
                        merged-so-far aggregates + the completed-unit
                        bitmap (enables the supervised driver even at
                        --processes 1)
    --resume <file>     resume from a checkpoint: verify its content
                        checksum and that it matches this campaign, re-run
                        only units absent from its bitmap
                        (keeps checkpointing to the same file unless
                        --checkpoint names another)

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
                let n: usize = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?;
                if n == 0 {
                    return Err("--shards must be at least 1 (got 0)".into());
                }
                args.shards = Some(n);
            }
            "--processes" => {
                let n: usize = value("--processes")?
                    .parse()
                    .map_err(|e| format!("--processes: {e}"))?;
                if n == 0 {
                    return Err("--processes must be at least 1 (got 0)".into());
                }
                args.processes = n;
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
                args.max_retries = Some(
                    value("--max-retries")?
                        .parse()
                        .map_err(|e| format!("--max-retries: {e}"))?,
                )
            }
            "--worker-timeout" => {
                let s: f64 = value("--worker-timeout")?
                    .parse()
                    .map_err(|e| format!("--worker-timeout: {e}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!(
                        "--worker-timeout must be a positive number of seconds (got {s})"
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

/// Load the spec file (format chosen by extension, JSON sniffed as a
/// fallback) and apply the CLI overrides.
fn load_spec(args: &Args) -> Result<ScenarioSpec, String> {
    let path = args
        .scenario
        .as_deref()
        .ok_or("missing --scenario <file> (presets live in scenarios/)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = path.ends_with(".json") || text.trim_start().starts_with('{');
    let mut spec = if json {
        ScenarioSpec::from_json_str(&text)
    } else {
        ScenarioSpec::from_toml_str(&text)
    }
    .map_err(|e| format!("{path}: {e}"))?;
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    if let Some(servers) = args.servers {
        spec.population.servers = servers;
    }
    if args.quick {
        spec.schedule.profile = ecnudp::pool::ScheduleProfile::Quick;
    }
    if let Some(metrics) = &args.metrics {
        spec.observability.metrics = metrics.clone();
    }
    if args.progress {
        spec.observability.progress = true;
    }
    if let Some(every) = args.sample_traces {
        spec.observability.sample_traces = every;
    }
    if spec.observability.sample_traces > 0 && spec.observability.metrics.is_empty() {
        return Err(
            "--sample-traces needs a metrics sink: pass --metrics <file> \
             (or set observability.metrics in the spec)"
                .into(),
        );
    }
    let overridden = args.seed.is_some()
        || args.servers.is_some()
        || args.quick
        || args.metrics.is_some()
        || args.progress
        || args.sample_traces.is_some();
    if overridden {
        spec.validate().map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(spec)
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

/// Lower the spec's `[resilience]` section plus the CLI's supervision
/// flags into the engine configuration. `--resume` doubles as the
/// checkpoint sink so an interrupted resume can itself be resumed, unless
/// `--checkpoint` names another file.
fn build_engine_config(spec: &ScenarioSpec, args: &Args) -> ecnudp::core::EngineConfig {
    let mut eng = engine_config(spec);
    eng.shards = args.shards;
    eng.processes = args.processes;
    if let Some(n) = args.max_retries {
        eng.max_worker_retries = n;
    }
    if let Some(s) = args.worker_timeout {
        eng.worker_timeout = Some(Duration::from_secs_f64(s));
    }
    if let Some(path) = &args.checkpoint {
        eng.checkpoint = Some(path.into());
    }
    if let Some(path) = &args.resume {
        eng.resume = Some(path.into());
        if eng.checkpoint.is_none() {
            eng.checkpoint = Some(path.into());
        }
    }
    eng
}

fn cmd_run(args: &Args) -> Result<(), CliError> {
    let spec = load_spec(args)?;
    eprintln!("{}", describe(&spec));
    let obs = spec.observability.clone();
    // Open the metrics sink before the campaign so a bad path fails fast.
    let metrics_file = match obs.metrics.as_str() {
        "" => None,
        path => Some(open_metrics(path)?),
    };
    let observed = metrics_file.is_some() || obs.progress || obs.sample_traces > 0;
    let eng = build_engine_config(&spec, args);
    if eng.supervised() && obs.sample_traces > 0 {
        return Err(CliError::from(
            "--sample-traces keeps raw trace records, which do not cross the \
             worker-process boundary; drop it, or run with --processes 1 and \
             no --checkpoint/--resume"
                .to_string(),
        ));
    }
    let plan = spec.plan();
    let cfg = campaign_config(&spec);
    let (run, subscriber) = if observed {
        let metrics = metrics_file.map(|f| {
            JsonLinesMetrics::new(f)
                .with_header(&spec.name, spec.seed)
                .snapshot_every(obs.snapshot_every)
        });
        let progress = obs.progress.then(Progress::new);
        let sampler = (obs.sample_traces > 0).then(|| TraceSampler::new(obs.sample_traces));
        let (run, sub) = try_run_engine_observed(&plan, &cfg, &eng, (metrics, (progress, sampler)))
            .map_err(CliError::campaign)?;
        (run, Some(sub))
    } else {
        // the zero-cost path: Subscriber = () compiles the hooks away
        let run = try_run_engine(&plan, &cfg, &eng).map_err(CliError::campaign)?;
        (run, None)
    };
    if let Some((Some(m), (_progress, sampler))) = subscriber {
        let write_err = |e| format!("cannot write metrics file `{}`: {e}", obs.metrics);
        let mut sink = m.into_writer().map_err(write_err)?;
        let sampled = sampler.as_ref().map_or(0, |s| s.records().len());
        if let Some(s) = &sampler {
            for rec in s.records() {
                let json = serde_json::to_string(rec).map_err(|e| e.to_string())?;
                writeln!(sink, "{{\"type\":\"trace\",\"record\":{json}}}").map_err(write_err)?;
            }
            sink.flush().map_err(write_err)?;
        }
        eprintln!(
            "metrics: {} ({} sampled trace records)",
            obs.metrics, sampled
        );
    }
    let report = FullReport::from_campaign(&run.result);
    eprintln!(
        "campaign done: {} process(es) x {} shards over {} units (merge depth {}), \
         {} targets, {} traces, peak RSS {} kB ({})",
        run.processes,
        run.shards,
        run.units,
        run.merge_depth,
        run.result.targets.len(),
        run.result.aggregates.trace_stats.len(),
        run.peak_rss_kb,
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
    let obs = &spec.observability;
    if !obs.metrics.is_empty() {
        probe_metrics_writable(&obs.metrics)?;
        let sampling = match obs.sample_traces {
            0 => "no trace sampling".to_string(),
            n => format!("sampling 1-in-{n} traces"),
        };
        println!(
            "observability: metrics to {} (writable), snapshot every {} units, {}",
            obs.metrics, obs.snapshot_every, sampling
        );
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
