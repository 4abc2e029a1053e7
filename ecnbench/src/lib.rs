//! # ecnbench — the ecnudp benchmark
//!
//! One command runs frozen workloads (see [`workload::WORKLOADS`]) and
//! prints the end-to-end metrics a user of the campaign would see; with
//! `--trace` it also replays each workload through the layers' public
//! functions and prints a per-layer ledger, so any slowdown can be
//! assigned to a layer.
//!
//! ```text
//! bash ecnbench/run.sh --workload paper2015 --seed 2015 --seconds 25 --trace 0
//! ```
//!
//! Every measured campaign runs in a fresh child process of this binary
//! (hidden `__run` argument), exactly as `ecnudp run` would run it, and
//! the parent times it from outside: wall time from spawn to exit, and
//! the child's CPU (workers included) from `/proc/self/stat`. Children
//! are launched until `--seconds` is spent (at least three); the times
//! take the best of them, set-up time and memory the median. The traced
//! replay runs in further children (hidden `__replay` argument): once
//! untraced, as the baseline for the tracing overhead and the
//! one-process CPU, and once in the `ecnbench-traced` binary, which
//! counts allocations and writes its spans to
//! `target/ecnbench/<workload>.trace.json`.
//!
//! Every run's report digest, target count and trace count must agree
//! with the other runs of the invocation and the replays; a run that
//! disagrees, or exits non-zero, counts as failed. The last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the [`END_TO_END`] set, or [`PER_LAYER`] with `--trace`).

pub mod campaign;
pub mod ledger;
pub mod replay;
pub mod sys;
pub mod workload;

use campaign::CampaignLine;
use ledger::{Ledger, Tracer};
use replay::Replayed;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use sys::{children_cpu_s, Machine};
use workload::{Workload, WORKLOADS};

/// End-to-end metrics (name, unit), reported with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("campaign_s", "s"),
    ("obs_per_s", "obs/s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (name, unit), reported with `--trace`.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("pool.blueprint_build_s", "s"),
    ("pool.world_instantiate_s", "s"),
    ("pool.blueprint_rss_mib", "MiB"),
    ("pool.unit_instantiate_s", "s"),
    ("pool.unit_instantiate_ms_p50", "ms"),
    ("pool.unit_instantiate_ms_tail", "ms"),
    ("pool.allocs_per_unit", "allocs/unit"),
    ("discovery.s", "s"),
    ("discovery.queries", "count"),
    ("mp.request_mb", "MB"),
    ("mp.payload_mb_max", "MB"),
    ("mp.payload_encode_s", "s"),
    ("mp.payload_decode_s", "s"),
    ("mp.worker_setup_s", "s"),
    ("mp.partition_imbalance", "ratio"),
    ("mp.unassigned_cpu_s", "s"),
    ("probe.s", "s"),
    ("probe.us_per_obs", "us"),
    ("probe.trace_ms_p50", "ms"),
    ("probe.trace_ms_tail", "ms"),
    ("probe.allocs_per_obs", "allocs/obs"),
    ("probe.alloc_bytes_per_obs", "B/obs"),
    ("netsim.events_per_obs", "events/obs"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.delivered_per_obs", "pkts/obs"),
    ("netsim.dropped_per_obs", "pkts/obs"),
    ("netsim.ce_marked_per_obs", "pkts/obs"),
    ("traceroute.s", "s"),
    ("traceroute.paths", "count"),
    ("traceroute.events_per_path", "events/path"),
    ("reduce.observe_s", "s"),
    ("reduce.merge_s", "s"),
    ("reduce.aggregates_mb", "MB"),
    ("report.render_s", "s"),
    ("report.bytes", "B"),
    ("engine.unit_busy_ms_p50", "ms"),
    ("engine.unit_busy_ms_tail", "ms"),
    ("engine.parallel_efficiency", "ratio"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: ecnbench [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
workloads: paper2015 megapool-2p validator-aqm hostile-edge (default: all)";

const DEFAULT_SEED: u64 = 2015;
const DEFAULT_SECONDS: f64 = 25.0;
/// Fewest measured campaigns behind a value.
const MIN_RUNS: usize = 3;
/// Replays of each kind (untraced, traced) per traced invocation.
const REPLAYS: usize = 2;
const RUN_ARG: &str = "__run";
const REPLAY_ARG: &str = "__replay";

/// What a replay child prints: the replay's outcome, and the ledger when
/// it was traced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayLine {
    /// Digest and counts, to compare with the measured campaigns.
    pub replayed: Replayed,
    /// The per-layer ledger (traced replays only).
    pub ledger: Option<Ledger>,
}

/// Entry point of the `ecnbench` binary: engine worker, measured
/// campaign child, untraced replay child, or the measuring parent.
pub fn main() -> ExitCode {
    // engine worker processes re-invoke this binary
    if let Some(code) = ecn_core::maybe_worker() {
        return code;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(RUN_ARG) => child(&args[1..], |w, seed| {
            let spec = w.spec(seed);
            campaign::run(&spec, &w.engine(&spec)).map_err(|e| e.to_string())
        }),
        Some(REPLAY_ARG) => child(&args[1..], |w, seed| Ok(replay_line(w, seed, false))),
        _ => match Options::parse(&args) {
            Ok(opts) => parent(&opts),
            Err(e) => {
                eprintln!("ecnbench: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

/// Entry point of the `ecnbench-traced` binary, which serves only the
/// traced replay child.
pub fn traced_main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(REPLAY_ARG) => child(&args[1..], |w, seed| Ok(replay_line(w, seed, true))),
        _ => {
            eprintln!("ecnbench-traced: only `{REPLAY_ARG} <workload> <seed>` is served");
            ExitCode::from(2)
        }
    }
}

/// A child mode: parse `<workload> <seed>`, run `body`, print its line.
fn child<T: Serialize>(
    args: &[String],
    body: impl FnOnce(&'static Workload, u64) -> Result<T, String>,
) -> ExitCode {
    let parsed = match args {
        [name, seed] => Workload::by_name(name).zip(seed.parse().ok()),
        _ => None,
    };
    let Some((w, seed)) = parsed else {
        eprintln!("ecnbench: a child takes `<workload> <seed>`, got {args:?}");
        return ExitCode::from(2);
    };
    match body(w, seed).and_then(|line| serde_json::to_string(&line).map_err(|e| e.to_string())) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ecnbench: {} seed {seed}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// Replay workload `w`; when traced, also derive the ledger and write the
/// span file.
fn replay_line(w: &Workload, seed: u64, traced: bool) -> ReplayLine {
    let mut t = Tracer::new(traced);
    let replayed = replay::replay(&w.spec(seed), w.lanes(), &mut t);
    let ledger = traced.then(|| {
        let path = Path::new("target/ecnbench").join(format!("{}.trace.json", w.name));
        let spans = serde_json::to_string(t.spans()).expect("spans serialise");
        let doc = format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"clock\":\"ns since the replay started\",\"spans\":{spans}}}\n",
            w.name
        );
        if let Err(e) = std::fs::create_dir_all("target/ecnbench")
            .and_then(|()| std::fs::write(&path, doc))
        {
            eprintln!("ecnbench: cannot write {}: {e}", path.display());
        }
        t.ledger(w.lanes())
    });
    ReplayLine { replayed, ledger }
}

/// The measuring parent's options.
struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workloads: Vec::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    let w = Workload::by_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?;
                    o.workloads.push(w);
                }
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    o.seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                }
                // `--trace 0`, `--trace 1`, or a bare `--trace`
                "--trace" => {
                    o.trace = it
                        .next_if(|v| *v == "0" || *v == "1")
                        .is_none_or(|v| v == "1");
                }
                // appended by `cargo bench`
                "--bench" => {}
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        if o.workloads.is_empty() {
            o.workloads = WORKLOADS.iter().collect();
        }
        Ok(o)
    }
}

/// One child, timed from outside.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// Wall seconds from spawn to exit.
    pub wall_s: f64,
    /// CPU seconds of the child and the workers it reaped.
    pub cpu_s: f64,
    /// The line the child printed.
    pub line: T,
}

/// Spawn `exe args…`, wait for it, and parse the last line of its stdout.
fn spawn<T: serde::DeserializeOwned>(exe: &Path, args: &[&str]) -> Result<Timed<T>, String> {
    let mut cmd = Command::new(exe);
    cmd.args(args)
        // the measured program must not pick up a worker override or the
        // test-only fault-injection protocol from the caller
        .env_remove(ecn_core::WORKER_EXE_ENV)
        .env_remove("ECNUDP_FAULT")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let cpu0 = children_cpu_s();
    let t0 = Instant::now();
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = children_cpu_s() - cpu0;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let line = serde_json::from_str(last).map_err(|e| format!("child line {last:?}: {e:?}"))?;
    Ok(Timed {
        wall_s,
        cpu_s,
        line,
    })
}

fn parent(o: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("ecnbench: cannot locate this binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let machine = Machine::probe();
    let mut all_correct = true;
    for w in &o.workloads {
        all_correct &= measure(&exe, w, o, &machine);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Measure one workload, print its table and result line; true when
/// every run was correct.
fn measure(exe: &Path, w: &Workload, o: &Options, m: &Machine) -> bool {
    let seed = o.seed.to_string();
    let mut failures: Vec<String> = Vec::new();
    let mut runs: Vec<Timed<CampaignLine>> = Vec::new();
    let mut attempted = 0usize;
    let start = Instant::now();
    loop {
        attempted += 1;
        match spawn::<CampaignLine>(exe, &[RUN_ARG, w.name, &seed]) {
            Ok(run) => runs.push(run),
            Err(e) => failures.push(format!("run {attempted}: {e}")),
        }
        // stop when one more run of the average length would overrun
        let elapsed = start.elapsed().as_secs_f64();
        if attempted >= MIN_RUNS && elapsed * (attempted + 1) as f64 / attempted as f64 > o.seconds
        {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    if o.trace {
        let traced_exe = exe.with_file_name("ecnbench-traced");
        for _ in 0..REPLAYS {
            for (exe, label, out) in [
                (exe, "untraced", &mut plain),
                (traced_exe.as_path(), "traced", &mut traced),
            ] {
                attempted += 1;
                match spawn::<ReplayLine>(exe, &[REPLAY_ARG, w.name, &seed]) {
                    Ok(replay) => out.push(replay),
                    Err(e) => failures.push(format!("{label} replay: {e}")),
                }
            }
        }
    }

    // Correctness: every run and replay renders the same report bytes
    // over the same targets, with the workload's trace count.
    let reference = runs
        .first()
        .map(|r| (r.line.digest.clone(), r.line.targets));
    let agrees = |digest: &str, targets: usize, traces: usize| {
        traces == w.traces
            && reference
                .as_ref()
                .is_none_or(|(d, n)| digest == d && targets == *n)
    };
    runs.retain(|r| {
        let ok = agrees(&r.line.digest, r.line.targets, r.line.traces);
        if !ok {
            failures.push(format!(
                "run disagrees: digest {} targets {} traces {} (expected {reference:?}, {} traces)",
                r.line.digest, r.line.targets, r.line.traces, w.traces
            ));
        }
        ok
    });
    for replays in [&mut plain, &mut traced] {
        replays.retain(|t| {
            let r = &t.line.replayed;
            let ok = agrees(&r.digest, r.targets, r.traces);
            if !ok {
                failures.push(format!("replay disagrees: {r:?}"));
            }
            ok
        });
    }
    // the least disturbed replay of each kind, as for the measured runs
    let least_cpu =
        |v: &[Timed<ReplayLine>]| v.iter().min_by(|a, b| a.cpu_s.total_cmp(&b.cpu_s)).cloned();
    let replays = least_cpu(&plain).zip(least_cpu(&traced));

    println!(
        "ecnbench {}: seed {}, {} runs in {measured_s:.1} s, {} failed; nproc {}, cpu \"{}\", calibration {:.0} kops",
        w.name,
        o.seed,
        runs.len(),
        failures.len(),
        m.nproc,
        m.cpu_model,
        m.calibration_kops,
    );
    for f in &failures {
        println!("  FAILED {f}");
    }
    let mut metrics = Vec::new();
    if !runs.is_empty() {
        let e2e = end_to_end(&runs);
        for (name, unit) in END_TO_END {
            let stat = if BY_MEDIAN.contains(&name) {
                "median"
            } else {
                "best"
            };
            let note = format!("{stat} of {} runs", runs.len());
            println!("  {name:<32} {:>16.6} {unit:<12} {note}", e2e[name]);
            if !o.trace {
                metrics.push((name, e2e[name], unit));
            }
        }
        if let Some((plain, traced)) = &replays {
            let ledger = traced.line.ledger.clone().unwrap_or_default();
            for (name, v, unit, note) in per_layer(w, &runs, plain.cpu_s, traced.cpu_s, &ledger) {
                println!("  {name:<32} {v:>16.6} {unit:<12} {note}");
                metrics.push((name, v, unit));
            }
        }
    }
    let correct =
        failures.is_empty() && !metrics.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{}",
        result_line(correct, attempted, failures.len(), &metrics)
    );
    correct
}

/// End-to-end metrics summarised by the median of an invocation's runs;
/// the others take its best run.
const BY_MEDIAN: [&str; 2] = ["setup_s", "peak_rss_mib"];

/// The [`END_TO_END`] values over the measured runs of one invocation.
/// Interference from other tenants of a shared host only ever adds time,
/// so the times and the throughput take the best, least disturbed run:
/// across invocations it repeats about twice as closely as the median.
/// Set-up time and memory ([`BY_MEDIAN`]) take the median.
pub fn end_to_end(runs: &[Timed<CampaignLine>]) -> BTreeMap<&'static str, f64> {
    let each = |f: fn(&Timed<CampaignLine>) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let lowest = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    let highest = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    BTreeMap::from([
        ("campaign_s", lowest(each(|r| r.wall_s))),
        (
            "obs_per_s",
            highest(each(|r| {
                (r.line.traces * r.line.targets) as f64 / (r.wall_s - r.line.setup_s)
            })),
        ),
        ("setup_s", median(each(|r| r.line.setup_s))),
        ("cpu_s", lowest(each(|r| r.cpu_s))),
        (
            "peak_rss_mib",
            median(each(|r| r.line.peak_rss_kb as f64 / 1024.0)),
        ),
    ])
}

/// The [`PER_LAYER`] metrics as (name, value, unit, note): the traced
/// replay's ledger, plus three that need other measurements — the
/// measured runs, and the CPU of the least disturbed untraced and traced
/// replays.
pub fn per_layer(
    w: &Workload,
    runs: &[Timed<CampaignLine>],
    plain_cpu_s: f64,
    traced_cpu_s: f64,
    ledger: &Ledger,
) -> Vec<(&'static str, f64, &'static str, String)> {
    let l = |name: &str| ledger.layers.get(name).copied().unwrap_or(0.0);
    // what the workers repeat or add over a one-process run
    let worker_extra = if w.processes > 1 {
        w.processes as f64 * l("mp.worker_setup_s")
            + l("mp.payload_encode_s")
            + l("mp.payload_decode_s")
    } else {
        0.0
    };
    let lanes = w.lanes() as f64;
    let derived = |name: &str| match name {
        "mp.unassigned_cpu_s" => Some(end_to_end(runs)["cpu_s"] - plain_cpu_s - worker_extra),
        "engine.parallel_efficiency" => Some(median(
            runs.iter()
                .map(|r| r.line.unit_busy_s / (lanes * (r.wall_s - r.line.setup_s)))
                .collect(),
        )),
        "trace.overhead_pct" => {
            Some(((traced_cpu_s - ledger.side_work_s) / plain_cpu_s - 1.0) * 100.0)
        }
        _ => None,
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = derived(name)
                .or_else(|| ledger.layers.get(name).copied())
                .unwrap_or(f64::NAN);
            let note = match name {
                "engine.parallel_efficiency" => format!("median of {} runs", runs.len()),
                _ => ledger.notes.get(name).cloned().unwrap_or_default(),
            };
            (name, value, unit, note)
        })
        .collect()
}

/// The result line: one JSON object, numbers with all their digits.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
