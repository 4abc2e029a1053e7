//! The observation gates: what a run observes must not perturb it, and
//! its exports must be deterministic.
//!
//! - **Invisibility**: a run that samples traces and meters progress
//!   (`EngineConfig::{sample_traces, progress}`) renders byte-for-byte
//!   the same `FullReport` as the unobserved engine, for every shard
//!   count and unit order (the probe loop's allocations are budgeted in
//!   `crates/bench/tests/alloc_regression.rs`).
//! - **Stream determinism**: the JSON-lines metrics stream `write_metrics`
//!   renders from a finished run is byte-identical for any shard count
//!   once the summary's `wall_ms` — its only wall-clock field — is
//!   normalized away (and for any process count, apart from the
//!   supervision lines: `tests/cli_flags.rs`).
//! - **Sampler equivalence** (property): `EngineConfig::sample_traces` at
//!   rate 1-in-N returns in `CampaignResult::traces` *exactly* the
//!   hash-selected subset of the records the naive one-unit-at-a-time
//!   reference campaign keeps (`crates/core/tests/util/naive.rs`),
//!   byte-equal and shard-invariant.
//! - **Golden**: the `paper2015-mini` metrics stream is pinned under
//!   `tests/golden/` (regenerate with `ECNUDP_BLESS=1`).
//! - **CLI**: an unwritable `--metrics` path fails fast — before the
//!   campaign runs — naming the path; `validate` probes writability
//!   non-destructively.

#[path = "util/golden.rs"]
mod golden;
#[path = "../crates/core/tests/util/naive.rs"]
mod naive;

use ecnudp::core::events::selects;
use ecnudp::core::{
    campaign_config, engine_config, try_run_engine, write_metrics, CampaignConfig, EngineConfig,
    EngineRun, FullReport, TraceRecord, UnitOrder,
};
use ecnudp::pool::{PoolPlan, ScenarioSpec};
use golden::check_golden;
use naive::naive_campaign;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// The golden suite's mini world: `PoolPlan::scaled(40)` under the quick
/// calendar (same shape as `tests/determinism.rs`).
fn mini_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        discovery_rounds: 25,
        traces_per_vantage: Some(1),
        ..CampaignConfig::quick(seed)
    }
}

fn baseline_report() -> &'static String {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let run = try_run_engine(
            &PoolPlan::scaled(40),
            &mini_cfg(2015),
            &EngineConfig::with_shards(1),
        )
        .expect("in-process campaign");
        FullReport::from_campaign(&run.result).render()
    })
}

/// Truncate the `wall_ms` value — the stream's only wall-clock field — so
/// streams from different runs can be compared byte-for-byte.
fn normalize_wall_ms(stream: &str) -> String {
    stream
        .lines()
        .map(|line| match line.find("\"wall_ms\":") {
            Some(pos) => format!("{}\"wall_ms\":0}}", &line[..pos]),
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// The metrics stream `write_metrics` renders from `run`, as a string.
fn metrics_stream(scenario: &str, seed: u64, run: &EngineRun) -> String {
    let mut out = Vec::new();
    write_metrics(&mut out, scenario, seed, run).expect("write to a Vec");
    String::from_utf8(out).unwrap()
}

// ------------------------------------------------------------ invisibility

#[test]
fn observed_runs_render_the_exact_unobserved_report() {
    let baseline = baseline_report();
    let plan = PoolPlan::scaled(40);
    let cfg = mini_cfg(2015);
    let shapes = [
        (1usize, UnitOrder::default()),
        (4, UnitOrder::default()),
        (13, UnitOrder::default()),
        (32, UnitOrder::default()),
        (4, UnitOrder::Reversed),
        (4, UnitOrder::Shuffled(7)),
    ];
    for (shards, unit_order) in shapes {
        let eng = EngineConfig {
            shards: Some(shards),
            unit_order,
            sample_traces: 2,
            progress: true,
            ..EngineConfig::default()
        };
        let run = try_run_engine(&plan, &cfg, &eng).expect("campaign");
        assert!(!run.result.traces.is_empty(), "the sample is kept");
        assert_eq!(
            *baseline,
            FullReport::from_campaign(&run.result).render(),
            "observation leaked into the result \
             (shards={shards}, order={unit_order:?})"
        );
    }
}

#[test]
fn metrics_stream_is_byte_identical_for_any_shard_count() {
    let plan = PoolPlan::scaled(40);
    let cfg = mini_cfg(2015);
    let mut streams: Vec<String> = Vec::new();
    for shards in [1usize, 4, 13] {
        let run = try_run_engine(
            &plan,
            &cfg,
            &EngineConfig {
                shards: Some(shards),
                ..EngineConfig::default()
            },
        )
        .expect("campaign");
        assert_eq!(
            *baseline_report(),
            FullReport::from_campaign(&run.result).render(),
            "the report moved with the shard count (shards={shards})"
        );
        streams.push(normalize_wall_ms(&metrics_stream("mini", 2015, &run)));
    }
    assert_eq!(streams[0], streams[1], "shards=1 vs shards=4");
    assert_eq!(streams[0], streams[2], "shards=1 vs shards=13");
    // and the stream has the documented shape
    let lines: Vec<&str> = streams[0].lines().collect();
    assert!(lines[0].starts_with("{\"type\":\"campaign\",\"scenario\":\"mini\",\"seed\":2015"));
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"type\":\"unit\""))
            .count(),
        13,
        "one unit line per (vantage, chunk)"
    );
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"type\":\"snapshot\""))
            .count(),
        1,
        "a cumulative snapshot every 10 of 13 units"
    );
    assert!(lines.last().unwrap().starts_with("{\"type\":\"summary\""));
}

// ------------------------------------------------------- sampler property

/// The sampler property runs in a smaller, traceroute-free world with two
/// traces per vantage and chunked target lists, so chunk-partial
/// stitching is actually exercised.
fn sampler_cfg() -> CampaignConfig {
    CampaignConfig {
        discovery_rounds: 20,
        traces_per_vantage: Some(2),
        run_traceroute: false,
        ..CampaignConfig::quick(2015)
    }
}

fn sampler_eng(shards: usize, order_seed: u64) -> EngineConfig {
    EngineConfig {
        shards: Some(shards),
        target_chunks: 2,
        unit_order: UnitOrder::Shuffled(order_seed),
        ..EngineConfig::default()
    }
}

/// The naive reference campaign's records (same chunking as
/// [`sampler_eng`]) — computed once.
fn kept_baseline() -> &'static Vec<TraceRecord> {
    static BASELINE: OnceLock<Vec<TraceRecord>> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let chunks = sampler_eng(1, 0).target_chunks;
        let naive = naive_campaign(&PoolPlan::scaled(24), &sampler_cfg(), chunks);
        assert!(!naive.traces.is_empty());
        naive.traces
    })
}

/// Recompute each kept record's per-vantage `trace_index`: the
/// reference's stable sort preserves schedule order within a vantage, so
/// the index is the record's position among its vantage's records.
fn expected_sample(every: usize) -> Vec<String> {
    let mut seen: HashMap<&str, usize> = HashMap::new();
    kept_baseline()
        .iter()
        .filter_map(|rec| {
            let idx = seen.entry(rec.vantage_key.as_str()).or_insert(0);
            let trace_index = *idx;
            *idx += 1;
            selects(every, &rec.vantage_key, trace_index)
                .then(|| serde_json::to_string(rec).unwrap())
        })
        .collect()
}

/// Each case runs one observed campaign against the cached baseline:
/// 3 cases by default keeps `cargo test -q` inside the CI budget, while
/// the deep-properties job's `PROPTEST_CASES=256` widens the
/// (every, shards, order) sweep to 32 campaigns.
fn sampler_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|n| (n / 8).max(3))
        .unwrap_or(3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(sampler_cases()))]
    #[test]
    fn sampler_keeps_exactly_the_hash_selected_subset(
        every in 1usize..=9,
        shards in 1usize..=5,
        order_seed in 0u64..1_000,
    ) {
        let eng = EngineConfig {
            sample_traces: every,
            ..sampler_eng(shards, order_seed)
        };
        let run = try_run_engine(&PoolPlan::scaled(24), &sampler_cfg(), &eng).expect("campaign");
        let got: Vec<String> = run
            .result
            .traces
            .iter()
            .map(|rec| serde_json::to_string(rec).unwrap())
            .collect();
        prop_assert_eq!(
            got,
            expected_sample(every),
            "1-in-{} sample diverged from the reference subset \
             (shards={}, order={})",
            every, shards, order_seed
        );
    }
}

#[test]
fn sampler_at_rate_one_is_keeping_traces() {
    // the degenerate case, pinned outside proptest: 1-in-1 sampling IS
    // the full reference record set, bytes and order
    let eng = EngineConfig {
        sample_traces: 1,
        ..sampler_eng(3, 42)
    };
    let run = try_run_engine(&PoolPlan::scaled(24), &sampler_cfg(), &eng).expect("campaign");
    let got: Vec<String> = run
        .result
        .traces
        .iter()
        .map(|rec| serde_json::to_string(rec).unwrap())
        .collect();
    assert_eq!(got, expected_sample(1));
    assert_eq!(got.len(), kept_baseline().len());
}

// ------------------------------------------------------------------ golden

#[test]
fn paper2015_mini_metrics_stream_matches_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/paper2015-mini.toml");
    let spec = ScenarioSpec::from_toml_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let eng = EngineConfig {
        shards: Some(3),
        ..engine_config(&spec)
    };
    let run = try_run_engine(&spec.plan(), &campaign_config(&spec), &eng).expect("run");
    let raw = metrics_stream(&spec.name, spec.seed, &run);
    check_golden("metrics_paper2015_mini", &normalize_wall_ms(&raw));
}

// --------------------------------------------------------------------- CLI

fn ecnudp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ecnudp"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn ecnudp")
}

#[test]
fn cli_unwritable_metrics_path_fails_before_the_campaign() {
    let bogus = "target/no-such-dir/metrics.jsonl";
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--metrics",
        bogus,
    ]);
    assert_eq!(out.status.code(), Some(1), "command errors exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(bogus), "error must name the path: {err}");
    assert!(
        !err.contains("campaign done"),
        "must fail before the campaign runs: {err}"
    );

    // validate probes the same path without running anything
    let out = ecnudp(&[
        "validate",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--metrics",
        bogus,
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains(bogus),
        "validate error must name the path"
    );

    // --sample-traces without a metrics sink is an error, not a no-op
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--sample-traces",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--metrics"),
        "error must point at the missing flag"
    );
}

#[test]
fn cli_validate_probe_is_nondestructive() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-metrics");
    std::fs::create_dir_all(&dir).unwrap();

    // a path the probe creates must not be left behind
    let fresh = dir.join("fresh.jsonl");
    let _ = std::fs::remove_file(&fresh);
    let out = ecnudp(&[
        "validate",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--metrics",
        fresh.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("writable"),
        "validate reports the metrics sink"
    );
    assert!(!fresh.exists(), "probe must remove the file it created");

    // an existing file's contents survive the probe untouched
    let existing = dir.join("existing.jsonl");
    std::fs::write(&existing, "precious bytes\n").unwrap();
    let out = ecnudp(&[
        "validate",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--metrics",
        existing.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read_to_string(&existing).unwrap(),
        "precious bytes\n",
        "probe must not clobber an existing file"
    );
}

#[test]
fn cli_metrics_file_carries_the_stream_and_sampled_traces() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("run.jsonl");
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--shards",
        "2",
        "--metrics",
        metrics.to_str().unwrap(),
        "--sample-traces",
        "1",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stream = std::fs::read_to_string(&metrics).unwrap();
    let lines: Vec<&str> = stream.lines().collect();
    assert!(
        lines[0].starts_with("{\"type\":\"campaign\",\"scenario\":\"paper2015-mini\""),
        "{}",
        lines[0]
    );
    let units = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"unit\""))
        .count();
    let traces = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"trace\",\"record\":"))
        .count();
    assert_eq!(units, 13);
    assert_eq!(
        traces, 13,
        "1-in-1 sampling appends every logical trace record"
    );
    // sampled records land *after* the summary line (appended post-finish)
    let summary_at = lines
        .iter()
        .position(|l| l.starts_with("{\"type\":\"summary\""))
        .expect("summary line");
    let first_trace = lines
        .iter()
        .position(|l| l.starts_with("{\"type\":\"trace\""))
        .expect("trace line");
    assert!(summary_at < first_trace);
}
