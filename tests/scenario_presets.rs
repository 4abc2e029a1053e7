//! The scenario preset library, gated end to end:
//!
//! - `scenarios/paper2015.toml` must be *the* reference experiment: it
//!   parses to exactly `ScenarioSpec::paper2015()` and lowers to exactly
//!   the default campaign (`PoolPlan::paper()` +
//!   `CampaignConfig::default()` + `EngineConfig::default()`), so
//!   running it is byte-identical to the hard-wired reproduction.
//! - `scenarios/paper2015-mini.toml` must lower to the golden suite's
//!   test world (`PoolPlan::scaled(40)`, quick calendar): its rendered
//!   report — including through the real `ecnudp` CLI binary — must be
//!   byte-identical to `tests/golden/full_report_seed2015.txt`.
//! - every other preset has its own golden snapshot
//!   (`tests/golden/scenario_<name>.txt`), regenerated with
//!   `ECNUDP_BLESS=1 cargo test --test scenario_presets`. `paper2015`
//!   has one too, at full scale, which runs (and is blessed) only in
//!   release: `cargo test --release --test scenario_presets`.

#[path = "util/golden.rs"]
mod golden;

use ecnudp::core::{
    campaign_config, engine_config, try_run_engine, CampaignConfig, EngineConfig, FullReport,
};
use ecnudp::pool::{PoolPlan, ScenarioSpec};
use golden::{check_golden, golden_dir};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex, OnceLock};

fn scenario_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("scenarios/{name}.toml"))
}

fn load_preset(name: &str) -> ScenarioSpec {
    let text = std::fs::read_to_string(scenario_path(name))
        .unwrap_or_else(|e| panic!("read scenarios/{name}.toml: {e}"));
    ScenarioSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("parse scenarios/{name}: {e}"))
}

/// One preset campaign, run once per test process and shared by the
/// golden and phenomenon tests (the runs are deterministic, so caching
/// cannot change any assertion).
struct PresetRun {
    render: String,
    fig2a: f64,
    /// Plain-UDP reachability as a fraction of discovered targets
    /// (normalised so presets of different population sizes compare).
    plain_reach_frac: f64,
    strip_locations: usize,
    /// (true-failure, false-failure, missed-bleacher) rates of the
    /// validation confusion matrix; `None` when the pass was off.
    validation_rates: Option<(f64, f64, f64)>,
}

fn preset_run(name: &str) -> Arc<PresetRun> {
    // Per-preset once-cells: the map lock is only held to fetch the
    // cell, while `get_or_init` serialises concurrent tests wanting the
    // *same* preset (one campaign each, ever) without blocking runs of
    // different presets.
    type Cell = Arc<OnceLock<Arc<PresetRun>>>;
    static CACHE: OnceLock<Mutex<HashMap<String, Cell>>> = OnceLock::new();
    let cell: Cell = CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_default()
        .clone();
    cell.get_or_init(|| {
        let spec = load_preset(name);
        let run = try_run_engine(&spec.plan(), &campaign_config(&spec), &engine_config(&spec))
            .expect("in-process campaign");
        assert!(
            run.result.traces.is_empty() && run.result.routes.is_empty(),
            "preset runs are raw-record-free (streamed aggregates only)"
        );
        let report = FullReport::from_campaign(&run.result);
        Arc::new(PresetRun {
            render: report.render(),
            fig2a: report.figure2.avg_a,
            plain_reach_frac: report.figure2.avg_plain_reachable
                / run.result.targets.len().max(1) as f64,
            strip_locations: report.figure4.strip_locations,
            validation_rates: report.validation.as_ref().map(|v| {
                (
                    v.true_failure_rate(),
                    v.false_failure_rate(),
                    v.missed_bleacher_rate(),
                )
            }),
        })
    })
    .clone()
}

#[test]
fn paper2015_preset_is_the_run_campaign_default() {
    let spec = load_preset("paper2015");
    assert_eq!(
        spec,
        ScenarioSpec::paper2015(),
        "scenarios/paper2015.toml must spell out exactly the built-in reference"
    );
    // the acceptance triple: running this preset is the default campaign
    // — same plan, same campaign calendar, same engine config —
    // so the renders are byte-identical by construction (the mini-scale
    // CLI test below executes that identity end to end at test scale)
    assert_eq!(spec.plan(), PoolPlan::paper());
    assert_eq!(campaign_config(&spec), CampaignConfig::default());
    assert_eq!(engine_config(&spec), EngineConfig::default());
}

#[test]
fn paper2015_mini_lowers_to_the_golden_test_world() {
    let spec = load_preset("paper2015-mini");
    assert_eq!(
        spec.plan(),
        PoolPlan::scaled(40),
        "the mini preset must reproduce the golden suite's world plan"
    );
    let cfg = campaign_config(&spec);
    assert_eq!(
        cfg,
        CampaignConfig {
            discovery_rounds: 25,
            traces_per_vantage: Some(1),
            ..CampaignConfig::quick(2015)
        },
        "…and the golden suite's campaign calendar"
    );
}

#[test]
fn paper2015_mini_renders_the_preexisting_golden_bytes() {
    // The strongest gate in this suite: the spec path (TOML file → parser
    // → lowering → engine) renders the exact bytes the pre-spec pipeline
    // pinned in tests/golden/full_report_seed2015.txt.
    let report = &preset_run("paper2015-mini").render;
    let golden = std::fs::read_to_string(golden_dir().join("full_report_seed2015.txt"))
        .expect("the PR-3 golden exists");
    assert_eq!(
        *report, golden,
        "spec-driven world diverged from the hard-wired one"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full scale: runs in release")]
fn paper2015_matches_golden() {
    // The only golden on the paper's own calendar
    // (`CampaignConfig::default()`: 75 days, 700 discovery rounds); every
    // other one runs the quick profile, so a change to the default
    // calendar shows only here.
    check_golden("scenario_paper2015", &preset_run("paper2015").render);
}

#[test]
fn bleacher_heavy_matches_golden() {
    check_golden(
        "scenario_bleacher_heavy",
        &preset_run("bleacher-heavy").render,
    );
}

#[test]
fn ecn_blackhole_matches_golden() {
    check_golden(
        "scenario_ecn_blackhole",
        &preset_run("ecn-blackhole").render,
    );
}

#[test]
fn lossy_edge_matches_golden() {
    check_golden("scenario_lossy_edge", &preset_run("lossy-edge").render);
}

#[test]
fn l4s_aqm_matches_golden() {
    check_golden("scenario_l4s_aqm", &preset_run("l4s-aqm").render);
}

#[test]
fn validator_vs_bleachers_matches_golden() {
    check_golden(
        "scenario_validator_vs_bleachers",
        &preset_run("validator-vs-bleachers").render,
    );
}

#[test]
fn ce_suppressor_matches_golden() {
    check_golden(
        "scenario_ce_suppressor",
        &preset_run("ce-suppressor").render,
    );
}

#[test]
fn modern_ecn_presets_show_their_designed_phenomena() {
    // the 2015 presets never run the validation pass…
    assert!(preset_run("paper2015-mini").validation_rates.is_none());

    // …the AQM world validates everywhere: congestion marks are benign
    let (l4s_true, l4s_false, _) = preset_run("l4s-aqm")
        .validation_rates
        .expect("l4s-aqm runs the validator");
    assert!(
        l4s_true.is_nan(),
        "l4s-aqm plants no bleachers, so the true-failure rate is n/a"
    );
    assert!(
        l4s_false < 0.01,
        "AQM CE marks must never fail validation on a capable path — only \
         the rare loss/flap black-hole may register (got {l4s_false})"
    );

    // …and bleached paths are caught without collateral damage
    let (true_rate, false_rate, missed) = preset_run("validator-vs-bleachers")
        .validation_rates
        .expect("validator-vs-bleachers runs the validator");
    assert!(
        true_rate > 0.5,
        "always-bleached paths must fail validation (got {true_rate})"
    );
    assert!(
        false_rate < 0.01,
        "clean and AQM paths must keep validating (got {false_rate})"
    );
    assert_eq!(
        missed, 0.0,
        "no bleached path may validate as capable (missed {missed})"
    );

    // …while CE suppression — invisible to the 2015 probes — trips the
    // canary
    let ce = preset_run("ce-suppressor");
    assert!(
        ce.render.contains("ce-suppressor"),
        "the confusion matrix must carry a ce-suppressor row"
    );
}

#[test]
fn presets_show_their_designed_phenomena() {
    // Coarse structural deltas vs the mini reference (exact bytes are
    // pinned by the goldens; this documents *why* each preset exists).
    let base = preset_run("paper2015-mini");
    let bleach = preset_run("bleacher-heavy");
    let blackhole = preset_run("ecn-blackhole");
    let lossy = preset_run("lossy-edge");

    assert!(
        bleach.strip_locations > base.strip_locations,
        "bleacher-heavy plants more observable strip locations \
         ({} vs {})",
        bleach.strip_locations,
        base.strip_locations
    );
    assert!(
        blackhole.fig2a < base.fig2a - 5.0,
        "ecn-blackhole collapses ECT reachability ({} vs {})",
        blackhole.fig2a,
        base.fig2a
    );
    assert!(
        lossy.plain_reach_frac < base.plain_reach_frac - 0.01,
        "lossy-edge degrades plain reachability ({:.3} vs {:.3} of targets)",
        lossy.plain_reach_frac,
        base.plain_reach_frac
    );
}

// ------------------------------------------------------------------ CLI

fn ecnudp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ecnudp"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn ecnudp")
}

#[test]
fn cli_run_renders_byte_identical_to_the_golden() {
    // the full product path: binary → file loader → spec → engine →
    // stdout, with a pinned shard count to prove --shards cannot leak
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--shards",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read_to_string(golden_dir().join("full_report_seed2015.txt"))
        .expect("the PR-3 golden exists");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "CLI stdout must be exactly FullReport::render()"
    );
}

#[test]
fn cli_json_validate_and_errors() {
    // --json on a tiny throwaway spec (fast): summary fields present
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scenarios");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let tiny = dir.join("tiny.json");
    std::fs::write(
        &tiny,
        r#"{
            "name": "tiny",
            "seed": 5,
            "traceroute": false,
            "population": {"servers": 16},
            "topology": {"t1_count": 2, "t2_count": 2},
            "middleboxes": {"ect_droppers_per_1000": 63},
            "schedule": {"profile": "quick", "traces_per_vantage": 1,
                         "discovery_rounds": 8}
        }"#,
    )
    .expect("write tiny spec");
    let out = ecnudp(&["run", "--scenario", tiny.to_str().unwrap(), "--json"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"scenario\":\"tiny\"",
        "\"seed\":5",
        "\"targets\":",
        "\"fig2a_pct\":",
        "\"traceroute_paths\":0",
    ] {
        assert!(json.contains(needle), "missing {needle} in {json}");
    }

    // validate: no campaign run, still summarises the lowering
    let out = ecnudp(&["validate", "--scenario", "scenarios/ecn-blackhole.toml"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ecn-blackhole"), "{text}");
    assert!(text.contains("8 ECT-droppers"), "{text}");
    assert!(text.contains("ok"), "{text}");

    // a typo'd key is a named error, not a silent default
    let broken = dir.join("broken.toml");
    std::fs::write(&broken, "[population]\nwebb_fraction = 0.5\n").expect("write");
    let out = ecnudp(&["validate", "--scenario", broken.to_str().unwrap()]);
    assert!(!out.status.success(), "typo must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("population.webb_fraction"), "{err}");

    // usage errors exit 2
    let out = ecnudp(&["run", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_rejects_a_population_or_chunk_count_no_run_can_build() {
    // validate and run share one check: a population past the address
    // plan, more target chunks than servers (1.3e12 unit indices at
    // 13 vantages), or discovery rounds past the bound (u64::MAX rounds
    // never finish) is a named spec error (exit 1), never a panic, an
    // allocation abort or a hang in the run
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scenarios");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let specs = [
        (
            "huge-population.toml",
            "[population]\nservers = 18446744073709551615\n",
            "population.servers",
        ),
        (
            "huge-chunk-count.toml",
            "[population]\nservers = 40\n[schedule]\ntarget_chunks = 100000000000\n",
            "schedule.target_chunks",
        ),
        (
            "endless-discovery.toml",
            "[population]\nservers = 40\n[schedule]\ndiscovery_rounds = 18446744073709551615\n",
            "schedule.discovery_rounds",
        ),
    ];
    for (file, text, key) in specs {
        let path = dir.join(file);
        std::fs::write(&path, text).expect("write");
        for cmd in ["validate", "run"] {
            let out = ecnudp(&[cmd, "--scenario", path.to_str().unwrap()]);
            assert_eq!(out.status.code(), Some(1), "{cmd} {file} must exit 1");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains(key), "{cmd} {file}: {err}");
        }
    }
}
