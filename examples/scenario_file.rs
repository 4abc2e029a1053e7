//! Load a declarative scenario file and run it — the programmatic
//! equivalent of `ecnudp run --scenario <file>`.
//!
//! ```text
//! cargo run --release --example scenario_file                          # paper2015-mini
//! cargo run --release --example scenario_file -- scenarios/lossy-edge.toml
//! ```
//!
//! Demonstrates the three-step spec pipeline: parse (lenient on absence,
//! strict on presence), lower (`ScenarioSpec` → `PoolPlan` +
//! `CampaignConfig` + `EngineConfig`), run (sharded engine, streamed
//! aggregates).

use ecnudp::core::{campaign_config, engine_config, try_run_engine, FullReport, RunSummary};
use ecnudp::pool::ScenarioSpec;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "scenarios/paper2015-mini.toml".into());

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let spec = ScenarioSpec::from_toml_str(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });

    let plan = spec.plan();
    eprintln!(
        "running `{}`: {} servers / ~{} ASes / {} vantages (seed {})",
        spec.name,
        plan.servers,
        plan.total_as_count(),
        plan.vantage_count,
        spec.seed
    );
    let run =
        try_run_engine(&plan, &campaign_config(&spec), &engine_config(&spec)).unwrap_or_else(|e| {
            eprintln!("{path}: campaign failed: {e}");
            std::process::exit(3);
        });
    let report = FullReport::from_campaign(&run.result);
    print!("{}", report.render());

    let summary = RunSummary::new(&spec, &run, &report);
    eprintln!(
        "done in {:.1}s: {} targets, {} traces, fig2a {:.2}%, \
         {} strip locations",
        summary.wall_ms / 1e3,
        summary.targets,
        summary.traces,
        summary.fig2a_pct,
        summary.survey_strip_locations,
    );
}
