//! Golden snapshots of `FullReport::render()`: the committed files under
//! `tests/golden/` pin the exact bytes of the default (trace-free,
//! aggregates-first) report for fixed seeds. Any change to the rendering
//! or to the measurement pipeline shows up as a unified diff.
//!
//! To bless an intentional change:
//!
//! ```text
//! ECNUDP_BLESS=1 cargo test --test golden_report
//! ```
//!
//! On failure the test also writes `<name>.actual.txt` and
//! `<name>.diff.txt` under `target/golden-diff/` so CI can upload the
//! divergence as an artifact. The comparison/bless/diff machinery is
//! shared with the scenario-preset goldens (`tests/util/golden.rs`).

#[path = "util/golden.rs"]
mod golden;

use ecnudp::core::{try_run_engine, CampaignConfig, EngineConfig, FullReport};
use ecnudp::pool::PoolPlan;
use golden::{check_golden, unified_diff};

fn render(seed: u64) -> String {
    let plan = PoolPlan::scaled(40);
    let cfg = CampaignConfig {
        discovery_rounds: 25,
        traces_per_vantage: Some(1),
        ..CampaignConfig::quick(seed)
    };
    let run = try_run_engine(&plan, &cfg, &EngineConfig::default()).expect("in-process campaign");
    assert!(run.result.traces.is_empty(), "golden runs are trace-free");
    FullReport::from_campaign(&run.result).render()
}

#[test]
fn full_report_matches_golden_seed2015() {
    check_golden("full_report_seed2015", &render(2015));
}

#[test]
fn full_report_matches_golden_seed2016() {
    check_golden("full_report_seed2016", &render(2016));
}

#[test]
fn unified_diff_marks_changed_lines() {
    let d = unified_diff("a\nb\nc\nd\ne\nf\ng\n", "a\nb\nc\nX\ne\nf\ng\n", "t");
    assert!(d.contains("--- golden/t.txt"), "{d}");
    assert!(d.contains("-d\n"), "{d}");
    assert!(d.contains("+X\n"), "{d}");
    assert!(d.contains("@@ -1,7 +1,7 @@"), "{d}");
    // unchanged far-away lines are not emitted twice
    let d2 = unified_diff(
        "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n13\n",
        "1\nX\n3\n4\n5\n6\n7\n8\n9\n10\n11\nY\n13\n",
        "t",
    );
    assert_eq!(d2.matches("@@").count(), 4, "two hunks: {d2}");
}
