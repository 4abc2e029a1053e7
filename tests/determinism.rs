//! Determinism regressions: the entire pipeline — blueprint construction,
//! world instantiation, discovery, probing, traceroute, analysis, report
//! rendering — must be a pure function of (plan, config, seed), and of
//! *nothing else*. In particular the engine's shard count and its
//! work-stealing schedule are pure concurrency knobs: `FullReport::render`
//! must be byte-identical across `shards = 1, 4, 13, 32` (sharding
//! invariance, not just same-seed stability).
//!
//! Every engine render below comes from the streamed aggregates (the
//! engine keeps no raw records); the last two tests pin it to the naive
//! one-unit-at-a-time reference, which walks every raw record.

#[path = "../crates/core/tests/util/naive.rs"]
mod naive;

use ecnudp::core::{try_run_engine, CampaignConfig, EngineConfig, FullReport, UnitOrder};
use ecnudp::netsim::Nanos;
use ecnudp::pool::PoolPlan;
use naive::{naive_campaign, naive_report};
use std::sync::OnceLock;

fn mini_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        discovery_rounds: 25,
        traces_per_vantage: Some(1),
        ..CampaignConfig::quick(seed)
    }
}

fn rendered_with(seed: u64, eng: &EngineConfig) -> String {
    let plan = PoolPlan::scaled(40);
    let run = try_run_engine(&plan, &mini_cfg(seed), eng).expect("in-process campaign");
    assert!(
        run.result.traces.is_empty(),
        "the engine retains no raw records"
    );
    FullReport::from_campaign(&run.result).render()
}

/// The shards=1 baseline for seed 2015, computed once and shared by both
/// tests below.
fn baseline_2015() -> &'static String {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| rendered_with(2015, &EngineConfig::with_shards(1)))
}

#[test]
fn same_seed_same_report_different_seed_different_report() {
    let first = baseline_2015();
    let second = rendered_with(2015, &EngineConfig::with_shards(1));
    assert_eq!(
        *first, second,
        "same seed must render a byte-identical report"
    );

    let other = rendered_with(2016, &EngineConfig::with_shards(1));
    assert_ne!(
        *first, other,
        "a different seed must change the measured world"
    );
}

#[test]
fn report_is_byte_identical_across_shard_counts() {
    // the whole sweep runs without raw traces: reducer merges alone must
    // carry the byte-identical contract
    let sequential = baseline_2015();
    for shards in [4usize, 13, 32] {
        let sharded = rendered_with(2015, &EngineConfig::with_shards(shards));
        assert_eq!(
            *sequential, sharded,
            "shards={shards} must render the exact sequential report"
        );
    }
    // and the work-stealing schedule must not matter either
    for unit_order in [
        UnitOrder::Reversed,
        UnitOrder::Shuffled(7),
        UnitOrder::Shuffled(7777),
    ] {
        let permuted = rendered_with(
            2015,
            &EngineConfig {
                shards: Some(4),
                unit_order,
                ..EngineConfig::default()
            },
        );
        assert_eq!(
            *sequential, permuted,
            "unit scheduling order leaks ({unit_order:?})"
        );
    }
}

#[test]
fn trace_free_report_matches_trace_derived_report() {
    // the engine's aggregates must render exactly what the naive walk
    // derives from the raw records of the same campaign
    let naive = naive_campaign(&PoolPlan::scaled(40), &mini_cfg(2015), 1);
    assert!(!naive.traces.is_empty());
    let trace_derived = naive_report(&naive).render();
    assert_eq!(
        *baseline_2015(),
        trace_derived,
        "aggregates-first and trace-walk derivations diverge"
    );
}

#[test]
fn paper_calendar_report_matches_the_naive_walk_at_any_shard_count_and_unit_order() {
    // The quick calendar ends after ~3 flips per flapping server, so only
    // the paper calendar (batch 2 at day 75, last trace near day 113, ~2 700
    // flips) makes the engine's unit worlds share flap marks. The naive
    // walk stamps every unit from a blueprint of its own and shares none.
    let cfg = CampaignConfig {
        traces_per_vantage: Some(2),
        discovery_rounds: 25,
        ..CampaignConfig::default()
    };
    let paper = PoolPlan::scaled(40);
    // The pool's servers are down 0.6% of the time, so a mark that
    // restores a wrong but plausible chain rarely moves a 40-server
    // report; servers down a third of the time (~10 800 flips by day 113)
    // show any wrong restore.
    let fast = PoolPlan {
        flap_mean_up: Nanos::from_secs(20 * 60),
        flap_mean_down: Nanos::from_secs(10 * 60),
        ..PoolPlan::scaled(40)
    };
    for plan in [paper, fast] {
        let naive = naive_report(&naive_campaign(&plan, &cfg, 1)).render();
        let engines = [1usize, 4, 13]
            .map(EngineConfig::with_shards)
            .into_iter()
            .chain(
                [UnitOrder::Reversed, UnitOrder::Shuffled(7)].map(|unit_order| EngineConfig {
                    shards: Some(4),
                    unit_order,
                    ..EngineConfig::default()
                }),
            );
        for eng in engines {
            let run = try_run_engine(&plan, &cfg, &eng).expect("in-process campaign");
            assert_eq!(
                FullReport::from_campaign(&run.result).render(),
                naive,
                "the engine ({eng:?}) diverges from the naive walk on the paper calendar \
                 (flaps {:?} up, {:?} down)",
                plan.flap_mean_up,
                plan.flap_mean_down
            );
        }
    }
}
