//! Differential suite: the engine's streamed-aggregate report must render
//! **byte-identically** to a naive reference (`util/naive.rs`) that runs
//! the campaign one unit at a time, keeps every raw record, and derives
//! each artefact by walking them. The reference shares no shard pool,
//! work stealing, merge tree or event stream with the engine, so any
//! divergence — a chunk double-count, a merge that isn't commutative, a
//! ratio computed in a different order — shows up here as a unified
//! report diff, for random seeds, shard counts, work-stealing orders,
//! target chunkings, traceroute on/off, and the validation pass over
//! CE-marking AQM worlds.

#[path = "util/naive.rs"]
mod naive;

use ecn_core::{try_run_engine, CampaignConfig, EngineConfig, FullReport, UnitOrder};
use ecn_pool::PoolPlan;
use naive::{naive_campaign, naive_report};
use proptest::prelude::*;

fn mini_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        discovery_rounds: 20,
        traces_per_vantage: Some(1),
        ..CampaignConfig::quick(seed)
    }
}

/// Campaign-pair cases are expensive; run PROPTEST_CASES/16 of them
/// (≥ 2), so the default CI budget stays intact while the deep-property
/// job (PROPTEST_CASES=256) widens the sweep.
fn cases() -> u32 {
    let base: u32 = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    (base / 16).max(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]
    #[test]
    fn aggregate_report_renders_byte_identically_to_trace_walk(
        seed in 1u64..10_000,
        shards in 1usize..9,
        target_chunks in 1usize..4,
        order_seed in 0u64..1_000,
        with_traceroute in proptest::arbitrary::any::<bool>(),
        validation_packets in prop_oneof![Just(0u32), Just(10u32)],
        with_aqm in proptest::arbitrary::any::<bool>(),
    ) {
        // the AQM world of `aqm_marking_and_validation_invariant_under_sharding`
        // (24 servers leave too few candidate ASes for its three boxes)
        let plan = if with_aqm {
            PoolPlan {
                aqm_red: 1,
                aqm_codel: 1,
                ce_suppress: 1,
                ..PoolPlan::scaled(30)
            }
        } else {
            PoolPlan::scaled(24)
        };
        let mut cfg = CampaignConfig {
            run_traceroute: with_traceroute,
            ..mini_cfg(seed)
        };
        cfg.validation.packets = validation_packets;
        let run = try_run_engine(
            &plan,
            &cfg,
            &EngineConfig {
                shards: Some(shards),
                target_chunks,
                unit_order: UnitOrder::Shuffled(order_seed),
                ..EngineConfig::default()
            },
        )
        .expect("in-process campaign");
        let naive = naive_campaign(&plan, &cfg, target_chunks);
        let axes = format!(
            "seed {seed} shards {shards} chunks {target_chunks} order {order_seed} \
             traceroute {with_traceroute} validation {validation_packets} aqm {with_aqm}"
        );
        prop_assert_eq!(
            naive_report(&naive).render(),
            FullReport::from_aggregates(&run.result).render(),
            "{}",
            axes
        );
        prop_assert_eq!(&naive.aggregates, &run.result.aggregates, "{}", axes);
    }
}

/// The same differential, pinned: the engine's raw-record-free run must
/// render exactly what the naive walk derives from every raw record of
/// the same campaign — the aggregates lose no report-relevant
/// information.
#[test]
fn reducer_only_run_renders_what_the_trace_walk_would() {
    let plan = PoolPlan::scaled(30);
    let cfg = mini_cfg(2015);
    let lean = try_run_engine(&plan, &cfg, &EngineConfig::with_shards(4)).expect("campaign");
    assert!(lean.result.traces.is_empty() && lean.result.routes.is_empty());
    let naive = naive_campaign(&plan, &cfg, 1);
    assert_eq!(naive.traces.len(), 13);
    assert_eq!(naive.routes.len(), 13);
    assert_eq!(
        FullReport::from_aggregates(&lean.result).render(),
        naive_report(&naive).render(),
    );
}

/// Chunked campaigns re-assemble per-trace bars from partial records; the
/// bar counts must match the logical schedule, not the partial count.
#[test]
fn chunked_bars_are_per_logical_trace() {
    let plan = PoolPlan::scaled(24);
    let cfg = CampaignConfig {
        run_traceroute: false,
        ..mini_cfg(99)
    };
    let chunked = try_run_engine(
        &plan,
        &cfg,
        &EngineConfig {
            shards: Some(3),
            target_chunks: 3,
            ..EngineConfig::default()
        },
    )
    .expect("campaign");
    let naive = naive_campaign(&plan, &cfg, 3);
    let report = FullReport::from_aggregates(&chunked.result);
    assert_eq!(
        report.figure2.bars.len(),
        naive.traces.len(),
        "one Figure 2 bar per stitched logical trace"
    );
    assert_eq!(
        naive_report(&naive).render(),
        report.render(),
        "chunked render differential"
    );
}
