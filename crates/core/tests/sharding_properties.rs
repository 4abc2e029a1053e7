//! Property tests of the sharded engine: for arbitrary seeds, shard
//! counts and work-stealing schedules, the aggregate Table 2 counts
//! (per-vantage ECT-marked reachability) — and every other streamed
//! aggregate — must be invariant. Only the seed is allowed to change the
//! measurement. Baselines come from the naive one-unit-at-a-time
//! reference (`util/naive.rs`) or a one-shard engine run.

#[path = "util/naive.rs"]
mod naive;

use ecn_core::{try_run_engine, CampaignConfig, EngineConfig, EngineRun, UnitOrder};
use ecn_pool::PoolPlan;
use naive::naive_campaign;
use proptest::prelude::*;

fn mini_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig {
        discovery_rounds: 20,
        traces_per_vantage: Some(1),
        run_traceroute: false,
        ..CampaignConfig::quick(seed)
    }
}

fn run(plan: &PoolPlan, cfg: &CampaignConfig, eng: &EngineConfig) -> EngineRun {
    try_run_engine(plan, cfg, eng).expect("in-process campaign")
}

proptest! {
    // Each case runs two scaled-down campaigns; 3 cases keeps the suite
    // inside the CI budget regardless of PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn table2_counts_invariant_under_sharding(
        seed in 1u64..10_000,
        shards in 1usize..9,
        order_seed in 0u64..1_000,
    ) {
        let plan = PoolPlan::scaled(24);
        let cfg = mini_cfg(seed);
        // the naive baseline keeps raw traces, so the trace count can
        // cross-check the streamed denominator below
        let baseline = naive_campaign(&plan, &cfg, 1);
        let sharded = run(
            &plan,
            &cfg,
            &EngineConfig {
                shards: Some(shards),
                unit_order: UnitOrder::Shuffled(order_seed),
                ..EngineConfig::default()
            },
        );

        // The tentpole property: per-vantage Table 2 counts do not depend
        // on shard count or on which shard stole which unit.
        prop_assert_eq!(
            &baseline.aggregates.table2,
            &sharded.result.aggregates.table2
        );
        // Neither does the full aggregate set (per-trace stats, figure 3
        // differentials, batch counters, figure 4 hop state included).
        prop_assert_eq!(&baseline.aggregates, &sharded.result.aggregates);
        // the engine keeps no raw trace vector, only the counts
        prop_assert!(sharded.result.traces.is_empty());
        prop_assert_eq!(
            sharded.result.aggregates.trace_stats.len(),
            baseline.traces.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    // AQM marking and validation under sharding: a world with CE-marking
    // AQM edges and the endpoint validation pass enabled must stream the
    // same aggregates — validation outcome counters included — for every
    // shard count and stealing order. AQM marks ride the per-link packet
    // RNG stream, which is keyed by link identity, not by schedule; this
    // is the campaign-level closure of the queue-level determinism
    // property in `ecn-netsim`'s proptests.
    #[test]
    fn aqm_marking_and_validation_invariant_under_sharding(
        seed in 1u64..10_000,
        shards in 2usize..9,
        order_seed in 0u64..1_000,
    ) {
        let plan = PoolPlan {
            aqm_red: 1,
            aqm_codel: 1,
            ce_suppress: 1,
            ..PoolPlan::scaled(30)
        };
        let mut cfg = mini_cfg(seed);
        cfg.validation.packets = 10;
        let baseline = run(&plan, &cfg, &EngineConfig::with_shards(1));
        prop_assert!(
            !baseline.result.aggregates.validation.is_empty(),
            "the validation pass must produce observations"
        );
        let sharded = run(
            &plan,
            &cfg,
            &EngineConfig {
                shards: Some(shards),
                unit_order: UnitOrder::Shuffled(order_seed),
                ..EngineConfig::default()
            },
        );
        prop_assert_eq!(
            &baseline.result.aggregates.validation,
            &sharded.result.aggregates.validation
        );
        prop_assert_eq!(&baseline.result.aggregates, &sharded.result.aggregates);
    }
}

/// The engine's streamed Table 2 counts must agree with the naive Table 2
/// walk over the raw records of the same campaign.
#[test]
fn streamed_table2_matches_batch_analysis() {
    let plan = PoolPlan::scaled(30);
    let cfg = mini_cfg(77);
    let engine = run(&plan, &cfg, &EngineConfig::with_shards(3));
    let batch = naive::table2(&naive_campaign(&plan, &cfg, 1).traces);
    let streamed = &engine.result.aggregates.table2;
    for row in &batch.rows {
        let v = &streamed.per_vantage[&row.location];
        let traces = engine
            .result
            .aggregates
            .trace_stats
            .per_trace
            .values()
            .filter(|t| t.vantage_name == row.location)
            .count();
        assert_eq!(
            v.udp_ect_unreachable as f64 / traces as f64,
            row.avg_udp_ect_unreachable,
            "{}: streamed vs batch ECT-unreachable average",
            row.location
        );
        assert_eq!(traces, row.traces);
    }
    assert!((streamed.phi() - batch.phi).abs() < 1e-12);
}
