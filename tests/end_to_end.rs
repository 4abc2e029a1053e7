//! Cross-crate integration tests: the full pipeline (scenario → campaign →
//! analysis) at test scale, determinism, dataset serialisation, and
//! internal consistency of every analysis artefact. Raw records come
//! from the naive one-unit-at-a-time reference campaign
//! (`crates/core/tests/util/naive.rs`) or, from the engine, through the
//! `TraceSampler` subscriber.

#[path = "../crates/core/tests/util/naive.rs"]
mod naive;

use ecnudp::core::analysis::{table1, FullReport};
use ecnudp::core::{
    try_run_engine, try_run_engine_observed, CampaignConfig, CampaignResult, EngineConfig,
    TraceSampler, UnitOrder,
};
use ecnudp::pool::PoolPlan;
use naive::{figure2, figure3, figure4, figure5, naive_campaign, naive_report, table2};

fn mini_cfg(seed: u64, traces_per_vantage: usize) -> CampaignConfig {
    CampaignConfig {
        discovery_rounds: 25,
        traces_per_vantage: Some(traces_per_vantage),
        ..CampaignConfig::quick(seed)
    }
}

/// These integration tests cross-check the analyses against the raw
/// records, so they run the naive reference campaign, which keeps them;
/// the engine is pinned to it by
/// `default_campaign_is_trace_free_and_reports_identically` below.
fn mini_campaign(seed: u64, traces_per_vantage: usize) -> CampaignResult {
    naive_campaign(
        &PoolPlan::scaled(50),
        &mini_cfg(seed, traces_per_vantage),
        1,
    )
}

#[test]
fn pipeline_produces_consistent_artefacts() {
    let result = mini_campaign(1, 2);
    assert_eq!(result.targets.len(), 50);
    assert_eq!(result.traces.len(), 2 * 13);
    assert_eq!(result.routes.len(), 13);

    let report = FullReport::from_campaign(&result);

    // Table 1: totals match the target list
    assert_eq!(report.table1.total, 50);
    let row_sum: usize = report.table1.rows.iter().map(|(_, c)| c).sum();
    assert_eq!(row_sum, 50);

    // Figure 2: percentages are sane and most of the pool answers
    assert!(report.figure2.avg_a > 85.0 && report.figure2.avg_a <= 100.0);
    assert!(report.figure2.avg_b > 85.0 && report.figure2.avg_b <= 100.0);
    assert!(report.figure2.avg_plain_reachable > 35.0);

    // Figure 3: planted persistent blackholes are found
    assert!(!report.figure3.persistent_a.is_empty());
    for addr in &report.figure3.persistent_a {
        assert!(
            result.truth.ect_blocked.contains(addr)
                || result.truth.ect_blocked_flaky.contains(addr),
            "measured blackhole {addr} must be planted"
        );
    }

    // Figure 4: the paper's own arithmetic must hold on our data:
    // pass + strip − sometimes = total
    let f4 = &report.figure4;
    assert_eq!(
        f4.pass_hops + f4.strip_hops - f4.sometimes_hops,
        f4.total_hops
    );
    assert!(f4.total_hops > 1000);
    assert!(f4.pass_fraction() > 0.8);
    assert_eq!(f4.ce_observed, 0, "no CE on uncongested paths");
    assert!(f4.strip_locations >= 1);
    assert!(f4.paths == 13 * 50);

    // Figure 5: negotiation share within the plausible band
    assert!(report.figure5.avg_reachable > 10.0);
    let share = report.figure5.negotiated_pct();
    assert!(share > 50.0 && share < 100.0, "share {share}");

    // Figure 6: our point extends the historical series
    assert_eq!(report.figure6.points.len(), 8);
    assert!(report.figure6.fit.k > 0.0);

    // Table 2: weak correlation, most blocked servers still negotiate
    assert!(report.table2.phi.abs() < 0.5);

    // the whole report renders without panicking and mentions every artefact
    let text = report.render();
    for needle in [
        "Table 1",
        "Figure 2a",
        "Figure 3",
        "Figure 4",
        "Figure 5",
        "Figure 6",
        "Table 2",
    ] {
        assert!(text.contains(needle), "missing {needle}");
    }
}

#[test]
fn default_campaign_is_trace_free_and_reports_identically() {
    // the engine retains no raw records…
    let lean = try_run_engine(
        &PoolPlan::scaled(50),
        &mini_cfg(1, 2),
        &EngineConfig::default(),
    )
    .expect("in-process campaign")
    .result;
    assert!(lean.traces.is_empty(), "the engine keeps no TraceRecord");
    assert!(
        lean.routes.is_empty(),
        "the engine keeps no traceroute path"
    );
    assert_eq!(lean.aggregates.trace_stats.len(), 2 * 13);
    // …yet renders byte-for-byte what the trace walk derives from the
    // raw records of the same campaign.
    let kept = mini_campaign(1, 2);
    assert_eq!(
        FullReport::from_campaign(&lean).render(),
        naive_report(&kept).render(),
    );
}

#[test]
fn sequential_campaign_is_deterministic() {
    let a = mini_campaign(7, 1);
    let b = mini_campaign(7, 1);
    assert_eq!(a.targets, b.targets);
    assert_eq!(a.traces.len(), b.traces.len());
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(ta.vantage_key, tb.vantage_key);
        assert_eq!(ta.started_at, tb.started_at);
        for (oa, ob) in ta.outcomes.iter().zip(&tb.outcomes) {
            assert_eq!(oa.server, ob.server);
            assert_eq!(oa.udp_plain.reachable, ob.udp_plain.reachable);
            assert_eq!(oa.udp_ect.reachable, ob.udp_ect.reachable);
            assert_eq!(oa.tcp_ecn.negotiated_ecn, ob.tcp_ecn.negotiated_ecn);
        }
    }
    // and a different seed gives a different world
    let c = mini_campaign(8, 1);
    assert_ne!(a.targets, c.targets);
}

#[test]
fn dataset_serialises_like_the_published_one() {
    let result = mini_campaign(3, 1);
    // traces are the dataset artefact (the paper published theirs with a
    // DOI); ours must survive a JSON roundtrip bit-for-bit
    let json = serde_json::to_string(&result.traces).expect("serialise");
    let back: Vec<ecnudp::core::TraceRecord> = serde_json::from_str(&json).expect("parse");
    assert_eq!(back.len(), result.traces.len());
    for (orig, re) in result.traces.iter().zip(&back) {
        assert_eq!(orig.vantage_key, re.vantage_key);
        assert_eq!(orig.outcomes.len(), re.outcomes.len());
        for (a, b) in orig.outcomes.iter().zip(&re.outcomes) {
            assert_eq!(a.server, b.server);
            assert_eq!(a.udp_plain.reachable, b.udp_plain.reachable);
            assert_eq!(a.tcp_ecn.syn_ack_flags, b.tcp_ecn.syn_ack_flags);
        }
    }
    // routes too
    let json = serde_json::to_string(&result.routes).expect("serialise routes");
    let back: Vec<ecnudp::core::VantageRoutes> = serde_json::from_str(&json).expect("parse");
    assert_eq!(back.len(), 13);
}

#[test]
fn analyses_agree_with_each_other() {
    let result = mini_campaign(5, 2);
    let f2 = figure2(&result.traces);
    let f3 = figure3(&result.traces);
    let f5 = figure5(&result.traces);
    let t2 = table2(&result.traces);
    let t1 = table1(&result.geodb, &result.targets);
    let f4 = figure4(&result.routes, &result.asdb);

    // Figure 2 bar count == trace count; Figure 5 likewise
    assert_eq!(f2.bars.len(), result.traces.len());
    assert_eq!(f5.bars.len(), result.traces.len());

    // per-location tables all enumerate the same 13 locations
    assert_eq!(f3.high_diff_a.len(), 13);
    assert_eq!(t2.rows.len(), 13);

    // Table 2's per-location average differential equals Figure 3's
    // underlying counts aggregated differently
    for row in &t2.rows {
        let (_, servers) = f3
            .per_location
            .iter()
            .find(|(name, _)| *name == row.location)
            .expect("location present");
        let total_diff: u32 = servers.values().map(|d| d.diff_a).sum();
        let traces = row.traces as f64;
        let avg_from_f3 = f64::from(total_diff) / traces;
        assert!(
            (avg_from_f3 - row.avg_udp_ect_unreachable).abs() < 1e-9,
            "{}: {} vs {}",
            row.location,
            avg_from_f3,
            row.avg_udp_ect_unreachable
        );
    }

    // hop observations only reference ASes the asdb knows or none
    assert!(f4.as_count <= result.truth.dest_as_count + 250);
    assert_eq!(t1.total, result.targets.len());
}

#[test]
fn engine_results_are_invariant_to_shards_and_stealing_order() {
    // The old sequential/parallel runner pair agreed only statistically;
    // the engine's shard count and unit scheduling order are pure
    // concurrency knobs, so the agreement is now *byte-for-byte*. Raw
    // records come through the subscriber stream: a 1-in-1 sampler keeps
    // every one.
    let plan = PoolPlan::scaled(40);
    let cfg = CampaignConfig {
        discovery_rounds: 25,
        traces_per_vantage: Some(2),
        run_traceroute: false,
        ..CampaignConfig::quick(11)
    };
    let observe = |eng: &EngineConfig| {
        let (run, sampler) = try_run_engine_observed(&plan, &cfg, eng, TraceSampler::new(1))
            .expect("in-process campaign");
        (run, sampler.into_records())
    };
    let (seq, seq_traces) = observe(&EngineConfig::with_shards(1));
    let (par, par_traces) = observe(&EngineConfig {
        shards: Some(5),
        unit_order: UnitOrder::Shuffled(99),
        ..EngineConfig::default()
    });
    assert_eq!(seq.units, par.units, "unit pool is shard-independent");
    assert_eq!(seq.result.targets, par.result.targets);
    assert_eq!(seq_traces.len(), 2 * 13);
    assert_eq!(
        serde_json::to_string(&seq_traces).expect("serialise"),
        serde_json::to_string(&par_traces).expect("serialise"),
        "raw trace records identical under work stealing"
    );
    assert_eq!(
        seq.result.aggregates, par.result.aggregates,
        "streamed aggregates identical under work stealing"
    );
    let f3s = figure3(&seq_traces);
    let f3p = figure3(&par_traces);
    assert_eq!(f3s.persistent_a, f3p.persistent_a, "same blackholes found");
}
