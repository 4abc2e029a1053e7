//! A deliberately naive reference implementation of the campaign and its
//! report, for differential tests. No shard pool, no work stealing, no
//! reducer merge tree, no event stream:
//!
//! - [`naive_campaign`] walks the (vantage × chunk) units one at a time
//!   through the public building blocks and keeps every raw record;
//! - [`naive_report`] derives the report by walking those records, one
//!   artefact at a time.
//!
//! The engine must match both byte for byte. The file is included by
//! `#[path]` from several test crates and from `ecn-core`'s unit tests;
//! each uses a subset, hence the `dead_code` allowance.

#![allow(dead_code)]

use ecn_asdb::AsDb;
use ecn_core::analysis::{
    figure6, table1, BatchComparison, Fig5Bar, Figure2, Figure3, Figure4, Figure5, FullReport,
    Table2, TraceBar, ValidationReport,
};
use ecn_core::reducers::{
    BatchCounts, CampaignAggregates, DifferentialCounts, HopSurveyCounts, Reduce, RouteCtx,
    Table2Counts, TraceCtx, ValidationCounts,
};
use ecn_core::{
    discover_in, run_trace, run_traceroute_survey, schedule_for, CampaignConfig, CampaignResult,
    DiscoveryStats, TraceRecord, VantageRoutes,
};
use ecn_pool::{GroundTruth, PoolPlan, WorldBlueprint};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Run the campaign one unit at a time, keeping every raw record:
/// discovery in the blueprint's canonical world, then for each vantage
/// and each of `target_chunks` target slices a scoped unit world running
/// the vantage's schedule and (when enabled) its traceroute slice. Chunk
/// 0's record of a trace carries the header and later chunks append
/// their outcomes, as later chunks' paths append to the vantage's routes.
/// Every field of the result is filled: records sorted by
/// `(started_at, vantage_key)`, routes in vantage order, and aggregates
/// folded from the stitched records.
pub fn naive_campaign(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    target_chunks: usize,
) -> CampaignResult {
    // the plan the campaign runs: pool churn pinned to the batch-2 boundary
    let plan = PoolPlan {
        churn_at: cfg.batch2_start,
        ..plan.clone()
    };
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    let mut world = bp.instantiate();
    let discovery = discover_in(&mut world, cfg);
    let targets = discovery.targets.clone();
    let chunks = target_chunks.max(1);
    let n = targets.len();
    let schedule = schedule_for(&plan.vantages(), cfg);

    let mut aggregates = CampaignAggregates::default();
    let mut traces: Vec<TraceRecord> = Vec::new();
    let mut routes: Vec<VantageRoutes> = Vec::new();
    for v in 0..world.vantages.len() {
        let mut records: Vec<TraceRecord> = Vec::new();
        let mut survey: Option<VantageRoutes> = None;
        for c in 0..chunks {
            let chunk = &targets[c * n / chunks..(c + 1) * n / chunks];
            let probed: HashSet<Ipv4Addr> = chunk.iter().copied().collect();
            let mut sc = bp.instantiate_unit_scoped(v, c, &probed);
            for (i, st) in schedule.iter().filter(|st| st.vantage == v).enumerate() {
                if sc.sim.now() < st.start {
                    sc.sim.run_until(st.start);
                }
                let rec = run_trace(&mut sc, v, st.batch, chunk, cfg);
                match records.get_mut(i) {
                    Some(whole) => whole.outcomes.extend(rec.outcomes),
                    None => records.push(rec),
                }
            }
            if cfg.run_traceroute {
                let part = run_traceroute_survey(&mut sc, v, chunk, cfg);
                match survey.as_mut() {
                    Some(whole) => whole.paths.extend(part.paths),
                    None => survey = Some(part),
                }
            }
        }
        for (i, rec) in records.iter().enumerate() {
            aggregates.observe_trace(rec, &TraceCtx::whole(v, i));
        }
        if let Some(survey) = &survey {
            aggregates.observe_routes(
                survey,
                &RouteCtx {
                    vantage: v,
                    asdb: &world.asdb,
                },
            );
        }
        traces.extend(records);
        routes.extend(survey);
    }
    // stable: within a vantage, schedule order breaks start-time ties
    traces.sort_by(|a, b| {
        (a.started_at, a.vantage_key.as_str()).cmp(&(b.started_at, b.vantage_key.as_str()))
    });

    CampaignResult {
        targets,
        discovery: DiscoveryStats::from(&discovery),
        traces,
        routes,
        aggregates,
        vantage_order: world
            .vantages
            .iter()
            .map(|v| (v.spec.key.to_string(), v.spec.name.to_string()))
            .collect(),
        geodb: world.geodb,
        asdb: world.asdb,
        truth: world.truth,
    }
}

/// The report, derived by walking `result.traces` and `result.routes`
/// artefact by artefact (the aggregates are not read).
pub fn naive_report(result: &CampaignResult) -> FullReport {
    let figure5 = figure5(&result.traces);
    let measured_pct = figure5.negotiated_pct();
    FullReport {
        table1: table1(&result.geodb, &result.targets),
        figure2: figure2(&result.traces),
        figure3: figure3(&result.traces),
        figure4: figure4(&result.routes, &result.asdb),
        figure5,
        figure6: figure6(measured_pct),
        table2: table2(&result.traces),
        batches: batch_comparison(&result.traces),
        validation: validation_report(&result.traces, &result.truth),
    }
}

/// Vantage display names in first-seen order.
fn location_order(traces: &[TraceRecord]) -> Vec<String> {
    let mut order: Vec<String> = Vec::new();
    for t in traces {
        if !order.contains(&t.vantage_name) {
            order.push(t.vantage_name.clone());
        }
    }
    order
}

/// Figure 2: one bar per trace, in the given order.
pub fn figure2(traces: &[TraceRecord]) -> Figure2 {
    Figure2::from_bars(
        traces
            .iter()
            .map(|t| TraceBar {
                vantage_key: t.vantage_key.clone(),
                vantage_name: t.vantage_name.clone(),
                pct_a: t.fig2a_pct(),
                pct_b: t.fig2b_pct(),
                plain_reachable: t.udp_plain_reachable(),
                ect_reachable: t.udp_ect_reachable(),
            })
            .collect(),
    )
}

/// Figure 3: replay the records through the differential counters.
pub fn figure3(traces: &[TraceRecord]) -> Figure3 {
    let mut counts = DifferentialCounts::default();
    for (i, t) in traces.iter().enumerate() {
        counts.observe_trace(t, &TraceCtx::whole(0, i));
    }
    Figure3::from_counts(counts, &location_order(traces))
}

/// Figure 4: replay each vantage's survey through the hop counters.
pub fn figure4(routes: &[VantageRoutes], asdb: &AsDb) -> Figure4 {
    let mut counts = HopSurveyCounts::default();
    for (vi, vr) in routes.iter().enumerate() {
        counts.observe_routes(vr, &RouteCtx { vantage: vi, asdb });
    }
    Figure4::from_counts(&counts, asdb)
}

/// Figure 5: one bar per trace, in the given order.
pub fn figure5(traces: &[TraceRecord]) -> Figure5 {
    Figure5::from_bars(
        traces
            .iter()
            .map(|t| Fig5Bar {
                vantage_name: t.vantage_name.clone(),
                tcp_reachable: t.tcp_reachable(),
                negotiated: t.tcp_ecn_negotiated(),
            })
            .collect(),
    )
}

/// Table 2: replay the records through the correlation counters.
pub fn table2(traces: &[TraceRecord]) -> Table2 {
    let mut counts = Table2Counts::default();
    for (i, t) in traces.iter().enumerate() {
        counts.observe_trace(t, &TraceCtx::whole(0, i));
    }
    Table2::from_counts(&counts, &location_order(traces))
}

/// §4.1 batch comparison: replay the records through the batch counters.
pub fn batch_comparison(traces: &[TraceRecord]) -> BatchComparison {
    let mut counts = BatchCounts::default();
    for (i, t) in traces.iter().enumerate() {
        counts.observe_trace(t, &TraceCtx::whole(0, i));
    }
    BatchComparison::from_counts(&counts)
}

/// The validation confusion matrix: replay the records through the
/// outcome counters, then join against the ground truth.
pub fn validation_report(traces: &[TraceRecord], truth: &GroundTruth) -> Option<ValidationReport> {
    let mut counts = ValidationCounts::default();
    for (i, t) in traces.iter().enumerate() {
        counts.observe_trace(t, &TraceCtx::whole(0, i));
    }
    ValidationReport::from_counts(&counts, truth)
}
