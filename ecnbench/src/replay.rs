//! The replay: the engine's in-process campaign walked single-threaded
//! through the layers' public functions, with a span around every call,
//! so its time can be assigned to layers. It calls no `run_*` engine
//! entry point, and it renders the same report bytes as the measured
//! campaign — the parent compares the digests.

use crate::campaign::digest;
use crate::ledger::Tracer;
use crate::sys::vm_rss_kb;
use ecn_core::mp::{WorkerCounters, WorkerPayload, WorkerRequest};
use ecn_core::{
    campaign_config, discover_in, engine_config, merge_tree, run_trace, run_traceroute_survey,
    schedule, CampaignAggregates, CampaignConfig, CampaignResult, DiscoveryStats, EngineTiming,
    FullReport, Reduce, RouteCtx, ScheduledTrace, TraceCtx, UnitOrder,
};
use ecn_pool::{PoolPlan, Scenario, ScenarioSpec, WorldBlueprint};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// What a replay produced, in the terms the measured campaign reports.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Replayed {
    /// Digest of the rendered report.
    pub digest: String,
    /// Targets discovered.
    pub targets: usize,
    /// Logical traces observed.
    pub traces: usize,
}

/// Replay the campaign `spec` describes, dealing its units round-robin
/// over `lanes` partial aggregates as the engine deals them over shards
/// and worker processes. With the tracer on, it also ships every
/// partition through the worker payload codec, as `core::mp` does.
pub fn replay(spec: &ScenarioSpec, lanes: usize, t: &mut Tracer) -> Replayed {
    let cfg = campaign_config(spec);
    let chunks = engine_config(spec).target_chunks.max(1);
    // the plan the engine runs: pool churn pinned to the batch-2 boundary
    let plan = PoolPlan {
        churn_at: cfg.batch2_start,
        ..spec.plan()
    };
    t.open("campaign", None);

    let rss0 = vm_rss_kb();
    t.open("pool.blueprint_build", None);
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    t.close();
    t.counts.blueprint_rss_kb = vm_rss_kb().saturating_sub(rss0);

    t.open("pool.world_instantiate", None);
    let mut world = bp.instantiate();
    t.close();
    t.open("discovery", None);
    let discovery = discover_in(&mut world, &cfg);
    t.close();
    t.counts.queries = discovery.queries as u64;
    let targets = discovery.targets.clone();

    t.open("campaign.schedule", None);
    let per_vantage = per_vantage_schedule(&world, &cfg);
    t.close();

    let mut parts = vec![CampaignAggregates::default(); lanes.max(1)];
    let lane_count = parts.len();
    let n = targets.len();
    for (v, sched) in per_vantage.iter().enumerate() {
        for c in 0..chunks {
            let i = v * chunks + c;
            let chunk = &targets[c * n / chunks..(c + 1) * n / chunks];
            run_unit(
                &bp,
                (v, c),
                sched,
                chunk,
                &cfg,
                &mut parts[i % lane_count],
                t,
            );
        }
    }
    drop(bp);

    if t.is_on() {
        parts = ship(&plan, &cfg, &targets, chunks, parts, t);
    }

    t.open("reduce.merge", None);
    let aggregates = merge_tree(parts);
    t.close();

    t.open("report.render", None);
    let result = CampaignResult {
        targets,
        discovery: DiscoveryStats::from(&discovery),
        traces: Vec::new(),
        routes: Vec::new(),
        aggregates,
        vantage_order: world
            .vantages
            .iter()
            .map(|v| (v.spec.key.to_string(), v.spec.name.to_string()))
            .collect(),
        geodb: world.geodb.clone(),
        asdb: world.asdb.clone(),
        truth: world.truth.clone(),
    };
    let report = FullReport::from_aggregates(&result).render();
    t.close();
    t.close(); // campaign

    if t.is_on() {
        t.counts.report_bytes = report.len() as u64;
        t.counts.aggregates_bytes = serde_json::to_string(&result.aggregates)
            .expect("aggregates serialise")
            .len() as u64;
    }
    Replayed {
        digest: digest(report.as_bytes()),
        targets: result.targets.len(),
        traces: result.aggregates.trace_stats.len(),
    }
}

/// The full schedule split per vantage (what every unit of a vantage
/// runs), as the engine computes it.
fn per_vantage_schedule(world: &Scenario, cfg: &CampaignConfig) -> Vec<Vec<ScheduledTrace>> {
    let mut per = vec![Vec::new(); world.vantages.len()];
    for st in schedule(world, cfg) {
        per[st.vantage].push(st);
    }
    per
}

/// One engine unit: a scoped world for the chunk, the vantage's traces
/// against it, then its slice of the traceroute survey.
fn run_unit(
    bp: &WorldBlueprint,
    (v, c): (usize, usize),
    sched: &[ScheduledTrace],
    chunk: &[Ipv4Addr],
    cfg: &CampaignConfig,
    agg: &mut CampaignAggregates,
    t: &mut Tracer,
) {
    let unit = Some((v, c));
    t.open("engine.unit", unit);
    t.open("pool.unit_instantiate", unit);
    let probed: HashSet<Ipv4Addr> = chunk.iter().copied().collect();
    let mut sc = bp.instantiate_unit_scoped(v, c, &probed);
    if t.is_on() {
        // purely observational: the tap counts, it cannot change outcomes
        sc.sim.install_event_tap();
    }
    t.close();

    for (trace_index, st) in sched.iter().enumerate() {
        let e0 = sc.sim.events_dispatched();
        t.open("probe.trace", unit);
        if sc.sim.now() < st.start {
            sc.sim.run_until(st.start);
        }
        let rec = run_trace(&mut sc, v, st.batch, chunk, cfg);
        t.close_with(Some(sc.sim.events_dispatched() - e0));
        t.open("reduce.observe", unit);
        agg.observe_trace(
            &rec,
            &TraceCtx {
                first_chunk: c == 0,
                vantage: v,
                trace_index,
            },
        );
        t.close();
        t.counts.observations += rec.outcomes.len() as u64;
    }
    let probed_counters = sc.sim.drain_event_counters();
    t.counts.delivered += probed_counters.delivered;
    t.counts.dropped += probed_counters.total_dropped();
    t.counts.ce_marked += probed_counters.ce_marked;

    // The span is opened with the survey off too, so every workload
    // reports the (then near-zero) time of this phase.
    let e0 = sc.sim.events_dispatched();
    t.open("traceroute.survey", unit);
    if cfg.run_traceroute {
        let routes = run_traceroute_survey(&mut sc, v, chunk, cfg);
        t.counts.paths += routes.paths.len() as u64;
        t.open("reduce.observe", unit);
        agg.observe_routes(
            &routes,
            &RouteCtx {
                vantage: v,
                asdb: &sc.asdb,
            },
        );
        t.close();
    }
    t.close_with(Some(sc.sim.events_dispatched() - e0));
    t.counts.units += 1;
    t.close(); // engine.unit
}

/// The costs multi-process execution repeats or adds, measured on this
/// campaign: one worker's set-up (it rebuilds the blueprint and
/// instantiates a full world for the schedule), the request, and every
/// partition's payload encoded and decoded. Returns the decoded
/// partitions, so the report is rendered from what crossed the codec.
fn ship(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    targets: &[Ipv4Addr],
    chunks: usize,
    parts: Vec<CampaignAggregates>,
    t: &mut Tracer,
) -> Vec<CampaignAggregates> {
    t.open("mp.worker_setup", None);
    let bp = WorldBlueprint::build(plan, cfg.seed);
    let world = bp.instantiate();
    std::hint::black_box(per_vantage_schedule(&world, cfg));
    drop(world);
    drop(bp);
    t.close();

    let processes = parts.len();
    t.open("mp.request_encode", None);
    let request = serde_json::to_string(&WorkerRequest {
        plan: plan.clone(),
        cfg: *cfg,
        targets: targets.to_vec(),
        target_chunks: chunks,
        shards: Some(1),
        unit_order: UnitOrder::AsScheduled,
        processes,
        index: 0,
        skip: Vec::new(),
        attempt: 0,
    })
    .expect("request serialises");
    t.close();
    t.counts.request_bytes = request.len() as u64;

    let mut decoded = Vec::with_capacity(processes);
    for aggregates in parts {
        let payload = WorkerPayload {
            aggregates,
            units: 0,
            shards: 1,
            timing: EngineTiming::default(),
            peak_resident_traces: 0,
            peak_rss_kb: 0,
            counters: WorkerCounters::default(),
        };
        t.open("mp.payload_encode", None);
        let json = serde_json::to_string(&payload).expect("payload serialises");
        t.close();
        t.counts.payload_bytes_max = t.counts.payload_bytes_max.max(json.len() as u64);
        t.open("mp.payload_decode", None);
        let back: WorkerPayload = serde_json::from_str(&json).expect("payload decodes");
        t.close();
        decoded.push(back.aggregates);
    }
    decoded
}
