//! Campaign building blocks: the global trace schedule, single-trace
//! execution (all four probes against every target), the per-vantage
//! traceroute survey, and the discovery phase — paper §3's mechanics.
//!
//! Campaign *execution* lives in [`crate::engine`]: a sharded engine
//! over (vantage × target-chunk) units that replaced
//! the two divergent runners this module used to carry. Sequential
//! execution is the `shards = 1` special case of the same code path.

use crate::config::CampaignConfig;
use crate::discovery::{discover, Discovery};
use crate::probes::{probe_tcp, probe_udp, probe_validation};
use crate::reducers::CampaignAggregates;
use crate::trace::{ServerOutcome, TraceRecord};
use crate::traceroute::{traceroute, TraceroutePath};
use ecn_netsim::Nanos;
use ecn_pool::{PoolPlan, Scenario, VantageSpec, WorldBlueprint};
use ecn_wire::Ecn;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Traceroute survey results from one vantage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VantageRoutes {
    /// Vantage key.
    pub vantage_key: String,
    /// One path per target.
    pub paths: Vec<TraceroutePath>,
}

/// Everything the campaign produced (plus the databases the analysis
/// needs).
pub struct CampaignResult {
    /// Targets in discovery order.
    pub targets: Vec<Ipv4Addr>,
    /// Discovery statistics.
    pub discovery: DiscoveryStats,
    /// Raw trace records — always empty from the engine, which streams
    /// every record into [`Self::aggregates`] and drops it (per-trace
    /// consumers subscribe with [`crate::events::TraceSampler`]). The
    /// field stays because this struct is also built by literal outside
    /// the engine (the `ecnbench` replay, test oracles), where it may
    /// carry records.
    pub traces: Vec<TraceRecord>,
    /// Raw traceroute survey paths (one entry per vantage) — like
    /// [`Self::traces`], always empty from the engine: Figure 4 renders
    /// from the streamed [`crate::reducers::HopSurveyCounts`].
    pub routes: Vec<VantageRoutes>,
    /// Streaming-reducer aggregates (always populated by the engine) —
    /// the single source of truth for `FullReport`.
    pub aggregates: CampaignAggregates,
    /// Geolocation DB for Table 1 / Figure 1 (shared with the blueprint).
    pub geodb: std::sync::Arc<ecn_geo::GeoDb>,
    /// IP→AS DB for the §4.2 boundary analysis (shared with the blueprint).
    pub asdb: std::sync::Arc<ecn_asdb::AsDb>,
    /// Vantage (key, name) in Table 2 order.
    pub vantage_order: Vec<(String, String)>,
    /// Ground truth (audit only), shared with the blueprint.
    pub truth: std::sync::Arc<ecn_pool::GroundTruth>,
}

/// Summary of the discovery phase.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DiscoveryStats {
    /// Unique servers discovered.
    pub servers: usize,
    /// Queries issued.
    pub queries: usize,
    /// Unanswered queries.
    pub timeouts: usize,
}

impl From<&Discovery> for DiscoveryStats {
    fn from(d: &Discovery) -> Self {
        DiscoveryStats {
            servers: d.targets.len(),
            queries: d.queries,
            timeouts: d.timeouts,
        }
    }
}

/// A scheduled trace, before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledTrace {
    /// Earliest start (virtual time).
    pub start: Nanos,
    /// Vantage index.
    pub vantage: usize,
    /// Collection batch (1 or 2).
    pub batch: u8,
}

/// Build the global schedule: batch-1 traces for home/wireless vantages,
/// batch-2 traces for all, spread across each batch window.
pub fn schedule(sc: &Scenario, cfg: &CampaignConfig) -> Vec<ScheduledTrace> {
    schedule_for(sc.vantages.iter().map(|v| &v.spec), cfg)
}

/// [`schedule`] from the vantage specs alone (in vantage-index order,
/// e.g. [`PoolPlan::vantages`]): the schedule reads nothing else of a
/// world, so no world needs to exist to compute it.
pub fn schedule_for<'a>(
    specs: impl IntoIterator<Item = &'a VantageSpec>,
    cfg: &CampaignConfig,
) -> Vec<ScheduledTrace> {
    let mut out = Vec::new();
    for (vi, spec) in specs.into_iter().enumerate() {
        let mut budget = cfg.traces_per_vantage.unwrap_or(usize::MAX);
        for (batch, count, start) in [
            (1u8, spec.traces.batch1, cfg.batch1_start),
            (2u8, spec.traces.batch2, cfg.batch2_start),
        ] {
            let count = count.min(budget);
            budget -= count;
            if count == 0 {
                continue;
            }
            let spacing = Nanos(cfg.batch_window.0 / count as u64);
            // stagger vantages so traces interleave rather than pile up
            let phase = Nanos(spacing.0 / 13 * (vi as u64 % 13));
            for i in 0..count {
                out.push(ScheduledTrace {
                    start: start + Nanos(spacing.0 * i as u64) + phase,
                    vantage: vi,
                    batch,
                });
            }
        }
    }
    out.sort_by_key(|t| (t.start, t.vantage));
    out
}

/// Execute one trace (all four probes against every target) from one
/// vantage, starting no earlier than its scheduled time. It reports
/// nothing but its record: every target gets all four probes, so a
/// unit's probe counts follow from its observation count.
pub fn run_trace(
    sc: &mut Scenario,
    vantage: usize,
    batch: u8,
    targets: &[Ipv4Addr],
    cfg: &CampaignConfig,
) -> TraceRecord {
    let handle = sc.vantages[vantage].handle.clone();
    let node = sc.vantages[vantage].node;
    let capture = sc.sim.attach_capture(node);
    let started_at = sc.sim.now();
    let mut outcomes = Vec::with_capacity(targets.len());
    for &server in targets {
        capture.lock().clear(); // per-server tcpdump session
        let udp_plain = probe_udp(
            &mut sc.sim,
            &handle,
            &capture,
            server,
            Ecn::NotEct,
            &cfg.probe,
        );
        let udp_ect = probe_udp(
            &mut sc.sim,
            &handle,
            &capture,
            server,
            cfg.probe.ect_codepoint,
            &cfg.probe,
        );
        let tcp_plain = probe_tcp(&mut sc.sim, &handle, &capture, server, false, &cfg.probe);
        let tcp_ecn = probe_tcp(&mut sc.sim, &handle, &capture, server, true, &cfg.probe);
        let validation = if cfg.validation.enabled() {
            Some(probe_validation(
                &mut sc.sim,
                &handle,
                server,
                validation_session_ecn(vantage, cfg.validation.ect1_per_1000),
                udp_plain.reachable,
                &cfg.validation,
            ))
        } else {
            None
        };
        outcomes.push(ServerOutcome {
            server,
            udp_plain,
            udp_ect,
            tcp_plain,
            tcp_ecn,
            validation,
        });
    }
    capture.lock().clear();
    TraceRecord {
        vantage_key: sc.vantages[vantage].spec.key.to_string(),
        vantage_name: sc.vantages[vantage].spec.name.to_string(),
        batch,
        started_at,
        outcomes,
    }
}

/// Which codepoint a vantage's validation rounds test. A fixed fraction
/// of vantages (per 1000, chosen by a pure hash of the vantage index so
/// the assignment is identical across shard counts, process counts and
/// unit orders) sends L4S-style ECT(1) trains; the rest send ECT(0).
fn validation_session_ecn(vantage: usize, ect1_per_1000: u32) -> Ecn {
    let h = (vantage as u32).wrapping_mul(2_654_435_761) >> 16;
    if h % 1000 < ect1_per_1000 {
        Ecn::Ect1
    } else {
        Ecn::Ect0
    }
}

/// Run the traceroute survey from one vantage. The survey reads its
/// sockets, not the vantage capture, so the capture is taken off for the
/// survey's duration (nothing would read what it recorded) and put back
/// afterwards, warm freelist intact, for the next trace.
pub fn run_traceroute_survey(
    sc: &mut Scenario,
    vantage: usize,
    targets: &[Ipv4Addr],
    cfg: &CampaignConfig,
) -> VantageRoutes {
    let handle = sc.vantages[vantage].handle.clone();
    let node = sc.vantages[vantage].node;
    let capture = sc.sim.detach_capture(node);
    let mut paths = Vec::with_capacity(targets.len());
    for &dst in targets {
        paths.push(traceroute(&mut sc.sim, &handle, dst, &cfg.traceroute));
    }
    sc.sim.restore_capture(node, capture);
    VantageRoutes {
        vantage_key: sc.vantages[vantage].spec.key.to_string(),
        paths,
    }
}

/// The plan the campaign actually runs: pool churn pinned to the batch-2
/// boundary.
pub(crate) fn plan_with_churn(plan: &PoolPlan, cfg: &CampaignConfig) -> PoolPlan {
    PoolPlan {
        churn_at: cfg.batch2_start,
        ..plan.clone()
    }
}

/// Run the discovery phase in an already-instantiated world.
/// Discovery runs from the University wired vantage (index 2); worlds
/// with fewer vantages (`ScenarioSpec::vantage_count < 3`) fall back to
/// the last one available.
pub fn discover_in(sc: &mut Scenario, cfg: &CampaignConfig) -> Discovery {
    let vantage = 2.min(sc.vantages.len().saturating_sub(1));
    let handle = sc.vantages[vantage].handle.clone();
    let dns = sc.dns_addr;
    discover(&mut sc.sim, &handle, dns, cfg)
}

/// Run discovery only (used by tests, benches and Table 1): builds the
/// blueprint, instantiates the canonical world, and discovers in it.
pub fn run_discovery(plan: &PoolPlan, cfg: &CampaignConfig) -> (Discovery, Scenario) {
    let plan = plan_with_churn(plan, cfg);
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    let mut sc = bp.instantiate();
    let d = discover_in(&mut sc, cfg);
    (d, sc)
}

/// Discovery as the engine runs it: in the blueprint's discovery world
/// ([`WorldBlueprint::instantiate_discovery`]: the root packet stream,
/// no server stacks), which is dropped before this returns. The
/// campaign's result starts from what that world gives it — targets,
/// discovery statistics, the vantage order and the blueprint's shared
/// databases — with empty aggregates for the unit pool to fill (no raw
/// records: the engine streams them into `aggregates`).
pub(crate) fn discover_campaign(bp: &WorldBlueprint, cfg: &CampaignConfig) -> CampaignResult {
    let mut world = bp.instantiate_discovery();
    let discovery = discover_in(&mut world, cfg);
    CampaignResult {
        discovery: DiscoveryStats::from(&discovery),
        targets: discovery.targets,
        traces: Vec::new(),
        routes: Vec::new(),
        aggregates: CampaignAggregates::default(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use ecn_pool::build_scenario;

    fn mini_cfg(seed: u64) -> CampaignConfig {
        CampaignConfig {
            discovery_rounds: 30,
            ..CampaignConfig::quick(seed)
        }
    }

    /// A pool plan small enough for unit tests but with all behaviours.
    fn mini_plan() -> PoolPlan {
        PoolPlan::scaled(40)
    }

    #[test]
    fn schedule_covers_both_batches_in_order() {
        let cfg = mini_cfg(41);
        let sc = build_scenario(&mini_plan(), cfg.seed);
        let s = schedule(&sc, &cfg);
        assert_eq!(s.len(), 210);
        assert!(s.windows(2).all(|w| w[0].start <= w[1].start));
        let b1 = s.iter().filter(|t| t.batch == 1).count();
        assert_eq!(b1, 15 + 8 + 14, "batch 1 = homes + wireless");
        // batch 2 strictly after batch 1 window
        let last_b1 = s
            .iter()
            .filter(|t| t.batch == 1)
            .map(|t| t.start)
            .max()
            .unwrap();
        let first_b2 = s
            .iter()
            .filter(|t| t.batch == 2)
            .map(|t| t.start)
            .min()
            .unwrap();
        assert!(first_b2 > last_b1);
    }

    #[test]
    fn schedule_from_the_plan_matches_schedule_from_a_world() {
        for toml in [
            include_str!("../../../scenarios/paper2015.toml"),
            include_str!("../../../scenarios/megapool-smoke.toml"),
        ] {
            let mut spec = ecn_pool::ScenarioSpec::from_toml_str(toml).expect("preset parses");
            // the schedule reads only the vantage specs, which the
            // population size does not touch: a small world will do
            spec.population.servers = 600;
            let cfg = crate::campaign_config(&spec);
            let plan = spec.plan();
            let world = WorldBlueprint::build(&plan, cfg.seed).instantiate();
            let from_world = schedule(&world, &cfg);
            assert!(!from_world.is_empty(), "{}", spec.name);
            assert_eq!(
                schedule_for(&plan.vantages(), &cfg),
                from_world,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn discovery_without_server_stacks_matches_the_full_world() {
        // The engine discovers in a world with no server stack; the
        // canonical full world must find the same targets, in the same
        // order, with the same queries and timeouts.
        for toml in [
            include_str!("../../../scenarios/paper2015-mini.toml"),
            include_str!("../../../scenarios/megapool-smoke.toml"),
        ] {
            let mut spec = ecn_pool::ScenarioSpec::from_toml_str(toml).expect("preset parses");
            // megapool's shape at a unit-test size
            spec.population.servers = spec.population.servers.min(2_000);
            for seed in [2015, 7331] {
                spec.seed = seed;
                let cfg = crate::campaign_config(&spec);
                let plan = plan_with_churn(&spec.plan(), &cfg);
                let bp = WorldBlueprint::build(&plan, cfg.seed);
                let full = discover_in(&mut bp.instantiate(), &cfg);
                let scoped = discover_in(&mut bp.instantiate_discovery(), &cfg);
                let at = format!("{} seed {seed}", spec.name);
                assert!(full.targets.len() > spec.population.servers / 2, "{at}");
                assert_eq!(scoped.targets, full.targets, "{at}");
                assert_eq!(scoped.queries, full.queries, "{at}");
                assert_eq!(scoped.timeouts, full.timeouts, "{at}");
            }
        }
    }

    #[test]
    fn traceroute_survey_leaves_the_vantage_capture_empty() {
        let cfg = mini_cfg(43);
        let (d, mut sc) = run_discovery(&mini_plan(), &cfg);
        let targets = &d.targets[..10];
        run_trace(&mut sc, 4, 2, targets, &cfg);
        let node = sc.vantages[4].node;
        let capture = sc.sim.attach_capture(node);
        let routes = run_traceroute_survey(&mut sc, 4, targets, &cfg);
        assert_eq!(routes.paths.len(), targets.len());
        assert!(capture.lock().is_empty(), "survey packets were captured");
        // the same buffer is back on the vantage for the next trace
        let after = sc.sim.attach_capture(node);
        assert!(std::sync::Arc::ptr_eq(&capture, &after));
    }

    #[test]
    fn single_trace_produces_full_outcomes() {
        let cfg = mini_cfg(42);
        let (d, mut sc) = run_discovery(&mini_plan(), &cfg);
        assert_eq!(d.targets.len(), 40);
        let rec = run_trace(&mut sc, 4, 2, &d.targets, &cfg);
        assert_eq!(rec.outcomes.len(), 40);
        // sanity: most servers are up and reachable both ways
        assert!(
            rec.udp_plain_reachable() > 25,
            "{}",
            rec.udp_plain_reachable()
        );
        assert!(rec.fig2a_pct() > 80.0);
        // at least one ECT-blocked server shows differential reachability
        let diff = rec
            .outcomes
            .iter()
            .filter(|o| o.udp_diff_plain_only())
            .count();
        assert!(diff >= 1, "ect-blocked server visible");
        // TCP: some reachable, most of those negotiated
        assert!(rec.tcp_reachable() > 10);
        assert!(rec.tcp_ecn_negotiated() > 5);
        assert!(rec.tcp_ecn_negotiated() <= rec.tcp_reachable());
    }
}
