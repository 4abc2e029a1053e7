//! Run declarative scenarios: lower an [`ecn_pool::ScenarioSpec`] to the
//! engine's imperative configuration.
//!
//! This is the bridge the `ecnudp` CLI drives: a spec file describes the
//! *world and schedule*; [`campaign_config`] and [`engine_config`] turn it
//! into the `(PoolPlan, CampaignConfig, EngineConfig)` triple
//! [`crate::engine::try_run_engine`] consumes (the plan is
//! [`ecn_pool::ScenarioSpec::plan`]). [`ecn_pool::ScenarioSpec::paper2015`]
//! lowers to exactly `PoolPlan::paper()`, `CampaignConfig::default()` and
//! `EngineConfig::default()`, so running the `paper2015` preset is
//! byte-identical to the hard-wired reproduction (gated by
//! `tests/scenario_presets.rs`).
//!
//! ```
//! use ecn_core::{campaign_config, engine_config, try_run_engine, EngineConfig, FullReport};
//! use ecn_pool::ScenarioSpec;
//!
//! // A tiny world: 20 servers, compressed calendar, one trace/vantage.
//! let spec = ScenarioSpec::from_toml_str(
//!     r#"
//!     seed = 42
//!     traceroute = false
//!     [population]
//!     servers = 20
//!     [topology]
//!     t1_count = 3
//!     t2_count = 3
//!     [middleboxes]
//!     ect_droppers_per_1000 = 50
//!     [schedule]
//!     profile = "quick"
//!     traces_per_vantage = 1
//!     discovery_rounds = 10
//!     "#,
//! )
//! .unwrap();
//! // shards stay a runtime knob: any count renders the same bytes
//! let eng = EngineConfig {
//!     shards: Some(2),
//!     ..engine_config(&spec)
//! };
//! let run = try_run_engine(&spec.plan(), &campaign_config(&spec), &eng)
//!     .expect("an in-process campaign cannot fail");
//! let report = FullReport::from_campaign(&run.result);
//! assert!(report.render().contains("Table 2"));
//! ```

use crate::analysis::FullReport;
use crate::config::CampaignConfig;
use crate::engine::{EngineConfig, EngineRun};
use crate::reducers::TraceCounters;
use ecn_pool::{ScenarioSpec, ScheduleProfile};
use serde::Serialize;

/// Lower a spec's schedule to the campaign configuration: profile base
/// (paper calendar or the compressed quick one), then the spec's
/// overrides for discovery depth, per-vantage trace caps, and the
/// traceroute switch.
pub fn campaign_config(spec: &ScenarioSpec) -> CampaignConfig {
    let mut cfg = match spec.schedule.profile {
        ScheduleProfile::Paper => CampaignConfig {
            seed: spec.seed,
            ..CampaignConfig::default()
        },
        ScheduleProfile::Quick => CampaignConfig::quick(spec.seed),
    };
    if spec.schedule.discovery_rounds > 0 {
        cfg.discovery_rounds = spec.schedule.discovery_rounds;
    }
    if spec.schedule.traces_per_vantage > 0 {
        cfg.traces_per_vantage = Some(spec.schedule.traces_per_vantage);
    }
    cfg.run_traceroute = spec.traceroute;
    cfg.validation.packets = spec.validator.packets.min(255) as u32;
    cfg.validation.ce_canary = spec.validator.ce_canary;
    cfg.validation.ect1_per_1000 = spec.validator.ect1_per_1000.round().clamp(0.0, 1000.0) as u32;
    cfg
}

/// Lower a spec to the engine configuration. Only `target_chunks` is part
/// of the experiment definition; every other field keeps its default.
/// Shards, worker processes, retries, the per-worker deadline, checkpoint
/// and resume are run-time settings that cannot change a result byte, so
/// they come from the caller (the CLI's flags), never from the spec.
pub fn engine_config(spec: &ScenarioSpec) -> EngineConfig {
    EngineConfig {
        target_chunks: spec.schedule.target_chunks,
        ..EngineConfig::default()
    }
}

/// Machine-readable summary of one scenario run — what `ecnudp run
/// --json` emits: scenario identity, engine shape, and the headline
/// numbers of every paper artefact. Everything except `wall_ms` is a
/// deterministic function of the spec.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Scenario name from the spec.
    pub scenario: String,
    /// Experiment seed.
    pub seed: u64,
    /// Population size the spec requested.
    pub servers: usize,
    /// Vantage points measured from.
    pub vantages: usize,
    /// Engine shards actually used (summed across worker processes).
    pub shards: usize,
    /// Worker processes (1 = in-process).
    pub processes: usize,
    /// Reducer merge-tree depth (shard rounds + process rounds).
    pub merge_depth: usize,
    /// Work units executed.
    pub units: usize,
    /// Targets discovered.
    pub targets: usize,
    /// Logical traces observed.
    pub traces: usize,
    /// Traceroute paths surveyed (0 when the survey is off).
    pub traceroute_paths: u64,
    /// Figure 2a: of not-ECT-reachable observations, % also reachable
    /// with ECT(0).
    pub fig2a_pct: f64,
    /// Figure 2b: of ECT-reachable observations, % also reachable
    /// without.
    pub fig2b_pct: f64,
    /// Figure 5: % of TCP-reachable observations negotiating ECN.
    pub tcp_ecn_negotiated_pct: f64,
    /// Table 2: φ correlation between UDP-ECT-unreachable and
    /// refuses-TCP-ECN.
    pub table2_phi: f64,
    /// Figure 4: responding hop observations.
    pub survey_total_hops: u64,
    /// Figure 4: hops that always passed the mark.
    pub survey_pass_hops: u64,
    /// Figure 4: hops observed stripping the mark.
    pub survey_strip_hops: u64,
    /// Figure 4: distinct first-strip locations.
    pub survey_strip_locations: u64,
    /// End-to-end wall clock, milliseconds (nondeterministic, like
    /// `peak_rss_kb`).
    pub wall_ms: f64,
    /// Peak resident set size in kB, max across parent and workers
    /// (`VmHWM`; 0 where procfs is unavailable — nondeterministic).
    pub peak_rss_kb: u64,
    /// Each process's `VmHWM` in kB: the parent first, then the worker
    /// slots in index order ([`EngineRun::process_peak_rss_kb`]).
    pub process_peak_rss_kb: Vec<u64>,
}

impl RunSummary {
    /// Assemble the summary from a finished run and its rendered report.
    pub fn new(spec: &ScenarioSpec, run: &EngineRun, report: &FullReport) -> RunSummary {
        let agg = &run.result.aggregates;
        // per-observation shares: Σ numerator ÷ Σ denominator over every
        // trace's counters, never a mean of per-trace ratios
        let sum = |field: fn(&TraceCounters) -> u32| -> u64 {
            agg.trace_stats
                .per_trace
                .values()
                .map(|t| u64::from(field(t)))
                .sum()
        };
        let pct = |num: u64, den: u64, none: f64| {
            if den == 0 {
                none
            } else {
                100.0 * num as f64 / den as f64
            }
        };
        let both = sum(|t| t.udp_both);
        RunSummary {
            scenario: spec.name.clone(),
            seed: spec.seed,
            servers: spec.population.servers,
            vantages: spec.vantage_count,
            shards: run.shards,
            processes: run.processes,
            merge_depth: run.merge_depth,
            units: run.units,
            targets: run.result.targets.len(),
            traces: agg.trace_stats.len(),
            traceroute_paths: agg.hops.paths,
            fig2a_pct: pct(both, sum(|t| t.udp_plain), 100.0),
            fig2b_pct: pct(both, sum(|t| t.udp_ect), 100.0),
            tcp_ecn_negotiated_pct: pct(sum(|t| t.tcp_negotiated), sum(|t| t.tcp_reachable), 0.0),
            table2_phi: agg.table2.phi(),
            survey_total_hops: report.figure4.total_hops as u64,
            survey_pass_hops: report.figure4.pass_hops as u64,
            survey_strip_hops: report.figure4.strip_hops as u64,
            survey_strip_locations: report.figure4.strip_locations as u64,
            wall_ms: run.timing.wall.as_secs_f64() * 1e3,
            peak_rss_kb: run.peak_rss_kb,
            process_peak_rss_kb: run.process_peak_rss_kb.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecn_pool::PoolPlan;

    #[test]
    fn paper2015_lowers_to_the_default_configs() {
        let spec = ScenarioSpec::paper2015();
        assert_eq!(spec.plan(), PoolPlan::paper());
        assert_eq!(campaign_config(&spec), CampaignConfig::default());
        assert_eq!(engine_config(&spec), EngineConfig::default());
    }

    #[test]
    fn quick_profile_and_overrides_lower_into_the_config() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
            seed = 9
            traceroute = false
            [schedule]
            profile = "quick"
            traces_per_vantage = 2
            discovery_rounds = 12
            target_chunks = 3
            "#,
        )
        .unwrap();
        let cfg = campaign_config(&spec);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.discovery_rounds, 12);
        assert_eq!(cfg.traces_per_vantage, Some(2));
        assert!(!cfg.run_traceroute);
        assert_eq!(cfg.batch2_start, CampaignConfig::quick(9).batch2_start);
        assert_eq!(engine_config(&spec).target_chunks, 3);
    }

    #[test]
    fn lowered_spec_runs_the_campaign_the_naive_walk_runs() {
        // the spec path and the hand-built path must be the same campaign
        let spec = ScenarioSpec::from_toml_str(
            r#"
            seed = 2015
            [population]
            servers = 24
            always_down_per_1000 = 42
            churn_per_1000 = 42
            [topology]
            t1_count = 3
            t2_count = 3
            [middleboxes]
            ect_droppers_per_1000 = 42
            flaky_ect_droppers_per_1000 = 42
            not_ect_droppers_per_1000 = 42
            ec2_not_ect_droppers_per_1000 = 42
            bleach_pe_per_1000 = 42
            bleach_border_per_1000 = 42
            bleach_interior_per_1000 = 42
            bleach_access_per_1000 = 42
            bleach_prob_pe_per_1000 = 42
            bleach_prob_access_per_1000 = 42
            [schedule]
            profile = "quick"
            traces_per_vantage = 1
            discovery_rounds = 20
            "#,
        )
        .unwrap();
        let cfg = campaign_config(&spec);
        for target_chunks in [1, 3] {
            let eng = EngineConfig {
                shards: Some(2),
                target_chunks,
                ..engine_config(&spec)
            };
            let via_spec = crate::engine::try_run_engine(&spec.plan(), &cfg, &eng).unwrap();
            let direct = crate::naive::naive_campaign(&spec.plan(), &cfg, target_chunks);
            let report = FullReport::from_campaign(&via_spec.result);
            assert_eq!(
                report.render(),
                crate::naive::naive_report(&direct).render(),
                "spec-driven and direct campaigns must render identically"
            );
            let summary = RunSummary::new(&spec, &via_spec, &report);
            assert_eq!(summary.servers, 24);
            assert_eq!(summary.traces, 13);

            // the headline shares are per observation: Σ numerator ÷
            // Σ denominator over every outcome of every raw record
            let count = |hit: fn(&crate::trace::ServerOutcome) -> bool| {
                direct
                    .traces
                    .iter()
                    .flat_map(|t| &t.outcomes)
                    .filter(|o| hit(o))
                    .count() as f64
            };
            let both = count(|o| o.udp_plain.reachable && o.udp_ect.reachable);
            let plain = count(|o| o.udp_plain.reachable);
            let pct_a = 100.0 * both / plain;
            assert_eq!(summary.fig2a_pct, pct_a, "chunks = {target_chunks}");
            assert_eq!(
                summary.fig2b_pct,
                100.0 * both / count(|o| o.udp_ect.reachable),
                "chunks = {target_chunks}"
            );
            assert_eq!(
                summary.tcp_ecn_negotiated_pct,
                100.0 * count(|o| o.tcp_ecn.negotiated_ecn)
                    / count(|o| o.tcp_plain.reachable || o.tcp_ecn.reachable),
                "chunks = {target_chunks}"
            );
            assert_eq!(
                summary.table2_phi,
                crate::naive::table2(&direct.traces).phi,
                "chunks = {target_chunks}"
            );
            // the world is uneven enough that a mean of per-trace ratios
            // would read differently
            let per_trace_mean = direct.traces.iter().map(|t| t.fig2a_pct()).sum::<f64>() / 13.0;
            assert!(
                (per_trace_mean - pct_a).abs() > 1e-9,
                "{per_trace_mean} vs {pct_a}"
            );
            // and the summary serialises
            let json = serde_json::to_string(&summary).unwrap();
            assert!(json.contains("\"scenario\""));
        }
    }
}
