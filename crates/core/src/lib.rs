//! # ecn-core — the measurement study
//!
//! The primary contribution of McQuistin & Perkins (IMC 2015), as a
//! library: the measurement application that asks *"is ECN usable with
//! UDP?"* and the analysis that turns its raw traces into every table and
//! figure of the paper.
//!
//! ## Pipeline
//!
//! 1. [`discovery`] — enumerate the NTP pool via repeated DNS queries
//!    against `pool.ntp.org` and its country/region zones (§3).
//! 2. [`probes`] — per server, four measurements: NTP over not-ECT UDP,
//!    NTP over ECT(0)-marked UDP (5 retries × 1 s), HTTP over TCP, and
//!    HTTP over TCP with an ECN-setup SYN; verdicts come from a parallel
//!    packet capture, as in the paper's tcpdump methodology.
//! 3. [`mod@traceroute`] — ECN-aware traceroute: TTL-limited ECT(0) probes
//!    whose ICMP time-exceeded answers quote the header each router saw,
//!    revealing where marks are bleached (§4.2).
//! 4. [`campaign`] — the full 210-trace schedule across 13 vantages and
//!    two collection batches, plus the traceroute survey; [`engine`]
//!    executes it as blueprint-backed work units that its shards take
//!    from one shared cursor, streaming records into [`reducers`].
//! 5. [`analysis`] — Table 1/2 and Figures 2–6, each with a
//!    paper-style text rendering; [`analysis::FullReport`] bundles them.
//!
//! The probers talk to a [`ecn_stack::HostHandle`], whose surface mirrors
//! raw sockets with TOS/ECN control (`socket2`/`pnet` style); swapping the
//! simulated substrate for live sockets would not change this crate's
//! structure.
//!
//! Every campaign runs through one entry point, [`engine::try_run_engine`];
//! the [`engine::EngineRun`] it returns carries the run's unit records,
//! supervision log and trace sample, and [`events::write_metrics`] renders
//! them as the `--metrics` stream. A declarative
//! [`ecn_pool::ScenarioSpec`] lowers to its inputs via
//! [`scenario_run::campaign_config`] and [`scenario_run::engine_config`]
//! (the `ecnudp` CLI's path); the paper's fixed experiment is
//! `PoolPlan::paper()` with the default configurations.

#![warn(missing_docs)]

pub mod analysis;
pub mod campaign;
pub mod config;
pub mod discovery;
pub mod engine;
pub mod events;
mod fault;
pub mod mp;
pub mod probes;
pub mod reducers;
pub mod report;
pub mod scenario_run;
pub mod trace;
pub mod traceroute;

// The unit tests share the integration tests' naive reference oracle,
// which names this crate by its external path.
#[cfg(test)]
extern crate self as ecn_core;
#[cfg(test)]
#[path = "../tests/util/naive.rs"]
mod naive;

pub use analysis::FullReport;
pub use campaign::{
    discover_in, run_discovery, run_trace, run_traceroute_survey, schedule, schedule_for,
    CampaignResult, DiscoveryStats, ScheduledTrace, VantageRoutes,
};
pub use config::{CampaignConfig, ProbeConfig, TracerouteConfig};
pub use discovery::{discover, discovery_names, Discovery};
pub use engine::{try_run_engine, EngineConfig, EngineRun, EngineTiming, UnitOrder};
pub use events::{
    write_metrics, CheckpointWrites, SupervisionLog, UnitId, UnitRecord, WorkerFailure,
};
pub use mp::{
    maybe_worker, peak_rss_kb, read_checkpoint, Checkpoint, MpError, MpFailure, WORKER_ARG,
    WORKER_EXE_ENV,
};
pub use probes::{probe_tcp, probe_udp, TcpProbeResult, UdpProbeResult};
pub use reducers::{
    merge_depth, merge_tree, BatchCounts, CampaignAggregates, DifferentialCounts, HopSurveyCounts,
    Reduce, RouteCtx, Table2Counts, TraceCounters, TraceCtx, TraceStats,
};
pub use scenario_run::{campaign_config, engine_config, RunSummary};
pub use trace::{ServerOutcome, TraceRecord};
pub use traceroute::{traceroute, HopObservation, TraceroutePath};
