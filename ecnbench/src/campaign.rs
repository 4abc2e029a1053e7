//! The measured program: one campaign exactly as `ecnudp run` executes
//! it, with no subscriber. A measured child runs this once and prints
//! one [`CampaignLine`]; the parent times the child from outside.

use ecn_core::{campaign_config, try_run_engine, EngineConfig, FullReport, MpError};
use ecn_pool::ScenarioSpec;
use serde::{Deserialize, Serialize};

/// What one campaign child reports on its stdout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignLine {
    /// Parent-side blueprint build + discovery, seconds.
    pub setup_s: f64,
    /// Targets discovered.
    pub targets: usize,
    /// Logical traces observed.
    pub traces: usize,
    /// Largest `VmHWM` across this process and its workers, kB.
    pub peak_rss_kb: u64,
    /// Unit instantiation + probing + reduction, summed over shards and
    /// workers (`EngineTiming`), seconds.
    pub unit_busy_s: f64,
    /// [`digest`] of the rendered report.
    pub digest: String,
}

/// Run one campaign: lower the spec, run the engine, render the report.
pub fn run(spec: &ScenarioSpec, eng: &EngineConfig) -> Result<CampaignLine, MpError> {
    let run = try_run_engine(&spec.plan(), &campaign_config(spec), eng)?;
    let report = FullReport::from_campaign(&run.result).render();
    Ok(CampaignLine {
        setup_s: (run.timing.blueprint_build + run.timing.discovery).as_secs_f64(),
        targets: run.result.targets.len(),
        traces: run.result.aggregates.trace_stats.len(),
        peak_rss_kb: run.peak_rss_kb,
        unit_busy_s: (run.timing.instantiate + run.timing.probe + run.timing.reduce).as_secs_f64(),
        digest: digest(report.as_bytes()),
    })
}

/// FNV-1a-64 of the report bytes, as 16 hex digits: equal digests mean
/// byte-identical reports.
pub fn digest(bytes: &[u8]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}
