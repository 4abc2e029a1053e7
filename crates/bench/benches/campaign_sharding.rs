//! Campaign engine sharding sweep: wall-clock per shard count for the
//! blueprint-backed work-stealing engine, with every configuration's
//! report asserted byte-identical to the first.
//!
//! Emits the `campaign_sharding` section of `BENCH_campaign.json`: the
//! median and spread (max − min) of the repeated runs per shard count,
//! next to the host's CPU count and calibration score
//! ([`ecn_bench::calibration_kops`]). Wall time is guarded end to end by
//! the `ecnbench` benchmark; this sweep only records the trajectory.
//!
//! Scale knobs (env): `ECNUDP_BENCH_SERVERS` (default 150),
//! `ECNUDP_BENCH_TRACES` (per vantage, default 2).

use ecn_bench::BENCH_SEED;
use ecn_core::{try_run_engine, CampaignConfig, EngineConfig};
use ecn_pool::PoolPlan;
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let servers = env_usize("ECNUDP_BENCH_SERVERS", 150);
    let traces_per_vantage = env_usize("ECNUDP_BENCH_TRACES", 2);
    let num_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let calibration = ecn_bench::calibration_kops();

    let plan = PoolPlan::scaled(servers);
    let cfg = CampaignConfig {
        discovery_rounds: 40,
        traces_per_vantage: Some(traces_per_vantage),
        run_traceroute: false,
        ..CampaignConfig::quick(BENCH_SEED)
    };

    println!(
        "[campaign_sharding] {servers} servers, {traces_per_vantage} traces/vantage, {num_cpus} cpus, \
         calibration {calibration:.0} kops"
    );

    // Wall-clock on shared/1-cpu runners jitters ±10%, so each
    // configuration runs several times and records median and spread.
    const REPEATS: usize = 5;

    let mut sweep: Vec<usize> = vec![1, 2, 4, num_cpus, 13];
    sweep.sort_unstable();
    sweep.dedup();
    let mut rows: Vec<(usize, f64, f64)> = Vec::new();
    let mut first_report: Option<String> = None;
    for &shards in &sweep {
        let mut ms = Vec::with_capacity(REPEATS);
        let mut timing = None;
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            let run = try_run_engine(&plan, &cfg, &EngineConfig::with_shards(shards))
                .expect("in-process campaign");
            ms.push(t0.elapsed().as_secs_f64() * 1000.0);
            timing = Some(run.timing);
            // render so every configuration proves the byte-identical
            // contract
            let report = ecn_core::FullReport::from_campaign(&run.result).render();
            match &first_report {
                None => first_report = Some(report),
                Some(expected) => {
                    assert_eq!(expected, &report, "report drifted across shard counts")
                }
            }
        }
        ms.sort_by(f64::total_cmp);
        let (median, spread) = (ms[REPEATS / 2], ms[REPEATS - 1] - ms[0]);
        println!(
            "[campaign_sharding] engine shards={shards}: median {median:.0} ms, spread {spread:.0} ms \
             (last run: {})",
            timing.expect("timed at least once").render()
        );
        rows.push((shards, median, spread));
    }

    // BENCH_campaign.json: the perf trajectory artefact. Each bench target
    // owns one top-level section; `update_bench_json` preserves the rest.
    let by_shards = |pick: fn(&(usize, f64, f64)) -> f64| {
        let entries: Vec<String> = rows
            .iter()
            .map(|row| format!("    \"{}\": {:.1}", row.0, pick(row)))
            .collect();
        format!("{{\n{}\n  }}", entries.join(",\n"))
    };
    let json = format!(
        "{{\n  \"servers\": {servers},\n  \"traces_per_vantage\": {traces_per_vantage},\n  \
         \"num_cpus\": {num_cpus},\n  \"calibration_kops\": {calibration:.0},\n  \
         \"repeats\": {REPEATS},\n  \"engine_ms_by_shards\": {},\n  \
         \"engine_ms_spread_by_shards\": {}\n}}",
        by_shards(|r| r.1),
        by_shards(|r| r.2),
    );
    // cargo runs benches with CWD = the package dir; emit at the workspace
    // root where CI picks the artefact up
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    ecn_bench::update_bench_json(&out, "campaign_sharding", &json);
    println!("[campaign_sharding] wall-clock table -> BENCH_campaign.json");
}
