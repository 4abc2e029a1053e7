//! Probe hot-loop bench: throughput and allocation discipline of the
//! (instantiate → probe → reduce) inner loop on a single shard.
//!
//! Reports, per `BENCH_campaign.json` section `probe_hot_loop`:
//! - `observations_per_sec` — (server, trace) observations absorbed per
//!   wall second, single shard (so scheduler parallelism can't flatter
//!   the inner loop);
//! - `instantiate_ms_per_unit` — what stamping one unit world from the
//!   blueprint skeleton costs;
//! - `allocations_per_observation` — only when built with
//!   `--features alloc-count`, which installs the counting global
//!   allocator (left out of default runs so the gauge can't perturb the
//!   wall-clock numbers).
//!
//! The campaign (`try_run_engine`) runs [`REPEATS`] times, and the
//! section records the median and spread (max − min) of wall time and
//! observations per second. The bench gates nothing: allocation counts
//! and events per observation are pinned in `tests/alloc_regression.rs`,
//! and that the event hooks compile away without a subscriber
//! (`Subscriber::ENABLED` is `false` for `()`) in `ecn-core`'s
//! `events::tests::noop_subscriber_is_disabled`.
//!
//! The section also records the host's CPU count and calibration score
//! ([`ecn_bench::calibration_kops`]) next to the wall-clock numbers.
//!
//! Scale knobs (env): `ECNUDP_BENCH_SERVERS` (default 150),
//! `ECNUDP_BENCH_TRACES` (per vantage, default 2).

use ecn_bench::BENCH_SEED;
use ecn_core::{try_run_engine, CampaignConfig, EngineConfig};
use ecn_pool::PoolPlan;
use std::time::Instant;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: ecn_bench::alloc::CountingAlloc = ecn_bench::alloc::CountingAlloc;

/// Timed runs.
const REPEATS: usize = 5;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let servers = env_usize("ECNUDP_BENCH_SERVERS", 150);
    let traces_per_vantage = env_usize("ECNUDP_BENCH_TRACES", 2);
    let plan = PoolPlan::scaled(servers);
    let cfg = CampaignConfig {
        discovery_rounds: 40,
        traces_per_vantage: Some(traces_per_vantage),
        run_traceroute: false,
        ..CampaignConfig::quick(BENCH_SEED)
    };
    let eng = EngineConfig::with_shards(1);
    let num_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let calibration = ecn_bench::calibration_kops();

    println!(
        "[probe_hot_loop] {servers} servers, {traces_per_vantage} traces/vantage, 1 shard, \
         {num_cpus} cpus, calibration {calibration:.0} kops{}",
        if cfg!(feature = "alloc-count") {
            ", counting allocations"
        } else {
            ""
        }
    );

    let campaign = || try_run_engine(&plan, &cfg, &eng).expect("in-process campaign");
    // Warm-up: fault in code paths and allocator arenas.
    std::hint::black_box(campaign());

    let mut wall_samples = Vec::with_capacity(REPEATS);
    let mut first = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let (run, allocs) = ecn_bench::alloc::count_allocations(campaign);
        wall_samples.push(t0.elapsed().as_secs_f64() * 1000.0);
        first.get_or_insert((run, allocs));
    }
    let (run, allocs) = first.expect("at least one run");

    let logical_traces = run.result.aggregates.trace_stats.len();
    let observations = logical_traces * run.result.targets.len();
    let per_sec = |ms: &f64| observations as f64 / (ms / 1000.0);
    let (wall_ms, wall_spread) = median_spread(&wall_samples);
    let (obs_per_sec, obs_per_sec_spread) =
        median_spread(&wall_samples.iter().map(per_sec).collect::<Vec<_>>());
    let inst_ms_per_unit = run.timing.instantiate.as_secs_f64() * 1000.0 / run.units.max(1) as f64;

    println!(
        "[probe_hot_loop] {observations} observations: median {wall_ms:.0} ms (spread \
         {wall_spread:.0} ms over {REPEATS} runs) -> {obs_per_sec:.0} obs/s (spread \
         {obs_per_sec_spread:.0}); first run: {}",
        run.timing.render()
    );
    println!(
        "[probe_hot_loop] instantiate: {inst_ms_per_unit:.3} ms/unit over {} units",
        run.units
    );

    let mut json = format!(
        "{{\n  \"servers\": {servers},\n  \"traces_per_vantage\": {traces_per_vantage},\n  \
         \"num_cpus\": {num_cpus},\n  \"calibration_kops\": {calibration:.0},\n  \
         \"repeats\": {REPEATS},\n  \"observations\": {observations},\n  \
         \"wall_ms\": {wall_ms:.1},\n  \"wall_ms_spread\": {wall_spread:.1},\n  \
         \"observations_per_sec\": {obs_per_sec:.0},\n  \
         \"observations_per_sec_spread\": {obs_per_sec_spread:.0},\n  \
         \"instantiate_ms_per_unit\": {inst_ms_per_unit:.3},\n  \
         \"alloc_counting\": {}",
        cfg!(feature = "alloc-count"),
    );
    if cfg!(feature = "alloc-count") {
        let per_obs = allocs as f64 / observations.max(1) as f64;
        println!(
            "[probe_hot_loop] {allocs} allocations for {observations} observations -> {per_obs:.2} allocs/observation"
        );
        json.push_str(&format!(
            ",\n  \"allocations\": {allocs},\n  \"allocations_per_observation\": {per_obs:.2}"
        ));
    }
    json.push_str("\n}");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    ecn_bench::update_bench_json(&out, "probe_hot_loop", &json);
    println!("[probe_hot_loop] hot-loop table -> BENCH_campaign.json");
}

/// The median and the spread (max − min) of `samples`.
fn median_spread(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        sorted[sorted.len() / 2],
        sorted[sorted.len() - 1] - sorted[0],
    )
}
