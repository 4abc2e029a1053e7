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
//! The measured run also re-executes through the observed entry point
//! with the no-op subscriber (`Subscriber = ()`): `S::ENABLED = false`
//! const-folds every event hook away, so the two walls must match.
//! `ECNUDP_BENCH_ENFORCE=1` fails the run if the no-op-subscriber
//! overhead exceeds 10% (allocation *equality* is pinned separately in
//! `tests/alloc_regression.rs`, and so is the event-loop's
//! events-per-observation budget).
//!
//! The section also records the host's CPU count and calibration score
//! ([`ecn_bench::calibration_kops`]) next to the wall-clock numbers.
//!
//! Scale knobs (env): `ECNUDP_BENCH_SERVERS` (default 150),
//! `ECNUDP_BENCH_TRACES` (per vantage, default 2).

use ecn_bench::BENCH_SEED;
use ecn_core::{try_run_engine, try_run_engine_observed, CampaignConfig, EngineConfig};
use ecn_pool::PoolPlan;
use std::time::Instant;

#[cfg(feature = "alloc-count")]
#[global_allocator]
static ALLOC: ecn_bench::alloc::CountingAlloc = ecn_bench::alloc::CountingAlloc;

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

    let plain = || try_run_engine(&plan, &cfg, &eng).expect("in-process campaign");
    // Warm-up: fault in code paths and allocator arenas.
    std::hint::black_box(plain());

    let t0 = Instant::now();
    let (run, allocs) = ecn_bench::alloc::count_allocations(plain);
    let wall_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let logical_traces = run.result.aggregates.trace_stats.len();
    let observations = logical_traces * run.result.targets.len();
    let obs_per_sec = observations as f64 / (wall_ms / 1000.0);
    let inst_ms_per_unit = run.timing.instantiate.as_secs_f64() * 1000.0 / run.units.max(1) as f64;

    println!(
        "[probe_hot_loop] {observations} observations in {wall_ms:.0} ms -> {obs_per_sec:.0} obs/s ({})",
        run.timing.render()
    );
    println!(
        "[probe_hot_loop] instantiate: {inst_ms_per_unit:.3} ms/unit over {} units",
        run.units
    );

    // Identical work through the observed entry point, no-op subscriber:
    // the zero-cost contract says this wall must match the plain one.
    let t1 = Instant::now();
    let (observed_run, ()) =
        try_run_engine_observed(&plan, &cfg, &eng, ()).expect("in-process campaign");
    let observed_ms = t1.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(
        run.result.aggregates, observed_run.result.aggregates,
        "Subscriber = () changed the measurement"
    );
    let noop_overhead_pct = (observed_ms / wall_ms - 1.0) * 100.0;
    println!(
        "[probe_hot_loop] no-op subscriber: {observed_ms:.0} ms observed vs {wall_ms:.0} ms plain \
         -> {noop_overhead_pct:+.1}% overhead"
    );

    let mut json = format!(
        "{{\n  \"servers\": {servers},\n  \"traces_per_vantage\": {traces_per_vantage},\n  \"num_cpus\": {num_cpus},\n  \"calibration_kops\": {calibration:.0},\n  \"observations\": {observations},\n  \"wall_ms\": {wall_ms:.1},\n  \"observations_per_sec\": {obs_per_sec:.0},\n  \"instantiate_ms_per_unit\": {inst_ms_per_unit:.3},\n  \"noop_subscriber_overhead_pct\": {noop_overhead_pct:.1},\n  \"alloc_counting\": {}",
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

    if std::env::var("ECNUDP_BENCH_ENFORCE").as_deref() == Ok("1") && noop_overhead_pct > 10.0 {
        eprintln!(
            "[probe_hot_loop] FAIL: no-op subscriber cost {noop_overhead_pct:.1}% \
             (the event hooks must compile away; budget 10% covers runner jitter)"
        );
        std::process::exit(1);
    }
}
