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
//! Each side runs [`REPEATS`] times, alternating with the other and
//! swapping which goes first every round: plain `try_run_engine`, and the
//! observed entry point with the no-op subscriber (`Subscriber = ()`),
//! whose `S::ENABLED = false` const-folds every event hook away. Both
//! sides run the same function, so their gap is the host's noise, and
//! the section records the median and spread (max − min) of wall time,
//! observations per second and the overhead. `ECNUDP_BENCH_ENFORCE=1`
//! fails the run if the median observed wall exceeds the median plain
//! wall by more than 10% (allocation counts and events per observation
//! are pinned separately in `tests/alloc_regression.rs`).
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

/// Timed runs per side, alternating.
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

    let plain = || try_run_engine(&plan, &cfg, &eng).expect("in-process campaign");
    let observed = || {
        let (run, ()) =
            try_run_engine_observed(&plan, &cfg, &eng, ()).expect("in-process campaign");
        run
    };
    // Warm-up: fault in code paths and allocator arenas.
    std::hint::black_box(plain());

    let ms_since = |t0: Instant| t0.elapsed().as_secs_f64() * 1000.0;
    let time_plain = || {
        let t0 = Instant::now();
        let (run, allocs) = ecn_bench::alloc::count_allocations(plain);
        (run, allocs, ms_since(t0))
    };
    let time_observed = || {
        let t0 = Instant::now();
        let run = observed();
        (run, ms_since(t0))
    };
    let mut plain_ms = Vec::with_capacity(REPEATS);
    let mut observed_ms = Vec::with_capacity(REPEATS);
    let mut first = None;
    for round in 0..REPEATS {
        // alternate which side goes first, so drift hits both alike
        let ((run, allocs, p_ms), (observed_run, o_ms)) = if round % 2 == 0 {
            let p = time_plain();
            (p, time_observed())
        } else {
            let o = time_observed();
            (time_plain(), o)
        };
        assert_eq!(
            run.result.aggregates, observed_run.result.aggregates,
            "Subscriber = () changed the measurement"
        );
        plain_ms.push(p_ms);
        observed_ms.push(o_ms);
        first.get_or_insert((run, allocs));
    }
    let (run, allocs) = first.expect("at least one round");

    let logical_traces = run.result.aggregates.trace_stats.len();
    let observations = logical_traces * run.result.targets.len();
    let per_sec = |ms: &f64| observations as f64 / (ms / 1000.0);
    let overheads: Vec<f64> = plain_ms
        .iter()
        .zip(&observed_ms)
        .map(|(p, o)| (o / p - 1.0) * 100.0)
        .collect();
    let (wall_ms, wall_spread) = median_spread(&plain_ms);
    let (observed_wall_ms, observed_spread) = median_spread(&observed_ms);
    let (obs_per_sec, obs_per_sec_spread) =
        median_spread(&plain_ms.iter().map(per_sec).collect::<Vec<_>>());
    let (_, overhead_spread) = median_spread(&overheads);
    let noop_overhead_pct = (observed_wall_ms / wall_ms - 1.0) * 100.0;
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
    println!(
        "[probe_hot_loop] no-op subscriber: median {observed_wall_ms:.0} ms observed vs \
         {wall_ms:.0} ms plain -> {noop_overhead_pct:+.1}% overhead (per-pair spread \
         {overhead_spread:.1} points)"
    );

    let mut json = format!(
        "{{\n  \"servers\": {servers},\n  \"traces_per_vantage\": {traces_per_vantage},\n  \
         \"num_cpus\": {num_cpus},\n  \"calibration_kops\": {calibration:.0},\n  \
         \"repeats\": {REPEATS},\n  \"observations\": {observations},\n  \
         \"wall_ms\": {wall_ms:.1},\n  \"wall_ms_spread\": {wall_spread:.1},\n  \
         \"observations_per_sec\": {obs_per_sec:.0},\n  \
         \"observations_per_sec_spread\": {obs_per_sec_spread:.0},\n  \
         \"instantiate_ms_per_unit\": {inst_ms_per_unit:.3},\n  \
         \"observed_wall_ms\": {observed_wall_ms:.1},\n  \
         \"observed_wall_ms_spread\": {observed_spread:.1},\n  \
         \"noop_subscriber_overhead_pct\": {noop_overhead_pct:.1},\n  \
         \"noop_subscriber_overhead_spread_pct\": {overhead_spread:.1},\n  \
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

    if std::env::var("ECNUDP_BENCH_ENFORCE").as_deref() == Ok("1") && noop_overhead_pct > 10.0 {
        eprintln!(
            "[probe_hot_loop] FAIL: no-op subscriber median cost {noop_overhead_pct:.1}% \
             (the event hooks must compile away; budget 10% covers runner jitter)"
        );
        std::process::exit(1);
    }
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
