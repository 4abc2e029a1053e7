//! Campaign engine sharding sweep: wall-clock per shard count for the
//! blueprint-backed work-stealing engine, against a faithful
//! reconstruction of the old per-vantage-thread runner (one **full**
//! seeded world rebuild per vantage thread — the cost the blueprint
//! split removed).
//!
//! Emits `BENCH_campaign.json` (wall-clock per configuration) so CI can
//! track the perf trajectory run over run.
//!
//! Regression gate: with `ECNUDP_BENCH_ENFORCE=1`, the run fails if
//! single-shard throughput regressed more than 20% against the committed
//! `BENCH_campaign.json`. The comparison uses the *hardware-normalised*
//! ratio `legacy_per_vantage_thread_ms / engine_ms_by_shards["1"]` — both
//! sides of each ratio are measured in the same process on the same
//! machine, so a slower CI runner cannot fake a regression (and a faster
//! one cannot hide a real one). The gate only fires when the committed
//! baseline was recorded at the same (servers, traces) scale.
//!
//! Scale knobs (env): `ECNUDP_BENCH_SERVERS` (default 150),
//! `ECNUDP_BENCH_TRACES` (per vantage, default 2).

use ecn_bench::BENCH_SEED;
use ecn_core::{run_trace, schedule, try_run_engine, CampaignConfig, EngineConfig};
use ecn_pool::{build_scenario, PoolPlan};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The old `run_campaign_parallel`, reconstructed: discovery in one world,
/// then one thread per vantage, each rebuilding the entire seeded world
/// before probing its slice of the schedule.
fn legacy_per_vantage_runner(plan: &PoolPlan, cfg: &CampaignConfig) -> usize {
    // The per-vantage thread rebuilds below need the churned plan the old
    // runner used; run_discovery pins churn itself, so this override only
    // exists for the build_scenario calls inside the threads.
    let plan = PoolPlan {
        churn_at: cfg.batch2_start,
        ..plan.clone()
    };
    let (discovery, proto) = ecn_core::run_discovery(&plan, cfg);
    let targets = discovery.targets;
    let vantage_count = proto.vantages.len();
    let mut trace_count = 0usize;
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for vi in 0..vantage_count {
            let plan = plan.clone();
            let targets = targets.clone();
            let cfg = *cfg;
            handles.push(scope.spawn(move |_| {
                // the cost under test: a full world build per thread
                let mut sc = build_scenario(&plan, cfg.seed);
                let mine: Vec<_> = schedule(&sc, &cfg)
                    .into_iter()
                    .filter(|t| t.vantage == vi)
                    .collect();
                let mut traces = Vec::with_capacity(mine.len());
                for st in &mine {
                    if sc.sim.now() < st.start {
                        sc.sim.run_until(st.start);
                    }
                    traces.push(run_trace(&mut sc, vi, st.batch, &targets, &cfg));
                }
                traces.len()
            }));
        }
        for h in handles {
            trace_count += h.join().expect("vantage thread");
        }
    })
    .expect("legacy threads");
    trace_count
}

fn main() {
    let servers = env_usize("ECNUDP_BENCH_SERVERS", 150);
    let traces_per_vantage = env_usize("ECNUDP_BENCH_TRACES", 2);
    let num_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let plan = PoolPlan::scaled(servers);
    let cfg = CampaignConfig {
        discovery_rounds: 40,
        traces_per_vantage: Some(traces_per_vantage),
        run_traceroute: false,
        ..CampaignConfig::quick(BENCH_SEED)
    };

    println!(
        "[campaign_sharding] {servers} servers, {traces_per_vantage} traces/vantage, {num_cpus} cpus"
    );

    // Each configuration is timed as the best of three runs: wall-clock
    // on shared/1-cpu runners jitters ±10%, and the regression gate below
    // needs numbers steadier than that.
    const REPEATS: usize = 3;

    // Baseline: the deleted per-vantage-thread runner (13 full builds).
    let mut legacy_ms = f64::MAX;
    let mut legacy_traces = 0;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        legacy_traces = legacy_per_vantage_runner(&plan, &cfg);
        legacy_ms = legacy_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
    }
    println!("[campaign_sharding] legacy per-vantage-thread runner: {legacy_ms:.0} ms ({legacy_traces} traces)");

    // The engine, swept across shard counts.
    let mut sweep: Vec<usize> = vec![1, 2, 4, num_cpus, 13];
    sweep.sort_unstable();
    sweep.dedup();
    let mut rows: Vec<(usize, f64)> = Vec::new();
    let mut first_report: Option<String> = None;
    for &shards in &sweep {
        let mut ms = f64::MAX;
        let mut timing = None;
        for _ in 0..REPEATS {
            let t0 = Instant::now();
            let run = try_run_engine(&plan, &cfg, &EngineConfig::with_shards(shards))
                .expect("in-process campaign");
            let elapsed = t0.elapsed().as_secs_f64() * 1000.0;
            if elapsed < ms {
                ms = elapsed;
                timing = Some(run.timing);
            }
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
        println!(
            "[campaign_sharding] engine shards={shards}: {ms:.0} ms ({})",
            timing.expect("timed at least once").render()
        );
        rows.push((shards, ms));
    }

    let engine_at_cpus = rows
        .iter()
        .find(|(s, _)| *s == num_cpus)
        .map(|(_, ms)| *ms)
        .expect("num_cpus swept");
    println!(
        "[campaign_sharding] engine@num_cpus {engine_at_cpus:.0} ms vs legacy {legacy_ms:.0} ms → speedup {:.2}x",
        legacy_ms / engine_at_cpus
    );

    // Regression gate against the committed artefact (see module docs).
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_campaign.json");
    let engine_1 = rows
        .iter()
        .find(|(s, _)| *s == 1)
        .map(|(_, ms)| *ms)
        .expect("shards=1 swept");
    let current_ratio = legacy_ms / engine_1;
    if let Ok(committed) = std::fs::read_to_string(&out) {
        let sec = "campaign_sharding";
        let committed_scale = (
            ecn_bench::bench_json_number(&committed, sec, &["servers"]),
            ecn_bench::bench_json_number(&committed, sec, &["traces_per_vantage"]),
        );
        let committed_ratio =
            ecn_bench::bench_json_number(&committed, sec, &["legacy_per_vantage_thread_ms"])
                .zip(ecn_bench::bench_json_number(
                    &committed,
                    sec,
                    &["engine_ms_by_shards", "1"],
                ))
                .map(|(l, e)| l / e);
        match (committed_scale, committed_ratio) {
            ((Some(s), Some(t)), Some(baseline))
                if s as usize == servers && t as usize == traces_per_vantage =>
            {
                println!(
                    "[campaign_sharding] single-shard speedup vs legacy: {current_ratio:.2}x (committed baseline {baseline:.2}x)"
                );
                if std::env::var("ECNUDP_BENCH_ENFORCE").as_deref() == Ok("1")
                    && current_ratio < baseline * 0.8
                {
                    eprintln!(
                        "[campaign_sharding] FAIL: single-shard throughput regressed >20% \
                         ({current_ratio:.2}x vs committed {baseline:.2}x)"
                    );
                    std::process::exit(1);
                }
            }
            _ => println!(
                "[campaign_sharding] committed baseline missing or at a different scale — regression gate skipped"
            ),
        }
    }

    // BENCH_campaign.json: the perf trajectory artefact. Each bench target
    // owns one top-level section; `update_bench_json` preserves the rest.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"servers\": {servers},\n"));
    json.push_str(&format!(
        "  \"traces_per_vantage\": {traces_per_vantage},\n"
    ));
    json.push_str(&format!("  \"num_cpus\": {num_cpus},\n"));
    json.push_str(&format!(
        "  \"legacy_per_vantage_thread_ms\": {legacy_ms:.1},\n"
    ));
    json.push_str("  \"engine_ms_by_shards\": {\n");
    for (i, (shards, ms)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!("    \"{shards}\": {ms:.1}{comma}\n"));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"speedup_at_num_cpus\": {:.3}\n",
        legacy_ms / engine_at_cpus
    ));
    json.push('}');
    // cargo runs benches with CWD = the package dir; emit at the workspace
    // root where CI picks the artefact up
    ecn_bench::update_bench_json(&out, "campaign_sharding", &json);
    println!("[campaign_sharding] wall-clock table -> BENCH_campaign.json");
}
