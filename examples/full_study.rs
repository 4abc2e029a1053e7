//! The complete measurement study, end to end: discovery, the 210-trace
//! campaign from all 13 vantages, the traceroute survey, and every table
//! and figure of the paper — executed by the sharded campaign engine.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example full_study                 # paper scale (2500 servers)
//! cargo run --release --example full_study -- 250          # scaled-down population
//! cargo run --release --example full_study -- 250 42       # custom seed
//! ```
//!
//! The engine runs on as many shards as the machine has CPUs; the shard
//! count cannot change a report byte.
//!
//! Every table and figure is rendered from the engine's streamed
//! aggregates, so memory stays O(aggregates) no matter how many traces
//! the campaign schedules. To export the raw per-trace records (the
//! dataset), run the CLI with a trace sampler at rate 1:
//! `ecnudp run --scenario scenarios/paper2015.toml --metrics records.jsonl
//! --sample-traces 1`.
//!
//! At paper scale this simulates hundreds of millions of per-hop packet
//! events; build with `--release`.

use ecnudp::core::{try_run_engine, CampaignConfig, EngineConfig, FullReport};
use ecnudp::pool::PoolPlan;

fn main() {
    let mut args = std::env::args().skip(1);
    let servers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2500);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2015);

    let plan = if servers == 2500 {
        PoolPlan::paper()
    } else {
        PoolPlan::scaled(servers)
    };
    let cfg = CampaignConfig {
        seed,
        ..CampaignConfig::default()
    };

    eprintln!(
        "building the simulated Internet: {} servers, ~{} ASes, 13 vantages…",
        plan.servers,
        plan.total_as_count()
    );
    let t0 = std::time::Instant::now();
    let run = try_run_engine(&plan, &cfg, &EngineConfig::default())
        .expect("an in-process campaign cannot fail");
    let result = &run.result;
    eprintln!(
        "campaign done in {:.1}s wall ({} shards over {} work units): {} targets discovered, {} traces, {} traceroute paths",
        t0.elapsed().as_secs_f64(),
        run.shards,
        run.units,
        result.targets.len(),
        result.aggregates.trace_stats.len(),
        result.aggregates.hops.paths,
    );
    eprintln!(
        "engine timing: blueprint build {:.3}s | discovery {:.1}s | instantiate {:.3}s | probe {:.1}s | reduce {:.3}s",
        run.timing.blueprint_build.as_secs_f64(),
        run.timing.discovery.as_secs_f64(),
        run.timing.instantiate.as_secs_f64(),
        run.timing.probe.as_secs_f64(),
        run.timing.reduce.as_secs_f64(),
    );

    let report = FullReport::from_campaign(result);
    println!("{}", report.render());

    // Ground-truth audit (not visible to the prober; printed for
    // EXPERIMENTS.md transparency).
    println!("--- planted ground truth (audit) ---");
    println!(
        "ECT-UDP-blocking middleboxes: {} always + {} on flapping ECMP branches",
        result.truth.ect_blocked.len(),
        result.truth.ect_blocked_flaky.len()
    );
    println!(
        "not-ECT-blocking oddities: {} global + {} EC2-only",
        result.truth.not_ect_blocked.len(),
        result.truth.not_ect_blocked_ec2.len()
    );
    println!(
        "bleaching routers: {} always + {} sometimes; web servers: {} ({} ECN-capable); dead: {}, churned: {}",
        result.truth.bleach_always.len(),
        result.truth.bleach_sometimes.len(),
        result.truth.web_server_count,
        result.truth.web_ecn_on_count,
        result.truth.always_down_count,
        result.truth.churn_down_count,
    );
}
