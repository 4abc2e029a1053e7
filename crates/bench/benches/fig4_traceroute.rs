//! Figure 4 / §4.2: the ECN traceroute survey — 13 vantages × 2500
//! targets, hop-level mark-survival statistics, AS-boundary analysis, and
//! DOT map exports.

use ecn_bench::{time_kernel, BENCH_SEED};
use ecn_core::analysis::{figure4_dot, Figure4};
use ecn_core::{traceroute, CampaignConfig, HopSurveyCounts, Reduce, RouteCtx, VantageRoutes};
use ecn_pool::{build_scenario, PoolPlan};

fn main() {
    let cfg = CampaignConfig {
        seed: BENCH_SEED,
        ..CampaignConfig::default()
    };
    let plan = PoolPlan::paper();

    // the survey itself, parallel over vantages (as the campaign runs it)
    let t0 = std::time::Instant::now();
    let mut routes: Vec<VantageRoutes> = Vec::new();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for vi in 0..13 {
            let plan = plan.clone();
            handles.push(scope.spawn(move |_| {
                let mut sc = build_scenario(&plan, cfg.seed);
                let handle = sc.vantages[vi].handle.clone();
                let targets: Vec<std::net::Ipv4Addr> = sc.servers.iter().map(|s| s.addr).collect();
                let mut paths = Vec::with_capacity(targets.len());
                for dst in targets {
                    paths.push(traceroute(&mut sc.sim, &handle, dst, &cfg.traceroute));
                }
                VantageRoutes {
                    vantage_key: sc.vantages[vi].spec.key.to_string(),
                    paths,
                }
            }));
        }
        for h in handles {
            routes.push(h.join().expect("vantage thread"));
        }
    })
    .expect("survey threads");
    eprintln!(
        "[bench] traceroute survey: {} paths in {:.1}s",
        routes.iter().map(|r| r.paths.len()).sum::<usize>(),
        t0.elapsed().as_secs_f64()
    );

    // the campaign's own Figure 4 path: stream every vantage's survey
    // into the hop reducer, then finalize
    let sc = build_scenario(&plan, cfg.seed);
    let fold_survey = |routes: &[VantageRoutes]| {
        let mut counts = HopSurveyCounts::default();
        for (vantage, vr) in routes.iter().enumerate() {
            let ctx = RouteCtx {
                vantage,
                asdb: &sc.asdb,
            };
            counts.observe_routes(vr, &ctx);
        }
        Figure4::from_counts(&counts, &sc.asdb)
    };
    let stats = fold_survey(&routes);
    println!("{}", stats.render());

    let out = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out).expect("mkdir");
    for vr in routes.iter().take(2) {
        let path = out.join(format!("figure4_{}.dot", vr.vantage_key));
        std::fs::write(&path, figure4_dot(vr)).expect("write dot");
        println!("map -> {}", path.display());
    }

    time_kernel("figure4 aggregation (32500 paths)", 5, || {
        fold_survey(&routes)
    });
    time_kernel("one ECN traceroute (100-server world)", 10, || {
        let mut sc = build_scenario(&PoolPlan::scaled(100), BENCH_SEED);
        let handle = sc.vantages[0].handle.clone();
        let dst = sc.servers[0].addr;
        traceroute(&mut sc.sim, &handle, dst, &cfg.traceroute)
            .hops
            .len()
    });
}
