//! The §4.2 traceroute survey on its own: ECN-aware traceroute from every
//! vantage to every pool server, the hop-level mark-survival statistics,
//! and Graphviz DOT exports of the per-vantage maps (the paper's Figure 4).
//!
//! ```text
//! cargo run --release --example traceroute_survey -- [servers] [seed] [outdir]
//! ```
//!
//! DOT files land in `outdir` (default `target/fig4`); render one with
//! `twopi -Tsvg fig4-ec2-ireland.dot -o map.svg`.

use ecnudp::core::analysis::{figure4_dot, Figure4};
use ecnudp::core::{traceroute, CampaignConfig, HopSurveyCounts, Reduce, RouteCtx, VantageRoutes};
use ecnudp::pool::{build_scenario, PoolPlan};

fn main() {
    let mut args = std::env::args().skip(1);
    let servers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(400);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2015);
    let outdir = args.next().unwrap_or_else(|| "target/fig4".to_string());

    let plan = if servers == 2500 {
        PoolPlan::paper()
    } else {
        PoolPlan::scaled(servers)
    };
    let cfg = CampaignConfig {
        seed,
        ..CampaignConfig::default()
    };
    let mut sc = build_scenario(&plan, seed);
    let targets: Vec<std::net::Ipv4Addr> = sc.servers.iter().map(|s| s.addr).collect();

    eprintln!(
        "tracerouting {} targets from {} vantages…",
        targets.len(),
        sc.vantages.len()
    );
    // each vantage's survey streams into the hop reducer, as in a campaign
    let mut counts = HopSurveyCounts::default();
    let mut routes = Vec::new();
    for vi in 0..sc.vantages.len() {
        let handle = sc.vantages[vi].handle.clone();
        let mut paths = Vec::with_capacity(targets.len());
        for &dst in &targets {
            paths.push(traceroute(&mut sc.sim, &handle, dst, &cfg.traceroute));
        }
        let vr = VantageRoutes {
            vantage_key: sc.vantages[vi].spec.key.to_string(),
            paths,
        };
        let ctx = RouteCtx {
            vantage: vi,
            asdb: &sc.asdb,
        };
        counts.observe_routes(&vr, &ctx);
        routes.push(vr);
    }

    let stats = Figure4::from_counts(&counts, &sc.asdb);
    println!("{}", stats.render());

    std::fs::create_dir_all(&outdir).expect("create output dir");
    for vr in &routes {
        let path = format!("{outdir}/fig4-{}.dot", vr.vantage_key);
        std::fs::write(&path, figure4_dot(vr)).expect("write dot");
        println!("wrote {path}");
    }
    println!(
        "\nplanted bleachers (audit): {} always, {} sometimes",
        sc.truth.bleach_always.len(),
        sc.truth.bleach_sometimes.len()
    );
}
