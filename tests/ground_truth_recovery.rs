//! The reproduction's core validity check: the measurement campaign,
//! working only from packets, must rediscover the ground truth the
//! scenario planted — blocked servers, bleaching routers, the EC2-only
//! oddity, web/ECN rates — without ever reading it.
//!
//! These campaigns run through the engine, which keeps no raw records:
//! every figure below is derived from the streamed aggregates, proving
//! the validity checks need no raw `TraceRecord`s either. The one
//! path-level check walks raw traceroute paths, which it takes from the
//! naive reference campaign (`crates/core/tests/util/naive.rs`).

#[path = "../crates/core/tests/util/naive.rs"]
mod naive;

use ecnudp::core::{try_run_engine, CampaignConfig, CampaignResult, EngineConfig, FullReport};
use ecnudp::netsim::NodeId;
use ecnudp::pool::{PoolPlan, Scenario};
use std::collections::HashSet;
use std::net::Ipv4Addr;

fn campaign(seed: u64) -> CampaignResult {
    let plan = PoolPlan::scaled(80);
    let cfg = CampaignConfig {
        discovery_rounds: 30,
        traces_per_vantage: Some(3),
        ..CampaignConfig::quick(seed)
    };
    run(&plan, &cfg)
}

fn run(plan: &PoolPlan, cfg: &CampaignConfig) -> CampaignResult {
    try_run_engine(plan, cfg, &EngineConfig::default())
        .expect("in-process campaign")
        .result
}

#[test]
fn planted_ect_blackholes_are_measured_and_nothing_else() {
    let result = campaign(21);
    assert!(result.traces.is_empty(), "the engine keeps no raw records");
    let f3 = FullReport::from_aggregates(&result).figure3;
    let planted: HashSet<Ipv4Addr> = result.truth.ect_blocked.iter().copied().collect();
    let measured: HashSet<Ipv4Addr> = f3.persistent_a.iter().copied().collect();
    // every always-blocked server is found from every location
    for addr in &planted {
        assert!(
            measured.contains(addr),
            "planted blackhole {addr} not measured"
        );
    }
    // and nothing spurious is persistent from EVERY location
    for addr in &measured {
        assert!(
            planted.contains(addr) || result.truth.ect_blocked_flaky.contains(addr),
            "false positive persistent blackhole {addr}"
        );
    }
}

#[test]
fn ec2_only_oddity_is_visible_only_from_ec2() {
    let result = campaign(22);
    let f3 = FullReport::from_aggregates(&result).figure3;
    let phoenix = result.truth.not_ect_blocked_ec2[0];
    for (location, servers) in &f3.per_location {
        let d = servers.get(&phoenix).expect("probed everywhere");
        let is_ec2 = location.starts_with("EC2");
        if is_ec2 {
            assert!(
                d.frac_b() > 0.5,
                "{location}: EC2 should see the 3b oddity (frac {})",
                d.frac_b()
            );
        } else {
            assert!(
                d.frac_b() < 0.5,
                "{location}: non-EC2 should not (frac {})",
                d.frac_b()
            );
        }
    }
}

#[test]
fn measured_ecn_share_tracks_planted_share() {
    let result = campaign(23);
    let f5 = FullReport::from_aggregates(&result).figure5;
    let planted_share =
        result.truth.web_ecn_on_count as f64 / result.truth.web_server_count.max(1) as f64;
    let measured_share = f5.negotiated_pct() / 100.0;
    assert!(
        (measured_share - planted_share).abs() < 0.12,
        "measured {measured_share:.3} vs planted {planted_share:.3}"
    );
}

#[test]
fn traceroute_finds_each_always_bleaching_router_region() {
    // Build the same world the campaign used and check that every planted
    // always-bleacher's address appears as (or immediately upstream of) a
    // measured strip location in at least one vantage's survey. The
    // path-level walk below needs the raw routes, which the naive
    // reference campaign keeps.
    let plan = PoolPlan::scaled(80);
    let cfg = CampaignConfig {
        discovery_rounds: 30,
        traces_per_vantage: Some(1),
        ..CampaignConfig::quick(24)
    };
    let result = naive::naive_campaign(&plan, &cfg, 1);
    assert_eq!(result.routes.len(), 13, "one survey per vantage");
    let f4 = FullReport::from_aggregates(&result).figure4;
    assert!(
        f4.strip_locations >= result.truth.bleach_always.len(),
        "each planted bleacher produces at least one observed strip location: {} < {}",
        f4.strip_locations,
        result.truth.bleach_always.len()
    );

    // reconstruct the world to map node ids to addresses
    let sc: Scenario = ecnudp::pool::build_scenario(
        &PoolPlan {
            churn_at: cfg.batch2_start,
            ..plan
        },
        cfg.seed,
    );
    let bleach_addrs: HashSet<Ipv4Addr> = result
        .truth
        .bleach_always
        .iter()
        .map(|(node, _): &(NodeId, _)| sc.sim.addr_of(*node))
        .collect();

    // every measured red run must start immediately downstream of a
    // planted bleacher (sometimes-bleachers excluded for strictness)
    let sometimes_addrs: HashSet<Ipv4Addr> = result
        .truth
        .bleach_sometimes
        .iter()
        .map(|(node, _)| sc.sim.addr_of(*node))
        .collect();
    let mut immediate = 0usize;
    let mut upstream_only = 0usize;
    let mut unexplained = 0usize;
    let mut checked = 0usize;
    for vr in &result.routes {
        for path in &vr.paths {
            let mut upstream: Vec<Ipv4Addr> = Vec::new();
            // Paths with a silent hop before the red run can't be
            // attributed (a loss burst may have hidden the bleacher's own
            // TTL) — skip them.
            if path
                .hops
                .iter()
                .take_while(|h| !h.modified(path.sent_ecn))
                .any(|h| h.router.is_none())
            {
                continue;
            }
            for hop in &path.hops {
                let Some(router) = hop.router else { continue };
                if hop.modified(path.sent_ecn) {
                    checked += 1;
                    let planted =
                        |a: &Ipv4Addr| bleach_addrs.contains(a) || sometimes_addrs.contains(a);
                    if upstream.last().map(planted).unwrap_or(false) {
                        immediate += 1;
                    } else if upstream.iter().any(planted) {
                        // a probabilistic bleacher can pass the mark for the
                        // probes of the next hop but strip it for a later
                        // TTL's probes — the red run then starts deeper
                        upstream_only += 1;
                    } else {
                        unexplained += 1;
                    }
                    break; // only the first red hop per path
                }
                upstream.push(router);
            }
        }
    }
    assert!(checked > 0, "some red runs observed");
    assert_eq!(
        unexplained, 0,
        "every red run has a planted bleacher upstream"
    );
    assert!(
        immediate * 10 >= checked * 9,
        "most red runs start immediately after the bleacher: {immediate}/{checked} (deeper: {upstream_only})"
    );
}

#[test]
fn no_ecn_blackhole_false_positives_without_planted_middleboxes() {
    // A world with zero ECN-hostile behaviour: the campaign must find no
    // persistent blackholes and (near-)perfect figure-2 percentages.
    let plan = PoolPlan {
        ect_blocked: 0,
        ect_blocked_flaky: 0,
        not_ect_blocked_global: 0,
        not_ect_blocked_ec2: 0,
        bleach_pe: 0,
        bleach_border: 0,
        bleach_interior: 0,
        bleach_access: 0,
        bleach_prob_pe: 0,
        bleach_prob_access: 0,
        ..PoolPlan::scaled(60)
    };
    let cfg = CampaignConfig {
        discovery_rounds: 30,
        traces_per_vantage: Some(2),
        ..CampaignConfig::quick(25)
    };
    let result = run(&plan, &cfg);
    let report = FullReport::from_aggregates(&result);
    let f3 = &report.figure3;
    assert!(
        f3.persistent_a.is_empty(),
        "no planted middleboxes, no persistent blackholes: {:?}",
        f3.persistent_a
    );
    let f4 = &report.figure4;
    assert_eq!(f4.strip_hops, 0, "no bleachers, no red hops");
    assert_eq!(f4.pass_hops, f4.total_hops);
}
