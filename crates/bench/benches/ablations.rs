//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Retry budget** — the 5×1 s retry schedule vs 0/1/3/8 retries: how
//!    much false unreachability each budget leaves on a bursty-lossy path.
//! 2. **ECT(0) vs ECT(1)** — the paper marks probes ECT(0) "to match TCP
//!    practice"; against capability-based middleboxes the codepoints are
//!    interchangeable, and this ablation verifies the model agrees.
//! 3. **Burst vs independent loss** — Gilbert–Elliott vs Bernoulli at the
//!    same mean loss: the probability that one burst defeats a whole probe
//!    session (the paper's transient-unreachability mechanism).
//! 4. **DropTail vs RED+ECN** — why the measured paths showed no CE
//!    (uncongested), yet ECN matters at a congested bottleneck.

use ecn_bench::BENCH_SEED;
use ecn_core::{probe_udp, ProbeConfig};
use ecn_netsim::{
    derive_rng, LinkProps, LossModel, LossProcess, Nanos, QueueDisc, RouteEntry, Router, Sim,
};
use ecn_pool::{build_scenario, PoolPlan, SpecialBehaviour};
use ecn_stack::AvailabilityModel;
use ecn_wire::{Datagram, Ecn, IpProto, Ipv4Header};
use std::net::Ipv4Addr;

fn main() {
    retry_budget();
    ect0_vs_ect1();
    burst_vs_independent();
    droptail_vs_red();
}

/// Ablation 1: retries vs false unreachability through the (bursty) UGla
/// wireless vantage.
fn retry_budget() {
    println!("=== ablation 1: UDP retry budget (bursty wireless path) ===");
    println!(
        "{:<10} {:>14} {:>12}",
        "retries", "unreachable", "false rate"
    );
    for retries in [0u32, 1, 3, 5, 8] {
        let mut sc = build_scenario(&PoolPlan::scaled(300), BENCH_SEED);
        let vantage = 3; // UGla wireless
        let handle = sc.vantages[vantage].handle.clone();
        let cap = sc.sim.attach_capture(sc.vantages[vantage].node);
        let cfg = ProbeConfig {
            udp_retries: retries,
            ..ProbeConfig::default()
        };
        // probe only servers that are genuinely up and unfiltered: every
        // "unreachable" verdict is a false one caused by loss
        let targets: Vec<Ipv4Addr> = sc
            .servers
            .iter()
            .filter(|s| {
                s.profile.availability == AvailabilityModel::AlwaysUp
                    && s.profile.special == SpecialBehaviour::None
            })
            .map(|s| s.addr)
            .collect();
        let mut unreachable = 0usize;
        for &t in &targets {
            cap.lock().clear();
            if !probe_udp(&mut sc.sim, &handle, &cap, t, Ecn::NotEct, &cfg).reachable {
                unreachable += 1;
            }
        }
        println!(
            "{:<10} {:>10}/{:<4} {:>11.2}%",
            retries,
            unreachable,
            targets.len(),
            100.0 * unreachable as f64 / targets.len() as f64
        );
    }
    println!();
}

/// Ablation 2: probe the planted ECT-dropping middlebox with every
/// codepoint.
fn ect0_vs_ect1() {
    println!("=== ablation 2: ECT(0) vs ECT(1) against an ECT-dropping middlebox ===");
    let mut sc = build_scenario(&PoolPlan::scaled(120), BENCH_SEED);
    let blocked = *sc.truth.ect_blocked.first().expect("planted middlebox");
    let healthy = sc
        .servers
        .iter()
        .find(|s| {
            s.profile.special == SpecialBehaviour::None
                && s.profile.availability == AvailabilityModel::AlwaysUp
        })
        .map(|s| s.addr)
        .expect("healthy server");
    let handle = sc.vantages[6].handle.clone();
    let cap = sc.sim.attach_capture(sc.vantages[6].node);
    let cfg = ProbeConfig::default();
    println!(
        "{:<22} {:>9} {:>9} {:>9}",
        "target", "not-ECT", "ECT(0)", "ECT(1)"
    );
    for (name, addr) in [("filtered server", blocked), ("healthy server", healthy)] {
        let mut row = Vec::new();
        for ecn in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1] {
            cap.lock().clear();
            let r = probe_udp(&mut sc.sim, &handle, &cap, addr, ecn, &cfg);
            row.push(if r.reachable { "yes" } else { "NO" });
        }
        println!("{:<22} {:>9} {:>9} {:>9}", name, row[0], row[1], row[2]);
    }
    println!("(capability-based filters treat both ECT codepoints alike — the paper's choice of ECT(0) is about TCP convention, not filtering)\n");
}

/// Ablation 3: P(all 6 session attempts lost) under equal-mean loss models.
fn burst_vs_independent() {
    println!("=== ablation 3: burst (Gilbert–Elliott) vs independent (Bernoulli) loss ===");
    println!(
        "{:<8} {:>22} {:>22}",
        "mean", "P(session fails) GE", "P(session fails) Bern"
    );
    for mean in [0.01f64, 0.03, 0.06, 0.12] {
        let trials = 60_000u64;
        let count_fail = |model: LossModel, salt: u64| -> f64 {
            let mut proc = LossProcess::new(model);
            let mut rng = derive_rng(BENCH_SEED ^ salt, "ablation3");
            let mut fails = 0u64;
            for t in 0..trials {
                let base = Nanos::from_secs(t * 40);
                let all =
                    (0..6).all(|k| proc.should_drop(base + Nanos::from_secs(k), false, &mut rng));
                fails += u64::from(all);
            }
            fails as f64 / trials as f64
        };
        let ge = count_fail(LossModel::congested_access(mean), 1);
        let bern = count_fail(LossModel::Bernoulli { p: mean }, 2);
        println!("{:<8} {:>21.4}% {:>21.6}%", mean, 100.0 * ge, 100.0 * bern);
    }
    println!("(equal mean loss, utterly different session-failure behaviour — the paper's transient-unreachability mechanism)\n");
}

/// Ablation 4: DropTail vs RED+ECN for an ECT-marked flow through a
/// congested bottleneck.
fn droptail_vs_red() {
    println!("=== ablation 4: DropTail vs RED+ECN at a congested bottleneck ===");
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "queue", "sent", "delivered", "lost", "CE"
    );
    for (name, queue) in [
        (
            "DropTail",
            QueueDisc::DropTail {
                limit_bytes: 30_000,
            },
        ),
        (
            "RED+ECN",
            QueueDisc::Red {
                min_th_bytes: 6_000,
                max_th_bytes: 24_000,
                max_p: 0.2,
                weight: 0.1,
                ecn: true,
                limit_bytes: 60_000,
            },
        ),
    ] {
        let mut sim = Sim::new(BENCH_SEED);
        let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("b", Ipv4Addr::new(192, 0, 2, 1));
        let r1 = sim.add_router(Router::new("r1", Ipv4Addr::new(10, 0, 0, 254)));
        let r2 = sim.add_router(Router::new("r2", Ipv4Addr::new(192, 0, 2, 254)));
        sim.attach_host(a, r1, LinkProps::clean(Nanos::from_millis(1)));
        sim.attach_host(b, r2, LinkProps::clean(Nanos::from_millis(1)));
        let (l12, l21) = sim.add_duplex(
            r1,
            r2,
            LinkProps::bottleneck(Nanos::from_millis(10), 2_000_000, queue),
        );
        sim.route(r1, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l12));
        sim.route(r2, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l21));
        let cap = sim.attach_capture(b);
        // offer 3 Mbit/s of ECT traffic for 5 s into the 2 Mbit/s link
        let sent = 1560u32;
        for i in 0..sent {
            let at = Nanos(u64::from(i) * 3_200_000); // 1200B @ 3 Mbit/s
            sim.run_until(at);
            let mut h = Ipv4Header::probe(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(192, 0, 2, 1),
                IpProto::Udp,
                Ecn::Ect0,
            );
            h.identification = i as u16;
            sim.send_from(
                a,
                Datagram::compose(Vec::new(), h, |o| {
                    ecn_wire::udp::udp_segment_into(h.src, h.dst, 5000, 5001, &[0; 1160], o)
                }),
            );
        }
        sim.run_to_idle();
        let cap = cap.lock();
        let delivered = cap.len() as u32;
        let ce = cap
            .packets()
            .iter()
            .filter_map(|p| p.datagram())
            .filter(|d| d.ecn() == Ecn::Ce)
            .count();
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>8}",
            name,
            sent,
            delivered,
            sent - delivered,
            ce
        );
    }
    println!("(why the idle measured paths showed zero CE, and why ECN pays off when queues actually fill)\n");
}
