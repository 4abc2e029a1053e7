//! The forwarding route cache is one fixed-size table per world, indexed
//! by a hash of (router, flow key). Two pairs that hash to one slot must
//! evict each other, never answer for each other: every forwarding
//! decision has to equal the uncached prefix lookup plus ECMP selection.

use ecn_netsim::{flow_key, LinkId, LinkProps, Nanos, RouteEntry, Router, Sim};
use ecn_wire::{Datagram, Ecn, IpProto, Ipv4Header};
use std::net::Ipv4Addr;

const A_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_ADDR: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

fn udp_from(src: Ipv4Addr) -> Datagram {
    let h = Ipv4Header::probe(src, B_ADDR, IpProto::Udp, Ecn::NotEct);
    Datagram::compose(Vec::new(), h, |o| {
        ecn_wire::udp::udp_segment_into(src, B_ADDR, 40000, 123, b"route-cache", o)
    })
}

#[test]
fn colliding_flows_alternate_without_wrong_hits() {
    // host A — r — {m0 … m3} — r2 — host B: r spreads 192.0.2.0/24 over
    // four ECMP branches with different delays, so the time a packet
    // reaches B names the branch r chose for it.
    let mut sim = Sim::new(5);
    let a = sim.add_host("A", A_ADDR);
    let b = sim.add_host("B", B_ADDR);
    let r = sim.add_router(Router::new("r", Ipv4Addr::new(10, 0, 0, 254)));
    let r2 = sim.add_router(Router::new("r2", Ipv4Addr::new(192, 0, 2, 254)));
    sim.attach_host(a, r, LinkProps::clean(Nanos::from_millis(1)));
    sim.attach_host(b, r2, LinkProps::clean(Nanos::from_millis(1)));
    let branches: Vec<LinkId> = (0..4u8)
        .map(|i| {
            let m = sim.add_router(Router::new(format!("m{i}"), Ipv4Addr::new(100, 64, i, 1)));
            let r_m = sim.add_link(r, m, LinkProps::clean(Nanos::from_millis(1 + u64::from(i))));
            let m_r2 = sim.add_link(m, r2, LinkProps::clean(Nanos::from_millis(10)));
            sim.route(m, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(m_r2));
            r_m
        })
        .collect();
    let ecmp = RouteEntry::Ecmp(branches.clone());
    sim.route(r, "192.0.2.0/24".parse().unwrap(), ecmp.clone());

    // The uncached decision at r, in routing epoch 0: the prefix lookup
    // yields `ecmp`, which selects on the flow key XOR the router id.
    let uncached = |src: Ipv4Addr| {
        let key = flow_key(&udp_from(src)) ^ (u64::from(r.0) << 48);
        ecmp.select(key, 0).expect("non-empty ECMP set")
    };
    let slot_of = |src: Ipv4Addr| Sim::route_cache_slot(r, src, B_ADDR, IpProto::Udp);
    let first = A_ADDR;
    let second = (2..1u32 << 20)
        .map(|i| Ipv4Addr::from(u32::from(A_ADDR) + i))
        .find(|&s| slot_of(s) == slot_of(first) && uncached(s) != uncached(first))
        .expect("a flow sharing the slot but taking another branch");

    let capture = sim.attach_capture(b);
    for (round, src) in [first, second].repeat(4).into_iter().enumerate() {
        let sent = sim.now();
        sim.send_from(a, udp_from(src));
        sim.run_to_idle();
        let branch = branches
            .iter()
            .position(|&l| l == uncached(src))
            .expect("selected link is a branch") as u64;
        let expected = sent + Nanos::from_millis(1 + (1 + branch) + 10 + 1);
        let cap = capture.lock();
        assert_eq!(cap.len(), round + 1, "round {round}: packet lost");
        assert_eq!(
            cap.packets()[round].ts,
            expected,
            "round {round}: flow from {src} left r on the wrong branch"
        );
    }
    assert!(
        sim.now() < Nanos::from_secs(120),
        "stayed in routing epoch 0"
    );
}
