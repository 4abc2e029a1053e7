//! ECT(1) round-trips and AQM hops versus the multi-hop tunnelling fast
//! path.
//!
//! The route cache memoises *tunnels* across chains of transparent
//! routers (passive links, open firewalls, `Pass` ECN policy) and
//! replays their effects in bulk. These tests pin the two properties the
//! modern-ECN scenarios lean on:
//!
//! - the ECT(1) codepoint survives the collapsed fast path end-to-end
//!   and stays distinct from ECT(0) at every policy/firewall hop, and
//! - a CE-marking AQM link ([`QueueDisc::aqm_mark`], `l4s_mark`) in the
//!   middle of an otherwise tunnelable chain is never skipped: its
//!   marks land whether or not the surrounding hops collapse.
//!
//! The last test is a differential oracle: the *same* topology, seed
//! and packet schedule driven twice — once with tunnels live, once
//! forced hop-by-hop (a 1 ns routing epoch makes every cached tunnel
//! miss its epoch bound) — must produce byte- and timestamp-identical
//! captures and identical mark/forward counters.

use ecn_netsim::{
    DropCause, EcnMatch, EcnPolicy, Firewall, FirewallAction, FirewallRule, HostAgent, HostApi,
    LinkProps, Nanos, NodeId, QueueDisc, RouteEntry, Router, Sim, SimConfig,
};
use ecn_wire::{Datagram, Ecn, IcmpMessage, IpProto, Ipv4Header};
use std::net::Ipv4Addr;

const A_ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_ADDR: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// host A — r0 — r1 — … — r(hops-1) — host B. Every inter-router link is
/// clean (passive, tunnelable) except an optional override on the
/// forward link `r[at] → r[at+1]`.
fn chain(
    seed: u64,
    flap_period: Nanos,
    hops: usize,
    special: Option<(usize, LinkProps)>,
) -> (Sim, NodeId, NodeId, Vec<NodeId>) {
    let mut sim = Sim::with_config(SimConfig { seed, flap_period });
    let a = sim.add_host("A", A_ADDR);
    let b = sim.add_host("B", B_ADDR);
    let routers: Vec<NodeId> = (0..hops)
        .map(|i| {
            sim.add_router(Router::new(
                format!("r{i}"),
                Ipv4Addr::new(100, 64, i as u8, 1),
            ))
        })
        .collect();
    sim.attach_host(a, routers[0], LinkProps::clean(Nanos::from_millis(1)));
    sim.attach_host(
        b,
        routers[hops - 1],
        LinkProps::clean(Nanos::from_millis(1)),
    );
    for i in 0..hops - 1 {
        let props = match special {
            Some((at, p)) if at == i => p,
            _ => LinkProps::clean(Nanos::from_millis(2)),
        };
        let (fwd, back) = sim.add_duplex(routers[i], routers[i + 1], props);
        sim.route(
            routers[i],
            "192.0.2.0/24".parse().unwrap(),
            RouteEntry::Link(fwd),
        );
        sim.route(
            routers[i + 1],
            "10.0.0.0/24".parse().unwrap(),
            RouteEntry::Link(back),
        );
    }
    (sim, a, b, routers)
}

fn probe(ecn: Ecn, ttl: u8, sport: u16, payload: &[u8]) -> Datagram {
    let mut h = Ipv4Header::probe(A_ADDR, B_ADDR, IpProto::Udp, ecn);
    h.ttl = ttl;
    Datagram::compose(Vec::new(), h, |o| {
        ecn_wire::udp::udp_segment_into(A_ADDR, B_ADDR, sport, 123, payload, o)
    })
}

/// Reflects every datagram back to its source, preserving the ECN mark
/// as received — the far end of a round-trip.
struct Echoer;
impl HostAgent for Echoer {
    fn on_datagram(&mut self, api: &mut HostApi<'_>, dgram: &Datagram) {
        let h = dgram.header();
        let reply = Ipv4Header::probe(api.addr(), h.src, h.protocol, h.ecn);
        api.send(Datagram::new(reply, dgram.payload()));
    }
    fn on_timer(&mut self, _api: &mut HostApi<'_>, _token: u64) {}
}

#[test]
fn ect1_round_trips_the_tunnelled_fast_path() {
    // 8 transparent routers: the whole forward chain (and the return
    // chain) is eligible for tunnel collapse. Each codepoint must come
    // back exactly as it was sent — ECT(1) in particular must not be
    // folded onto ECT(0) anywhere in the collapsed path.
    for ecn in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce] {
        let (mut sim, a, b, _) = chain(11, Nanos::from_secs(120), 8, None);
        sim.set_agent(b, Box::new(Echoer));
        let cap_a = sim.attach_capture(a);
        let cap_b = sim.attach_capture(b);
        sim.send_from(a, probe(ecn, 64, 40_000, b"round-trip"));
        sim.run_to_idle();
        assert_eq!(sim.counters().delivered, 2, "{ecn:?}: probe and echo");
        let arrived = cap_b.lock().packets()[0].datagram().unwrap();
        assert_eq!(
            arrived.ecn(),
            ecn,
            "{ecn:?} must survive the forward tunnel"
        );
        let cap_a = cap_a.lock();
        let reply = cap_a.packets()[1].datagram().unwrap();
        assert_eq!(reply.src(), B_ADDR);
        assert_eq!(reply.ecn(), ecn, "{ecn:?} must survive the return tunnel");
    }
}

#[test]
fn ect1_is_distinct_from_ect0_at_policy_and_firewall_hops() {
    // A DowngradeEct1 router mid-chain: ECT(1) arrives as ECT(0) (and is
    // counted as a rewrite), ECT(0) passes untouched.
    for (sent, want) in [(Ecn::Ect1, Ecn::Ect0), (Ecn::Ect0, Ecn::Ect0)] {
        let (mut sim, a, b, routers) = chain(12, Nanos::from_secs(120), 6, None);
        sim.set_ecn_policy(routers[3], EcnPolicy::DowngradeEct1);
        let cap_b = sim.attach_capture(b);
        sim.send_from(a, probe(sent, 64, 40_001, b"downgrade"));
        sim.run_to_idle();
        let arrived = cap_b.lock().packets()[0].datagram().unwrap();
        assert_eq!(arrived.ecn(), want, "sent {sent:?}");
        let rewrites = sim.counters().ecn_rewritten.get(&routers[3]).copied();
        assert_eq!(
            rewrites,
            (sent == Ecn::Ect1).then_some(1),
            "only ECT(1) is rewritten"
        );
    }
    // An L4S-selective firewall (EcnMatch::Ect1) drops ECT(1) but passes
    // ECT(0) — the matcher must key on the exact codepoint, not on
    // "declares ECN capability".
    for (sent, delivered) in [(Ecn::Ect1, 0u64), (Ecn::Ect0, 1)] {
        let (mut sim, a, _b, routers) = chain(13, Nanos::from_secs(120), 6, None);
        sim.set_firewall(
            routers[3],
            Firewall::single(FirewallRule {
                proto: Some(IpProto::Udp),
                ecn: EcnMatch::Ect1,
                src_within: None,
                action: FirewallAction::Drop,
                probability: 1.0,
            }),
        );
        sim.send_from(a, probe(sent, 64, 40_002, b"l4s-select"));
        sim.run_to_idle();
        assert_eq!(sim.counters().delivered, delivered, "sent {sent:?}");
        assert_eq!(
            sim.counters().dropped(DropCause::Firewall),
            1 - delivered,
            "sent {sent:?}"
        );
    }
}

#[test]
fn tunnel_collapse_does_not_skip_a_markprob_hop() {
    // 10 transparent routers with one always-marking AQM link in the
    // middle: both flanks of the chain are tunnelable, the AQM link is
    // not (`LinkProps::is_passive` is false for MarkProb). Every markable
    // packet must cross it and come out CE; not-ECT must never be
    // touched; already-CE packets are not markable and draw no new mark.
    let aqm = LinkProps {
        queue: QueueDisc::aqm_mark(1.0),
        ..LinkProps::clean(Nanos::from_millis(2))
    };
    let (mut sim, a, b, _) = chain(14, Nanos::from_secs(120), 10, Some((4, aqm)));
    let cap_b = sim.attach_capture(b);
    for (i, (sent, want)) in [
        (Ecn::Ect0, Ecn::Ce),
        (Ecn::Ect1, Ecn::Ce),
        (Ecn::NotEct, Ecn::NotEct),
        (Ecn::Ce, Ecn::Ce),
    ]
    .into_iter()
    .enumerate()
    {
        sim.send_from(a, probe(sent, 64, 41_000 + i as u16, b"aqm-hop"));
        sim.run_to_idle();
        let cap = cap_b.lock();
        let arrived = cap.packets()[i].datagram().unwrap();
        assert_eq!(arrived.ecn(), want, "sent {sent:?}");
    }
    assert_eq!(sim.counters().delivered, 4);
    assert_eq!(
        sim.counters().ce_marked,
        2,
        "exactly the two ECT packets drew marks — CE is not re-marked"
    );
}

#[test]
fn tunnel_collapse_does_not_skip_a_codel_bottleneck_hop() {
    // A rate-limited CoDel (l4s_mark) bottleneck mid-chain: a
    // back-to-back ECT(1) train queues behind itself, so every packet
    // but the head-of-line one exceeds the 1 ms sojourn target and is
    // marked. 1 Mbit/s × 1000-byte packets ⇒ 8 ms serialisation each.
    let bottleneck = LinkProps::bottleneck(
        Nanos::from_millis(2),
        1_000_000,
        QueueDisc::l4s_mark(Nanos::from_millis(1)),
    );
    let payload = vec![0u8; 972];
    for (sent, want_marks) in [(Ecn::Ect1, 2u64), (Ecn::NotEct, 0)] {
        let (mut sim, a, b, _) = chain(15, Nanos::from_secs(120), 10, Some((4, bottleneck)));
        let cap_b = sim.attach_capture(b);
        for sport in [42_000u16, 42_001, 42_002] {
            sim.send_from(a, probe(sent, 64, sport, &payload));
        }
        sim.run_to_idle();
        assert_eq!(sim.counters().delivered, 3, "sent {sent:?}");
        assert_eq!(sim.counters().ce_marked, want_marks, "sent {sent:?}");
        let cap = cap_b.lock();
        let marks: Vec<Ecn> = cap
            .packets()
            .iter()
            .map(|p| p.datagram().unwrap().ecn())
            .collect();
        if sent == Ecn::Ect1 {
            assert_eq!(
                marks,
                vec![Ecn::Ect1, Ecn::Ce, Ecn::Ce],
                "all but the head-of-line packet are marked"
            );
        } else {
            assert!(marks.iter().all(|&e| e == Ecn::NotEct));
        }
    }
}

#[test]
fn ttl_expiry_around_the_aqm_hop_answers_from_the_right_router() {
    // Traceroute-style probes through the AQM chain: the tunnel falls
    // back to hop-by-hop when the TTL would expire mid-chain, so the
    // ICMP must come from exactly the router where TTL hit zero — and
    // when the expiring hop lies *past* the AQM link, the quoted header
    // must show the CE mark the packet carried at that point.
    let aqm = LinkProps {
        queue: QueueDisc::aqm_mark(1.0),
        ..LinkProps::clean(Nanos::from_millis(2))
    };
    // TTL 3 expires at r2 (before the AQM link 4→5): quote still ECT(1).
    // TTL 7 expires at r6 (after it): quote shows CE.
    for (ttl, want_src, want_quote) in [
        (3u8, Ipv4Addr::new(100, 64, 2, 1), Ecn::Ect1),
        (7, Ipv4Addr::new(100, 64, 6, 1), Ecn::Ce),
    ] {
        let (mut sim, a, _b, _) = chain(16, Nanos::from_secs(120), 10, Some((4, aqm)));
        let cap_a = sim.attach_capture(a);
        sim.send_from(a, probe(Ecn::Ect1, ttl, 43_000, b"ttl-probe"));
        sim.run_to_idle();
        assert_eq!(sim.counters().icmp_time_exceeded, 1, "ttl {ttl}");
        let cap = cap_a.lock();
        let icmp = cap.packets()[1].datagram().unwrap();
        assert_eq!(icmp.src(), want_src, "ttl {ttl}: wrong expiring router");
        let msg = IcmpMessage::decode(icmp.payload()).unwrap();
        let quoted = Ipv4Header::decode(msg.quoted().unwrap()).unwrap();
        assert_eq!(quoted.ecn, want_quote, "ttl {ttl}: quoted mark");
    }
}

#[test]
fn hop_by_hop_and_tunnelled_runs_agree_byte_for_byte() {
    // The equivalence oracle. A 1 ns routing epoch makes `now <= bound`
    // false for every cached tunnel, so the second run takes the
    // hop-by-hop slow path for every packet; the topology, seed and
    // schedule are otherwise identical. A probabilistic AQM hop sits
    // mid-chain: because tunnelled hops draw no randomness, both runs
    // must consume the per-packet RNG stream identically, so even the
    // coin-flip marks — and every capture byte and timestamp — agree.
    let run = |flap: Nanos| {
        let aqm = LinkProps {
            queue: QueueDisc::aqm_mark(0.5),
            ..LinkProps::clean(Nanos::from_millis(2))
        };
        let (mut sim, a, b, _) = chain(17, flap, 10, Some((4, aqm)));
        let cap_b = sim.attach_capture(b);
        let mut sport = 44_000u16;
        for _ in 0..4 {
            for ecn in [Ecn::Ect0, Ecn::Ect1, Ecn::NotEct, Ecn::Ce] {
                sim.send_from(a, probe(ecn, 64, sport, b"oracle"));
                sport += 1;
                sim.run_to_idle();
            }
        }
        let packets: Vec<(Nanos, Vec<u8>)> = cap_b
            .lock()
            .packets()
            .iter()
            .map(|p| (p.ts, p.bytes.clone()))
            .collect();
        (
            packets,
            sim.counters().delivered,
            sim.counters().forwarded,
            sim.counters().ce_marked,
        )
    };
    let tunnelled = run(Nanos::from_secs(120));
    let hop_by_hop = run(Nanos(1));
    assert_eq!(tunnelled.1, 16, "all packets delivered");
    assert!(
        tunnelled.3 > 0 && tunnelled.3 < 8,
        "the 0.5 AQM must mark some but not all of the 8 ECT packets, got {}",
        tunnelled.3
    );
    assert_eq!(
        tunnelled, hop_by_hop,
        "tunnel collapse changed an observable byte, timestamp or counter"
    );
}
