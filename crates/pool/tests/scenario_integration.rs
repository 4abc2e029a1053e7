//! End-to-end checks of the assembled world: DNS discovery, NTP probing
//! with both ECN markings, middlebox behaviour, bleached paths observed
//! via ICMP quotes, and HTTP over TCP with ECN negotiation.

use ecn_netsim::Nanos;
use ecn_pool::{build_scenario, PoolPlan, Scenario, SpecialBehaviour};
use ecn_services::NtpClient;
use ecn_stack::{AvailabilityModel, TcpState};
use ecn_wire::dns::{encode_a_query_into, for_each_a_record};
use ecn_wire::http::encode_get_root_into;
use ecn_wire::{Ecn, HttpResponse, IcmpMessage, Ipv4Header};
use std::collections::HashSet;
use std::net::Ipv4Addr;

fn world(seed: u64) -> Scenario {
    build_scenario(&PoolPlan::scaled(60), seed)
}

/// Probe one server with up to 5 retries, 1 s apart. Returns true if an
/// NTP answer arrived.
fn ntp_probe(sc: &mut Scenario, vantage: usize, server: Ipv4Addr, ecn: Ecn) -> bool {
    let handle = sc.vantages[vantage].handle.clone();
    let sock = handle.udp_bind(0);
    for _ in 0..=5 {
        let req = NtpClient::request(sc.sim.now());
        handle.udp_send(&mut sc.sim, sock, (server, 123), &req.encode(), ecn);
        let deadline = sc.sim.now() + Nanos::from_secs(1);
        sc.sim.run_until(deadline);
        while let Some(got) = handle.udp_recv(sock) {
            if NtpClient::matches(&req, &got.payload) {
                return true;
            }
        }
    }
    false
}

#[test]
fn scenario_shape_matches_plan() {
    let sc = world(1);
    assert_eq!(sc.servers.len(), 60);
    assert_eq!(sc.vantages.len(), 13);
    assert!(!sc.truth.ect_blocked.is_empty() || !sc.truth.ect_blocked_flaky.is_empty());
    assert!(!sc.truth.not_ect_blocked.is_empty());
    assert!(!sc.truth.bleach_always.is_empty());
    assert!(sc.truth.web_server_count > 10);
    // all server addresses unique
    let addrs: HashSet<_> = sc.servers.iter().map(|s| s.addr).collect();
    assert_eq!(addrs.len(), 60);
    // geo DB covers all but Unknown-region servers
    let unknown = sc
        .servers
        .iter()
        .filter(|s| s.profile.region == ecn_geo::Region::Unknown)
        .count();
    assert_eq!(sc.geodb.len(), 60 - unknown);
}

#[test]
fn dns_discovery_enumerates_pool() {
    let mut sc = world(2);
    let handle = sc.vantages[0].handle.clone();
    let dns = sc.dns_addr;
    let sock = handle.udp_bind(0);
    let mut found: HashSet<Ipv4Addr> = HashSet::new();
    for qid in 0..40u16 {
        let mut q = Vec::new();
        encode_a_query_into(qid, "pool.ntp.org", &mut q);
        handle.udp_send(&mut sc.sim, sock, (dns, 53), &q, Ecn::NotEct);
        let deadline = sc.sim.now() + Nanos::from_millis(500);
        sc.sim.run_until(deadline);
        while let Some(got) = handle.udp_recv(sock) {
            let _ = for_each_a_record(&got.payload, |a| {
                found.insert(a);
            });
        }
    }
    // 40 queries x 4 answers with rotation cover the 60-server zone
    assert_eq!(found.len(), 60, "discovery should enumerate the pool");
}

#[test]
fn healthy_server_reachable_with_both_markings() {
    let mut sc = world(3);
    let target = sc
        .servers
        .iter()
        .position(|s| {
            s.profile.special == SpecialBehaviour::None
                && s.profile.availability == AvailabilityModel::AlwaysUp
        })
        .expect("healthy server");
    let addr = sc.servers[target].addr;
    assert!(ntp_probe(&mut sc, 4, addr, Ecn::NotEct), "not-ECT");
    assert!(ntp_probe(&mut sc, 4, addr, Ecn::Ect0), "ECT(0)");
}

#[test]
fn ect_blocked_server_shows_differential_reachability() {
    let mut sc = world(4);
    let addr = *sc.truth.ect_blocked.first().expect("ect-blocked server");
    // reachable with plain UDP from several vantages, never with ECT(0)
    for vantage in [0usize, 5, 9] {
        assert!(
            ntp_probe(&mut sc, vantage, addr, Ecn::NotEct),
            "vantage {vantage} not-ECT"
        );
        assert!(
            !ntp_probe(&mut sc, vantage, addr, Ecn::Ect0),
            "vantage {vantage} ECT(0) must be blackholed"
        );
    }
}

#[test]
fn ec2_only_not_ect_blocker_discriminates_by_source() {
    let mut sc = world(5);
    let addr = *sc
        .truth
        .not_ect_blocked_ec2
        .first()
        .expect("phoenix-style server");
    // vantage 0 = Perkins home (81.0.0.0/16): unaffected
    assert!(
        ntp_probe(&mut sc, 0, addr, Ecn::NotEct),
        "home not-ECT works"
    );
    // vantage 4 = EC2 California (54.x): not-ECT blocked, ECT(0) fine
    assert!(
        !ntp_probe(&mut sc, 4, addr, Ecn::NotEct),
        "EC2 not-ECT blocked"
    );
    assert!(ntp_probe(&mut sc, 4, addr, Ecn::Ect0), "EC2 ECT(0) works");
}

#[test]
fn always_down_server_is_unreachable() {
    let mut sc = world(6);
    let dead = sc
        .servers
        .iter()
        .find(|s| s.profile.availability == AvailabilityModel::AlwaysDown)
        .map(|s| s.addr)
        .expect("dead server");
    assert!(!ntp_probe(&mut sc, 2, dead, Ecn::NotEct));
}

#[test]
fn traceroute_probe_reveals_bleached_hop_via_quote() {
    let mut sc = world(7);
    // pick a server behind an always-bleaching PE/border/etc: any server in
    // an AS whose PE/border is in truth.bleach_always. Simplest: probe all
    // servers until we find one whose quoted ECN at high TTL is not-ECT.
    let handle = sc.vantages[0].handle.clone();
    let sock = handle.udp_bind(0);
    let mut bleach_seen = false;
    let mut pass_seen = false;
    let targets: Vec<Ipv4Addr> = sc.servers.iter().map(|s| s.addr).collect();
    'outer: for addr in targets {
        for ttl in 1..=20u8 {
            handle.udp_send_probe(
                &mut sc.sim,
                sock,
                (addr, 33434),
                b"traceroute-probe",
                Ecn::Ect0,
                ttl,
            );
            let deadline = sc.sim.now() + Nanos::from_millis(400);
            sc.sim.run_until(deadline);
            let mut answered = false;
            while let Some(icmp) = handle.icmp_recv() {
                if let IcmpMessage::TimeExceeded { quoted } = &icmp.msg {
                    answered = true;
                    let qh = Ipv4Header::decode(quoted).expect("quote parses");
                    assert_eq!(qh.dst, addr, "quote is our probe");
                    match qh.ecn {
                        Ecn::Ect0 => pass_seen = true,
                        Ecn::NotEct => bleach_seen = true,
                        other => panic!("unexpected quoted ECN {other}"),
                    }
                }
            }
            if !answered {
                // destination (or silent hop) reached; next target
                continue 'outer;
            }
            if bleach_seen && pass_seen {
                break 'outer;
            }
        }
    }
    assert!(pass_seen, "most hops pass ECT(0)");
    assert!(bleach_seen, "some hop shows the mark stripped");
}

#[test]
fn http_probe_with_ecn_negotiation_works_against_pool_web_server() {
    let mut sc = world(8);
    let target = sc
        .servers
        .iter()
        .find(|s| {
            s.profile.web.as_ref().map(|w| w.ecn) == Some(ecn_stack::EcnMode::On)
                && s.profile.availability == AvailabilityModel::AlwaysUp
                && s.profile.special == SpecialBehaviour::None
        })
        .expect("ecn web server");
    let addr = target.addr;
    let handle = sc.vantages[6].handle.clone();
    let conn = handle.tcp_connect(&mut sc.sim, (addr, 80), true);
    let deadline = sc.sim.now() + Nanos::from_secs(3);
    sc.sim.run_until(deadline);
    let (state, negotiated) = handle
        .with_conn(conn, |c| (c.state, c.ecn_negotiated))
        .expect("conn");
    assert_eq!(state, TcpState::Established);
    assert!(negotiated, "ECN-setup SYN-ACK received");
    let mut req = Vec::new();
    encode_get_root_into(addr, &mut req);
    handle.tcp_send(&mut sc.sim, conn, &req);
    let deadline = sc.sim.now() + Nanos::from_secs(5);
    sc.sim.run_until(deadline);
    let status = handle
        .with_conn(conn, |c| HttpResponse::status_of(c.received()))
        .expect("conn")
        .expect("http response");
    assert!(status == 302 || status == 200);
    handle.tcp_close(&mut sc.sim, conn);
}

#[test]
fn same_seed_same_world_different_seed_different_world() {
    let a = world(9);
    let b = world(9);
    let c = world(10);
    let addrs_a: Vec<_> = a.servers.iter().map(|s| s.addr).collect();
    let addrs_b: Vec<_> = b.servers.iter().map(|s| s.addr).collect();
    let addrs_c: Vec<_> = c.servers.iter().map(|s| s.addr).collect();
    assert_eq!(addrs_a, addrs_b);
    assert_ne!(addrs_a, addrs_c);
    assert_eq!(a.truth.ect_blocked, b.truth.ect_blocked);
}
