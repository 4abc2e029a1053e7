//! End-to-end tests of the stack over a simulated path: UDP sockets and
//! services, TCP handshakes with and without ECN, retransmission through
//! loss, ICMP inboxes, availability schedules, and port-unreachable
//! behaviour.

use ecn_netsim::{
    EcnPolicy, Firewall, FirewallRule, Ipv4Prefix, LinkProps, Nanos, NodeId, RouteEntry, Router,
    Sim,
};
use ecn_stack::{
    install, AvailabilityModel, EcnMode, HostHandle, StackConfig, TcpServiceAction, TcpState,
    UdpService,
};
use ecn_wire::{Ecn, IcmpMessage, Ipv4Header, NtpPacket, TcpFlags, UdpHeader};
use std::net::Ipv4Addr;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// client -- r1 -- r2 -- server
struct World {
    sim: Sim,
    client: HostHandle,
    server: HostHandle,
    r1: NodeId,
    r2: NodeId,
}

fn build(seed: u64, client_cfg: StackConfig, server_cfg: StackConfig) -> World {
    let mut sim = Sim::new(seed);
    let c = sim.add_host("client", CLIENT);
    let s = sim.add_host("server", SERVER);
    let r1 = sim.add_router(Router::new("r1", Ipv4Addr::new(10, 0, 0, 254)));
    let r2 = sim.add_router(Router::new("r2", Ipv4Addr::new(192, 0, 2, 254)));
    sim.attach_host(c, r1, LinkProps::clean(Nanos::from_millis(2)));
    sim.attach_host(s, r2, LinkProps::clean(Nanos::from_millis(2)));
    let (l12, l21) = sim.add_duplex(r1, r2, LinkProps::clean(Nanos::from_millis(20)));
    sim.route(
        r1,
        "0.0.0.0/0".parse::<Ipv4Prefix>().unwrap(),
        RouteEntry::Link(l12),
    );
    sim.route(
        r2,
        "0.0.0.0/0".parse::<Ipv4Prefix>().unwrap(),
        RouteEntry::Link(l21),
    );
    let client = install(&mut sim, c, client_cfg);
    let server = install(&mut sim, s, server_cfg);
    World {
        sim,
        client,
        server,
        r1,
        r2,
    }
}

struct EchoService;
impl UdpService for EchoService {
    fn handle(
        &mut self,
        _now: Nanos,
        _src: (Ipv4Addr, u16),
        _ecn: Ecn,
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        Some(payload.to_vec())
    }
}

struct LineUpper;
impl ecn_stack::TcpService for LineUpper {
    fn on_data(&mut self, _now: Nanos, received: &[u8]) -> TcpServiceAction {
        if received.ends_with(b"\n") {
            TcpServiceAction::Respond {
                bytes: received.to_ascii_uppercase(),
                close: true,
            }
        } else {
            TcpServiceAction::Wait
        }
    }
}

#[test]
fn udp_echo_roundtrip_preserves_payload_and_reports_ecn() {
    let mut w = build(1, StackConfig::default(), StackConfig::default());
    w.server.register_udp_service(123, Box::new(EchoService));
    let sock = w.client.udp_bind(0);
    w.client
        .udp_send(&mut w.sim, sock, (SERVER, 123), b"ntp?", Ecn::Ect0);
    w.sim.run_for(Nanos::from_millis(100));
    let got = w.client.udp_recv(sock).expect("echo reply");
    assert_eq!(got.payload, b"ntp?");
    assert_eq!(got.src, (SERVER, 123));
    // replies are sent not-ECT by services
    assert_eq!(got.ecn, Ecn::NotEct);
    assert!(w.client.udp_recv(sock).is_none());
}

#[test]
fn udp_service_sees_bleached_codepoint() {
    // A bleaching router between the hosts: the service observes not-ECT
    // even though the client sent ECT(0) — the exact §4.2 phenomenon.
    struct EcnReporter;
    impl UdpService for EcnReporter {
        fn handle(
            &mut self,
            _now: Nanos,
            _src: (Ipv4Addr, u16),
            ecn: Ecn,
            _payload: &[u8],
        ) -> Option<Vec<u8>> {
            Some(format!("{ecn}").into_bytes())
        }
    }
    let mut w = build(2, StackConfig::default(), StackConfig::default());
    w.sim.set_ecn_policy(w.r1, EcnPolicy::Bleach);
    w.server.register_udp_service(123, Box::new(EcnReporter));
    let sock = w.client.udp_bind(0);
    w.client
        .udp_send(&mut w.sim, sock, (SERVER, 123), b"x", Ecn::Ect0);
    w.sim.run_for(Nanos::from_millis(100));
    let got = w.client.udp_recv(sock).expect("reply");
    assert_eq!(got.payload, b"not-ECT");
}

#[test]
fn udp_to_closed_port_silent_by_default_icmp_when_enabled() {
    // Default (pool-server-like): silence.
    let mut w = build(3, StackConfig::default(), StackConfig::default());
    let sock = w.client.udp_bind(0);
    w.client
        .udp_send(&mut w.sim, sock, (SERVER, 33434), b"probe", Ecn::NotEct);
    w.sim.run_for(Nanos::from_millis(100));
    assert!(w.client.icmp_recv().is_none());

    // With port-unreachable enabled: ICMP arrives, quoting our probe.
    let server_cfg = StackConfig {
        udp_port_unreachable: true,
        ..StackConfig::default()
    };
    let mut w = build(4, StackConfig::default(), server_cfg);
    let sock = w.client.udp_bind(0);
    w.client
        .udp_send(&mut w.sim, sock, (SERVER, 33434), b"probe", Ecn::Ect0);
    w.sim.run_for(Nanos::from_millis(100));
    let icmp = w.client.icmp_recv().expect("port unreachable");
    assert_eq!(icmp.from, SERVER);
    let quoted = icmp.msg.quoted().expect("quote");
    let qh = Ipv4Header::decode(quoted).unwrap();
    assert_eq!(qh.ecn, Ecn::Ect0, "quote shows the mark the server saw");
    let uh = UdpHeader::decode_unverified(&quoted[20..]).unwrap();
    assert_eq!(uh.dst_port, 33434);
}

#[test]
fn tcp_handshake_with_ecn_negotiation_end_to_end() {
    let mut w = build(5, StackConfig::default(), StackConfig::default());
    w.server
        .register_tcp_listener(80, EcnMode::On, Some(Box::new(LineUpper)));
    let conn = w.client.tcp_connect(&mut w.sim, (SERVER, 80), true);
    w.sim.run_for(Nanos::from_millis(200));
    w.client
        .with_conn(conn, |c| {
            assert_eq!(c.state, TcpState::Established);
            assert!(c.ecn_negotiated);
            assert!(c.handshake.got_ecn_setup_syn_ack);
            let flags = c.handshake.syn_ack_flags.unwrap();
            assert!(flags.contains(TcpFlags::ECE) && !flags.contains(TcpFlags::CWR));
        })
        .expect("conn exists");

    // Exchange data: request flows ECT(0), the service answers, closes.
    w.client.tcp_send(&mut w.sim, conn, b"hello tcp\n");
    w.sim.run_for(Nanos::from_secs(2));
    w.client
        .with_conn(conn, |c| {
            assert_eq!(c.received(), b"HELLO TCP\n");
            assert!(c.peer_closed());
        })
        .unwrap();
    w.client.tcp_close(&mut w.sim, conn);
    w.sim.run_for(Nanos::from_secs(2));
    assert_eq!(
        w.client.with_conn(conn, |c| c.state),
        Some(TcpState::Closed)
    );
    // server-side entry is garbage collected
    assert_eq!(w.server.conn_count(), 0);
    w.client.remove_conn(conn);
    assert_eq!(w.client.conn_count(), 0);
}

#[test]
fn tcp_without_ecn_request_gets_plain_syn_ack() {
    let mut w = build(6, StackConfig::default(), StackConfig::default());
    w.server
        .register_tcp_listener(80, EcnMode::On, Some(Box::new(LineUpper)));
    let conn = w.client.tcp_connect(&mut w.sim, (SERVER, 80), false);
    w.sim.run_for(Nanos::from_millis(200));
    w.client
        .with_conn(conn, |c| {
            assert_eq!(c.state, TcpState::Established);
            assert!(!c.ecn_negotiated);
            assert!(!c.handshake.requested_ecn);
            let flags = c.handshake.syn_ack_flags.unwrap();
            assert!(!flags.contains(TcpFlags::ECE));
        })
        .unwrap();
}

#[test]
fn tcp_server_with_ecn_off_declines() {
    let mut w = build(7, StackConfig::default(), StackConfig::default());
    w.server
        .register_tcp_listener(80, EcnMode::Off, Some(Box::new(LineUpper)));
    let conn = w.client.tcp_connect(&mut w.sim, (SERVER, 80), true);
    w.sim.run_for(Nanos::from_millis(200));
    w.client
        .with_conn(conn, |c| {
            assert_eq!(c.state, TcpState::Established);
            assert!(c.handshake.requested_ecn);
            assert!(!c.ecn_negotiated, "server declined");
            assert!(!c.handshake.got_ecn_setup_syn_ack);
        })
        .unwrap();
}

#[test]
fn tcp_to_closed_port_is_reset() {
    let mut w = build(8, StackConfig::default(), StackConfig::default());
    let conn = w.client.tcp_connect(&mut w.sim, (SERVER, 80), true);
    w.sim.run_for(Nanos::from_millis(200));
    let (state, reason) = w
        .client
        .with_conn(conn, |c| (c.state, c.close_reason))
        .unwrap();
    assert_eq!(state, TcpState::Closed);
    assert_eq!(reason, Some(ecn_stack::CloseReason::Reset));
}

#[test]
fn tcp_syn_retransmits_through_loss_and_eventually_connects() {
    // 60% loss: the first SYN will often die; retries must save the
    // connection within the 5-retry budget most of the time. Use a seed
    // where it does.
    // A dedicated build with a lossy inter-router path in both directions.
    let mut sim = Sim::new(99);
    let c = sim.add_host("client", CLIENT);
    let s = sim.add_host("server", SERVER);
    let r1 = sim.add_router(Router::new("r1", Ipv4Addr::new(10, 0, 0, 254)));
    let r2 = sim.add_router(Router::new("r2", Ipv4Addr::new(192, 0, 2, 254)));
    sim.attach_host(c, r1, LinkProps::clean(Nanos::from_millis(1)));
    sim.attach_host(s, r2, LinkProps::clean(Nanos::from_millis(1)));
    let (l12, l21) = sim.add_duplex(r1, r2, LinkProps::lossy(Nanos::from_millis(10), 0.6));
    sim.route(
        r1,
        "0.0.0.0/0".parse::<Ipv4Prefix>().unwrap(),
        RouteEntry::Link(l12),
    );
    sim.route(
        r2,
        "0.0.0.0/0".parse::<Ipv4Prefix>().unwrap(),
        RouteEntry::Link(l21),
    );
    let client = install(&mut sim, c, StackConfig::default());
    let server = install(&mut sim, s, StackConfig::default());
    server.register_tcp_listener(80, EcnMode::On, Some(Box::new(LineUpper)));
    let conn = client.tcp_connect(&mut sim, (SERVER, 80), true);
    sim.run_for(Nanos::from_secs(40));
    let (state, reason) = client
        .with_conn(conn, |c| (c.state, c.close_reason))
        .unwrap();
    assert!(
        state == TcpState::Established || reason.is_some(),
        "must converge, got {state:?}"
    );
    assert_eq!(
        state,
        TcpState::Established,
        "seed 99 connects within retries"
    );
}

#[test]
fn tcp_times_out_when_server_is_blackholed() {
    let server_cfg = StackConfig {
        availability: AvailabilityModel::AlwaysDown,
        tcp_rst_on_closed: true,
        ..StackConfig::default()
    };
    let mut w = build(10, StackConfig::default(), server_cfg);
    w.server
        .register_tcp_listener(80, EcnMode::On, Some(Box::new(LineUpper)));
    let conn = w.client.tcp_connect(&mut w.sim, (SERVER, 80), true);
    // 5 retries with doubling 1s RTO: 1+2+4+8+16+32 = 63 s worst case
    w.sim.run_for(Nanos::from_secs(120));
    let (state, reason) = w
        .client
        .with_conn(conn, |c| (c.state, c.close_reason))
        .unwrap();
    assert_eq!(state, TcpState::Closed);
    assert_eq!(reason, Some(ecn_stack::CloseReason::TimedOut));
}

#[test]
fn ntp_request_payload_roundtrips_through_udp_service() {
    // A minimal in-line NTP responder (the real one lives in ecn-services).
    struct MiniNtp;
    impl UdpService for MiniNtp {
        fn handle(
            &mut self,
            now: Nanos,
            _src: (Ipv4Addr, u16),
            _ecn: Ecn,
            payload: &[u8],
        ) -> Option<Vec<u8>> {
            let req = NtpPacket::decode(payload).ok()?;
            let ts = ecn_wire::NtpTimestamp::from_nanos(now.0);
            Some(NtpPacket::server_response(&req, 2, *b"GPS\0", ts, ts).encode())
        }
    }
    let mut w = build(11, StackConfig::default(), StackConfig::default());
    w.server.register_udp_service(123, Box::new(MiniNtp));
    let sock = w.client.udp_bind(0);
    let req = NtpPacket::client_request(ecn_wire::NtpTimestamp::from_nanos(1_000));
    w.client
        .udp_send(&mut w.sim, sock, (SERVER, 123), &req.encode(), Ecn::Ect0);
    w.sim.run_for(Nanos::from_millis(100));
    let got = w.client.udp_recv(sock).expect("ntp answer");
    let rsp = NtpPacket::decode(&got.payload).unwrap();
    assert!(rsp.answers(&req));
    assert_eq!(rsp.stratum, 2);
}

#[test]
fn flapping_server_misses_requests_while_down() {
    let server_cfg = StackConfig {
        availability: AvailabilityModel::Flapping {
            mean_up: Nanos::from_secs(30),
            mean_down: Nanos::from_secs(30),
        },
        seed: 77,
        ..StackConfig::default()
    };
    let mut w = build(12, StackConfig::default(), server_cfg);
    w.server.register_udp_service(123, Box::new(EchoService));
    let sock = w.client.udp_bind(0);
    let mut answered = 0;
    let total = 200;
    for i in 0..total {
        w.client
            .udp_send(&mut w.sim, sock, (SERVER, 123), b"hi", Ecn::NotEct);
        w.sim.run_for(Nanos::from_secs(1));
        if w.client.udp_recv(sock).is_some() {
            answered += 1;
        }
        let _ = i;
    }
    // ~50% duty cycle: some answered, some missed, in runs.
    assert!(answered > total / 5, "answered {answered}");
    assert!(answered < total * 4 / 5, "answered {answered}");
}

#[test]
fn icmp_echo_is_answered() {
    let mut w = build(13, StackConfig::default(), StackConfig::default());
    let h = Ipv4Header::probe(CLIENT, SERVER, ecn_wire::IpProto::Icmp, Ecn::NotEct);
    let d = ecn_wire::Datagram::compose(Vec::new(), h, |o| {
        ecn_wire::icmp::encode_message_into(8, 0, [0, 7, 0, 1], b"ping", o)
    });
    let node = w.client.node();
    w.sim.send_from(node, d);
    w.sim.run_for(Nanos::from_millis(200));
    let got = w.client.icmp_recv().expect("echo reply");
    assert_eq!(got.from, SERVER);
    match got.msg {
        IcmpMessage::EchoReply {
            id: 7,
            seq: 1,
            ref payload,
        } if payload == b"ping" => {}
        ref other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn firewall_dropping_ect_udp_blocks_marked_probes_only() {
    let mut w = build(14, StackConfig::default(), StackConfig::default());
    w.sim
        .set_firewall(w.r2, Firewall::single(FirewallRule::drop_ect_udp()));
    w.server.register_udp_service(123, Box::new(EchoService));
    let sock = w.client.udp_bind(0);
    w.client
        .udp_send(&mut w.sim, sock, (SERVER, 123), b"ect", Ecn::Ect0);
    w.sim.run_for(Nanos::from_secs(1));
    assert!(w.client.udp_recv(sock).is_none(), "ECT probe blackholed");
    w.client
        .udp_send(&mut w.sim, sock, (SERVER, 123), b"plain", Ecn::NotEct);
    w.sim.run_for(Nanos::from_secs(1));
    assert_eq!(w.client.udp_recv(sock).unwrap().payload, b"plain");
}

#[test]
fn capture_sees_both_directions_with_correct_marks() {
    let mut w = build(15, StackConfig::default(), StackConfig::default());
    w.server.register_udp_service(123, Box::new(EchoService));
    let node = w.client.node();
    let cap = w.sim.attach_capture(node);
    let sock = w.client.udp_bind(0);
    w.client
        .udp_send(&mut w.sim, sock, (SERVER, 123), b"x", Ecn::Ect0);
    w.sim.run_for(Nanos::from_millis(100));
    let cap = cap.lock();
    assert_eq!(cap.len(), 2);
    let out = cap.packets()[0].datagram().unwrap();
    let inp = cap.packets()[1].datagram().unwrap();
    assert_eq!(out.ecn(), Ecn::Ect0);
    assert_eq!(inp.ecn(), Ecn::NotEct);
    assert_eq!(inp.src(), SERVER);
}
