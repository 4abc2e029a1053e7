//! Every packet the host stack sends and receives in a lossy world,
//! frozen in `tests/golden/stack_sessions.txt` (regenerate with
//! `ECNUDP_BLESS=1 cargo test --test stack_sessions`).
//!
//! One vantage host probes five servers behind lossy access links with
//! the probes of paper §3 and §4.2: `probe_udp`, `probe_tcp` with and
//! without an ECN-setup SYN against a web server with ECN on, one with
//! ECN off, one that reflects the SYN's flags, a host with no web server
//! (RST) and a host that is always down, then `probe_validation` and one
//! `traceroute`, and last a connection closed before its SYN-ACK, then
//! sent to. Two captures run throughout, on the vantage and on the
//! ECN-on web server. After each probe the golden lists the packets they
//! recorded during it (virtual time in ns, host, direction, hex bytes),
//! the simulator's dispatched-event count (every timer the stacks armed
//! is one event) and the probe's result.
//!
//! The loss is chosen so that every path of the stack's TCP code sends:
//! SYN, SYN-ACK, data and FIN retransmissions are counted from the
//! captures and must each occur; acknowledgements supersede armed
//! retransmission timers, which then fire for nothing; and the aborted
//! connection's timer fires on a connection that is no longer armed.

#[path = "util/golden.rs"]
mod golden;

use ecnudp::core::config::{ProbeConfig, TracerouteConfig, ValidationConfig};
use ecnudp::core::probes::{probe_tcp, probe_udp, probe_validation};
use ecnudp::core::traceroute::traceroute;
use ecnudp::netsim::{
    CaptureRef, Direction, Ipv4Prefix, LinkProps, Nanos, RouteEntry, Router, Sim,
};
use ecnudp::services::{
    EcnEchoService, HttpServerKind, NtpServerConfig, NtpServerService, PoolHttpService,
    ECN_ECHO_PORT,
};
use ecnudp::stack::{install, AvailabilityModel, EcnMode, HostHandle, StackConfig};
use ecnudp::wire::{Ecn, IpProto, TcpFlags, TcpHeader};
use golden::check_golden;
use std::collections::HashSet;
use std::fmt::{Debug, Write as _};
use std::net::Ipv4Addr;

const VANTAGE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// Loss on the vantage's access link and on each server's, per direction.
const VANTAGE_LOSS: f64 = 0.25;
const SERVER_LOSS: f64 = 0.2;

/// Each server: its address, its web listener's ECN mode (`None`: no web
/// server, so SYNs meet a RST), and whether it is up at all.
const SERVERS: [(Ipv4Addr, Option<EcnMode>, bool); 5] = [
    (Ipv4Addr::new(192, 0, 2, 1), Some(EcnMode::On), true),
    (Ipv4Addr::new(192, 0, 2, 2), Some(EcnMode::Off), true),
    (
        Ipv4Addr::new(192, 0, 2, 3),
        Some(EcnMode::ReflectFlags),
        true,
    ),
    (Ipv4Addr::new(192, 0, 2, 4), None, true),
    (Ipv4Addr::new(192, 0, 2, 5), Some(EcnMode::On), false),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The world, its two captures, and how much of each is already printed.
struct Session {
    sim: Sim,
    vantage: HostHandle,
    captures: [(&'static str, CaptureRef); 2],
    printed: [usize; 2],
    out: String,
}

impl Session {
    /// vantage — edge — core — access — five servers; the two access links
    /// are lossy, the core is clean.
    fn new() -> Session {
        let mut sim = Sim::new(2015);
        let any = "0.0.0.0/0".parse::<Ipv4Prefix>().expect("prefix");
        let v = sim.add_host("vantage", VANTAGE);
        let edge = sim.add_router(Router::new("edge", Ipv4Addr::new(10, 0, 0, 254)));
        let core = sim.add_router(Router::new("core", Ipv4Addr::new(172, 16, 0, 1)));
        let access = sim.add_router(Router::new("access", Ipv4Addr::new(192, 0, 2, 254)));
        sim.attach_host(
            v,
            edge,
            LinkProps::lossy(Nanos::from_millis(5), VANTAGE_LOSS),
        );
        let clean = LinkProps::clean(Nanos::from_millis(20));
        let (edge_core, core_edge) = sim.add_duplex(edge, core, clean);
        let (core_access, access_core) = sim.add_duplex(core, access, clean);
        sim.route(edge, any, RouteEntry::Link(edge_core));
        sim.route(access, any, RouteEntry::Link(access_core));
        let vantages = "10.0.0.0/8".parse::<Ipv4Prefix>().expect("prefix");
        let servers = "192.0.2.0/24".parse::<Ipv4Prefix>().expect("prefix");
        sim.route(core, vantages, RouteEntry::Link(core_edge));
        sim.route(core, servers, RouteEntry::Link(core_access));
        let vantage = install(
            &mut sim,
            v,
            StackConfig {
                udp_port_unreachable: true,
                seed: 7,
                ..StackConfig::default()
            },
        );
        let mut server_nodes = Vec::new();
        for (i, &(addr, web, up)) in SERVERS.iter().enumerate() {
            let node = sim.add_host(format!("server{i}"), addr);
            sim.attach_host(
                node,
                access,
                LinkProps::lossy(Nanos::from_millis(5), SERVER_LOSS),
            );
            let availability = if up {
                AvailabilityModel::AlwaysUp
            } else {
                AvailabilityModel::AlwaysDown
            };
            let handle = install(
                &mut sim,
                node,
                StackConfig {
                    availability,
                    seed: 100 + i as u64,
                    ..StackConfig::default()
                },
            );
            handle.register_udp_service(
                123,
                Box::new(NtpServerService::new(NtpServerConfig::default())),
            );
            handle.register_udp_service(ECN_ECHO_PORT, Box::new(EcnEchoService));
            if let Some(mode) = web {
                let service = PoolHttpService::new(HttpServerKind::PoolRedirect);
                handle.register_tcp_listener(80, mode, Some(Box::new(service)));
            }
            server_nodes.push(node);
        }
        let captures = [
            ("vantage", sim.attach_capture(v)),
            ("server0", sim.attach_capture(server_nodes[0])),
        ];
        Session {
            sim,
            vantage,
            captures,
            printed: [0; 2],
            out: String::new(),
        }
    }

    /// Print what the captures recorded since the last probe, then `result`.
    fn show(&mut self, probe: &str, result: impl Debug) {
        writeln!(self.out, "== {probe}").expect("format into a String");
        for (i, (host, capture)) in self.captures.iter().enumerate() {
            let capture = capture.lock();
            for p in &capture.packets()[self.printed[i]..] {
                let dir = match p.dir {
                    Direction::In => "in ",
                    Direction::Out => "out",
                };
                writeln!(self.out, "{:>12} {host} {dir} {}", p.ts.0, hex(&p.bytes))
                    .expect("format into a String");
            }
            self.printed[i] = capture.len();
        }
        writeln!(self.out, "events {}", self.sim.events_dispatched())
            .expect("format into a String");
        writeln!(self.out, "-> {result:?}").expect("format into a String");
    }
}

/// Retransmitted TCP segments each capture sent, by kind: a segment is a
/// retransmission when one with the same ports, sequence number, flags and
/// length left the same host before it.
fn retransmissions(captures: &[(&'static str, CaptureRef)]) -> [(&'static str, usize); 4] {
    let mut counts = [("syn", 0), ("syn-ack", 0), ("data", 0), ("fin", 0)];
    for (_, capture) in captures {
        let mut seen = HashSet::new();
        for p in capture.lock().packets() {
            let Some(h) = p.ip_header() else { continue };
            if p.dir != Direction::Out || h.protocol != IpProto::Tcp {
                continue;
            }
            let th = TcpHeader::decode_fields(p.ip_payload()).expect("stack-made segment");
            let len = p.ip_payload().len() - th.header_len();
            if seen.insert((h.dst, th.src_port, th.dst_port, th.seq, th.flags.0, len)) {
                continue;
            }
            let kind = if th.flags.contains(TcpFlags::SYN | TcpFlags::ACK) {
                1
            } else if th.flags.contains(TcpFlags::SYN) {
                0
            } else if len > 0 {
                2
            } else if th.flags.contains(TcpFlags::FIN) {
                3
            } else {
                continue; // a repeated pure ACK
            };
            counts[kind].1 += 1;
        }
    }
    counts
}

#[test]
fn stack_sessions_match_the_golden() {
    let mut s = Session::new();
    let probe = ProbeConfig::default();
    for round in 0..2 {
        let ecn = if round == 0 { Ecn::NotEct } else { Ecn::Ect0 };
        for (i, &(server, ..)) in SERVERS.iter().enumerate() {
            let cap = s.captures[0].1.clone();
            let r = probe_udp(&mut s.sim, &s.vantage, &cap, server, ecn, &probe);
            s.show(&format!("round {round} server{i} udp {ecn}"), r);
            for use_ecn in [false, true] {
                let r = probe_tcp(&mut s.sim, &s.vantage, &cap, server, use_ecn, &probe);
                s.show(&format!("round {round} server{i} tcp ecn={use_ecn}"), r);
            }
        }
    }
    let validation = ValidationConfig {
        packets: 8,
        ..ValidationConfig::default()
    };
    for (i, session_ecn) in [(0, Ecn::Ect0), (2, Ecn::Ect1)] {
        let server = SERVERS[i].0;
        let r = probe_validation(
            &mut s.sim,
            &s.vantage,
            server,
            session_ecn,
            true,
            &validation,
        );
        s.show(&format!("server{i} validation {session_ecn}"), r);
    }
    let path = traceroute(
        &mut s.sim,
        &s.vantage,
        SERVERS[0].0,
        &TracerouteConfig::default(),
    );
    s.show("server0 traceroute", path);

    // Closing before the SYN-ACK aborts the connection without a packet,
    // and a send after that is ignored; the timer the SYN armed still
    // fires, and must send nothing.
    let conn = s.vantage.tcp_connect(&mut s.sim, (SERVERS[4].0, 80), true);
    s.sim.run_for(Nanos::from_millis(300));
    s.vantage.tcp_close(&mut s.sim, conn);
    s.vantage.tcp_send(&mut s.sim, conn, b"late");
    s.sim.run_for(Nanos::from_secs(3));
    s.show(
        "server4 tcp close in SYN-SENT, then send",
        s.vantage.conn_count(),
    );
    s.vantage.remove_conn(conn);

    let counts = retransmissions(&s.captures);
    writeln!(s.out, "== retransmissions {counts:?}").expect("format into a String");
    for (kind, n) in counts {
        assert!(
            n > 0,
            "no {kind} retransmission: the world is not lossy enough"
        );
    }
    check_golden("stack_sessions", &s.out);
}
