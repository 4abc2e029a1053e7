//! TCP ECN negotiation in detail (paper §2 and §4.3): the RFC 3168
//! handshake against a willing server, a declining server, and the broken
//! middlebox that reflects ECE+CWR — plus the Kühlewind-style *usability*
//! probe the paper cites (send a CE-marked segment, expect ECE back),
//! implemented as an extension.
//!
//! ```text
//! cargo run --example ecn_negotiation
//! ```

use ecnudp::netsim::{LinkProps, Nanos, RouteEntry, Router, Sim};
use ecnudp::stack::{install, EcnMode, HostHandle, StackConfig, TcpServiceAction};
use ecnudp::wire::TcpFlags;
use std::net::Ipv4Addr;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

struct LineEcho;
impl ecnudp::stack::TcpService for LineEcho {
    fn on_data(&mut self, _now: Nanos, received: &[u8]) -> TcpServiceAction {
        if received.ends_with(b"\n") {
            TcpServiceAction::Respond {
                bytes: received.to_vec(),
                close: false,
            }
        } else {
            TcpServiceAction::Wait
        }
    }
}

fn build(seed: u64, servers: &[(Ipv4Addr, EcnMode)]) -> (Sim, HostHandle, Vec<HostHandle>) {
    let mut sim = Sim::new(seed);
    let c = sim.add_host("client", CLIENT);
    let r1 = sim.add_router(Router::new("r1", Ipv4Addr::new(10, 0, 0, 254)));
    let r2 = sim.add_router(Router::new("r2", Ipv4Addr::new(192, 0, 2, 254)));
    sim.attach_host(c, r1, LinkProps::clean(Nanos::from_millis(2)));
    let (l12, l21) = sim.add_duplex(r1, r2, LinkProps::clean(Nanos::from_millis(15)));
    sim.route(r1, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l12));
    sim.route(r2, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l21));
    let client = install(&mut sim, c, StackConfig::default());
    let mut handles = Vec::new();
    for (addr, mode) in servers {
        let node = sim.add_host(format!("server-{addr}"), *addr);
        sim.attach_host(node, r2, LinkProps::clean(Nanos::from_millis(1)));
        let h = install(&mut sim, node, StackConfig::default());
        h.register_tcp_listener(80, *mode, Some(Box::new(LineEcho)));
        handles.push(h);
    }
    (sim, client, handles)
}

fn flags_str(bits: Option<u16>) -> String {
    bits.map(|b| TcpFlags(b).to_string())
        .unwrap_or_else(|| "(no SYN-ACK)".into())
}

fn main() {
    let willing = Ipv4Addr::new(192, 0, 2, 10);
    let declining = Ipv4Addr::new(192, 0, 2, 20);
    let reflector = Ipv4Addr::new(192, 0, 2, 30);
    let (mut sim, client, _servers) = build(
        7,
        &[
            (willing, EcnMode::On),
            (declining, EcnMode::Off),
            (reflector, EcnMode::ReflectFlags),
        ],
    );

    println!("RFC 3168 negotiation: client sends ECN-setup SYN (SYN+ECE+CWR)\n");
    for (name, addr) in [
        ("ECN-capable server", willing),
        ("ECN-off server", declining),
        ("flag-reflecting middlebox", reflector),
    ] {
        let conn = client.tcp_connect(&mut sim, (addr, 80), true);
        sim.run_for(Nanos::from_secs(2));
        let (syn_ack_flags, negotiated) = client
            .with_conn(conn, |c| (c.handshake.syn_ack_flags, c.ecn_negotiated))
            .expect("conn");
        println!(
            "{name:<26} SYN-ACK flags: {:<16} -> ECN negotiated: {negotiated}",
            flags_str(syn_ack_flags.map(|f| f.0)),
        );
        client.tcp_close(&mut sim, conn);
        sim.run_for(Nanos::from_secs(1));
        client.remove_conn(conn);
    }

    // Kühlewind-style usability probe: negotiate, then send a CE-marked
    // data segment; a working receiver echoes ECE on its ACKs, and our
    // sender registers a congestion response.
    println!("\nECN usability probe (Kühlewind-style): CE-marked request segment");
    let conn = client.tcp_connect(&mut sim, (willing, 80), true);
    sim.run_for(Nanos::from_secs(1));
    client.tcp_force_ce(conn, true);
    client.tcp_send(&mut sim, conn, b"usability check\n");
    sim.run_for(Nanos::from_secs(2));
    let (echoed, congestion_events) = client
        .with_conn(conn, |c| (c.received().to_vec(), c.congestion_events))
        .expect("conn");
    println!(
        "server echoed data: {:?}; congestion responses triggered by ECE: {congestion_events}",
        String::from_utf8_lossy(&echoed),
    );
    if congestion_events > 0 {
        println!("=> the peer's ECE feedback loop works: ECN is usable, not just negotiable.");
    }
    client.tcp_close(&mut sim, conn);
}
