//! Criterion micro-benchmarks of the hot paths under the campaign:
//! codec encode/decode, checksums, LPM lookups, the event loop, and the
//! TCP handshake state machine.

use criterion::{criterion_group, criterion_main, Criterion};
use ecn_netsim::{Ipv4Prefix, LinkProps, Nanos, PrefixMap, RouteEntry, Router, Sim};
use ecn_stack::{EcnMode, TcpConn};
use ecn_wire::{internet_checksum, Datagram, Ecn, IpProto, Ipv4Header, NtpPacket, NtpTimestamp};
use std::net::Ipv4Addr;

fn bench_wire(c: &mut Criterion) {
    let h = Ipv4Header::probe(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(192, 0, 2, 1),
        IpProto::Udp,
        Ecn::Ect0,
    );
    let d = Datagram::new(h, &[0u8; 48]);
    c.bench_function("ipv4_header_decode", |b| {
        b.iter(|| Ipv4Header::decode(std::hint::black_box(d.as_bytes())))
    });
    c.bench_function("datagram_set_ecn", |b| {
        let mut d = d.clone();
        b.iter(|| {
            d.set_ecn(Ecn::NotEct);
            d.set_ecn(Ecn::Ect0);
        })
    });
    let buf = vec![0xabu8; 1500];
    c.bench_function("internet_checksum_1500B", |b| {
        b.iter(|| internet_checksum(std::hint::black_box(&buf)))
    });
    let ntp = NtpPacket::client_request(NtpTimestamp::from_nanos(1_000_000_000));
    let wire = ntp.encode();
    c.bench_function("ntp_roundtrip", |b| {
        b.iter(|| NtpPacket::decode(std::hint::black_box(&wire)).map(|p| p.encode()))
    });
}

fn bench_lpm(c: &mut Criterion) {
    let mut map: PrefixMap<u32> = PrefixMap::new();
    // a T1-sized table: ~1200 /20s plus a default
    for k in 0..1200u32 {
        let addr = Ipv4Addr::from(0x8000_0000 | (k << 12));
        map.insert(Ipv4Prefix::new(addr, 20), k);
    }
    map.insert("0.0.0.0/0".parse().unwrap(), u32::MAX);
    let probe = Ipv4Addr::from(0x8000_0000 | (777 << 12) | 2048);
    c.bench_function("lpm_lookup_1200_routes", |b| {
        b.iter(|| map.lookup(std::hint::black_box(probe)))
    });
}

fn bench_event_loop(c: &mut Criterion) {
    c.bench_function("sim_hop_throughput_1000pkts_4hops", |b| {
        b.iter_with_setup(
            || {
                let mut sim = Sim::new(1);
                let a = sim.add_host("a", Ipv4Addr::new(10, 0, 0, 1));
                let z = sim.add_host("z", Ipv4Addr::new(192, 0, 2, 1));
                let r1 = sim.add_router(Router::new("r1", Ipv4Addr::new(10, 0, 0, 254)));
                let r2 = sim.add_router(Router::new("r2", Ipv4Addr::new(192, 0, 2, 254)));
                sim.attach_host(a, r1, LinkProps::clean(Nanos::from_millis(1)));
                sim.attach_host(z, r2, LinkProps::clean(Nanos::from_millis(1)));
                let (l12, l21) = sim.add_duplex(r1, r2, LinkProps::clean(Nanos::from_millis(5)));
                sim.route(r1, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l12));
                sim.route(r2, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l21));
                let h = Ipv4Header::probe(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(192, 0, 2, 1),
                    IpProto::Udp,
                    Ecn::Ect0,
                );
                let probe = Datagram::compose(Vec::new(), h, |o| {
                    ecn_wire::udp::udp_segment_into(h.src, h.dst, 40000, 123, &[0; 48], o)
                });
                for _ in 0..1000 {
                    sim.send_from(a, probe.clone());
                }
                sim
            },
            |mut sim| {
                sim.run_to_idle();
                sim.counters().delivered
            },
        )
    });
}

fn bench_tcp_handshake(c: &mut Criterion) {
    const CL: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40000);
    const SV: (Ipv4Addr, u16) = (Ipv4Addr::new(192, 0, 2, 80), 80);
    c.bench_function("tcp_ecn_handshake_state_machine", |b| {
        b.iter(|| {
            let (mut client, syn) = TcpConn::connect(CL, SV, 1000, EcnMode::On);
            let (mut server, syn_ack) = TcpConn::accept(SV, CL, 9000, &syn.header, EcnMode::On);
            let mut acks = Vec::new();
            client.on_segment_into(&syn_ack.header, &[], syn_ack.ip_ecn, &mut acks);
            for e in &acks {
                server.on_segment_into(&e.header, &e.payload, e.ip_ecn, &mut Vec::new());
            }
            (client.ecn_negotiated, server.ecn_negotiated)
        })
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_wire, bench_lpm, bench_event_loop, bench_tcp_handshake
);
criterion_main!(micro);
