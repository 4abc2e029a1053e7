//! Why ECN matters for UDP media — the paper's §1 motivation, demonstrated.
//!
//! An RTP video-like flow crosses a RED+ECN bottleneck twice:
//!
//! 1. **with ECN** — packets are ECT(0)-marked; the congested queue
//!    CE-marks instead of dropping; the receiver reports CE counts in
//!    RFC 6679-style feedback; the sender adapts its rate (a miniature
//!    NADA-style controller). Congestion is handled with (almost) no loss.
//! 2. **without ECN** — identical flow, not-ECT; the same queue must drop;
//!    the media stream takes visible losses.
//!
//! ```text
//! cargo run --release --example rtp_media
//! ```

use ecnudp::netsim::{LinkProps, Nanos, QueueDisc, RouteEntry, Router, Sim};
use ecnudp::stack::{install, HostHandle, StackConfig};
use ecnudp::wire::{Ecn, EcnFeedback, RtpHeader};
use std::net::Ipv4Addr;

const SENDER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const RECEIVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const MEDIA_PORT: u16 = 5004;

/// Media path: sender -- r1 ==RED bottleneck== r2 -- receiver.
fn build_path(seed: u64) -> (Sim, HostHandle, HostHandle) {
    let mut sim = Sim::new(seed);
    let s = sim.add_host("sender", SENDER);
    let r = sim.add_host("receiver", RECEIVER);
    let r1 = sim.add_router(Router::new("r1", Ipv4Addr::new(10, 0, 0, 254)));
    let r2 = sim.add_router(Router::new("r2", Ipv4Addr::new(192, 0, 2, 254)));
    sim.attach_host(s, r1, LinkProps::clean(Nanos::from_millis(2)));
    sim.attach_host(r, r2, LinkProps::clean(Nanos::from_millis(2)));
    // 2 Mbit/s bottleneck with a RED+ECN queue (~25 kB band)
    let red = QueueDisc::Red {
        min_th_bytes: 6_000,
        max_th_bytes: 25_000,
        max_p: 0.15,
        weight: 0.05,
        ecn: true,
        limit_bytes: 60_000,
    };
    let (l12, l21) = sim.add_duplex(
        r1,
        r2,
        LinkProps::bottleneck(Nanos::from_millis(20), 2_000_000, red),
    );
    sim.route(r1, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l12));
    sim.route(r2, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l21));
    let sender = install(&mut sim, s, StackConfig::default());
    let receiver = install(&mut sim, r, StackConfig::default());
    (sim, sender, receiver)
}

struct RunStats {
    sent: u32,
    received: u32,
    lost: u32,
    ce_marked: u32,
    rate_changes: u32,
    final_rate_kbps: f64,
}

/// Run a 30-second media session; `use_ecn` controls the packet marking
/// and whether the sender reacts to CE feedback.
fn run_media(use_ecn: bool, seed: u64) -> RunStats {
    let (mut sim, sender, receiver) = build_path(seed);
    let tx = sender.udp_bind(MEDIA_PORT);
    let rx = receiver.udp_bind(MEDIA_PORT);

    let marking = if use_ecn { Ecn::Ect0 } else { Ecn::NotEct };
    // media model: 1200-byte packets; rate starts at 3 Mbit/s (above the
    // 2 Mbit/s bottleneck) and adapts on feedback when ECN is on.
    let packet_bytes = 1200u32;
    let mut rate_bps: f64 = 3_000_000.0;
    let mut seq: u16 = 0;
    let mut ts: u32 = 0;
    let mut sent = 0u32;
    let mut rate_changes = 0u32;

    // receiver state
    let mut highest_seq: u32 = 0;
    let mut received = 0u32;
    let mut ce = 0u32;
    let mut ect0 = 0u32;
    let mut not_ect = 0u32;
    let mut interval_received = 0u32;
    let mut interval_ce = 0u32;

    let horizon = Nanos::from_secs(30);
    let feedback_every = Nanos::from_millis(100);
    let mut next_feedback = feedback_every;
    let mut next_send = Nanos::ZERO;

    while sim.now() < horizon {
        // send packets at the current rate
        while next_send <= sim.now() {
            let header = RtpHeader {
                payload_type: 96,
                marker: false,
                sequence: seq,
                timestamp: ts,
                ssrc: 0x1234_5678,
            };
            let payload = vec![0u8; packet_bytes as usize - 12];
            sender.udp_send(
                &mut sim,
                tx,
                (RECEIVER, MEDIA_PORT),
                &header.encode(&payload),
                marking,
            );
            sent += 1;
            seq = seq.wrapping_add(1);
            ts = ts.wrapping_add(3000);
            let gap = (f64::from(packet_bytes) * 8.0 / rate_bps * 1e9) as u64;
            next_send += Nanos(gap);
        }
        let step = next_send.min(sim.now() + Nanos::from_millis(10));
        sim.run_until(step);

        // receiver: drain media, count markings
        while let Some(got) = receiver.udp_recv(rx) {
            if EcnFeedback::is_feedback(&got.payload) {
                continue; // feedback flows the other way
            }
            if let Ok((h, _)) = RtpHeader::decode(&got.payload) {
                received += 1;
                interval_received += 1;
                highest_seq = highest_seq.max(u32::from(h.sequence));
                match got.ecn {
                    Ecn::Ce => {
                        ce += 1;
                        interval_ce += 1;
                    }
                    Ecn::Ect0 => ect0 += 1,
                    _ => not_ect += 1,
                }
            }
        }

        // receiver: periodic RFC 6679-style feedback
        if sim.now() >= next_feedback {
            next_feedback += feedback_every;
            let fb = EcnFeedback {
                ext_highest_seq: highest_seq,
                received: interval_received,
                ce_count: interval_ce,
                ect0_count: ect0,
                not_ect_count: not_ect,
                lost: sent.saturating_sub(received),
            };
            receiver.udp_send(
                &mut sim,
                rx,
                (SENDER, MEDIA_PORT),
                &fb.encode(),
                Ecn::NotEct,
            );
            interval_received = 0;
            interval_ce = 0;
        }

        // sender: react to feedback (mini-NADA: multiplicative decrease on
        // CE, gentle additive increase otherwise)
        while let Some(got) = sender.udp_recv(tx) {
            if let Ok(fb) = EcnFeedback::decode(&got.payload) {
                if use_ecn && fb.ce_count > 0 {
                    let ratio = f64::from(fb.ce_count) / f64::from(fb.received.max(1));
                    rate_bps = (rate_bps * (1.0 - 0.5 * ratio)).max(300_000.0);
                    rate_changes += 1;
                } else {
                    rate_bps = (rate_bps + 20_000.0).min(3_000_000.0);
                }
            }
        }
    }
    sim.run_for(Nanos::from_secs(1));
    while let Some(got) = receiver.udp_recv(rx) {
        if !EcnFeedback::is_feedback(&got.payload) && RtpHeader::decode(&got.payload).is_ok() {
            received += 1;
            if got.ecn == Ecn::Ce {
                ce += 1;
            }
        }
    }

    RunStats {
        sent,
        received,
        lost: sent - received,
        ce_marked: ce,
        rate_changes,
        final_rate_kbps: rate_bps / 1000.0,
    }
}

fn main() {
    println!("RTP media over a 2 Mbit/s RED+ECN bottleneck, 30 s session\n");
    let with_ecn = run_media(true, 1);
    let without_ecn = run_media(false, 1);

    let row = |name: &str, s: &RunStats| {
        println!(
            "{name:<12} sent {:>6}  received {:>6}  lost {:>5} ({:>5.2}%)  CE-marked {:>5}  rate-adaptations {:>3}  final rate {:>7.0} kbit/s",
            s.sent,
            s.received,
            s.lost,
            100.0 * f64::from(s.lost) / f64::from(s.sent.max(1)),
            s.ce_marked,
            s.rate_changes,
            s.final_rate_kbps,
        );
    };
    row("with ECN", &with_ecn);
    row("without ECN", &without_ecn);

    let loss_with = f64::from(with_ecn.lost) / f64::from(with_ecn.sent.max(1));
    let loss_without = f64::from(without_ecn.lost) / f64::from(without_ecn.sent.max(1));
    println!(
        "\nECN cut media loss from {:.2}% to {:.2}% — congestion signalled by {} CE marks instead of drops.",
        100.0 * loss_without,
        100.0 * loss_with,
        with_ecn.ce_marked,
    );
    println!("This is the WebRTC/NADA use case that motivates asking whether ECT-marked UDP even survives the Internet (paper §1).");
}
