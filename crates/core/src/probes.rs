//! The reachability probes of paper §3.
//!
//! *UDP*: an NTP request in a not-ECT or ECT(0)-marked packet, retried up
//! to five times with a one-second timeout. The verdict comes from the
//! parallel capture ("tcpdump session"), not from the socket: a server is
//! reachable iff a response matching any of the session's requests appears
//! on the wire.
//!
//! *TCP*: an HTTP `GET /`, once with a normal SYN and once with an
//! ECN-setup SYN; the capture determines whether the returned SYN-ACK was
//! an ECN-setup SYN-ACK (SYN+ACK+ECE without CWR, RFC 3168 §6.1.1).

use crate::config::{ProbeConfig, ValidationConfig};
use ecn_netsim::{CaptureRef, Direction, Nanos, Sim};
use ecn_services::{echo_request, parse_echo_reply, NtpClient, ECN_ECHO_PORT};
use ecn_stack::{
    CloseReason, EcnValidator, HostHandle, TcpState, ValidationOutcome, ValidatorParams,
};
use ecn_wire::{Ecn, HttpResponse, IpProto, TcpFlags, TcpHeader, UdpHeader};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Result of one UDP probe session against one server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UdpProbeResult {
    /// A matching NTP response was captured.
    pub reachable: bool,
    /// Requests sent (1 + retransmissions used).
    pub attempts: u32,
    /// ECN codepoint of the response packet, when reachable.
    pub response_ecn: Option<Ecn>,
    /// Time from first request to the captured response.
    pub rtt: Option<Nanos>,
}

/// Probe a server's NTP service with `ecn`-marked UDP requests.
pub fn probe_udp(
    sim: &mut Sim,
    handle: &HostHandle,
    capture: &CaptureRef,
    server: Ipv4Addr,
    ecn: Ecn,
    cfg: &ProbeConfig,
) -> UdpProbeResult {
    // The verdict comes from the capture, so the socket is a sink: the
    // port is held open (no port-unreachable) but response payloads are
    // never copied into an inbox.
    let sock = handle.udp_bind_sink();
    let session_start = sim.now();
    let mut sent = Vec::with_capacity(1 + cfg.udp_retries as usize);
    let mut req_wire = Vec::with_capacity(ecn_wire::NTP_PACKET_LEN);
    let mut attempts = 0;
    let mut outcome = UdpProbeResult {
        reachable: false,
        attempts: 0,
        response_ecn: None,
        rtt: None,
    };
    'session: for _ in 0..=cfg.udp_retries {
        attempts += 1;
        let req = NtpClient::request(sim.now());
        req_wire.clear();
        req.encode_into(&mut req_wire);
        handle.udp_send(sim, sock, (server, 123), &req_wire, ecn);
        sent.push(req);
        let deadline = sim.now() + cfg.udp_timeout;
        sim.run_until(deadline);
        // Verdict from the capture, as per the methodology. The scan
        // borrows each captured packet in place (header decode + payload
        // slice) instead of re-materialising owned datagrams.
        let cap = capture.lock();
        for p in cap.since(session_start) {
            if p.dir != Direction::In {
                continue;
            }
            let Some(h) = p.ip_header() else { continue };
            if h.src != server || h.protocol != IpProto::Udp {
                continue;
            }
            let Ok((uh, body)) = UdpHeader::decode(h.src, h.dst, p.ip_payload()) else {
                continue;
            };
            if uh.src_port != 123 || uh.dst_port != sock {
                continue;
            }
            if sent.iter().any(|req| NtpClient::matches(req, body)) {
                outcome = UdpProbeResult {
                    reachable: true,
                    attempts,
                    response_ecn: Some(h.ecn),
                    rtt: Some(p.ts.saturating_sub(session_start)),
                };
                break 'session;
            }
        }
        drop(cap);
    }
    handle.udp_close(sock);
    outcome.attempts = attempts;
    outcome
}

/// Run one RFC 9000-style ECN validation round against a server through
/// the pool's validation echo service (port 3168): drive the
/// [`EcnValidator`] state machine by sending its marked testing train
/// back-to-back (so sojourn-marking AQM bottlenecks see a real queue),
/// then feed every echoed (sent, arrived) codepoint report back and
/// conclude. `session_ecn` is the codepoint this endpoint marks with
/// (ECT(0), or ECT(1) for L4S-style senders); `control_reachable` is the
/// trace's not-ECT verdict for the same server, used to tell a marked-
/// traffic black hole from a dead host.
pub fn probe_validation(
    sim: &mut Sim,
    handle: &HostHandle,
    server: Ipv4Addr,
    session_ecn: Ecn,
    control_reachable: bool,
    cfg: &ValidationConfig,
) -> ValidationOutcome {
    let mut validator = EcnValidator::new(ValidatorParams {
        testing_packets: cfg.packets,
        ce_canary: cfg.ce_canary,
        ..ValidatorParams::default()
    });
    // A real inbox socket (not a sink): the verdict reads the peer's
    // *report payload*, the analogue of QUIC's ACK-ECN counts — the
    // capture only sees what arrived locally, which says nothing about
    // what the server received.
    let sock = handle.udp_bind(0);
    let packets = cfg.packets.min(255);
    let mut sent = Vec::with_capacity(packets as usize);
    for seq in 0..packets {
        let mark = validator.next_codepoint(session_ecn);
        handle.udp_send(
            sim,
            sock,
            (server, ECN_ECHO_PORT),
            &echo_request(seq as u8),
            mark,
        );
        sent.push(mark);
    }
    sim.run_until(sim.now() + cfg.timeout);
    while let Some(msg) = handle.udp_recv(sock) {
        if let Some((seq, arrived)) = parse_echo_reply(&msg.payload) {
            if let Some(&mark) = sent.get(seq as usize) {
                validator.on_peer_report(mark, arrived);
            }
        }
    }
    handle.udp_close(sock);
    validator.conclude(sim.now(), control_reachable)
}

/// Result of one TCP/HTTP probe against one server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TcpProbeResult {
    /// An HTTP response (even partial) came back.
    pub reachable: bool,
    /// HTTP status code if a response head was parsed.
    pub http_status: Option<u16>,
    /// Did we send an ECN-setup SYN?
    pub requested_ecn: bool,
    /// Capture-verified: the SYN-ACK was an ECN-setup SYN-ACK.
    pub negotiated_ecn: bool,
    /// Raw SYN-ACK flag bits seen on the wire (diagnostics; detects
    /// reflect-flags middleboxes).
    pub syn_ack_flags: Option<u16>,
    /// Why the connection ended, if it failed.
    pub close_reason: Option<CloseReason>,
}

/// Probe a server's web service with an HTTP GET, optionally negotiating
/// ECN.
pub fn probe_tcp(
    sim: &mut Sim,
    handle: &HostHandle,
    capture: &CaptureRef,
    server: Ipv4Addr,
    use_ecn: bool,
    cfg: &ProbeConfig,
) -> TcpProbeResult {
    let session_start = sim.now();
    let conn = handle.tcp_connect(sim, (server, 80), use_ecn);

    // Wait for the handshake to resolve.
    let deadline = sim.now() + cfg.tcp_handshake_wait;
    loop {
        match handle.with_conn(conn, |c| c.state) {
            Some(TcpState::Established) | Some(TcpState::Closed) | None => break,
            _ if sim.now() >= deadline => break,
            _ => {
                let step = (deadline.0 - sim.now().0).min(cfg.poll_quantum.0);
                sim.run_for(Nanos(step));
            }
        }
    }

    let mut result = TcpProbeResult {
        reachable: false,
        http_status: None,
        requested_ecn: use_ecn,
        negotiated_ecn: false,
        syn_ack_flags: None,
        close_reason: None,
    };

    let established = handle.with_conn(conn, |c| c.state) == Some(TcpState::Established);
    if established {
        // Issue the GET and wait for a complete response or teardown.
        let mut req = Vec::with_capacity(96);
        ecn_wire::http::encode_get_root_into(server, &mut req);
        handle.tcp_send(sim, conn, &req);
        let deadline = sim.now() + cfg.http_wait;
        while let Some((state, peer_closed, done)) = handle.with_conn(conn, |c| {
            (
                c.state,
                c.peer_closed(),
                HttpResponse::is_complete(c.received()),
            )
        }) {
            if done || peer_closed || state == TcpState::Closed || sim.now() >= deadline {
                break;
            }
            let step = (deadline.0 - sim.now().0).min(cfg.poll_quantum.0);
            sim.run_for(Nanos(step));
        }
        // The status parse borrows the receive buffer in place.
        if let Some(Ok(status)) = handle.with_conn(conn, |c| HttpResponse::status_of(c.received()))
        {
            result.reachable = true;
            result.http_status = Some(status);
        }
        handle.tcp_close(sim, conn);
        sim.run_for(Nanos::from_millis(500));
    }
    if let Some(reason) = handle.with_conn(conn, |c| c.close_reason) {
        result.close_reason = reason;
    }
    handle.remove_conn(conn);

    // Capture-verified ECN verdict: find the first SYN-ACK from the server.
    let cap = capture.lock();
    for p in cap.since(session_start) {
        if p.dir != Direction::In {
            continue;
        }
        let Some(h) = p.ip_header() else { continue };
        if h.src != server || h.protocol != IpProto::Tcp {
            continue;
        }
        let Ok(th) = TcpHeader::decode_fields(p.ip_payload()) else {
            continue;
        };
        if th.flags.contains(TcpFlags::SYN) && th.flags.contains(TcpFlags::ACK) {
            result.syn_ack_flags = Some(th.flags.0);
            result.negotiated_ecn = use_ecn && th.flags.is_ecn_setup_syn_ack();
            break;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecn_pool::{build_scenario, PoolPlan, SpecialBehaviour};
    use ecn_stack::AvailabilityModel;

    #[test]
    fn udp_probe_reaches_healthy_server_and_reports_rtt() {
        let mut sc = build_scenario(&PoolPlan::scaled(30), 11);
        let v = sc.vantages[4].handle.clone();
        let cap = sc.sim.attach_capture(sc.vantages[4].node);
        let target = sc
            .servers
            .iter()
            .find(|s| {
                s.profile.special == SpecialBehaviour::None
                    && s.profile.availability == AvailabilityModel::AlwaysUp
            })
            .map(|s| s.addr)
            .expect("healthy server");
        let cfg = ProbeConfig::default();
        let r = probe_udp(&mut sc.sim, &v, &cap, target, Ecn::Ect0, &cfg);
        assert!(r.reachable);
        assert!(r.rtt.expect("rtt") > Nanos::ZERO);
        assert_eq!(r.response_ecn, Some(Ecn::NotEct), "NTP replies are not-ECT");
    }

    #[test]
    fn udp_probe_times_out_on_dead_server_after_six_attempts() {
        let mut sc = build_scenario(&PoolPlan::scaled(30), 12);
        let v = sc.vantages[0].handle.clone();
        let cap = sc.sim.attach_capture(sc.vantages[0].node);
        let dead = sc
            .servers
            .iter()
            .find(|s| s.profile.availability == AvailabilityModel::AlwaysDown)
            .map(|s| s.addr)
            .expect("dead server");
        let cfg = ProbeConfig::default();
        let t0 = sc.sim.now();
        let r = probe_udp(&mut sc.sim, &v, &cap, dead, Ecn::NotEct, &cfg);
        assert!(!r.reachable);
        assert_eq!(r.attempts, 6, "initial + 5 retransmissions");
        let elapsed = sc.sim.now().saturating_sub(t0);
        assert!(elapsed >= Nanos::from_secs(6), "waited the full schedule");
    }

    #[test]
    fn tcp_probe_gets_redirect_and_negotiates_ecn() {
        let mut sc = build_scenario(&PoolPlan::scaled(40), 13);
        let v = sc.vantages[8].handle.clone();
        let cap = sc.sim.attach_capture(sc.vantages[8].node);
        let target = sc
            .servers
            .iter()
            .find(|s| {
                s.profile.web.as_ref().map(|w| w.ecn) == Some(ecn_stack::EcnMode::On)
                    && s.profile.availability == AvailabilityModel::AlwaysUp
                    && s.profile.special == SpecialBehaviour::None
                    && !s.profile.web.as_ref().map(|w| w.plain_ok).unwrap_or(false)
            })
            .map(|s| s.addr)
            .expect("ecn web server");
        let cfg = ProbeConfig::default();
        let r = probe_tcp(&mut sc.sim, &v, &cap, target, true, &cfg);
        assert!(r.reachable);
        assert_eq!(r.http_status, Some(302), "pool redirect");
        assert!(r.negotiated_ecn);
        // and without requesting ECN, negotiation does not happen
        let r2 = probe_tcp(&mut sc.sim, &v, &cap, target, false, &cfg);
        assert!(r2.reachable);
        assert!(!r2.negotiated_ecn);
        assert!(!r2.requested_ecn);
    }

    #[test]
    fn tcp_probe_to_host_without_web_server_is_unreachable_fast() {
        let mut sc = build_scenario(&PoolPlan::scaled(40), 14);
        let v = sc.vantages[1].handle.clone();
        let cap = sc.sim.attach_capture(sc.vantages[1].node);
        let target = sc
            .servers
            .iter()
            .find(|s| {
                s.profile.web.is_none()
                    && s.profile.availability == AvailabilityModel::AlwaysUp
                    && s.profile.special == SpecialBehaviour::None
            })
            .map(|s| s.addr)
            .expect("no-web server");
        let cfg = ProbeConfig::default();
        let t0 = sc.sim.now();
        let r = probe_tcp(&mut sc.sim, &v, &cap, target, true, &cfg);
        assert!(!r.reachable);
        assert_eq!(r.close_reason, Some(CloseReason::Reset));
        assert!(
            sc.sim.now().saturating_sub(t0) < Nanos::from_secs(5),
            "RST is fast"
        );
    }

    #[test]
    fn validation_passes_on_clean_path_for_both_ect_codepoints() {
        let mut sc = build_scenario(&PoolPlan::scaled(30), 21);
        let v = sc.vantages[2].handle.clone();
        let target = sc
            .servers
            .iter()
            .find(|s| {
                s.profile.special == SpecialBehaviour::None
                    && s.profile.availability == AvailabilityModel::AlwaysUp
                    && !sc.truth.bleached_servers.contains(&s.addr)
                    && !sc.truth.bleached_sometimes_servers.contains(&s.addr)
            })
            .map(|s| s.addr)
            .expect("clean server");
        let cfg = ValidationConfig {
            packets: 10,
            ..ValidationConfig::default()
        };
        for session in [Ecn::Ect0, Ecn::Ect1] {
            let outcome = probe_validation(&mut sc.sim, &v, target, session, true, &cfg);
            assert_eq!(outcome, ValidationOutcome::Capable, "session {session:?}");
        }
    }

    #[test]
    fn validation_fails_behind_an_always_bleacher() {
        let mut sc = build_scenario(&PoolPlan::scaled(60), 22);
        let v = sc.vantages[0].handle.clone();
        let target = sc
            .servers
            .iter()
            .find(|s| {
                sc.truth.bleached_servers.contains(&s.addr)
                    && s.profile.availability == AvailabilityModel::AlwaysUp
            })
            .map(|s| s.addr)
            .expect("bleached live server");
        let cfg = ValidationConfig {
            packets: 10,
            ..ValidationConfig::default()
        };
        let outcome = probe_validation(&mut sc.sim, &v, target, Ecn::Ect0, true, &cfg);
        assert_eq!(outcome, ValidationOutcome::FailedBleached);
    }

    #[test]
    fn ecn_off_server_answers_but_declines() {
        let mut sc = build_scenario(&PoolPlan::scaled(60), 15);
        let v = sc.vantages[3].handle.clone();
        let cap = sc.sim.attach_capture(sc.vantages[3].node);
        let target = sc
            .servers
            .iter()
            .find(|s| {
                s.profile.web.as_ref().map(|w| w.ecn) == Some(ecn_stack::EcnMode::Off)
                    && s.profile.availability == AvailabilityModel::AlwaysUp
                    && s.profile.special == SpecialBehaviour::None
            })
            .map(|s| s.addr)
            .expect("non-ecn web server");
        let r = probe_tcp(&mut sc.sim, &v, &cap, target, true, &ProbeConfig::default());
        assert!(r.reachable);
        assert!(!r.negotiated_ecn);
        let flags = TcpFlags(r.syn_ack_flags.expect("flags"));
        assert!(!flags.contains(TcpFlags::ECE));
    }
}
