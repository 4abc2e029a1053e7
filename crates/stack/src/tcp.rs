//! A compact TCP state machine with RFC 3168 ECN support.
//!
//! Scope: everything the measurement study and its HTTP probes need —
//! three-way handshake with ECN negotiation, in-order data transfer with
//! cumulative ACKs, RTO-based retransmission, the ECE/CWR congestion
//! feedback loop, RST handling, and orderly FIN teardown. Deliberately not
//! implemented (the probes cannot observe them): SACK, out-of-order
//! reassembly, window scaling beyond the advertised static window, Nagle,
//! delayed ACKs, TIME_WAIT timers.
//!
//! The machine is *pure*: inputs are segments/timeouts/user calls, outputs
//! are [`Emit`] records appended to a caller-owned buffer (the stack reuses
//! one across every connection). The stack agent turns emits into
//! checksummed wire segments; tests drive the machine directly.

use ecn_netsim::Nanos;
use ecn_wire::{Ecn, TcpFlags, TcpHeader, TcpOption};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Maximum segment size used by both endpoints.
pub const MSS: usize = 1460;
/// Initial retransmission timeout.
pub const INITIAL_RTO: Nanos = Nanos(1_000_000_000);
/// Retransmission attempts before the connection is abandoned.
pub const MAX_RETRIES: u32 = 5;
/// Static advertised receive window.
pub const RECV_WINDOW: u16 = 65_535;

/// Connection endpoint state (RFC 793 names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Client: SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Server: SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We sent FIN, awaiting its ACK.
    FinWait1,
    /// Our FIN ACKed, awaiting peer's FIN.
    FinWait2,
    /// Peer sent FIN; we ACKed it and may still send.
    CloseWait,
    /// We sent FIN after CloseWait.
    LastAck,
    /// Fully closed (also used instead of TIME_WAIT).
    Closed,
}

/// Why a connection ended up `Closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CloseReason {
    /// Normal FIN handshake completion.
    Graceful,
    /// Peer sent RST.
    Reset,
    /// Retransmissions exhausted.
    TimedOut,
    /// Locally aborted.
    Aborted,
}

/// How this endpoint negotiates ECN (RFC 3168 §6.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcnMode {
    /// Never request or accept ECN.
    Off,
    /// Client: send an ECN-setup SYN. Server: answer an ECN-setup SYN with
    /// an ECN-setup SYN-ACK.
    On,
    /// Broken middlebox/server behaviour observed in the wild: reflect the
    /// SYN's ECE+CWR onto the SYN-ACK. RFC 3168 says such a SYN-ACK is NOT
    /// ECN-setup, and compliant clients must not use ECN on the connection.
    ReflectFlags,
}

/// An outgoing segment produced by the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Emit {
    /// Header to send (checksum filled in later by the stack).
    pub header: TcpHeader,
    /// Segment payload.
    pub payload: Vec<u8>,
    /// IP-level ECN codepoint for this segment: data segments on an
    /// ECN-capable connection are ECT(0); SYNs, pure ACKs and RSTs are
    /// not-ECT (RFC 3168 §6.1.1).
    pub ip_ecn: Ecn,
}

/// Facts the prober wants about the handshake.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandshakeRecord {
    /// Flags observed on the SYN-ACK (client side).
    pub syn_ack_flags: Option<TcpFlags>,
    /// Did we send an ECN-setup SYN?
    pub requested_ecn: bool,
    /// Was the SYN-ACK a valid ECN-setup SYN-ACK (SYN+ACK+ECE, no CWR)?
    pub got_ecn_setup_syn_ack: bool,
}

/// A TCP connection endpoint.
#[derive(Debug)]
pub struct TcpConn {
    /// Local/remote identification (used by the agent to build packets).
    pub local: (Ipv4Addr, u16),
    /// Remote address/port.
    pub remote: (Ipv4Addr, u16),
    /// Current state.
    pub state: TcpState,
    /// Why the connection closed, once `state == Closed`.
    pub close_reason: Option<CloseReason>,
    /// ECN mode configured for this endpoint.
    pub ecn_mode: EcnMode,
    /// Did both ends agree on ECN (data flows as ECT(0))?
    pub ecn_negotiated: bool,
    /// Handshake observations.
    pub handshake: HandshakeRecord,

    // send side
    snd_una: u32,
    snd_nxt: u32,
    send_buf: VecDeque<u8>,
    /// Sequence number of the first byte of `send_buf`.
    send_buf_seq: u32,
    fin_queued: bool,
    fin_seq: Option<u32>,
    peer_window: u16,
    cwnd: usize,
    /// Set when an ECE arrives: next data segment carries CWR.
    cwr_pending: bool,
    /// Measurement hook (Kühlewind-style ECN usability probe): send data
    /// segments CE-marked instead of ECT(0), to test whether the peer's
    /// ECE feedback loop works.
    pub force_ce_data: bool,
    /// Congestion responses taken (one per ECE episode).
    pub congestion_events: u32,

    // receive side
    rcv_nxt: u32,
    recv_buf: Vec<u8>,
    /// Peer sent FIN and we consumed it.
    peer_fin: bool,
    /// A CE-marked data segment arrived and has not yet been CWR-confirmed:
    /// set ECE on outgoing ACKs (RFC 3168 §6.1.3).
    ece_pending: bool,
    /// Count of CE-marked segments received (prober statistic).
    pub ce_received: u32,

    // timers
    rto: Nanos,
    retries: u32,
    /// True when a retransmission timer should be armed.
    pub timer_armed: bool,
}

impl TcpConn {
    /// Open a client connection: returns the connection and the SYN to send.
    pub fn connect(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        ecn_mode: EcnMode,
    ) -> (TcpConn, Emit) {
        let mut conn = TcpConn::new(local, remote, iss, ecn_mode, TcpState::SynSent);
        conn.handshake.requested_ecn = matches!(ecn_mode, EcnMode::On);
        let flags = if conn.handshake.requested_ecn {
            TcpFlags::ecn_setup_syn()
        } else {
            TcpFlags::SYN
        };
        let syn = conn.emit(flags, iss, 0, vec![], Ecn::NotEct);
        conn.snd_nxt = iss.wrapping_add(1);
        conn.timer_armed = true;
        (conn, syn)
    }

    /// Create a server endpoint from a received SYN. Returns the endpoint
    /// and the SYN-ACK.
    pub fn accept(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        syn: &TcpHeader,
        ecn_mode: EcnMode,
    ) -> (TcpConn, Emit) {
        let mut conn = TcpConn::new(local, remote, iss, ecn_mode, TcpState::SynRcvd);
        conn.rcv_nxt = syn.seq.wrapping_add(1);
        conn.peer_window = syn.window;
        let client_requested = syn.flags.is_ecn_setup_syn();
        let flags = match (ecn_mode, client_requested) {
            (EcnMode::On, true) => {
                conn.ecn_negotiated = true;
                TcpFlags::ecn_setup_syn_ack()
            }
            (EcnMode::ReflectFlags, _) => {
                // Buggy reflection: copy ECE/CWR bits straight back.
                let mut f = TcpFlags::SYN | TcpFlags::ACK;
                if syn.flags.contains(TcpFlags::ECE) {
                    f = f | TcpFlags::ECE;
                }
                if syn.flags.contains(TcpFlags::CWR) {
                    f = f | TcpFlags::CWR;
                }
                f
            }
            _ => TcpFlags::SYN | TcpFlags::ACK,
        };
        let syn_ack = conn.emit(flags, iss, conn.rcv_nxt, vec![], Ecn::NotEct);
        conn.snd_nxt = iss.wrapping_add(1);
        conn.timer_armed = true;
        (conn, syn_ack)
    }

    fn new(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        ecn_mode: EcnMode,
        state: TcpState,
    ) -> TcpConn {
        TcpConn {
            local,
            remote,
            state,
            close_reason: None,
            ecn_mode,
            ecn_negotiated: false,
            handshake: HandshakeRecord::default(),
            snd_una: iss,
            snd_nxt: iss,
            send_buf: VecDeque::new(),
            send_buf_seq: iss.wrapping_add(1),
            fin_queued: false,
            fin_seq: None,
            peer_window: RECV_WINDOW,
            cwnd: 10 * MSS,
            cwr_pending: false,
            force_ce_data: false,
            congestion_events: 0,
            rcv_nxt: 0,
            recv_buf: Vec::new(),
            peer_fin: false,
            ece_pending: false,
            ce_received: 0,
            rto: INITIAL_RTO,
            retries: 0,
            timer_armed: false,
        }
    }

    fn emit(&self, flags: TcpFlags, seq: u32, ack: u32, payload: Vec<u8>, ip_ecn: Ecn) -> Emit {
        let options = if flags.contains(TcpFlags::SYN) {
            vec![TcpOption::Mss(MSS as u16)]
        } else {
            vec![]
        };
        Emit {
            header: TcpHeader {
                src_port: self.local.1,
                dst_port: self.remote.1,
                seq,
                ack,
                flags,
                window: RECV_WINDOW,
                urgent: 0,
                options,
            },
            payload,
            ip_ecn,
        }
    }

    fn ack_flags(&self) -> TcpFlags {
        if self.ece_pending && self.ecn_negotiated {
            TcpFlags::ACK | TcpFlags::ECE
        } else {
            TcpFlags::ACK
        }
    }

    /// Bytes received in order so far (drained by the reader).
    pub fn take_received(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.recv_buf)
    }

    /// Peek at received bytes without draining.
    pub fn received(&self) -> &[u8] {
        &self.recv_buf
    }

    /// Has the peer half-closed (FIN consumed)?
    pub fn peer_closed(&self) -> bool {
        self.peer_fin
    }

    /// Queue application data, appending the segments the window lets go
    /// now to `out`.
    pub fn send_into(&mut self, data: &[u8], out: &mut Vec<Emit>) {
        if matches!(
            self.state,
            TcpState::Closed | TcpState::FinWait1 | TcpState::FinWait2 | TcpState::LastAck
        ) {
            return;
        }
        self.send_buf.extend(data);
        self.pump_into(out);
    }

    /// Begin an orderly close, appending the FIN to `out` once everything
    /// queued is sent. A close before the handshake ends aborts silently.
    pub fn close_into(&mut self, out: &mut Vec<Emit>) {
        match self.state {
            TcpState::Closed | TcpState::FinWait1 | TcpState::FinWait2 | TcpState::LastAck => {}
            TcpState::SynSent => {
                self.state = TcpState::Closed;
                self.close_reason = Some(CloseReason::Aborted);
                self.timer_armed = false;
            }
            _ => {
                self.fin_queued = true;
                self.pump_into(out);
            }
        }
    }

    /// Abort, appending a RST to `out`.
    pub fn abort_into(&mut self, out: &mut Vec<Emit>) {
        let rst = self.emit(
            TcpFlags::RST | TcpFlags::ACK,
            self.snd_nxt,
            self.rcv_nxt,
            vec![],
            Ecn::NotEct,
        );
        self.state = TcpState::Closed;
        self.close_reason = Some(CloseReason::Aborted);
        self.timer_armed = false;
        out.push(rst);
    }

    /// Push queued data/FIN into the window.
    fn pump_into(&mut self, out: &mut Vec<Emit>) {
        let produced_from = out.len();
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::SynRcvd
        ) {
            return;
        }
        // SynRcvd holds data until the handshake completes.
        if self.state == TcpState::SynRcvd {
            return;
        }
        let window = (self.peer_window as usize).min(self.cwnd).max(MSS);
        let ecn = match (self.ecn_negotiated, self.force_ce_data) {
            (false, _) => Ecn::NotEct,
            (true, false) => Ecn::Ect0,
            (true, true) => Ecn::Ce,
        };
        loop {
            let in_flight = self.snd_nxt.wrapping_sub(self.snd_una) as usize;
            let buffered_from = self.snd_nxt.wrapping_sub(self.send_buf_seq) as usize;
            let available = self.send_buf.len().saturating_sub(buffered_from);
            if available == 0 || in_flight >= window {
                break;
            }
            let take = available.min(MSS).min(window - in_flight);
            out.push(self.data_segment(self.snd_nxt, take, ecn));
            self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
        }
        // FIN once everything queued is sent.
        if self.fin_queued && self.fin_seq.is_none() {
            let buffered_from = self.snd_nxt.wrapping_sub(self.send_buf_seq) as usize;
            if buffered_from >= self.send_buf.len() {
                let fin = self.emit(
                    self.ack_flags() | TcpFlags::FIN,
                    self.snd_nxt,
                    self.rcv_nxt,
                    vec![],
                    Ecn::NotEct,
                );
                self.fin_seq = Some(self.snd_nxt);
                self.snd_nxt = self.snd_nxt.wrapping_add(1);
                self.state = match self.state {
                    TcpState::CloseWait => TcpState::LastAck,
                    _ => TcpState::FinWait1,
                };
                out.push(fin);
            }
        }
        if out.len() > produced_from {
            self.timer_armed = true;
        }
    }

    /// The data segment of `len` buffered bytes from `seq`, marked `ecn`.
    /// It carries CWR once after the peer's ECE (RFC 3168 §6.1.2).
    fn data_segment(&mut self, seq: u32, len: usize, ecn: Ecn) -> Emit {
        let offset = seq.wrapping_sub(self.send_buf_seq) as usize;
        let chunk = self
            .send_buf
            .iter()
            .skip(offset)
            .take(len)
            .copied()
            .collect();
        let mut flags = self.ack_flags() | TcpFlags::PSH;
        if self.cwr_pending && self.ecn_negotiated {
            flags = flags | TcpFlags::CWR;
            self.cwr_pending = false;
        }
        self.emit(flags, seq, self.rcv_nxt, chunk, ecn)
    }

    /// Handle an arriving segment, appending the replies to `out`.
    /// `ip_ecn` is the ECN codepoint of the IP packet that carried it.
    pub fn on_segment_into(
        &mut self,
        hdr: &TcpHeader,
        payload: &[u8],
        ip_ecn: Ecn,
        out: &mut Vec<Emit>,
    ) {
        if self.state == TcpState::Closed {
            return;
        }
        // RST: kill the connection (simplified acceptance check).
        if hdr.flags.contains(TcpFlags::RST) {
            self.state = TcpState::Closed;
            self.close_reason = Some(CloseReason::Reset);
            self.timer_armed = false;
            return;
        }

        match self.state {
            TcpState::SynSent => self.on_segment_syn_sent(hdr, out),
            _ => self.on_segment_common(hdr, payload, ip_ecn, out),
        }
    }

    fn on_segment_syn_sent(&mut self, hdr: &TcpHeader, out: &mut Vec<Emit>) {
        if !hdr.flags.contains(TcpFlags::SYN) || !hdr.flags.contains(TcpFlags::ACK) {
            return;
        }
        if hdr.ack != self.snd_nxt {
            return; // not for our SYN
        }
        self.handshake.syn_ack_flags = Some(hdr.flags);
        self.handshake.got_ecn_setup_syn_ack = hdr.flags.is_ecn_setup_syn_ack();
        // RFC 3168: ECN is in force only after ECN-setup SYN + ECN-setup
        // SYN-ACK. A reflected ECE+CWR SYN-ACK does not count.
        self.ecn_negotiated = self.handshake.requested_ecn && self.handshake.got_ecn_setup_syn_ack;
        self.rcv_nxt = hdr.seq.wrapping_add(1);
        self.snd_una = hdr.ack;
        self.peer_window = hdr.window;
        self.state = TcpState::Established;
        self.retries = 0;
        self.rto = INITIAL_RTO;
        self.timer_armed = false;
        let ack = self.emit(
            TcpFlags::ACK,
            self.snd_nxt,
            self.rcv_nxt,
            vec![],
            Ecn::NotEct,
        );
        out.push(ack);
        self.pump_into(out);
    }

    fn on_segment_common(
        &mut self,
        hdr: &TcpHeader,
        payload: &[u8],
        ip_ecn: Ecn,
        out: &mut Vec<Emit>,
    ) {
        // Handshake completion on the server.
        if self.state == TcpState::SynRcvd
            && hdr.flags.contains(TcpFlags::ACK)
            && hdr.ack == self.snd_nxt
        {
            self.state = TcpState::Established;
            self.retries = 0;
            self.rto = INITIAL_RTO;
            self.timer_armed = false;
            self.snd_una = hdr.ack;
        }

        // ACK processing.
        if hdr.flags.contains(TcpFlags::ACK) {
            let acked = hdr.ack.wrapping_sub(self.snd_una);
            let outstanding = self.snd_nxt.wrapping_sub(self.snd_una);
            if acked > 0 && acked <= outstanding {
                self.snd_una = hdr.ack;
                // Trim the send buffer below snd_una.
                let drop_n = (self.snd_una.wrapping_sub(self.send_buf_seq) as usize)
                    .min(self.send_buf.len());
                self.send_buf.drain(..drop_n);
                self.send_buf_seq = self.send_buf_seq.wrapping_add(drop_n as u32);
                self.retries = 0;
                self.rto = INITIAL_RTO;
                self.timer_armed = self.snd_una != self.snd_nxt;
                // FIN acked?
                if let Some(fin_seq) = self.fin_seq {
                    if self.snd_una == fin_seq.wrapping_add(1) {
                        match self.state {
                            TcpState::FinWait1 => self.state = TcpState::FinWait2,
                            TcpState::LastAck => {
                                self.state = TcpState::Closed;
                                self.close_reason = Some(CloseReason::Graceful);
                                self.timer_armed = false;
                            }
                            _ => {}
                        }
                    }
                }
            }
            self.peer_window = hdr.window;
            // ECE: peer is echoing congestion — respond once per episode.
            if hdr.flags.contains(TcpFlags::ECE) && self.ecn_negotiated && !self.cwr_pending {
                self.cwnd = (self.cwnd / 2).max(MSS);
                self.cwr_pending = true;
                self.congestion_events += 1;
            }
        }

        // Data processing (in-order only).
        if !payload.is_empty() {
            if hdr.seq == self.rcv_nxt {
                self.recv_buf.extend_from_slice(payload);
                self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
                if ip_ecn == Ecn::Ce {
                    self.ce_received += 1;
                    if self.ecn_negotiated {
                        self.ece_pending = true;
                    }
                }
                // CWR from peer ends the ECE episode.
                if hdr.flags.contains(TcpFlags::CWR) {
                    self.ece_pending = false;
                }
            }
            // Out-of-order: fall through and ACK rcv_nxt (dup ACK).
            out.push(self.emit(
                self.ack_flags(),
                self.snd_nxt,
                self.rcv_nxt,
                vec![],
                Ecn::NotEct,
            ));
        }

        // FIN processing (only when in order).
        if hdr.flags.contains(TcpFlags::FIN) {
            let fin_seq = hdr.seq.wrapping_add(payload.len() as u32);
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.peer_fin = true;
                self.state = match self.state {
                    TcpState::Established => TcpState::CloseWait,
                    TcpState::FinWait1 => TcpState::Closed, // simultaneous-ish; simplified
                    TcpState::FinWait2 => TcpState::Closed,
                    other => other,
                };
                if self.state == TcpState::Closed {
                    self.close_reason = Some(CloseReason::Graceful);
                    self.timer_armed = false;
                }
                out.push(self.emit(
                    self.ack_flags(),
                    self.snd_nxt,
                    self.rcv_nxt,
                    vec![],
                    Ecn::NotEct,
                ));
            }
        }

        self.pump_into(out);
    }

    /// The retransmission timer fired: append what to resend to `out`.
    pub fn on_rto_into(&mut self, out: &mut Vec<Emit>) {
        if !self.timer_armed || self.state == TcpState::Closed {
            return;
        }
        self.retries += 1;
        if self.retries > MAX_RETRIES {
            self.state = TcpState::Closed;
            self.close_reason = Some(CloseReason::TimedOut);
            self.timer_armed = false;
            return;
        }
        self.rto = Nanos(self.rto.0.saturating_mul(2));
        match self.state {
            TcpState::SynSent => {
                let flags = if self.handshake.requested_ecn {
                    TcpFlags::ecn_setup_syn()
                } else {
                    TcpFlags::SYN
                };
                out.push(self.emit(flags, self.snd_una, 0, vec![], Ecn::NotEct));
            }
            TcpState::SynRcvd => {
                let flags = if self.ecn_negotiated {
                    TcpFlags::ecn_setup_syn_ack()
                } else {
                    TcpFlags::SYN | TcpFlags::ACK
                };
                out.push(self.emit(flags, self.snd_una, self.rcv_nxt, vec![], Ecn::NotEct));
            }
            _ => {
                // Retransmit from snd_una: one segment of data, or the FIN.
                if self.fin_seq == Some(self.snd_una) {
                    out.push(self.emit(
                        self.ack_flags() | TcpFlags::FIN,
                        self.snd_una,
                        self.rcv_nxt,
                        vec![],
                        Ecn::NotEct,
                    ));
                    return;
                }
                let offset = self.snd_una.wrapping_sub(self.send_buf_seq) as usize;
                if offset >= self.send_buf.len() {
                    self.timer_armed = false;
                    return;
                }
                let take = (self.send_buf.len() - offset).min(MSS);
                // A retransmission goes ECT(0) even under `force_ce_data`.
                let ecn = if self.ecn_negotiated {
                    Ecn::Ect0
                } else {
                    Ecn::NotEct
                };
                out.push(self.data_segment(self.snd_una, take, ecn));
            }
        }
    }

    /// Current RTO (the agent arms the timer with this).
    pub fn rto(&self) -> Nanos {
        self.rto
    }

    /// Current congestion window (test/diagnostic hook).
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Is all sent data acknowledged?
    pub fn all_acked(&self) -> bool {
        self.snd_una == self.snd_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40000);
    const S: (Ipv4Addr, u16) = (Ipv4Addr::new(192, 0, 2, 80), 80);

    /// What one `_into` call appends.
    fn emits(op: impl FnOnce(&mut Vec<Emit>)) -> Vec<Emit> {
        let mut out = Vec::new();
        op(&mut out);
        out
    }

    /// Deliver `e` to `conn`; returns the replies.
    fn deliver(conn: &mut TcpConn, e: &Emit) -> Vec<Emit> {
        emits(|out| conn.on_segment_into(&e.header, &e.payload, e.ip_ecn, out))
    }

    /// Pipe segments between two endpoints until both go quiet.
    fn exchange(a: &mut TcpConn, b: &mut TcpConn, mut pending_ab: Vec<Emit>) {
        let mut pending_ba: Vec<Emit> = vec![];
        for _ in 0..64 {
            if pending_ab.is_empty() && pending_ba.is_empty() {
                break;
            }
            let mut next_ba = vec![];
            for e in pending_ab.drain(..) {
                next_ba.extend(deliver(b, &e));
            }
            let mut next_ab = vec![];
            for e in pending_ba.drain(..) {
                next_ab.extend(deliver(a, &e));
            }
            pending_ba = next_ba;
            pending_ab = next_ab;
        }
    }

    fn open_pair(client_mode: EcnMode, server_mode: EcnMode) -> (TcpConn, TcpConn) {
        let (mut c, syn) = TcpConn::connect(C, S, 1000, client_mode);
        let (mut s, syn_ack) = TcpConn::accept(S, C, 9000, &syn.header, server_mode);
        for e in deliver(&mut c, &syn_ack) {
            deliver(&mut s, &e);
        }
        (c, s)
    }

    #[test]
    fn ecn_handshake_negotiates_when_both_sides_on() {
        let (c, s) = open_pair(EcnMode::On, EcnMode::On);
        assert_eq!(c.state, TcpState::Established);
        assert_eq!(s.state, TcpState::Established);
        assert!(c.ecn_negotiated);
        assert!(s.ecn_negotiated);
        assert!(c.handshake.got_ecn_setup_syn_ack);
    }

    #[test]
    fn plain_server_declines_ecn() {
        let (c, s) = open_pair(EcnMode::On, EcnMode::Off);
        assert_eq!(c.state, TcpState::Established);
        assert!(!c.ecn_negotiated);
        assert!(!s.ecn_negotiated);
        assert_eq!(
            c.handshake.syn_ack_flags,
            Some(TcpFlags::SYN | TcpFlags::ACK)
        );
    }

    #[test]
    fn reflected_flags_are_not_ecn_setup() {
        let (c, _s) = open_pair(EcnMode::On, EcnMode::ReflectFlags);
        assert_eq!(c.state, TcpState::Established);
        assert!(
            !c.ecn_negotiated,
            "reflected ECE+CWR must not negotiate ECN"
        );
        assert!(!c.handshake.got_ecn_setup_syn_ack);
        let flags = c.handshake.syn_ack_flags.unwrap();
        assert!(flags.contains(TcpFlags::ECE) && flags.contains(TcpFlags::CWR));
    }

    #[test]
    fn client_off_never_requests() {
        let (mut c, syn) = TcpConn::connect(C, S, 5, EcnMode::Off);
        assert!(!syn.header.flags.contains(TcpFlags::ECE));
        assert!(!syn.header.flags.contains(TcpFlags::CWR));
        let (_s, syn_ack) = TcpConn::accept(S, C, 7, &syn.header, EcnMode::On);
        // server with ECN on cannot negotiate if client didn't ask
        assert!(!syn_ack.header.flags.contains(TcpFlags::ECE));
        deliver(&mut c, &syn_ack);
        assert!(!c.ecn_negotiated);
    }

    #[test]
    fn data_transfer_roundtrip() {
        let (mut c, mut s) = open_pair(EcnMode::On, EcnMode::On);
        let req = emits(|o| c.send_into(b"GET / HTTP/1.1\r\n\r\n", o));
        assert_eq!(req.len(), 1);
        assert_eq!(req[0].ip_ecn, Ecn::Ect0, "data on ECN connection is ECT(0)");
        exchange(&mut c, &mut s, req);
        assert_eq!(s.take_received(), b"GET / HTTP/1.1\r\n\r\n");
        let rsp = emits(|o| s.send_into(b"HTTP/1.1 302 Found\r\n\r\n", o));
        exchange(&mut s, &mut c, rsp);
        assert_eq!(c.take_received(), b"HTTP/1.1 302 Found\r\n\r\n");
        assert!(c.all_acked() && s.all_acked());
    }

    #[test]
    fn non_ecn_connection_sends_not_ect_data() {
        let (mut c, _s) = open_pair(EcnMode::Off, EcnMode::Off);
        let out = emits(|o| c.send_into(b"x", o));
        assert_eq!(out[0].ip_ecn, Ecn::NotEct);
    }

    #[test]
    fn large_send_segments_at_mss() {
        let (mut c, mut s) = open_pair(EcnMode::On, EcnMode::On);
        let data = vec![7u8; 3 * MSS + 100];
        let out = emits(|o| c.send_into(&data, o));
        assert_eq!(out.len(), 4);
        assert!(out[..3].iter().all(|e| e.payload.len() == MSS));
        assert_eq!(out[3].payload.len(), 100);
        exchange(&mut c, &mut s, out);
        assert_eq!(s.take_received(), data);
    }

    #[test]
    fn ce_mark_triggers_ece_then_cwr_clears_it() {
        let (mut c, mut s) = open_pair(EcnMode::On, EcnMode::On);
        // Client sends data that gets CE-marked in flight.
        let mut seg = emits(|o| c.send_into(b"media frame", o));
        assert_eq!(seg.len(), 1);
        let mut e = seg.remove(0);
        e.ip_ecn = Ecn::Ce; // router marks it
        let acks = deliver(&mut s, &e);
        assert_eq!(s.ce_received, 1);
        let ack = &acks[0];
        assert!(ack.header.flags.contains(TcpFlags::ECE), "ACK echoes ECE");
        // Client reacts: cwnd halves, next data carries CWR.
        let cwnd_before = c.cwnd();
        let more = deliver(&mut c, ack);
        assert!(c.cwnd() < cwnd_before);
        assert_eq!(c.congestion_events, 1);
        let _ = more;
        let next = emits(|o| c.send_into(b"next frame", o));
        assert!(next[0].header.flags.contains(TcpFlags::CWR));
        // Server sees CWR and stops setting ECE.
        let acks2 = deliver(&mut s, &next[0]);
        assert!(!acks2[0].header.flags.contains(TcpFlags::ECE));
    }

    #[test]
    fn rto_retransmits_syn_then_gives_up() {
        let (mut c, _syn) = TcpConn::connect(C, S, 1, EcnMode::On);
        for i in 0..MAX_RETRIES {
            let r = emits(|o| c.on_rto_into(o));
            assert_eq!(r.len(), 1, "retry {i}");
            assert!(r[0].header.flags.is_ecn_setup_syn());
        }
        assert!(emits(|o| c.on_rto_into(o)).is_empty());
        assert_eq!(c.state, TcpState::Closed);
        assert_eq!(c.close_reason, Some(CloseReason::TimedOut));
    }

    #[test]
    fn rto_backs_off_exponentially() {
        let (mut c, _syn) = TcpConn::connect(C, S, 1, EcnMode::Off);
        let r0 = c.rto();
        c.on_rto_into(&mut Vec::new());
        let r1 = c.rto();
        c.on_rto_into(&mut Vec::new());
        let r2 = c.rto();
        assert_eq!(r1.0, r0.0 * 2);
        assert_eq!(r2.0, r0.0 * 4);
    }

    #[test]
    fn lost_data_segment_is_retransmitted_and_recovered() {
        let (mut c, mut s) = open_pair(EcnMode::Off, EcnMode::Off);
        let out = emits(|o| c.send_into(b"hello", o));
        assert_eq!(out.len(), 1);
        // segment lost; RTO fires
        let rext = emits(|o| c.on_rto_into(o));
        assert_eq!(rext.len(), 1);
        assert_eq!(rext[0].payload, b"hello");
        exchange(&mut c, &mut s, rext);
        assert_eq!(s.take_received(), b"hello");
        assert!(c.all_acked());
    }

    #[test]
    fn out_of_order_segment_elicits_dup_ack_and_is_dropped() {
        let (mut c, mut s) = open_pair(EcnMode::Off, EcnMode::Off);
        let seg1 = emits(|o| c.send_into(b"aaaa", o));
        let seg2_only = { emits(|o| c.send_into(b"bbbb", o)) };
        // deliver segment 2 first: server must dup-ACK and not deliver data
        let acks = deliver(&mut s, &seg2_only[0]);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].header.ack, seg1[0].header.seq);
        assert!(s.received().is_empty());
        // now deliver segment 1; its ACK advances the client's snd_una,
        // so the client's RTO retransmits only the still-missing "bbbb"
        for e in &deliver(&mut s, &seg1[0]) {
            deliver(&mut c, e);
        }
        let rext = emits(|o| c.on_rto_into(o));
        assert_eq!(rext[0].payload, b"bbbb");
        deliver(&mut s, &rext[0]);
        assert_eq!(s.take_received(), b"aaaabbbb");
    }

    #[test]
    fn graceful_close_both_directions() {
        let (mut c, mut s) = open_pair(EcnMode::On, EcnMode::On);
        let fin = emits(|o| c.close_into(o));
        assert_eq!(c.state, TcpState::FinWait1);
        exchange(&mut c, &mut s, fin);
        assert_eq!(s.state, TcpState::CloseWait);
        assert!(s.peer_closed());
        let fin2 = emits(|o| s.close_into(o));
        exchange(&mut s, &mut c, fin2);
        assert_eq!(c.state, TcpState::Closed);
        assert_eq!(s.state, TcpState::Closed);
        assert_eq!(c.close_reason, Some(CloseReason::Graceful));
        assert_eq!(s.close_reason, Some(CloseReason::Graceful));
    }

    #[test]
    fn rst_closes_immediately() {
        let (mut c, mut s) = open_pair(EcnMode::Off, EcnMode::Off);
        let rst = emits(|o| s.abort_into(o));
        let out = deliver(&mut c, &rst[0]);
        assert!(out.is_empty());
        assert_eq!(c.state, TcpState::Closed);
        assert_eq!(c.close_reason, Some(CloseReason::Reset));
    }

    #[test]
    fn close_during_syn_sent_aborts_silently() {
        let (mut c, _syn) = TcpConn::connect(C, S, 1, EcnMode::On);
        assert!(emits(|o| c.close_into(o)).is_empty());
        assert_eq!(c.state, TcpState::Closed);
        assert_eq!(c.close_reason, Some(CloseReason::Aborted));
    }

    #[test]
    fn data_queued_before_established_flushes_after_handshake() {
        let (mut c, syn) = TcpConn::connect(C, S, 1000, EcnMode::On);
        assert!(
            emits(|o| c.send_into(b"early data", o)).is_empty(),
            "nothing before handshake"
        );
        let (mut s, syn_ack) = TcpConn::accept(S, C, 9000, &syn.header, EcnMode::On);
        let out = deliver(&mut c, &syn_ack);
        // out = [ACK, data]
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].payload, b"early data");
        exchange(&mut c, &mut s, out);
        assert_eq!(s.take_received(), b"early data");
    }
}
