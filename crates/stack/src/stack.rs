//! The host stack: demultiplexes arriving datagrams to UDP sockets,
//! registered services, TCP connections and the ICMP inbox — and exposes a
//! raw-socket-like [`HostHandle`] to external drivers (the prober).
//!
//! The handle's surface is deliberately shaped like what `socket2`/`pnet`
//! give a live measurement tool — bind, send with an explicit ECN codepoint
//! and TTL, receive, plus an ICMP inbox — so the measurement application
//! above it would port to real raw sockets without structural change.

use crate::availability::{host_label, Availability, AvailabilityModel, FlapMarks};
use crate::services::{TcpService, TcpServiceAction, UdpService};
use crate::tcp::{CloseReason, EcnMode, Emit, HandshakeRecord, TcpConn, TcpState};
use ecn_netsim::{HostAgent, HostApi, Nanos, NodeId, Sim};
use ecn_wire::{
    Datagram, Ecn, IcmpMessage, IpProto, Ipv4Header, TcpFlags, TcpHeader, UdpHeader, WireError,
};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Identifier of a TCP connection within one host's stack.
pub type ConnId = u64;

/// Stack-wide configuration.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Answer UDP to closed ports with ICMP port-unreachable. Pool servers
    /// sit behind filters that don't, which is why "traces stop generally
    /// one hop before the destination" (paper §4.2).
    pub udp_port_unreachable: bool,
    /// Answer TCP to closed ports with RST (hosts without a web server).
    pub tcp_rst_on_closed: bool,
    /// Answer ICMP echo requests.
    pub echo_replies: bool,
    /// Availability schedule.
    pub availability: AvailabilityModel,
    /// Seed for ISS/ephemeral-port randomness and the flap schedule.
    pub seed: u64,
    /// Checkpoints of the flap schedule, shared with every other stack
    /// that evaluates the same chain (see [`FlapMarks::for_host`]); `None`
    /// replays it alone.
    pub flap_marks: Option<Arc<FlapMarks>>,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            udp_port_unreachable: false,
            tcp_rst_on_closed: true,
            echo_replies: true,
            availability: AvailabilityModel::AlwaysUp,
            seed: 0,
            flap_marks: None,
        }
    }
}

/// A datagram delivered to a bound UDP socket.
#[derive(Debug, Clone)]
pub struct UdpReceived {
    /// Arrival time.
    pub at: Nanos,
    /// Sender address and port.
    pub src: (Ipv4Addr, u16),
    /// Local destination port.
    pub dst_port: u16,
    /// ECN codepoint the datagram arrived with.
    pub ecn: Ecn,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// An ICMP message delivered to the host.
#[derive(Debug, Clone)]
pub struct IcmpReceived {
    /// Arrival time.
    pub at: Nanos,
    /// Router/host that sent the message.
    pub from: Ipv4Addr,
    /// ECN codepoint of the carrying IP packet.
    pub ecn: Ecn,
    /// The decoded message (with quoted original bytes for errors).
    pub msg: IcmpMessage,
}

/// Read-only view of a connection for external drivers.
#[derive(Debug, Clone)]
pub struct ConnSnapshot {
    /// Protocol state.
    pub state: TcpState,
    /// Why it closed, if closed.
    pub close_reason: Option<CloseReason>,
    /// Did RFC 3168 negotiation succeed?
    pub ecn_negotiated: bool,
    /// Handshake observations (SYN-ACK flags etc).
    pub handshake: HandshakeRecord,
    /// In-order bytes received and not yet drained.
    pub received: Vec<u8>,
    /// Peer has half-closed.
    pub peer_closed: bool,
    /// CE-marked segments seen.
    pub ce_received: u32,
    /// Congestion responses taken (ECE-triggered).
    pub congestion_events: u32,
}

struct Listener {
    ecn_mode: EcnMode,
    service: Option<Box<dyn TcpService>>,
}

struct ConnEntry {
    conn: TcpConn,
    server: bool,
    listener_port: Option<u16>,
    timer_deadline: Option<Nanos>,
    service_responded: bool,
}

/// State shared between the in-sim agent and the external handle.
pub struct StackShared {
    addr: Ipv4Addr,
    config: StackConfig,
    availability: Availability,
    udp_socks: HashMap<u16, VecDeque<UdpReceived>>,
    /// Ports bound as sinks: arriving datagrams are accepted (no ICMP
    /// port-unreachable) but never queued — capture-verdict probes use
    /// these to skip the per-datagram payload copy entirely.
    udp_sinks: HashSet<u16>,
    udp_services: HashMap<u16, Box<dyn UdpService>>,
    icmp_inbox: VecDeque<IcmpReceived>,
    listeners: HashMap<u16, Listener>,
    conns: HashMap<ConnId, ConnEntry>,
    conn_lookup: HashMap<(u16, Ipv4Addr, u16), ConnId>,
    next_conn_id: ConnId,
    next_ephemeral: u16,
    ip_ident: u16,
    rng: SmallRng,
    /// Reusable segment-emit buffer shared by every TCP entry point
    /// (capacity survives across segments and connections).
    emit_scratch: Vec<Emit>,
}

impl StackShared {
    fn new(addr: Ipv4Addr, mut config: StackConfig) -> StackShared {
        let mut availability =
            Availability::new(config.availability, config.seed, host_label(addr).as_str());
        if let Some(marks) = config.flap_marks.take() {
            availability = availability.sharing(marks);
        }
        StackShared {
            addr,
            availability,
            udp_socks: HashMap::new(),
            udp_sinks: HashSet::with_capacity(4),
            udp_services: HashMap::new(),
            icmp_inbox: VecDeque::new(),
            listeners: HashMap::new(),
            conns: HashMap::new(),
            conn_lookup: HashMap::new(),
            next_conn_id: 1,
            next_ephemeral: 40_000,
            ip_ident: 1,
            rng: SmallRng::seed_from_u64(config.seed ^ u64::from(u32::from(addr))),
            // Pre-sized past any realistic emit burst (worst observed is a
            // handful of segments per pump) so the scratch never reallocates
            // mid-run — the exact-alloc-equality gate depends on that.
            emit_scratch: Vec::with_capacity(32),
            config,
        }
    }

    fn next_ident(&mut self) -> u16 {
        let id = self.ip_ident;
        self.ip_ident = self.ip_ident.wrapping_add(1).max(1);
        id
    }

    // The datagram builders compose straight into `buf` — a buffer checked
    // out of the simulator's packet pool — so the encode path allocates
    // nothing once the pool is warm.

    fn udp_datagram(
        &mut self,
        buf: Vec<u8>,
        dst: (Ipv4Addr, u16),
        src_port: u16,
        payload: &[u8],
        ecn: Ecn,
        ttl: u8,
    ) -> Datagram {
        let mut h = Ipv4Header::probe(self.addr, dst.0, IpProto::Udp, ecn);
        h.ttl = ttl;
        h.identification = self.next_ident();
        let src = self.addr;
        Datagram::compose(buf, h, |out| {
            ecn_wire::udp::udp_segment_into(src, dst.0, src_port, dst.1, payload, out)
        })
    }

    fn tcp_datagram(&mut self, buf: Vec<u8>, remote: Ipv4Addr, emit: &Emit) -> Datagram {
        let mut h = Ipv4Header::probe(self.addr, remote, IpProto::Tcp, emit.ip_ecn);
        h.identification = self.next_ident();
        let src = self.addr;
        Datagram::compose(buf, h, |out| {
            ecn_wire::tcp::tcp_segment_into(src, remote, &emit.header, &emit.payload, out)
        })
    }

    /// Run the listener service against a connection's buffered request,
    /// appending segments to transmit to `out`.
    fn pump_service_into(&mut self, id: ConnId, now: Nanos, out: &mut Vec<Emit>) {
        let Some(entry) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(port) = entry.listener_port else {
            return;
        };
        if !entry.service_responded && !entry.conn.received().is_empty() {
            if let Some(listener) = self.listeners.get_mut(&port) {
                if let Some(service) = listener.service.as_mut() {
                    match service.on_data(now, entry.conn.received()) {
                        TcpServiceAction::Wait => {}
                        TcpServiceAction::Respond { bytes, close } => {
                            entry.service_responded = true;
                            entry.conn.take_received();
                            entry.conn.send_into(&bytes, now, out);
                            if close {
                                entry.conn.close_into(out);
                            }
                        }
                        TcpServiceAction::Abort => {
                            entry.service_responded = true;
                            entry.conn.abort_into(out);
                        }
                    }
                }
            }
        }
        // Server side: if the client half-closed and we have nothing more
        // to say, close our side too.
        if entry.server && entry.conn.peer_closed() && entry.conn.state == TcpState::CloseWait {
            entry.conn.close_into(out);
        }
    }
}

/// The in-sim agent half of the stack.
pub struct StackAgent {
    shared: Arc<Mutex<StackShared>>,
    /// Reusable outgoing-datagram scratch (capacity survives dispatches).
    out: Vec<Datagram>,
}

impl StackAgent {
    fn process(&mut self, api: &mut HostApi<'_>, dgram: &Datagram, out: &mut Vec<Datagram>) {
        let now = api.now();
        let sh = &mut *self.shared.lock();
        if !sh.availability.is_up(now) {
            return;
        }
        let header = dgram.header();
        match header.protocol {
            IpProto::Udp => Self::process_udp(sh, api, now, &header, dgram, out),
            IpProto::Tcp => Self::process_tcp(sh, api, now, &header, dgram, out),
            IpProto::Icmp => Self::process_icmp(sh, api, now, &header, dgram, out),
            IpProto::Other(_) => {}
        }
    }

    fn process_udp(
        sh: &mut StackShared,
        api: &mut HostApi<'_>,
        now: Nanos,
        header: &Ipv4Header,
        dgram: &Datagram,
        out: &mut Vec<Datagram>,
    ) {
        let decoded: Result<(UdpHeader, &[u8]), WireError> =
            UdpHeader::decode(header.src, header.dst, dgram.payload());
        let Ok((uh, body)) = decoded else {
            return; // corrupt: silently dropped, like a real stack
        };
        if let Some(inbox) = sh.udp_socks.get_mut(&uh.dst_port) {
            inbox.push_back(UdpReceived {
                at: now,
                src: (header.src, uh.src_port),
                dst_port: uh.dst_port,
                ecn: header.ecn,
                payload: body.to_vec(),
            });
            return;
        }
        if sh.udp_sinks.contains(&uh.dst_port) {
            return; // accepted and discarded, payload never copied
        }
        if sh.udp_services.contains_key(&uh.dst_port) {
            let mut svc = sh.udp_services.remove(&uh.dst_port).expect("present");
            let response = svc.handle(now, (header.src, uh.src_port), header.ecn, body);
            sh.udp_services.insert(uh.dst_port, svc);
            if let Some(bytes) = response {
                let reply = sh.udp_datagram(
                    api.take_buf(),
                    (header.src, uh.src_port),
                    uh.dst_port,
                    &bytes,
                    Ecn::NotEct,
                    64,
                );
                out.push(reply);
            }
            return;
        }
        if sh.config.udp_port_unreachable {
            let mut h = Ipv4Header::probe(sh.addr, header.src, IpProto::Icmp, Ecn::NotEct);
            h.identification = sh.next_ident();
            out.push(Datagram::compose(api.take_buf(), h, |o| {
                IcmpMessage::encode_dest_unreachable_into(
                    ecn_wire::DestUnreachCode::Port,
                    dgram.as_bytes(),
                    o,
                )
            }));
        }
    }

    fn process_tcp(
        sh: &mut StackShared,
        api: &mut HostApi<'_>,
        now: Nanos,
        header: &Ipv4Header,
        dgram: &Datagram,
        out: &mut Vec<Datagram>,
    ) {
        let Ok((th, body)) = TcpHeader::decode(header.src, header.dst, dgram.payload()) else {
            return;
        };
        let key = (th.dst_port, header.src, th.src_port);

        if let Some(&id) = sh.conn_lookup.get(&key) {
            let mut emits = std::mem::take(&mut sh.emit_scratch);
            emits.clear();
            {
                let entry = sh.conns.get_mut(&id).expect("conn in lookup");
                entry
                    .conn
                    .on_segment_into(&th, body, header.ecn, &mut emits);
            }
            sh.pump_service_into(id, now, &mut emits);
            let entry = sh.conns.get_mut(&id).expect("conn in lookup");
            let remote = entry.conn.remote.0;
            let arm = entry.conn.timer_armed.then(|| entry.conn.rto());
            let closed = entry.conn.state == TcpState::Closed;
            let server = entry.server;
            if let Some(rto) = arm {
                entry.timer_deadline = Some(now + rto);
                api.set_timer(rto, id);
            } else {
                entry.timer_deadline = None;
            }
            for e in &emits {
                let buf = api.take_buf();
                out.push(sh.tcp_datagram(buf, remote, e));
            }
            emits.clear();
            sh.emit_scratch = emits;
            if closed && server {
                // server connections are garbage-collected once done
                sh.conns.remove(&id);
                sh.conn_lookup.remove(&key);
            }
            return;
        }

        // No connection: maybe a listener?
        if th.flags.contains(TcpFlags::SYN) && !th.flags.contains(TcpFlags::ACK) {
            if let Some(listener) = sh.listeners.get(&th.dst_port) {
                let ecn_mode = listener.ecn_mode;
                let iss: u32 = sh.rng.gen();
                let (conn, syn_ack) = TcpConn::accept(
                    (sh.addr, th.dst_port),
                    (header.src, th.src_port),
                    iss,
                    &th,
                    ecn_mode,
                );
                let id = sh.next_conn_id;
                sh.next_conn_id += 1;
                let rto = conn.rto();
                sh.conns.insert(
                    id,
                    ConnEntry {
                        conn,
                        server: true,
                        listener_port: Some(th.dst_port),
                        timer_deadline: Some(now + rto),
                        service_responded: false,
                    },
                );
                sh.conn_lookup.insert(key, id);
                api.set_timer(rto, id);
                let buf = api.take_buf();
                out.push(sh.tcp_datagram(buf, header.src, &syn_ack));
                return;
            }
        }

        // Closed port.
        if sh.config.tcp_rst_on_closed && !th.flags.contains(TcpFlags::RST) {
            let (seq, ack, flags) = if th.flags.contains(TcpFlags::ACK) {
                (th.ack, 0, TcpFlags::RST)
            } else {
                let advance = body.len() as u32
                    + u32::from(th.flags.contains(TcpFlags::SYN))
                    + u32::from(th.flags.contains(TcpFlags::FIN));
                (
                    0,
                    th.seq.wrapping_add(advance),
                    TcpFlags::RST | TcpFlags::ACK,
                )
            };
            let rst = TcpHeader {
                src_port: th.dst_port,
                dst_port: th.src_port,
                seq,
                ack,
                flags,
                window: 0,
                urgent: 0,
                options: vec![],
            };
            let emit = Emit {
                header: rst,
                payload: vec![],
                ip_ecn: Ecn::NotEct,
            };
            let buf = api.take_buf();
            out.push(sh.tcp_datagram(buf, header.src, &emit));
        }
    }

    fn process_icmp(
        sh: &mut StackShared,
        api: &mut HostApi<'_>,
        now: Nanos,
        header: &Ipv4Header,
        dgram: &Datagram,
        out: &mut Vec<Datagram>,
    ) {
        let Ok(msg) = IcmpMessage::decode(dgram.payload()) else {
            return;
        };
        if let IcmpMessage::EchoRequest { id, seq, payload } = &msg {
            if sh.config.echo_replies {
                let mut h = Ipv4Header::probe(sh.addr, header.src, IpProto::Icmp, Ecn::NotEct);
                h.identification = sh.next_ident();
                let rest = ((u32::from(*id) << 16) | u32::from(*seq)).to_be_bytes();
                out.push(Datagram::compose(api.take_buf(), h, |o| {
                    ecn_wire::icmp::encode_message_into(0, 0, rest, payload, o)
                }));
                return;
            }
        }
        sh.icmp_inbox.push_back(IcmpReceived {
            at: now,
            from: header.src,
            ecn: header.ecn,
            msg,
        });
    }
}

impl HostAgent for StackAgent {
    fn on_datagram(&mut self, api: &mut HostApi<'_>, dgram: &Datagram) {
        let mut out = std::mem::take(&mut self.out);
        self.process(api, dgram, &mut out);
        for d in out.drain(..) {
            api.send(d);
        }
        self.out = out;
    }

    fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64) {
        let now = api.now();
        let mut out = std::mem::take(&mut self.out);
        {
            let sh = &mut *self.shared.lock();
            let mut emits = std::mem::take(&mut sh.emit_scratch);
            emits.clear();
            let Some(entry) = sh.conns.get_mut(&token) else {
                sh.emit_scratch = emits;
                self.out = out;
                return;
            };
            if entry.timer_deadline != Some(now) {
                sh.emit_scratch = emits;
                self.out = out;
                return; // superseded timer
            }
            entry.timer_deadline = None;
            let remote = entry.conn.remote.0;
            entry.conn.on_rto_into(&mut emits);
            if entry.conn.timer_armed {
                let rto = entry.conn.rto();
                entry.timer_deadline = Some(now + rto);
                api.set_timer(rto, token);
            }
            for e in &emits {
                let buf = api.take_buf();
                out.push(sh.tcp_datagram(buf, remote, e));
            }
            emits.clear();
            sh.emit_scratch = emits;
        }
        for d in out.drain(..) {
            api.send(d);
        }
        self.out = out;
    }
}

/// External control handle: the raw-socket surface used by the prober.
#[derive(Clone)]
pub struct HostHandle {
    node: NodeId,
    addr: Ipv4Addr,
    shared: Arc<Mutex<StackShared>>,
}

impl HostHandle {
    /// This host's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This host's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// Bind a UDP socket. `port = 0` allocates an ephemeral port.
    pub fn udp_bind(&self, port: u16) -> u16 {
        let mut sh = self.shared.lock();
        let port = if port == 0 {
            loop {
                let p = sh.next_ephemeral;
                sh.next_ephemeral = sh.next_ephemeral.wrapping_add(1).max(40_000);
                if !sh.udp_socks.contains_key(&p) && !sh.udp_sinks.contains(&p) {
                    break p;
                }
            }
        } else {
            port
        };
        sh.udp_socks.entry(port).or_default();
        port
    }

    /// Bind a UDP sink on an ephemeral port: arriving datagrams are
    /// accepted (no ICMP port-unreachable) but discarded without copying
    /// the payload. For probes whose verdict comes from the capture, not
    /// the socket.
    pub fn udp_bind_sink(&self) -> u16 {
        let mut sh = self.shared.lock();
        let port = loop {
            let p = sh.next_ephemeral;
            sh.next_ephemeral = sh.next_ephemeral.wrapping_add(1).max(40_000);
            if !sh.udp_socks.contains_key(&p) && !sh.udp_sinks.contains(&p) {
                break p;
            }
        };
        sh.udp_sinks.insert(port);
        port
    }

    /// Send a UDP datagram with explicit ECN (TTL 64).
    pub fn udp_send(
        &self,
        sim: &mut Sim,
        src_port: u16,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        ecn: Ecn,
    ) {
        self.udp_send_probe(sim, src_port, dst, payload, ecn, 64)
    }

    /// Send a UDP datagram with explicit ECN and TTL (traceroute probes).
    pub fn udp_send_probe(
        &self,
        sim: &mut Sim,
        src_port: u16,
        dst: (Ipv4Addr, u16),
        payload: &[u8],
        ecn: Ecn,
        ttl: u8,
    ) {
        let buf = sim.take_buf();
        let d = self
            .shared
            .lock()
            .udp_datagram(buf, dst, src_port, payload, ecn, ttl);
        sim.send_from(self.node, d);
    }

    /// Close a bound UDP socket or sink, freeing the port for reuse.
    /// Queued datagrams are discarded.
    pub fn udp_close(&self, port: u16) {
        let mut sh = self.shared.lock();
        sh.udp_socks.remove(&port);
        sh.udp_sinks.remove(&port);
    }

    /// Pop the oldest datagram from a bound socket.
    pub fn udp_recv(&self, src_port: u16) -> Option<UdpReceived> {
        self.shared
            .lock()
            .udp_socks
            .get_mut(&src_port)
            .and_then(|q| q.pop_front())
    }

    /// Drain all queued datagrams from a bound socket.
    pub fn udp_recv_all(&self, src_port: u16) -> Vec<UdpReceived> {
        self.shared
            .lock()
            .udp_socks
            .get_mut(&src_port)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    /// Pop the oldest ICMP message.
    pub fn icmp_recv(&self) -> Option<IcmpReceived> {
        self.shared.lock().icmp_inbox.pop_front()
    }

    /// Drain the ICMP inbox.
    pub fn icmp_recv_all(&self) -> Vec<IcmpReceived> {
        self.shared.lock().icmp_inbox.drain(..).collect()
    }

    /// Open a TCP connection; `ecn` requests RFC 3168 negotiation
    /// (an ECN-setup SYN). Returns the connection id immediately; progress
    /// is observed via [`HostHandle::conn`] snapshots as the sim runs.
    pub fn tcp_connect(&self, sim: &mut Sim, remote: (Ipv4Addr, u16), ecn: bool) -> ConnId {
        let buf = sim.take_buf();
        let (id, dgram, rto) = {
            let mut sh = self.shared.lock();
            let port = loop {
                let p = sh.next_ephemeral;
                sh.next_ephemeral = sh.next_ephemeral.wrapping_add(1).max(40_000);
                if !sh.conn_lookup.contains_key(&(p, remote.0, remote.1)) {
                    break p;
                }
            };
            let iss: u32 = sh.rng.gen();
            let mode = if ecn { EcnMode::On } else { EcnMode::Off };
            let (conn, syn) = TcpConn::connect((sh.addr, port), remote, iss, mode);
            let id = sh.next_conn_id;
            sh.next_conn_id += 1;
            let rto = conn.rto();
            let deadline = sim.now() + rto;
            sh.conns.insert(
                id,
                ConnEntry {
                    conn,
                    server: false,
                    listener_port: None,
                    timer_deadline: Some(deadline),
                    service_responded: false,
                },
            );
            sh.conn_lookup.insert((port, remote.0, remote.1), id);
            let d = sh.tcp_datagram(buf, remote.0, &syn);
            (id, d, rto)
        };
        sim.send_from(self.node, dgram);
        sim.set_timer(self.node, rto, id);
        id
    }

    /// Measurement hook: make this connection send its data CE-marked
    /// (RFC 3168 forbids this for normal senders; the Kühlewind-style
    /// usability probe uses it to test the peer's ECE feedback loop).
    pub fn tcp_force_ce(&self, id: ConnId, on: bool) {
        if let Some(e) = self.shared.lock().conns.get_mut(&id) {
            e.conn.force_ce_data = on;
        }
    }

    /// Queue bytes on an established connection.
    pub fn tcp_send(&self, sim: &mut Sim, id: ConnId, data: &[u8]) {
        let out = {
            let sh = &mut *self.shared.lock();
            let now = sim.now();
            let mut emits = std::mem::take(&mut sh.emit_scratch);
            emits.clear();
            let Some(entry) = sh.conns.get_mut(&id) else {
                sh.emit_scratch = emits;
                return;
            };
            entry.conn.send_into(data, now, &mut emits);
            let remote = entry.conn.remote.0;
            if entry.conn.timer_armed {
                let rto = entry.conn.rto();
                entry.timer_deadline = Some(now + rto);
                sim.set_timer(self.node, rto, id);
            }
            let out = emits
                .iter()
                .map(|e| sh.tcp_datagram(sim.take_buf(), remote, e))
                .collect::<Vec<_>>();
            emits.clear();
            sh.emit_scratch = emits;
            out
        };
        for d in out {
            sim.send_from(self.node, d);
        }
    }

    /// Close the connection gracefully.
    pub fn tcp_close(&self, sim: &mut Sim, id: ConnId) {
        let out = {
            let sh = &mut *self.shared.lock();
            let now = sim.now();
            let mut emits = std::mem::take(&mut sh.emit_scratch);
            emits.clear();
            let Some(entry) = sh.conns.get_mut(&id) else {
                sh.emit_scratch = emits;
                return;
            };
            entry.conn.close_into(&mut emits);
            let remote = entry.conn.remote.0;
            if entry.conn.timer_armed {
                let rto = entry.conn.rto();
                entry.timer_deadline = Some(now + rto);
                sim.set_timer(self.node, rto, id);
            }
            let out = emits
                .iter()
                .map(|e| sh.tcp_datagram(sim.take_buf(), remote, e))
                .collect::<Vec<_>>();
            emits.clear();
            sh.emit_scratch = emits;
            out
        };
        for d in out {
            sim.send_from(self.node, d);
        }
    }

    /// The connection's protocol state alone — the cheap polling
    /// companion of [`HostHandle::conn`], which clones the receive buffer
    /// on every call. Handshake wait-loops should poll this.
    pub fn conn_state(&self, id: ConnId) -> Option<TcpState> {
        self.shared.lock().conns.get(&id).map(|e| e.conn.state)
    }

    /// Poll a connection's progress without cloning its buffers: returns
    /// `(state, peer_closed, done)` where `done` is the predicate
    /// evaluated over the in-order received bytes under the lock (e.g.
    /// `HttpResponse::is_complete`).
    pub fn conn_ready(
        &self,
        id: ConnId,
        done: impl FnOnce(&[u8]) -> bool,
    ) -> Option<(TcpState, bool, bool)> {
        let sh = self.shared.lock();
        sh.conns
            .get(&id)
            .map(|e| (e.conn.state, e.conn.peer_closed(), done(e.conn.received())))
    }

    /// Run `f` over the connection's in-order received bytes under the
    /// lock — the zero-copy companion of [`HostHandle::conn`] for readers
    /// that only need to parse, not own, the bytes.
    pub fn with_received<R>(&self, id: ConnId, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let sh = self.shared.lock();
        sh.conns.get(&id).map(|e| f(e.conn.received()))
    }

    /// Why the connection closed (outer `None`: no such connection).
    pub fn conn_close_reason(&self, id: ConnId) -> Option<Option<CloseReason>> {
        self.shared
            .lock()
            .conns
            .get(&id)
            .map(|e| e.conn.close_reason)
    }

    /// Snapshot a connection's state.
    pub fn conn(&self, id: ConnId) -> Option<ConnSnapshot> {
        let sh = self.shared.lock();
        sh.conns.get(&id).map(|e| ConnSnapshot {
            state: e.conn.state,
            close_reason: e.conn.close_reason,
            ecn_negotiated: e.conn.ecn_negotiated,
            handshake: e.conn.handshake,
            received: e.conn.received().to_vec(),
            peer_closed: e.conn.peer_closed(),
            ce_received: e.conn.ce_received,
            congestion_events: e.conn.congestion_events,
        })
    }

    /// Forget a finished connection (frees its port for reuse).
    pub fn remove_conn(&self, id: ConnId) {
        let mut sh = self.shared.lock();
        if let Some(e) = sh.conns.remove(&id) {
            let key = (e.conn.local.1, e.conn.remote.0, e.conn.remote.1);
            sh.conn_lookup.remove(&key);
        }
    }

    /// Register a UDP service (e.g. NTP on 123).
    pub fn register_udp_service(&self, port: u16, service: Box<dyn UdpService>) {
        self.shared.lock().udp_services.insert(port, service);
    }

    /// Register a TCP listener with an ECN mode and optional service.
    pub fn register_tcp_listener(
        &self,
        port: u16,
        ecn_mode: EcnMode,
        service: Option<Box<dyn TcpService>>,
    ) {
        self.shared
            .lock()
            .listeners
            .insert(port, Listener { ecn_mode, service });
    }

    /// Number of live connection entries (diagnostics).
    pub fn conn_count(&self) -> usize {
        self.shared.lock().conns.len()
    }
}

/// Install a stack on `node` and return the external handle.
pub fn install(sim: &mut Sim, node: NodeId, config: StackConfig) -> HostHandle {
    let addr = sim.addr_of(node);
    let shared = Arc::new(Mutex::new(StackShared::new(addr, config)));
    sim.set_agent(
        node,
        Box::new(StackAgent {
            shared: shared.clone(),
            out: Vec::new(),
        }),
    );
    HostHandle { node, addr, shared }
}
