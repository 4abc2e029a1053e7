//! The host stack: demultiplexes arriving datagrams to UDP sockets,
//! registered services, TCP connections and the ICMP inbox — and exposes a
//! raw-socket-like [`HostHandle`] to external drivers (the prober).
//!
//! The handle's surface is deliberately shaped like what `socket2`/`pnet`
//! give a live measurement tool — bind, send with an explicit ECN codepoint
//! and TTL, receive, plus an ICMP inbox — so the measurement application
//! above it would port to real raw sockets without structural change.
//!
//! Every operation on an existing TCP connection — an arriving segment, a
//! retransmission timeout, a send, a close — goes through one driver,
//! `StackShared::drive`. It runs the operation into the stack's one emit
//! scratch, sets the connection's deadline to `now + rto` when the
//! operation left it armed (and clears it otherwise), and composes each
//! emitted segment into a pooled datagram. Its caller then arms the timer
//! and sends. A timer that fires at any other time than the deadline was
//! superseded and does nothing; so does one whose connection is gone.

use crate::availability::{host_label, Availability, AvailabilityModel, FlapMarks};
use crate::services::{TcpService, TcpServiceAction, UdpService};
use crate::tcp::{EcnMode, Emit, TcpConn, TcpState};
use ecn_netsim::{HostAgent, HostApi, Nanos, NodeId, Sim};
use ecn_wire::{
    Datagram, Ecn, IcmpMessage, IpProto, Ipv4Header, TcpFlags, TcpHeader, UdpHeader, WireError,
};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
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

struct Listener {
    ecn_mode: EcnMode,
    service: Option<Box<dyn TcpService>>,
}

struct ConnEntry {
    conn: TcpConn,
    /// The port of the listener that accepted it; `None` for a
    /// connection this host opened.
    listener_port: Option<u16>,
    /// When the armed retransmission timer is due; `None` when unarmed.
    timer_deadline: Option<Nanos>,
    service_responded: bool,
}

impl ConnEntry {
    /// Run the listener's service over the request buffered so far, and
    /// close a server's side once its client has half-closed, appending
    /// the segments to send to `out`.
    fn serve(&mut self, listeners: &mut HashMap<u16, Listener>, now: Nanos, out: &mut Vec<Emit>) {
        let Some(port) = self.listener_port else {
            return;
        };
        if !self.service_responded && !self.conn.received().is_empty() {
            let service = listeners.get_mut(&port).and_then(|l| l.service.as_mut());
            if let Some(service) = service {
                match service.on_data(now, self.conn.received()) {
                    TcpServiceAction::Wait => {}
                    TcpServiceAction::Respond { bytes, close } => {
                        self.service_responded = true;
                        self.conn.take_received();
                        self.conn.send_into(&bytes, out);
                        if close {
                            self.conn.close_into(out);
                        }
                    }
                    TcpServiceAction::Abort => {
                        self.service_responded = true;
                        self.conn.abort_into(out);
                    }
                }
            }
        }
        // If the client half-closed and we have nothing more to say, close
        // our side too.
        if self.conn.peer_closed() && self.conn.state == TcpState::CloseWait {
            self.conn.close_into(out);
        }
    }
}

/// State shared between the in-sim agent and the external handle.
pub(crate) struct StackShared {
    addr: Ipv4Addr,
    config: StackConfig,
    availability: Availability,
    /// Bound UDP ports. A socket queues what arrives; a sink (`None`)
    /// accepts it (no ICMP port-unreachable) but never copies the payload
    /// — capture-verdict probes bind sinks.
    udp_ports: HashMap<u16, Option<VecDeque<UdpReceived>>>,
    udp_services: HashMap<u16, Box<dyn UdpService>>,
    icmp_inbox: VecDeque<IcmpReceived>,
    listeners: HashMap<u16, Listener>,
    conns: HashMap<ConnId, ConnEntry>,
    conn_lookup: HashMap<(u16, Ipv4Addr, u16), ConnId>,
    next_conn_id: ConnId,
    next_ephemeral: u16,
    ip_ident: u16,
    rng: SmallRng,
    /// Reusable segment-emit buffer of the TCP driver (capacity survives
    /// across segments and connections).
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
            udp_ports: HashMap::new(),
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

    /// The TCP driver. Takes the emit scratch, runs `op` on connection
    /// `id`, sets the connection's deadline to `now + rto` if `op` left it
    /// armed and clears it otherwise, composes each emit into `out` in a
    /// buffer from `take_buf`, and hands the scratch back. Returns the RTO
    /// to arm a timer with, `None` when unarmed or when there is no such
    /// connection. The caller arms that timer before it sends `out`, so
    /// that at an equal time the timer dispatches first (DESIGN.md § Event
    /// loop).
    fn drive(
        &mut self,
        id: ConnId,
        now: Nanos,
        op: impl FnOnce(&mut ConnEntry, &mut HashMap<u16, Listener>, &mut Vec<Emit>),
        mut take_buf: impl FnMut() -> Vec<u8>,
        out: &mut Vec<Datagram>,
    ) -> Option<Nanos> {
        let entry = self.conns.get_mut(&id)?;
        let mut emits = std::mem::take(&mut self.emit_scratch);
        op(entry, &mut self.listeners, &mut emits);
        let arm = entry.conn.timer_armed.then(|| entry.conn.rto());
        entry.timer_deadline = arm.map(|rto| now + rto);
        let remote = entry.conn.remote.0;
        for emit in emits.drain(..) {
            let dgram = self.tcp_datagram(take_buf(), remote, &emit);
            out.push(dgram);
        }
        self.emit_scratch = emits;
        arm
    }

    /// The next ephemeral port (40000 and up, wrapping) that `taken` does
    /// not claim.
    fn ephemeral_port(&mut self, taken: impl Fn(&StackShared, u16) -> bool) -> u16 {
        loop {
            let port = self.next_ephemeral;
            self.next_ephemeral = self.next_ephemeral.wrapping_add(1).max(40_000);
            if !taken(self, port) {
                return port;
            }
        }
    }
}

/// The in-sim agent half of the stack.
struct StackAgent {
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
        match sh.udp_ports.get_mut(&uh.dst_port) {
            Some(Some(inbox)) => {
                inbox.push_back(UdpReceived {
                    at: now,
                    src: (header.src, uh.src_port),
                    dst_port: uh.dst_port,
                    ecn: header.ecn,
                    payload: body.to_vec(),
                });
                return;
            }
            Some(None) => return, // a sink: accepted, payload never copied
            None => {}
        }
        if let Some(service) = sh.udp_services.get_mut(&uh.dst_port) {
            let response = service.handle(now, (header.src, uh.src_port), header.ecn, body);
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
            let segment = |entry: &mut ConnEntry, listeners: &mut _, emits: &mut _| {
                entry.conn.on_segment_into(&th, body, header.ecn, emits);
                entry.serve(listeners, now, emits);
            };
            if let Some(rto) = sh.drive(id, now, segment, || api.take_buf(), out) {
                api.set_timer(rto, id);
            }
            // server connections are garbage-collected once done
            let entry = &sh.conns[&id];
            if entry.listener_port.is_some() && entry.conn.state == TcpState::Closed {
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
            let due = sh.conns.get(&token).map(|e| e.timer_deadline) == Some(Some(now));
            if due {
                let rto_fired =
                    |entry: &mut ConnEntry, _: &mut _, emits: &mut _| entry.conn.on_rto_into(emits);
                if let Some(rto) = sh.drive(token, now, rto_fired, || api.take_buf(), &mut out) {
                    api.set_timer(rto, token);
                }
            }
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

    /// Bind a UDP socket. `port = 0` allocates an ephemeral port. Binding
    /// a sink's port turns it into a socket.
    pub fn udp_bind(&self, port: u16) -> u16 {
        let mut sh = self.shared.lock();
        let port = match port {
            0 => sh.ephemeral_port(|sh, p| sh.udp_ports.contains_key(&p)),
            port => port,
        };
        sh.udp_ports
            .entry(port)
            .or_default()
            .get_or_insert_with(VecDeque::new);
        port
    }

    /// Bind a UDP sink on an ephemeral port: arriving datagrams are
    /// accepted (no ICMP port-unreachable) but discarded without copying
    /// the payload. For probes whose verdict comes from the capture, not
    /// the socket.
    pub fn udp_bind_sink(&self) -> u16 {
        let mut sh = self.shared.lock();
        let port = sh.ephemeral_port(|sh, p| sh.udp_ports.contains_key(&p));
        sh.udp_ports.insert(port, None);
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
        self.shared.lock().udp_ports.remove(&port);
    }

    /// Pop the oldest datagram from a bound socket (`None` from a sink).
    pub fn udp_recv(&self, port: u16) -> Option<UdpReceived> {
        self.shared
            .lock()
            .udp_ports
            .get_mut(&port)?
            .as_mut()?
            .pop_front()
    }

    /// Pop the oldest ICMP message.
    pub fn icmp_recv(&self) -> Option<IcmpReceived> {
        self.shared.lock().icmp_inbox.pop_front()
    }

    /// Open a TCP connection; `ecn` requests RFC 3168 negotiation
    /// (an ECN-setup SYN). Returns the connection id immediately; progress
    /// is read with [`HostHandle::with_conn`] as the sim runs.
    ///
    /// Unlike the other TCP calls, this sends the SYN before it arms the
    /// SYN's timer.
    pub fn tcp_connect(&self, sim: &mut Sim, remote: (Ipv4Addr, u16), ecn: bool) -> ConnId {
        let buf = sim.take_buf();
        let (id, dgram, rto) = {
            let mut sh = self.shared.lock();
            let port =
                sh.ephemeral_port(|sh, p| sh.conn_lookup.contains_key(&(p, remote.0, remote.1)));
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
        self.drive(sim, id, |entry, _, emits| entry.conn.send_into(data, emits));
    }

    /// Close the connection gracefully.
    pub fn tcp_close(&self, sim: &mut Sim, id: ConnId) {
        self.drive(sim, id, |entry, _, emits| entry.conn.close_into(emits));
    }

    /// Run `op` on connection `id` through the stack's TCP driver, then arm
    /// the connection's timer and send what `op` emitted.
    fn drive(
        &self,
        sim: &mut Sim,
        id: ConnId,
        op: impl FnOnce(&mut ConnEntry, &mut HashMap<u16, Listener>, &mut Vec<Emit>),
    ) {
        let now = sim.now();
        let mut out = Vec::new();
        let arm = self
            .shared
            .lock()
            .drive(id, now, op, || sim.take_buf(), &mut out);
        if let Some(rto) = arm {
            sim.set_timer(self.node, rto, id);
        }
        for dgram in out {
            sim.send_from(self.node, dgram);
        }
    }

    /// Run `read` over connection `id` under the stack's lock, so a poll
    /// or a verdict reads the state and the received bytes in place;
    /// `None` if there is no such connection.
    pub fn with_conn<R>(&self, id: ConnId, read: impl FnOnce(&TcpConn) -> R) -> Option<R> {
        self.shared.lock().conns.get(&id).map(|e| read(&e.conn))
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
