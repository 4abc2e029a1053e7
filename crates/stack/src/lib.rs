//! # ecn-stack — host network stack over the simulator
//!
//! Each simulated host runs this stack as its [`ecn_netsim::HostAgent`]:
//!
//! * **UDP sockets** with per-datagram ECN marking and TTL control — the
//!   raw-socket surface the measurement study needs (its probes are NTP
//!   requests in not-ECT and ECT(0)-marked UDP packets, and TTL-limited
//!   traceroute probes),
//! * a **TCP state machine** ([`tcp::TcpConn`]) with RFC 3168 ECN
//!   negotiation (ECN-setup SYN / SYN-ACK), the ECE/CWR feedback loop,
//!   retransmission, and teardown,
//! * **ICMP** delivery (time-exceeded and destination-unreachable with
//!   quoted datagrams arrive in an inbox; echo requests are answered),
//! * **services** ([`services::UdpService`] / [`services::TcpService`]) so
//!   server hosts can run NTP/HTTP/DNS responders in-sim,
//! * **availability schedules** ([`availability`]) modelling volunteer
//!   servers that flap or leave the pool.
//!
//! External code (the prober) drives a host through [`HostHandle`] while
//! stepping the simulator — mirroring how a real measurement tool wraps
//! raw sockets — and reads a connection in place with
//! [`HostHandle::with_conn`].

pub mod availability;
pub mod services;
pub mod stack;
pub mod tcp;
pub mod validator;

pub use availability::{Availability, AvailabilityModel, FlapMarks};
pub use services::{TcpService, TcpServiceAction, UdpService};
pub use stack::{install, ConnId, HostHandle, IcmpReceived, StackConfig, UdpReceived};
pub use tcp::{CloseReason, EcnMode, Emit, HandshakeRecord, TcpConn, TcpState, MSS};
pub use validator::{
    EcnValidator, FailureKind, ValidationOutcome, ValidatorParams, ValidatorState,
};
