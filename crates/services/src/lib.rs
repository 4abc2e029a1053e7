//! # ecn-services — application services over the stack
//!
//! The three protocols the measurement study touches at the application
//! layer, implemented as in-sim services and client helpers:
//!
//! * [`ntp`] — the RFC 5905 responder every pool member runs, plus the
//!   custom NTP client of paper §3,
//! * [`dns`] — the pool.ntp.org authoritative zone with round-robin
//!   answers, the discovery mechanism for the 2500 measurement targets,
//! * [`http`] — the co-located web server answering `GET /` with a
//!   redirect to `www.pool.ntp.org`, probed over TCP ± ECN.

pub mod dns;
pub mod echo;
pub mod http;
pub mod ntp;

pub use dns::{pool_query_names, PoolDnsService, ANSWERS_PER_QUERY, POOL_TTL};
pub use echo::{echo_request, parse_echo_reply, EcnEchoService, ECN_ECHO_MAGIC, ECN_ECHO_PORT};
pub use http::{HttpServerKind, PoolHttpService};
pub use ntp::{ntp_now, NtpClient, NtpServerConfig, NtpServerService, NTP_EPOCH_OFFSET_SECS};
