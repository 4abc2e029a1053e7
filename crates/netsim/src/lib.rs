//! # ecn-netsim — deterministic packet-level Internet simulator
//!
//! The substrate the measurement study runs on, substituting for the public
//! Internet of McQuistin & Perkins (IMC 2015). Everything is discrete-event
//! and seeded: the same seed reproduces the same packet-by-packet run.
//! Packet arrivals and host timers wait in one binary heap and dispatch
//! one at a time, earliest first and, within one instant, in the order
//! they were scheduled; every random draw follows that order.
//!
//! What a packet experiences per hop (see [`sim::Sim`]):
//!
//! 1. **TTL** decrement; on expiry the router answers with an ICMP
//!    time-exceeded *quoting the datagram as it saw it* — so upstream ECN
//!    mangling is visible in the quote, which is what ECN-aware traceroute
//!    (paper §4.2, tracebox-style) measures.
//! 2. **Firewall** rules ([`policy::Firewall`]) — e.g. the middlebox that
//!    drops ECT-marked UDP but passes identical TCP (§4.4).
//! 3. **ECN policy** ([`policy::EcnPolicy`]) — bleaching (resetting ECT to
//!    not-ECT), probabilistic bleaching, or legacy-TOS drops (§4.1/4.2).
//! 4. **Route lookup** — longest-prefix-match with optional ECMP whose
//!    selection re-hashes every routing epoch, modelling route churn.
//! 5. **Link transmission** — propagation delay, optional serialisation
//!    rate with DropTail or RED+ECN queues ([`queue`]), and Bernoulli or
//!    bursty Gilbert–Elliott loss ([`loss`]).
//!
//! Hosts are driven by [`node::HostAgent`]s (the `ecn-stack` crate provides
//! a full UDP/TCP/ICMP stack agent) and can carry tcpdump-style captures
//! ([`pcap`]) that export standard libpcap files.
//!
//! Every simulator counts what happens to its packets in one always-on
//! [`events::SimCounters`] (deliveries, hops, drops by cause, CE marks,
//! ICMP errors, ECN rewrites per router), read with
//! [`sim::Sim::counters`] — ground truth for tests and the engine's
//! per-unit records, never visible to the prober.
//!
//! Not modelled (documented scope cuts, none observable by the study's
//! probes): IP fragmentation/MTU, IPv4 options, link-layer addressing,
//! ICMP rate limiting.

pub mod events;
pub mod link;
pub mod loss;
pub mod node;
pub mod pcap;
pub mod policy;
pub mod pool;
pub mod prefix;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use events::{drop_cause_label, DropCause, SimCounters};
pub use link::{LinkId, LinkOutcome, LinkProps, LinkState, NodeId};
pub use loss::{LossModel, LossProcess};
pub use node::{flow_key, HostAgent, NodeKind, RouteEntry, Router};
pub use pcap::{new_capture, write_pcap, Capture, CaptureRef, CapturedPacket, Direction};
pub use policy::{EcnMatch, EcnPolicy, Firewall, FirewallAction, FirewallRule};
pub use pool::PacketPool;
pub use prefix::{Ipv4Prefix, PrefixMap};
pub use queue::{QueueDisc, QueueDropCause, QueueState, QueueVerdict};
pub use rng::{derive_rng, derive_rng_indexed, derive_seed, derive_seed_indexed, LabelBuf};
pub use sim::{HostApi, Sim, SimConfig, SimSkeleton};
pub use time::Nanos;
