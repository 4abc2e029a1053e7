//! Node types: routers (handled natively by the simulator) and hosts
//! (driven by pluggable agents, e.g. the `ecn-stack` network stack).
//!
//! [`Router`] is a *construction-time* description: `Sim::add_router`
//! flattens it into the simulator's struct-of-arrays node columns, so
//! the dispatch path never touches a per-node struct (or a box) again.

use crate::link::LinkId;
use crate::policy::{EcnPolicy, Firewall};
use crate::prefix::PrefixMap;
use crate::sim::HostApi;
use ecn_wire::Datagram;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// What a dense node index refers to. One byte per node on the dispatch
/// path — the whole kind column for a paper-scale world fits in a few
/// cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Forwarding element (runs the router pipeline).
    Router,
    /// End host (delivers to an agent).
    Host,
}

/// A forwarding-table entry: single next hop or ECMP set.
#[derive(Debug, Clone)]
pub enum RouteEntry {
    /// Deterministic next hop.
    Link(LinkId),
    /// Equal-cost set; the choice hashes the flow and the current routing
    /// epoch, so paths can differ between flows and *change over time* —
    /// the route-churn mechanism the paper suspects behind partially
    /// bypassed middleboxes (§4.1).
    Ecmp(Vec<LinkId>),
}

impl RouteEntry {
    /// Select the outgoing link for `flow_key` in `epoch`.
    pub fn select(&self, flow_key: u64, epoch: u64) -> Option<LinkId> {
        match self {
            RouteEntry::Link(l) => Some(*l),
            RouteEntry::Ecmp(ls) => {
                if ls.is_empty() {
                    return None;
                }
                let mut z = flow_key ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                Some(ls[(z % ls.len() as u64) as usize])
            }
        }
    }
}

/// A router: forwarding table plus the per-hop behaviours under study.
///
/// The label and the compiled forwarding table are `Arc`-shared: cloning a
/// router (the blueprint-skeleton instantiation path) costs two reference
/// bumps, not a name allocation plus a table rebuild.
#[derive(Debug, Clone)]
pub struct Router {
    /// Human-readable label (also used to derive per-router randomness).
    pub label: Arc<str>,
    /// The address this router answers ICMP from (its "hop IP").
    pub addr: Ipv4Addr,
    /// ECN treatment applied to forwarded packets.
    pub ecn_policy: EcnPolicy,
    /// Firewall applied to forwarded packets.
    pub firewall: Firewall,
    /// Does this router generate ICMP time-exceeded? (Silent routers show
    /// up as `*` in traceroute.)
    pub responds_ttl_exceeded: bool,
    /// Longest-prefix-match forwarding table (shared with sibling worlds
    /// stamped from the same skeleton).
    pub table: Arc<PrefixMap<RouteEntry>>,
}

impl Router {
    /// A plain RFC-compliant router.
    pub fn new(label: impl Into<Arc<str>>, addr: Ipv4Addr) -> Router {
        Router {
            label: label.into(),
            addr,
            ecn_policy: EcnPolicy::Pass,
            firewall: Firewall::allow_all(),
            responds_ttl_exceeded: true,
            table: Arc::new(PrefixMap::new()),
        }
    }
}

/// Callbacks a host agent implements. The simulator detaches the agent
/// while dispatching, so the agent gets full mutable access to both itself
/// and the simulation (via [`HostApi`]).
pub trait HostAgent {
    /// A datagram addressed to this host arrived. The simulator retains
    /// ownership (it recycles the buffer into its [`crate::PacketPool`]
    /// afterwards); agents copy out what they keep.
    fn on_datagram(&mut self, api: &mut HostApi<'_>, dgram: &Datagram);
    /// A timer set through [`HostApi::set_timer`] fired.
    fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64);
}

/// Flow key used for ECMP hashing: stable per (src, dst, proto).
pub fn flow_key(dgram: &Datagram) -> u64 {
    flow_key_header(&dgram.header())
}

/// [`flow_key`] over an already-decoded header.
pub fn flow_key_header(h: &ecn_wire::Ipv4Header) -> u64 {
    flow_key_raw(h.src, h.dst, h.protocol)
}

/// [`flow_key`] from the individual fields — the forwarding pipeline
/// reads them straight off the wire bytes without decoding a header.
pub fn flow_key_raw(src: Ipv4Addr, dst: Ipv4Addr, proto: ecn_wire::IpProto) -> u64 {
    (u64::from(u32::from(src)) << 32)
        ^ u64::from(u32::from(dst))
        ^ (u64::from(proto.number()) << 17)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecn_wire::{Ecn, IpProto, Ipv4Header};

    #[test]
    fn single_route_always_selects() {
        let e = RouteEntry::Link(LinkId(7));
        assert_eq!(e.select(123, 0), Some(LinkId(7)));
        assert_eq!(e.select(456, 99), Some(LinkId(7)));
    }

    #[test]
    fn ecmp_is_deterministic_per_flow_and_epoch() {
        let e = RouteEntry::Ecmp(vec![LinkId(1), LinkId(2), LinkId(3)]);
        let a = e.select(42, 0);
        assert_eq!(a, e.select(42, 0));
        // across many flows, all links get used
        let mut used = std::collections::HashSet::new();
        for f in 0..100 {
            used.insert(e.select(f, 0).unwrap());
        }
        assert_eq!(used.len(), 3);
        // and epochs shuffle the mapping for at least some flows
        let flips = (0..100)
            .filter(|f| e.select(*f, 0) != e.select(*f, 1))
            .count();
        assert!(flips > 20, "flips {flips}");
    }

    #[test]
    fn empty_ecmp_selects_nothing() {
        assert_eq!(RouteEntry::Ecmp(vec![]).select(1, 1), None);
    }

    #[test]
    fn flow_key_stable_across_retransmits() {
        let h = Ipv4Header::probe(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 0, 2, 1),
            IpProto::Udp,
            Ecn::Ect0,
        );
        let d1 = Datagram::new(h, b"first try");
        let mut h2 = h;
        h2.identification = 999;
        let d2 = Datagram::new(h2, b"retry with different id and payload");
        assert_eq!(flow_key(&d1), flow_key(&d2));
        // but differs across protocols
        let mut h3 = h;
        h3.protocol = IpProto::Tcp;
        let d3 = Datagram::new(h3, b"x");
        assert_ne!(flow_key(&d1), flow_key(&d3));
    }
}
