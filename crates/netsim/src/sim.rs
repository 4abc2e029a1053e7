//! The discrete-event engine: schedules packet arrivals and host timers,
//! and implements the router forwarding pipeline (TTL/ICMP, firewall, ECN
//! policy, route lookup, link transmission).
//!
//! # The event loop
//!
//! Pending events live in one `BinaryHeap` and dispatch one at a time in
//! exact `(at, seq)` order — earliest timestamp first, the order they
//! were scheduled in within a timestamp. That contract is load-bearing:
//! the per-packet RNG stream is shared by every firewall, policy, loss
//! and queue decision, so any reordering would change packet outcomes
//! (and golden report bytes), not just interleavings. A unit world holds
//! a few dozen pending events at most, so the heap stays a few levels
//! deep.
//!
//! Per-node state is stored as struct-of-arrays indexed by dense
//! [`NodeId`]: the dispatch path reads the ECN policy, firewall, route
//! table and capture flag as direct vector loads, with no `Node` enum
//! match and no `Box` indirection per hop. Node labels stay in a cold
//! column only touched by diagnostics and the engine's per-unit rewrite
//! summary ([`Sim::label_of`]).

use crate::events::{DropCause, SimCounters};
use crate::link::{LinkId, LinkOutcome, LinkProps, LinkState, NodeId};
use crate::node::{flow_key_header, flow_key_raw, HostAgent, NodeKind, RouteEntry, Router};
use crate::pcap::{new_capture, CaptureRef, Direction};
use crate::policy::{EcnPolicy, Firewall, FirewallAction};
use crate::pool::PacketPool;
use crate::prefix::{Ipv4Prefix, PrefixMap};
use crate::time::Nanos;
use ecn_wire::{Datagram, DestUnreachCode, Ecn, IcmpMessage, IpProto, Ipv4Header};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Seed for all per-packet randomness.
    pub seed: u64,
    /// Routing-epoch length: ECMP selections re-hash every period,
    /// modelling slow route churn.
    pub flap_period: Nanos,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            flap_period: Nanos::from_secs(120),
        }
    }
}

#[derive(Debug)]
enum Event {
    Arrival { node: NodeId, dgram: Datagram },
    Timer { node: NodeId, token: u64 },
}

/// A pending event with its dispatch key: `at`, then `seq` (the global
/// schedule counter). `Ord` is inverted so the std max-heap pops the
/// earliest `(at, seq)` first.
struct Scheduled {
    at: Nanos,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// log2 of the slots in a world's forwarding route cache. One table per
/// world, whatever the topology's size: a unit's live forwarding
/// decisions are a few hundred (router, flow) pairs at a time, since
/// servers are probed one after another and an epoch change retires
/// every older slot anyway.
const ROUTE_CACHE_BITS: u32 = 12;

/// `LinkId` → state slot sentinel: a passive link, which has no state.
const NO_STATE: u32 = u32::MAX;

/// A directed link as the topology stores it: the receiving node and the
/// index of its properties in [`Topology::link_props`].
#[derive(Debug, Clone, Copy)]
struct Link {
    to: NodeId,
    props: u32,
}

/// Longest chain of transparent routers a cached tunnel may span. Well
/// above any path the blueprint builds, well below every probe TTL.
const MAX_TUNNEL_SKIP: u8 = 30;

/// One memoised forwarding decision: for (`router`, `dst`, `flow_key`,
/// `epoch`, `generation`) the selected outgoing link. The tuple pins
/// every input of [`RouteEntry::select`] plus the table edit generation,
/// so a hit is exactly the lookup it replaces; two pairs hashed to one
/// slot evict each other, they never answer for each other.
///
/// When the selected link and the routers behind it are *transparent* —
/// passive links ([`LinkProps::is_passive`]), open firewalls, `Pass` ECN
/// policy — the slot also memoises a **tunnel**: the furthest node the
/// packet reaches without any behaviour firing, the summed propagation
/// delay, and the number of router hops skipped. Every skipped hop would
/// have drawn no randomness, mutated no state beyond `ttl -= 1` /
/// `forwarded += 1`, and produced exactly one more `Arrival` event — so
/// the tunnel applies those effects in bulk and schedules the exit
/// arrival directly. `bound` caps use at the last instant the whole
/// traversal still falls inside `epoch` (route flaps mid-chain fall back
/// to hop-by-hop), and `ttl > skip` guards TTL expiry (traceroute-style
/// probes fall back and expire at the correct router).
#[derive(Debug, Clone, Copy)]
struct RouteCacheSlot {
    router: NodeId,
    dst: u32,
    key: u64,
    epoch: u64,
    gen: u32,
    link: Option<LinkId>,
    /// Transparent routers between `link` and `exit` (0 = no tunnel).
    skip: u8,
    /// The tunnel walk stopped at the requesting packet's TTL, not at a
    /// hop that ends the chain: a packet with more TTL rebuilds the slot
    /// and rides further.
    ttl_capped: bool,
    /// Node the tunnel delivers to (host, or first non-transparent router).
    exit: NodeId,
    /// Total propagation delay from this router to `exit`.
    extra_delay: Nanos,
    /// Latest `now` at which `now + extra_delay` is still inside `epoch`.
    bound: Nanos,
}

impl RouteCacheSlot {
    const EMPTY: RouteCacheSlot = RouteCacheSlot {
        router: NodeId(u32::MAX),
        dst: 0,
        key: 0,
        epoch: 0,
        gen: u32::MAX,
        link: None,
        skip: 0,
        ttl_capped: false,
        exit: NodeId(0),
        extra_delay: Nanos(0),
        bound: Nanos(0),
    };
}

/// Route-cache slot of (`router`, per-hop flow `key`): the top
/// [`ROUTE_CACHE_BITS`] of a multiplicative hash, which depend on every
/// input bit.
fn route_cache_index(router: NodeId, key: u64) -> usize {
    let h = (key ^ u64::from(router.0)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> (64 - ROUTE_CACHE_BITS)) as usize
}

/// Node- and link-indexed topology state: written during world
/// construction, read only (never mutated) once traffic flows. Split
/// out of [`Sim`] so a [`SimSkeleton`] stamp shares it by reference —
/// see [`Sim::topo`].
///
/// Struct-of-arrays: column `i` of every vector below describes the node
/// with `NodeId(i)`. Router-only columns hold cheap defaults for hosts
/// (and vice versa) — a dense vector load beats an enum-plus-`Box` hop
/// on the dispatch path, and the per-world memory cost is a few machine
/// words per node.
#[derive(Clone, Default)]
struct Topology {
    /// Node kind per id (router or host).
    kinds: Vec<NodeKind>,
    /// Node address per id.
    addrs: Vec<Ipv4Addr>,
    /// Human-readable label per id (cold: diagnostics and the engine's
    /// per-unit rewrite summary).
    labels: Vec<Arc<str>>,
    /// Router ECN treatment per id.
    ecn_policies: Vec<EcnPolicy>,
    /// Router ICMP time-exceeded behaviour per id.
    responds_ttl: Vec<bool>,
    /// Router firewall per id (hosts: `allow_all`, zero-sized).
    firewalls: Vec<Firewall>,
    /// Router forwarding table per id (shared with sibling worlds).
    tables: Vec<Option<Arc<PrefixMap<RouteEntry>>>>,
    /// Host access link per id.
    uplinks: Vec<Option<LinkId>>,
    /// Address → node index (first node wins on duplicates).
    addr_index: HashMap<Ipv4Addr, NodeId>,
    /// All directed links; index = `LinkId`.
    links: Vec<Link>,
    /// Each distinct [`LinkProps`] once, in first-use order: a campaign
    /// world has about a dozen, however many links share them.
    link_props: Vec<LinkProps>,
    /// `LinkId` → index into a world's `Sim::link_states`, or
    /// [`NO_STATE`] for a passive link.
    state_slots: Vec<u32>,
}

/// The simulator.
pub struct Sim {
    now: Nanos,
    seq: u64,
    queue: BinaryHeap<Scheduled>,
    /// Per-node topology, immutable once the world is stamped. Behind an
    /// `Arc` so sibling unit worlds share one copy instead of cloning
    /// ~10 node-indexed vectors each (the dominant stamp cost at 10⁵
    /// servers); construction mutates through [`Arc::make_mut`]
    /// (copy-on-write — free while the `Arc` is unshared, which it is
    /// for any world still being built).
    topo: Arc<Topology>,
    /// Host agent per id.
    agents: Vec<Option<Box<dyn HostAgent>>>,
    /// Host capture per id.
    captures: Vec<Option<CaptureRef>>,
    /// Runtime state of the links that are not passive, indexed by the
    /// topology's `state_slots`. Passive links (nearly all of a
    /// campaign world) need none, so this grows with the stateful links,
    /// not with the topology.
    link_states: Vec<LinkState>,
    /// Ground-truth packet counters (not visible to the measurement
    /// application), zero in every freshly stamped world.
    counters: SimCounters,
    /// Datagram buffer freelist: checked out on encode, refilled when the
    /// simulator consumes a packet (delivery or drop).
    pub pool: PacketPool,
    /// Forwarding route cache (see [`RouteCacheSlot`]): probe traffic is
    /// a handful of long flows, so recent lookups answer most of the next
    /// ones without walking the prefix trie. A fixed table of
    /// `1 << ROUTE_CACHE_BITS` slots indexed by [`route_cache_index`].
    route_cache: Vec<RouteCacheSlot>,
    /// Monotonic generation for the route cache; bumped by any
    /// construction-time table edit so stale slots can never serve.
    route_gen: u32,
    /// Cached routing epoch (`now / flap_period`) and the time the next
    /// one starts, so the dispatch path pays a compare instead of a
    /// 64-bit division per hop.
    epoch: u64,
    epoch_next_at: Nanos,
    /// Events dispatched so far (arrivals + timers) — the denominator of
    /// the ns/packet-event figure the benches report.
    dispatched: u64,
    rng: SmallRng,
    config: SimConfig,
}

impl Sim {
    /// A simulator with the given seed and default config.
    pub fn new(seed: u64) -> Sim {
        Sim::with_config(SimConfig {
            seed,
            ..SimConfig::default()
        })
    }

    /// A simulator whose per-packet RNG stream lives in its own *domain*:
    /// the stream is derived from `seed` and a stable label via
    /// [`crate::rng::derive_seed`], so it depends only on the label — never
    /// on how many other simulators exist or in what order they were
    /// created. Shard/unit-parallel execution engines use one domain per
    /// work unit so that changing the shard count cannot perturb any
    /// existing stream.
    pub fn with_domain(seed: u64, domain: &str) -> Sim {
        Sim::with_config(SimConfig {
            seed: crate::rng::derive_seed(seed, domain),
            ..SimConfig::default()
        })
    }

    /// A simulator with explicit configuration.
    pub fn with_config(config: SimConfig) -> Sim {
        Sim {
            now: Nanos::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            topo: Arc::new(Topology::default()),
            agents: Vec::new(),
            captures: Vec::new(),
            link_states: Vec::new(),
            counters: SimCounters::default(),
            pool: PacketPool::new(),
            route_cache: vec![RouteCacheSlot::EMPTY; 1 << ROUTE_CACHE_BITS],
            route_gen: 0,
            epoch: 0,
            epoch_next_at: Nanos(config.flap_period.0.max(1)),
            dispatched: 0,
            rng: SmallRng::seed_from_u64(config.seed ^ 0xec00_5eed),
            config,
        }
    }

    /// The packet counters since this world was stamped or last
    /// drained.
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// Zero the packet counters, so the next
    /// [`Self::drain_event_counters`] covers only what follows. Purely
    /// observational: counting cannot change any packet outcome.
    pub fn install_event_tap(&mut self) {
        self.counters = SimCounters::default();
    }

    /// Take the packet counters, leaving them zeroed.
    pub fn drain_event_counters(&mut self) -> SimCounters {
        std::mem::take(&mut self.counters)
    }

    /// Check a recycled byte buffer out of the simulator's packet pool
    /// (for encoding an outgoing datagram via [`Datagram::compose`]).
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.pool.take()
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Events dispatched so far (arrivals and timers).
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Pre-allocate node and link storage. Blueprint-driven world
    /// instantiation knows its exact element counts up front; reserving
    /// avoids repeated growth reallocations on the construction hot path.
    pub fn reserve(&mut self, nodes: usize, links: usize) {
        let t = self.topo_mut();
        t.kinds.reserve(nodes);
        t.addrs.reserve(nodes);
        t.labels.reserve(nodes);
        t.ecn_policies.reserve(nodes);
        t.responds_ttl.reserve(nodes);
        t.firewalls.reserve(nodes);
        t.tables.reserve(nodes);
        t.uplinks.reserve(nodes);
        t.addr_index.reserve(nodes);
        t.links.reserve(links);
        t.state_slots.reserve(links);
        self.agents.reserve(nodes);
        self.captures.reserve(nodes);
    }

    /// Copy-on-write handle on the topology for construction-time edits:
    /// free while this world uniquely owns it, a deep clone only if a
    /// stamped world is (unusually) edited after instantiation.
    fn topo_mut(&mut self) -> &mut Topology {
        Arc::make_mut(&mut self.topo)
    }

    // ---- topology construction -------------------------------------------------

    #[allow(clippy::too_many_arguments)] // private: one call site per node kind
    fn push_node(
        &mut self,
        kind: NodeKind,
        label: Arc<str>,
        addr: Ipv4Addr,
        ecn_policy: EcnPolicy,
        responds_ttl: bool,
        firewall: Firewall,
        table: Option<Arc<PrefixMap<RouteEntry>>>,
    ) -> NodeId {
        let t = self.topo_mut();
        let id = NodeId(t.kinds.len() as u32);
        t.kinds.push(kind);
        t.addrs.push(addr);
        t.labels.push(label);
        t.ecn_policies.push(ecn_policy);
        t.responds_ttl.push(responds_ttl);
        t.firewalls.push(firewall);
        t.tables.push(table);
        t.uplinks.push(None);
        t.addr_index.entry(addr).or_insert(id);
        self.agents.push(None);
        self.captures.push(None);
        id
    }

    /// Add a router node.
    pub fn add_router(&mut self, router: Router) -> NodeId {
        let Router {
            label,
            addr,
            ecn_policy,
            firewall,
            responds_ttl_exceeded,
            table,
        } = router;
        self.push_node(
            NodeKind::Router,
            label,
            addr,
            ecn_policy,
            responds_ttl_exceeded,
            firewall,
            Some(table),
        )
    }

    /// Add a host node (no uplink yet).
    pub fn add_host(&mut self, label: impl Into<Arc<str>>, addr: Ipv4Addr) -> NodeId {
        self.push_node(
            NodeKind::Host,
            label.into(),
            addr,
            EcnPolicy::Pass,
            false,
            Firewall::allow_all(),
            None,
        )
    }

    /// Add a directed link. Links leave from whichever node routes onto
    /// them, so only the receiving end is recorded.
    pub fn add_link(&mut self, _from: NodeId, to: NodeId, props: LinkProps) -> LinkId {
        let slot = if props.is_passive() {
            NO_STATE
        } else {
            self.link_states.push(LinkState::new(&props));
            (self.link_states.len() - 1) as u32
        };
        let t = self.topo_mut();
        let id = LinkId(t.links.len() as u32);
        // a linear search: the distinct values number about a dozen
        let props = match t.link_props.iter().position(|p| *p == props) {
            Some(i) => i,
            None => {
                t.link_props.push(props);
                t.link_props.len() - 1
            }
        };
        t.links.push(Link {
            to,
            props: props as u32,
        });
        t.state_slots.push(slot);
        id
    }

    /// Add a pair of directed links with identical properties.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, props: LinkProps) -> (LinkId, LinkId) {
        (self.add_link(a, b, props), self.add_link(b, a, props))
    }

    /// Connect `host` to `router`: duplex link, uplink set, /32 route
    /// installed on the router. Returns (host→router, router→host).
    pub fn attach_host(
        &mut self,
        host: NodeId,
        router: NodeId,
        props: LinkProps,
    ) -> (LinkId, LinkId) {
        let (up, down) = self.add_duplex(host, router, props);
        let addr = self.topo.addrs[host.0 as usize];
        self.set_uplink(host, up);
        self.route(router, Ipv4Prefix::host(addr), RouteEntry::Link(down));
        (up, down)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.topo.kinds.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.topo.links.len()
    }

    /// Is this node a router?
    pub fn is_router(&self, node: NodeId) -> bool {
        self.topo.kinds[node.0 as usize] == NodeKind::Router
    }

    /// The node's address.
    pub fn addr_of(&self, node: NodeId) -> Ipv4Addr {
        self.topo.addrs[node.0 as usize]
    }

    /// The node's human-readable label.
    pub fn label_of(&self, node: NodeId) -> &str {
        &self.topo.labels[node.0 as usize]
    }

    /// The host's access link, if set.
    pub fn uplink_of(&self, node: NodeId) -> Option<LinkId> {
        self.topo.uplinks[node.0 as usize]
    }

    /// Set a host's access link.
    pub fn set_uplink(&mut self, host: NodeId, link: LinkId) {
        assert!(!self.is_router(host), "set_uplink: {host:?} is a router");
        self.topo_mut().uplinks[host.0 as usize] = Some(link);
    }

    /// Set a router's ECN treatment.
    pub fn set_ecn_policy(&mut self, router: NodeId, policy: EcnPolicy) {
        assert!(
            self.is_router(router),
            "set_ecn_policy: {router:?} is a host"
        );
        self.topo_mut().ecn_policies[router.0 as usize] = policy;
        // cached tunnels may span this router; force rebuilds
        self.route_gen = self.route_gen.wrapping_add(1);
    }

    /// Set a router's firewall.
    pub fn set_firewall(&mut self, router: NodeId, firewall: Firewall) {
        assert!(self.is_router(router), "set_firewall: {router:?} is a host");
        self.topo_mut().firewalls[router.0 as usize] = firewall;
        // cached tunnels may span this router; force rebuilds
        self.route_gen = self.route_gen.wrapping_add(1);
    }

    /// Install a route on a router.
    pub fn route(&mut self, router: NodeId, prefix: Ipv4Prefix, entry: RouteEntry) {
        assert!(self.is_router(router), "route: {router:?} is not a router");
        let table = self.topo_mut().tables[router.0 as usize]
            .as_mut()
            .expect("router has a table");
        Arc::make_mut(table).insert(prefix, entry);
        // any table edit invalidates every memoised forwarding decision
        self.route_gen = self.route_gen.wrapping_add(1);
    }

    /// Install the agent driving a host.
    pub fn set_agent(&mut self, host: NodeId, agent: Box<dyn HostAgent>) {
        assert!(!self.is_router(host), "set_agent: {host:?} is a router");
        self.agents[host.0 as usize] = Some(agent);
    }

    /// Attach (or fetch) the capture buffer on a host interface.
    pub fn attach_capture(&mut self, host: NodeId) -> CaptureRef {
        assert!(
            !self.is_router(host),
            "attach_capture: {host:?} is a router"
        );
        self.captures[host.0 as usize]
            .get_or_insert_with(new_capture)
            .clone()
    }

    /// Take the capture buffer off a host interface: until it is put
    /// back with [`Self::restore_capture`], nothing the host sends or
    /// receives is recorded. Returns the buffer, if one was attached.
    pub fn detach_capture(&mut self, host: NodeId) -> Option<CaptureRef> {
        self.captures[host.0 as usize].take()
    }

    /// Put back what [`Self::detach_capture`] returned, so the buffer
    /// (and its warm freelist) records again.
    pub fn restore_capture(&mut self, host: NodeId, capture: Option<CaptureRef>) {
        self.captures[host.0 as usize] = capture;
    }

    /// Node id of the node (host or router) with address `addr`.
    pub fn find_node(&self, addr: Ipv4Addr) -> Option<NodeId> {
        self.topo.addr_index.get(&addr).copied()
    }

    // ---- event loop -------------------------------------------------------------

    fn schedule(&mut self, at: Nanos, event: Event) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, event });
    }

    /// Process a single event. Returns false if the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Scheduled { at, event, .. }) = self.queue.pop() else {
            return false;
        };
        self.now = at;
        self.dispatched += 1;
        match event {
            Event::Arrival { node, dgram } => {
                if self.topo.kinds[node.0 as usize] == NodeKind::Router {
                    self.router_receive(node, dgram);
                } else {
                    self.host_receive(node, dgram);
                }
            }
            Event::Timer { node, token } => self.dispatch_timer(node, token),
        }
        true
    }

    /// Run until virtual time `t`: all events at or before `t` are
    /// processed, and the clock is left at exactly `t`.
    pub fn run_until(&mut self, t: Nanos) {
        while self.queue.peek().is_some_and(|next| next.at <= t) {
            self.step();
        }
        self.now = self.now.max(t);
    }

    /// Run for a duration from the current time.
    pub fn run_for(&mut self, d: Nanos) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Run until no events remain.
    pub fn run_to_idle(&mut self) {
        while self.step() {}
    }

    // ---- packet handling ---------------------------------------------------------

    /// Arrange for `host`'s agent to receive `on_timer(token)` after
    /// `delay`. External drivers (e.g. a prober arming a socket timeout
    /// from outside the event loop) use this; agents use
    /// [`HostApi::set_timer`].
    pub fn set_timer(&mut self, host: NodeId, delay: Nanos, token: u64) {
        let at = self.now + delay;
        self.schedule(at, Event::Timer { node: host, token });
    }

    /// Inject a datagram as if `host` sent it (captures it, then offers it
    /// to the host's uplink). External drivers and `HostApi::send` both
    /// funnel through here.
    pub fn send_from(&mut self, host: NodeId, dgram: Datagram) {
        let idx = host.0 as usize;
        assert!(
            self.topo.kinds[idx] == NodeKind::Host,
            "send_from: {host:?} is a router"
        );
        if let Some(cap) = &self.captures[idx] {
            cap.lock()
                .record(self.now, Direction::Out, dgram.as_bytes());
        }
        let Some(up) = self.topo.uplinks[idx] else {
            self.counters.note_drop(DropCause::NoRoute);
            self.pool.recycle_datagram(dgram);
            return;
        };
        self.counters.originated += 1;
        self.transmit(up, dgram);
    }

    /// Hand an arrival to its host: capture it, count it (or drop it if
    /// it is addressed elsewhere), and run the host's agent on it.
    fn host_receive(&mut self, node: NodeId, dgram: Datagram) {
        let idx = node.0 as usize;
        if let Some(cap) = &self.captures[idx] {
            cap.lock().record(self.now, Direction::In, dgram.as_bytes());
        }
        if self.topo.addrs[idx] != dgram.dst() {
            self.counters.note_drop(DropCause::HostMismatch);
        } else {
            self.counters.delivered += 1;
            if let Some(mut agent) = self.agents[idx].take() {
                let mut api = HostApi { sim: self, node };
                agent.on_datagram(&mut api, &dgram);
                self.agents[idx] = Some(agent);
            }
        }
        // the packet's life ends here; its buffer goes back to the pool
        self.pool.recycle_datagram(dgram);
    }

    fn dispatch_timer(&mut self, node: NodeId, token: u64) {
        let idx = node.0 as usize;
        if let Some(mut agent) = self.agents[idx].take() {
            let mut api = HostApi { sim: self, node };
            agent.on_timer(&mut api, token);
            self.agents[idx] = Some(agent);
        }
    }

    /// The router pipeline never decodes the IPv4 header at all on the
    /// fast path: every per-hop input (TTL, ECN, src, dst, protocol) is a
    /// fixed-offset read straight off the wire bytes, the TTL/ECN
    /// mutations are raw byte writes, and the checksum is refreshed once
    /// before the packet moves on — byte-for-byte what the old
    /// decode → mutate → re-encode cycle produced (pinned by wire-level
    /// tests). Every per-hop behaviour is a dense vector load off the
    /// struct-of-arrays columns — no enum match, no box hop. Cold paths
    /// (TTL expiry, firewall reject) drop to the full codec for ICMP
    /// quoting.
    fn router_receive(&mut self, node: NodeId, mut dgram: Datagram) {
        let idx = node.0 as usize;
        let src = dgram.src();
        let ecn = dgram.ecn();
        let protocol = dgram.protocol();

        // 1. TTL. Decrement; on expiry, answer with time-exceeded quoting
        // the datagram as this router saw it — including any upstream ECN
        // mangling, which is precisely what ECN traceroute measures.
        let ttl = dgram.ttl().saturating_sub(1);
        dgram.set_ttl_raw(ttl);
        if ttl == 0 {
            // the quote must show the decremented TTL on the wire
            dgram.refresh_header_checksum();
            self.counters.note_drop(DropCause::TtlExpired);
            // No ICMP errors about ICMP (RFC 1812 §4.3.2.7 simplification:
            // the study's probes are UDP/TCP, so this only suppresses
            // pathological error-about-error storms).
            if self.topo.responds_ttl[idx] && protocol != IpProto::Icmp {
                let reply_hdr =
                    Ipv4Header::probe(self.topo.addrs[idx], src, IpProto::Icmp, Ecn::NotEct);
                let reply = Datagram::compose(self.pool.take(), reply_hdr, |out| {
                    IcmpMessage::encode_time_exceeded_into(dgram.as_bytes(), out)
                });
                self.counters.icmp_time_exceeded += 1;
                self.route_and_transmit(node, reply, &reply_hdr);
            }
            self.pool.recycle_datagram(dgram);
            return;
        }

        // 2. Firewall.
        let action = self.topo.firewalls[idx].evaluate(src, protocol, ecn, &mut self.rng);
        match action {
            FirewallAction::Drop => {
                self.counters.note_drop(DropCause::Firewall);
                self.pool.recycle_datagram(dgram);
                return;
            }
            FirewallAction::Reject => {
                self.counters.note_drop(DropCause::Firewall);
                if protocol != IpProto::Icmp {
                    // the quote shows the packet as this hop saw it
                    dgram.refresh_header_checksum();
                    let reply_hdr =
                        Ipv4Header::probe(self.topo.addrs[idx], src, IpProto::Icmp, Ecn::NotEct);
                    let reply = Datagram::compose(self.pool.take(), reply_hdr, |out| {
                        IcmpMessage::encode_dest_unreachable_into(
                            DestUnreachCode::AdminProhibited,
                            dgram.as_bytes(),
                            out,
                        )
                    });
                    self.counters.icmp_dest_unreachable += 1;
                    self.route_and_transmit(node, reply, &reply_hdr);
                }
                self.pool.recycle_datagram(dgram);
                return;
            }
            FirewallAction::Allow => {}
        }

        // 3. ECN policy.
        let policy = self.topo.ecn_policies[idx];
        let (after, dropped) = policy.apply(ecn, &mut self.rng);
        if dropped {
            self.counters.note_drop(DropCause::PolicyTos);
            self.pool.recycle_datagram(dgram);
            return;
        }
        if after != ecn {
            dgram.set_ecn_raw(after);
            self.counters.note_ecn_rewrite(node);
        }

        // 4+5. Route and transmit. The TTL (and possibly ECN) bytes are
        // already written; the checksum refresh happens once, at transmit.
        let dst = dgram.dst();
        let key = flow_key_raw(src, dst, protocol) ^ (u64::from(node.0) << 48);
        self.route_and_transmit_keyed(node, dgram, u32::from(dst), key, after, true);
    }

    /// Routing epoch for the current virtual time, from the cached value
    /// (recomputed — one 64-bit division — only when `now` crosses into
    /// the next `flap_period`).
    fn current_epoch(&mut self) -> u64 {
        if self.now >= self.epoch_next_at {
            let period = self.config.flap_period.0.max(1);
            self.epoch = self.now.0 / period;
            self.epoch_next_at = Nanos(self.epoch.saturating_add(1).saturating_mul(period));
        }
        self.epoch
    }

    /// The route-cache slot that a packet of flow (`src`, `dst`, `proto`)
    /// occupies at `router`. A slot serves only the (router, flow) pair
    /// that filled it; this is public so tests can build flows that
    /// collide.
    pub fn route_cache_slot(router: NodeId, src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto) -> usize {
        route_cache_index(
            router,
            flow_key_raw(src, dst, proto) ^ (u64::from(router.0) << 48),
        )
    }

    /// Route-and-transmit for a freshly composed reply (header known,
    /// wire bytes clean).
    fn route_and_transmit(&mut self, node: NodeId, dgram: Datagram, hdr: &Ipv4Header) {
        let key = flow_key_header(hdr) ^ (u64::from(node.0) << 48);
        self.route_and_transmit_keyed(node, dgram, u32::from(hdr.dst), key, hdr.ecn, false);
    }

    /// Shared tail of the forwarding pipeline: consult the per-router
    /// route cache (fall back to the prefix-trie lookup on miss), then
    /// either ride the memoised tunnel past every transparent hop or
    /// offer to the selected link. `needs_refresh` says the header bytes
    /// were raw-mutated and the checksum must be refreshed before the
    /// packet is observed again.
    fn route_and_transmit_keyed(
        &mut self,
        node: NodeId,
        mut dgram: Datagram,
        dst: u32,
        key: u64,
        ecn: Ecn,
        needs_refresh: bool,
    ) {
        let epoch = self.current_epoch();
        let slot_idx = route_cache_index(node, key);
        let mut slot = self.route_cache[slot_idx];
        if slot.router != node
            || slot.dst != dst
            || slot.key != key
            || slot.epoch != epoch
            || slot.gen != self.route_gen
            || (slot.ttl_capped && dgram.ttl() > slot.skip + 1)
        {
            slot = self.build_cache_slot(node, dst, key, epoch, dgram.ttl());
            self.route_cache[slot_idx] = slot;
        }
        if slot.skip > 0 {
            // Tunnel: every skipped hop is transparent, so the chain's
            // observable effect is exactly `ttl -= skip`, one checksum
            // refresh, `forwarded += skip` (plus this router's own
            // transmit), and a single arrival at the exit. Falls back to
            // hop-by-hop when TTL would expire mid-chain (the correct
            // router must answer) or when an epoch boundary cuts the
            // traversal (a flap may reroute mid-chain).
            let ttl = dgram.ttl();
            if ttl > slot.skip && self.now <= slot.bound {
                dgram.set_ttl_raw(ttl - slot.skip);
                dgram.refresh_header_checksum();
                self.counters.forwarded += 1 + u64::from(slot.skip);
                let at = self.now + slot.extra_delay;
                self.schedule(
                    at,
                    Event::Arrival {
                        node: slot.exit,
                        dgram,
                    },
                );
                return;
            }
        }
        match slot.link {
            Some(lid) => self.transmit_with(lid, dgram, ecn, needs_refresh),
            None => {
                self.counters.note_drop(DropCause::NoRoute);
                self.pool.recycle_datagram(dgram);
            }
        }
    }

    /// Cache-miss path: the prefix-trie lookup plus the tunnel walk.
    /// Starting from the selected link, follow the chain while the link
    /// is passive (it has no state slot; see [`LinkProps::is_passive`])
    /// and the node behind it is a transparent router (open firewall,
    /// `Pass` ECN policy): such hops draw no randomness and can neither
    /// drop, mark, nor reorder, so their routing decisions — pinned by
    /// (`dst`, per-hop flow key, `epoch`) exactly like this slot — can be
    /// replayed in bulk.
    ///
    /// The walk is capped by the requesting packet's TTL: a packet with
    /// TTL `t` can ride at most `t - 1` skipped hops, so walking further
    /// is wasted trie work. The flow key is `(src, dst, proto)` — ports
    /// never enter it — so all of a traceroute's probes towards one
    /// destination share one slot per router, and the probe that misses
    /// at a router is the lowest-TTL one to get there; the cap keeps that
    /// miss from paying for a chain walk it can never use. A slot built
    /// under a low cap memoises a shorter — still exact — tunnel and is
    /// marked `ttl_capped`, so the next packet of the flow with enough TTL
    /// to ride further rebuilds it instead of going hop by hop.
    fn build_cache_slot(
        &mut self,
        node: NodeId,
        dst: u32,
        key: u64,
        epoch: u64,
        ttl: u8,
    ) -> RouteCacheSlot {
        let link = self.topo.tables[node.0 as usize]
            .as_ref()
            .and_then(|t| t.lookup(std::net::Ipv4Addr::from(dst)))
            .and_then(|entry| entry.select(key, epoch));
        let mut slot = RouteCacheSlot {
            router: node,
            dst,
            key,
            epoch,
            gen: self.route_gen,
            link,
            ..RouteCacheSlot::EMPTY
        };
        let Some(l0) = link else { return slot };
        let topo = &self.topo;
        // a link is passive exactly when it has no state slot
        let passive = |l: LinkId| topo.state_slots[l.0 as usize] == NO_STATE;
        let delay_of = |l: &Link| topo.link_props[l.props as usize].delay;
        if !passive(l0) {
            return slot;
        }
        // the per-hop key is the flow key XOR the hop's node id
        let base = key ^ (u64::from(node.0) << 48);
        let first = topo.links[l0.0 as usize];
        let mut delay = delay_of(&first);
        let mut cur = first.to;
        let mut skip = 0u8;
        let max_skip = MAX_TUNNEL_SKIP.min(ttl.saturating_sub(1));
        while skip < max_skip {
            let c = cur.0 as usize;
            if topo.kinds[c] != NodeKind::Router
                || !topo.firewalls[c].is_open()
                || !matches!(topo.ecn_policies[c], EcnPolicy::Pass)
            {
                break;
            }
            let hop_key = base ^ (u64::from(cur.0) << 48);
            let Some(next) = topo.tables[c]
                .as_ref()
                .and_then(|t| t.lookup(std::net::Ipv4Addr::from(dst)))
                .and_then(|entry| entry.select(hop_key, epoch))
            else {
                // the chain would no-route *at* `cur`: stop the tunnel
                // before it so the drop is attributed to the right hop
                break;
            };
            if !passive(next) {
                break;
            }
            let next = topo.links[next.0 as usize];
            delay += delay_of(&next);
            skip += 1;
            cur = next.to;
        }
        // the loop only ends with `skip == max_skip` when the cap, not a
        // hop, stopped it
        slot.ttl_capped = skip == max_skip && max_skip < MAX_TUNNEL_SKIP;
        if skip > 0 {
            let period = self.config.flap_period.0.max(1);
            let epoch_end = epoch.saturating_add(1).saturating_mul(period);
            slot.skip = skip;
            slot.exit = cur;
            slot.extra_delay = delay;
            // `now <= bound` ⇒ every intermediate arrival (all at
            // `now + d`, `d <= delay`) still falls inside `epoch`
            slot.bound = Nanos(epoch_end.saturating_sub(1).saturating_sub(delay.0));
        }
        slot
    }

    fn transmit(&mut self, lid: LinkId, dgram: Datagram) {
        let ecn = dgram.ecn();
        self.transmit_with(lid, dgram, ecn, false);
    }

    fn transmit_with(&mut self, lid: LinkId, mut dgram: Datagram, ecn: Ecn, needs_refresh: bool) {
        let now = self.now;
        let link = self.topo.links[lid.0 as usize];
        let to = link.to;
        let props = &self.topo.link_props[link.props as usize];
        let slot = self.topo.state_slots[lid.0 as usize];
        // a passive link's offer is always exactly this
        // (`LinkProps::is_passive`)
        let outcome = if slot == NO_STATE {
            LinkOutcome::Deliver {
                at: now + props.delay,
                ce_mark: false,
            }
        } else {
            props.offer(
                &mut self.link_states[slot as usize],
                now,
                dgram.len() as u64,
                ecn.is_markable(),
                &mut self.rng,
            )
        };
        match outcome {
            LinkOutcome::Deliver { at, ce_mark } => {
                if ce_mark {
                    dgram.set_ecn_raw(Ecn::Ce);
                    self.counters.ce_marked += 1;
                }
                if needs_refresh || ce_mark {
                    dgram.refresh_header_checksum();
                }
                self.counters.forwarded += 1;
                self.schedule(at, Event::Arrival { node: to, dgram });
            }
            LinkOutcome::Lost => {
                self.counters.note_drop(DropCause::Loss);
                self.pool.recycle_datagram(dgram);
            }
            LinkOutcome::Dropped(cause) => {
                self.counters.note_drop(DropCause::Queue(cause));
                self.pool.recycle_datagram(dgram);
            }
        }
    }
}

/// Mutable view of the simulation handed to host agents during dispatch.
pub struct HostApi<'a> {
    pub(crate) sim: &'a mut Sim,
    pub(crate) node: NodeId,
}

impl HostApi<'_> {
    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.sim.now
    }

    /// This host's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.sim.topo.addrs[self.node.0 as usize]
    }

    /// This host's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send a datagram from this host.
    pub fn send(&mut self, dgram: Datagram) {
        self.sim.send_from(self.node, dgram);
    }

    /// Arrange for `on_timer(token)` to fire after `delay`.
    pub fn set_timer(&mut self, delay: Nanos, token: u64) {
        let at = self.sim.now + delay;
        self.sim.schedule(
            at,
            Event::Timer {
                node: self.node,
                token,
            },
        );
    }

    /// Per-packet randomness shared with the engine.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    /// Check a recycled byte buffer out of the simulator's packet pool.
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.sim.pool.take()
    }
}

/// An immutable, thread-shareable snapshot of a constructed topology:
/// the struct-of-arrays node columns (with `Arc`-shared labels and
/// forwarding tables) and links — no agents, captures, or pending
/// events. One skeleton is built per blueprint; every work unit then
/// stamps a live [`Sim`] from it with [`SimSkeleton::instantiate`] — a
/// handful of column clones plus reference bumps instead of re-running
/// topology construction (and, since the flat layout, instead of one
/// box allocation per node).
pub struct SimSkeleton {
    /// Shared by reference with every stamped world, link specs
    /// included: a stamp bumps one refcount instead of cloning a dozen
    /// node- and link-indexed vectors.
    topo: Arc<Topology>,
    /// Fresh state of the non-passive links (queues, loss processes,
    /// busy horizons), which each stamped world gets its own copy of.
    link_states: Vec<LinkState>,
}

impl Sim {
    /// Freeze this simulator's topology into a shareable skeleton, with
    /// every forwarding table shrunk to its node count (a growing table
    /// keeps up to half its storage spare).
    ///
    /// Panics if the simulator has run (pending events), or carries
    /// agents/captures — a skeleton snapshots *construction* output, not
    /// runtime state.
    pub fn freeze(mut self) -> SimSkeleton {
        assert_eq!(self.queue.len(), 0, "freeze: pending events");
        for (i, agent) in self.agents.iter().enumerate() {
            assert!(
                agent.is_none(),
                "freeze: host {} has an agent",
                self.topo.labels[i]
            );
        }
        for (i, cap) in self.captures.iter().enumerate() {
            assert!(
                cap.is_none(),
                "freeze: host {} has a capture",
                self.topo.labels[i]
            );
        }
        for table in self.topo_mut().tables.iter_mut().flatten() {
            // a table another router shares keeps its allocation
            if let Some(table) = Arc::get_mut(table) {
                table.shrink_to_fit();
            }
        }
        SimSkeleton {
            topo: self.topo,
            link_states: self.link_states,
        }
    }
}

impl SimSkeleton {
    /// Stamp a live simulator from this skeleton under `config`: the
    /// topology and link specs are shared (one `Arc` bump); only the
    /// per-world state — non-passive link state, agents, captures, and
    /// the fixed-size route cache — is allocated.
    pub fn instantiate(&self, config: SimConfig) -> Sim {
        let n = self.topo.kinds.len();
        let mut sim = Sim::with_config(config);
        sim.topo = Arc::clone(&self.topo);
        sim.agents = std::iter::repeat_with(|| None).take(n).collect();
        sim.captures = vec![None; n];
        sim.link_states = self.link_states.clone();
        sim
    }

    /// Nodes in the skeleton.
    pub fn node_count(&self) -> usize {
        self.topo.kinds.len()
    }

    /// Links in the skeleton.
    pub fn link_count(&self) -> usize {
        self.topo.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EcnPolicy, Firewall, FirewallRule};
    use crate::queue::QueueDisc;

    fn probe_dgram(src: Ipv4Addr, dst: Ipv4Addr, ttl: u8, ecn: Ecn) -> Datagram {
        let mut h = Ipv4Header::probe(src, dst, IpProto::Udp, ecn);
        h.ttl = ttl;
        Datagram::compose(Vec::new(), h, |o| {
            ecn_wire::udp::udp_segment_into(src, dst, 40000, 123, b"test-payload", o)
        })
    }

    /// host A -- r1 -- r2 -- host B, clean links, default routes.
    fn line_topology(seed: u64) -> (Sim, NodeId, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(seed);
        let a = sim.add_host("A", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("B", Ipv4Addr::new(192, 0, 2, 1));
        let r1 = sim.add_router(Router::new("r1", Ipv4Addr::new(10, 0, 0, 254)));
        let r2 = sim.add_router(Router::new("r2", Ipv4Addr::new(192, 0, 2, 254)));
        sim.attach_host(a, r1, LinkProps::clean(Nanos::from_millis(1)));
        sim.attach_host(b, r2, LinkProps::clean(Nanos::from_millis(1)));
        let (l12, l21) = sim.add_duplex(r1, r2, LinkProps::clean(Nanos::from_millis(5)));
        sim.route(r1, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l12));
        sim.route(r2, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l21));
        (sim, a, b, r1, r2)
    }

    struct Echoer;
    impl HostAgent for Echoer {
        fn on_datagram(&mut self, api: &mut HostApi<'_>, dgram: &Datagram) {
            // reflect payload back to the source, preserving ECN
            let h = dgram.header();
            let reply_h = Ipv4Header::probe(api.addr(), h.src, h.protocol, h.ecn);
            let reply = Datagram::new(reply_h, dgram.payload());
            api.send(reply);
        }
        fn on_timer(&mut self, _api: &mut HostApi<'_>, _token: u64) {}
    }

    #[test]
    fn end_to_end_delivery_and_echo() {
        let (mut sim, a, b, _r1, _r2) = line_topology(1);
        sim.set_agent(b, Box::new(Echoer));
        let cap = sim.attach_capture(a);
        let d = probe_dgram(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 0, 2, 1),
            64,
            Ecn::Ect0,
        );
        sim.send_from(a, d);
        sim.run_to_idle();
        let cap = cap.lock();
        // capture holds the outgoing probe and the echoed reply
        assert_eq!(cap.len(), 2);
        assert_eq!(cap.packets()[0].dir, Direction::Out);
        assert_eq!(cap.packets()[1].dir, Direction::In);
        let reply = cap.packets()[1].datagram().unwrap();
        assert_eq!(reply.src(), Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(reply.ecn(), Ecn::Ect0, "ECT(0) survives clean path");
        assert_eq!(sim.counters().delivered, 2);
    }

    #[test]
    fn ttl_expiry_generates_time_exceeded_with_quote() {
        let (mut sim, a, _b, _r1, _r2) = line_topology(2);
        let cap = sim.attach_capture(a);
        // TTL 2 expires at r2 (decremented to 1 at r1, 0 at r2).
        let d = probe_dgram(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 0, 2, 1),
            2,
            Ecn::Ect0,
        );
        sim.send_from(a, d);
        sim.run_to_idle();
        assert_eq!(sim.counters().icmp_time_exceeded, 1);
        let cap = cap.lock();
        let icmp_pkt = cap
            .packets()
            .iter()
            .find(|p| p.dir == Direction::In)
            .expect("ICMP reply captured");
        let dg = icmp_pkt.datagram().unwrap();
        assert_eq!(dg.src(), Ipv4Addr::new(192, 0, 2, 254), "from r2");
        let msg = IcmpMessage::decode(dg.payload()).unwrap();
        let quoted = msg.quoted().unwrap();
        let qh = Ipv4Header::decode(quoted).unwrap();
        assert_eq!(qh.ecn, Ecn::Ect0, "quote shows mark as r2 saw it");
        assert_eq!(qh.dst, Ipv4Addr::new(192, 0, 2, 1));
    }

    #[test]
    fn bleaching_router_strips_mark_before_next_hop() {
        let (mut sim, a, b, r1, _r2) = line_topology(3);
        sim.set_ecn_policy(r1, EcnPolicy::Bleach);
        sim.set_agent(b, Box::new(Echoer));
        let cap_b = sim.attach_capture(b);
        let d = probe_dgram(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(192, 0, 2, 1),
            64,
            Ecn::Ect0,
        );
        sim.send_from(a, d);
        sim.run_to_idle();
        let cap = cap_b.lock();
        let arrived = cap.packets()[0].datagram().unwrap();
        assert_eq!(arrived.ecn(), Ecn::NotEct, "mark stripped at r1");
        assert_eq!(sim.counters().total_ecn_rewritten(), 1);
        assert_eq!(sim.counters().ecn_rewritten.get(&r1), Some(&1));
    }

    #[test]
    fn ect_udp_firewall_blocks_udp_but_not_tcp() {
        let (mut sim, a, _b, _r1, r2) = line_topology(4);
        sim.set_firewall(r2, Firewall::single(FirewallRule::drop_ect_udp()));
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 1);
        // ECT UDP: dropped at r2.
        sim.send_from(a, probe_dgram(src, dst, 64, Ecn::Ect0));
        sim.run_to_idle();
        assert_eq!(sim.counters().dropped(DropCause::Firewall), 1);
        assert_eq!(sim.counters().delivered, 0);
        // not-ECT UDP: delivered.
        sim.send_from(a, probe_dgram(src, dst, 64, Ecn::NotEct));
        sim.run_to_idle();
        assert_eq!(sim.counters().delivered, 1);
        // ECT TCP: delivered (the §4.4 phenomenon).
        let mut h = Ipv4Header::probe(src, dst, IpProto::Tcp, Ecn::Ect0);
        h.ttl = 64;
        let syn = ecn_wire::TcpHeader {
            src_port: 1,
            dst_port: 80,
            seq: 0,
            ack: 0,
            flags: ecn_wire::TcpFlags::SYN,
            window: 1000,
            urgent: 0,
            options: vec![],
        };
        let tcp = Datagram::compose(Vec::new(), h, |o| {
            ecn_wire::tcp::tcp_segment_into(src, dst, &syn, b"", o)
        });
        sim.send_from(a, tcp);
        sim.run_to_idle();
        assert_eq!(sim.counters().delivered, 2);
    }

    #[test]
    fn timers_fire_in_order() {
        use parking_lot::Mutex;
        use std::sync::Arc;
        struct TimerAgent {
            fired: Arc<Mutex<Vec<u64>>>,
        }
        impl HostAgent for TimerAgent {
            fn on_datagram(&mut self, _api: &mut HostApi<'_>, _d: &Datagram) {}
            fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64) {
                self.fired.lock().push(token);
                if token == 1 {
                    api.set_timer(Nanos::from_millis(1), 3);
                }
            }
        }
        let (mut sim, a, _b, _r1, _r2) = line_topology(5);
        let fired = Arc::new(Mutex::new(Vec::new()));
        sim.set_agent(
            a,
            Box::new(TimerAgent {
                fired: fired.clone(),
            }),
        );
        {
            let mut api = HostApi {
                sim: &mut sim,
                node: a,
            };
            api.set_timer(Nanos::from_millis(10), 2);
            api.set_timer(Nanos::from_millis(5), 1);
            // two timers for one instant fire in the order they were set
            api.set_timer(Nanos::from_millis(20), 5);
            api.set_timer(Nanos::from_millis(20), 4);
            api.set_timer(Nanos::from_millis(40), 6);
        }
        // stop short of token 6, then set an earlier timer from outside
        sim.run_until(Nanos::from_millis(30));
        assert_eq!(*fired.lock(), vec![1, 3, 2, 5, 4]);
        sim.set_timer(a, Nanos::from_millis(1), 7);
        sim.run_to_idle();
        // token 1 at 5 ms, token 3 set from within token 1's handler for
        // 6 ms, token 2 at 10 ms, tokens 5 and 4 at 20 ms in set order,
        // token 7 at 31 ms ahead of token 6 at 40 ms.
        assert_eq!(*fired.lock(), vec![1, 3, 2, 5, 4, 7, 6]);
    }

    #[test]
    fn a_burst_at_one_host_is_delivered_in_send_order_before_its_replies() {
        use parking_lot::Mutex;
        use std::sync::Arc;
        /// What the host saw, in dispatch order: datagram `id`, or the
        /// zero-delay timer its handler set for that `id`.
        #[derive(Debug, PartialEq)]
        enum Seen {
            Datagram(u16),
            Reply(u64),
        }
        struct BurstAgent {
            seen: Arc<Mutex<Vec<(Nanos, Seen)>>>,
        }
        impl HostAgent for BurstAgent {
            fn on_datagram(&mut self, api: &mut HostApi<'_>, d: &Datagram) {
                let id = d.header().identification;
                self.seen.lock().push((api.now(), Seen::Datagram(id)));
                api.set_timer(Nanos::ZERO, u64::from(id));
            }
            fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64) {
                self.seen.lock().push((api.now(), Seen::Reply(token)));
            }
        }
        const N: u16 = 12;
        let (mut sim, a, b, _r1, _r2) = line_topology(22);
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.set_agent(b, Box::new(BurstAgent { seen: seen.clone() }));
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 1);
        // ids in a send order that is not their numeric order
        let ids: Vec<u16> = (0..N).map(|i| (i * 7) % N).collect();
        for &id in &ids {
            let mut h = Ipv4Header::probe(src, dst, IpProto::Udp, Ecn::Ect0);
            h.identification = id;
            sim.send_from(
                a,
                Datagram::compose(Vec::new(), h, |o| {
                    ecn_wire::udp::udp_segment_into(src, dst, 40000, 123, b"burst", o)
                }),
            );
        }
        sim.run_to_idle();
        // every packet crossed the same clean path, so all reach B at one
        // instant, and so do the replies set for `now`
        let at = Nanos::from_millis(7);
        let want: Vec<(Nanos, Seen)> = ids
            .iter()
            .map(|&id| (at, Seen::Datagram(id)))
            .chain(ids.iter().map(|&id| (at, Seen::Reply(u64::from(id)))))
            .collect();
        assert_eq!(*seen.lock(), want);
        assert_eq!(sim.counters().delivered, u64::from(N));
    }

    #[test]
    fn rejecting_firewall_sends_admin_prohibited() {
        use ecn_wire::DestUnreachCode;
        let (mut sim, a, _b, _r1, r2) = line_topology(20);
        sim.set_firewall(
            r2,
            Firewall::single(crate::policy::FirewallRule {
                proto: Some(IpProto::Udp),
                ecn: crate::policy::EcnMatch::EcnCapable,
                src_within: None,
                action: FirewallAction::Reject,
                probability: 1.0,
            }),
        );
        let cap = sim.attach_capture(a);
        sim.send_from(
            a,
            probe_dgram(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(192, 0, 2, 1),
                64,
                Ecn::Ect0,
            ),
        );
        sim.run_to_idle();
        assert_eq!(sim.counters().icmp_dest_unreachable, 1);
        let cap = cap.lock();
        let reply = cap
            .packets()
            .iter()
            .find(|p| p.dir == Direction::In)
            .expect("ICMP reply");
        let dg = reply.datagram().unwrap();
        assert_eq!(dg.src(), Ipv4Addr::new(192, 0, 2, 254), "from r2");
        match IcmpMessage::decode(dg.payload()).unwrap() {
            IcmpMessage::DestUnreachable { code, quoted } => {
                assert_eq!(code, DestUnreachCode::AdminProhibited);
                let qh = Ipv4Header::decode(&quoted).unwrap();
                assert_eq!(qh.ecn, Ecn::Ect0, "quote shows the rejected mark");
            }
            other => panic!("wrong ICMP {other:?}"),
        }
    }

    #[test]
    fn tos_drop_policy_sheds_marked_packets_only() {
        let (mut sim, a, b, r1, _r2) = line_topology(21);
        sim.set_ecn_policy(r1, EcnPolicy::TosDrop(1.0));
        sim.set_agent(b, Box::new(Echoer));
        let cap = sim.attach_capture(a);
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(192, 0, 2, 1);
        sim.send_from(a, probe_dgram(src, dst, 64, Ecn::Ect0));
        sim.run_to_idle();
        assert_eq!(sim.counters().dropped(DropCause::PolicyTos), 1);
        assert_eq!(
            cap.lock()
                .packets()
                .iter()
                .filter(|p| p.dir == Direction::In)
                .count(),
            0
        );
        sim.send_from(a, probe_dgram(src, dst, 64, Ecn::NotEct));
        sim.run_to_idle();
        assert_eq!(
            cap.lock()
                .packets()
                .iter()
                .filter(|p| p.dir == Direction::In)
                .count(),
            1,
            "not-ECT passes the TOS-sensitive hop"
        );
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let (mut sim, ..) = line_topology(6);
        sim.run_until(Nanos::from_secs(5));
        assert_eq!(sim.now(), Nanos::from_secs(5));
        sim.run_for(Nanos::from_millis(250));
        assert_eq!(sim.now(), Nanos::from_secs(5) + Nanos::from_millis(250));
    }

    #[test]
    fn domain_streams_depend_only_on_label() {
        let draw = |sim: &mut Sim| {
            use rand::Rng;
            sim.rng.gen::<u64>()
        };
        let mut a = Sim::with_domain(42, "engine/unit/v0/c0");
        let mut b = Sim::with_domain(42, "engine/unit/v0/c0");
        let mut c = Sim::with_domain(42, "engine/unit/v1/c0");
        let first = draw(&mut a);
        assert_eq!(first, draw(&mut b), "same domain, same stream");
        assert_ne!(first, draw(&mut c), "different domains decorrelate");
        assert_ne!(
            first,
            draw(&mut Sim::new(42)),
            "domain streams differ from the root stream"
        );
    }

    #[test]
    fn no_route_is_counted() {
        let mut sim = Sim::new(7);
        let a = sim.add_host("A", Ipv4Addr::new(10, 0, 0, 1));
        let r = sim.add_router(Router::new("r", Ipv4Addr::new(10, 0, 0, 254)));
        sim.attach_host(a, r, LinkProps::clean(Nanos::from_millis(1)));
        sim.send_from(
            a,
            probe_dgram(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(8, 8, 8, 8),
                64,
                Ecn::NotEct,
            ),
        );
        sim.run_to_idle();
        assert_eq!(sim.counters().dropped(DropCause::NoRoute), 1);
    }

    #[test]
    fn host_mismatch_dropped() {
        let (mut sim, a, b, r2, _) = {
            let (sim, a, b, r1, r2) = line_topology(8);
            (sim, a, b, r2, r1)
        };
        // Route a bogus /32 at r2 down b's access link: wrong host receives.
        let down = sim.uplink_of(b).unwrap();
        // b's uplink is host->router; the router->host link is uplink+1 by
        // construction in add_duplex.
        let down = LinkId(down.0 + 1);
        sim.route(
            r2,
            "203.0.113.99/32".parse().unwrap(),
            RouteEntry::Link(down),
        );
        sim.send_from(
            a,
            probe_dgram(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(203, 0, 113, 99),
                64,
                Ecn::NotEct,
            ),
        );
        sim.run_to_idle();
        assert_eq!(sim.counters().dropped(DropCause::HostMismatch), 1);
    }

    #[test]
    fn find_node_uses_the_addr_index() {
        let (sim, a, b, r1, _r2) = line_topology(30);
        assert_eq!(sim.find_node(Ipv4Addr::new(10, 0, 0, 1)), Some(a));
        assert_eq!(sim.find_node(Ipv4Addr::new(192, 0, 2, 1)), Some(b));
        assert_eq!(sim.find_node(Ipv4Addr::new(10, 0, 0, 254)), Some(r1));
        assert_eq!(sim.find_node(Ipv4Addr::new(203, 0, 113, 7)), None);
    }

    #[test]
    fn red_bottleneck_ce_marks_ect_traffic_end_to_end() {
        let mut sim = Sim::new(9);
        let a = sim.add_host("A", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("B", Ipv4Addr::new(192, 0, 2, 1));
        let r1 = sim.add_router(Router::new("r1", Ipv4Addr::new(10, 0, 0, 254)));
        let r2 = sim.add_router(Router::new("r2", Ipv4Addr::new(192, 0, 2, 254)));
        sim.attach_host(a, r1, LinkProps::clean(Nanos::from_micros(10)));
        sim.attach_host(b, r2, LinkProps::clean(Nanos::from_micros(10)));
        // narrow RED bottleneck between r1 and r2 with a responsive average
        let red = QueueDisc::Red {
            min_th_bytes: 1_000,
            max_th_bytes: 60_000,
            max_p: 0.3,
            weight: 0.3,
            ecn: true,
            limit_bytes: 1_000_000,
        };
        let (l12, l21) = sim.add_duplex(
            r1,
            r2,
            LinkProps::bottleneck(Nanos::from_millis(5), 400_000, red),
        );
        sim.route(r1, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l12));
        sim.route(r2, "0.0.0.0/0".parse().unwrap(), RouteEntry::Link(l21));
        let cap_b = sim.attach_capture(b);
        // Offer ECT-marked ~500-byte datagrams at 2 ms spacing: 250 kB/s
        // offered against a 50 kB/s drain — the backlog builds steadily.
        for i in 0..200u32 {
            let mut h = Ipv4Header::probe(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(192, 0, 2, 1),
                IpProto::Udp,
                Ecn::Ect0,
            );
            h.identification = i as u16;
            let dgram = Datagram::compose(Vec::new(), h, |o| {
                ecn_wire::udp::udp_segment_into(h.src, h.dst, 5000, 5001, &[0; 460], o)
            });
            sim.run_until(Nanos::from_millis(2 * u64::from(i)));
            sim.send_from(a, dgram);
        }
        sim.run_to_idle();
        let marks = sim.counters().ce_marked;
        assert!(marks > 5, "CE marks: {marks}");
        let cap = cap_b.lock();
        let ce_seen = cap
            .packets()
            .iter()
            .filter_map(|p| p.datagram())
            .filter(|d| d.ecn() == Ecn::Ce)
            .count();
        assert!(ce_seen > 5, "CE at receiver: {ce_seen}");
    }

    /// Link properties from a small grid of delays, rates, queues and
    /// loss processes, so random links often share one value.
    fn grid_props((delay, rate, queue, loss): (u64, bool, u8, bool)) -> LinkProps {
        LinkProps {
            delay: Nanos::from_millis(delay),
            rate_bps: rate.then_some(1_000_000),
            queue: match queue {
                0 => QueueDisc::deep_fifo(),
                1 => QueueDisc::DropTail { limit_bytes: 1_500 },
                _ => QueueDisc::aqm_mark(0.25),
            },
            loss: if loss {
                crate::loss::LossModel::Bernoulli { p: 0.1 }
            } else {
                crate::loss::LossModel::None
            },
        }
    }

    proptest::proptest! {
        #[test]
        fn links_read_back_their_props_and_hold_state_only_when_active(
            links in proptest::collection::vec(
                ((0u64..3, proptest::arbitrary::any::<bool>(), 0u8..3, proptest::arbitrary::any::<bool>()), 0usize..6, 0usize..6),
                1..80,
            ),
        ) {
            let mut sim = Sim::new(1);
            let nodes: Vec<NodeId> = (0..6u8)
                .map(|i| sim.add_host(format!("h{i}"), Ipv4Addr::new(10, 0, 0, i)))
                .collect();
            let added: Vec<(LinkId, NodeId, LinkProps)> = links
                .iter()
                .map(|&(grid, from, to)| {
                    let props = grid_props(grid);
                    (sim.add_link(nodes[from], nodes[to], props), nodes[to], props)
                })
                .collect();
            let skeleton = sim.freeze();
            let topo = &skeleton.topo;
            let mut distinct: Vec<LinkProps> = Vec::new();
            let mut stateful = 0u32;
            for (id, to, props) in added {
                let link = topo.links[id.0 as usize];
                proptest::prop_assert_eq!(link.to, to);
                proptest::prop_assert_eq!(topo.link_props[link.props as usize], props);
                let slot = topo.state_slots[id.0 as usize];
                proptest::prop_assert_eq!(props.is_passive(), slot == NO_STATE);
                if slot != NO_STATE {
                    // slots are dealt in link order, one per active link
                    proptest::prop_assert_eq!(slot, stateful);
                    stateful += 1;
                }
                if !distinct.contains(&props) {
                    distinct.push(props);
                }
            }
            proptest::prop_assert_eq!(skeleton.link_states.len(), stateful as usize);
            proptest::prop_assert_eq!(topo.link_props.len(), distinct.len(), "each value stored once");
        }
    }
}
