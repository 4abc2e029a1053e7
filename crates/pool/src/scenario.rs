//! The assembled world and its types: tier-1 mesh, regional transits,
//! destination ASes with per-server access chains, the 13 vantage points,
//! the pool DNS, and the planted ground truth (middleboxes, bleachers,
//! churn) that the measurement campaign will rediscover through packets.
//!
//! Construction is split in two (see [`crate::blueprint`]):
//! [`crate::WorldBlueprint::build`] makes every seeded decision once,
//! and `instantiate` stamps out a live world from it. [`build_scenario`]
//! composes the two for callers that want one world from one seed.

use crate::plan::{PoolPlan, ServerProfile};
use ecn_asdb::AsDb;
use ecn_geo::GeoDb;
use ecn_netsim::{NodeId, Sim};
use ecn_stack::{FlapMarks, HostHandle};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The super-prefix all EC2 vantages live in (the Phoenix firewall rule).
pub const EC2_SUPER_PREFIX: &str = "54.0.0.0/8";

/// Where a bleaching router was planted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BleachSite {
    /// Provider-edge (customer-facing) router: observed strip location is
    /// the customer's border — an AS boundary.
    ProviderEdge,
    /// Destination-AS border router.
    Border,
    /// Destination-AS interior router.
    Interior,
    /// Per-server access router.
    Access,
}

/// The planted ground truth, for audits only — the prober never reads it.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Servers behind an always-on ECT-dropping middlebox.
    pub ect_blocked: Vec<Ipv4Addr>,
    /// Servers whose ECT-dropping middlebox is on one ECMP branch.
    pub ect_blocked_flaky: Vec<Ipv4Addr>,
    /// Servers dropping not-ECT UDP from everywhere.
    pub not_ect_blocked: Vec<Ipv4Addr>,
    /// Servers dropping not-ECT UDP from EC2 sources only.
    pub not_ect_blocked_ec2: Vec<Ipv4Addr>,
    /// Always-bleaching routers.
    pub bleach_always: Vec<(NodeId, BleachSite)>,
    /// Sometimes-bleaching routers.
    pub bleach_sometimes: Vec<(NodeId, BleachSite)>,
    /// Servers behind an always-on bleacher (any site) — the set an ECN
    /// validator *should* fail.
    pub bleached_servers: Vec<Ipv4Addr>,
    /// Servers behind a probabilistic bleacher (failure detectable but
    /// not guaranteed per round).
    pub bleached_sometimes_servers: Vec<Ipv4Addr>,
    /// Servers behind a RED-style CE-marking AQM edge (marks are benign:
    /// a validator must stay `Capable`).
    pub aqm_red_servers: Vec<Ipv4Addr>,
    /// Servers behind a CoDel-style sojourn-marking bottleneck edge.
    pub aqm_codel_servers: Vec<Ipv4Addr>,
    /// Servers behind a CE-suppressing middlebox (CE erased to ECT(0)).
    pub ce_suppressed_servers: Vec<Ipv4Addr>,
    /// Servers behind an ECT(1)→ECT(0) downgrading middlebox.
    pub ect1_downgraded_servers: Vec<Ipv4Addr>,
    /// Destination ASes actually created.
    pub dest_as_count: usize,
    /// Servers with a web server.
    pub web_server_count: usize,
    /// Web servers that negotiate ECN.
    pub web_ecn_on_count: usize,
    /// Servers dead from the start.
    pub always_down_count: usize,
    /// Servers leaving the pool at the batch boundary.
    pub churn_down_count: usize,
}

/// One built vantage point.
pub struct Vantage {
    /// Static spec (name, loss, traces).
    pub spec: crate::vantage::VantageSpec,
    /// The measurement host.
    pub node: NodeId,
    /// Stack handle driven by the prober.
    pub handle: HostHandle,
    /// The host's address.
    pub addr: Ipv4Addr,
}

/// One built pool server.
pub struct ServerInfo {
    /// The server's address (the measurement target).
    pub addr: Ipv4Addr,
    /// Ground-truth profile.
    pub profile: ServerProfile,
    /// Host node in the simulator.
    pub node: NodeId,
    /// Destination-AS index the server lives in.
    pub as_index: usize,
    /// Checkpoints of a flapping server's availability chain, shared by
    /// the server's stack in every world stamped from the blueprint
    /// (`None` for every other availability model).
    pub flap_marks: Option<Arc<FlapMarks>>,
}

/// The assembled world.
pub struct Scenario {
    /// The simulator (run it!).
    pub sim: Sim,
    /// The 13 vantage points.
    pub vantages: Vec<Vantage>,
    /// The pool population in index order, shared with the owning
    /// blueprint (node ids are skeleton-deterministic, so one list serves
    /// every stamped world).
    pub servers: Arc<Vec<ServerInfo>>,
    /// Address of the pool DNS server.
    pub dns_addr: Ipv4Addr,
    /// Geolocation database (Table 1 / Figure 1), shared with the
    /// owning blueprint.
    pub geodb: Arc<GeoDb>,
    /// IP→AS database (§4.2 boundary analysis), shared with the owning
    /// blueprint.
    pub asdb: Arc<AsDb>,
    /// Planted ground truth, shared with the owning blueprint.
    pub truth: Arc<GroundTruth>,
    /// The plan that built this.
    pub plan: PoolPlan,
}

/// Build the full scenario: decide once, instantiate once.
///
/// Campaign engines that need many live worlds from one seed should hold
/// the [`crate::WorldBlueprint`] and call `instantiate` per world instead
/// of calling this repeatedly.
pub fn build_scenario(plan: &PoolPlan, seed: u64) -> Scenario {
    crate::blueprint::WorldBlueprint::build(plan, seed).instantiate()
}
