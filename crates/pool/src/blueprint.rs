//! The blueprint/instantiate split behind scenario construction.
//!
//! [`WorldBlueprint::build`] performs every seeded *decision* — population
//! profiles, tier-2 region/provider assignment, destination-AS packing,
//! geolocation sampling, bleacher placement — exactly once, recording the
//! outcome as plain data, together with the simulator-independent products
//! (geo DB, AS DB, DNS zone, ground-truth addresses).
//! [`WorldBlueprint::instantiate`] then stamps out a live [`Scenario`]
//! without consuming any decision randomness, so N execution shards pay
//! one decision phase instead of N full world builds, and every
//! instantiation of the same blueprint is bit-identical.
//!
//! The decision phase consumes `derive_rng(seed, "scenario")` in exactly
//! the order the pre-split builder did, so `build_scenario` (the
//! `build(..).instantiate()` composition) still produces the same world,
//! packet for packet, for a given (plan, seed).
//!
//! Per-unit RNG domains: [`WorldBlueprint::instantiate_unit_scoped`]
//! gives the world's *packet* randomness its own stream derived from the
//! seed and the unit's stable label (as `ecn_netsim::Sim::with_domain`
//! does), so the execution engine gives every work unit an independent
//! stream whose identity depends only on the unit — never on shard count
//! or scheduling order.

use crate::plan::{PoolPlan, ServerProfile, SpecialBehaviour};
use crate::scenario::{BleachSite, GroundTruth, Scenario, ServerInfo, Vantage, EC2_SUPER_PREFIX};
use crate::vantage::VantageSpec;
use ecn_asdb::AsDb;
use ecn_geo::{
    sample_country, sample_location, GeoDb, GeoRecord, Region, TABLE1_DISTRIBUTION, TABLE1_TOTAL,
};
use ecn_netsim::{
    derive_rng, derive_seed, EcnPolicy, Firewall, FirewallRule, Ipv4Prefix, LabelBuf, LinkProps,
    NodeId, RouteEntry, Router, Sim, SimConfig, SimSkeleton,
};
use ecn_services::{
    EcnEchoService, HttpServerKind, NtpServerConfig, NtpServerService, PoolDnsService,
    PoolHttpService, ECN_ECHO_PORT,
};
use ecn_stack::{install, AvailabilityModel, EcnMode, FlapMarks, HostHandle, StackConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

// ---------------------------------------------------------------- addressing

fn t1_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(5, i as u8, 0, 1)
}
fn t1_prefix(i: usize) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(5, i as u8, 0, 0), 16)
}
fn t2_core_addr(j: usize) -> Ipv4Addr {
    Ipv4Addr::new(62, j as u8, 0, 1)
}
fn t2_prefix(j: usize) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(62, j as u8, 0, 0), 16)
}
fn t2_pe_addr(j: usize, customer: usize) -> Ipv4Addr {
    Ipv4Addr::new(62, j as u8, (1 + customer % 254) as u8, 1)
}
fn dest_base(k: usize) -> u32 {
    0x8000_0000 | ((k as u32) << 12)
}
fn dest_prefix(k: usize) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::from(dest_base(k)), 20)
}
fn dest_router_addr(k: usize, slot: u32) -> Ipv4Addr {
    Ipv4Addr::from(dest_base(k) + slot)
}
fn vantage_prefix(spec: &VantageSpec) -> Ipv4Prefix {
    let first = if spec.ec2 { 54 } else { 81 };
    Ipv4Prefix::new(Ipv4Addr::new(first, spec.net_index, 0, 0), 16)
}
fn vantage_addr(spec: &VantageSpec, slot: u8) -> Ipv4Addr {
    let first = if spec.ec2 { 54 } else { 81 };
    Ipv4Addr::new(first, spec.net_index, 0, slot)
}

const DNS_ADDR: Ipv4Addr = Ipv4Addr::new(198, 41, 0, 4);
const DNS_PREFIX_STR: &str = "198.41.0.0/24";

// ---------------------------------------------------------------- profiles

/// Generate the population (regions per Table 1 marginals, scaled).
pub fn generate_profiles(plan: &PoolPlan, rng: &mut SmallRng) -> Vec<ServerProfile> {
    let scale = plan.servers as f64 / TABLE1_TOTAL as f64;
    let mut regions: Vec<Region> = Vec::with_capacity(plan.servers);
    for (region, count) in TABLE1_DISTRIBUTION {
        let n = if (scale - 1.0).abs() < 1e-9 {
            count
        } else {
            ((count as f64) * scale).round() as usize
        };
        regions.extend(std::iter::repeat_n(region, n));
    }
    // rounding: trim or pad with Europe
    while regions.len() > plan.servers {
        let idx = regions
            .iter()
            .rposition(|r| *r == Region::Europe)
            .unwrap_or(regions.len() - 1);
        regions.remove(idx);
    }
    while regions.len() < plan.servers {
        regions.push(Region::Europe);
    }
    regions.shuffle(rng);

    let mut profiles: Vec<ServerProfile> = regions
        .into_iter()
        .enumerate()
        .map(|(index, region)| {
            let web = if rng.gen_bool(plan.web_fraction) {
                let ecn = if rng.gen_bool(plan.web_ecn_reflect) {
                    EcnMode::ReflectFlags
                } else if rng.gen_bool(plan.web_ecn_on) {
                    EcnMode::On
                } else {
                    EcnMode::Off
                };
                Some(crate::plan::WebProfile {
                    ecn,
                    plain_ok: rng.gen_bool(plan.plain_ok_fraction),
                })
            } else {
                None
            };
            let access_chain_len = *[1usize, 2, 2, 3, 3, 3, 3, 4, 4, 4]
                .choose(rng)
                .expect("non-empty");
            ServerProfile {
                index,
                region,
                country: sample_country(region, rng),
                web,
                availability: AvailabilityModel::AlwaysUp,
                special: SpecialBehaviour::None,
                stratum: *[1u8, 2, 2, 2, 3, 3].choose(rng).expect("non-empty"),
                access_chain_len,
            }
        })
        .collect();

    // Availability: always-down, churned, flapping; assigned to distinct
    // indices so special behaviours (below) can avoid dead hosts.
    let mut order: Vec<usize> = (0..plan.servers).collect();
    order.shuffle(rng);
    let mut cursor = 0;
    for _ in 0..plan.always_down.min(plan.servers / 3) {
        profiles[order[cursor]].availability = AvailabilityModel::AlwaysDown;
        cursor += 1;
    }
    for _ in 0..plan.churn_down.min(plan.servers / 3) {
        profiles[order[cursor]].availability = AvailabilityModel::DownAfter(plan.churn_at);
        cursor += 1;
    }
    for &idx in order.iter().skip(cursor) {
        if rng.gen_bool(plan.flapping_fraction) {
            profiles[idx].availability = AvailabilityModel::Flapping {
                mean_up: plan.flap_mean_up,
                mean_down: plan.flap_mean_down,
            };
        }
    }

    // Special behaviours go on always-up or flapping servers (the paper's
    // persistently-ECT-unreachable servers are otherwise healthy).
    let alive: Vec<usize> = order[cursor..].to_vec();
    let mut alive_iter = alive.into_iter();
    let mut take_alive = |profiles: &mut Vec<ServerProfile>| -> usize {
        let idx = alive_iter
            .next()
            .expect("population exhausted for special servers");
        // make the middleboxed servers steady so they show up persistently
        profiles[idx].availability = AvailabilityModel::AlwaysUp;
        idx
    };

    // ECT-blocked: web mix calibrated for Table 2 column 2 (~3 of the
    // blocked set are TCP-reachable but refuse ECN).
    let ect_total = plan.ect_blocked + plan.ect_blocked_flaky;
    for i in 0..ect_total {
        let idx = take_alive(&mut profiles);
        profiles[idx].special = SpecialBehaviour::EctBlocked {
            flaky: i < plan.ect_blocked_flaky,
        };
        profiles[idx].web = match i % 10 {
            0..=3 => Some(crate::plan::WebProfile {
                ecn: EcnMode::On,
                plain_ok: false,
            }),
            4..=6 => Some(crate::plan::WebProfile {
                ecn: EcnMode::Off,
                plain_ok: false,
            }),
            _ => None,
        };
    }
    for _ in 0..plan.not_ect_blocked_global {
        let idx = take_alive(&mut profiles);
        profiles[idx].special = SpecialBehaviour::NotEctBlocked { ec2_only: false };
    }
    for _ in 0..plan.not_ect_blocked_ec2 {
        let idx = take_alive(&mut profiles);
        profiles[idx].special = SpecialBehaviour::NotEctBlocked { ec2_only: true };
        // the paper's pair are Phoenix Public Library machines
        profiles[idx].region = Region::NorthAmerica;
        profiles[idx].country = "us".into();
    }
    profiles
}

// ---------------------------------------------------------------- blueprint

/// One destination AS, as decided by the blueprint phase.
#[derive(Debug, Clone)]
struct DestAsPlan {
    /// Providing tier-2 index.
    provider_t2: usize,
    /// Member profile indices in construction order.
    members: Vec<usize>,
}

/// One decided bleacher placement.
#[derive(Debug, Clone, Copy)]
struct BleachPlan {
    as_index: usize,
    site: BleachSite,
    prob: Option<f64>,
}

/// A modern-ECN middlebox flavour (the scenario family the validator is
/// tested against).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModernBoxKind {
    /// RED-style probabilistic CE marker on the dest-AS edge link.
    AqmRed,
    /// CoDel-style sojourn-threshold CE marker on a rate-limited edge.
    AqmCodel,
    /// CE→ECT(0) suppressor at the provider edge.
    CeSuppress,
    /// ECT(1)→ECT(0) downgrader at the provider edge.
    Ect1Downgrade,
}

/// One decided modern-middlebox placement.
#[derive(Debug, Clone, Copy)]
struct ModernBoxPlan {
    as_index: usize,
    kind: ModernBoxKind,
}

/// The immutable world description: every seeded decision plus the
/// simulator-independent databases, built once per (plan, seed).
///
/// Cheap to share across threads (`&WorldBlueprint` is `Sync`); each call
/// to [`instantiate`](Self::instantiate) stamps out an identical live
/// world. The topology itself is *compiled once* at build time into a
/// [`SimSkeleton`] — router names, firewalls, and longest-prefix-match
/// forwarding tables are `Arc`-shared immutables — so per-world
/// instantiation only allocates genuinely per-world state: host stacks,
/// services, captures, and the domain RNG.
pub struct WorldBlueprint {
    /// The plan this blueprint realises (churn already applied).
    pub plan: PoolPlan,
    /// The experiment seed.
    pub seed: u64,
    /// Geolocation database (Table 1 / Figure 1) — simulator-independent,
    /// shared by reference with every instantiated world.
    pub geodb: Arc<GeoDb>,
    /// IP→AS database (§4.2 boundary analysis) — simulator-independent,
    /// shared by reference with every instantiated world.
    pub asdb: Arc<AsDb>,
    /// The compiled topology every world is stamped from.
    skeleton: SimSkeleton,
    /// Vantage measurement-host node ids, in Table 2 order.
    vantage_hosts: Vec<NodeId>,
    /// The pool DNS host node.
    dns_host: NodeId,
    /// Complete ground truth (incl. skeleton bleach node ids), shared with
    /// every world.
    truth: Arc<GroundTruth>,
    /// The built server population (node ids are skeleton-deterministic),
    /// shared with every world, as are the flapping servers' flap marks.
    servers: Arc<Vec<ServerInfo>>,
    /// The pool DNS zone, shared with every instantiated world's DNS
    /// service.
    zone: Arc<HashMap<String, Vec<Ipv4Addr>>>,
    /// Exact element counts, for simulator pre-allocation.
    node_count: usize,
    link_count: usize,
}

impl WorldBlueprint {
    /// Run the decision phase: one pass over `derive_rng(seed, "scenario")`
    /// in the canonical draw order.
    pub fn build(plan: &PoolPlan, seed: u64) -> WorldBlueprint {
        let mut rng = derive_rng(seed, "scenario");
        let mut asdb = AsDb::new();
        let mut geodb = GeoDb::new();
        let mut truth = GroundTruth::default();

        let profiles = generate_profiles(plan, &mut rng);

        let t1_count = plan.t1_count.max(2);
        let t2_count = plan.t2_count.max(2);
        for i in 0..t1_count {
            asdb.insert(t1_prefix(i).addr(), 16, 100 + i as u32);
        }

        // --- tier-2 transits: region-weighted assignment ---------------------
        let region_weights: Vec<(Region, usize)> = TABLE1_DISTRIBUTION
            .iter()
            .filter(|(r, _)| *r != Region::Unknown)
            .map(|(r, n)| (*r, (*n).max(1)))
            .collect();
        let weight_total: usize = region_weights.iter().map(|(_, n)| n).sum();
        let mut t2_region = Vec::with_capacity(t2_count);
        let mut t2_primary_t1 = Vec::with_capacity(t2_count);
        for j in 0..t2_count {
            let mut pick = rng.gen_range(0..weight_total);
            let mut region = Region::Europe;
            for (r, w) in &region_weights {
                if pick < *w {
                    region = *r;
                    break;
                }
                pick -= w;
            }
            asdb.insert(t2_prefix(j).addr(), 16, 1000 + j as u32);
            t2_region.push(region);
            t2_primary_t1.push(rng.gen_range(0..t1_count));
        }
        let t2_by_region: BTreeMap<Region, Vec<usize>> = {
            let mut m: BTreeMap<Region, Vec<usize>> = BTreeMap::new();
            for (j, r) in t2_region.iter().enumerate() {
                m.entry(*r).or_default().push(j);
            }
            m
        };

        // --- vantage and DNS prefixes ----------------------------------------
        let specs = plan.vantages();
        for spec in &specs {
            asdb.insert(
                vantage_prefix(spec).addr(),
                16,
                30_000 + spec.net_index as u32,
            );
        }
        asdb.insert(Ipv4Addr::new(198, 41, 0, 0), 24, 100);

        // --- destination-AS packing + per-server decisions -------------------
        let mut by_region: BTreeMap<Region, Vec<usize>> = BTreeMap::new();
        for p in &profiles {
            by_region.entry(p.region).or_default().push(p.index);
        }
        let mut server_addrs = vec![Ipv4Addr::UNSPECIFIED; plan.servers];
        let mut dest_as: Vec<DestAsPlan> = Vec::new();
        // exact element counts for Sim pre-allocation
        let mut node_count = t1_count + t2_count + specs.len() * 4 + 1;
        let mut link_count = t1_count * (t1_count - 1) + t2_count * 2 + specs.len() * 8 + 2;

        for (region, mut members) in by_region {
            members.sort_unstable();
            members.shuffle(&mut rng);
            let lookup_region = if region == Region::Unknown {
                Region::Europe // unknown-geo servers still live somewhere
            } else {
                region
            };
            let t2_candidates = t2_by_region
                .get(&lookup_region)
                .cloned()
                .unwrap_or_else(|| (0..t2_count).collect());
            let mut i = 0;
            while i < members.len() {
                let size = *[1usize, 1, 2, 2, 2, 2, 3, 4]
                    .choose(&mut rng)
                    .expect("non-empty");
                let chunk: Vec<usize> = members[i..(i + size).min(members.len())].to_vec();
                i += chunk.len();
                let k = dest_as.len();
                asdb.insert(dest_prefix(k).addr(), 20, 20_000 + k as u32);
                let provider_t2 = t2_candidates[rng.gen_range(0..t2_candidates.len())];
                node_count += 5; // PE + B + I1 + I2 + I3
                link_count += 10;

                for (server_slot, &pidx) in (2048u32..).zip(chunk.iter()) {
                    let profile = &profiles[pidx];
                    let server_addr = dest_router_addr(k, server_slot);
                    server_addrs[pidx] = server_addr;
                    if profile.special == (SpecialBehaviour::EctBlocked { flaky: true }) {
                        node_count += 3; // host + two ECMP branch routers
                        link_count += 9;
                    } else {
                        node_count += 1 + profile.access_chain_len;
                        link_count += 2 * profile.access_chain_len + 2;
                    }

                    let (lat, lon) = sample_location(profile.region, &mut rng);
                    if profile.region != Region::Unknown {
                        geodb.insert(
                            server_addr,
                            GeoRecord {
                                region: profile.region,
                                country: profile.country.clone(),
                                lat,
                                lon,
                            },
                        );
                    }
                    match profile.special {
                        SpecialBehaviour::EctBlocked { flaky: true } => {
                            truth.ect_blocked_flaky.push(server_addr)
                        }
                        SpecialBehaviour::EctBlocked { flaky: false } => {
                            truth.ect_blocked.push(server_addr)
                        }
                        SpecialBehaviour::NotEctBlocked { ec2_only: false } => {
                            truth.not_ect_blocked.push(server_addr)
                        }
                        SpecialBehaviour::NotEctBlocked { ec2_only: true } => {
                            truth.not_ect_blocked_ec2.push(server_addr)
                        }
                        SpecialBehaviour::None => {}
                    }
                    if profile.web.is_some() {
                        truth.web_server_count += 1;
                        if profile.web.as_ref().map(|w| w.ecn) == Some(EcnMode::On) {
                            truth.web_ecn_on_count += 1;
                        }
                    }
                    match profile.availability {
                        AvailabilityModel::AlwaysDown => truth.always_down_count += 1,
                        AvailabilityModel::DownAfter(_) => truth.churn_down_count += 1,
                        _ => {}
                    }
                }
                dest_as.push(DestAsPlan {
                    provider_t2,
                    members: chunk,
                });
            }
        }
        truth.dest_as_count = dest_as.len();

        // --- bleacher placement ----------------------------------------------
        // Per-AS access-chain lengths as `instantiate` will build them:
        // flaky-ECMP servers get a single-router filtered branch.
        let chain_lens: Vec<Vec<usize>> = dest_as
            .iter()
            .map(|d| {
                d.members
                    .iter()
                    .map(|&p| {
                        if profiles[p].special == (SpecialBehaviour::EctBlocked { flaky: true }) {
                            1
                        } else {
                            profiles[p].access_chain_len
                        }
                    })
                    .collect()
            })
            .collect();
        let has_special: Vec<bool> = dest_as
            .iter()
            .map(|d| {
                d.members
                    .iter()
                    .any(|&p| profiles[p].special != SpecialBehaviour::None)
            })
            .collect();
        let mut candidate_as: Vec<usize> =
            (0..dest_as.len()).filter(|&k| !has_special[k]).collect();
        candidate_as.shuffle(&mut rng);
        let mut next_as = candidate_as.into_iter();
        let mut bleachers: Vec<BleachPlan> = Vec::new();
        let mut place = |site: BleachSite, prob: Option<f64>, bleachers: &mut Vec<BleachPlan>| {
            for k in &mut next_as {
                // access sites need a chain of length >= 2 so a red tail
                // exists; unsuitable candidates are consumed, not recycled
                if site == BleachSite::Access && !chain_lens[k].iter().any(|&l| l >= 2) {
                    continue;
                }
                bleachers.push(BleachPlan {
                    as_index: k,
                    site,
                    prob,
                });
                return;
            }
            panic!("ran out of candidate ASes for bleacher placement");
        };
        for _ in 0..plan.bleach_pe {
            place(BleachSite::ProviderEdge, None, &mut bleachers);
        }
        for _ in 0..plan.bleach_border {
            place(BleachSite::Border, None, &mut bleachers);
        }
        for _ in 0..plan.bleach_interior {
            place(BleachSite::Interior, None, &mut bleachers);
        }
        for _ in 0..plan.bleach_access {
            place(BleachSite::Access, None, &mut bleachers);
        }
        for _ in 0..plan.bleach_prob_pe {
            place(
                BleachSite::ProviderEdge,
                Some(plan.bleach_prob),
                &mut bleachers,
            );
        }
        for _ in 0..plan.bleach_prob_access {
            place(BleachSite::Access, Some(plan.bleach_prob), &mut bleachers);
        }

        // --- modern-middlebox placement ---------------------------------------
        // Continues consuming the same shuffled candidate iterator, so each
        // AS hosts at most one planted behaviour and zero-count plans draw
        // no extra randomness (byte-identical to pre-AQM worlds).
        let mut modern: Vec<ModernBoxPlan> = Vec::new();
        {
            let mut place_modern = |kind: ModernBoxKind, modern: &mut Vec<ModernBoxPlan>| {
                let k = next_as
                    .next()
                    .expect("ran out of candidate ASes for modern middlebox placement");
                modern.push(ModernBoxPlan { as_index: k, kind });
            };
            for _ in 0..plan.aqm_red {
                place_modern(ModernBoxKind::AqmRed, &mut modern);
            }
            for _ in 0..plan.aqm_codel {
                place_modern(ModernBoxKind::AqmCodel, &mut modern);
            }
            for _ in 0..plan.ce_suppress {
                place_modern(ModernBoxKind::CeSuppress, &mut modern);
            }
            for _ in 0..plan.ect1_downgrade {
                place_modern(ModernBoxKind::Ect1Downgrade, &mut modern);
            }
        }

        // --- per-server ground-truth classes ----------------------------------
        // The confusion-matrix join needs each planted behaviour as the set
        // of server *addresses* it affects. PE/Border/Interior boxes cover
        // every member of their AS; an Access bleacher covers the first
        // member with a chain long enough to host it (the same member the
        // wiring below picks).
        for bp in &bleachers {
            let das = &dest_as[bp.as_index];
            let affected: Vec<Ipv4Addr> = if bp.site == BleachSite::Access {
                let i = chain_lens[bp.as_index]
                    .iter()
                    .position(|&l| l >= 2)
                    .expect("validated during placement");
                vec![server_addrs[das.members[i]]]
            } else {
                das.members.iter().map(|&p| server_addrs[p]).collect()
            };
            match bp.prob {
                None => truth.bleached_servers.extend(affected),
                Some(_) => truth.bleached_sometimes_servers.extend(affected),
            }
        }
        for mp in &modern {
            let addrs = dest_as[mp.as_index]
                .members
                .iter()
                .map(|&p| server_addrs[p]);
            match mp.kind {
                ModernBoxKind::AqmRed => truth.aqm_red_servers.extend(addrs),
                ModernBoxKind::AqmCodel => truth.aqm_codel_servers.extend(addrs),
                ModernBoxKind::CeSuppress => truth.ce_suppressed_servers.extend(addrs),
                ModernBoxKind::Ect1Downgrade => truth.ect1_downgraded_servers.extend(addrs),
            }
        }

        // --- DNS zone ---------------------------------------------------------
        let mut zone: HashMap<String, Vec<Ipv4Addr>> = HashMap::new();
        zone.insert("pool.ntp.org".into(), server_addrs.clone());
        for i in 0..4 {
            zone.insert(format!("{i}.pool.ntp.org"), server_addrs.clone());
        }
        for (pidx, profile) in profiles.iter().enumerate() {
            if let Some(zone_name) = ecn_geo::region_zone(profile.region) {
                zone.entry(format!("{zone_name}.pool.ntp.org"))
                    .or_default()
                    .push(server_addrs[pidx]);
            }
            if !profile.country.is_empty() {
                zone.entry(format!("{}.pool.ntp.org", profile.country))
                    .or_default()
                    .push(server_addrs[pidx]);
            }
        }

        // --- compile the topology once ---------------------------------------
        // Replay the decisions into a construction simulator, freeze it
        // into the Arc-shared skeleton, and record everything node-id
        // dependent (bleach truth, server node ids) while we're at it.
        let decisions = Decisions {
            plan,
            profiles: &profiles,
            server_addrs: &server_addrs,
            t2_primary_t1: &t2_primary_t1,
            dest_as: &dest_as,
            bleachers: &bleachers,
            modern: &modern,
        };
        let topo = compile_topology(&decisions, node_count, link_count, &mut truth);
        let servers: Vec<ServerInfo> = {
            let mut as_index = vec![0usize; plan.servers];
            for (k, d) in dest_as.iter().enumerate() {
                for &pidx in &d.members {
                    as_index[pidx] = k;
                }
            }
            profiles
                .into_iter()
                .enumerate()
                .map(|(pidx, profile)| ServerInfo {
                    addr: server_addrs[pidx],
                    node: topo.server_hosts[pidx],
                    as_index: as_index[pidx],
                    flap_marks: matches!(profile.availability, AvailabilityModel::Flapping { .. })
                        .then(|| {
                            Arc::new(FlapMarks::for_host(
                                profile.availability,
                                server_stack_seed(seed, profile.index),
                                server_addrs[pidx],
                            ))
                        }),
                    profile,
                })
                .collect()
        };

        WorldBlueprint {
            plan: plan.clone(),
            seed,
            geodb: Arc::new(geodb),
            asdb: Arc::new(asdb),
            skeleton: topo.sim.freeze(),
            vantage_hosts: topo.vantage_hosts,
            dns_host: topo.dns_host,
            truth: Arc::new(truth),
            servers: Arc::new(servers),
            zone: Arc::new(zone),
            node_count,
            link_count,
        }
    }

    /// The decided server population, in index order: each server's
    /// address, ground-truth profile and host node.
    pub fn servers(&self) -> &[ServerInfo] {
        &self.servers
    }

    /// Destination ASes this blueprint decided on.
    pub fn dest_as_count(&self) -> usize {
        self.truth.dest_as_count
    }

    /// Exact node count of every instantiated world.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Exact link count of every instantiated world.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Instantiate the canonical world: packet randomness on the root
    /// stream, exactly as `build_scenario` always produced.
    pub fn instantiate(&self) -> Scenario {
        self.instantiate_scoped(
            SimConfig {
                seed: self.seed,
                ..SimConfig::default()
            },
            None,
        )
    }

    /// The world discovery runs in: [`instantiate`](Self::instantiate)'s
    /// root packet stream, with the vantage and DNS stacks but no server
    /// stack. Discovery only talks to the DNS host, and installing a
    /// stack schedules no event and draws no randomness (see
    /// [`instantiate_unit_scoped`](Self::instantiate_unit_scoped)), so
    /// this world issues the same queries, sees the same timeouts and
    /// finds the same targets as the full one, at a small fraction of its
    /// memory (1.5 against 29 MiB at 8 000 servers).
    pub fn instantiate_discovery(&self) -> Scenario {
        self.instantiate_scoped(
            SimConfig {
                seed: self.seed,
                ..SimConfig::default()
            },
            Some(&HashSet::new()),
        )
    }

    /// Instantiate the world for engine unit `(vantage, chunk)`, with
    /// server stacks only on the hosts in `probed` (the unit's target
    /// chunk). The topology, flap schedules and ground truth are
    /// identical to [`instantiate`](Self::instantiate); the packet
    /// randomness lives in its own domain, derived from the seed and the
    /// label `engine/unit/v{vantage}/c{chunk}` (formatted on the stack),
    /// so per-packet noise (loss, probabilistic firewalls/bleachers,
    /// queue marking) depends only on the unit, never on how many sibling
    /// worlds exist.
    ///
    /// A unit world only ever exchanges packets with its own chunk's
    /// targets, and installing a stack is side-effect-free (no events
    /// scheduled, no shared RNG consumed; availability is evaluated
    /// on demand, from the latest of the server's shared flap marks at or
    /// before the query, which any unit world may have written) — so
    /// skipping the other stacks is invisible to every probe while
    /// cutting per-unit stamp cost from O(servers) to O(servers/chunks).
    /// At megapool scale this is the difference between instantiation
    /// dominating the campaign and vanishing from its profile;
    /// `tests/determinism.rs` and the goldens pin the byte-identity.
    pub fn instantiate_unit_scoped(
        &self,
        vantage: usize,
        chunk: usize,
        probed: &HashSet<Ipv4Addr>,
    ) -> Scenario {
        let label = LabelBuf::format(format_args!("engine/unit/v{vantage}/c{chunk}"));
        self.instantiate_scoped(
            SimConfig {
                seed: derive_seed(self.seed, label.as_str()),
                ..SimConfig::default()
            },
            Some(probed),
        )
    }

    /// The per-world construction phase: stamp a simulator from the
    /// skeleton and install what is genuinely per-world — host stacks
    /// (on every server, or only on those in `probed`), services, and the
    /// vantage handles.
    fn instantiate_scoped(
        &self,
        config: SimConfig,
        probed: Option<&HashSet<Ipv4Addr>>,
    ) -> Scenario {
        let seed = self.seed;
        let mut sim = self.skeleton.instantiate(config);

        let specs = self.plan.vantages();
        let mut vantages = Vec::with_capacity(specs.len());
        for (vi, spec) in specs.into_iter().enumerate() {
            let node = self.vantage_hosts[vi];
            let addr = sim.addr_of(node);
            let handle = install(
                &mut sim,
                node,
                StackConfig {
                    udp_port_unreachable: true,
                    seed: seed ^ (vi as u64) << 32,
                    ..StackConfig::default()
                },
            );
            vantages.push(Vantage {
                spec,
                node,
                handle,
                addr,
            });
        }

        for info in self.servers.iter() {
            if let Some(probed) = probed {
                if !probed.contains(&info.addr) {
                    continue;
                }
            }
            let profile = &info.profile;
            let handle = install(
                &mut sim,
                info.node,
                StackConfig {
                    udp_port_unreachable: false,
                    tcp_rst_on_closed: true,
                    echo_replies: true,
                    availability: profile.availability,
                    seed: server_stack_seed(seed, profile.index),
                    flap_marks: info.flap_marks.clone(),
                },
            );
            handle.register_udp_service(
                123,
                Box::new(NtpServerService::new(NtpServerConfig {
                    stratum: profile.stratum,
                    reference_id: *b"POOL",
                })),
            );
            // ECN-validation feedback responder: registration is inert
            // (no events, no RNG, keyed lookup), so every world carries
            // it without disturbing pre-validator byte streams.
            handle.register_udp_service(ECN_ECHO_PORT, Box::new(EcnEchoService));
            if let Some(web) = &profile.web {
                let kind = if web.plain_ok {
                    HttpServerKind::PlainOk
                } else {
                    HttpServerKind::PoolRedirect
                };
                handle.register_tcp_listener(
                    80,
                    web.ecn,
                    Some(Box::new(PoolHttpService::new(kind))),
                );
            }
        }

        let dns_handle: HostHandle = install(
            &mut sim,
            self.dns_host,
            StackConfig {
                seed: seed ^ 0xd15,
                ..StackConfig::default()
            },
        );
        dns_handle
            .register_udp_service(53, Box::new(PoolDnsService::new_shared(self.zone.clone())));

        Scenario {
            sim,
            vantages,
            servers: self.servers.clone(),
            dns_addr: DNS_ADDR,
            geodb: self.geodb.clone(),
            asdb: self.asdb.clone(),
            truth: self.truth.clone(),
            plan: self.plan.clone(),
        }
    }
}

/// [`StackConfig::seed`] of the server with profile index `index`.
fn server_stack_seed(seed: u64, index: usize) -> u64 {
    seed ^ 0x5e17_0000 ^ index as u64
}

/// The decision-phase outputs `compile_topology` replays.
struct Decisions<'a> {
    plan: &'a PoolPlan,
    profiles: &'a [ServerProfile],
    server_addrs: &'a [Ipv4Addr],
    t2_primary_t1: &'a [usize],
    dest_as: &'a [DestAsPlan],
    bleachers: &'a [BleachPlan],
    modern: &'a [ModernBoxPlan],
}

/// What topology compilation yields besides the simulator itself.
struct CompiledTopology {
    sim: Sim,
    vantage_hosts: Vec<NodeId>,
    dns_host: NodeId,
    /// Server host node id per profile index.
    server_hosts: Vec<NodeId>,
}

/// The RNG-free topology phase, run **once** per blueprint: replay the
/// recorded decisions into a construction simulator (routers with their
/// compiled forwarding tables, links, firewalls, bleachers), completing
/// `truth` with the node-id-dependent bleach entries. Host stacks and
/// services are *not* installed here — they are per-world state.
fn compile_topology(
    d: &Decisions<'_>,
    node_count: usize,
    link_count: usize,
    truth: &mut GroundTruth,
) -> CompiledTopology {
    let plan = d.plan;
    let mut sim = Sim::new(0); // construction only; never runs an event
    let core_delay = plan.core_delay;
    let edge_delay = plan.edge_delay;
    // destination access-chain links carry the plan's extra edge loss
    // (0.0 = clean, byte-identical to plans predating the knob)
    let access_props = if plan.edge_loss > 0.0 {
        LinkProps::lossy(edge_delay, plan.edge_loss)
    } else {
        LinkProps::clean(edge_delay)
    };

    sim.reserve(node_count, link_count);

    // --- tier-1 mesh -----------------------------------------------------
    let t1_count = plan.t1_count.max(2);
    let mut t1_nodes = Vec::with_capacity(t1_count);
    for i in 0..t1_count {
        let node = sim.add_router(Router::new(format!("t1-{i}"), t1_addr(i)));
        t1_nodes.push(node);
    }
    // full mesh peer links: peer[i][j] = link i->j
    let mut t1_peer: HashMap<(usize, usize), ecn_netsim::LinkId> = HashMap::new();
    for i in 0..t1_count {
        for j in (i + 1)..t1_count {
            let (ij, ji) = sim.add_duplex(t1_nodes[i], t1_nodes[j], LinkProps::clean(core_delay));
            t1_peer.insert((i, j), ij);
            t1_peer.insert((j, i), ji);
        }
    }

    // --- tier-2 transits ---------------------------------------------------
    let t2_count = plan.t2_count.max(2);
    let default_route: Ipv4Prefix = "0.0.0.0/0".parse().expect("prefix");
    let mut t2_nodes = Vec::with_capacity(t2_count);
    let mut t1_downlink = Vec::with_capacity(t2_count); // T1 -> core
    for j in 0..t2_count {
        let node = sim.add_router(Router::new(format!("t2-{j}"), t2_core_addr(j)));
        let primary = d.t2_primary_t1[j];
        let (up, down) = sim.add_duplex(node, t1_nodes[primary], LinkProps::clean(core_delay));
        sim.route(node, default_route, RouteEntry::Link(up));
        t2_nodes.push(node);
        t1_downlink.push(down);
    }

    // --- vantages ----------------------------------------------------------
    let specs = plan.vantages();
    let mut vantage_hosts = Vec::with_capacity(specs.len());
    let mut vantage_routes: Vec<(Ipv4Prefix, usize, ecn_netsim::LinkId)> = Vec::new();
    for (vi, spec) in specs.iter().enumerate() {
        let prefix = vantage_prefix(spec);
        let cpe = sim.add_router(Router::new(
            format!("{}-cpe", spec.key),
            vantage_addr(spec, 1),
        ));
        let isp_a = sim.add_router(Router::new(
            format!("{}-isp-a", spec.key),
            vantage_addr(spec, 2),
        ));
        let isp_b = sim.add_router(Router::new(
            format!("{}-isp-b", spec.key),
            vantage_addr(spec, 3),
        ));
        let host_addr = vantage_addr(spec, 100);
        let host = sim.add_host(format!("{}-host", spec.key), host_addr);

        // access link carries the calibrated loss models
        let up_props = LinkProps {
            delay: edge_delay,
            rate_bps: None,
            queue: ecn_netsim::QueueDisc::deep_fifo(),
            loss: spec.loss_up,
        };
        let down_props = LinkProps {
            loss: spec.loss_down,
            ..up_props
        };
        let up = sim.add_link(host, cpe, up_props);
        let down = sim.add_link(cpe, host, down_props);
        sim.set_uplink(host, up);
        sim.route(cpe, Ipv4Prefix::host(host_addr), RouteEntry::Link(down));

        let (c_up, a_down) = sim.add_duplex(cpe, isp_a, LinkProps::clean(edge_delay));
        let (a_up, b_down) = sim.add_duplex(isp_a, isp_b, LinkProps::clean(edge_delay));
        // pick a T1 for this region (deterministic spread)
        let t1_index = (spec.net_index as usize * 5 + vi) % t1_count;
        let (b_up, t1_down) =
            sim.add_duplex(isp_b, t1_nodes[t1_index], LinkProps::clean(core_delay));
        sim.route(cpe, default_route, RouteEntry::Link(c_up));
        sim.route(isp_a, default_route, RouteEntry::Link(a_up));
        sim.route(isp_a, prefix, RouteEntry::Link(a_down));
        sim.route(isp_b, default_route, RouteEntry::Link(b_up));
        sim.route(isp_b, prefix, RouteEntry::Link(b_down));
        vantage_routes.push((prefix, t1_index, t1_down));
        vantage_hosts.push(host);
    }

    // --- DNS host ----------------------------------------------------------
    let dns_router = t1_nodes[0];
    let dns_host = sim.add_host("pool-dns", DNS_ADDR);
    sim.attach_host(dns_host, dns_router, LinkProps::clean(edge_delay));

    // --- destination ASes with servers --------------------------------------
    let ec2_prefix: Ipv4Prefix = EC2_SUPER_PREFIX.parse().expect("prefix");
    let mut server_hosts: Vec<NodeId> = vec![NodeId(u32::MAX); plan.servers];
    // per-AS bookkeeping for bleach placement
    struct DestAsNodes {
        pe: NodeId,
        border: NodeId,
        i2: NodeId,
        /// (first access router, chain length) per server
        access_heads: Vec<(NodeId, usize)>,
    }
    let mut dest_nodes: Vec<DestAsNodes> = Vec::with_capacity(d.dest_as.len());
    let mut t1_leaf_routes: Vec<(Ipv4Prefix, usize)> = Vec::with_capacity(d.dest_as.len());
    let mut t2_customer_count = vec![0usize; t2_count];
    let mut modern_kind: Vec<Option<ModernBoxKind>> = vec![None; d.dest_as.len()];
    for mp in d.modern {
        modern_kind[mp.as_index] = Some(mp.kind);
    }

    for (k, das) in d.dest_as.iter().enumerate() {
        let prefix = dest_prefix(k);
        let j = das.provider_t2;
        let customer = t2_customer_count[j];
        t2_customer_count[j] += 1;

        // routers: PE (provider AS) + B + I1 + I2 + I3
        let pe = sim.add_router(Router::new(
            format!("pe-{j}-{customer}"),
            t2_pe_addr(j, customer),
        ));
        let b = sim.add_router(Router::new(format!("d{k}-border"), dest_router_addr(k, 1)));
        let i1 = sim.add_router(Router::new(format!("d{k}-i1"), dest_router_addr(k, 2)));
        let i2 = sim.add_router(Router::new(format!("d{k}-i2"), dest_router_addr(k, 3)));
        let i3 = sim.add_router(Router::new(format!("d{k}-i3"), dest_router_addr(k, 4)));

        let (t2_to_pe, pe_to_t2) = sim.add_duplex(t2_nodes[j], pe, LinkProps::clean(edge_delay));
        // An AQM-marking AS runs its marker on the inbound PE→border edge
        // (the direction probe traffic travels); the return edge stays
        // clean. Same link count either way, so capacity hints are exact.
        let pe_b_down_props = match modern_kind[k] {
            Some(ModernBoxKind::AqmRed) => LinkProps {
                queue: ecn_netsim::QueueDisc::aqm_mark(plan.aqm_red_prob),
                ..LinkProps::clean(edge_delay)
            },
            Some(ModernBoxKind::AqmCodel) => LinkProps {
                rate_bps: Some(plan.aqm_rate_bps),
                queue: ecn_netsim::QueueDisc::l4s_mark(plan.aqm_codel_target),
                ..LinkProps::clean(edge_delay)
            },
            _ => LinkProps::clean(edge_delay),
        };
        let pe_to_b = sim.add_link(pe, b, pe_b_down_props);
        let b_to_pe = sim.add_link(b, pe, LinkProps::clean(edge_delay));
        let (b_to_i1, i1_to_b) = sim.add_duplex(b, i1, LinkProps::clean(edge_delay));
        let (i1_to_i2, i2_to_i1) = sim.add_duplex(i1, i2, LinkProps::clean(edge_delay));
        let (i2_to_i3, i3_to_i2) = sim.add_duplex(i2, i3, LinkProps::clean(edge_delay));

        sim.route(t2_nodes[j], prefix, RouteEntry::Link(t2_to_pe));
        sim.route(pe, default_route, RouteEntry::Link(pe_to_t2));
        sim.route(pe, prefix, RouteEntry::Link(pe_to_b));
        sim.route(b, default_route, RouteEntry::Link(b_to_pe));
        sim.route(b, prefix, RouteEntry::Link(b_to_i1));
        sim.route(i1, default_route, RouteEntry::Link(i1_to_b));
        sim.route(i1, prefix, RouteEntry::Link(i1_to_i2));
        sim.route(i2, default_route, RouteEntry::Link(i2_to_i1));
        sim.route(i2, prefix, RouteEntry::Link(i2_to_i3));
        sim.route(i3, default_route, RouteEntry::Link(i3_to_i2));
        t1_leaf_routes.push((prefix, j));

        let mut info = DestAsNodes {
            pe,
            border: b,
            i2,
            access_heads: Vec::new(),
        };

        // servers
        let mut access_slot = 16u32;
        for (server_slot, (s_in_as, &pidx)) in (2048u32..).zip(das.members.iter().enumerate()) {
            let profile = &d.profiles[pidx];
            let server_addr = dest_router_addr(k, server_slot);
            debug_assert_eq!(server_addr, d.server_addrs[pidx]);
            let host = sim.add_host(format!("srv-{pidx}"), server_addr);

            let flaky_ect = profile.special == SpecialBehaviour::EctBlocked { flaky: true };
            if flaky_ect {
                // two parallel single-router branches; only one filtered
                let a_fw = sim.add_router(Router::new(
                    format!("d{k}-s{s_in_as}-fw"),
                    dest_router_addr(k, access_slot),
                ));
                let a_clean = sim.add_router(Router::new(
                    format!("d{k}-s{s_in_as}-alt"),
                    dest_router_addr(k, access_slot + 1),
                ));
                access_slot += 2;
                sim.set_firewall(a_fw, Firewall::single(FirewallRule::drop_ect_udp()));
                let (fw_up, _fw_down_i3) = sim.add_duplex(a_fw, i3, access_props);
                let (cl_up, _cl_down_i3) = sim.add_duplex(a_clean, i3, access_props);
                sim.route(a_fw, default_route, RouteEntry::Link(fw_up));
                sim.route(a_clean, default_route, RouteEntry::Link(cl_up));
                // host attaches to the firewalled branch; extra
                // delivery link from the clean branch
                sim.attach_host(host, a_fw, access_props);
                let clean_down = sim.add_link(a_clean, host, access_props);
                sim.route(
                    a_clean,
                    Ipv4Prefix::host(server_addr),
                    RouteEntry::Link(clean_down),
                );
                // ECMP at I3: epoch-hashed branch choice
                let to_fw = sim.add_link(i3, a_fw, access_props);
                let to_clean = sim.add_link(i3, a_clean, access_props);
                sim.route(
                    i3,
                    Ipv4Prefix::host(server_addr),
                    RouteEntry::Ecmp(vec![to_fw, to_clean]),
                );
                info.access_heads.push((a_fw, 1));
            } else {
                // linear access chain of profile.access_chain_len routers
                let mut chain = Vec::new();
                for c in 0..profile.access_chain_len {
                    let r = sim.add_router(Router::new(
                        format!("d{k}-s{s_in_as}-a{c}"),
                        dest_router_addr(k, access_slot),
                    ));
                    access_slot += 1;
                    chain.push(r);
                }
                // wire i3 -> chain[0] -> ... -> host
                let mut prev = i3;
                for &r in &chain {
                    let (down, up) = sim.add_duplex(prev, r, access_props);
                    sim.route(prev, Ipv4Prefix::host(server_addr), RouteEntry::Link(down));
                    sim.route(r, default_route, RouteEntry::Link(up));
                    prev = r;
                }
                sim.attach_host(host, prev, access_props);
                // firewall on the last access router for special servers
                let last = prev;
                match profile.special {
                    SpecialBehaviour::EctBlocked { flaky: false } => {
                        sim.set_firewall(last, Firewall::single(FirewallRule::drop_ect_udp()));
                    }
                    SpecialBehaviour::NotEctBlocked { ec2_only: false } => {
                        sim.set_firewall(last, Firewall::single(FirewallRule::drop_not_ect_udp()));
                    }
                    SpecialBehaviour::NotEctBlocked { ec2_only: true } => {
                        sim.set_firewall(
                            last,
                            Firewall::single(
                                FirewallRule::drop_not_ect_udp().from_sources(ec2_prefix),
                            ),
                        );
                    }
                    _ => {}
                }
                info.access_heads.push((chain[0], chain.len()));
            }

            server_hosts[pidx] = host;
        }
        dest_nodes.push(info);
    }

    // --- T1 full tables -----------------------------------------------------
    // `t1_leaf_routes` records (dest prefix, serving T2 index): the owning
    // T1 routes down its T2 link; every other T1 routes across the mesh to
    // the owner.
    for (i, &t1) in t1_nodes.iter().enumerate() {
        for (prefix, j) in &t1_leaf_routes {
            let owner = d.t2_primary_t1[*j];
            let entry = if owner == i {
                RouteEntry::Link(t1_downlink[*j])
            } else {
                RouteEntry::Link(t1_peer[&(i, owner)])
            };
            sim.route(t1, *prefix, entry);
        }
        for (prefix, t1_index, down) in &vantage_routes {
            if *t1_index == i {
                sim.route(t1, *prefix, RouteEntry::Link(*down));
            } else {
                sim.route(t1, *prefix, RouteEntry::Link(t1_peer[&(i, *t1_index)]));
            }
        }
        let dns_prefix: Ipv4Prefix = DNS_PREFIX_STR.parse().expect("prefix");
        if i != 0 {
            sim.route(t1, dns_prefix, RouteEntry::Link(t1_peer[&(i, 0)]));
        }
    }

    // --- wire ground-truth bleachers -----------------------------------------
    for bp in d.bleachers {
        let info = &dest_nodes[bp.as_index];
        let node = match bp.site {
            BleachSite::ProviderEdge => info.pe,
            BleachSite::Border => info.border,
            BleachSite::Interior => info.i2,
            BleachSite::Access => {
                info.access_heads
                    .iter()
                    .find(|(_, len)| *len >= 2)
                    .expect("validated during blueprint build")
                    .0
            }
        };
        let policy = match bp.prob {
            None => EcnPolicy::Bleach,
            Some(p) => EcnPolicy::BleachProb(p),
        };
        sim.set_ecn_policy(node, policy);
        match bp.prob {
            None => truth.bleach_always.push((node, bp.site)),
            Some(_) => truth.bleach_sometimes.push((node, bp.site)),
        }
    }

    // --- wire modern middlebox policies --------------------------------------
    // AQM markers were wired as link properties above; the codepoint
    // rewriters are PE router policies.
    for mp in d.modern {
        let pe = dest_nodes[mp.as_index].pe;
        match mp.kind {
            ModernBoxKind::CeSuppress => sim.set_ecn_policy(pe, EcnPolicy::ClearCe),
            ModernBoxKind::Ect1Downgrade => sim.set_ecn_policy(pe, EcnPolicy::DowngradeEct1),
            ModernBoxKind::AqmRed | ModernBoxKind::AqmCodel => {}
        }
    }

    debug_assert!(
        server_hosts.iter().all(|n| n.0 != u32::MAX),
        "every profile placed"
    );
    CompiledTopology {
        sim,
        vantage_hosts,
        dns_host,
        server_hosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiations_are_identical() {
        let bp = WorldBlueprint::build(&PoolPlan::scaled(40), 7);
        let a = bp.instantiate();
        let b = bp.instantiate();
        assert_eq!(a.sim.node_count(), b.sim.node_count());
        assert_eq!(a.sim.link_count(), b.sim.link_count());
        assert_eq!(a.servers.len(), b.servers.len());
        for (sa, sb) in a.servers.iter().zip(b.servers.iter()) {
            assert_eq!(sa.addr, sb.addr);
            assert_eq!(sa.node, sb.node);
            assert_eq!(sa.as_index, sb.as_index);
        }
        assert_eq!(a.truth.ect_blocked, b.truth.ect_blocked);
        assert_eq!(a.truth.bleach_always, b.truth.bleach_always);
    }

    #[test]
    fn capacity_hints_are_exact() {
        let bp = WorldBlueprint::build(&PoolPlan::scaled(60), 3);
        let sc = bp.instantiate();
        assert_eq!(sc.sim.node_count(), bp.node_count(), "node count hint");
        assert_eq!(sc.sim.link_count(), bp.link_count(), "link count hint");
    }

    #[test]
    fn domain_instantiation_shares_world_but_not_packet_noise() {
        let bp = WorldBlueprint::build(&PoolPlan::scaled(30), 11);
        let every_server: HashSet<Ipv4Addr> = bp.servers().iter().map(|s| s.addr).collect();
        let a = bp.instantiate();
        let b = bp.instantiate_unit_scoped(0, 0, &every_server);
        // identical topology and ground truth
        assert_eq!(a.sim.node_count(), b.sim.node_count());
        assert_eq!(a.truth.ect_blocked, b.truth.ect_blocked);
        assert_eq!(
            a.truth.bleach_always, b.truth.bleach_always,
            "bleach node ids are sim-order-deterministic"
        );
        // same unit, same world again
        let c = bp.instantiate_unit_scoped(0, 0, &every_server);
        assert_eq!(b.sim.node_count(), c.sim.node_count());
    }

    #[test]
    fn blueprint_precomputes_dbs() {
        let bp = WorldBlueprint::build(&PoolPlan::scaled(50), 9);
        let sc = bp.instantiate();
        assert_eq!(bp.geodb.len(), sc.geodb.len());
        assert_eq!(bp.servers().len(), 50);
        assert!(bp.dest_as_count() > 0);
        assert_eq!(bp.dest_as_count(), sc.truth.dest_as_count);
    }
}
