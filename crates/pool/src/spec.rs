//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] describes a complete ECN-measurement world — target
//! population size and service mix, vantage count, middlebox deployment
//! *rates*, link loss/latency, schedule profile, seed — as plain data that
//! lives in a TOML file. It lowers to the imperative
//! [`PoolPlan`] via [`ScenarioSpec::plan`]; [`ScenarioSpec::paper2015`]
//! lowers to exactly [`PoolPlan::paper`], bit for bit, so the spec layer
//! adds no noise to the reproduction (the golden suite gates this).
//!
//! The spec describes only the experiment. Run-time settings that cannot
//! change a result byte — shard and worker-process counts, metrics
//! export, progress, trace sampling, worker retries and deadlines,
//! checkpoints — are `ecnudp run` flags, not spec keys.
//!
//! The `ecnudp` CLI binary loads spec files and runs them through the
//! sharded engine; `scenarios/` in the repository root is the documented
//! preset library. [`ScenarioSpec::from_toml_str`] is the one reader: it
//! applies each `key = value` line, prefixed by its `[section]`, straight
//! onto [`ScenarioSpec::paper2015`] through one table of the 44 dotted key
//! paths, then runs [`ScenarioSpec::validate`]. Loading is *lenient*:
//! every omitted key keeps its default, so a preset only states its
//! deltas — and *strict* about what is present: unknown keys, duplicate
//! keys and type mismatches are errors that name the offending path or
//! line (the earliest bad line wins), and an unknown key's error lists the
//! valid keys.
//!
//! ```
//! use ecn_pool::{PoolPlan, ScenarioSpec};
//!
//! // A delta file: everything not mentioned stays at the paper defaults.
//! let spec = ScenarioSpec::from_toml_str(
//!     r#"
//!     name = "more-bleaching"
//!     seed = 7
//!
//!     [middleboxes]
//!     bleach_pe_per_1000 = 12.8
//!     "#,
//! )
//! .unwrap();
//! assert_eq!(spec.seed, 7);
//! let plan = spec.plan();
//! assert_eq!(plan.bleach_pe, 32); // 12.8 per 1000 of 2500 servers
//! assert_eq!(plan.servers, PoolPlan::paper().servers);
//! ```

use crate::plan::PoolPlan;
use ecn_netsim::Nanos;
use std::fmt;

// ------------------------------------------------------------------ structs

/// A declarative scenario: everything the campaign needs to build and
/// measure a world, expressed as data. See the module docs for the file
/// format and `scenarios/` for the preset library.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in logs and machine-readable summaries; never
    /// rendered into the report, so renaming cannot break goldens).
    pub name: String,
    /// The experiment seed: the only source of randomness.
    pub seed: u64,
    /// How many of the 13 Table 2 vantage points to measure from (a
    /// prefix of the Table 2 ordering).
    pub vantage_count: usize,
    /// Run the §4.2 traceroute survey.
    pub traceroute: bool,
    /// Target population size and service mix.
    pub population: PopulationSpec,
    /// Transit/destination AS structure.
    pub topology: TopologySpec,
    /// Middlebox deployment rates (per 1000 servers).
    pub middleboxes: MiddleboxSpec,
    /// Endpoint ECN validation pass (off by default).
    pub validator: ValidatorSpec,
    /// Link loss and latency.
    pub links: LinkSpec,
    /// Campaign schedule profile.
    pub schedule: ScheduleSpec,
}

/// `[population]`: who is in the pool and what they run.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Pool servers (paper: 2500).
    pub servers: usize,
    /// Fraction running a co-located web server.
    pub web_fraction: f64,
    /// Among web servers: fraction negotiating ECN.
    pub web_ecn_on: f64,
    /// Among web servers: fraction with the broken reflect-flags stack.
    pub web_ecn_reflect: f64,
    /// Share of web servers answering plain-OK instead of the redirect.
    pub plain_ok_fraction: f64,
    /// Servers per 1000 that never answer (paper: 169 of 2500).
    pub always_down_per_1000: f64,
    /// Servers per 1000 leaving the pool at the batch boundary.
    pub churn_per_1000: f64,
    /// Fraction of live servers with short random outages.
    pub flapping_fraction: f64,
}

/// `[topology]`: AS-level structure.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Tier-1 transit ASes (fully meshed core).
    pub t1_count: usize,
    /// Tier-2 (regional transit) ASes.
    pub t2_count: usize,
    /// Destination-AS bookkeeping target (reported via
    /// `PoolPlan::total_as_count`; the actual count is drawn during the
    /// blueprint's packing phase). At most 524 288, the address plan's
    /// destination-AS ceiling.
    pub dest_as_count: usize,
}

/// `[middleboxes]`: ECN-hostile deployment rates, per 1000 servers.
///
/// Rates lower to integer counts with round-half-up at the spec's
/// population size ([`ScenarioSpec::plan`]), so the same file scales with
/// `population.servers`.
#[derive(Debug, Clone, PartialEq)]
pub struct MiddleboxSpec {
    /// Servers behind an always-on ECT-dropping middlebox.
    pub ect_droppers_per_1000: f64,
    /// ECT-droppers sitting on one branch of an ECMP pair.
    pub flaky_ect_droppers_per_1000: f64,
    /// Servers dropping **not-ECT** UDP from everywhere.
    pub not_ect_droppers_per_1000: f64,
    /// Servers dropping not-ECT UDP from EC2 sources only.
    pub ec2_not_ect_droppers_per_1000: f64,
    /// Always-bleaching routers at provider-edge positions.
    pub bleach_pe_per_1000: f64,
    /// Always-bleachers at destination-AS border routers.
    pub bleach_border_per_1000: f64,
    /// Always-bleachers at destination-AS interior routers.
    pub bleach_interior_per_1000: f64,
    /// Always-bleachers at per-server access routers.
    pub bleach_access_per_1000: f64,
    /// Probabilistic (sometimes-strip) bleachers at PE positions.
    pub bleach_prob_pe_per_1000: f64,
    /// Probabilistic bleachers at access positions.
    pub bleach_prob_access_per_1000: f64,
    /// Per-packet strip probability of the probabilistic bleachers.
    pub bleach_prob: f64,
    /// Destination-AS edges with a RED-style probabilistic CE marker
    /// (the modern-ECN family; `0` = the paper's 2015 world).
    pub aqm_red_per_1000: f64,
    /// Destination-AS edges with a CoDel-style sojourn-marking
    /// bottleneck.
    pub aqm_codel_per_1000: f64,
    /// CE-suppressing (CE→ECT(0)) middleboxes at provider edges.
    pub ce_suppressors_per_1000: f64,
    /// ECT(1)→ECT(0) downgrading middleboxes at provider edges.
    pub ect1_downgrade_per_1000: f64,
    /// Per-markable-packet CE probability of the RED-style markers.
    pub aqm_red_prob: f64,
    /// Sojourn threshold of the CoDel-style markers, microseconds.
    pub aqm_codel_target_us: u64,
    /// Serialisation rate of CoDel-marked bottleneck edges, kbit/s.
    pub aqm_rate_kbps: u64,
}

/// `[validator]`: the endpoint ECN validation pass (RFC 9000-style
/// state machine probing each target through the validation echo
/// service). `packets = 0` (the default) disables the pass entirely —
/// the campaign then runs byte-identically to pre-validator builds.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatorSpec {
    /// Marked packets per validation round (s2n-quic tests 10;
    /// `0` = validation off).
    pub packets: usize,
    /// Send one deliberately CE-marked canary to detect CE suppression.
    pub ce_canary: bool,
    /// Vantages per 1000 that mark with ECT(1) instead of ECT(0)
    /// (L4S-style senders).
    pub ect1_per_1000: f64,
}

impl Default for ValidatorSpec {
    fn default() -> ValidatorSpec {
        ValidatorSpec {
            packets: 0,
            ce_canary: true,
            ect1_per_1000: 0.0,
        }
    }
}

/// `[links]`: loss and latency distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Multiplier on every vantage access-link loss probability
    /// (`1.0` = the calibrated Table 2 noise).
    pub vantage_loss_scale: f64,
    /// Extra independent loss on destination access-chain links
    /// (`0.0` = the paper's clean edges).
    pub edge_loss: f64,
    /// One-way core-link delay, microseconds.
    pub core_delay_us: u64,
    /// One-way edge-link delay, microseconds.
    pub edge_delay_us: u64,
}

/// `[schedule]`: how the campaign maps onto virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleSpec {
    /// Base schedule: the paper's 75-day two-batch calendar, or the
    /// compressed `quick` profile used by tests and presets.
    pub profile: ScheduleProfile,
    /// Cap traces per vantage (`0` = the full Table 2 allocation).
    pub traces_per_vantage: usize,
    /// DNS discovery rounds (`0` = the profile default).
    pub discovery_rounds: usize,
    /// Target-list chunks per vantage (part of the experiment definition;
    /// each chunk probes from its own world).
    pub target_chunks: usize,
}

/// Most DNS discovery rounds a spec may ask for (see
/// [`ScenarioSpec::validate`]).
const MAX_DISCOVERY_ROUNDS: usize = 100_000;

/// The two built-in campaign calendars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleProfile {
    /// The paper's §3 calendar: two batches 75 days apart, 40-day windows.
    Paper,
    /// Hours instead of months — same structure, compressed for fast runs.
    Quick,
}

// ----------------------------------------------------------------- defaults

impl ScenarioSpec {
    /// The reference scenario: the paper's fixed experiment. Lowers to
    /// exactly [`PoolPlan::paper`] (asserted by unit test and gated by the
    /// golden suite), so running this spec reproduces the pre-spec world
    /// byte for byte.
    ///
    /// ```
    /// use ecn_pool::{PoolPlan, ScenarioSpec};
    ///
    /// let spec = ScenarioSpec::paper2015();
    /// assert_eq!(spec.plan(), PoolPlan::paper());
    /// assert_eq!(spec.vantage_count, 13);
    /// assert!(spec.traceroute);
    /// ```
    pub fn paper2015() -> ScenarioSpec {
        ScenarioSpec {
            name: "paper2015".into(),
            seed: 2015,
            vantage_count: 13,
            traceroute: true,
            population: PopulationSpec {
                servers: 2500,
                web_fraction: 0.60,
                web_ecn_on: 0.84,
                web_ecn_reflect: 0.01,
                plain_ok_fraction: 0.08,
                always_down_per_1000: 67.6,
                churn_per_1000: 36.0,
                flapping_fraction: 0.6,
            },
            topology: TopologySpec {
                t1_count: 12,
                t2_count: 188,
                dest_as_count: 1200,
            },
            middleboxes: MiddleboxSpec {
                ect_droppers_per_1000: 3.2,
                flaky_ect_droppers_per_1000: 0.8,
                not_ect_droppers_per_1000: 0.4,
                ec2_not_ect_droppers_per_1000: 0.8,
                bleach_pe_per_1000: 3.2,
                bleach_border_per_1000: 0.4,
                bleach_interior_per_1000: 0.4,
                bleach_access_per_1000: 0.8,
                bleach_prob_pe_per_1000: 0.4,
                bleach_prob_access_per_1000: 0.8,
                bleach_prob: 0.5,
                aqm_red_per_1000: 0.0,
                aqm_codel_per_1000: 0.0,
                ce_suppressors_per_1000: 0.0,
                ect1_downgrade_per_1000: 0.0,
                aqm_red_prob: 0.1,
                aqm_codel_target_us: 500,
                aqm_rate_kbps: 1_000,
            },
            validator: ValidatorSpec::default(),
            links: LinkSpec {
                vantage_loss_scale: 1.0,
                edge_loss: 0.0,
                core_delay_us: 8_000,
                edge_delay_us: 2_000,
            },
            schedule: ScheduleSpec {
                profile: ScheduleProfile::Paper,
                traces_per_vantage: 0,
                discovery_rounds: 0,
                target_chunks: 1,
            },
        }
    }

    /// Lower the declarative spec to the imperative world plan. Middlebox
    /// and availability rates become integer counts at this spec's
    /// population size (round half-up).
    pub fn plan(&self) -> PoolPlan {
        let p = &self.population;
        let m = &self.middleboxes;
        let n = |per_1000: f64| rate_count(per_1000, p.servers);
        PoolPlan {
            servers: p.servers,
            dest_as_count: self.topology.dest_as_count,
            t1_count: self.topology.t1_count,
            t2_count: self.topology.t2_count,
            web_fraction: p.web_fraction,
            web_ecn_on: p.web_ecn_on,
            web_ecn_reflect: p.web_ecn_reflect,
            always_down: n(p.always_down_per_1000),
            churn_down: n(p.churn_per_1000),
            flapping_fraction: p.flapping_fraction,
            ect_blocked: n(m.ect_droppers_per_1000),
            ect_blocked_flaky: n(m.flaky_ect_droppers_per_1000),
            not_ect_blocked_global: n(m.not_ect_droppers_per_1000),
            not_ect_blocked_ec2: n(m.ec2_not_ect_droppers_per_1000),
            bleach_pe: n(m.bleach_pe_per_1000),
            bleach_border: n(m.bleach_border_per_1000),
            bleach_interior: n(m.bleach_interior_per_1000),
            bleach_access: n(m.bleach_access_per_1000),
            bleach_prob_pe: n(m.bleach_prob_pe_per_1000),
            bleach_prob_access: n(m.bleach_prob_access_per_1000),
            bleach_prob: m.bleach_prob,
            aqm_red: n(m.aqm_red_per_1000),
            aqm_codel: n(m.aqm_codel_per_1000),
            ce_suppress: n(m.ce_suppressors_per_1000),
            ect1_downgrade: n(m.ect1_downgrade_per_1000),
            aqm_red_prob: m.aqm_red_prob,
            aqm_codel_target: Nanos(m.aqm_codel_target_us.saturating_mul(1_000)),
            aqm_rate_bps: m.aqm_rate_kbps.saturating_mul(1_000),
            plain_ok_fraction: p.plain_ok_fraction,
            vantage_count: self.vantage_count,
            loss_scale: self.links.vantage_loss_scale,
            edge_loss: self.links.edge_loss,
            core_delay: Nanos(self.links.core_delay_us.saturating_mul(1_000)),
            edge_delay: Nanos(self.links.edge_delay_us.saturating_mul(1_000)),
            // churn_at is pinned to the campaign's batch-2 boundary by the
            // engine; flap durations stay at the calibrated paper values
            ..PoolPlan::paper()
        }
    }

    /// Load a spec from TOML text (the `scenarios/*.toml` preset format).
    /// Lenient on absence (omitted keys keep their
    /// [`Self::paper2015`] defaults), strict on presence (unknown keys
    /// and type mismatches are errors naming the offending path).
    pub fn from_toml_str(input: &str) -> Result<ScenarioSpec, SpecError> {
        let spec = read_toml(input)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Check cross-field invariants that would otherwise surface as
    /// panics deep inside world construction.
    pub fn validate(&self) -> Result<(), SpecError> {
        let err = |path: &str, message: String| Err(SpecError::new(path, message));
        let p = &self.population;
        if p.servers < 8 {
            return err("population.servers", format!("{} < 8", p.servers));
        }
        // The address plan numbers destination AS k at the /20
        // 0x8000_0000 | k << 12, so AS 2^19 would reuse AS 0's prefix;
        // n servers never pack into more than n ASes. `dest_as_count`
        // feeds only the "~N ASes" estimate (packing draws the real
        // count), which must not overflow either.
        const MAX_DEST_ASES: usize = 1 << 19;
        for (path, count) in [
            ("population.servers", p.servers),
            ("topology.dest_as_count", self.topology.dest_as_count),
        ] {
            if count > MAX_DEST_ASES {
                return err(
                    path,
                    format!(
                        "{count} > {MAX_DEST_ASES} (the address plan numbers at most {MAX_DEST_ASES} destination ASes)"
                    ),
                );
            }
        }
        if self.vantage_count < 1 || self.vantage_count > 13 {
            return err(
                "vantage_count",
                format!("{} outside 1..=13", self.vantage_count),
            );
        }
        if self.topology.t1_count < 2 || self.topology.t2_count < 2 {
            return err("topology", "t1_count and t2_count must be >= 2".into());
        }
        // each transit tier numbers its ASes in one octet (5.i.0.0/16,
        // 62.j.0.0/16)
        const MAX_TIER_ASES: usize = 256;
        for (path, count) in [
            ("topology.t1_count", self.topology.t1_count),
            ("topology.t2_count", self.topology.t2_count),
        ] {
            if count > MAX_TIER_ASES {
                return err(
                    path,
                    format!(
                        "{count} > {MAX_TIER_ASES} (the address plan numbers a tier in one octet)"
                    ),
                );
            }
        }
        for (path, frac) in [
            ("population.web_fraction", p.web_fraction),
            ("population.web_ecn_on", p.web_ecn_on),
            ("population.web_ecn_reflect", p.web_ecn_reflect),
            ("population.plain_ok_fraction", p.plain_ok_fraction),
            ("population.flapping_fraction", p.flapping_fraction),
            ("middleboxes.bleach_prob", self.middleboxes.bleach_prob),
            ("middleboxes.aqm_red_prob", self.middleboxes.aqm_red_prob),
            ("links.edge_loss", self.links.edge_loss),
        ] {
            if !(0.0..=1.0).contains(&frac) {
                return err(path, format!("{frac} outside [0, 1]"));
            }
        }
        let scale = self.links.vantage_loss_scale;
        if !scale.is_finite() || !(0.0..=1000.0).contains(&scale) {
            return err(
                "links.vantage_loss_scale",
                format!("{scale} outside [0, 1000]"),
            );
        }
        // one virtual minute per hop is already absurd; bounding here
        // keeps the µs→ns lowering far from u64 overflow
        const MAX_DELAY_US: u64 = 60_000_000;
        for (path, delay) in [
            ("links.core_delay_us", self.links.core_delay_us),
            ("links.edge_delay_us", self.links.edge_delay_us),
        ] {
            if delay > MAX_DELAY_US {
                return err(path, format!("{delay} exceeds {MAX_DELAY_US} (60 s)"));
            }
        }
        let m = &self.middleboxes;
        for (path, rate) in [
            ("population.always_down_per_1000", p.always_down_per_1000),
            ("population.churn_per_1000", p.churn_per_1000),
            ("middleboxes.ect_droppers_per_1000", m.ect_droppers_per_1000),
            (
                "middleboxes.flaky_ect_droppers_per_1000",
                m.flaky_ect_droppers_per_1000,
            ),
            (
                "middleboxes.not_ect_droppers_per_1000",
                m.not_ect_droppers_per_1000,
            ),
            (
                "middleboxes.ec2_not_ect_droppers_per_1000",
                m.ec2_not_ect_droppers_per_1000,
            ),
            ("middleboxes.bleach_pe_per_1000", m.bleach_pe_per_1000),
            (
                "middleboxes.bleach_border_per_1000",
                m.bleach_border_per_1000,
            ),
            (
                "middleboxes.bleach_interior_per_1000",
                m.bleach_interior_per_1000,
            ),
            (
                "middleboxes.bleach_access_per_1000",
                m.bleach_access_per_1000,
            ),
            (
                "middleboxes.bleach_prob_pe_per_1000",
                m.bleach_prob_pe_per_1000,
            ),
            (
                "middleboxes.bleach_prob_access_per_1000",
                m.bleach_prob_access_per_1000,
            ),
            ("middleboxes.aqm_red_per_1000", m.aqm_red_per_1000),
            ("middleboxes.aqm_codel_per_1000", m.aqm_codel_per_1000),
            (
                "middleboxes.ce_suppressors_per_1000",
                m.ce_suppressors_per_1000,
            ),
            (
                "middleboxes.ect1_downgrade_per_1000",
                m.ect1_downgrade_per_1000,
            ),
            ("validator.ect1_per_1000", self.validator.ect1_per_1000),
        ] {
            if !(0.0..=1000.0).contains(&rate) {
                return err(path, format!("{rate} outside [0, 1000]"));
            }
        }
        if self.validator.packets > 64 {
            return err(
                "validator.packets",
                format!(
                    "{} exceeds 64 (one validation round)",
                    self.validator.packets
                ),
            );
        }
        if m.aqm_codel_target_us > 10_000_000 {
            return err(
                "middleboxes.aqm_codel_target_us",
                format!("{} exceeds 10000000 (10 s)", m.aqm_codel_target_us),
            );
        }
        if m.aqm_rate_kbps < 8 || m.aqm_rate_kbps > 100_000_000 {
            return err(
                "middleboxes.aqm_rate_kbps",
                format!("{} outside [8, 100000000]", m.aqm_rate_kbps),
            );
        }
        // each round queries every pool zone name, ~0.11 ms of run time
        // on a 2-vCPU VM, and discovery runs before any unit: the bound is
        // ~11 s of discovery, 67x the largest preset's 1 500 rounds, where
        // u64::MAX rounds would pass and then never finish
        let rounds = self.schedule.discovery_rounds;
        if rounds > MAX_DISCOVERY_ROUNDS {
            return err(
                "schedule.discovery_rounds",
                format!("{rounds} exceeds {MAX_DISCOVERY_ROUNDS}"),
            );
        }
        // targets never outnumber servers, so a larger chunk count only
        // adds empty units (and a pool of units no run can allocate)
        let chunks = self.schedule.target_chunks;
        if chunks < 1 || chunks > p.servers {
            return err(
                "schedule.target_chunks",
                format!(
                    "{chunks} outside 1..={} (population.servers: targets never outnumber servers)",
                    p.servers
                ),
            );
        }
        // the special population must leave room for the dead/churned
        // servers drawn before it (generate_profiles draws specials from
        // the *alive* remainder)
        let plan = self.plan();
        let specials = plan.ect_blocked
            + plan.ect_blocked_flaky
            + plan.not_ect_blocked_global
            + plan.not_ect_blocked_ec2;
        let dead = plan.always_down.min(p.servers / 3) + plan.churn_down.min(p.servers / 3);
        if specials + dead >= p.servers {
            return err(
                "middleboxes",
                format!(
                    "{specials} middleboxed + {dead} dead/churned servers \
                     exceed the population of {}",
                    p.servers
                ),
            );
        }
        // every planted modern middlebox consumes one candidate dest AS
        // (as do bleachers and special servers); the packer guarantees at
        // least servers/4 ASes (max AS size 4), so reject deployments that
        // would exhaust the pool before world construction can panic
        let modern = plan.aqm_red + plan.aqm_codel + plan.ce_suppress + plan.ect1_downgrade;
        let bleachers = plan.bleach_pe
            + plan.bleach_border
            + plan.bleach_interior
            + plan.bleach_access
            + plan.bleach_prob_pe
            + plan.bleach_prob_access;
        if modern > 0 && modern + bleachers + specials >= p.servers / 4 {
            return err(
                "middleboxes",
                format!(
                    "{modern} AQM/suppressor boxes + {bleachers} bleachers + \
                     {specials} special servers exceed the candidate AS pool \
                     (~{} ASes)",
                    p.servers / 4
                ),
            );
        }
        Ok(())
    }
}

/// Round-half-up count for a per-1000 deployment rate.
fn rate_count(per_1000: f64, servers: usize) -> usize {
    ((per_1000 * servers as f64) / 1000.0).round() as usize
}

// ------------------------------------------------------------------- errors

/// A spec-file problem: what went wrong, and at which key path or line.
#[derive(Debug, Clone)]
pub struct SpecError {
    /// Dotted key path (`middleboxes.bleach_prob`) or `line N` locator.
    pub path: String,
    /// Human-readable description.
    pub message: String,
}

impl SpecError {
    fn new(path: impl Into<String>, message: impl Into<String>) -> SpecError {
        SpecError {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec: {}: {}", self.path, self.message)
    }
}

impl std::error::Error for SpecError {}

// ------------------------------------------------------------------- reader

/// Where a key's value lands, and the type its token parses into.
#[derive(Clone, Copy)]
enum Slot {
    Str(fn(&mut ScenarioSpec) -> &mut String),
    Bool(fn(&mut ScenarioSpec) -> &mut bool),
    U64(fn(&mut ScenarioSpec) -> &mut u64),
    Usize(fn(&mut ScenarioSpec) -> &mut usize),
    F64(fn(&mut ScenarioSpec) -> &mut f64),
    Profile(fn(&mut ScenarioSpec) -> &mut ScheduleProfile),
}

impl Slot {
    /// What the key takes, for type-mismatch errors.
    fn expects(self) -> &'static str {
        match self {
            Slot::Str(_) | Slot::Profile(_) => "a string",
            Slot::Bool(_) => "true/false",
            Slot::U64(_) | Slot::Usize(_) => "an integer",
            Slot::F64(_) => "a number",
        }
    }
}

/// One row of [`KEYS`]: the key's dotted path is its field path in
/// [`ScenarioSpec`].
macro_rules! key {
    ($slot:ident: $first:ident $(. $rest:ident)*) => {
        (
            concat!(stringify!($first) $(, ".", stringify!($rest))*),
            Slot::$slot(|s| &mut s.$first $(.$rest)*),
        )
    };
}

/// Every key of the format, in section order. The reader resolves each
/// `key = value` line here, and unknown-key errors list the valid keys
/// from here.
const KEYS: [(&str, Slot); 44] = [
    key!(Str: name),
    key!(U64: seed),
    key!(Usize: vantage_count),
    key!(Bool: traceroute),
    key!(Usize: population.servers),
    key!(F64: population.web_fraction),
    key!(F64: population.web_ecn_on),
    key!(F64: population.web_ecn_reflect),
    key!(F64: population.plain_ok_fraction),
    key!(F64: population.always_down_per_1000),
    key!(F64: population.churn_per_1000),
    key!(F64: population.flapping_fraction),
    key!(Usize: topology.t1_count),
    key!(Usize: topology.t2_count),
    key!(Usize: topology.dest_as_count),
    key!(F64: middleboxes.ect_droppers_per_1000),
    key!(F64: middleboxes.flaky_ect_droppers_per_1000),
    key!(F64: middleboxes.not_ect_droppers_per_1000),
    key!(F64: middleboxes.ec2_not_ect_droppers_per_1000),
    key!(F64: middleboxes.bleach_pe_per_1000),
    key!(F64: middleboxes.bleach_border_per_1000),
    key!(F64: middleboxes.bleach_interior_per_1000),
    key!(F64: middleboxes.bleach_access_per_1000),
    key!(F64: middleboxes.bleach_prob_pe_per_1000),
    key!(F64: middleboxes.bleach_prob_access_per_1000),
    key!(F64: middleboxes.bleach_prob),
    key!(F64: middleboxes.aqm_red_per_1000),
    key!(F64: middleboxes.aqm_codel_per_1000),
    key!(F64: middleboxes.ce_suppressors_per_1000),
    key!(F64: middleboxes.ect1_downgrade_per_1000),
    key!(F64: middleboxes.aqm_red_prob),
    key!(U64: middleboxes.aqm_codel_target_us),
    key!(U64: middleboxes.aqm_rate_kbps),
    key!(Usize: validator.packets),
    key!(Bool: validator.ce_canary),
    key!(F64: validator.ect1_per_1000),
    key!(F64: links.vantage_loss_scale),
    key!(F64: links.edge_loss),
    key!(U64: links.core_delay_us),
    key!(U64: links.edge_delay_us),
    key!(Profile: schedule.profile),
    key!(Usize: schedule.traces_per_vantage),
    key!(Usize: schedule.discovery_rounds),
    key!(Usize: schedule.target_chunks),
];

/// A value token: strings unescaped, numbers kept as text (so each parses
/// straight into its key's type and integers never round-trip through
/// `f64`).
enum Token {
    Str(String),
    Num(String),
    Bool(bool),
}

impl Token {
    fn kind(&self) -> &'static str {
        match self {
            Token::Str(_) => "string",
            Token::Num(_) => "number",
            Token::Bool(_) => "boolean",
        }
    }
}

fn mismatch(path: &str, expects: &str, found: &str) -> SpecError {
    SpecError::new(path, format!("expected {expects}, found {found}"))
}

/// Read the TOML subset the spec format uses, applying each value onto
/// the defaults as its line is read: `#` comments, `[section]` headers
/// (dotted), `key = value` pairs (dotted keys allowed) with basic-string,
/// integer/float and boolean values. No arrays, no inline tables, no
/// multi-line strings — the format is deliberately flat. The earliest bad
/// line is the error.
fn read_toml(input: &str) -> Result<ScenarioSpec, SpecError> {
    let mut spec = ScenarioSpec::paper2015();
    let mut seen = [false; KEYS.len()];
    let mut section = String::new();
    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_toml_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| Err(SpecError::new(format!("line {lineno}"), message));
        if let Some(header) = line.strip_prefix('[') {
            let Some(header) = header.strip_suffix(']') else {
                return err(format!("unterminated table header `{line}`"));
            };
            if header.starts_with('[') {
                return err("array-of-tables `[[...]]` is not part of the spec format".into());
            }
            section = bare_path(header, lineno)?;
            if let Some(k) = lookup(&section)? {
                return Err(mismatch(&section, KEYS[k].1.expects(), "table"));
            }
            continue;
        }
        let Some(eq) = line.find('=') else {
            return err(format!("expected `key = value`, found `{line}`"));
        };
        let key = bare_path(&line[..eq], lineno)?;
        let path = match section.as_str() {
            "" => key,
            section => format!("{section}.{key}"),
        };
        let token = parse_toml_value(line[eq + 1..].trim(), lineno)?;
        let Some(k) = lookup(&path)? else {
            return Err(mismatch(&path, "a table", token.kind()));
        };
        if std::mem::replace(&mut seen[k], true) {
            return err(format!("duplicate key `{path}`"));
        }
        set(&mut spec, KEYS[k].1, token, &path)?;
    }
    Ok(spec)
}

/// The index in [`KEYS`] of the key at `path`, `None` if `path` is a
/// section, or the error naming where `path` leaves the format.
fn lookup(path: &str) -> Result<Option<usize>, SpecError> {
    let mut table = "";
    for (end, _) in path.match_indices('.').chain([(path.len(), "")]) {
        let here = &path[..end];
        if let Some(k) = KEYS.iter().position(|&(key, _)| key == here) {
            if end < path.len() {
                return Err(mismatch(here, KEYS[k].1.expects(), "table"));
            }
            return Ok(Some(k));
        }
        let inside = |key: &str| key.strip_prefix(here).is_some_and(|k| k.starts_with('.'));
        if !KEYS.iter().any(|&(key, _)| inside(key)) {
            let valid = children(table).join(", ");
            return Err(SpecError::new(
                here,
                format!("unknown key (expected one of: {valid})"),
            ));
        }
        table = here;
    }
    Ok(None)
}

/// The keys and sections directly inside `table` (`""` is the root), in
/// [`KEYS`] order.
fn children(table: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    for &(key, _) in &KEYS {
        let inside = match table {
            "" => Some(key),
            table => key.strip_prefix(table).and_then(|k| k.strip_prefix('.')),
        };
        if let Some(rest) = inside {
            let child = rest.split_once('.').map_or(rest, |(head, _)| head);
            if !out.contains(&child) {
                out.push(child);
            }
        }
    }
    out
}

/// Parse `token` into the type of `slot` and store it in `spec`.
fn set(spec: &mut ScenarioSpec, slot: Slot, token: Token, path: &str) -> Result<(), SpecError> {
    fn int<T: std::str::FromStr>(digits: &str, path: &str) -> Result<T, SpecError> {
        digits.parse().map_err(|_| {
            SpecError::new(
                path,
                format!("expected a non-negative integer, got `{digits}`"),
            )
        })
    }
    match (slot, token) {
        (Slot::Str(field), Token::Str(s)) => *field(spec) = s,
        (Slot::Bool(field), Token::Bool(b)) => *field(spec) = b,
        (Slot::U64(field), Token::Num(n)) => *field(spec) = int(&n, path)?,
        (Slot::Usize(field), Token::Num(n)) => *field(spec) = int(&n, path)?,
        (Slot::F64(field), Token::Num(n)) => {
            *field(spec) = n
                .parse()
                .map_err(|e| SpecError::new(path, format!("bad number `{n}`: {e}")))?
        }
        (Slot::Profile(field), Token::Str(s)) => {
            *field(spec) = match s.to_ascii_lowercase().as_str() {
                "paper" => ScheduleProfile::Paper,
                "quick" => ScheduleProfile::Quick,
                other => {
                    return Err(SpecError::new(
                        path,
                        format!("unknown profile `{other}` (expected `paper` or `quick`)"),
                    ))
                }
            }
        }
        (slot, token) => return Err(mismatch(path, slot.expects(), token.kind())),
    }
    Ok(())
}

/// Remove a `#` comment, respecting basic strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_string && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

/// A dotted key with the spaces around its dots removed.
fn bare_path(dotted: &str, lineno: usize) -> Result<String, SpecError> {
    let mut keys = Vec::new();
    for part in dotted.split('.') {
        let key = part.trim();
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(SpecError::new(
                format!("line {lineno}"),
                format!("bad key `{dotted}` (bare keys only: [A-Za-z0-9_-])"),
            ));
        }
        keys.push(key);
    }
    Ok(keys.join("."))
}

fn parse_toml_value(text: &str, lineno: usize) -> Result<Token, SpecError> {
    let err = |message: String| Err(SpecError::new(format!("line {lineno}"), message));
    if text.is_empty() {
        return err("missing value".into());
    }
    if let Some(rest) = text.strip_prefix('"') {
        let (s, consumed) = parse_basic_string(rest, lineno)?;
        if !rest[consumed..].trim().is_empty() {
            return err(format!("trailing characters after string: `{text}`"));
        }
        return Ok(Token::Str(s));
    }
    match text {
        "true" => return Ok(Token::Bool(true)),
        "false" => return Ok(Token::Bool(false)),
        _ => {}
    }
    let digits: String = text.chars().filter(|c| *c != '_').collect();
    if digits
        .chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        && digits.parse::<f64>().is_ok()
    {
        return Ok(Token::Num(digits));
    }
    err(format!(
        "unsupported value `{text}` (strings, numbers, and booleans only)"
    ))
}

/// Parse a basic string body (after the opening quote); returns the text
/// and how many input bytes were consumed (including the closing quote).
fn parse_basic_string(body: &str, lineno: usize) -> Result<(String, usize), SpecError> {
    let err = |message: String| Err(SpecError::new(format!("line {lineno}"), message));
    let mut out = String::new();
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, i + 1)),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, other)) => return err(format!("unknown escape `\\{other}`")),
                None => return err("unterminated escape".into()),
            },
            c => out.push(c),
        }
    }
    err("unterminated string".into())
}

// -------------------------------------------------------------------- tests

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper2015_lowers_to_the_paper_plan_exactly() {
        assert_eq!(ScenarioSpec::paper2015().plan(), PoolPlan::paper());
    }

    #[test]
    fn rate_rounding_reproduces_every_paper_count() {
        let plan = ScenarioSpec::paper2015().plan();
        assert_eq!(plan.always_down, 169);
        assert_eq!(plan.churn_down, 90);
        assert_eq!(plan.ect_blocked, 8);
        assert_eq!(plan.ect_blocked_flaky, 2);
        assert_eq!(plan.not_ect_blocked_global, 1);
        assert_eq!(plan.not_ect_blocked_ec2, 2);
        assert_eq!(plan.bleach_pe, 8);
        assert_eq!(plan.bleach_prob_access, 2);
    }

    #[test]
    fn empty_toml_is_paper2015() {
        let spec = ScenarioSpec::from_toml_str("").unwrap();
        assert_eq!(spec, ScenarioSpec::paper2015());
        let spec = ScenarioSpec::from_toml_str("# comments only\n\n").unwrap();
        assert_eq!(spec, ScenarioSpec::paper2015());
    }

    #[test]
    fn toml_deltas_apply_and_defaults_hold() {
        let spec = ScenarioSpec::from_toml_str(
            r#"
            name = "lossy"        # inline comment
            seed = 99
            vantage_count = 4
            traceroute = false

            [population]
            servers = 120

            [links]
            edge_loss = 0.05
            vantage_loss_scale = 2.0

            [schedule]
            profile = "quick"
            traces_per_vantage = 2
            "#,
        )
        .unwrap();
        assert_eq!(spec.name, "lossy");
        assert_eq!(spec.seed, 99);
        assert_eq!(spec.vantage_count, 4);
        assert!(!spec.traceroute);
        assert_eq!(spec.population.servers, 120);
        assert_eq!(spec.links.edge_loss, 0.05);
        assert_eq!(spec.schedule.profile, ScheduleProfile::Quick);
        assert_eq!(spec.schedule.traces_per_vantage, 2);
        // untouched keys keep paper defaults
        assert_eq!(spec.population.web_fraction, 0.60);
        assert_eq!(spec.middleboxes.bleach_prob, 0.5);
        let plan = spec.plan();
        assert_eq!(plan.vantage_count, 4);
        assert_eq!(plan.edge_loss, 0.05);
        assert_eq!(plan.loss_scale, 2.0);
    }

    #[test]
    fn dotted_keys_and_sections_are_equivalent() {
        let a = ScenarioSpec::from_toml_str("links.edge_loss = 0.1").unwrap();
        let b = ScenarioSpec::from_toml_str("[links]\nedge_loss = 0.1").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_keys_and_type_mismatches_name_the_path() {
        let e = ScenarioSpec::from_toml_str("[population]\nwebb_fraction = 0.5").unwrap_err();
        assert_eq!(e.path, "population.webb_fraction");
        assert!(e.message.contains("unknown key"), "{e}");
        assert!(e.message.contains("web_fraction"), "lists valid keys: {e}");

        let e = ScenarioSpec::from_toml_str("seed = \"twenty\"").unwrap_err();
        assert_eq!(e.path, "seed");

        let e = ScenarioSpec::from_toml_str("links = 3").unwrap_err();
        assert_eq!(e.path, "links");
        assert!(e.message.contains("table"), "{e}");

        // run-time settings are CLI flags, not spec sections
        for (input, path) in [
            ("[observability]\nmetrics = \"x\"", "observability"),
            ("[resilience]\ncheckpoint = \"x\"", "resilience"),
        ] {
            let e = ScenarioSpec::from_toml_str(input).unwrap_err();
            assert_eq!(e.path, path, "{input}");
            assert!(e.message.contains("unknown key"), "{e}");
        }
    }

    #[test]
    fn validation_rejects_out_of_range_worlds() {
        let e = ScenarioSpec::from_toml_str("vantage_count = 20").unwrap_err();
        assert_eq!(e.path, "vantage_count");
        // delays are bounded before the µs→ns lowering can overflow
        let e = ScenarioSpec::from_toml_str("[links]\ncore_delay_us = 18446744073709551615")
            .unwrap_err();
        assert_eq!(e.path, "links.core_delay_us");
        // non-finite loss scales (1e999 parses to +inf) are named errors,
        // not silently-degenerate loss processes
        let e = ScenarioSpec::from_toml_str("[links]\nvantage_loss_scale = 1e999").unwrap_err();
        assert_eq!(e.path, "links.vantage_loss_scale");
        let mut nan = ScenarioSpec::paper2015();
        nan.links.vantage_loss_scale = f64::NAN;
        assert_eq!(nan.validate().unwrap_err().path, "links.vantage_loss_scale");
        let e = ScenarioSpec::from_toml_str("[links]\nedge_loss = 1.5").unwrap_err();
        assert_eq!(e.path, "links.edge_loss");
        let e = ScenarioSpec::from_toml_str(
            "[population]\nservers = 20\n[middleboxes]\nect_droppers_per_1000 = 900",
        )
        .unwrap_err();
        assert_eq!(e.path, "middleboxes");
        // target chunks: at least one, at most one per server
        let chunks = |n: u64| {
            ScenarioSpec::from_toml_str(&format!(
                "[population]\nservers = 40\n[schedule]\ntarget_chunks = {n}"
            ))
        };
        assert!(chunks(1).is_ok());
        assert!(chunks(40).is_ok(), "one chunk per server fits");
        for n in [0, 41, 100_000_000_000] {
            let e = chunks(n).unwrap_err();
            assert_eq!(e.path, "schedule.target_chunks", "{n}: {e}");
            assert!(e.message.contains(&n.to_string()), "{e}");
        }
        // discovery rounds: the bound passes, one more does not
        let rounds = |n: u64| {
            ScenarioSpec::from_toml_str(&format!(
                "[population]\nservers = 40\n[schedule]\ndiscovery_rounds = {n}"
            ))
        };
        assert!(rounds(MAX_DISCOVERY_ROUNDS as u64).is_ok());
        for n in [MAX_DISCOVERY_ROUNDS as u64 + 1, u64::MAX] {
            let e = rounds(n).unwrap_err();
            assert_eq!(e.path, "schedule.discovery_rounds", "{n}: {e}");
            assert!(e.message.contains(&n.to_string()), "{e}");
        }
        // the destination-AS estimate: the address plan's ceiling passes,
        // one more does not, and u64::MAX cannot overflow the ~N ASes sum
        let ases = |n: u64| ScenarioSpec::from_toml_str(&format!("topology.dest_as_count = {n}"));
        assert!(ases(524_288).is_ok());
        for n in [524_289, u64::MAX] {
            let e = ases(n).unwrap_err();
            assert_eq!(e.path, "topology.dest_as_count", "{n}: {e}");
            assert!(e.message.contains(&n.to_string()), "{e}");
        }
    }

    #[test]
    fn toml_parse_errors_carry_line_numbers() {
        let e = ScenarioSpec::from_toml_str("seed = 1\nnot a pair\n").unwrap_err();
        assert_eq!(e.path, "line 2");
        let e = ScenarioSpec::from_toml_str("[unclosed\n").unwrap_err();
        assert_eq!(e.path, "line 1");
        let e = ScenarioSpec::from_toml_str("seed = 1\nseed = 2\n").unwrap_err();
        assert_eq!(e.path, "line 2");
        assert!(e.message.contains("duplicate"), "{e}");
        // the earliest bad line is the error, whatever its kind
        let e = ScenarioSpec::from_toml_str("[population]\nwebb_fraction = 0.5\nnot a pair\n")
            .unwrap_err();
        assert_eq!(e.path, "population.webb_fraction");
    }

    #[test]
    fn numbers_keep_integer_precision() {
        let spec = ScenarioSpec::from_toml_str("seed = 9007199254740993").unwrap();
        // 2^53 + 1 survives (an f64 round-trip would flatten it)
        assert_eq!(spec.seed, 9_007_199_254_740_993);
        let spec = ScenarioSpec::from_toml_str("seed = 1_000_000").unwrap();
        assert_eq!(spec.seed, 1_000_000);
    }

    #[test]
    fn population_beyond_the_address_plan_is_rejected_with_the_key_path() {
        let spec = |servers: usize| {
            ScenarioSpec::from_toml_str(&format!("[population]\nservers = {servers}"))
        };
        assert!(spec(524_288).is_ok(), "2^19 servers fit the address plan");
        for servers in [524_289, usize::MAX] {
            let err = spec(servers).unwrap_err();
            assert_eq!(err.path, "population.servers", "{err}");
            assert!(err.message.contains(&servers.to_string()), "{err}");
        }
    }

    #[test]
    fn transit_tiers_beyond_one_octet_are_rejected_with_the_key_path() {
        for key in ["t1_count", "t2_count"] {
            let spec =
                |count: usize| ScenarioSpec::from_toml_str(&format!("[topology]\n{key} = {count}"));
            assert!(spec(256).is_ok(), "{key} = 256 fits one octet");
            let err = spec(257).unwrap_err();
            assert_eq!(err.path, format!("topology.{key}"), "{err}");
            assert!(err.message.contains("257"), "{err}");
        }
    }

    #[test]
    fn middlebox_rate_of_exactly_1000_is_accepted() {
        // the boundary: 1000 per 1000 = deploy to every server, legal
        let spec = ScenarioSpec::from_toml_str(
            r#"
            [population]
            servers = 5000
            [middleboxes]
            bleach_access_per_1000 = 1000
            "#,
        )
        .unwrap();
        assert_eq!(spec.middleboxes.bleach_access_per_1000, 1000.0);
        assert_eq!(spec.plan().bleach_access, 5000);
    }

    #[test]
    fn middlebox_rate_above_1000_is_rejected_with_the_key_path() {
        // > 1000 per 1000 would silently saturate at the whole population;
        // it must fail at load time, naming the offending key
        let err = ScenarioSpec::from_toml_str(
            r#"
            [middleboxes]
            ect_droppers_per_1000 = 1000.5
            "#,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("middleboxes.ect_droppers_per_1000"),
            "error must name the key path: {msg}"
        );
        assert!(msg.contains("1000.5"), "error must quote the value: {msg}");

        // population rates share the same per-1000 semantics and bound
        let err = ScenarioSpec::from_toml_str(
            r#"
            [population]
            churn_per_1000 = 2000
            "#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("population.churn_per_1000"),
            "error must name the key path: {err}"
        );
    }

    #[test]
    fn strings_with_escapes_and_comments_parse() {
        let spec = ScenarioSpec::from_toml_str(
            "name = \"a # not-a-comment \\\"quoted\\\"\" # real comment",
        )
        .unwrap();
        assert_eq!(spec.name, "a # not-a-comment \"quoted\"");
    }
}
