//! The ground-truth plan: every knob of the simulated Internet, with
//! defaults calibrated so the *measured* campaign results land near the
//! paper's headline numbers. EXPERIMENTS.md records the audit.

use ecn_netsim::Nanos;
use ecn_stack::EcnMode;
use serde::{Deserialize, Serialize};

/// Scenario-wide knobs. `PoolPlan::paper()` reproduces the paper's scale;
/// `PoolPlan::scaled(n)` shrinks everything proportionally for tests.
///
/// Plans are usually not written by hand: [`crate::ScenarioSpec`] is the
/// declarative front-end (TOML spec files, rate-based middlebox
/// deployment) and lowers to a `PoolPlan` via
/// [`crate::ScenarioSpec::plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolPlan {
    /// Number of NTP pool servers (paper: 2500).
    pub servers: usize,
    /// Destination (server-hosting) AS count (paper-derived: ~1200, giving
    /// 1400 total ASes with transit, as §4.2 reports).
    pub dest_as_count: usize,
    /// Tier-1 transit AS count (fully meshed core).
    pub t1_count: usize,
    /// Tier-2 (regional transit) AS count: 188 + 12 T1 + 1200 dest = 1400.
    pub t2_count: usize,

    /// Fraction of servers running a co-located web server.
    /// Calibrated: avg 1334 TCP-reachable of 2253 up ⇒ ~59.2% of all 2500.
    pub web_fraction: f64,
    /// Among web servers: fraction negotiating ECN (paper: 82.0% of
    /// TCP-reachable).
    pub web_ecn_on: f64,
    /// Among web servers: fraction with the broken reflect-flags stack.
    pub web_ecn_reflect: f64,

    /// Servers that never answer (volunteers gone, target list stale).
    pub always_down: usize,
    /// Servers that leave the pool between the April/May and July/August
    /// batches ("servers leaving the NTP pool between the two sets of
    /// measurements", §4.1).
    pub churn_down: usize,
    /// When the churned servers go dark (the campaign's batch-2 start).
    pub churn_at: Nanos,
    /// Fraction of live servers with short random outages.
    pub flapping_fraction: f64,
    /// Mean up-time between flaps.
    pub flap_mean_up: Nanos,
    /// Mean outage length.
    pub flap_mean_down: Nanos,

    /// Servers behind a middlebox that always drops ECT-marked UDP
    /// (persistently ECT-unreachable; Figure 3a's tall spikes: 9–14 seen).
    pub ect_blocked: usize,
    /// Servers whose ECT-dropping middlebox sits on one branch of an ECMP
    /// pair, so route churn sometimes bypasses it (§4.1's
    /// "high, but not 100%" differential reachability).
    pub ect_blocked_flaky: usize,
    /// Servers that drop **not-ECT** UDP from everywhere (Figure 3b: one).
    pub not_ect_blocked_global: usize,
    /// Servers that drop not-ECT UDP only from EC2 source ranges
    /// (Figure 3b: the two Phoenix Public Library servers).
    pub not_ect_blocked_ec2: usize,

    /// ECN-bleaching routers at provider-edge (customer-facing) positions:
    /// observed strip location is the customer border = AS boundary.
    pub bleach_pe: usize,
    /// Bleachers at dest-AS border routers (observed location interior).
    pub bleach_border: usize,
    /// Bleachers at dest-AS interior routers.
    pub bleach_interior: usize,
    /// Bleachers at per-server access routers (short red tails).
    pub bleach_access: usize,
    /// Probabilistic (sometimes-strip) bleachers at PE positions.
    pub bleach_prob_pe: usize,
    /// Probabilistic bleachers at access positions.
    pub bleach_prob_access: usize,
    /// Per-packet strip probability of the probabilistic bleachers.
    pub bleach_prob: f64,

    /// Destination ASes whose edge link runs a RED-style probabilistic
    /// CE marker (the modern-ECN scenario family; `0` = the paper's
    /// 2015 world, byte-identical to plans predating the knob).
    #[serde(default)]
    pub aqm_red: usize,
    /// Destination ASes whose edge link is a rate-limited bottleneck
    /// with a CoDel-style sojourn-threshold CE marker (L4S-flavoured).
    #[serde(default)]
    pub aqm_codel: usize,
    /// Per-markable-packet CE probability of the RED-style markers.
    #[serde(default)]
    pub aqm_red_prob: f64,
    /// Sojourn threshold of the CoDel-style markers.
    #[serde(default)]
    pub aqm_codel_target: Nanos,
    /// Serialisation rate of the CoDel-marked bottleneck links, bits/s
    /// (finite so probe trains actually build sojourn).
    #[serde(default)]
    pub aqm_rate_bps: u64,
    /// Destination ASes whose provider edge erases CE back to ECT(0)
    /// (a congestion-signal suppressor, caught by the validator's CE
    /// canary).
    #[serde(default)]
    pub ce_suppress: usize,
    /// Destination ASes whose provider edge rewrites ECT(1) to ECT(0)
    /// (L4S-hostile re-markers).
    #[serde(default)]
    pub ect1_downgrade: usize,

    /// Share of pool servers answering with the plain-OK page instead of
    /// the standard redirect.
    pub plain_ok_fraction: f64,

    /// Vantage points used, as a prefix of the Table 2 ordering
    /// (paper: all 13). See [`crate::all_vantages`].
    pub vantage_count: usize,
    /// Multiplier applied to every vantage access-link loss probability
    /// (`1.0` = the calibrated Table 2 noise, bit-identical to plans
    /// predating the knob).
    pub loss_scale: f64,
    /// Extra independent (Bernoulli) loss on every destination-side
    /// access-chain link (`0.0` = clean edges, the paper's world).
    pub edge_loss: f64,
    /// One-way delay of core (tier-1/tier-2) links.
    pub core_delay: Nanos,
    /// One-way delay of edge (access/leaf) links.
    pub edge_delay: Nanos,
}

impl PoolPlan {
    /// Full paper scale.
    pub fn paper() -> PoolPlan {
        PoolPlan {
            servers: 2500,
            dest_as_count: 1200,
            t1_count: 12,
            t2_count: 188,
            web_fraction: 0.60,
            web_ecn_on: 0.84,
            web_ecn_reflect: 0.01,
            always_down: 169,
            churn_down: 90,
            churn_at: Nanos::from_secs(86_400 * 60), // default; campaign overrides
            flapping_fraction: 0.6,
            flap_mean_up: Nanos::from_secs(2 * 3600),
            flap_mean_down: Nanos::from_secs(45),
            ect_blocked: 8,
            ect_blocked_flaky: 2,
            not_ect_blocked_global: 1,
            not_ect_blocked_ec2: 2,
            bleach_pe: 8,
            bleach_border: 1,
            bleach_interior: 1,
            bleach_access: 2,
            bleach_prob_pe: 1,
            bleach_prob_access: 2,
            bleach_prob: 0.5,
            aqm_red: 0,
            aqm_codel: 0,
            aqm_red_prob: 0.1,
            aqm_codel_target: Nanos(500_000), // 0.5 ms
            aqm_rate_bps: 1_000_000,          // 1 Mbit/s bottleneck
            ce_suppress: 0,
            ect1_downgrade: 0,
            plain_ok_fraction: 0.08,
            vantage_count: 13,
            loss_scale: 1.0,
            edge_loss: 0.0,
            core_delay: Nanos(8_000_000), // 8 ms
            edge_delay: Nanos(2_000_000), // 2 ms
        }
    }

    /// A proportionally shrunk plan for fast tests. Keeps at least one of
    /// each special behaviour so every code path stays exercised.
    pub fn scaled(servers: usize) -> PoolPlan {
        let f = servers as f64 / 2500.0;
        let scale = |n: usize| ((n as f64 * f).round() as usize).max(1);
        PoolPlan {
            servers,
            dest_as_count: (servers / 2).max(4),
            t1_count: 3,
            t2_count: ((188.0 * f) as usize).clamp(3, 188),
            always_down: ((169.0 * f) as usize).max(1),
            churn_down: ((90.0 * f) as usize).max(1),
            ect_blocked: scale(8).min(servers / 8).max(1),
            ect_blocked_flaky: 1,
            not_ect_blocked_global: 1,
            not_ect_blocked_ec2: 1,
            bleach_pe: scale(8).min(4),
            bleach_border: 1,
            bleach_interior: 1,
            bleach_access: 1,
            bleach_prob_pe: 1,
            bleach_prob_access: 1,
            ..PoolPlan::paper()
        }
    }

    /// Total ASes in the scenario (§4.2 reports 1400).
    pub fn total_as_count(&self) -> usize {
        self.t1_count + self.t2_count + self.dest_as_count
    }

    /// The vantage points this plan measures from: the first
    /// [`Self::vantage_count`] entries of the Table 2 ordering, with
    /// every access-link loss model scaled by [`Self::loss_scale`].
    ///
    /// With `vantage_count = 13` and `loss_scale = 1.0` (the paper
    /// defaults) this is exactly [`crate::all_vantages`], bit for bit.
    pub fn vantages(&self) -> Vec<crate::vantage::VantageSpec> {
        let mut specs = crate::vantage::all_vantages();
        let keep = self.vantage_count.clamp(1, specs.len());
        specs.truncate(keep);
        for spec in &mut specs {
            spec.loss_up = spec.loss_up.scaled(self.loss_scale);
            spec.loss_down = spec.loss_down.scaled(self.loss_scale);
        }
        specs
    }
}

/// Middlebox/oddity behaviour attached to one server's access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialBehaviour {
    /// Nothing unusual.
    None,
    /// Access middlebox drops ECT-marked UDP. `flaky` = on one ECMP branch
    /// only.
    EctBlocked {
        /// Only one of two equal-cost branches carries the middlebox.
        flaky: bool,
    },
    /// Access middlebox drops not-ECT UDP. `ec2_only` = only for sources
    /// within 54.0.0.0/8 (the EC2 vantage super-prefix).
    NotEctBlocked {
        /// Restrict to EC2-sourced packets.
        ec2_only: bool,
    },
}

/// Web-server half of a profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WebProfile {
    /// The server stack's ECN negotiation behaviour.
    pub ecn: EcnMode,
    /// Redirect or plain page.
    pub plain_ok: bool,
}

/// Everything true about one pool member.
#[derive(Debug, Clone)]
pub struct ServerProfile {
    /// Index in the population (stable across runs of the same seed).
    pub index: usize,
    /// Continental region (Table 1 marginals).
    pub region: ecn_geo::Region,
    /// Country code for DNS zones.
    pub country: String,
    /// Web server, if the volunteer runs one.
    pub web: Option<WebProfile>,
    /// Availability schedule.
    pub availability: ecn_stack::AvailabilityModel,
    /// Middlebox oddity on the access path.
    pub special: SpecialBehaviour,
    /// NTP stratum advertised.
    pub stratum: u8,
    /// Access-chain length in routers (1–4; calibrates §4.2 hop counts).
    pub access_chain_len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_matches_paper_counts() {
        let p = PoolPlan::paper();
        assert_eq!(p.servers, 2500);
        assert_eq!(p.total_as_count(), 1400);
        assert_eq!(p.ect_blocked + p.ect_blocked_flaky, 10);
        assert_eq!(p.not_ect_blocked_global + p.not_ect_blocked_ec2, 3);
    }

    #[test]
    fn scaled_plan_keeps_special_behaviours() {
        let p = PoolPlan::scaled(50);
        assert_eq!(p.servers, 50);
        assert!(p.ect_blocked >= 1);
        assert!(p.not_ect_blocked_global >= 1);
        assert!(p.always_down >= 1);
        assert!(p.dest_as_count >= 4);
        assert!(p.total_as_count() < 100);
    }

    #[test]
    fn default_vantage_selection_is_all_vantages() {
        let plan = PoolPlan::paper();
        let selected = plan.vantages();
        let all = crate::vantage::all_vantages();
        assert_eq!(selected.len(), all.len());
        for (s, a) in selected.iter().zip(&all) {
            assert_eq!(s.key, a.key);
            assert_eq!(
                s.loss_up, a.loss_up,
                "{}: loss_scale 1.0 is identity",
                s.key
            );
            assert_eq!(s.loss_down, a.loss_down);
        }
    }

    #[test]
    fn vantage_count_truncates_in_table2_order() {
        let plan = PoolPlan {
            vantage_count: 4,
            loss_scale: 2.0,
            ..PoolPlan::paper()
        };
        let v = plan.vantages();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].key, "perkins-home");
        assert_eq!(v[3].key, "uglasgow-wireless");
        assert!(v.iter().all(|s| !s.ec2), "first four are the non-EC2 set");
        // scaling applied
        let base = crate::vantage::all_vantages();
        assert!(v[0].loss_up.mean_loss() > base[0].loss_up.mean_loss() * 1.5);
    }

    #[test]
    fn scaled_special_counts_fit_population() {
        for n in [20, 50, 100, 400] {
            let p = PoolPlan::scaled(n);
            let special = p.ect_blocked
                + p.ect_blocked_flaky
                + p.not_ect_blocked_global
                + p.not_ect_blocked_ec2;
            assert!(
                special + p.always_down + p.churn_down < n,
                "plan for {n} over-allocates: {special} special"
            );
        }
    }
}
