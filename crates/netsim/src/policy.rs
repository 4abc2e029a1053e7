//! Per-hop ECN treatment and firewall rules — the middlebox behaviours whose
//! prevalence the measurement study quantifies.

use crate::prefix::Ipv4Prefix;
use ecn_wire::{Ecn, IpProto};
use rand::rngs::SmallRng;
use rand::Rng;
use std::net::Ipv4Addr;

/// What a router does to the ECN field of packets it forwards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EcnPolicy {
    /// RFC-compliant: leave the field alone.
    #[default]
    Pass,
    /// "Bleach": reset ECT(0)/ECT(1)/CE to not-ECT on every packet.
    /// This is the §4.2 phenomenon — 1143 of 155439 observed hops did this.
    Bleach,
    /// Bleach each packet independently with probability `p` — the "125
    /// hops only sometimes strip the ECN mark" case.
    BleachProb(f64),
    /// Treat the ECN bits as part of a legacy TOS octet and preferentially
    /// drop packets with nonzero ECN bits with probability `p` (one of the
    /// paper's hypotheses for <100% differential reachability).
    TosDrop(f64),
    /// CE suppressor: rewrite congestion-experienced back to ECT(0),
    /// erasing the congestion signal while leaving capability declarations
    /// intact. Invisible to a reachability probe, fatal to a congestion
    /// controller — the failure mode an RFC 9000-style validator detects
    /// with a deliberately CE-marked canary packet.
    ClearCe,
    /// L4S-hostile re-marker: rewrite ECT(1) to ECT(0), collapsing the L4S
    /// identifier onto the classic codepoint. ECT(0), CE and not-ECT pass
    /// untouched.
    DowngradeEct1,
}

impl EcnPolicy {
    /// Apply the policy to a packet's ECN codepoint.
    ///
    /// Returns `(new_codepoint, drop)`; `drop == true` means the router
    /// discards the packet (only `TosDrop` does this).
    pub fn apply(&self, ecn: Ecn, rng: &mut SmallRng) -> (Ecn, bool) {
        match *self {
            EcnPolicy::Pass => (ecn, false),
            EcnPolicy::Bleach => (Ecn::NotEct, false),
            EcnPolicy::BleachProb(p) => {
                if ecn != Ecn::NotEct && rng.gen_bool(p.clamp(0.0, 1.0)) {
                    (Ecn::NotEct, false)
                } else {
                    (ecn, false)
                }
            }
            EcnPolicy::TosDrop(p) => {
                if ecn != Ecn::NotEct && rng.gen_bool(p.clamp(0.0, 1.0)) {
                    (ecn, true)
                } else {
                    (ecn, false)
                }
            }
            EcnPolicy::ClearCe => {
                if ecn == Ecn::Ce {
                    (Ecn::Ect0, false)
                } else {
                    (ecn, false)
                }
            }
            EcnPolicy::DowngradeEct1 => {
                if ecn == Ecn::Ect1 {
                    (Ecn::Ect0, false)
                } else {
                    (ecn, false)
                }
            }
        }
    }

    /// Does this policy ever modify or react to ECN bits? (Used by ground
    /// -truth audits in tests.)
    pub fn is_ecn_hostile(&self) -> bool {
        !matches!(self, EcnPolicy::Pass)
    }
}

/// ECN-codepoint matcher for firewall rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcnMatch {
    /// Match every packet.
    Any,
    /// Match ECT(0), ECT(1) and CE — "the packet declares ECN capability".
    EcnCapable,
    /// Match only not-ECT packets (the inverse oddity of Figure 3b).
    NotEct,
    /// Match only CE.
    Ce,
    /// Match only ECT(0) — a middlebox that keys on the classic codepoint
    /// specifically, not on "declares ECN capability".
    Ect0,
    /// Match only ECT(1) — an L4S-selective middlebox.
    Ect1,
}

impl EcnMatch {
    /// Does `ecn` satisfy the matcher?
    pub fn matches(self, ecn: Ecn) -> bool {
        match self {
            EcnMatch::Any => true,
            EcnMatch::EcnCapable => ecn.is_ecn_capable(),
            EcnMatch::NotEct => ecn == Ecn::NotEct,
            EcnMatch::Ce => ecn == Ecn::Ce,
            EcnMatch::Ect0 => ecn == Ecn::Ect0,
            EcnMatch::Ect1 => ecn == Ecn::Ect1,
        }
    }
}

/// What a matching firewall rule does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirewallAction {
    /// Silently discard (what ECT-hostile middleboxes do in practice —
    /// the probe just times out).
    Drop,
    /// Discard and return ICMP administratively-prohibited.
    Reject,
    /// Explicitly allow (terminates rule evaluation).
    Allow,
}

/// One firewall rule: protocol/ECN match plus action.
///
/// The study's key middlebox is expressed as
/// `FirewallRule::drop_ect_udp()`: ECT-marked UDP is discarded while
/// identical TCP passes — the behaviour §4.4 infers from the weak
/// UDP/TCP correlation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirewallRule {
    /// Match only this transport protocol (None = all).
    pub proto: Option<IpProto>,
    /// Match on the ECN codepoint.
    pub ecn: EcnMatch,
    /// Match only packets whose source lies in this prefix (None = all).
    /// Models source-selective middleboxes — e.g. the pair of pool servers
    /// the paper found unreachable with not-ECT packets *only from EC2*
    /// (§4.1, Figure 3b).
    pub src_within: Option<Ipv4Prefix>,
    /// Apply this action when matched.
    pub action: FirewallAction,
    /// Match each packet only with this probability (1.0 = always).
    /// Models flaky/bypassable middleboxes.
    pub probability: f64,
}

impl FirewallRule {
    /// Drop ECN-capable UDP packets — the canonical ECT-hostile middlebox.
    pub fn drop_ect_udp() -> FirewallRule {
        FirewallRule {
            proto: Some(IpProto::Udp),
            ecn: EcnMatch::EcnCapable,
            src_within: None,
            action: FirewallAction::Drop,
            probability: 1.0,
        }
    }

    /// Drop *not-ECT* UDP — the inexplicable Figure 3b behaviour.
    pub fn drop_not_ect_udp() -> FirewallRule {
        FirewallRule {
            proto: Some(IpProto::Udp),
            ecn: EcnMatch::NotEct,
            src_within: None,
            action: FirewallAction::Drop,
            probability: 1.0,
        }
    }

    /// Restrict this rule to packets sourced within `prefix`.
    pub fn from_sources(self, prefix: Ipv4Prefix) -> FirewallRule {
        FirewallRule {
            src_within: Some(prefix),
            ..self
        }
    }

    /// Does the rule fire for this packet?
    pub fn fires(&self, src: Ipv4Addr, proto: IpProto, ecn: Ecn, rng: &mut SmallRng) -> bool {
        if let Some(p) = self.proto {
            if p != proto {
                return false;
            }
        }
        if !self.ecn.matches(ecn) {
            return false;
        }
        if let Some(prefix) = self.src_within {
            if !prefix.contains(src) {
                return false;
            }
        }
        self.probability >= 1.0 || rng.gen_bool(self.probability.clamp(0.0, 1.0))
    }
}

/// An ordered rule chain; first matching rule wins, default allow.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Firewall {
    /// Rules evaluated in order.
    pub rules: Vec<FirewallRule>,
}

impl Firewall {
    /// No rules: allows everything.
    pub fn allow_all() -> Firewall {
        Firewall::default()
    }

    /// A chain with a single rule.
    pub fn single(rule: FirewallRule) -> Firewall {
        Firewall { rules: vec![rule] }
    }

    /// Evaluate the chain.
    pub fn evaluate(
        &self,
        src: Ipv4Addr,
        proto: IpProto,
        ecn: Ecn,
        rng: &mut SmallRng,
    ) -> FirewallAction {
        for rule in &self.rules {
            if rule.fires(src, proto, ecn, rng) {
                return rule.action;
            }
        }
        FirewallAction::Allow
    }

    /// True if no rule can ever drop anything.
    pub fn is_permissive(&self) -> bool {
        self.rules.iter().all(|r| r.action == FirewallAction::Allow)
    }

    /// True when the chain is empty: evaluation is `Allow` without
    /// consulting the RNG. (Stricter than [`Self::is_permissive`] — an
    /// allow rule still draws randomness if it is probabilistic, so only
    /// the empty chain is safe to skip entirely.)
    pub fn is_open(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;

    const ANY_SRC: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 77);

    #[test]
    fn pass_policy_is_identity() {
        let mut rng = derive_rng(1, "t");
        for ecn in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce] {
            assert_eq!(EcnPolicy::Pass.apply(ecn, &mut rng), (ecn, false));
        }
        assert!(!EcnPolicy::Pass.is_ecn_hostile());
    }

    #[test]
    fn bleach_clears_all_ecn() {
        let mut rng = derive_rng(1, "t");
        for ecn in [Ecn::Ect0, Ecn::Ect1, Ecn::Ce, Ecn::NotEct] {
            assert_eq!(EcnPolicy::Bleach.apply(ecn, &mut rng), (Ecn::NotEct, false));
        }
        assert!(EcnPolicy::Bleach.is_ecn_hostile());
    }

    #[test]
    fn bleach_prob_is_probabilistic() {
        let mut rng = derive_rng(2, "t");
        let policy = EcnPolicy::BleachProb(0.5);
        let bleached = (0..2000)
            .filter(|_| policy.apply(Ecn::Ect0, &mut rng).0 == Ecn::NotEct)
            .count();
        assert!(bleached > 800 && bleached < 1200, "bleached {bleached}");
        // not-ECT packets are untouched (and consume no randomness).
        assert_eq!(policy.apply(Ecn::NotEct, &mut rng), (Ecn::NotEct, false));
    }

    #[test]
    fn tos_drop_only_affects_marked_packets() {
        let mut rng = derive_rng(3, "t");
        let policy = EcnPolicy::TosDrop(1.0);
        assert_eq!(policy.apply(Ecn::Ect0, &mut rng), (Ecn::Ect0, true));
        assert_eq!(policy.apply(Ecn::NotEct, &mut rng), (Ecn::NotEct, false));
        // A legacy-TOS hop keys on "nonzero ECN bits", not on ECT(0)
        // specifically: ECT(1) and CE packets are shed just the same.
        assert_eq!(policy.apply(Ecn::Ect1, &mut rng), (Ecn::Ect1, true));
        assert_eq!(policy.apply(Ecn::Ce, &mut rng), (Ecn::Ce, true));
    }

    #[test]
    fn clear_ce_suppresses_only_congestion_marks() {
        let mut rng = derive_rng(9, "t");
        let policy = EcnPolicy::ClearCe;
        assert_eq!(policy.apply(Ecn::Ce, &mut rng), (Ecn::Ect0, false));
        for ecn in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1] {
            assert_eq!(policy.apply(ecn, &mut rng), (ecn, false));
        }
        assert!(policy.is_ecn_hostile());
    }

    #[test]
    fn downgrade_ect1_collapses_l4s_codepoint() {
        let mut rng = derive_rng(10, "t");
        let policy = EcnPolicy::DowngradeEct1;
        assert_eq!(policy.apply(Ecn::Ect1, &mut rng), (Ecn::Ect0, false));
        for ecn in [Ecn::NotEct, Ecn::Ect0, Ecn::Ce] {
            assert_eq!(policy.apply(ecn, &mut rng), (ecn, false));
        }
        assert!(policy.is_ecn_hostile());
    }

    #[test]
    fn codepoint_specific_matchers_distinguish_ect_variants() {
        // EcnCapable conflates ECT(0), ECT(1) and CE by design; the
        // codepoint-specific matchers do not.
        assert!(EcnMatch::Ect0.matches(Ecn::Ect0));
        assert!(!EcnMatch::Ect0.matches(Ecn::Ect1));
        assert!(!EcnMatch::Ect0.matches(Ecn::Ce));
        assert!(!EcnMatch::Ect0.matches(Ecn::NotEct));
        assert!(EcnMatch::Ect1.matches(Ecn::Ect1));
        assert!(!EcnMatch::Ect1.matches(Ecn::Ect0));
        assert!(!EcnMatch::Ect1.matches(Ecn::Ce));
        assert!(!EcnMatch::Ect1.matches(Ecn::NotEct));
    }

    #[test]
    fn ect_udp_firewall_passes_tcp() {
        let mut rng = derive_rng(4, "t");
        let fw = Firewall::single(FirewallRule::drop_ect_udp());
        assert_eq!(
            fw.evaluate(ANY_SRC, IpProto::Udp, Ecn::Ect0, &mut rng),
            FirewallAction::Drop
        );
        assert_eq!(
            fw.evaluate(ANY_SRC, IpProto::Udp, Ecn::NotEct, &mut rng),
            FirewallAction::Allow
        );
        assert_eq!(
            fw.evaluate(ANY_SRC, IpProto::Tcp, Ecn::Ect0, &mut rng),
            FirewallAction::Allow
        );
        assert_eq!(
            fw.evaluate(ANY_SRC, IpProto::Udp, Ecn::Ce, &mut rng),
            FirewallAction::Drop
        );
    }

    #[test]
    fn not_ect_firewall_is_inverse() {
        let mut rng = derive_rng(5, "t");
        let fw = Firewall::single(FirewallRule::drop_not_ect_udp());
        assert_eq!(
            fw.evaluate(ANY_SRC, IpProto::Udp, Ecn::NotEct, &mut rng),
            FirewallAction::Drop
        );
        assert_eq!(
            fw.evaluate(ANY_SRC, IpProto::Udp, Ecn::Ect0, &mut rng),
            FirewallAction::Allow
        );
    }

    #[test]
    fn rule_order_matters() {
        let mut rng = derive_rng(6, "t");
        let fw = Firewall {
            rules: vec![
                FirewallRule {
                    proto: Some(IpProto::Udp),
                    ecn: EcnMatch::Any,
                    src_within: None,
                    action: FirewallAction::Allow,
                    probability: 1.0,
                },
                FirewallRule::drop_ect_udp(),
            ],
        };
        assert_eq!(
            fw.evaluate(ANY_SRC, IpProto::Udp, Ecn::Ect0, &mut rng),
            FirewallAction::Allow
        );
    }

    #[test]
    fn probabilistic_rule_fires_sometimes() {
        let mut rng = derive_rng(7, "t");
        let rule = FirewallRule {
            probability: 0.3,
            ..FirewallRule::drop_ect_udp()
        };
        let fired = (0..2000)
            .filter(|_| rule.fires(ANY_SRC, IpProto::Udp, Ecn::Ect0, &mut rng))
            .count();
        assert!(fired > 450 && fired < 750, "fired {fired}");
    }

    #[test]
    fn src_prefix_restricts_rule() {
        let mut rng = derive_rng(8, "t");
        let ec2: Ipv4Prefix = "54.0.0.0/8".parse().unwrap();
        let fw = Firewall::single(FirewallRule::drop_not_ect_udp().from_sources(ec2));
        let from_ec2 = Ipv4Addr::new(54, 12, 0, 9);
        let from_home = Ipv4Addr::new(81, 2, 3, 4);
        assert_eq!(
            fw.evaluate(from_ec2, IpProto::Udp, Ecn::NotEct, &mut rng),
            FirewallAction::Drop
        );
        assert_eq!(
            fw.evaluate(from_home, IpProto::Udp, Ecn::NotEct, &mut rng),
            FirewallAction::Allow
        );
        assert_eq!(
            fw.evaluate(from_ec2, IpProto::Udp, Ecn::Ect0, &mut rng),
            FirewallAction::Allow
        );
    }

    #[test]
    fn permissiveness_check() {
        assert!(Firewall::allow_all().is_permissive());
        assert!(!Firewall::single(FirewallRule::drop_ect_udp()).is_permissive());
    }
}
