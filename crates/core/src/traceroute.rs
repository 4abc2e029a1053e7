//! ECN-aware traceroute (§4.2): TTL-limited ECT(0)-marked UDP probes; each
//! ICMP time-exceeded quotes the probe's IP header *as the router saw it*,
//! so comparing the quoted ECN field with what was sent reveals where on
//! the path the mark was stripped — the technique of Bauer et al. and
//! tracebox.

use crate::config::TracerouteConfig;
use ecn_netsim::Sim;
use ecn_stack::HostHandle;
use ecn_wire::{Ecn, IcmpMessage, Ipv4Header, UdpHeader};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// What one TTL step observed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HopObservation {
    /// Probe TTL.
    pub ttl: u8,
    /// Responding router address (None = all probes unanswered: `*`).
    pub router: Option<Ipv4Addr>,
    /// Quoted ECN codepoint per answered probe, in arrival order.
    pub quoted_ecn: Vec<Ecn>,
}

impl HopObservation {
    /// Did every answered probe still carry the sent mark?
    pub fn unmodified(&self, sent: Ecn) -> bool {
        self.quoted_ecn.iter().all(|e| *e == sent)
    }

    /// Did any answered probe show a modified mark?
    pub fn modified(&self, sent: Ecn) -> bool {
        self.quoted_ecn.iter().any(|e| *e != sent)
    }
}

/// One traceroute run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceroutePath {
    /// Destination probed.
    pub dst: Ipv4Addr,
    /// The codepoint probes were sent with.
    pub sent_ecn: Ecn,
    /// Hop observations in TTL order (trailing silence trimmed).
    pub hops: Vec<HopObservation>,
    /// An ICMP port-unreachable from the destination arrived (rare for
    /// pool servers; "traces stop generally one hop before the
    /// destination").
    pub reached_destination: bool,
}

impl TraceroutePath {
    /// Addresses of responding hops, in path order.
    pub fn responding_hops(&self) -> Vec<Ipv4Addr> {
        self.hops.iter().filter_map(|h| h.router).collect()
    }
}

/// Run one ECN traceroute.
pub fn traceroute(
    sim: &mut Sim,
    handle: &HostHandle,
    dst: Ipv4Addr,
    cfg: &TracerouteConfig,
) -> TraceroutePath {
    let sock = handle.udp_bind(0);
    let mut hops: Vec<HopObservation> = Vec::new();
    let mut port_map: HashMap<u16, usize> = HashMap::new(); // dport -> hop idx
    let mut reached = false;
    let mut silent_streak = 0u32;

    'sweep: for ttl in 1..=cfg.max_ttl {
        let hop_idx = hops.len();
        hops.push(HopObservation {
            ttl,
            router: None,
            quoted_ecn: Vec::new(),
        });
        for probe in 0..cfg.probes_per_ttl {
            let dport = cfg
                .base_port
                .wrapping_add((u16::from(ttl) - 1) * cfg.probes_per_ttl as u16 + probe as u16);
            port_map.insert(dport, hop_idx);
            handle.udp_send_probe(sim, sock, (dst, dport), b"ecn-traceroute", cfg.ecn, ttl);
            let deadline = sim.now() + cfg.probe_timeout;
            sim.run_until(deadline);
            // Drain ICMP; late answers for earlier TTLs are filed correctly
            // via the port map.
            while let Some(icmp) = handle.icmp_recv() {
                let (quoted, is_port_unreach) = match &icmp.msg {
                    IcmpMessage::TimeExceeded { quoted } => (quoted, false),
                    IcmpMessage::DestUnreachable { code, quoted } => {
                        (quoted, matches!(code, ecn_wire::DestUnreachCode::Port))
                    }
                    _ => continue,
                };
                let Ok(qh) = Ipv4Header::decode(quoted) else {
                    continue;
                };
                if qh.dst != dst {
                    continue; // not this traceroute
                }
                let Ok(quh) = UdpHeader::decode_unverified(&quoted[20..]) else {
                    continue;
                };
                if quh.src_port != sock {
                    continue;
                }
                let Some(&idx) = port_map.get(&quh.dst_port) else {
                    continue;
                };
                if is_port_unreach && icmp.from == dst {
                    reached = true;
                }
                let hop = &mut hops[idx];
                hop.router = Some(icmp.from);
                hop.quoted_ecn.push(qh.ecn);
            }
        }
        if reached {
            break 'sweep;
        }
        if hops[hop_idx].router.is_none() {
            silent_streak += 1;
            if silent_streak >= cfg.stop_after_silent {
                break 'sweep;
            }
        } else {
            silent_streak = 0;
        }
    }
    handle.udp_close(sock);
    // trim trailing silent hops
    while hops.last().map(|h| h.router.is_none()).unwrap_or(false) {
        hops.pop();
    }
    TraceroutePath {
        dst,
        sent_ecn: cfg.ecn,
        hops,
        reached_destination: reached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecn_netsim::EcnPolicy;
    use ecn_pool::{build_scenario, PoolPlan};

    #[test]
    fn traceroute_walks_the_path_in_order() {
        let mut sc = build_scenario(&PoolPlan::scaled(30), 31);
        let handle = sc.vantages[0].handle.clone();
        let dst = sc.servers[0].addr;
        let path = traceroute(&mut sc.sim, &handle, dst, &TracerouteConfig::default());
        assert!(
            path.hops.len() >= 8,
            "path has realistic depth: {}",
            path.hops.len()
        );
        // first hop is the vantage CPE (81.0.0.1), all hops answered
        assert_eq!(path.hops[0].router, Some(Ipv4Addr::new(81, 0, 0, 1)));
        let mut quotes = 0usize;
        for h in &path.hops {
            assert!(h.router.is_some());
            assert!(
                (1..=3).contains(&h.quoted_ecn.len()),
                "1..=3 probes answered per TTL"
            );
            quotes += h.quoted_ecn.len();
        }
        // the access link is (mildly) lossy, so allow a few missing probes
        assert!(
            quotes * 10 >= path.hops.len() * 3 * 9,
            "≥90% of probes answered: {quotes}/{}",
            path.hops.len() * 3
        );
        // pool servers don't answer traceroute: destination not reached
        assert!(!path.reached_destination);
        // hop addresses are distinct (no loops)
        let addrs = path.responding_hops();
        let set: std::collections::HashSet<_> = addrs.iter().collect();
        assert_eq!(set.len(), addrs.len());
    }

    #[test]
    fn clean_path_quotes_are_all_ect0() {
        let mut sc = build_scenario(&PoolPlan::scaled(30), 32);
        let handle = sc.vantages[5].handle.clone();
        // find a server in an AS with no bleacher: probe a few until one
        // shows fully unmodified quotes
        let mut clean_found = false;
        let targets: Vec<Ipv4Addr> = sc.servers.iter().map(|s| s.addr).take(10).collect();
        for dst in targets {
            let path = traceroute(&mut sc.sim, &handle, dst, &TracerouteConfig::default());
            if path.hops.iter().all(|h| h.unmodified(Ecn::Ect0)) {
                clean_found = true;
                break;
            }
        }
        assert!(clean_found, "most paths pass ECT(0) unmodified");
    }

    #[test]
    fn bleacher_shows_as_red_run_downstream() {
        let mut sc = build_scenario(&PoolPlan::scaled(40), 33);
        // force a known bleacher: make the first server's dest-AS border
        // strip (we find the border by tracerouting first, then compare).
        let handle = sc.vantages[7].handle.clone();
        let dst = sc.servers[0].addr;
        let before = traceroute(&mut sc.sim, &handle, dst, &TracerouteConfig::default());
        // plant a bleach at the 4th-from-last responding hop
        let hops = before.responding_hops();
        assert!(hops.len() >= 5);
        let target_hop = hops[hops.len() - 4];
        let node = sc.sim.find_node(target_hop).expect("router node");
        sc.sim.set_ecn_policy(node, EcnPolicy::Bleach);

        let after = traceroute(&mut sc.sim, &handle, dst, &TracerouteConfig::default());
        let hops_after = after.responding_hops();
        let pos = hops_after.iter().position(|h| *h == target_hop).unwrap();
        // the bleacher itself still quotes the original mark …
        assert!(after.hops[pos].unmodified(Ecn::Ect0));
        // … every responding hop after it quotes not-ECT (the red run)
        for h in &after.hops[pos + 1..] {
            if h.router.is_some() {
                assert!(h.modified(Ecn::Ect0), "hop {:?} should be red", h.router);
                assert!(h.quoted_ecn.iter().all(|e| *e == Ecn::NotEct));
            }
        }
        assert!(after.hops[pos + 1..].iter().any(|h| h.router.is_some()));
    }

    #[test]
    fn hop_observation_classification() {
        let hop = |quotes: Vec<Ecn>| HopObservation {
            ttl: 1,
            router: Some(Ipv4Addr::new(1, 1, 1, 1)),
            quoted_ecn: quotes,
        };
        assert!(hop(vec![Ecn::Ect0, Ecn::Ect0]).unmodified(Ecn::Ect0));
        assert!(hop(vec![Ecn::NotEct]).modified(Ecn::Ect0));
    }
}
