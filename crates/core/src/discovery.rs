//! NTP pool discovery (§3): repeated DNS queries against `pool.ntp.org`
//! and its country/region subdomains, accumulating the round-robin answers
//! into the measurement target list.

use crate::config::CampaignConfig;
use ecn_geo::{region_countries, region_zone, Region};
use ecn_netsim::Sim;
use ecn_services::pool_query_names;
use ecn_stack::HostHandle;
use ecn_wire::Ecn;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// The full set of zone names the discovery script cycles through:
/// `pool.ntp.org`, `0.`–`3.`, each continental zone, and every country
/// zone the pool serves.
pub fn discovery_names() -> Vec<String> {
    let mut subs: Vec<&str> = Vec::new();
    for region in Region::ALL {
        if let Some(zone) = region_zone(region) {
            subs.push(zone);
        }
        subs.extend(region_countries(region));
    }
    pool_query_names(&subs)
}

/// Result of the discovery phase.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Unique server addresses in first-seen order (the probing order).
    pub targets: Vec<Ipv4Addr>,
    /// DNS queries issued.
    pub queries: usize,
    /// Queries that went unanswered.
    pub timeouts: usize,
}

/// Run the discovery loop from one vantage.
pub fn discover(
    sim: &mut Sim,
    handle: &HostHandle,
    dns: Ipv4Addr,
    cfg: &CampaignConfig,
) -> Discovery {
    let names = discovery_names();
    let sock = handle.udp_bind(0);
    let mut seen: HashSet<Ipv4Addr> = HashSet::new();
    let mut targets: Vec<Ipv4Addr> = Vec::new();
    let mut queries = 0;
    let mut timeouts = 0;
    let mut qid: u16 = 1;
    // Reusable per-query buffers: the loop issues thousands of queries per
    // trace, so the query encode and answer scan must not allocate.
    let mut qbuf: Vec<u8> = Vec::with_capacity(64);
    let mut answer_scratch: Vec<Ipv4Addr> = Vec::new();
    for _round in 0..cfg.discovery_rounds {
        for name in &names {
            qbuf.clear();
            ecn_wire::dns::encode_a_query_into(qid, name, &mut qbuf);
            qid = qid.wrapping_add(1).max(1);
            handle.udp_send(sim, sock, (dns, 53), &qbuf, Ecn::NotEct);
            queries += 1;
            let deadline = sim.now() + cfg.discovery_gap;
            sim.run_until(deadline);
            let mut answered = false;
            while let Some(got) = handle.udp_recv(sock) {
                // Collect before committing so a malformed tail discards
                // the whole message.
                answer_scratch.clear();
                let a = &mut answer_scratch;
                if ecn_wire::dns::for_each_a_record(&got.payload, |addr| a.push(addr)).is_ok() {
                    answered = true;
                    for &addr in answer_scratch.iter() {
                        if seen.insert(addr) {
                            targets.push(addr);
                        }
                    }
                }
            }
            if !answered {
                timeouts += 1;
            }
        }
    }
    handle.udp_close(sock);
    Discovery {
        targets,
        queries,
        timeouts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecn_pool::{build_scenario, PoolPlan};

    #[test]
    fn names_cover_global_continental_and_country_zones() {
        let names = discovery_names();
        assert!(names.contains(&"pool.ntp.org".into()));
        assert!(names.contains(&"0.pool.ntp.org".into()));
        assert!(names.contains(&"europe.pool.ntp.org".into()));
        assert!(names.contains(&"uk.pool.ntp.org".into()));
        assert!(names.contains(&"jp.pool.ntp.org".into()));
        assert!(names.len() > 30);
        // no duplicates
        let set: HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn discovery_enumerates_the_whole_pool() {
        let mut sc = build_scenario(&PoolPlan::scaled(50), 21);
        let handle = sc.vantages[2].handle.clone();
        let cfg = CampaignConfig::quick(21);
        let d = discover(&mut sc.sim, &handle, sc.dns_addr, &cfg);
        assert_eq!(d.targets.len(), 50, "all servers found");
        assert!(d.queries > 100);
        // The access link has bursty loss, so some queries time out — the
        // repeated rounds make discovery robust to that, as in the paper's
        // weeks-long scraping.
        assert!(
            d.timeouts < d.queries / 4,
            "timeouts {} of {}",
            d.timeouts,
            d.queries
        );
        // first-seen order is deterministic for a fixed seed
        let mut sc2 = build_scenario(&PoolPlan::scaled(50), 21);
        let handle2 = sc2.vantages[2].handle.clone();
        let d2 = discover(&mut sc2.sim, &handle2, sc2.dns_addr, &cfg);
        assert_eq!(d.targets, d2.targets);
    }
}
