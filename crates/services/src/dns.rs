//! The pool.ntp.org authoritative DNS: round-robin A records over the pool
//! membership, with country/region subdomains — the discovery mechanism of
//! paper §3 ("a DNS query for pool.ntp.org and each of its country- and
//! region-specific sub-domains in turn").

use ecn_netsim::Nanos;
use ecn_stack::UdpService;
use ecn_wire::Ecn;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How many A records one answer carries (the real pool returns 4).
pub const ANSWERS_PER_QUERY: usize = 4;
/// Answer TTL in seconds (the real pool uses ~150 s so clients re-resolve).
pub const POOL_TTL: u32 = 150;

/// The authoritative zone: name → member addresses, served round-robin.
/// The zone itself is immutable and shareable (`Arc`), so stamping out
/// many simulated worlds from one blueprint costs no zone copies; only
/// the per-world rotation cursor is owned.
pub struct PoolDnsService {
    zone: Arc<HashMap<String, Vec<Ipv4Addr>>>,
    cursor: HashMap<String, usize>,
    /// Reusable question-name buffer (capacity survives queries).
    name_scratch: String,
    /// Reusable answer buffer.
    addr_scratch: Vec<Ipv4Addr>,
}

impl PoolDnsService {
    /// Build from (name, members) pairs. Names are stored lowercase
    /// without a trailing dot.
    pub fn new(zone: impl IntoIterator<Item = (String, Vec<Ipv4Addr>)>) -> PoolDnsService {
        PoolDnsService::new_shared(Arc::new(
            zone.into_iter()
                .map(|(n, v)| (n.trim_end_matches('.').to_ascii_lowercase(), v))
                .collect(),
        ))
    }

    /// Share an already-normalised zone (lowercase names, no trailing
    /// dots) without copying it. Blueprint-backed world instantiation
    /// uses this to give every world the same zone for free.
    pub fn new_shared(zone: Arc<HashMap<String, Vec<Ipv4Addr>>>) -> PoolDnsService {
        PoolDnsService {
            zone,
            cursor: HashMap::new(),
            name_scratch: String::new(),
            addr_scratch: Vec::with_capacity(ANSWERS_PER_QUERY),
        }
    }

    /// Names served by this zone.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.zone.keys().map(String::as_str)
    }

    /// Fill `out` with the next `ANSWERS_PER_QUERY` members for `name`,
    /// advancing the rotation — this is what makes repeated queries
    /// enumerate the pool.
    fn rotate_into(&mut self, name: &str, out: &mut Vec<Ipv4Addr>) {
        out.clear();
        let Some(members) = self.zone.get(name) else {
            return;
        };
        if members.is_empty() {
            return;
        }
        // avoid re-allocating the key String once the cursor exists
        if !self.cursor.contains_key(name) {
            self.cursor.insert(name.to_string(), 0);
        }
        let cur = self.cursor.get_mut(name).expect("just inserted");
        let n = ANSWERS_PER_QUERY.min(members.len());
        for i in 0..n {
            out.push(members[(*cur + i) % members.len()]);
        }
        *cur = (*cur + n) % members.len();
    }
}

impl UdpService for PoolDnsService {
    fn handle(
        &mut self,
        _now: Nanos,
        _src: (Ipv4Addr, u16),
        _ecn: Ecn,
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        let mut name = std::mem::take(&mut self.name_scratch);
        let view = match ecn_wire::dns::read_query(payload, &mut name) {
            // discovery asks one question per query; a query with none or
            // several gets no answer, like malformed input
            Ok(Some(v)) if v.questions == 1 => v,
            _ => {
                self.name_scratch = name;
                return None;
            }
        };
        let mut addrs = std::mem::take(&mut self.addr_scratch);
        self.rotate_into(&name, &mut addrs);
        let mut out = Vec::with_capacity(64);
        ecn_wire::dns::encode_a_response_into(&view, &name, POOL_TTL, &addrs, &mut out);
        self.addr_scratch = addrs;
        self.name_scratch = name;
        Some(out)
    }
}

/// Build the standard pool query names: the bare zone plus `0.`–`3.`
/// prefixes and the given country/region subdomains, mirroring the paper's
/// discovery script.
pub fn pool_query_names(subdomains: &[&str]) -> Vec<String> {
    let mut names = vec!["pool.ntp.org".to_string()];
    for i in 0..4 {
        names.push(format!("{i}.pool.ntp.org"));
    }
    for sub in subdomains {
        names.push(format!("{sub}.pool.ntp.org"));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecn_wire::dns::{encode_a_query_into, for_each_a_record, read_query};
    use ecn_wire::Rcode;

    fn addrs(n: u8) -> Vec<Ipv4Addr> {
        (0..n).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect()
    }

    fn query_bytes(id: u16, name: &str) -> Vec<u8> {
        let mut out = Vec::new();
        encode_a_query_into(id, name, &mut out);
        out
    }

    fn a_records(rsp: &[u8]) -> Vec<Ipv4Addr> {
        let mut out = Vec::new();
        for_each_a_record(rsp, |a| out.push(a)).unwrap();
        out
    }

    fn rcode(rsp: &[u8]) -> Rcode {
        read_query(rsp, &mut String::new())
            .unwrap()
            .unwrap()
            .flags
            .rcode
    }

    fn srv() -> PoolDnsService {
        PoolDnsService::new([
            ("pool.ntp.org".to_string(), addrs(10)),
            ("uk.pool.ntp.org".to_string(), addrs(3)),
            ("empty.pool.ntp.org".to_string(), vec![]),
        ])
    }

    const SRC: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 53053);

    fn ask(s: &mut PoolDnsService, id: u16, name: &str) -> Vec<u8> {
        s.handle(Nanos::ZERO, SRC, Ecn::NotEct, &query_bytes(id, name))
            .unwrap()
    }

    #[test]
    fn serves_four_answers_and_rotates() {
        let mut s = srv();
        let r1 = a_records(&ask(&mut s, 1, "pool.ntp.org"));
        assert_eq!(r1.len(), ANSWERS_PER_QUERY);
        let r2 = a_records(&ask(&mut s, 2, "pool.ntp.org"));
        assert_ne!(r1, r2, "rotation advances");
    }

    #[test]
    fn answers_carry_the_pool_ttl() {
        let mut s = srv();
        let rsp = ask(&mut s, 1, "uk.pool.ntp.org");
        // the first answer follows the echoed question; its TTL sits after
        // the owner name, type and class
        let question = 12 + "uk.pool.ntp.org".len() + 2 + 4;
        let ttl_at = question + "uk.pool.ntp.org".len() + 2 + 4;
        let ttl = u32::from_be_bytes(rsp[ttl_at..ttl_at + 4].try_into().unwrap());
        assert_eq!(ttl, POOL_TTL);
    }

    #[test]
    fn repeated_queries_enumerate_the_whole_pool() {
        let mut s = srv();
        let mut seen = std::collections::HashSet::new();
        for id in 0..10u16 {
            seen.extend(a_records(&ask(&mut s, id, "pool.ntp.org")));
        }
        assert_eq!(seen.len(), 10, "all 10 members discovered");
    }

    #[test]
    fn small_zones_return_each_member_once() {
        let mut s = srv();
        let answers = a_records(&ask(&mut s, 1, "uk.pool.ntp.org"));
        assert_eq!(answers.len(), 3);
        let unique: std::collections::HashSet<_> = answers.into_iter().collect();
        assert_eq!(unique.len(), 3);
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let mut s = srv();
        let rsp = ask(&mut s, 1, "nosuch.example");
        assert!(a_records(&rsp).is_empty());
        assert_eq!(rcode(&rsp), Rcode::NxDomain);
    }

    #[test]
    fn empty_zone_is_nxdomain_too() {
        let mut s = srv();
        let rsp = ask(&mut s, 1, "empty.pool.ntp.org");
        assert!(a_records(&rsp).is_empty());
        assert_eq!(rcode(&rsp), Rcode::NxDomain);
    }

    #[test]
    fn garbage_is_ignored() {
        let mut s = srv();
        assert!(s
            .handle(Nanos::ZERO, SRC, Ecn::NotEct, b"\x00\x01")
            .is_none());
    }

    #[test]
    fn queries_without_exactly_one_question_get_no_answer() {
        let mut s = srv();
        let mut two = query_bytes(7, "pool.ntp.org");
        two[4..6].copy_from_slice(&2u16.to_be_bytes());
        two.extend_from_slice(&query_bytes(7, "uk.pool.ntp.org")[12..]);
        let mut none = query_bytes(7, "pool.ntp.org");
        none.truncate(12);
        none[4..6].copy_from_slice(&0u16.to_be_bytes());
        for payload in [two, none] {
            assert!(s.handle(Nanos::ZERO, SRC, Ecn::NotEct, &payload).is_none());
        }
    }

    #[test]
    fn query_name_list_matches_methodology() {
        let names = pool_query_names(&["uk", "de", "north-america"]);
        assert!(names.contains(&"pool.ntp.org".to_string()));
        assert!(names.contains(&"0.pool.ntp.org".to_string()));
        assert!(names.contains(&"3.pool.ntp.org".to_string()));
        assert!(names.contains(&"uk.pool.ntp.org".to_string()));
        assert!(names.contains(&"north-america.pool.ntp.org".to_string()));
        assert_eq!(names.len(), 1 + 4 + 3);
    }
}
