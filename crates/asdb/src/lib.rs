//! # ecn-asdb — IP-to-AS mapping
//!
//! The study maps traceroute hop addresses to autonomous systems to ask
//! *where* ECT marks get stripped: "59.1% of the locations where ECT(0)
//! marks are stripped … were at AS boundaries" (paper §4.2). The paper is
//! explicit that IP-to-AS mapping from traceroute addresses is inexact
//! (citing Zhang et al.); this database reproduces both the mechanism and
//! the caveat — lookups can be configured to miss, and boundary inference
//! works purely from consecutive hop addresses, as in the paper.

use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A prefix-to-ASN table (longest-prefix match).
#[derive(Debug, Clone, Default)]
pub struct AsDb {
    map: PrefixTable,
}

/// Internal LPM structure (binary trie, same algorithm as the router FIB;
/// re-implemented here so `ecn-asdb` stays dependency-free below `serde`).
#[derive(Debug, Clone, Default)]
struct PrefixTable {
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Node {
    children: [u32; 2], // 0 = none
    asn: Option<u32>,
}

impl PrefixTable {
    fn ensure_root(&mut self) {
        if self.nodes.is_empty() {
            self.nodes.push(Node::default());
        }
    }

    fn insert(&mut self, addr: u32, len: u8, asn: u32) {
        self.ensure_root();
        let mut node = 0usize;
        for i in 0..len.min(32) {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            let next = self.nodes[node].children[bit];
            node = if next == 0 {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::default());
                self.nodes[node].children[bit] = idx;
                idx as usize
            } else {
                next as usize
            };
        }
        self.nodes[node].asn = Some(asn);
    }

    fn lookup(&self, addr: u32) -> Option<u32> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut node = 0usize;
        let mut best = self.nodes[0].asn;
        for i in 0..32 {
            let bit = ((addr >> (31 - i)) & 1) as usize;
            let next = self.nodes[node].children[bit];
            if next == 0 {
                break;
            }
            node = next as usize;
            if let Some(asn) = self.nodes[node].asn {
                best = Some(asn);
            }
        }
        best
    }
}

impl AsDb {
    /// An empty database.
    pub fn new() -> AsDb {
        AsDb::default()
    }

    /// Register `prefix/len → asn`.
    pub fn insert(&mut self, prefix: Ipv4Addr, len: u8, asn: u32) {
        self.map.insert(u32::from(prefix), len, asn);
    }

    /// Longest-prefix-match lookup. `None` models the unmappable hops the
    /// paper excludes from the AS-boundary percentage ("where we were able
    /// to determine the AS").
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<u32> {
        self.map.lookup(u32::from(addr))
    }

    /// Classify a hop within a traceroute path: given the previous and
    /// current hop addresses, is the current hop at an AS boundary?
    pub fn classify_hop(&self, prev: Option<Ipv4Addr>, hop: Ipv4Addr) -> HopAsClass {
        let Some(asn) = self.lookup(hop) else {
            return HopAsClass::Unmapped;
        };
        match prev.and_then(|p| self.lookup(p)) {
            None => HopAsClass::Interior { asn },
            Some(prev_asn) if prev_asn == asn => HopAsClass::Interior { asn },
            Some(prev_asn) => HopAsClass::Boundary {
                from: prev_asn,
                to: asn,
            },
        }
    }
}

/// AS classification of one traceroute hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HopAsClass {
    /// Same AS as the previous mapped hop (or no previous hop).
    Interior {
        /// The AS this hop is in.
        asn: u32,
    },
    /// First hop inside a new AS — an inter-AS boundary crossing.
    Boundary {
        /// Previous hop's AS.
        from: u32,
        /// This hop's AS.
        to: u32,
    },
    /// Address not present in the database.
    Unmapped,
}

impl HopAsClass {
    /// Is this a boundary crossing?
    pub fn is_boundary(self) -> bool {
        matches!(self, HopAsClass::Boundary { .. })
    }

    /// The hop's ASN, if mapped.
    pub fn asn(self) -> Option<u32> {
        match self {
            HopAsClass::Interior { asn } => Some(asn),
            HopAsClass::Boundary { to, .. } => Some(to),
            HopAsClass::Unmapped => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> AsDb {
        let mut db = AsDb::new();
        db.insert(Ipv4Addr::new(10, 0, 0, 0), 16, 65001);
        db.insert(Ipv4Addr::new(10, 1, 0, 0), 16, 65002);
        db.insert(Ipv4Addr::new(10, 1, 128, 0), 17, 65003); // more specific
        db
    }

    #[test]
    fn longest_prefix_wins() {
        let db = db();
        assert_eq!(db.lookup(Ipv4Addr::new(10, 0, 1, 1)), Some(65001));
        assert_eq!(db.lookup(Ipv4Addr::new(10, 1, 1, 1)), Some(65002));
        assert_eq!(db.lookup(Ipv4Addr::new(10, 1, 200, 1)), Some(65003));
        assert_eq!(db.lookup(Ipv4Addr::new(192, 0, 2, 1)), None);
    }

    #[test]
    fn boundary_classification() {
        let db = db();
        let a = Ipv4Addr::new(10, 0, 0, 1); // AS 65001
        let b = Ipv4Addr::new(10, 0, 0, 2); // AS 65001
        let c = Ipv4Addr::new(10, 1, 0, 1); // AS 65002
        let x = Ipv4Addr::new(192, 0, 2, 1); // unmapped

        assert_eq!(
            db.classify_hop(None, a),
            HopAsClass::Interior { asn: 65001 }
        );
        assert_eq!(
            db.classify_hop(Some(a), b),
            HopAsClass::Interior { asn: 65001 }
        );
        assert_eq!(
            db.classify_hop(Some(b), c),
            HopAsClass::Boundary {
                from: 65001,
                to: 65002
            }
        );
        assert!(db.classify_hop(Some(b), c).is_boundary());
        assert_eq!(db.classify_hop(Some(a), x), HopAsClass::Unmapped);
        assert_eq!(
            db.classify_hop(Some(x), c),
            HopAsClass::Interior { asn: 65002 }
        );
    }

    #[test]
    fn empty_db_maps_nothing() {
        let db = AsDb::new();
        assert_eq!(db.lookup(Ipv4Addr::new(1, 2, 3, 4)), None);
        assert_eq!(
            db.classify_hop(None, Ipv4Addr::new(1, 2, 3, 4)),
            HopAsClass::Unmapped
        );
    }

    #[test]
    fn default_route_as_zero_length_prefix() {
        let mut db = AsDb::new();
        db.insert(Ipv4Addr::new(0, 0, 0, 0), 0, 64512);
        db.insert(Ipv4Addr::new(10, 0, 0, 0), 8, 65001);
        assert_eq!(db.lookup(Ipv4Addr::new(8, 8, 8, 8)), Some(64512));
        assert_eq!(db.lookup(Ipv4Addr::new(10, 9, 9, 9)), Some(65001));
    }
}
