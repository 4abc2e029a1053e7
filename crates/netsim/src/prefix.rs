//! IPv4 prefixes and a longest-prefix-match trie.
//!
//! Used twice in the system: as the forwarding table of every simulated
//! router, and as the IP→AS database (`ecn-asdb`). The trie is a plain
//! binary trie over address bits — small, predictable, and easy to verify.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 prefix: address plus mask length, canonicalised so host bits are
/// zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// Construct, zeroing any host bits. `len` is clamped to 32.
    pub fn new(addr: Ipv4Addr, len: u8) -> Ipv4Prefix {
        let len = len.min(32);
        let raw = u32::from(addr);
        let masked = if len == 0 {
            0
        } else {
            raw & (!0u32 << (32 - len))
        };
        Ipv4Prefix { addr: masked, len }
    }

    /// A host route.
    pub fn host(addr: Ipv4Addr) -> Ipv4Prefix {
        Ipv4Prefix::new(addr, 32)
    }

    /// The base address.
    pub fn addr(self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// Mask length.
    #[allow(clippy::len_without_is_empty)] // a /0 prefix is not "empty"
    pub fn len(self) -> u8 {
        self.len
    }

    /// Does this prefix contain `ip`?
    pub fn contains(self, ip: Ipv4Addr) -> bool {
        if self.len == 0 {
            return true;
        }
        (u32::from(ip) & (!0u32 << (32 - self.len))) == self.addr
    }

    /// Number of addresses covered.
    pub fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// The `i`-th address inside the prefix (wraps if out of range —
    /// callers allocate within bounds).
    pub fn nth(self, i: u32) -> Ipv4Addr {
        Ipv4Addr::from(self.addr.wrapping_add(i % (self.size() as u32).max(1)))
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (a, l) = s.split_once('/').ok_or_else(|| format!("no '/' in {s}"))?;
        let addr: Ipv4Addr = a.parse().map_err(|e| format!("{e}"))?;
        let len: u8 = l.parse().map_err(|e| format!("{e}"))?;
        if len > 32 {
            return Err(format!("mask length {len} > 32"));
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

/// Longest-prefix-match map from [`Ipv4Prefix`] to `T`.
///
/// A path-compressed binary radix trie: each node carries the full prefix
/// it sits at, so a chain of single-child bit steps collapses into one
/// node. A host route costs one leaf (plus at most one branch node)
/// instead of 32 bit-level nodes — the difference between per-router
/// forwarding tables dominating a 10⁵-server world's memory and being
/// negligible. Lookup semantics are identical to the uncompressed trie.
#[derive(Debug, Clone)]
pub struct PrefixMap<T> {
    /// Node 0 is the root (the `0.0.0.0/0` position); children always
    /// strictly extend their parent's prefix.
    nodes: Vec<TrieNode<T>>,
    len: usize,
}

#[derive(Debug, Clone)]
struct TrieNode<T> {
    /// The prefix this node sits at (host bits zero).
    addr: u32,
    plen: u8,
    children: [Option<u32>; 2],
    value: Option<T>,
}

impl<T> TrieNode<T> {
    fn at(addr: u32, plen: u8) -> TrieNode<T> {
        TrieNode {
            addr,
            plen,
            children: [None, None],
            value: None,
        }
    }
}

/// Bit `i` of `addr`, counting from the most significant (`i < 32`).
#[inline]
fn bit_at(addr: u32, i: u8) -> usize {
    ((addr >> (31 - i)) & 1) as usize
}

/// Does the prefix `(addr, plen)` cover `ip`?
#[inline]
fn covers(addr: u32, plen: u8, ip: u32) -> bool {
    plen == 0 || (addr ^ ip) >> (32 - plen) == 0
}

impl<T> Default for PrefixMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixMap<T> {
    /// An empty map.
    pub fn new() -> PrefixMap<T> {
        PrefixMap {
            nodes: vec![TrieNode::at(0, 0)],
            len: 0,
        }
    }

    /// Number of prefixes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert or replace; returns the previous value for the exact prefix.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let qaddr = u32::from(prefix.addr());
        let qlen = prefix.len();
        let mut node = 0usize;
        loop {
            // invariant: nodes[node] covers the query prefix
            if self.nodes[node].plen == qlen {
                let old = self.nodes[node].value.replace(value);
                if old.is_none() {
                    self.len += 1;
                }
                return old;
            }
            let bit = bit_at(qaddr, self.nodes[node].plen);
            let Some(child) = self.nodes[node].children[bit] else {
                let mut n = TrieNode::at(qaddr, qlen);
                n.value = Some(value);
                let leaf = self.push(n);
                self.nodes[node].children[bit] = Some(leaf);
                self.len += 1;
                return None;
            };
            let child = child as usize;
            let (caddr, clen) = (self.nodes[child].addr, self.nodes[child].plen);
            // longest prefix the query shares with the child's position
            let shared = (((qaddr ^ caddr).leading_zeros() as u8).min(qlen)).min(clen);
            if shared == clen {
                // child's prefix covers the query: descend
                node = child;
            } else if shared == qlen {
                // the query sits between node and child: splice it in
                let mut n = TrieNode::at(qaddr, qlen);
                n.value = Some(value);
                n.children[bit_at(caddr, qlen)] = Some(child as u32);
                let mid = self.push(n);
                self.nodes[node].children[bit] = Some(mid);
                self.len += 1;
                return None;
            } else {
                // diverge below `shared`: branch node forks child and query
                let fork_addr = if shared == 0 {
                    0
                } else {
                    qaddr & (!0u32 << (32 - shared))
                };
                let fork = self.push(TrieNode::at(fork_addr, shared));
                let mut n = TrieNode::at(qaddr, qlen);
                n.value = Some(value);
                let leaf = self.push(n);
                let f = fork as usize;
                self.nodes[f].children[bit_at(caddr, shared)] = Some(child as u32);
                self.nodes[f].children[bit_at(qaddr, shared)] = Some(leaf);
                self.nodes[node].children[bit] = Some(fork);
                self.len += 1;
                return None;
            }
        }
    }

    /// Append a node, returning its index. Storage doubles from the
    /// current length rather than jumping from one node to four as `Vec`
    /// does, so the two-node table nearly every router holds (a default
    /// route and one more) has no slack for [`Self::shrink_to_fit`] to
    /// release. Releasing it would leave a freed tail per router in the
    /// middle of the heap, and the worlds stamped later would scatter
    /// their allocations into those holes (about 10% slower stamps).
    fn push(&mut self, node: TrieNode<T>) -> u32 {
        if self.nodes.len() == self.nodes.capacity() {
            self.nodes.reserve_exact(self.nodes.len());
        }
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Release the spare capacity insertion left behind (a frozen table
    /// takes no more inserts).
    pub fn shrink_to_fit(&mut self) {
        self.nodes.shrink_to_fit();
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<&T> {
        self.lookup_node(u32::from(ip))
            .and_then(|n| self.nodes[n].value.as_ref())
    }

    /// Deepest valued node covering `addr`.
    fn lookup_node(&self, addr: u32) -> Option<usize> {
        let mut node = 0usize;
        let mut best = self.nodes[0].value.as_ref().map(|_| 0usize);
        loop {
            let n = &self.nodes[node];
            if n.plen == 32 {
                return best;
            }
            let Some(child) = n.children[bit_at(addr, n.plen)] else {
                return best;
            };
            let child = child as usize;
            let c = &self.nodes[child];
            if !covers(c.addr, c.plen, addr) {
                return best;
            }
            if c.value.is_some() {
                best = Some(child);
            }
            node = child;
        }
    }

    /// Exact-prefix lookup.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&T> {
        let qaddr = u32::from(prefix.addr());
        let qlen = prefix.len();
        let mut node = 0usize;
        loop {
            let n = &self.nodes[node];
            if n.plen == qlen {
                return n.value.as_ref();
            }
            let child = n.children[bit_at(qaddr, n.plen)]? as usize;
            let c = &self.nodes[child];
            if c.plen > qlen || !covers(c.addr, c.plen, qaddr) {
                return None;
            }
            node = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn prefix_canonicalises_host_bits() {
        let pre = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16);
        assert_eq!(pre.to_string(), "10.1.0.0/16");
        assert!(pre.contains(Ipv4Addr::new(10, 1, 255, 255)));
        assert!(!pre.contains(Ipv4Addr::new(10, 2, 0, 0)));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "203.0.113.7/32"] {
            assert_eq!(p(s).to_string(), s);
        }
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn zero_length_prefix_contains_everything() {
        let d = p("0.0.0.0/0");
        assert!(d.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(d.contains(Ipv4Addr::new(0, 0, 0, 0)));
        assert_eq!(d.size(), 1 << 32);
    }

    #[test]
    fn longest_match_wins() {
        let mut m = PrefixMap::new();
        m.insert(p("0.0.0.0/0"), "default");
        m.insert(p("10.0.0.0/8"), "ten");
        m.insert(p("10.1.0.0/16"), "ten-one");
        m.insert(p("10.1.2.3/32"), "host");
        assert_eq!(m.lookup(Ipv4Addr::new(10, 1, 2, 3)), Some(&"host"));
        assert_eq!(m.lookup(Ipv4Addr::new(10, 1, 9, 9)), Some(&"ten-one"));
        assert_eq!(m.lookup(Ipv4Addr::new(10, 200, 0, 1)), Some(&"ten"));
        assert_eq!(m.lookup(Ipv4Addr::new(8, 8, 8, 8)), Some(&"default"));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn lookup_without_default_can_miss() {
        let mut m = PrefixMap::new();
        m.insert(p("192.0.2.0/24"), 1);
        assert_eq!(m.lookup(Ipv4Addr::new(192, 0, 3, 1)), None);
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut m = PrefixMap::new();
        assert_eq!(m.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(m.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(p("10.0.0.0/8")), Some(&2));
        assert_eq!(m.get(p("10.0.0.0/9")), None);
    }

    /// Dense sibling host routes under one branch node — the forwarding
    /// shape every dest-AS router table has (many /32s, one default).
    #[test]
    fn sibling_host_routes_fork_correctly() {
        let mut m = PrefixMap::new();
        m.insert(p("0.0.0.0/0"), 0u32);
        for last in 0..64u32 {
            m.insert(
                Ipv4Prefix::host(Ipv4Addr::from(0xc000_0200 + last)),
                last + 1,
            );
        }
        for last in 0..64u32 {
            let ip = Ipv4Addr::from(0xc000_0200 + last);
            assert_eq!(m.lookup(ip), Some(&(last + 1)), "{ip}");
            assert_eq!(m.get(Ipv4Prefix::host(ip)), Some(&(last + 1)));
        }
        assert_eq!(m.lookup(Ipv4Addr::new(192, 0, 3, 0)), Some(&0));
        assert_eq!(m.len(), 65);
    }

    #[test]
    fn radix_matches_naive_reference_on_random_tables() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // naive reference: scan all stored prefixes for the longest match
        for seed in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m = PrefixMap::new();
            let mut reference: Vec<(Ipv4Prefix, u32)> = Vec::new();
            for i in 0..200u32 {
                // cluster addresses so prefixes actually nest and collide
                let addr = Ipv4Addr::from(rng.gen_range(0..1u32 << 12) << 8);
                let len = rng.gen_range(0..=32u32) as u8;
                let pre = Ipv4Prefix::new(addr, len);
                let old = m.insert(pre, i);
                match reference.iter_mut().find(|(q, _)| *q == pre) {
                    Some((_, v)) => {
                        assert_eq!(old, Some(*v), "seed {seed}: stale replace at {pre}");
                        *v = i;
                    }
                    None => {
                        assert_eq!(old, None, "seed {seed}: phantom value at {pre}");
                        reference.push((pre, i));
                    }
                }
            }
            assert_eq!(m.len(), reference.len());
            for _ in 0..400 {
                let ip = Ipv4Addr::from(rng.gen_range(0..1u32 << 12) << 8);
                let want = reference
                    .iter()
                    .filter(|(q, _)| q.contains(ip))
                    .max_by_key(|(q, _)| q.len())
                    .map(|(_, v)| v);
                assert_eq!(m.lookup(ip), want, "seed {seed}: lookup({ip})");
            }
        }
    }

    #[test]
    fn nth_allocates_within_prefix() {
        let pre = p("192.0.2.0/24");
        assert_eq!(pre.nth(0), Ipv4Addr::new(192, 0, 2, 0));
        assert_eq!(pre.nth(7), Ipv4Addr::new(192, 0, 2, 7));
        assert!(pre.contains(pre.nth(255)));
    }
}
