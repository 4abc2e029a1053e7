//! IPv4 header codec (RFC 791) with first-class DSCP/ECN fields.

use crate::checksum::{finish, sum_words};
use crate::ecn::{Dscp, Ecn};
use crate::error::WireError;
use std::fmt;
use std::net::Ipv4Addr;

/// Length of the IPv4 header this crate emits (no options), in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers used by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// 1 — ICMP.
    Icmp,
    /// 6 — TCP.
    Tcp,
    /// 17 — UDP.
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProto {
    /// The wire value.
    pub fn number(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(n) => n,
        }
    }

    /// Decode from the wire value.
    pub fn from_number(n: u8) -> IpProto {
        match n {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProto::Icmp => f.write_str("icmp"),
            IpProto::Tcp => f.write_str("tcp"),
            IpProto::Udp => f.write_str("udp"),
            IpProto::Other(n) => write!(f, "proto-{n}"),
        }
    }
}

/// A decoded IPv4 header (IHL fixed at 5; the study never sends IP options).
///
/// The DSCP and ECN fields are kept separate rather than as a raw TOS octet
/// because the whole measurement campaign pivots on the two ECN bits, and
/// because middleboxes that conflate the two are one of the failure modes
/// under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated-services codepoint (upper six TOS bits).
    pub dscp: Dscp,
    /// ECN codepoint (lower two TOS bits).
    pub ecn: Ecn,
    /// Total datagram length including this header. `Datagram::new` patches
    /// this on assembly.
    pub total_len: u16,
    /// Identification field (used by traceroute to match quoted headers).
    pub identification: u16,
    /// DF flag.
    pub dont_fragment: bool,
    /// MF flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units (13 bits).
    pub fragment_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol.
    pub protocol: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// A reasonable default header for probe traffic: DF set, TTL 64.
    pub fn probe(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProto, ecn: Ecn) -> Ipv4Header {
        Ipv4Header {
            dscp: Dscp::DEFAULT,
            ecn,
            total_len: 0,
            identification: 0,
            dont_fragment: true,
            more_fragments: false,
            fragment_offset: 0,
            ttl: 64,
            protocol,
            src,
            dst,
        }
    }

    /// Append the 20 encoded header bytes (checksum computed) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + IPV4_HEADER_LEN, 0);
        self.write(&mut out[start..start + IPV4_HEADER_LEN]);
    }

    /// Re-encode this header over the first 20 bytes of an existing buffer
    /// (in-place mutation by routers/middleboxes).
    pub fn encode_into(&self, buf: &mut [u8]) {
        self.write(&mut buf[..IPV4_HEADER_LEN]);
    }

    fn write(&self, b: &mut [u8]) {
        debug_assert_eq!(b.len(), IPV4_HEADER_LEN);
        b[0] = 0x45; // version 4, IHL 5
        b[1] = self.dscp.to_tos(self.ecn);
        b[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        b[4..6].copy_from_slice(&self.identification.to_be_bytes());
        let mut flags_frag = self.fragment_offset & 0x1fff;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        b[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        b[8] = self.ttl;
        b[9] = self.protocol.number();
        b[10] = 0;
        b[11] = 0;
        b[12..16].copy_from_slice(&self.src.octets());
        b[16..20].copy_from_slice(&self.dst.octets());
        let ck = finish(sum_words(&b[..IPV4_HEADER_LEN], 0));
        b[10..12].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decode and checksum-verify a header from the front of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Ipv4Header, WireError> {
        Self::decode_inner(buf, true)
    }

    /// Decode *without* checksum verification — for buffers whose
    /// integrity the caller already guarantees (e.g. the simulator's
    /// per-hop pipeline re-reading a header it wrote itself). Endpoint
    /// stacks and captures keep using the verifying [`Ipv4Header::decode`].
    pub fn decode_trusted(buf: &[u8]) -> Result<Ipv4Header, WireError> {
        Self::decode_inner(buf, false)
    }

    fn decode_inner(buf: &[u8], verify: bool) -> Result<Ipv4Header, WireError> {
        if buf.len() < IPV4_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "ipv4",
                needed: IPV4_HEADER_LEN,
                got: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::InvalidField {
                layer: "ipv4",
                field: "version",
                value: u64::from(version),
            });
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl != IPV4_HEADER_LEN {
            // The study never emits options; receiving them indicates a
            // corrupted or hostile packet as far as this codec is concerned.
            return Err(WireError::InvalidField {
                layer: "ipv4",
                field: "ihl",
                value: ihl as u64,
            });
        }
        if verify {
            let computed = finish(sum_words(&buf[..IPV4_HEADER_LEN], 0));
            if computed != 0 {
                let found = u16::from_be_bytes([buf[10], buf[11]]);
                return Err(WireError::BadChecksum {
                    layer: "ipv4",
                    found,
                    computed,
                });
            }
        }
        let (dscp, ecn) = Dscp::from_tos(buf[1]);
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Ok(Ipv4Header {
            dscp,
            ecn,
            total_len: u16::from_be_bytes([buf[2], buf[3]]),
            identification: u16::from_be_bytes([buf[4], buf[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            more_fragments: flags_frag & 0x2000 != 0,
            fragment_offset: flags_frag & 0x1fff,
            ttl: buf[8],
            protocol: IpProto::from_number(buf[9]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> Ipv4Header {
        let mut h = Ipv4Header::probe(
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(203, 0, 113, 9),
            IpProto::Udp,
            Ecn::Ect0,
        );
        h.total_len = 48;
        h.identification = 0xbeef;
        h
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = hdr();
        let mut out = Vec::new();
        h.encode(&mut out);
        assert_eq!(out.len(), IPV4_HEADER_LEN);
        let d = Ipv4Header::decode(&out).unwrap();
        assert_eq!(h, d);
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut out = Vec::new();
        hdr().encode(&mut out);
        out[8] ^= 0xff; // mangle TTL
        match Ipv4Header::decode(&out) {
            Err(WireError::BadChecksum { layer: "ipv4", .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_version_and_options() {
        let mut out = Vec::new();
        hdr().encode(&mut out);
        let mut v6 = out.clone();
        v6[0] = 0x65;
        assert!(matches!(
            Ipv4Header::decode(&v6),
            Err(WireError::InvalidField {
                field: "version",
                ..
            })
        ));
        let mut opt = out.clone();
        opt[0] = 0x46; // IHL 6 => options present
        assert!(matches!(
            Ipv4Header::decode(&opt),
            Err(WireError::InvalidField { field: "ihl", .. })
        ));
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(matches!(
            Ipv4Header::decode(&[0u8; 10]),
            Err(WireError::Truncated { layer: "ipv4", .. })
        ));
    }

    #[test]
    fn tos_octet_carries_dscp_and_ecn() {
        let mut h = hdr();
        h.dscp = Dscp::EF;
        h.ecn = Ecn::Ce;
        let mut out = Vec::new();
        h.encode(&mut out);
        assert_eq!(out[1], (46 << 2) | 0b11);
        let d = Ipv4Header::decode(&out).unwrap();
        assert_eq!(d.dscp, Dscp::EF);
        assert_eq!(d.ecn, Ecn::Ce);
    }

    #[test]
    fn flags_and_fragment_offset_roundtrip() {
        let mut h = hdr();
        h.dont_fragment = false;
        h.more_fragments = true;
        h.fragment_offset = 0x1abc;
        let mut out = Vec::new();
        h.encode(&mut out);
        let d = Ipv4Header::decode(&out).unwrap();
        assert!(!d.dont_fragment);
        assert!(d.more_fragments);
        assert_eq!(d.fragment_offset, 0x1abc);
    }

    #[test]
    fn in_place_reencode_preserves_validity() {
        let mut out = Vec::new();
        hdr().encode(&mut out);
        let mut h = Ipv4Header::decode(&out).unwrap();
        h.ttl -= 1;
        h.ecn = Ecn::NotEct;
        h.encode_into(&mut out);
        let d = Ipv4Header::decode(&out).unwrap();
        assert_eq!(d.ttl, 63);
        assert_eq!(d.ecn, Ecn::NotEct);
    }
}
