//! ICMPv4 codec (RFC 792): echo, time-exceeded and destination-unreachable,
//! with quoted original datagrams.
//!
//! The quoted datagram is the heart of ECN-aware traceroute: a router
//! answering a TTL-limited probe quotes the IP header (and ≥8 bytes of
//! transport header) *as it arrived at that router*. Comparing the quoted
//! ECN field with what the prober sent reveals exactly where on the path the
//! ECT(0) mark was stripped (paper §4.2; same technique as Bauer et al. and
//! tracebox).

use crate::checksum::internet_checksum;
use crate::error::WireError;
use crate::ipv4::IPV4_HEADER_LEN;

/// Number of quoted bytes: original IP header + 8 transport bytes
/// (the RFC 792 minimum, which is what most routers send).
pub const QUOTE_BYTES: usize = IPV4_HEADER_LEN + 8;

/// Destination-unreachable codes used by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestUnreachCode {
    /// 0 — net unreachable.
    Net,
    /// 1 — host unreachable.
    Host,
    /// 2 — protocol unreachable.
    Protocol,
    /// 3 — port unreachable (the classic traceroute terminator).
    Port,
    /// 13 — communication administratively prohibited (filtering firewall).
    AdminProhibited,
    /// Any other code, preserved.
    Other(u8),
}

impl DestUnreachCode {
    fn code(self) -> u8 {
        match self {
            DestUnreachCode::Net => 0,
            DestUnreachCode::Host => 1,
            DestUnreachCode::Protocol => 2,
            DestUnreachCode::Port => 3,
            DestUnreachCode::AdminProhibited => 13,
            DestUnreachCode::Other(c) => c,
        }
    }

    fn from_code(c: u8) -> DestUnreachCode {
        match c {
            0 => DestUnreachCode::Net,
            1 => DestUnreachCode::Host,
            2 => DestUnreachCode::Protocol,
            3 => DestUnreachCode::Port,
            13 => DestUnreachCode::AdminProhibited,
            other => DestUnreachCode::Other(other),
        }
    }
}

/// A decoded ICMPv4 message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Type 8 — echo request.
    EchoRequest {
        /// Identifier (matches request/reply pairs).
        id: u16,
        /// Sequence number.
        seq: u16,
        /// Echo payload.
        payload: Vec<u8>,
    },
    /// Type 0 — echo reply.
    EchoReply {
        /// Identifier copied from the request.
        id: u16,
        /// Sequence copied from the request.
        seq: u16,
        /// Payload copied from the request.
        payload: Vec<u8>,
    },
    /// Type 11 code 0 — time exceeded in transit, quoting the offending
    /// datagram's IP header + first 8 payload bytes.
    TimeExceeded {
        /// Quoted bytes of the original datagram as seen by the router.
        quoted: Vec<u8>,
    },
    /// Type 3 — destination unreachable, also quoting the original.
    DestUnreachable {
        /// Why the destination was unreachable.
        code: DestUnreachCode,
        /// Quoted bytes of the original datagram.
        quoted: Vec<u8>,
    },
}

/// Append one ICMP message to `out`: `ty`, `code`, the checksum, the
/// four rest-of-header bytes `rest`, then `body`. The checksum covers the
/// whole message. Every ICMP message the simulation sends is written here.
pub fn encode_message_into(ty: u8, code: u8, rest: [u8; 4], body: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[ty, code, 0, 0]);
    out.extend_from_slice(&rest);
    out.extend_from_slice(body);
    let ck = internet_checksum(&out[start..]);
    out[start + 2..start + 4].copy_from_slice(&ck.to_be_bytes());
}

/// The first [`QUOTE_BYTES`] of `original` (all of it if shorter).
fn quote(original: &[u8]) -> &[u8] {
    &original[..original.len().min(QUOTE_BYTES)]
}

impl IcmpMessage {
    /// The quoted original datagram, if this is an error message.
    pub fn quoted(&self) -> Option<&[u8]> {
        match self {
            IcmpMessage::TimeExceeded { quoted } => Some(quoted),
            IcmpMessage::DestUnreachable { quoted, .. } => Some(quoted),
            _ => None,
        }
    }

    /// Append a time-exceeded message quoting `original` to `out` (the
    /// router TTL-expiry path).
    pub fn encode_time_exceeded_into(original: &[u8], out: &mut Vec<u8>) {
        encode_message_into(11, 0, [0; 4], quote(original), out);
    }

    /// Append a destination-unreachable message quoting `original` to
    /// `out`.
    pub fn encode_dest_unreachable_into(code: DestUnreachCode, original: &[u8], out: &mut Vec<u8>) {
        encode_message_into(3, code.code(), [0; 4], quote(original), out);
    }

    /// Decode and checksum-verify an ICMP message.
    pub fn decode(buf: &[u8]) -> Result<IcmpMessage, WireError> {
        if buf.len() < 8 {
            return Err(WireError::Truncated {
                layer: "icmp",
                needed: 8,
                got: buf.len(),
            });
        }
        if internet_checksum(buf) != 0 {
            let found = u16::from_be_bytes([buf[2], buf[3]]);
            return Err(WireError::BadChecksum {
                layer: "icmp",
                found,
                computed: internet_checksum(buf),
            });
        }
        let (ty, code) = (buf[0], buf[1]);
        match ty {
            8 | 0 => {
                let id = u16::from_be_bytes([buf[4], buf[5]]);
                let seq = u16::from_be_bytes([buf[6], buf[7]]);
                let payload = buf[8..].to_vec();
                Ok(if ty == 8 {
                    IcmpMessage::EchoRequest { id, seq, payload }
                } else {
                    IcmpMessage::EchoReply { id, seq, payload }
                })
            }
            11 => Ok(IcmpMessage::TimeExceeded {
                quoted: buf[8..].to_vec(),
            }),
            3 => Ok(IcmpMessage::DestUnreachable {
                code: DestUnreachCode::from_code(code),
                quoted: buf[8..].to_vec(),
            }),
            other => Err(WireError::InvalidField {
                layer: "icmp",
                field: "type",
                value: u64::from(other),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecn::Ecn;
    use crate::ipv4::{IpProto, Ipv4Header};
    use crate::Datagram;
    use std::net::Ipv4Addr;

    fn original_probe() -> Datagram {
        let (src, dst) = (Ipv4Addr::new(10, 9, 8, 7), Ipv4Addr::new(192, 0, 2, 1));
        let h = Ipv4Header::probe(src, dst, IpProto::Udp, Ecn::Ect0);
        Datagram::compose(Vec::new(), h, |o| {
            crate::udp::udp_segment_into(src, dst, 40000, 33434, b"probe-payload", o)
        })
    }

    fn time_exceeded(original: &[u8]) -> IcmpMessage {
        let mut bytes = Vec::new();
        IcmpMessage::encode_time_exceeded_into(original, &mut bytes);
        IcmpMessage::decode(&bytes).unwrap()
    }

    #[test]
    fn echo_roundtrip() {
        let mut bytes = Vec::new();
        encode_message_into(8, 0, [0, 77, 0, 3], b"ping", &mut bytes);
        let want = IcmpMessage::EchoRequest {
            id: 77,
            seq: 3,
            payload: b"ping".to_vec(),
        };
        assert_eq!(IcmpMessage::decode(&bytes).unwrap(), want);
    }

    #[test]
    fn time_exceeded_quotes_exactly_28_bytes() {
        let orig = original_probe();
        let m = time_exceeded(orig.as_bytes());
        assert_eq!(m.quoted().unwrap(), &orig.as_bytes()[..QUOTE_BYTES]);
    }

    #[test]
    fn quoted_header_preserves_ecn_field() {
        // The decisive property for §4.2: the quoted header's ECN bits are
        // readable and reflect the datagram as the router saw it.
        let mut orig = original_probe();
        orig.set_ecn(Ecn::NotEct); // bleached upstream
        let m = time_exceeded(orig.as_bytes());
        let qh = Ipv4Header::decode(m.quoted().unwrap()).unwrap();
        assert_eq!(qh.ecn, Ecn::NotEct);
    }

    #[test]
    fn dest_unreachable_codes_roundtrip() {
        for code in [
            DestUnreachCode::Net,
            DestUnreachCode::Host,
            DestUnreachCode::Protocol,
            DestUnreachCode::Port,
            DestUnreachCode::AdminProhibited,
            DestUnreachCode::Other(9),
        ] {
            let mut bytes = Vec::new();
            IcmpMessage::encode_dest_unreachable_into(
                code,
                original_probe().as_bytes(),
                &mut bytes,
            );
            match IcmpMessage::decode(&bytes).unwrap() {
                IcmpMessage::DestUnreachable { code: c, .. } => assert_eq!(c, code),
                other => panic!("wrong variant {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = Vec::new();
        encode_message_into(0, 0, [0, 1, 0, 2], &[0xaa; 16], &mut bytes);
        bytes[9] ^= 0x10;
        assert!(matches!(
            IcmpMessage::decode(&bytes),
            Err(WireError::BadChecksum { layer: "icmp", .. })
        ));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = Vec::new();
        encode_message_into(42, 0, [0; 4], b"", &mut bytes);
        assert!(matches!(
            IcmpMessage::decode(&bytes),
            Err(WireError::InvalidField { field: "type", .. })
        ));
    }

    #[test]
    fn short_original_quotes_what_exists() {
        let h = Ipv4Header::probe(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProto::Udp,
            Ecn::NotEct,
        );
        let d = Datagram::new(h, b"abc"); // 23 bytes total < QUOTE_BYTES
        assert_eq!(time_exceeded(d.as_bytes()).quoted().unwrap().len(), 23);
    }
}
