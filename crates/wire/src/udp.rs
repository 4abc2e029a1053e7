//! UDP header codec (RFC 768) with pseudo-header checksums.

use crate::checksum::{finish, pseudo_header_sum, sum_words};
use crate::error::WireError;
use std::net::Ipv4Addr;

/// UDP header length, bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A decoded UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Header + payload length.
    pub length: u16,
}

impl UdpHeader {
    /// Decode a UDP header and return it with the payload slice.
    ///
    /// Verifies the pseudo-header checksum unless the checksum field is zero
    /// (RFC 768 permits uncomputed checksums over IPv4).
    pub fn decode(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        buf: &[u8],
    ) -> Result<(UdpHeader, &[u8]), WireError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "udp",
                needed: UDP_HEADER_LEN,
                got: buf.len(),
            });
        }
        let length = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        if length < UDP_HEADER_LEN || length > buf.len() {
            return Err(WireError::InvalidField {
                layer: "udp",
                field: "length",
                value: length as u64,
            });
        }
        let found = u16::from_be_bytes([buf[6], buf[7]]);
        if found != 0 {
            let mut acc = pseudo_header_sum(src, dst, 17, length as u16);
            acc = sum_words(&buf[..length], acc);
            let computed = finish(acc);
            if computed != 0 {
                return Err(WireError::BadChecksum {
                    layer: "udp",
                    found,
                    computed,
                });
            }
        }
        let header = UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: length as u16,
        };
        Ok((header, &buf[UDP_HEADER_LEN..length]))
    }

    /// Decode only the port/length fields without checksum verification.
    ///
    /// This is what ICMP quoted-header analysis does: a time-exceeded
    /// message quotes just the IP header plus the first 8 bytes of the
    /// transport header, so the full payload needed for checksum
    /// verification is not available.
    pub fn decode_unverified(buf: &[u8]) -> Result<UdpHeader, WireError> {
        if buf.len() < UDP_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "udp",
                needed: UDP_HEADER_LEN,
                got: buf.len(),
            });
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: u16::from_be_bytes([buf[4], buf[5]]),
        })
    }
}

/// Append a UDP segment (header + payload, checksum over the
/// pseudo-header) to `out`, for composing straight into a pooled datagram
/// buffer.
pub fn udp_segment_into(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    let length = (UDP_HEADER_LEN + payload.len()) as u16;
    let start = out.len();
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.extend_from_slice(&length.to_be_bytes());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(payload);
    let mut acc = pseudo_header_sum(src, dst, 17, length);
    acc = sum_words(&out[start..], acc);
    let mut ck = finish(acc);
    // RFC 768: a computed checksum of zero is transmitted as all-ones.
    if ck == 0 {
        ck = 0xffff;
    }
    out[start + 6..start + 8].copy_from_slice(&ck.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);

    fn udp_segment(src: Ipv4Addr, dst: Ipv4Addr, sp: u16, dp: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        udp_segment_into(src, dst, sp, dp, payload, &mut out);
        out
    }

    #[test]
    fn roundtrip_with_checksum() {
        let seg = udp_segment(SRC, DST, 40000, 123, b"ntp request bytes");
        let (h, payload) = UdpHeader::decode(SRC, DST, &seg).unwrap();
        assert_eq!(h.src_port, 40000);
        assert_eq!(h.dst_port, 123);
        assert_eq!(payload, b"ntp request bytes");
        assert_eq!(h.length as usize, seg.len());
    }

    #[test]
    fn checksum_binds_addresses() {
        // The pseudo-header makes the checksum depend on the IP addresses:
        // decoding with the wrong destination must fail.
        let seg = udp_segment(SRC, DST, 1, 2, b"x");
        let wrong = Ipv4Addr::new(192, 0, 2, 54);
        assert!(matches!(
            UdpHeader::decode(SRC, wrong, &seg),
            Err(WireError::BadChecksum { layer: "udp", .. })
        ));
    }

    #[test]
    fn payload_corruption_detected() {
        let mut seg = udp_segment(SRC, DST, 1, 2, b"hello");
        let last = seg.len() - 1;
        seg[last] ^= 0x40;
        assert!(UdpHeader::decode(SRC, DST, &seg).is_err());
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let mut seg = udp_segment(SRC, DST, 1, 2, b"hello");
        seg[6] = 0;
        seg[7] = 0;
        let (h, payload) = UdpHeader::decode(SRC, DST, &seg).unwrap();
        assert_eq!(h.dst_port, 2);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn empty_payload_is_legal() {
        let seg = udp_segment(SRC, DST, 5, 6, b"");
        let (h, payload) = UdpHeader::decode(SRC, DST, &seg).unwrap();
        assert_eq!(h.length as usize, UDP_HEADER_LEN);
        assert!(payload.is_empty());
    }

    #[test]
    fn length_field_bounds_are_enforced() {
        let mut seg = udp_segment(SRC, DST, 5, 6, b"abc");
        seg[4] = 0xff;
        seg[5] = 0xff; // length far beyond buffer
        assert!(matches!(
            UdpHeader::decode(SRC, DST, &seg),
            Err(WireError::InvalidField {
                field: "length",
                ..
            })
        ));
        let short = [0u8; 4];
        assert!(matches!(
            UdpHeader::decode(SRC, DST, &short),
            Err(WireError::Truncated { layer: "udp", .. })
        ));
    }

    #[test]
    fn unverified_decode_reads_first_eight_bytes() {
        let seg = udp_segment(SRC, DST, 40001, 33434, b"traceroute probe");
        let h = UdpHeader::decode_unverified(&seg[..8]).unwrap();
        assert_eq!(h.src_port, 40001);
        assert_eq!(h.dst_port, 33434);
    }
}
