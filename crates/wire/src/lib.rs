//! # ecn-wire — byte-accurate wire formats
//!
//! Packet codecs used throughout the ECN/UDP measurement study
//! (McQuistin & Perkins, *"Is Explicit Congestion Notification usable with
//! UDP?"*, IMC 2015). Every header that the measurement campaign touches is
//! encoded to and decoded from real wire bytes:
//!
//! * [`ipv4`] — IPv4 headers with explicit DSCP/ECN fields (RFC 791 + RFC 3168),
//! * [`udp`] — UDP with pseudo-header checksums (RFC 768),
//! * [`tcp`] — TCP with the ECE/CWR/NS flags and options (RFC 793 + RFC 3168),
//! * [`icmp`] — ICMPv4 including time-exceeded/destination-unreachable with
//!   quoted datagrams, the raw material of ECN-aware traceroute (RFC 792),
//! * [`ntp`] — the 48-byte NTP packet (RFC 5905) used for UDP reachability
//!   probes,
//! * [`dns`] — queries/responses for pool.ntp.org discovery (RFC 1035),
//! * [`http`] — the HTTP/1.1 subset used for TCP reachability probes.
//!
//! The simulator's routers and middleboxes operate on these bytes — an
//! ECN-bleaching hop really rewrites the two ECN bits and fixes up the IPv4
//! checksum — so the measurement application observes middlebox interference
//! exactly as it would on a live network, through the same parsing code.
//!
//! Each message has one encoder and one parser, and they are the ones the
//! campaign runs. Encoders append to the caller's buffer (the `_into`
//! functions), so a packet is written straight into a pooled datagram
//! buffer. The DNS and HTTP parsers borrow: [`dns::read_query`] and
//! [`dns::for_each_a_record`] walk a message without building one, and
//! [`http::parse_meta`] and [`HttpResponse::status_of`] validate a head in
//! place. `tests/golden/wire_bytes.txt` at the repository root pins their
//! bytes and verdicts.
//!
//! Checksums are always computed on encode and verified on decode; decode
//! errors are explicit ([`WireError`]), never panics.

pub mod checksum;
pub mod dns;
pub mod ecn;
pub mod error;
pub mod http;
pub mod icmp;
pub mod ipv4;
pub mod ntp;
pub mod rtp;
pub mod tcp;
pub mod udp;

pub use checksum::internet_checksum;
pub use dns::{DnsFlags, QClass, QType, QueryView, Rcode};
pub use ecn::{Dscp, Ecn};
pub use error::WireError;
pub use http::HttpResponse;
pub use icmp::{DestUnreachCode, IcmpMessage, QUOTE_BYTES};
pub use ipv4::{IpProto, Ipv4Header, IPV4_HEADER_LEN};
pub use ntp::{NtpMode, NtpPacket, NtpTimestamp, LEAP_UNSYNC, NTP_PACKET_LEN};
pub use rtp::{EcnFeedback, RtpHeader, RTP_HEADER_LEN};
pub use tcp::{TcpFlags, TcpHeader, TcpOption};
pub use udp::{UdpHeader, UDP_HEADER_LEN};

/// A fully-formed IPv4 datagram: header plus transport payload bytes.
///
/// This is the unit the simulator moves between hops. It is deliberately a
/// plain owned buffer — middleboxes mutate it in place, pcap taps copy it,
/// and the host stack parses it layer by layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Datagram {
    bytes: Vec<u8>,
}

impl Datagram {
    /// Assemble a datagram from a header and payload, computing the header
    /// checksum and patching `total_len` to match.
    pub fn new(mut header: Ipv4Header, payload: &[u8]) -> Self {
        header.total_len = (IPV4_HEADER_LEN + payload.len()) as u16;
        let mut bytes = Vec::with_capacity(IPV4_HEADER_LEN + payload.len());
        header.encode(&mut bytes);
        bytes.extend_from_slice(payload);
        Datagram { bytes }
    }

    /// Assemble a datagram *into* a recycled buffer: `bytes` is cleared
    /// (capacity kept), the header is written with `total_len`/checksum
    /// patched after `write_payload` has appended the transport bytes.
    ///
    /// This is the allocation-free construction path: a buffer checked out
    /// of a pool flows through here, around the simulator, and back to the
    /// pool via [`Datagram::into_bytes`].
    pub fn compose(
        mut bytes: Vec<u8>,
        mut header: Ipv4Header,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) -> Self {
        bytes.clear();
        bytes.resize(IPV4_HEADER_LEN, 0);
        write_payload(&mut bytes);
        header.total_len = bytes.len() as u16;
        header.encode_into(&mut bytes);
        Datagram { bytes }
    }

    /// Recover the owned byte buffer (for recycling into a pool).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Re-encode `header` over this datagram's first 20 bytes (checksum
    /// recomputed). The single write-back for a forwarding pipeline that
    /// decoded the header once, mutated fields (TTL, ECN) in the copy,
    /// and wants the wire bytes to match again. `total_len` is forced to
    /// the buffer's actual length, so a stale copy cannot corrupt it.
    pub fn write_header(&mut self, header: &Ipv4Header) {
        let mut h = *header;
        h.total_len = self.bytes.len() as u16;
        h.encode_into(&mut self.bytes);
    }

    /// Wrap raw bytes that are already a well-formed datagram.
    ///
    /// Fails if the IPv4 header does not parse or the buffer is shorter than
    /// the header's `total_len`.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, WireError> {
        let header = Ipv4Header::decode(&bytes)?;
        if bytes.len() < header.total_len as usize {
            return Err(WireError::Truncated {
                layer: "ipv4-datagram",
                needed: header.total_len as usize,
                got: bytes.len(),
            });
        }
        Ok(Datagram { bytes })
    }

    /// Parse the IPv4 header.
    ///
    /// The checksum is *not* re-verified: a `Datagram` is only ever
    /// constructed from a valid header, and every in-place mutation below
    /// re-encodes a valid one — re-summing 20 bytes on each of the many
    /// per-hop reads was pure overhead. Paths that receive untrusted
    /// bytes go through [`Datagram::from_bytes`], which verifies.
    pub fn header(&self) -> Ipv4Header {
        Ipv4Header::decode_trusted(&self.bytes).expect("datagram invariant: valid IPv4 header")
    }

    /// The transport payload (bytes after the IPv4 header).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[IPV4_HEADER_LEN..]
    }

    /// Raw wire bytes of the whole datagram.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total length on the wire.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the datagram carries no transport payload.
    pub fn is_empty(&self) -> bool {
        self.len() <= IPV4_HEADER_LEN
    }

    /// Rewrite the ECN codepoint in place, fixing up the IPv4 checksum.
    ///
    /// This is the exact operation an ECN-bleaching router performs.
    pub fn set_ecn(&mut self, ecn: Ecn) {
        self.set_ecn_raw(ecn);
        self.refresh_header_checksum();
    }

    /// Decrement TTL in place (checksum fixed up). Returns the new TTL.
    pub fn decrement_ttl(&mut self) -> u8 {
        let ttl = self.bytes[8].saturating_sub(1);
        self.bytes[8] = ttl;
        self.refresh_header_checksum();
        ttl
    }

    /// Write the TTL byte *without* fixing the checksum. For forwarding
    /// pipelines that batch several field mutations and call
    /// [`Datagram::refresh_header_checksum`] once before the bytes are
    /// observed again.
    pub fn set_ttl_raw(&mut self, ttl: u8) {
        self.bytes[8] = ttl;
    }

    /// Write the two ECN bits *without* fixing the checksum (DSCP bits
    /// preserved). Pair with [`Datagram::refresh_header_checksum`].
    pub fn set_ecn_raw(&mut self, ecn: Ecn) {
        self.bytes[1] = (self.bytes[1] & !0b11) | ecn.bits();
    }

    /// Recompute the IPv4 header checksum over the current header bytes —
    /// the identical calculation [`Ipv4Header::encode`] performs, so a
    /// raw-mutated header refreshed through here is byte-for-byte what a
    /// decode → mutate → re-encode cycle would have produced.
    pub fn refresh_header_checksum(&mut self) {
        self.bytes[10] = 0;
        self.bytes[11] = 0;
        let ck = crate::checksum::finish(crate::checksum::sum_words(
            &self.bytes[..IPV4_HEADER_LEN],
            0,
        ));
        self.bytes[10..12].copy_from_slice(&ck.to_be_bytes());
    }

    /// Convenience accessors used pervasively by the simulator fast path.
    /// These read the fixed-offset fields straight off the wire bytes —
    /// a `Datagram` always holds a valid options-free IPv4 header, so no
    /// decode pass is needed.
    pub fn src(&self) -> std::net::Ipv4Addr {
        std::net::Ipv4Addr::new(
            self.bytes[12],
            self.bytes[13],
            self.bytes[14],
            self.bytes[15],
        )
    }

    /// Destination address.
    pub fn dst(&self) -> std::net::Ipv4Addr {
        std::net::Ipv4Addr::new(
            self.bytes[16],
            self.bytes[17],
            self.bytes[18],
            self.bytes[19],
        )
    }

    /// Current ECN codepoint.
    pub fn ecn(&self) -> Ecn {
        Ecn::from_bits(self.bytes[1])
    }

    /// Transport protocol number.
    pub fn protocol(&self) -> IpProto {
        IpProto::from_number(self.bytes[9])
    }

    /// Current TTL.
    pub fn ttl(&self) -> u8 {
        self.bytes[8]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn sample_header() -> Ipv4Header {
        Ipv4Header {
            dscp: Dscp::default(),
            ecn: Ecn::Ect0,
            total_len: 0,
            identification: 0x1234,
            dont_fragment: true,
            more_fragments: false,
            fragment_offset: 0,
            ttl: 64,
            protocol: IpProto::Udp,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 0, 2, 7),
        }
    }

    #[test]
    fn datagram_roundtrip_preserves_payload() {
        let d = Datagram::new(sample_header(), b"hello ecn");
        assert_eq!(d.payload(), b"hello ecn");
        assert_eq!(d.header().total_len as usize, d.len());
        let d2 = Datagram::from_bytes(d.as_bytes().to_vec()).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn set_ecn_rewrites_bits_and_checksum() {
        let mut d = Datagram::new(sample_header(), b"x");
        assert_eq!(d.ecn(), Ecn::Ect0);
        d.set_ecn(Ecn::NotEct);
        assert_eq!(d.ecn(), Ecn::NotEct);
        // Checksum must still verify (header() would panic otherwise).
        let reparsed = Ipv4Header::decode(d.as_bytes()).unwrap();
        assert_eq!(reparsed.ecn, Ecn::NotEct);
    }

    #[test]
    fn decrement_ttl_stops_at_zero() {
        let mut h = sample_header();
        h.ttl = 1;
        let mut d = Datagram::new(h, b"");
        assert_eq!(d.decrement_ttl(), 0);
        assert_eq!(d.decrement_ttl(), 0);
    }

    #[test]
    fn from_bytes_rejects_truncated() {
        let d = Datagram::new(sample_header(), b"payload");
        let mut raw = d.as_bytes().to_vec();
        raw.truncate(raw.len() - 3);
        assert!(Datagram::from_bytes(raw).is_err());
    }

    #[test]
    fn is_empty_reflects_payload() {
        assert!(Datagram::new(sample_header(), b"").is_empty());
        assert!(!Datagram::new(sample_header(), b"x").is_empty());
    }

    #[test]
    fn direct_accessors_agree_with_decoded_header() {
        for ecn in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce] {
            let mut h = sample_header();
            h.ecn = ecn;
            h.ttl = 37;
            h.protocol = IpProto::Tcp;
            let d = Datagram::new(h, b"payload");
            let full = d.header();
            assert_eq!(d.src(), full.src);
            assert_eq!(d.dst(), full.dst);
            assert_eq!(d.ecn(), full.ecn);
            assert_eq!(d.protocol(), full.protocol);
            assert_eq!(d.ttl(), full.ttl);
        }
    }

    #[test]
    fn raw_mutation_plus_refresh_matches_reencode_bytes() {
        // The forwarding fast path (raw TTL/ECN writes + one checksum
        // refresh) must produce byte-identical wire output to the owned
        // decode → mutate → write_header cycle it replaces.
        for (ttl, ecn) in [(63u8, Ecn::NotEct), (1, Ecn::Ce), (0, Ecn::Ect1)] {
            let mut h = sample_header();
            h.dscp = Dscp::EF; // ensure DSCP bits survive the ECN write
            let mut fast = Datagram::new(h, b"some payload");
            let mut slow = fast.clone();

            fast.set_ttl_raw(ttl);
            fast.set_ecn_raw(ecn);
            fast.refresh_header_checksum();

            let mut hh = slow.header();
            hh.ttl = ttl;
            hh.ecn = ecn;
            slow.write_header(&hh);

            assert_eq!(fast.as_bytes(), slow.as_bytes());
            // and the result still passes a verifying decode
            assert!(Ipv4Header::decode(fast.as_bytes()).is_ok());
        }
    }
}
