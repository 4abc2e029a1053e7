//! The two ECN bits of the IPv4 traffic-class octet (RFC 3168) and the
//! six DSCP bits that share it.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The ECN codepoint carried in the low two bits of the IPv4 TOS octet.
///
/// RFC 3168 §5 defines the four codepoints. `Ect0` and `Ect1` are equivalent
/// declarations that the transport is ECN-capable; routers experiencing
/// congestion may rewrite either to `Ce`. The measurement study marks probe
/// packets `Ect0` "to match the typical marking used with ECN for TCP"
/// (paper §3).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum Ecn {
    /// `00` — not ECN-capable transport.
    #[default]
    NotEct,
    /// `01` — ECN-capable transport, codepoint 1.
    Ect1,
    /// `10` — ECN-capable transport, codepoint 0.
    Ect0,
    /// `11` — congestion experienced.
    Ce,
}

impl Ecn {
    /// Decode from the low two bits of a TOS octet.
    pub fn from_bits(bits: u8) -> Ecn {
        match bits & 0b11 {
            0b00 => Ecn::NotEct,
            0b01 => Ecn::Ect1,
            0b10 => Ecn::Ect0,
            _ => Ecn::Ce,
        }
    }

    /// The two-bit wire encoding.
    pub fn bits(self) -> u8 {
        match self {
            Ecn::NotEct => 0b00,
            Ecn::Ect1 => 0b01,
            Ecn::Ect0 => 0b10,
            Ecn::Ce => 0b11,
        }
    }

    /// True for `Ect0`, `Ect1` and `Ce`: the packet declares (or declared,
    /// before a router marked it) an ECN-capable transport.
    pub fn is_ecn_capable(self) -> bool {
        self != Ecn::NotEct
    }

    /// True for the two ECT codepoints (excludes `Ce`).
    pub fn is_ect(self) -> bool {
        matches!(self, Ecn::Ect0 | Ecn::Ect1)
    }

    /// True if a congested ECN router may mark this packet `Ce` instead of
    /// dropping it (RFC 3168 §5: only ECT packets are markable).
    pub fn is_markable(self) -> bool {
        self.is_ect()
    }

    /// What an ECN-marking router turns this codepoint into when it signals
    /// congestion: ECT packets become `Ce`; everything else is unchanged
    /// (a not-ECT packet must be dropped, not marked).
    pub fn marked(self) -> Ecn {
        if self.is_ect() {
            Ecn::Ce
        } else {
            self
        }
    }
}

impl fmt::Display for Ecn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ecn::NotEct => "not-ECT",
            Ecn::Ect1 => "ECT(1)",
            Ecn::Ect0 => "ECT(0)",
            Ecn::Ce => "ECN-CE",
        };
        f.write_str(s)
    }
}

/// The six DSCP bits (RFC 2474) that share the TOS octet with ECN.
///
/// The study sends best-effort traffic (DSCP 0) but the codec keeps the
/// field explicit because one observed middlebox failure mode is routers
/// treating the whole TOS octet — ECN bits included — as a legacy
/// type-of-service value (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Dscp(u8);

impl Dscp {
    /// Best effort / default forwarding.
    pub const DEFAULT: Dscp = Dscp(0);
    /// Expedited forwarding (RFC 3246), used in tests of TOS-sensitive hops.
    pub const EF: Dscp = Dscp(46);

    /// Construct from a 6-bit value; values above 63 are masked.
    pub fn new(value: u8) -> Dscp {
        Dscp(value & 0x3f)
    }

    /// The 6-bit value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Combine with an ECN codepoint into the full TOS octet.
    pub fn to_tos(self, ecn: Ecn) -> u8 {
        (self.0 << 2) | ecn.bits()
    }

    /// Split a TOS octet into DSCP and ECN parts.
    pub fn from_tos(tos: u8) -> (Dscp, Ecn) {
        (Dscp(tos >> 2), Ecn::from_bits(tos))
    }
}

impl fmt::Display for Dscp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecn_bits_roundtrip() {
        for bits in 0..=3u8 {
            assert_eq!(Ecn::from_bits(bits).bits(), bits);
        }
        // Upper bits are ignored on decode.
        assert_eq!(Ecn::from_bits(0b1110), Ecn::Ect0);
    }

    #[test]
    fn capability_predicates() {
        assert!(!Ecn::NotEct.is_ecn_capable());
        assert!(Ecn::Ect0.is_ecn_capable());
        assert!(Ecn::Ect1.is_ecn_capable());
        assert!(Ecn::Ce.is_ecn_capable());
        assert!(Ecn::Ect0.is_ect());
        assert!(Ecn::Ect1.is_ect());
        assert!(!Ecn::Ce.is_ect());
        assert!(!Ecn::NotEct.is_ect());
    }

    #[test]
    fn marking_follows_rfc3168() {
        assert_eq!(Ecn::Ect0.marked(), Ecn::Ce);
        assert_eq!(Ecn::Ect1.marked(), Ecn::Ce);
        assert_eq!(Ecn::Ce.marked(), Ecn::Ce);
        // A not-ECT packet is never *marked*; congestion drops it instead.
        assert_eq!(Ecn::NotEct.marked(), Ecn::NotEct);
        assert!(!Ecn::NotEct.is_markable());
        // Markability is exactly the two ECT codepoints: ECT(1) is as
        // markable as ECT(0), and an already-CE packet is NOT markable —
        // AQM call sites rely on this to draw no randomness (and count
        // no new mark) for packets that already carry the signal.
        assert!(Ecn::Ect0.is_markable());
        assert!(Ecn::Ect1.is_markable());
        assert!(!Ecn::Ce.is_markable());
    }

    #[test]
    fn tos_octet_packing() {
        let tos = Dscp::EF.to_tos(Ecn::Ce);
        assert_eq!(tos, (46 << 2) | 0b11);
        let (dscp, ecn) = Dscp::from_tos(tos);
        assert_eq!(dscp, Dscp::EF);
        assert_eq!(ecn, Ecn::Ce);
    }

    #[test]
    fn dscp_masks_to_six_bits() {
        assert_eq!(Dscp::new(0xff).value(), 0x3f);
        assert_eq!(Dscp::new(46).value(), 46);
    }

    #[test]
    fn display_matches_paper_terminology() {
        assert_eq!(Ecn::Ect0.to_string(), "ECT(0)");
        assert_eq!(Ecn::NotEct.to_string(), "not-ECT");
        assert_eq!(Ecn::Ce.to_string(), "ECN-CE");
    }
}
