//! RTP (RFC 3550) fixed header and a compact ECN feedback report in the
//! spirit of RFC 6679 — the "ECN for RTP over UDP" mechanism whose
//! deployability motivates the whole measurement study (paper §1: WebRTC,
//! NADA congestion control for interactive media).
//!
//! Scope: the 12-byte fixed header without CSRC/extensions, and the
//! summary ECN feedback block (packets received / CE-marked / lost) that a
//! receiver returns so the sender can react to congestion *without* loss.

use crate::error::WireError;

/// RTP fixed header length (no CSRCs).
pub const RTP_HEADER_LEN: usize = 12;

/// The RTP fixed header (V=2, no padding/extension/CSRC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpHeader {
    /// Payload type (e.g. 96 for dynamic video).
    pub payload_type: u8,
    /// Marker bit (end of frame).
    pub marker: bool,
    /// Sequence number.
    pub sequence: u16,
    /// Media timestamp.
    pub timestamp: u32,
    /// Synchronisation source.
    pub ssrc: u32,
}

impl RtpHeader {
    /// Encode header + payload (convenience wrapper; prefer
    /// [`RtpHeader::encode_into`] on hot paths).
    pub fn encode(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(RTP_HEADER_LEN + payload.len());
        self.encode_into(payload, &mut out);
        out
    }

    /// Append header + payload wire bytes to `out`.
    pub fn encode_into(&self, payload: &[u8], out: &mut Vec<u8>) {
        out.push(0x80); // V=2, P=0, X=0, CC=0
        out.push((self.payload_type & 0x7f) | if self.marker { 0x80 } else { 0 });
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.timestamp.to_be_bytes());
        out.extend_from_slice(&self.ssrc.to_be_bytes());
        out.extend_from_slice(payload);
    }

    /// Decode; returns header and payload slice.
    pub fn decode(buf: &[u8]) -> Result<(RtpHeader, &[u8]), WireError> {
        if buf.len() < RTP_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "rtp",
                needed: RTP_HEADER_LEN,
                got: buf.len(),
            });
        }
        let version = buf[0] >> 6;
        if version != 2 {
            return Err(WireError::InvalidField {
                layer: "rtp",
                field: "version",
                value: u64::from(version),
            });
        }
        if buf[0] & 0x2f != 0 {
            // padding/extension/CSRC unsupported in this subset
            return Err(WireError::Malformed {
                layer: "rtp",
                what: "padding/extension/CSRC not supported",
            });
        }
        Ok((
            RtpHeader {
                payload_type: buf[1] & 0x7f,
                marker: buf[1] & 0x80 != 0,
                sequence: u16::from_be_bytes([buf[2], buf[3]]),
                timestamp: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
                ssrc: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            },
            &buf[RTP_HEADER_LEN..],
        ))
    }
}

/// Magic tag distinguishing feedback packets from media on the same port.
const FEEDBACK_MAGIC: [u8; 4] = *b"ECNF";

/// RFC 6679-style ECN summary feedback: what the receiver saw since the
/// last report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EcnFeedback {
    /// Highest sequence number received.
    pub ext_highest_seq: u32,
    /// Packets received in the interval.
    pub received: u32,
    /// Packets that arrived CE-marked.
    pub ce_count: u32,
    /// Packets that arrived ECT(0)-marked (capability confirmation).
    pub ect0_count: u32,
    /// Packets that arrived not-ECT (mark bleached on path).
    pub not_ect_count: u32,
    /// Losses inferred from sequence gaps.
    pub lost: u32,
}

impl EcnFeedback {
    /// Encode to wire form (convenience wrapper; prefer
    /// [`EcnFeedback::encode_into`] on hot paths).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 24);
        self.encode_into(&mut out);
        out
    }

    /// Append the wire form to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&FEEDBACK_MAGIC);
        for v in [
            self.ext_highest_seq,
            self.received,
            self.ce_count,
            self.ect0_count,
            self.not_ect_count,
            self.lost,
        ] {
            out.extend_from_slice(&v.to_be_bytes());
        }
    }

    /// Decode from wire form.
    pub fn decode(buf: &[u8]) -> Result<EcnFeedback, WireError> {
        if buf.len() < 28 {
            return Err(WireError::Truncated {
                layer: "rtp-ecn-feedback",
                needed: 28,
                got: buf.len(),
            });
        }
        if buf[..4] != FEEDBACK_MAGIC {
            return Err(WireError::Malformed {
                layer: "rtp-ecn-feedback",
                what: "bad magic",
            });
        }
        let word = |i: usize| u32::from_be_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
        Ok(EcnFeedback {
            ext_highest_seq: word(4),
            received: word(8),
            ce_count: word(12),
            ect0_count: word(16),
            not_ect_count: word(20),
            lost: word(24),
        })
    }

    /// Is this buffer a feedback packet (vs RTP media)?
    pub fn is_feedback(buf: &[u8]) -> bool {
        buf.len() >= 4 && buf[..4] == FEEDBACK_MAGIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtp_roundtrip() {
        let h = RtpHeader {
            payload_type: 96,
            marker: true,
            sequence: 4242,
            timestamp: 0xdead_beef,
            ssrc: 0x1234_5678,
        };
        let wire = h.encode(b"frame data");
        let (d, payload) = RtpHeader::decode(&wire).unwrap();
        assert_eq!(d, h);
        assert_eq!(payload, b"frame data");
    }

    #[test]
    fn rtp_rejects_bad_version_and_truncation() {
        let h = RtpHeader {
            payload_type: 96,
            marker: false,
            sequence: 1,
            timestamp: 2,
            ssrc: 3,
        };
        let mut wire = h.encode(b"");
        wire[0] = 0x40; // version 1
        assert!(matches!(
            RtpHeader::decode(&wire),
            Err(WireError::InvalidField {
                field: "version",
                ..
            })
        ));
        assert!(RtpHeader::decode(&wire[..8]).is_err());
    }

    #[test]
    fn feedback_roundtrip_and_detection() {
        let f = EcnFeedback {
            ext_highest_seq: 1000,
            received: 98,
            ce_count: 5,
            ect0_count: 93,
            not_ect_count: 0,
            lost: 2,
        };
        let wire = f.encode();
        assert!(EcnFeedback::is_feedback(&wire));
        assert_eq!(EcnFeedback::decode(&wire).unwrap(), f);
        // media packets are not feedback
        let media = RtpHeader {
            payload_type: 96,
            marker: false,
            sequence: 1,
            timestamp: 2,
            ssrc: 3,
        }
        .encode(b"x");
        assert!(!EcnFeedback::is_feedback(&media));
        assert!(EcnFeedback::decode(&media).is_err());
    }

    #[test]
    fn feedback_rejects_truncation() {
        let f = EcnFeedback::default();
        let wire = f.encode();
        assert!(EcnFeedback::decode(&wire[..20]).is_err());
    }
}
