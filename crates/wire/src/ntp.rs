//! The 48-byte NTP packet (RFC 5905), the payload of every UDP probe.
//!
//! The measurement application implements "a custom NTP client" (paper §3):
//! it sends a mode-3 (client) request and accepts any syntactically valid
//! mode-4 (server) response as evidence of reachability. The server side
//! answers each request with a mode-4 response.

use crate::error::WireError;
use std::fmt;

/// NTP packet length, bytes. Extensions/MAC fields are not used by the pool.
pub const NTP_PACKET_LEN: usize = 48;

/// Leap-indicator value meaning "clock unsynchronised".
pub const LEAP_UNSYNC: u8 = 3;

/// NTP association modes (RFC 5905 §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NtpMode {
    /// 1 — symmetric active.
    SymmetricActive,
    /// 2 — symmetric passive.
    SymmetricPassive,
    /// 3 — client request.
    Client,
    /// 4 — server response.
    Server,
    /// 5 — broadcast.
    Broadcast,
    /// 0, 6, 7 — reserved/control/private, preserved verbatim.
    Other(u8),
}

impl NtpMode {
    fn value(self) -> u8 {
        match self {
            NtpMode::SymmetricActive => 1,
            NtpMode::SymmetricPassive => 2,
            NtpMode::Client => 3,
            NtpMode::Server => 4,
            NtpMode::Broadcast => 5,
            NtpMode::Other(v) => v & 0b111,
        }
    }

    fn from_value(v: u8) -> NtpMode {
        match v & 0b111 {
            1 => NtpMode::SymmetricActive,
            2 => NtpMode::SymmetricPassive,
            3 => NtpMode::Client,
            4 => NtpMode::Server,
            5 => NtpMode::Broadcast,
            other => NtpMode::Other(other),
        }
    }
}

/// 64-bit NTP timestamp: seconds since 1900-01-01 and a 2^-32 fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct NtpTimestamp {
    /// Whole seconds since the NTP epoch.
    pub seconds: u32,
    /// Fractional seconds in units of 2^-32 s.
    pub fraction: u32,
}

impl NtpTimestamp {
    /// The zero timestamp (meaning "unknown" in origin fields).
    pub const ZERO: NtpTimestamp = NtpTimestamp {
        seconds: 0,
        fraction: 0,
    };

    /// Convert from nanoseconds since the NTP epoch.
    pub fn from_nanos(nanos: u64) -> NtpTimestamp {
        let seconds = (nanos / 1_000_000_000) as u32;
        let rem = nanos % 1_000_000_000;
        let fraction = ((rem << 32) / 1_000_000_000) as u32;
        NtpTimestamp { seconds, fraction }
    }

    /// Convert to nanoseconds since the NTP epoch (lossy below ~0.23 ns).
    pub fn to_nanos(self) -> u64 {
        u64::from(self.seconds) * 1_000_000_000 + ((u64::from(self.fraction) * 1_000_000_000) >> 32)
    }

    fn encode(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seconds.to_be_bytes());
        out.extend_from_slice(&self.fraction.to_be_bytes());
    }

    fn decode(buf: &[u8]) -> NtpTimestamp {
        NtpTimestamp {
            seconds: u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]),
            fraction: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
        }
    }
}

impl fmt::Display for NtpTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{:09}",
            self.seconds,
            (self.to_nanos() % 1_000_000_000)
        )
    }
}

/// A decoded NTP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtpPacket {
    /// Leap indicator (2 bits).
    pub leap: u8,
    /// Protocol version (3 bits); the pool runs v3/v4.
    pub version: u8,
    /// Association mode.
    pub mode: NtpMode,
    /// Stratum: 0 = KoD/unspec, 1 = primary, 2.. = secondary.
    pub stratum: u8,
    /// log2 poll interval.
    pub poll: i8,
    /// log2 clock precision.
    pub precision: i8,
    /// Root delay in NTP short format.
    pub root_delay: u32,
    /// Root dispersion in NTP short format.
    pub root_dispersion: u32,
    /// Reference ID: refclock tag, upstream address, or KoD code.
    pub reference_id: [u8; 4],
    /// When the clock was last set.
    pub reference_ts: NtpTimestamp,
    /// Client transmit time, copied by the server (request matching).
    pub origin_ts: NtpTimestamp,
    /// When the server received the request.
    pub receive_ts: NtpTimestamp,
    /// When this packet left its sender.
    pub transmit_ts: NtpTimestamp,
}

impl NtpPacket {
    /// A client (mode 3) request with the given transmit timestamp, shaped
    /// like what `ntpdate`/`sntp` send.
    pub fn client_request(transmit_ts: NtpTimestamp) -> NtpPacket {
        NtpPacket {
            leap: LEAP_UNSYNC,
            version: 4,
            mode: NtpMode::Client,
            stratum: 0,
            poll: 4,
            precision: -20,
            root_delay: 0,
            root_dispersion: 0,
            reference_id: [0; 4],
            reference_ts: NtpTimestamp::ZERO,
            origin_ts: NtpTimestamp::ZERO,
            receive_ts: NtpTimestamp::ZERO,
            transmit_ts,
        }
    }

    /// A server (mode 4) response to `request`.
    pub fn server_response(
        request: &NtpPacket,
        stratum: u8,
        reference_id: [u8; 4],
        receive_ts: NtpTimestamp,
        transmit_ts: NtpTimestamp,
    ) -> NtpPacket {
        NtpPacket {
            leap: 0,
            version: request.version.clamp(3, 4),
            mode: NtpMode::Server,
            stratum,
            poll: request.poll,
            precision: -23,
            root_delay: 0x0000_0200,      // ~7.8 ms in NTP short format
            root_dispersion: 0x0000_0100, // ~3.9 ms
            reference_id,
            reference_ts: receive_ts,
            origin_ts: request.transmit_ts,
            receive_ts,
            transmit_ts,
        }
    }

    /// True if this packet is a plausible server answer to `request`:
    /// mode 4 and the origin timestamp echoes the request's transmit time
    /// — the paper records a server as reachable if *any* NTP response
    /// arrives.
    pub fn answers(&self, request: &NtpPacket) -> bool {
        self.mode == NtpMode::Server && self.origin_ts == request.transmit_ts
    }

    /// Encode to the 48-byte wire format (convenience wrapper; prefer
    /// [`NtpPacket::encode_into`] on hot paths).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(NTP_PACKET_LEN);
        self.encode_into(&mut out);
        out
    }

    /// Append the 48-byte wire format to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.push(((self.leap & 0b11) << 6) | ((self.version & 0b111) << 3) | self.mode.value());
        out.push(self.stratum);
        out.push(self.poll as u8);
        out.push(self.precision as u8);
        out.extend_from_slice(&self.root_delay.to_be_bytes());
        out.extend_from_slice(&self.root_dispersion.to_be_bytes());
        out.extend_from_slice(&self.reference_id);
        self.reference_ts.encode(out);
        self.origin_ts.encode(out);
        self.receive_ts.encode(out);
        self.transmit_ts.encode(out);
        debug_assert_eq!(out.len() - start, NTP_PACKET_LEN);
    }

    /// Decode from wire bytes (must be at least 48 bytes; extensions after
    /// the base header are ignored, as SNTP clients do).
    pub fn decode(buf: &[u8]) -> Result<NtpPacket, WireError> {
        if buf.len() < NTP_PACKET_LEN {
            return Err(WireError::Truncated {
                layer: "ntp",
                needed: NTP_PACKET_LEN,
                got: buf.len(),
            });
        }
        let version = (buf[0] >> 3) & 0b111;
        if version == 0 || version > 4 {
            return Err(WireError::InvalidField {
                layer: "ntp",
                field: "version",
                value: u64::from(version),
            });
        }
        Ok(NtpPacket {
            leap: buf[0] >> 6,
            version,
            mode: NtpMode::from_value(buf[0]),
            stratum: buf[1],
            poll: buf[2] as i8,
            precision: buf[3] as i8,
            root_delay: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            root_dispersion: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            reference_id: [buf[12], buf[13], buf[14], buf[15]],
            reference_ts: NtpTimestamp::decode(&buf[16..24]),
            origin_ts: NtpTimestamp::decode(&buf[24..32]),
            receive_ts: NtpTimestamp::decode(&buf[32..40]),
            transmit_ts: NtpTimestamp::decode(&buf[40..48]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let ts = NtpTimestamp::from_nanos(3_650_000_000_123_456_789);
        let req = NtpPacket::client_request(ts);
        let bytes = req.encode();
        assert_eq!(bytes.len(), NTP_PACKET_LEN);
        let dec = NtpPacket::decode(&bytes).unwrap();
        assert_eq!(dec, req);
        assert_eq!(dec.mode, NtpMode::Client);
    }

    #[test]
    fn server_response_echoes_origin() {
        let req = NtpPacket::client_request(NtpTimestamp::from_nanos(42_000_000_000));
        let rsp = NtpPacket::server_response(
            &req,
            2,
            *b"GPS\0",
            NtpTimestamp::from_nanos(42_000_500_000),
            NtpTimestamp::from_nanos(42_000_600_000),
        );
        assert!(rsp.answers(&req));
        assert_eq!(rsp.origin_ts, req.transmit_ts);
        let other_req = NtpPacket::client_request(NtpTimestamp::from_nanos(43_000_000_000));
        assert!(!rsp.answers(&other_req));
    }

    #[test]
    fn timestamp_nanos_roundtrip_within_precision() {
        for nanos in [
            0u64,
            1,
            999_999_999,
            1_000_000_000,
            3_650_000_000_123_456_789,
        ] {
            let ts = NtpTimestamp::from_nanos(nanos);
            let back = ts.to_nanos();
            assert!(back.abs_diff(nanos) <= 1, "{nanos} -> {back}");
        }
    }

    #[test]
    fn rejects_bad_version_and_short_buffers() {
        let req = NtpPacket::client_request(NtpTimestamp::ZERO);
        let mut bytes = req.encode();
        bytes[0] = (bytes[0] & !0b0011_1000) | (7 << 3);
        assert!(matches!(
            NtpPacket::decode(&bytes),
            Err(WireError::InvalidField {
                field: "version",
                ..
            })
        ));
        assert!(matches!(
            NtpPacket::decode(&bytes[..40]),
            Err(WireError::Truncated { layer: "ntp", .. })
        ));
    }

    #[test]
    fn negative_poll_and_precision_roundtrip() {
        let mut req = NtpPacket::client_request(NtpTimestamp::ZERO);
        req.poll = -6;
        req.precision = -29;
        let dec = NtpPacket::decode(&req.encode()).unwrap();
        assert_eq!(dec.poll, -6);
        assert_eq!(dec.precision, -29);
    }

    #[test]
    fn trailing_extension_bytes_ignored() {
        let req = NtpPacket::client_request(NtpTimestamp::ZERO);
        let mut bytes = req.encode();
        bytes.extend_from_slice(&[0u8; 20]); // fake extension field
        assert_eq!(NtpPacket::decode(&bytes).unwrap(), req);
    }
}
