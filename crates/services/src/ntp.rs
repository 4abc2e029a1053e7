//! The NTP server service run by every pool member, and the custom NTP
//! client used by the measurement application (paper §3).

use ecn_netsim::Nanos;
use ecn_stack::UdpService;
use ecn_wire::{Ecn, NtpPacket, NtpTimestamp};
use std::net::Ipv4Addr;

/// Offset between the simulation epoch and the NTP epoch, so simulated
/// clocks read like plausible 2015 wall-clock times. 3_639_600_000 s after
/// 1900-01-01 ≈ April 2015.
pub const NTP_EPOCH_OFFSET_SECS: u64 = 3_639_600_000;

/// Convert virtual time to an NTP timestamp.
pub fn ntp_now(now: Nanos) -> NtpTimestamp {
    NtpTimestamp::from_nanos(NTP_EPOCH_OFFSET_SECS * 1_000_000_000 + now.0)
}

/// Configuration of a pool member's NTP daemon.
#[derive(Debug, Clone, Copy)]
pub struct NtpServerConfig {
    /// Stratum advertised (pool servers are mostly 2–3).
    pub stratum: u8,
    /// Reference identifier.
    pub reference_id: [u8; 4],
}

impl Default for NtpServerConfig {
    fn default() -> Self {
        NtpServerConfig {
            stratum: 2,
            reference_id: *b"GPS\0",
        }
    }
}

/// An RFC 5905 mode-3→mode-4 responder, run as a [`UdpService`] on port 123.
pub struct NtpServerService {
    config: NtpServerConfig,
}

impl NtpServerService {
    /// Build a responder.
    pub fn new(config: NtpServerConfig) -> NtpServerService {
        NtpServerService { config }
    }
}

impl UdpService for NtpServerService {
    fn handle(
        &mut self,
        now: Nanos,
        _src: (Ipv4Addr, u16),
        _ecn: Ecn,
        payload: &[u8],
    ) -> Option<Vec<u8>> {
        let req = NtpPacket::decode(payload).ok()?;
        // Only answer client-mode requests (mode 3).
        if req.mode != ecn_wire::NtpMode::Client {
            return None;
        }
        let ts = ntp_now(now);
        Some(
            NtpPacket::server_response(&req, self.config.stratum, self.config.reference_id, ts, ts)
                .encode(),
        )
    }
}

/// Client-side helpers for the measurement application's custom NTP client.
pub struct NtpClient;

impl NtpClient {
    /// Build a request stamped with the current virtual time. The transmit
    /// timestamp doubles as a nonce: responses echo it in `origin_ts`,
    /// which is how [`NtpClient::matches`] pairs responses to requests.
    pub fn request(now: Nanos) -> NtpPacket {
        NtpPacket::client_request(ntp_now(now))
    }

    /// Does `payload` decode as a server response to `req`?
    pub fn matches(req: &NtpPacket, payload: &[u8]) -> bool {
        NtpPacket::decode(payload)
            .map(|rsp| rsp.answers(req))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40001);

    #[test]
    fn responds_to_client_mode_requests() {
        let mut s = NtpServerService::new(NtpServerConfig::default());
        let req = NtpClient::request(Nanos::from_secs(100));
        let rsp = s
            .handle(Nanos::from_secs(100), SRC, Ecn::Ect0, &req.encode())
            .expect("response");
        assert!(NtpClient::matches(&req, &rsp));
        let parsed = NtpPacket::decode(&rsp).unwrap();
        assert_eq!(parsed.stratum, 2);
        assert!(parsed.receive_ts.seconds > 3_000_000_000, "2015-era time");
    }

    #[test]
    fn ignores_non_client_modes_and_garbage() {
        let mut s = NtpServerService::new(NtpServerConfig::default());
        let mut req = NtpClient::request(Nanos::ZERO);
        req.mode = ecn_wire::NtpMode::Server;
        assert!(s
            .handle(Nanos::ZERO, SRC, Ecn::NotEct, &req.encode())
            .is_none());
        assert!(s
            .handle(Nanos::ZERO, SRC, Ecn::NotEct, b"not ntp")
            .is_none());
    }

    #[test]
    fn response_does_not_match_wrong_request() {
        let mut s = NtpServerService::new(NtpServerConfig::default());
        let req1 = NtpClient::request(Nanos::from_secs(1));
        let req2 = NtpClient::request(Nanos::from_secs(2));
        let rsp = s
            .handle(Nanos::from_secs(1), SRC, Ecn::NotEct, &req1.encode())
            .unwrap();
        assert!(NtpClient::matches(&req1, &rsp));
        assert!(!NtpClient::matches(&req2, &rsp));
    }
}
