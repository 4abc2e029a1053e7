//! The web server pool members are encouraged to run: answers `GET /` with
//! a redirect to `www.pool.ntp.org` (paper §3). Served over the stack's
//! TCP as a [`TcpService`].

use ecn_netsim::Nanos;
use ecn_stack::{TcpService, TcpServiceAction};
use ecn_wire::http::parse_meta;
use ecn_wire::HttpResponse;

/// Behaviour of a pool member's web server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpServerKind {
    /// The standard pool redirect to `www.pool.ntp.org`.
    PoolRedirect,
    /// A host serving its own page with 200 OK.
    PlainOk,
}

/// The HTTP service: waits for a complete request head, answers once,
/// closes the connection (pool servers send `Connection: close`).
///
/// The `GET` response never varies, so it is encoded once at construction;
/// each request clones the canned bytes instead of re-building and
/// re-encoding the response (the dominant allocation cost of serving the
/// probe workload).
pub struct PoolHttpService {
    canned: Vec<u8>,
}

impl PoolHttpService {
    /// Build a service of the given kind.
    pub fn new(kind: HttpServerKind) -> PoolHttpService {
        let canned = match kind {
            HttpServerKind::PoolRedirect => HttpResponse::pool_redirect(),
            HttpServerKind::PlainOk => HttpResponse::ok_with_body(
                b"<html><body>NTP pool member &mdash; time service on UDP 123</body></html>",
            ),
        }
        .encode();
        PoolHttpService { canned }
    }
}

impl TcpService for PoolHttpService {
    fn on_data(&mut self, _now: Nanos, received: &[u8]) -> TcpServiceAction {
        // Wait for the complete head.
        if !received.windows(4).any(|w| w == b"\r\n\r\n") {
            if received.len() > 16 * 1024 {
                return TcpServiceAction::Abort; // oversized request head
            }
            return TcpServiceAction::Wait;
        }
        match parse_meta(received) {
            Ok(("GET", _)) => TcpServiceAction::Respond {
                bytes: self.canned.clone(),
                close: true,
            },
            Ok(_) => {
                let mut r = HttpResponse::ok_with_body(b"method not allowed");
                r.status = 405;
                r.reason = "Method Not Allowed".into();
                TcpServiceAction::Respond {
                    bytes: r.encode(),
                    close: true,
                }
            }
            Err(_) => TcpServiceAction::Abort,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecn_wire::http::encode_get_root_into;
    use std::net::Ipv4Addr;

    fn get_root() -> Vec<u8> {
        let mut req = Vec::new();
        encode_get_root_into(Ipv4Addr::new(192, 0, 2, 80), &mut req);
        req
    }

    #[test]
    fn redirect_service_answers_get_root() {
        let mut s = PoolHttpService::new(HttpServerKind::PoolRedirect);
        let req = get_root();
        // partial head: wait
        assert_eq!(s.on_data(Nanos::ZERO, &req[..10]), TcpServiceAction::Wait);
        match s.on_data(Nanos::ZERO, &req) {
            TcpServiceAction::Respond { bytes, close } => {
                assert!(close);
                assert_eq!(HttpResponse::status_of(&bytes), Ok(302));
                assert_eq!(bytes, HttpResponse::pool_redirect().encode());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn plain_ok_variant() {
        let mut s = PoolHttpService::new(HttpServerKind::PlainOk);
        match s.on_data(Nanos::ZERO, &get_root()) {
            TcpServiceAction::Respond { bytes, .. } => {
                assert_eq!(HttpResponse::status_of(&bytes), Ok(200));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_get_is_405() {
        let mut s = PoolHttpService::new(HttpServerKind::PoolRedirect);
        let req = b"POST / HTTP/1.1\r\nHost: x\r\n\r\n";
        match s.on_data(Nanos::ZERO, req) {
            TcpServiceAction::Respond { bytes, .. } => {
                assert_eq!(HttpResponse::status_of(&bytes), Ok(405));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_request_aborts() {
        let mut s = PoolHttpService::new(HttpServerKind::PoolRedirect);
        assert_eq!(
            s.on_data(Nanos::ZERO, b"NOT HTTP AT ALL\r\n\r\n"),
            TcpServiceAction::Abort
        );
    }

    #[test]
    fn oversized_head_aborts() {
        let mut s = PoolHttpService::new(HttpServerKind::PoolRedirect);
        let big = vec![b'a'; 20 * 1024];
        assert_eq!(s.on_data(Nanos::ZERO, &big), TcpServiceAction::Abort);
    }
}
