//! The HTTP/1.1 subset used by the TCP reachability probe: a `GET` for the
//! root page, and the (typically `302 Found` redirect to
//! `www.pool.ntp.org`) response that pool web servers return.

use crate::error::WireError;
use std::net::Ipv4Addr;

/// Append the probe request of paper §3 to `out`: `GET /` with `Host:`
/// set to `server`, a fixed `User-Agent:` and `Connection: close`.
pub fn encode_get_root_into(server: Ipv4Addr, out: &mut Vec<u8>) {
    use std::io::Write as _;
    let _ = write!(
        out,
        "GET / HTTP/1.1\r\nHost: {server}\r\nUser-Agent: ecn-udp-study/1.0\r\nConnection: close\r\n\r\n"
    );
}

/// Parse a request head (terminated by a blank line), returning
/// `(method, path)` borrowed from `buf`. The request line needs a
/// non-empty method and path and an `HTTP/1.x` version, and every header
/// line a colon.
pub fn parse_meta(buf: &[u8]) -> Result<(&str, &str), WireError> {
    let head = head_of(buf)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(WireError::Malformed {
                layer: "http",
                what: "bad request line",
            })
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed {
            layer: "http",
            what: "unsupported HTTP version",
        });
    }
    validate_headers(lines)?;
    Ok((method, path))
}

fn encode_headers(headers: &[(String, String)], out: &mut Vec<u8>) {
    for (k, v) in headers {
        out.extend_from_slice(k.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(v.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Decimal-format `v` into `buf`, returning the digit count (no heap).
fn encode_u16(v: u16, buf: &mut [u8; 5]) -> usize {
    let mut tmp = [0u8; 5];
    let mut v = v;
    let mut i = 0;
    loop {
        tmp[i] = b'0' + (v % 10) as u8;
        v /= 10;
        i += 1;
        if v == 0 {
            break;
        }
    }
    for (j, d) in tmp[..i].iter().rev().enumerate() {
        buf[j] = *d;
    }
    i
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code (e.g. 302).
    pub status: u16,
    /// Reason phrase (e.g. `Found`).
    pub reason: String,
    /// Header name/value pairs in order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The canonical pool-member response: a redirect to the pool website.
    pub fn pool_redirect() -> HttpResponse {
        let body: Vec<u8> = b"<html><head><title>302 Found</title></head>\
              <body>This is a member of the NTP pool. See \
              <a href=\"http://www.pool.ntp.org/\">www.pool.ntp.org</a>.</body></html>"
            .to_vec();
        HttpResponse {
            status: 302,
            reason: "Found".into(),
            headers: vec![
                ("Location".into(), "http://www.pool.ntp.org/".into()),
                ("Content-Type".into(), "text/html".into()),
                ("Content-Length".into(), body.len().to_string()),
                ("Connection".into(), "close".into()),
            ],
            body,
        }
    }

    /// A plain 200 response (a few pool hosts serve their own page).
    pub fn ok_with_body(body: &[u8]) -> HttpResponse {
        HttpResponse {
            status: 200,
            reason: "OK".into(),
            headers: vec![
                ("Content-Type".into(), "text/html".into()),
                ("Content-Length".into(), body.len().to_string()),
                ("Connection".into(), "close".into()),
            ],
            body: body.to_vec(),
        }
    }

    /// Serialise to wire form (convenience wrapper; prefer
    /// [`HttpResponse::encode_into`] on hot paths).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        self.encode_into(&mut out);
        out
    }

    /// Append the wire form to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"HTTP/1.1 ");
        let mut status = [0u8; 5];
        let n = encode_u16(self.status, &mut status);
        out.extend_from_slice(&status[..n]);
        out.push(b' ');
        out.extend_from_slice(self.reason.as_bytes());
        out.extend_from_slice(b"\r\n");
        encode_headers(&self.headers, out);
        out.extend_from_slice(&self.body);
    }

    /// Status code of a response head (terminated by a blank line),
    /// without allocating: the status line needs an `HTTP/1.x` version
    /// and a numeric code, and every header line a colon. The prober's
    /// verdict only needs the status.
    pub fn status_of(buf: &[u8]) -> Result<u16, WireError> {
        let head = head_of(buf)?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(WireError::Malformed {
                layer: "http",
                what: "bad status line version",
            });
        }
        let status: u16 =
            parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(WireError::Malformed {
                    layer: "http",
                    what: "bad status code",
                })?;
        validate_headers(lines)?;
        Ok(status)
    }

    /// Is the whole head plus declared body present in `buf`? The prober
    /// uses this to decide when a response is complete.
    pub fn is_complete(buf: &[u8]) -> bool {
        match head_of(buf) {
            Err(_) => false,
            Ok(head) => {
                let head_len = head.len() + 4;
                let declared = head
                    .split("\r\n")
                    .skip(1)
                    .filter_map(|l| l.split_once(':'))
                    .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .unwrap_or(0);
                buf.len() >= head_len + declared
            }
        }
    }
}

fn head_of(buf: &[u8]) -> Result<&str, WireError> {
    let end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(WireError::Truncated {
            layer: "http",
            needed: buf.len() + 1,
            got: buf.len(),
        })?;
    std::str::from_utf8(&buf[..end]).map_err(|_| WireError::Malformed {
        layer: "http",
        what: "non-utf8 head",
    })
}

/// Refuse any non-empty header line without a colon.
fn validate_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<(), WireError> {
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if !line.contains(':') {
            return Err(WireError::Malformed {
                layer: "http",
                what: "header missing colon",
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_get_and_the_pool_redirect_parse_back() {
        let mut get = Vec::new();
        encode_get_root_into(Ipv4Addr::new(192, 0, 2, 80), &mut get);
        assert_eq!(parse_meta(&get), Ok(("GET", "/")));
        assert!(get.windows(18).any(|w| w == b"Host: 192.0.2.80\r\n"));

        let redirect = HttpResponse::pool_redirect().encode();
        assert_eq!(HttpResponse::status_of(&redirect), Ok(302));
        assert!(HttpResponse::is_complete(&redirect));
        assert!(!HttpResponse::is_complete(&redirect[..redirect.len() - 1]));
    }
}
