//! DNS message codec (RFC 1035) — the subset needed to scrape the NTP pool:
//! A-record queries against `pool.ntp.org` and its country/region
//! subdomains, with round-robin answers.

use crate::error::WireError;
use std::net::Ipv4Addr;

/// Query types used by the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QType {
    /// A host address (1).
    A,
    /// Any other type, preserved.
    Other(u16),
}

impl QType {
    fn value(self) -> u16 {
        match self {
            QType::A => 1,
            QType::Other(v) => v,
        }
    }
    fn from_value(v: u16) -> QType {
        match v {
            1 => QType::A,
            other => QType::Other(other),
        }
    }
}

/// Query classes (IN is the only one in live use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QClass {
    /// The Internet (1).
    In,
    /// Anything else, preserved.
    Other(u16),
}

impl QClass {
    fn value(self) -> u16 {
        match self {
            QClass::In => 1,
            QClass::Other(v) => v,
        }
    }
    fn from_value(v: u16) -> QClass {
        match v {
            1 => QClass::In,
            other => QClass::Other(other),
        }
    }
}

/// Response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rcode {
    /// 0 — no error.
    NoError,
    /// 1 — format error.
    FormErr,
    /// 2 — server failure.
    ServFail,
    /// 3 — no such name.
    NxDomain,
    /// 4 — not implemented.
    NotImp,
    /// 5 — refused.
    Refused,
    /// Anything else.
    Other(u8),
}

impl Rcode {
    fn value(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0f,
        }
    }
    fn from_value(v: u8) -> Rcode {
        match v & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Header flag word, decomposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsFlags {
    /// Response (true) or query (false).
    pub response: bool,
    /// Opcode (0 = standard query).
    pub opcode: u8,
    /// Authoritative answer.
    pub authoritative: bool,
    /// Truncated.
    pub truncated: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl DnsFlags {
    /// Flags for a standard recursive query.
    pub fn query() -> DnsFlags {
        DnsFlags {
            response: false,
            opcode: 0,
            authoritative: false,
            truncated: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: Rcode::NoError,
        }
    }

    /// Flags for an authoritative answer to `q`.
    pub fn answer_to(q: DnsFlags, rcode: Rcode) -> DnsFlags {
        DnsFlags {
            response: true,
            opcode: q.opcode,
            authoritative: true,
            truncated: false,
            recursion_desired: q.recursion_desired,
            recursion_available: true,
            rcode,
        }
    }

    fn encode(self) -> u16 {
        let mut v = 0u16;
        if self.response {
            v |= 0x8000;
        }
        v |= u16::from(self.opcode & 0x0f) << 11;
        if self.authoritative {
            v |= 0x0400;
        }
        if self.truncated {
            v |= 0x0200;
        }
        if self.recursion_desired {
            v |= 0x0100;
        }
        if self.recursion_available {
            v |= 0x0080;
        }
        v |= u16::from(self.rcode.value());
        v
    }

    fn decode(v: u16) -> DnsFlags {
        DnsFlags {
            response: v & 0x8000 != 0,
            opcode: ((v >> 11) & 0x0f) as u8,
            authoritative: v & 0x0400 != 0,
            truncated: v & 0x0200 != 0,
            recursion_desired: v & 0x0100 != 0,
            recursion_available: v & 0x0080 != 0,
            rcode: Rcode::from_value(v as u8),
        }
    }
}

/// Append `name` as wire labels, case-folded, each cut to 63 bytes, with
/// empty labels (a trailing dot, `a..b`) skipped.
fn encode_name(name: &str, out: &mut Vec<u8>) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let bytes = label.as_bytes();
        let n = bytes.len().min(63);
        out.push(n as u8);
        out.extend(bytes[..n].iter().map(|b| b.to_ascii_lowercase()));
    }
    out.push(0);
}

/// Walk a possibly-compressed name starting at `pos`, invoking `on_label`
/// for each raw label, and return the offset just past the name in the
/// *original* stream.
fn walk_name(
    buf: &[u8],
    mut pos: usize,
    mut on_label: impl FnMut(&[u8]),
) -> Result<usize, WireError> {
    let mut jumped = false;
    let mut after_jump = 0usize;
    let mut hops = 0u32;
    loop {
        if pos >= buf.len() {
            return Err(WireError::Truncated {
                layer: "dns",
                needed: pos + 1,
                got: buf.len(),
            });
        }
        let len = buf[pos] as usize;
        if len & 0xc0 == 0xc0 {
            // compression pointer
            if pos + 1 >= buf.len() {
                return Err(WireError::Truncated {
                    layer: "dns",
                    needed: pos + 2,
                    got: buf.len(),
                });
            }
            let target = ((len & 0x3f) << 8) | buf[pos + 1] as usize;
            if !jumped {
                after_jump = pos + 2;
                jumped = true;
            }
            hops += 1;
            if hops > 16 {
                return Err(WireError::Malformed {
                    layer: "dns",
                    what: "compression loop",
                });
            }
            pos = target;
            continue;
        }
        if len == 0 {
            pos += 1;
            break;
        }
        if len > 63 {
            return Err(WireError::Malformed {
                layer: "dns",
                what: "label length > 63",
            });
        }
        if pos + 1 + len > buf.len() {
            return Err(WireError::Truncated {
                layer: "dns",
                needed: pos + 1 + len,
                got: buf.len(),
            });
        }
        on_label(&buf[pos + 1..pos + 1 + len]);
        pos += 1 + len;
    }
    Ok(if jumped { after_jump } else { pos })
}

/// Append the wire bytes of a standard recursive A/IN query for `name`
/// (case-folded, without the trailing dot) to `out`. The discovery
/// loop's per-query path.
pub fn encode_a_query_into(id: u16, name: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(&DnsFlags::query().encode().to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&0u16.to_be_bytes());
    out.extend_from_slice(&0u16.to_be_bytes());
    out.extend_from_slice(&0u16.to_be_bytes());
    encode_name(name, out);
    out.extend_from_slice(&QType::A.value().to_be_bytes());
    out.extend_from_slice(&QClass::In.value().to_be_bytes());
}

/// Borrowed view of a query's header and first question, produced by
/// [`read_query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryView {
    /// Transaction ID.
    pub id: u16,
    /// Header flags.
    pub flags: DnsFlags,
    /// Question count (only the first question is read).
    pub questions: u16,
    /// First question's type.
    pub qtype: QType,
    /// First question's class.
    pub qclass: QClass,
}

/// Parse a message's header and first question, folding the question name
/// into `name_out` (cleared first: labels joined by dots, ASCII
/// lowercased), while validating the *whole* message. Returns `Ok(None)`
/// for a valid message with an empty question section.
pub fn read_query(buf: &[u8], name_out: &mut String) -> Result<Option<QueryView>, WireError> {
    name_out.clear();
    let fold = |label: &[u8]| {
        if !name_out.is_empty() {
            name_out.push('.');
        }
        match std::str::from_utf8(label) {
            Ok(s) => name_out.extend(s.chars().map(|c| c.to_ascii_lowercase())),
            // rare: non-UTF-8 bytes become U+FFFD
            Err(_) => name_out.push_str(&String::from_utf8_lossy(label).to_ascii_lowercase()),
        }
    };
    let walk = walk_message(buf, fold, |_| {})?;
    Ok(walk.first.map(|(qtype, qclass)| QueryView {
        id: walk.id,
        flags: walk.flags,
        questions: walk.questions,
        qtype,
        qclass,
    }))
}

/// Append an authoritative single-question A response to `out`: the
/// question `view`/`name` echoed, then one A record per address with
/// `ttl`; `NXDOMAIN` when `addrs` is empty.
pub fn encode_a_response_into(
    view: &QueryView,
    name: &str,
    ttl: u32,
    addrs: &[Ipv4Addr],
    out: &mut Vec<u8>,
) {
    let rcode = if addrs.is_empty() {
        Rcode::NxDomain
    } else {
        Rcode::NoError
    };
    out.extend_from_slice(&view.id.to_be_bytes());
    out.extend_from_slice(
        &DnsFlags::answer_to(view.flags, rcode)
            .encode()
            .to_be_bytes(),
    );
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&(addrs.len() as u16).to_be_bytes());
    out.extend_from_slice(&0u16.to_be_bytes()); // nscount
    out.extend_from_slice(&0u16.to_be_bytes()); // arcount
    encode_name(name, out);
    out.extend_from_slice(&view.qtype.value().to_be_bytes());
    out.extend_from_slice(&view.qclass.value().to_be_bytes());
    for a in addrs {
        encode_name(name, out);
        out.extend_from_slice(&QType::A.value().to_be_bytes());
        out.extend_from_slice(&QClass::In.value().to_be_bytes());
        out.extend_from_slice(&ttl.to_be_bytes());
        out.extend_from_slice(&4u16.to_be_bytes());
        out.extend_from_slice(&a.octets());
    }
}

/// Validate a whole message, invoking `f` with each A record of the
/// answer section (authority and additional records are checked and
/// skipped), without allocating. The discovery loop's per-response path.
pub fn for_each_a_record(buf: &[u8], f: impl FnMut(Ipv4Addr)) -> Result<(), WireError> {
    walk_message(buf, |_| {}, f).map(|_| ())
}

/// What [`walk_message`] reads off a message besides its callbacks.
struct Walked {
    id: u16,
    flags: DnsFlags,
    questions: u16,
    /// The first question's type and class.
    first: Option<(QType, QClass)>,
}

/// The one pass behind [`read_query`] and [`for_each_a_record`]: validate
/// the header, every question and every record (answer, authority and
/// additional), handing the first question's labels to `first_name` and
/// each well-formed A record of the answer section to `on_a`.
fn walk_message(
    buf: &[u8],
    mut first_name: impl FnMut(&[u8]),
    mut on_a: impl FnMut(Ipv4Addr),
) -> Result<Walked, WireError> {
    if buf.len() < 12 {
        return Err(WireError::Truncated {
            layer: "dns",
            needed: 12,
            got: buf.len(),
        });
    }
    let count = |at: usize| u16::from_be_bytes([buf[at], buf[at + 1]]);
    let (qdcount, ancount) = (count(4), usize::from(count(6)));
    let records = ancount + usize::from(count(8)) + usize::from(count(10));
    let mut walked = Walked {
        id: count(0),
        flags: DnsFlags::decode(count(2)),
        questions: qdcount,
        first: None,
    };

    let mut pos = 12;
    for q in 0..qdcount {
        pos = if q == 0 {
            walk_name(buf, pos, &mut first_name)?
        } else {
            walk_name(buf, pos, |_| {})?
        };
        if buf.len() < pos + 4 {
            return Err(WireError::Truncated {
                layer: "dns",
                needed: pos + 4,
                got: buf.len(),
            });
        }
        if q == 0 {
            walked.first = Some((
                QType::from_value(count(pos)),
                QClass::from_value(count(pos + 2)),
            ));
        }
        pos += 4;
    }
    for i in 0..records {
        pos = walk_name(buf, pos, |_| {})?;
        if buf.len() < pos + 10 {
            return Err(WireError::Truncated {
                layer: "dns",
                needed: pos + 10,
                got: buf.len(),
            });
        }
        let rtype = QType::from_value(count(pos));
        let rdlen = usize::from(count(pos + 8));
        pos += 10;
        if buf.len() < pos + rdlen {
            return Err(WireError::Truncated {
                layer: "dns",
                needed: pos + rdlen,
                got: buf.len(),
            });
        }
        if i < ancount && rtype == QType::A && rdlen == 4 {
            on_a(Ipv4Addr::new(
                buf[pos],
                buf[pos + 1],
                buf[pos + 2],
                buf[pos + 3],
            ));
        }
        pos += rdlen;
    }
    Ok(walked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_of(bytes: &[u8], name: &mut String) -> QueryView {
        read_query(bytes, name).unwrap().unwrap()
    }

    #[test]
    fn query_and_response_read_back() {
        let mut query = Vec::new();
        encode_a_query_into(7, "Pool.NTP.Org.", &mut query);
        let mut name = String::new();
        let view = view_of(&query, &mut name);
        assert_eq!(name, "pool.ntp.org");
        assert_eq!((view.id, view.questions), (7, 1));
        assert_eq!((view.qtype, view.qclass), (QType::A, QClass::In));
        assert!(!view.flags.response && view.flags.recursion_desired);

        let addrs = [Ipv4Addr::new(192, 0, 2, 1), Ipv4Addr::new(192, 0, 2, 2)];
        for n in [0, 2] {
            let mut rsp = Vec::new();
            encode_a_response_into(&view, &name, 150, &addrs[..n], &mut rsp);
            let mut got = Vec::new();
            for_each_a_record(&rsp, |a| got.push(a)).unwrap();
            assert_eq!(got, addrs[..n]);
            let answer = view_of(&rsp, &mut String::new()).flags;
            assert!(answer.response && answer.authoritative);
            let rcode = if n == 0 {
                Rcode::NxDomain
            } else {
                Rcode::NoError
            };
            assert_eq!(answer.rcode, rcode);
        }
    }

    #[test]
    fn compression_pointers_resolve_and_loops_are_refused() {
        let mut rsp = Vec::new();
        encode_a_query_into(3, "pool.ntp.org", &mut rsp);
        rsp[6..8].copy_from_slice(&1u16.to_be_bytes()); // one answer
        let answer = rsp.len();
        rsp.extend_from_slice(&[0xc0, 12]); // the question's name
        rsp.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 203, 0, 113, 5]);
        let mut got = Vec::new();
        for_each_a_record(&rsp, |a| got.push(a)).unwrap();
        assert_eq!(got, [Ipv4Addr::new(203, 0, 113, 5)]);

        rsp[answer..answer + 2].copy_from_slice(&[0xc0, answer as u8]); // itself
        let loop_err = WireError::Malformed {
            layer: "dns",
            what: "compression loop",
        };
        assert_eq!(for_each_a_record(&rsp, |_| {}), Err(loop_err.clone()));
        assert_eq!(read_query(&rsp, &mut String::new()), Err(loop_err));
    }
}
