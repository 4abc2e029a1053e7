//! The bytes and parse verdicts of the codecs the campaign runs, frozen
//! in `tests/golden/wire_bytes.txt` (regenerate with
//! `ECNUDP_BLESS=1 cargo test --test wire_bytes`):
//!
//! - **DNS**: A queries over awkward names and ids, responses with 0, 1
//!   and 4 A records, and `read_query`/`for_each_a_record` over each of
//!   them, over every truncation, and over compressed, looping,
//!   over-long and non-A inputs;
//! - **HTTP**: the probe's GET, the canned responses, and `parse_meta`,
//!   `status_of` and `is_complete` over well- and malformed heads;
//! - **ICMP**: time-exceeded and every destination-unreachable code over
//!   short and full originals, and echo replies.
//!
//! One line per case: the hex bytes an encoder writes, or the verdict a
//! parser gives (its fields, or the `WireError`).

#[path = "util/golden.rs"]
mod golden;

use ecnudp::wire::icmp::{self, IcmpMessage};
use ecnudp::wire::{
    dns, http, udp, Datagram, DestUnreachCode, Ecn, HttpResponse, IpProto, Ipv4Header,
};
use golden::check_golden;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn line(out: &mut String, case: &str, value: impl std::fmt::Display) {
    writeln!(out, "{case} = {value}").expect("format into a String");
}

// ---------------------------------------------------------------- DNS

fn query(id: u16, name: &str) -> Vec<u8> {
    let mut out = Vec::new();
    dns::encode_a_query_into(id, name, &mut out);
    out
}

fn response(query: &[u8], addrs: &[Ipv4Addr]) -> Vec<u8> {
    let mut name = String::new();
    let view = dns::read_query(query, &mut name)
        .expect("valid query")
        .expect("one question");
    let mut out = Vec::new();
    dns::encode_a_response_into(&view, &name, 150, addrs, &mut out);
    out
}

fn read_query(bytes: &[u8]) -> String {
    let mut name = String::new();
    match dns::read_query(bytes, &mut name) {
        Ok(Some(view)) => format!("Ok(Some({view:?})) name={name:?}"),
        other => format!("{other:?}"),
    }
}

fn a_records(bytes: &[u8]) -> String {
    let mut addrs = Vec::new();
    let got = dns::for_each_a_record(bytes, |a| addrs.push(a)).map(|()| addrs);
    format!("{got:?}")
}

fn dns_verdicts(out: &mut String, case: &str, bytes: &[u8]) {
    line(out, &format!("dns read_query({case})"), read_query(bytes));
    line(
        out,
        &format!("dns for_each_a_record({case})"),
        a_records(bytes),
    );
}

/// `bytes` with the header count at `offset` (4 questions, 6 answers,
/// 8 authority, 10 additional) set to `n`.
fn with_count(mut bytes: Vec<u8>, offset: usize, n: u16) -> Vec<u8> {
    bytes[offset..offset + 2].copy_from_slice(&n.to_be_bytes());
    bytes
}

/// One resource record: `name` as raw wire bytes, then type, class IN,
/// TTL 60 and `rdata`.
fn record(name: &[u8], rtype: u16, rdata: &[u8]) -> Vec<u8> {
    let mut out = name.to_vec();
    out.extend_from_slice(&rtype.to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&60u32.to_be_bytes());
    out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
    out.extend_from_slice(rdata);
    out
}

const POOL: &[u8] = b"\x04pool\x03ntp\x03org\x00";

fn dns_cases(out: &mut String) {
    let long = format!("{}.pool.ntp.org", "x".repeat(70));
    let names = [
        "Pool.NTP.Org",
        "uk.pool.ntp.org.",
        "a..b",
        long.as_str(),
        "",
    ];
    for id in [0, 7, 0xffff] {
        for name in names {
            let case = format!("query id={id} name={name:?}");
            let bytes = query(id, name);
            line(out, &format!("dns {case}"), hex(&bytes));
            dns_verdicts(out, &case, &bytes);
        }
    }

    let addrs: Vec<Ipv4Addr> = (1..=4).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
    for name in ["pool.ntp.org", "DE.Pool.NTP.Org"] {
        for n in [0, 1, 4] {
            let case = format!("response name={name:?} answers={n}");
            let bytes = response(&query(7, name), &addrs[..n]);
            line(out, &format!("dns {case}"), hex(&bytes));
            dns_verdicts(out, &case, &bytes);
        }
    }

    let one = response(&query(7, "pool.ntp.org"), &addrs[..1]);
    let mut compressed = with_count(query(3, "pool.ntp.org"), 6, 1);
    compressed.extend(record(&[0xc0, 12], 1, &[203, 0, 113, 5]));
    for (case, bytes) in [
        ("query", query(1, "pool.ntp.org")),
        ("response", one.clone()),
        ("compressed", compressed.clone()),
    ] {
        for cut in 0..bytes.len() {
            dns_verdicts(out, &format!("{case}[..{cut}]"), &bytes[..cut]);
        }
    }

    let mut looping = with_count(query(3, "pool.ntp.org"), 6, 1);
    let at = looping.len();
    looping.extend_from_slice(&[0xc0 | (at >> 8) as u8, at as u8]);
    looping.extend_from_slice(&[0; 10]);

    let mut long_label = with_count(vec![0; 12], 4, 1);
    long_label.push(64);
    long_label.extend_from_slice(&[b'a'; 64]);
    long_label.extend_from_slice(&[0, 0, 1, 0, 1]);

    let mut long_answer_label = with_count(one.clone(), 6, 2);
    let mut name = vec![64];
    name.extend_from_slice(&[b'a'; 64]);
    name.push(0);
    long_answer_label.extend(record(&name, 1, &[1, 2, 3, 4]));

    let mut txt = with_count(one.clone(), 6, 2);
    txt.extend(record(POOL, 16, b"\x04test"));
    let mut short_a = with_count(one.clone(), 6, 2);
    short_a.extend(record(POOL, 1, &[10, 0, 0]));
    let mut ns = with_count(one.clone(), 8, 2);
    ns.extend(record(POOL, 2, b"\x02ns\xc0\x0c"));
    ns.extend(record(POOL, 1, &[10, 0, 0, 2]));
    let mut ar = with_count(one.clone(), 10, 1);
    ar.extend(record(POOL, 1, &[10, 0, 0, 3]));
    let mut both = with_count(with_count(one.clone(), 8, 1), 10, 1);
    both.extend(record(&[0xc0, 12], 2, b"\x02ns\xc0\x0c"));
    both.extend(record(&[0xc0, 12], 1, &[10, 0, 0, 4]));
    let mut two_questions = with_count(query(9, "pool.ntp.org"), 4, 2);
    two_questions.extend_from_slice(&query(9, "uk.pool.ntp.org")[12..]);
    let no_question = with_count(query(9, "pool.ntp.org")[..12].to_vec(), 4, 0);

    for (case, bytes) in [
        ("compressed answer name", compressed),
        ("compression loop", looping),
        ("question label of 64 bytes", long_label),
        ("answer label of 64 bytes", long_answer_label),
        ("TXT answer", txt),
        ("A answer with 3-byte rdata", short_a),
        ("NS and A records in the authority section", ns),
        ("A record in the additional section", ar),
        ("compressed authority and additional records", both),
        ("two questions", two_questions),
        ("no question", no_question),
    ] {
        dns_verdicts(out, case, &bytes);
    }
}

// ---------------------------------------------------------------- HTTP

fn method_not_allowed() -> Vec<u8> {
    let mut r = HttpResponse::ok_with_body(b"method not allowed");
    r.status = 405;
    r.reason = "Method Not Allowed".into();
    r.encode()
}

fn http_cases(out: &mut String) {
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    for server in [Ipv4Addr::new(192, 0, 2, 80), Ipv4Addr::new(128, 1, 24, 0)] {
        let mut bytes = Vec::new();
        http::encode_get_root_into(server, &mut bytes);
        line(out, &format!("http get_root({server})"), hex(&bytes));
        cases.push((format!("get_root({server})"), bytes));
    }
    let plain = HttpResponse::ok_with_body(
        b"<html><body>NTP pool member &mdash; time service on UDP 123</body></html>",
    );
    for (case, bytes) in [
        ("pool_redirect", HttpResponse::pool_redirect().encode()),
        ("ok_with_body", plain.encode()),
        ("method_not_allowed", method_not_allowed()),
    ] {
        line(out, &format!("http {case}"), hex(&bytes));
        cases.push((format!("{case}[..10]"), bytes[..10].to_vec()));
        cases.push((
            format!("{case}[..len-4]"),
            bytes[..bytes.len() - 4].to_vec(),
        ));
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(b"TRAILING GARBAGE");
        cases.push((format!("{case} + garbage"), trailing));
        cases.push((case.to_string(), bytes));
    }
    let heads: [&[u8]; 17] = [
        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
        b"POST /p HTTP/1.0\r\n\r\n",
        b"GARBAGE\r\n\r\n",
        b"GET /\r\n\r\n",
        b"GET / SPDY/3\r\n\r\n",
        b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
        b"GET / HTTP/1.1\r\nHost: x\r\n",
        b" / HTTP/1.1\r\n\r\n",
        b"NOT HTTP AT ALL\r\n\r\n",
        b"HTTP/1.1 302 Found\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n\r\nbody",
        b"HTTP/1.1 abc OK\r\n\r\n",
        b"SPDY/3 200 OK\r\n\r\n",
        b"HTTP/1.1 301 Moved Permanently\r\nNoColon\r\n\r\n",
        b"HTTP/1.1 301 Moved Permanently\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200",
        b"HTTP/1.1 200 OK\r\ncontent-length: 12\r\n\r\nshort",
    ];
    for head in heads {
        cases.push((
            format!("{:?}", String::from_utf8_lossy(head)),
            head.to_vec(),
        ));
    }
    cases.push((
        "non-utf8 head".into(),
        b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(),
    ));
    for (case, bytes) in &cases {
        let meta = http::parse_meta(bytes);
        line(
            out,
            &format!("http parse_meta({case})"),
            format!("{meta:?}"),
        );
        let status = HttpResponse::status_of(bytes);
        line(
            out,
            &format!("http status_of({case})"),
            format!("{status:?}"),
        );
        let complete = HttpResponse::is_complete(bytes);
        line(out, &format!("http is_complete({case})"), complete);
    }
}

// ---------------------------------------------------------------- ICMP

fn icmp_cases(out: &mut String) {
    let (src, dst) = (Ipv4Addr::new(10, 9, 8, 7), Ipv4Addr::new(192, 0, 2, 1));
    let mut segment = Vec::new();
    let payload: Vec<u8> = (0..32).collect();
    udp::udp_segment_into(src, dst, 40000, 33434, &payload, &mut segment);
    let header = Ipv4Header::probe(src, dst, IpProto::Udp, Ecn::Ect0);
    let original = Datagram::new(header, &segment);
    assert_eq!(original.len(), 60);
    for n in [0, 8, 20, 28, 60] {
        let quoted = &original.as_bytes()[..n];
        let mut bytes = Vec::new();
        IcmpMessage::encode_time_exceeded_into(quoted, &mut bytes);
        line(
            out,
            &format!("icmp time_exceeded(original[..{n}])"),
            hex(&bytes),
        );
        for code in [
            DestUnreachCode::Net,
            DestUnreachCode::Host,
            DestUnreachCode::Protocol,
            DestUnreachCode::Port,
            DestUnreachCode::AdminProhibited,
            DestUnreachCode::Other(9),
        ] {
            let mut bytes = Vec::new();
            IcmpMessage::encode_dest_unreachable_into(code, quoted, &mut bytes);
            let case = format!("icmp dest_unreachable({code:?}, original[..{n}])");
            line(out, &case, hex(&bytes));
        }
    }
    for (id, seq, payload) in [
        (0u16, 0u16, &b""[..]),
        (77, 3, b"ping"),
        (1, 2, b"odd"),
        (0xffff, 0xffff, &[0xaa; 16]),
    ] {
        let [i0, i1] = id.to_be_bytes();
        let [s0, s1] = seq.to_be_bytes();
        let mut bytes = Vec::new();
        icmp::encode_message_into(0, 0, [i0, i1, s0, s1], payload, &mut bytes);
        let case = format!("icmp echo_reply(id={id}, seq={seq}, {payload:?})");
        line(out, &case, hex(&bytes));
    }
}

#[test]
fn codec_bytes_and_verdicts_match_the_golden() {
    let mut out = String::new();
    dns_cases(&mut out);
    http_cases(&mut out);
    icmp_cases(&mut out);
    check_golden("wire_bytes", &out);
}
