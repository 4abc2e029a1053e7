//! Property-based tests of the application services: the pool DNS rotation
//! must eventually serve every member and never fabricate addresses; the
//! NTP responder must answer every well-formed client request and survive
//! arbitrary payload fuzz.

use ecn_netsim::Nanos;
use ecn_services::{NtpClient, NtpServerConfig, NtpServerService, PoolDnsService};
use ecn_stack::UdpService;
use ecn_wire::dns::{encode_a_query_into, for_each_a_record, read_query};
use ecn_wire::{Ecn, NtpPacket};
use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;

const SRC: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40000);

proptest! {
    #[test]
    fn dns_rotation_covers_the_zone_and_invents_nothing(
        members in proptest::collection::hash_set(any::<u32>().prop_map(Ipv4Addr::from), 1..40),
    ) {
        let members: Vec<Ipv4Addr> = members.into_iter().collect();
        let mut svc = PoolDnsService::new([("pool.ntp.org".to_string(), members.clone())]);
        let mut seen: HashSet<Ipv4Addr> = HashSet::new();
        // ceil(n/4) queries guarantee full coverage; do a few extra rounds
        let queries = members.len() + 4;
        for qid in 0..queries as u16 {
            let mut q = Vec::new();
            encode_a_query_into(qid, "pool.ntp.org", &mut q);
            let rsp = svc
                .handle(Nanos::ZERO, SRC, Ecn::NotEct, &q)
                .expect("always answers");
            let view = read_query(&rsp, &mut String::new()).expect("valid response");
            prop_assert_eq!(view.map(|v| v.id), Some(qid));
            let mut answers = Vec::new();
            for_each_a_record(&rsp, |a| answers.push(a)).expect("valid response");
            for &a in &answers {
                prop_assert!(members.contains(&a), "served address must be a member");
                seen.insert(a);
            }
            prop_assert!((1..=4).contains(&answers.len()));
        }
        prop_assert_eq!(seen.len(), members.len(), "rotation covers the zone");
    }

    #[test]
    fn ntp_responder_answers_every_client_request(
        nanos in 0u64..4_000_000_000_000_000_000,
        stratum in 1u8..16,
    ) {
        let mut svc = NtpServerService::new(NtpServerConfig {
            stratum,
            ..NtpServerConfig::default()
        });
        let req = NtpClient::request(Nanos(nanos % 1_000_000_000_000));
        let rsp = svc
            .handle(Nanos(nanos % 1_000_000_000_000), SRC, Ecn::Ect0, &req.encode())
            .expect("mode-3 requests are always answered");
        prop_assert!(NtpClient::matches(&req, &rsp));
        let parsed = NtpPacket::decode(&rsp).unwrap();
        prop_assert_eq!(parsed.stratum, stratum);
        prop_assert_eq!(parsed.origin_ts, req.transmit_ts, "origin echoes the nonce");
    }

    #[test]
    fn services_never_panic_on_fuzzed_payloads(
        noise in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut dns = PoolDnsService::new([(
            "pool.ntp.org".to_string(),
            vec![Ipv4Addr::new(192, 0, 2, 1)],
        )]);
        let mut ntp = NtpServerService::new(NtpServerConfig::default());
        let _ = dns.handle(Nanos::ZERO, SRC, Ecn::NotEct, &noise);
        let _ = ntp.handle(Nanos::ZERO, SRC, Ecn::NotEct, &noise);
    }

    #[test]
    fn responses_to_distinct_requests_are_distinguishable(
        t1 in 1u64..1_000_000_000_000,
        t2 in 1u64..1_000_000_000_000,
    ) {
        prop_assume!(t1 != t2);
        let mut svc = NtpServerService::new(NtpServerConfig::default());
        let r1 = NtpClient::request(Nanos(t1));
        let r2 = NtpClient::request(Nanos(t2));
        let rsp1 = svc.handle(Nanos(t1), SRC, Ecn::NotEct, &r1.encode()).unwrap();
        // the response to r1 must never be mistaken for a response to r2
        prop_assert!(NtpClient::matches(&r1, &rsp1));
        prop_assert!(!NtpClient::matches(&r2, &rsp1));
    }
}
