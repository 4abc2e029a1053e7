//! Property-based tests of the analysis layer: for arbitrary probe
//! outcomes, the derived tables/figures must satisfy their defining
//! invariants (the same arithmetic the paper's numbers obey). Records
//! reach each finalizer through the naive trace walks of `util/naive.rs`.

#[path = "util/naive.rs"]
mod naive;

use ecn_core::{ServerOutcome, TcpProbeResult, TraceRecord, UdpProbeResult};
use ecn_netsim::Nanos;
use naive::{figure2, figure3, figure5, table2};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn udp(reachable: bool) -> UdpProbeResult {
    UdpProbeResult {
        reachable,
        attempts: 1,
        response_ecn: None,
        rtt: None,
    }
}

fn tcp(reachable: bool, negotiated: bool) -> TcpProbeResult {
    TcpProbeResult {
        reachable,
        http_status: reachable.then_some(302),
        requested_ecn: true,
        negotiated_ecn: negotiated && reachable,
        syn_ack_flags: None,
        close_reason: None,
    }
}

/// Strategy: a set of traces over a shared server population with random
/// per-trace outcomes.
fn arb_traces() -> impl Strategy<Value = Vec<TraceRecord>> {
    (2usize..6, 1usize..25).prop_flat_map(|(vantages, servers)| {
        proptest::collection::vec(
            proptest::collection::vec(
                (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
                servers..=servers,
            ),
            vantages * 2..vantages * 2 + 3,
        )
        .prop_map(move |trace_bits| {
            trace_bits
                .into_iter()
                .enumerate()
                .map(|(ti, bits)| TraceRecord {
                    vantage_key: format!("v{}", ti % vantages),
                    vantage_name: format!("V{}", ti % vantages),
                    batch: 1 + (ti % 2) as u8,
                    started_at: Nanos::from_secs(ti as u64 * 100),
                    outcomes: bits
                        .into_iter()
                        .enumerate()
                        .map(|(si, (p, e, t, n))| ServerOutcome {
                            server: Ipv4Addr::new(10, 0, (si / 256) as u8, (si % 256) as u8),
                            udp_plain: udp(p),
                            udp_ect: udp(e),
                            tcp_plain: tcp(t, false),
                            tcp_ecn: tcp(t, n),
                            validation: None,
                        })
                        .collect(),
                })
                .collect()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn figure2_percentages_are_well_formed(traces in arb_traces()) {
        let f = figure2(&traces);
        prop_assert_eq!(f.bars.len(), traces.len());
        for (bar, t) in f.bars.iter().zip(&traces) {
            prop_assert!(bar.pct_a >= 0.0 && bar.pct_a <= 100.0);
            prop_assert!(bar.pct_b >= 0.0 && bar.pct_b <= 100.0);
            // both-reachable is bounded by each single count
            let both = t.udp_both_reachable();
            prop_assert!(both <= t.udp_plain_reachable());
            prop_assert!(both <= t.udp_ect_reachable());
        }
        prop_assert!(f.min_a <= f.avg_a + 1e-9);
        prop_assert!(f.min_b <= f.avg_b + 1e-9);
    }

    #[test]
    fn figure3_counts_are_consistent_with_trace_counts(traces in arb_traces()) {
        let f = figure3(&traces);
        for (loc, servers) in &f.per_location {
            let traces_here = traces.iter().filter(|t| &t.vantage_name == loc).count() as u32;
            for d in servers.values() {
                prop_assert_eq!(d.traces, traces_here);
                prop_assert!(d.diff_a <= d.plain_traces);
                prop_assert!(d.diff_b <= d.ect_traces);
                prop_assert!(d.frac_a() <= 1.0 && d.frac_b() <= 1.0);
                // a server cannot be both-diff in the same trace, so the
                // sums stay within the trace budget
                prop_assert!(d.diff_a + d.diff_b <= d.traces);
            }
        }
        // persistent set is a subset of every location's >50% set
        for addr in &f.persistent_a {
            for (_, servers) in &f.per_location {
                prop_assert!(servers[addr].frac_a() > 0.5);
            }
        }
    }

    #[test]
    fn figure5_negotiated_never_exceeds_reachable(traces in arb_traces()) {
        let f = figure5(&traces);
        for bar in &f.bars {
            prop_assert!(bar.negotiated <= bar.tcp_reachable);
        }
        prop_assert!(f.avg_negotiated <= f.avg_reachable + 1e-9);
        let pct = f.negotiated_pct();
        prop_assert!((0.0..=100.0).contains(&pct));
    }

    #[test]
    fn table2_rows_and_phi_are_bounded(traces in arb_traces()) {
        let t = table2(&traces);
        prop_assert!(t.phi.is_finite());
        prop_assert!(t.phi >= -1.0 - 1e-9 && t.phi <= 1.0 + 1e-9);
        prop_assert!((0.0..=1.0).contains(&t.blocked_but_negotiates));
        for row in &t.rows {
            prop_assert!(row.avg_fail_tcp_ecn + row.avg_ok_tcp_ecn <= row.avg_udp_ect_unreachable + 1e-9);
            prop_assert!(row.traces > 0);
        }
    }

    #[test]
    fn analyses_never_panic_on_empty_or_degenerate_input(n in 0usize..3) {
        let traces: Vec<TraceRecord> = (0..n)
            .map(|i| TraceRecord {
                vantage_key: "v".into(),
                vantage_name: "V".into(),
                batch: 1,
                started_at: Nanos::from_secs(i as u64),
                outcomes: vec![],
            })
            .collect();
        let f2 = figure2(&traces);
        let _ = figure3(&traces);
        let f5 = figure5(&traces);
        let t2 = table2(&traces);
        prop_assert!(f2.avg_a.is_finite() || traces.is_empty());
        prop_assert!(f5.negotiated_pct().is_finite());
        prop_assert!(t2.phi.is_finite());
    }
}
