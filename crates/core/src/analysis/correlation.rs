//! Table 2: correlation between UDP-with-ECT unreachability and TCP ECN
//! negotiation failure (§4.4). The paper's finding is a *weak* correlation:
//! most servers that blackhole ECT-marked UDP still negotiate ECN fine
//! over TCP — evidence of UDP-specific ECT filtering.

use crate::reducers::{location_order_of, Table2Counts, TraceCounters};
use crate::report::render_table;

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Location (vantage) name.
    pub location: String,
    /// Avg per trace: servers reachable via not-ECT UDP but not ECT(0).
    pub avg_udp_ect_unreachable: f64,
    /// Avg per trace: of those, TCP-reachable servers that failed to
    /// negotiate ECN.
    pub avg_fail_tcp_ecn: f64,
    /// Avg per trace: of those, TCP-reachable servers that *did* negotiate.
    pub avg_ok_tcp_ecn: f64,
    /// Traces from this location.
    pub traces: usize,
}

/// The Table 2 dataset.
///
/// Paper rows, as (avg. unreachable UDP w/ECT) / (…of those, fail to
/// negotiate ECN w/TCP): Perkins home 8/3, McQuistin home 160/20,
/// U. Glasgow wired 10/2, U. Glasgow w'less 43/4, and the EC2 locations
/// 10..16 / 2..5.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows in vantage first-seen order.
    pub rows: Vec<Table2Row>,
    /// φ (phi) correlation between the events "UDP-ECT unreachable" and
    /// "refuses TCP ECN", across all (server, trace) observations where
    /// the server was TCP-reachable and UDP-plain-reachable.
    pub phi: f64,
    /// Fraction of UDP-ECT-unreachable, TCP-reachable server observations
    /// that nevertheless negotiated ECN over TCP (the "majority" claim).
    pub blocked_but_negotiates: f64,
}

impl Table2 {
    /// Finalize the streamed Table 2 counters over the campaign-order
    /// per-trace counters ([`crate::reducers::TraceStats::ordered`]): rows
    /// in first-seen location order, each averaged over the location's
    /// trace count. Averages and φ are exact integer ratios, so the floats
    /// do not depend on observation order.
    pub fn from_counts(counts: &Table2Counts, ordered: &[&TraceCounters]) -> Table2 {
        let rows: Vec<Table2Row> = location_order_of(ordered)
            .into_iter()
            .filter_map(|location| {
                let v = counts.per_vantage.get(&location)?;
                let traces = ordered
                    .iter()
                    .filter(|t| t.vantage_name == location)
                    .count();
                let avg = |n: u64| n as f64 / traces as f64;
                Some(Table2Row {
                    avg_udp_ect_unreachable: avg(v.udp_ect_unreachable),
                    avg_fail_tcp_ecn: avg(v.fail_tcp_ecn),
                    avg_ok_tcp_ecn: avg(v.ok_tcp_ecn),
                    traces,
                    location,
                })
            })
            .collect();
        Table2 {
            rows,
            phi: counts.phi(),
            blocked_but_negotiates: counts.blocked_but_negotiates(),
        }
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.location.clone(),
                    format!("{:.0}", r.avg_udp_ect_unreachable),
                    format!("{:.0}", r.avg_fail_tcp_ecn),
                ]
            })
            .collect();
        let mut out = render_table(
            "Table 2: correlation between UDP and TCP reachability",
            &[
                "Location",
                "Avg. unreachable UDP w/ECT",
                "…of those, fail to negotiate ECN w/TCP",
            ],
            &rows,
        );
        out.push_str(&format!(
            "\nφ correlation = {:.3} (weak); {:.0}% of ECT-UDP-blocked, TCP-reachable servers still negotiate ECN over TCP\n",
            self.phi,
            100.0 * self.blocked_but_negotiates,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::naive::table2;
    use crate::probes::{TcpProbeResult, UdpProbeResult};
    use crate::trace::{ServerOutcome, TraceRecord};
    use ecn_netsim::Nanos;
    use std::net::Ipv4Addr;

    fn outcome(i: u8, plain: bool, ect: bool, tcp_reach: bool, negotiated: bool) -> ServerOutcome {
        let udp = |r| UdpProbeResult {
            reachable: r,
            attempts: 1,
            response_ecn: None,
            rtt: None,
        };
        let tcp = |r, n| TcpProbeResult {
            reachable: r,
            http_status: if r { Some(302) } else { None },
            requested_ecn: true,
            negotiated_ecn: n,
            syn_ack_flags: None,
            close_reason: None,
        };
        ServerOutcome {
            server: Ipv4Addr::new(10, 0, 0, i),
            udp_plain: udp(plain),
            udp_ect: udp(ect),
            tcp_plain: tcp(tcp_reach, false),
            tcp_ecn: tcp(tcp_reach, negotiated),
            validation: None,
        }
    }

    fn trace(name: &str, outcomes: Vec<ServerOutcome>) -> TraceRecord {
        TraceRecord {
            vantage_key: name.to_lowercase(),
            vantage_name: name.into(),
            batch: 2,
            started_at: Nanos::ZERO,
            outcomes,
        }
    }

    #[test]
    fn rows_count_blocked_and_refusing() {
        let t = trace(
            "A",
            vec![
                // blocked on UDP but negotiates TCP ECN: the paper's case
                outcome(1, true, false, true, true),
                // blocked on UDP and refuses TCP ECN
                outcome(2, true, false, true, false),
                // blocked on UDP, no web server
                outcome(3, true, false, false, false),
                // healthy everywhere
                outcome(4, true, true, true, true),
            ],
        );
        let t2 = table2(&[t]);
        assert_eq!(t2.rows.len(), 1);
        let r = &t2.rows[0];
        assert!((r.avg_udp_ect_unreachable - 3.0).abs() < 1e-9);
        assert!(
            (r.avg_fail_tcp_ecn - 1.0).abs() < 1e-9,
            "only the TCP-reachable refuser"
        );
        assert!((r.avg_ok_tcp_ecn - 1.0).abs() < 1e-9);
        assert!((t2.blocked_but_negotiates - 0.5).abs() < 1e-9);
    }

    #[test]
    fn independent_events_have_low_phi() {
        // blocked/unblocked × negotiate/refuse occur independently
        let mut outcomes = Vec::new();
        let mut i = 0u8;
        for _ in 0..10 {
            for (diff, neg) in [(true, true), (true, false), (false, true), (false, false)] {
                i = i.wrapping_add(1);
                outcomes.push(outcome(i, true, !diff, true, neg));
            }
        }
        let t2 = table2(&[trace("A", outcomes)]);
        assert!(t2.phi.abs() < 0.05, "phi = {}", t2.phi);
    }

    #[test]
    fn perfectly_correlated_events_have_phi_one() {
        let outcomes = vec![
            outcome(1, true, false, true, false),
            outcome(2, true, false, true, false),
            outcome(3, true, true, true, true),
            outcome(4, true, true, true, true),
        ];
        let t2 = table2(&[trace("A", outcomes)]);
        assert!((t2.phi - 1.0).abs() < 1e-9, "phi = {}", t2.phi);
    }

    #[test]
    fn render_matches_table2_shape() {
        let t2 = table2(&[trace(
            "Perkins home",
            vec![outcome(1, true, true, true, true)],
        )]);
        let r = t2.render();
        assert!(r.contains("Perkins home"));
        assert!(r.contains("Avg. unreachable UDP w/ECT"));
    }
}
