//! Figure 5: per-trace web-server reachability over TCP and ECN
//! negotiation success (§4.3). Paper: on average 1334 of the 2500 hosts
//! answer HTTP; 1095 (82.0%) negotiate ECN when asked.

use crate::reducers::TraceCounters;
use crate::report::render_table;
use serde::{Deserialize, Serialize};

/// One Figure 5 bar (one trace).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Bar {
    /// Vantage display name.
    pub vantage_name: String,
    /// Servers answering HTTP.
    pub tcp_reachable: usize,
    /// Servers that replied with an ECN-setup SYN-ACK.
    pub negotiated: usize,
}

/// The Figure 5 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure5 {
    /// One bar per trace, campaign order.
    pub bars: Vec<Fig5Bar>,
    /// Mean TCP-reachable count (paper: 1334).
    pub avg_reachable: f64,
    /// Mean negotiated count (paper: 1095).
    pub avg_negotiated: f64,
}

impl Figure5 {
    /// Aggregate the per-trace bars — the single derivation both report
    /// paths share.
    pub fn from_bars(bars: Vec<Fig5Bar>) -> Figure5 {
        let n = bars.len().max(1) as f64;
        Figure5 {
            avg_reachable: bars.iter().map(|b| b.tcp_reachable as f64).sum::<f64>() / n,
            avg_negotiated: bars.iter().map(|b| b.negotiated as f64).sum::<f64>() / n,
            bars,
        }
    }

    /// Percentage of TCP-reachable servers that negotiate ECN
    /// (paper: 82.0%).
    pub fn negotiated_pct(&self) -> f64 {
        if self.avg_reachable == 0.0 {
            return 0.0;
        }
        100.0 * self.avg_negotiated / self.avg_reachable
    }

    /// Per-vantage means for compact reporting.
    pub fn per_vantage(&self) -> Vec<(String, f64, f64)> {
        let mut order = Vec::new();
        let mut acc: std::collections::HashMap<String, (f64, f64, usize)> =
            std::collections::HashMap::new();
        for b in &self.bars {
            if !acc.contains_key(&b.vantage_name) {
                order.push(b.vantage_name.clone());
            }
            let e = acc.entry(b.vantage_name.clone()).or_insert((0.0, 0.0, 0));
            e.0 += b.tcp_reachable as f64;
            e.1 += b.negotiated as f64;
            e.2 += 1;
        }
        order
            .into_iter()
            .map(|name| {
                let (r, n, c) = acc[&name];
                (name, r / c as f64, n / c as f64)
            })
            .collect()
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .per_vantage()
            .into_iter()
            .map(|(name, r, n)| {
                vec![
                    name,
                    format!("{r:.0}"),
                    format!("{n:.0}"),
                    format!("{:.1}%", if r > 0.0 { 100.0 * n / r } else { 0.0 }),
                ]
            })
            .collect();
        let mut out = render_table(
            "Figure 5: web servers reachable via TCP and negotiating ECN (per vantage mean)",
            &["Location", "TCP reachable", "negotiate ECN", "share"],
            &rows,
        );
        out.push_str(&format!(
            "\navg reachable = {:.0} (paper: 1334), avg negotiating = {:.0} (paper: 1095), share = {:.1}% (paper: 82.0%)\n",
            self.avg_reachable,
            self.avg_negotiated,
            self.negotiated_pct(),
        ));
        out
    }
}

/// Compute Figure 5 from the streamed per-trace counters, already in
/// campaign order (see [`crate::reducers::TraceStats::ordered`]) — no
/// [`crate::trace::TraceRecord`] needed.
pub fn figure5_from_counters(ordered: &[&TraceCounters]) -> Figure5 {
    Figure5::from_bars(
        ordered
            .iter()
            .map(|t| Fig5Bar {
                vantage_name: t.vantage_name.clone(),
                tcp_reachable: t.tcp_reachable as usize,
                negotiated: t.tcp_negotiated as usize,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use crate::naive::figure5;
    use crate::probes::{TcpProbeResult, UdpProbeResult};
    use crate::trace::{ServerOutcome, TraceRecord};
    use ecn_netsim::Nanos;
    use std::net::Ipv4Addr;

    fn outcome(reach: bool, negotiate: bool) -> ServerOutcome {
        let udp = UdpProbeResult {
            reachable: false,
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
            server: Ipv4Addr::new(1, 1, 1, 1),
            udp_plain: udp,
            udp_ect: udp,
            tcp_plain: tcp(reach, false),
            tcp_ecn: tcp(reach, negotiate),
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
    fn counts_and_share() {
        let t1 = trace(
            "A",
            vec![
                outcome(true, true),
                outcome(true, false),
                outcome(false, false),
            ],
        );
        let t2 = trace("A", vec![outcome(true, true), outcome(true, true)]);
        let f = figure5(&[t1, t2]);
        assert_eq!(f.bars[0].tcp_reachable, 2);
        assert_eq!(f.bars[0].negotiated, 1);
        assert_eq!(f.bars[1].negotiated, 2);
        assert!((f.avg_reachable - 2.0).abs() < 1e-9);
        assert!((f.avg_negotiated - 1.5).abs() < 1e-9);
        assert!((f.negotiated_pct() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn per_vantage_means() {
        let traces = vec![
            trace("A", vec![outcome(true, true)]),
            trace("B", vec![outcome(true, false)]),
            trace("A", vec![outcome(true, true), outcome(true, true)]),
        ];
        let f = figure5(&traces);
        let pv = f.per_vantage();
        assert_eq!(pv[0].0, "A");
        assert!((pv[0].1 - 1.5).abs() < 1e-9);
        assert!((pv[1].2 - 0.0).abs() < 1e-9);
    }

    #[test]
    fn render_cites_paper() {
        let f = figure5(&[trace("A", vec![outcome(true, true)])]);
        let r = f.render();
        assert!(r.contains("1334"));
        assert!(r.contains("82.0%"));
    }
}
