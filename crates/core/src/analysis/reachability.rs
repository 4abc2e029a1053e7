//! Figure 2: per-trace UDP reachability with and without ECT(0) marks
//! (§4.1), plus the headline averages (paper: 98.97% / 99.45%).

use crate::reducers::TraceCounters;
use crate::report::{pct, render_bars};
use serde::{Deserialize, Serialize};

/// One bar of Figure 2 (one trace).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceBar {
    /// Vantage key.
    pub vantage_key: String,
    /// Vantage display name.
    pub vantage_name: String,
    /// Figure 2a: % of not-ECT-reachable also ECT(0)-reachable.
    pub pct_a: f64,
    /// Figure 2b: % of ECT(0)-reachable also not-ECT-reachable.
    pub pct_b: f64,
    /// Servers reachable with not-ECT UDP in this trace.
    pub plain_reachable: usize,
    /// Servers reachable with ECT(0) UDP in this trace.
    pub ect_reachable: usize,
}

/// The Figure 2 dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure2 {
    /// One bar per trace, in campaign order.
    pub bars: Vec<TraceBar>,
    /// Mean of `pct_a` over traces (paper: 98.97%).
    pub avg_a: f64,
    /// Mean of `pct_b` over traces (paper: 99.45%).
    pub avg_b: f64,
    /// Minimum `pct_a` (paper: "always above 90%").
    pub min_a: f64,
    /// Minimum `pct_b`.
    pub min_b: f64,
    /// Mean not-ECT-reachable count (paper: 2253 of 2500).
    pub avg_plain_reachable: f64,
}

/// Compute Figure 2 from the streamed per-trace counters, already in
/// campaign order (see [`crate::reducers::TraceStats::ordered`]) — no
/// [`crate::trace::TraceRecord`] needed. Bars carry the exact
/// integer-ratio percentages a walk over the raw records computes, so
/// both render byte-identically.
pub fn figure2_from_counters(ordered: &[&TraceCounters]) -> Figure2 {
    let ratio = |num: u32, den: u32| {
        if den == 0 {
            100.0
        } else {
            100.0 * f64::from(num) / f64::from(den)
        }
    };
    Figure2::from_bars(
        ordered
            .iter()
            .map(|t| TraceBar {
                vantage_key: t.vantage_key.clone(),
                vantage_name: t.vantage_name.clone(),
                pct_a: ratio(t.udp_both, t.udp_plain),
                pct_b: ratio(t.udp_both, t.udp_ect),
                plain_reachable: t.udp_plain as usize,
                ect_reachable: t.udp_ect as usize,
            })
            .collect(),
    )
}

impl Figure2 {
    /// Aggregate the per-trace bars into the averages and minima.
    pub fn from_bars(bars: Vec<TraceBar>) -> Figure2 {
        let n = bars.len().max(1) as f64;
        Figure2 {
            avg_a: bars.iter().map(|b| b.pct_a).sum::<f64>() / n,
            avg_b: bars.iter().map(|b| b.pct_b).sum::<f64>() / n,
            min_a: bars.iter().map(|b| b.pct_a).fold(f64::INFINITY, f64::min),
            min_b: bars.iter().map(|b| b.pct_b).fold(f64::INFINITY, f64::min),
            avg_plain_reachable: bars.iter().map(|b| b.plain_reachable as f64).sum::<f64>() / n,
            bars,
        }
    }

    /// Per-vantage mean of Figure 2a (for compact reporting).
    pub fn per_vantage_avg_a(&self) -> Vec<(String, f64)> {
        per_vantage_avg(&self.bars, |b| b.pct_a)
    }

    /// Per-vantage mean of Figure 2b.
    pub fn per_vantage_avg_b(&self) -> Vec<(String, f64)> {
        per_vantage_avg(&self.bars, |b| b.pct_b)
    }

    /// Paper-style text rendering (per-vantage bars, 90–100% scale as in
    /// the figure).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&render_bars(
            "Figure 2a: % of servers reachable by not-ECT UDP also reachable by ECT(0) UDP (per vantage mean)",
            &self.per_vantage_avg_a(),
            90.0,
            100.0,
            40,
            "%",
        ));
        out.push('\n');
        out.push_str(&render_bars(
            "Figure 2b: % of servers reachable by ECT(0) UDP also reachable by not-ECT UDP (per vantage mean)",
            &self.per_vantage_avg_b(),
            90.0,
            100.0,
            40,
            "%",
        ));
        out.push_str(&format!(
            "\naverage 2a = {}   (paper: 98.97%)\naverage 2b = {}   (paper: 99.45%)\nmin 2a = {} (paper: always above 90%)\navg reachable via not-ECT = {:.0} (paper: 2253)\n",
            pct(self.avg_a),
            pct(self.avg_b),
            pct(self.min_a),
            self.avg_plain_reachable,
        ));
        out
    }
}

fn per_vantage_avg(bars: &[TraceBar], f: impl Fn(&TraceBar) -> f64) -> Vec<(String, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut sums: std::collections::HashMap<String, (f64, usize)> =
        std::collections::HashMap::new();
    for b in bars {
        if !sums.contains_key(&b.vantage_name) {
            order.push(b.vantage_name.clone());
        }
        let e = sums.entry(b.vantage_name.clone()).or_insert((0.0, 0));
        e.0 += f(b);
        e.1 += 1;
    }
    order
        .into_iter()
        .map(|name| {
            let (s, c) = sums[&name];
            (name, s / c as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::naive::figure2;
    use crate::probes::{TcpProbeResult, UdpProbeResult};
    use crate::trace::{ServerOutcome, TraceRecord};
    use ecn_netsim::Nanos;
    use std::net::Ipv4Addr;

    fn mk_trace(vantage: &str, pairs: &[(bool, bool)]) -> TraceRecord {
        let udp = |r| UdpProbeResult {
            reachable: r,
            attempts: 1,
            response_ecn: None,
            rtt: None,
        };
        let tcp = TcpProbeResult {
            reachable: false,
            http_status: None,
            requested_ecn: false,
            negotiated_ecn: false,
            syn_ack_flags: None,
            close_reason: None,
        };
        TraceRecord {
            vantage_key: vantage.to_lowercase(),
            vantage_name: vantage.to_string(),
            batch: 1,
            started_at: Nanos::ZERO,
            outcomes: pairs
                .iter()
                .enumerate()
                .map(|(i, (p, e))| ServerOutcome {
                    server: Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8),
                    udp_plain: udp(*p),
                    udp_ect: udp(*e),
                    tcp_plain: tcp.clone(),
                    tcp_ecn: tcp.clone(),
                    validation: None,
                })
                .collect(),
        }
    }

    #[test]
    fn averages_and_minima() {
        let t1 = mk_trace(
            "A",
            &[(true, true), (true, true), (true, false), (false, false)],
        );
        let t2 = mk_trace(
            "B",
            &[(true, true), (true, true), (true, true), (false, true)],
        );
        let f = figure2(&[t1, t2]);
        // t1: a = 2/3, b = 2/2; t2: a = 3/3, b = 3/4
        assert!((f.bars[0].pct_a - 66.6667).abs() < 0.01);
        assert!((f.bars[0].pct_b - 100.0).abs() < 1e-9);
        assert!((f.bars[1].pct_a - 100.0).abs() < 1e-9);
        assert!((f.bars[1].pct_b - 75.0).abs() < 1e-9);
        assert!((f.avg_a - (66.6667 + 100.0) / 2.0).abs() < 0.01);
        assert!((f.min_b - 75.0).abs() < 1e-9);
        assert!((f.avg_plain_reachable - 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_vantage_grouping_preserves_order() {
        let traces = vec![
            mk_trace("A", &[(true, true)]),
            mk_trace("B", &[(true, false)]),
            mk_trace("A", &[(true, true)]),
        ];
        let f = figure2(&traces);
        let pv = f.per_vantage_avg_a();
        assert_eq!(pv[0].0, "A");
        assert_eq!(pv[1].0, "B");
        assert!((pv[0].1 - 100.0).abs() < 1e-9);
        assert!((pv[1].1 - 0.0).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_paper_targets() {
        let f = figure2(&[mk_trace("A", &[(true, true)])]);
        let r = f.render();
        assert!(r.contains("98.97%"));
        assert!(r.contains("99.45%"));
        assert!(r.contains("Figure 2a"));
    }
}
