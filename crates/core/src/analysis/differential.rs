//! Figure 3: per-server differential reachability, per vantage location
//! (§4.1). A server's 3a-differential at a location is the fraction of that
//! location's traces in which it answered not-ECT probes but not ECT(0)
//! probes; 3b is the converse. The paper's key observations: 9–14 servers
//! per location above 50% in 3a (the same set everywhere ⇒ drops near the
//! destination), at most 3 in 3b.

use crate::reducers::DifferentialCounts;
use crate::report::render_table;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Differential reachability of one server from one location.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerDifferential {
    /// Traces (from this location) where the server answered not-ECT.
    pub plain_traces: u32,
    /// Traces where it answered ECT(0).
    pub ect_traces: u32,
    /// Traces with the 3a event (plain yes, ECT no).
    pub diff_a: u32,
    /// Traces with the 3b event (ECT yes, plain no).
    pub diff_b: u32,
    /// Traces observed in total.
    pub traces: u32,
}

impl ServerDifferential {
    /// Fraction of traces with the 3a event.
    pub fn frac_a(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.diff_a as f64 / self.traces as f64
        }
    }

    /// Fraction of traces with the 3b event.
    pub fn frac_b(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.diff_b as f64 / self.traces as f64
        }
    }
}

/// The Figure 3 dataset.
#[derive(Debug, Clone)]
pub struct Figure3 {
    /// (location → server → differential) in location first-seen order.
    pub per_location: Vec<(String, BTreeMap<Ipv4Addr, ServerDifferential>)>,
    /// Per-location count of servers with 3a differential > 50%
    /// (paper: between 9 and 14).
    pub high_diff_a: Vec<(String, usize)>,
    /// Per-location count of servers with 3b differential > 50%
    /// (paper: at most 3).
    pub high_diff_b: Vec<(String, usize)>,
    /// Servers above 50% 3a differential from *every* location — the
    /// near-destination blackholes.
    pub persistent_a: Vec<Ipv4Addr>,
    /// Servers above 50% 3b differential somewhere.
    pub persistent_b: Vec<Ipv4Addr>,
}

impl Figure3 {
    /// Finalize the streamed per-(location, server) counters into the
    /// Figure 3 dataset, with locations in `order` (first-seen campaign
    /// order). Takes the
    /// counts by value so the server maps move into the figure instead of
    /// being deep-copied.
    pub fn from_counts(mut counts: DifferentialCounts, order: &[String]) -> Figure3 {
        let per_location: Vec<(String, BTreeMap<Ipv4Addr, ServerDifferential>)> = order
            .iter()
            .map(|name| {
                (
                    name.clone(),
                    counts.per_location.remove(name).unwrap_or_default(),
                )
            })
            .collect();

        let high = |f: &dyn Fn(&ServerDifferential) -> f64| -> Vec<(String, usize)> {
            per_location
                .iter()
                .map(|(name, servers)| {
                    (
                        name.clone(),
                        servers.values().filter(|d| f(d) > 0.5).count(),
                    )
                })
                .collect()
        };
        let high_diff_a = high(&|d: &ServerDifferential| d.frac_a());
        let high_diff_b = high(&|d: &ServerDifferential| d.frac_b());

        // servers >50% 3a from EVERY location
        let mut persistent_a: Vec<Ipv4Addr> = Vec::new();
        if let Some((_, first)) = per_location.first() {
            'server: for (&addr, _) in first.iter() {
                for (_, servers) in &per_location {
                    match servers.get(&addr) {
                        Some(d) if d.frac_a() > 0.5 => {}
                        _ => continue 'server,
                    }
                }
                persistent_a.push(addr);
            }
        }
        let mut persistent_b: Vec<Ipv4Addr> = Vec::new();
        for (_, servers) in &per_location {
            for (&addr, d) in servers {
                if d.frac_b() > 0.5 && !persistent_b.contains(&addr) {
                    persistent_b.push(addr);
                }
            }
        }
        persistent_b.sort();

        Figure3 {
            per_location,
            high_diff_a,
            high_diff_b,
            persistent_a,
            persistent_b,
        }
    }

    /// Range of the per-location >50% 3a counts (paper: 9–14).
    pub fn high_a_range(&self) -> (usize, usize) {
        let min = self.high_diff_a.iter().map(|(_, c)| *c).min().unwrap_or(0);
        let max = self.high_diff_a.iter().map(|(_, c)| *c).max().unwrap_or(0);
        (min, max)
    }

    /// Maximum per-location >50% 3b count (paper: ≤ 3).
    pub fn high_b_max(&self) -> usize {
        self.high_diff_b.iter().map(|(_, c)| *c).max().unwrap_or(0)
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .high_diff_a
            .iter()
            .zip(&self.high_diff_b)
            .map(|((name, a), (_, b))| vec![name.clone(), a.to_string(), b.to_string()])
            .collect();
        let mut out = render_table(
            "Figure 3: servers with >50% differential reachability, per location",
            &["Location", ">50% 3a (plain-only)", ">50% 3b (ECT-only)"],
            &rows,
        );
        let (lo, hi) = self.high_a_range();
        out.push_str(&format!(
            "\n3a range {lo}..{hi} (paper: 9..14); persistent from every location: {} servers\n3b max {} (paper: at most 3)\n",
            self.persistent_a.len(),
            self.high_b_max(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::figure3;
    use crate::probes::{TcpProbeResult, UdpProbeResult};
    use crate::trace::{ServerOutcome, TraceRecord};
    use ecn_netsim::Nanos;

    fn mk_trace(vantage: &str, outcomes: Vec<(Ipv4Addr, bool, bool)>) -> TraceRecord {
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
            outcomes: outcomes
                .into_iter()
                .map(|(addr, p, e)| ServerOutcome {
                    server: addr,
                    udp_plain: udp(p),
                    udp_ect: udp(e),
                    tcp_plain: tcp.clone(),
                    tcp_ecn: tcp.clone(),
                    validation: None,
                })
                .collect(),
        }
    }

    const S1: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const S2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn blocked_server_is_high_differential_everywhere() {
        // S1 always plain-only (blocked); S2 healthy.
        let traces = vec![
            mk_trace("A", vec![(S1, true, false), (S2, true, true)]),
            mk_trace("A", vec![(S1, true, false), (S2, true, true)]),
            mk_trace("B", vec![(S1, true, false), (S2, true, true)]),
        ];
        let f = figure3(&traces);
        assert_eq!(
            f.high_diff_a,
            vec![("A".to_string(), 1), ("B".to_string(), 1)]
        );
        assert_eq!(f.persistent_a, vec![S1]);
        assert_eq!(f.high_b_max(), 0);
        assert_eq!(f.high_a_range(), (1, 1));
    }

    #[test]
    fn transient_noise_stays_below_threshold() {
        // S2 fails ECT once in four traces: 25% differential, not high.
        let traces = vec![
            mk_trace("A", vec![(S2, true, false)]),
            mk_trace("A", vec![(S2, true, true)]),
            mk_trace("A", vec![(S2, true, true)]),
            mk_trace("A", vec![(S2, true, true)]),
        ];
        let f = figure3(&traces);
        assert_eq!(f.high_diff_a[0].1, 0);
        let d = f.per_location[0].1[&S2];
        assert!((d.frac_a() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn ect_only_server_shows_in_3b() {
        let traces = vec![
            mk_trace("A", vec![(S1, false, true)]),
            mk_trace("A", vec![(S1, false, true)]),
        ];
        let f = figure3(&traces);
        assert_eq!(f.high_diff_b[0].1, 1);
        assert_eq!(f.persistent_b, vec![S1]);
        assert_eq!(f.high_a_range(), (0, 0));
    }

    #[test]
    fn render_contains_paper_reference_values() {
        let f = figure3(&[mk_trace("A", vec![(S1, true, true)])]);
        let r = f.render();
        assert!(r.contains("9..14"));
        assert!(r.contains("at most 3"));
    }
}
