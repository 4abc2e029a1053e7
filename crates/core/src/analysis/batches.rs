//! Batch comparison (§4.1): the paper's early traces (April/May 2015)
//! show higher reachability than the later ones (July/August), attributed
//! to "servers leaving the NTP pool between the two sets of measurements".
//! This analysis quantifies that from the traces and identifies the
//! churned servers — reachable in a majority of batch-1 traces, gone in
//! batch 2.

use crate::reducers::{batch_slot, BatchCounts, TraceCounters};
use crate::report::render_table;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Per-batch aggregates plus the churn inference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchComparison {
    /// Traces in batch 1 (April/May).
    pub batch1_traces: usize,
    /// Traces in batch 2 (July/August).
    pub batch2_traces: usize,
    /// Mean servers reachable via not-ECT UDP, batch 1.
    pub batch1_avg_reachable: f64,
    /// Mean servers reachable via not-ECT UDP, batch 2.
    pub batch2_avg_reachable: f64,
    /// Servers reachable in >50 % of batch-1 traces but <10 % of batch-2
    /// traces — the inferred pool leavers.
    pub churned: Vec<Ipv4Addr>,
    /// Servers unreachable in every trace of both batches (dead targets).
    pub never_reachable: usize,
}

impl BatchComparison {
    /// Finalize the streamed per-server batch histories; the per-batch
    /// trace counts and not-ECT reachability means come from the per-trace
    /// counters ([`crate::reducers::TraceStats::ordered`]).
    pub fn from_counts(counts: &BatchCounts, ordered: &[&TraceCounters]) -> BatchComparison {
        let frac = |(hits, total): (u32, u32)| {
            if total == 0 {
                f64::NAN
            } else {
                f64::from(hits) / f64::from(total)
            }
        };
        let mut churned = Vec::new();
        let mut never = 0usize;
        for (addr, c) in &counts.per_server {
            let f1 = frac(c[0]);
            let f2 = frac(c[1]);
            if c[0].0 == 0 && c[1].0 == 0 {
                never += 1;
                continue;
            }
            if f1.is_finite() && f2.is_finite() && f1 > 0.5 && f2 < 0.1 {
                churned.push(*addr);
            }
        }
        let mut traces = [0usize; 2];
        let mut reach_sum = [0u64; 2];
        for t in ordered {
            let b = batch_slot(t.batch);
            traces[b] += 1;
            reach_sum[b] += u64::from(t.udp_plain);
        }
        let avg = |b: usize| {
            if traces[b] == 0 {
                0.0
            } else {
                reach_sum[b] as f64 / traces[b] as f64
            }
        };
        BatchComparison {
            batch1_traces: traces[0],
            batch2_traces: traces[1],
            batch1_avg_reachable: avg(0),
            batch2_avg_reachable: avg(1),
            churned,
            never_reachable: never,
        }
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let rows = vec![
            vec![
                "April/May (batch 1)".into(),
                self.batch1_traces.to_string(),
                format!("{:.0}", self.batch1_avg_reachable),
            ],
            vec![
                "July/August (batch 2)".into(),
                self.batch2_traces.to_string(),
                format!("{:.0}", self.batch2_avg_reachable),
            ],
        ];
        let mut out = render_table(
            "§4.1 batch comparison: reachability across the two collection periods",
            &["batch", "traces", "avg reachable (not-ECT UDP)"],
            &rows,
        );
        out.push_str(&format!(
            "\ninferred pool leavers (up in batch 1, gone in batch 2): {}\nnever-reachable targets: {}\n(paper: \"the early traces … show higher reachability than the later traces … due to servers leaving the NTP pool\")\n",
            self.churned.len(),
            self.never_reachable,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::batch_comparison;
    use crate::probes::{TcpProbeResult, UdpProbeResult};
    use crate::trace::{ServerOutcome, TraceRecord};
    use ecn_netsim::Nanos;

    fn outcome(i: u8, reachable: bool) -> ServerOutcome {
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
        ServerOutcome {
            server: Ipv4Addr::new(10, 0, 0, i),
            udp_plain: udp(reachable),
            udp_ect: udp(reachable),
            tcp_plain: tcp.clone(),
            tcp_ecn: tcp,
            validation: None,
        }
    }

    fn trace(batch: u8, reach: &[bool]) -> TraceRecord {
        TraceRecord {
            vantage_key: "v".into(),
            vantage_name: "V".into(),
            batch,
            started_at: Nanos::ZERO,
            outcomes: reach
                .iter()
                .enumerate()
                .map(|(i, r)| outcome(i as u8, *r))
                .collect(),
        }
    }

    #[test]
    fn churned_server_is_identified() {
        // server 0: up in batch 1, gone in batch 2. server 1: always up.
        // server 2: never up.
        let traces = vec![
            trace(1, &[true, true, false]),
            trace(1, &[true, true, false]),
            trace(2, &[false, true, false]),
            trace(2, &[false, true, false]),
        ];
        let b = batch_comparison(&traces);
        assert_eq!(b.batch1_traces, 2);
        assert_eq!(b.batch2_traces, 2);
        assert!((b.batch1_avg_reachable - 2.0).abs() < 1e-9);
        assert!((b.batch2_avg_reachable - 1.0).abs() < 1e-9);
        assert_eq!(b.churned, vec![Ipv4Addr::new(10, 0, 0, 0)]);
        assert_eq!(b.never_reachable, 1);
    }

    #[test]
    fn flaky_server_is_not_churn() {
        // reachable half the time in both batches: not a leaver
        let traces = vec![
            trace(1, &[true]),
            trace(1, &[false]),
            trace(2, &[true]),
            trace(2, &[false]),
        ];
        let b = batch_comparison(&traces);
        assert!(b.churned.is_empty());
        assert_eq!(b.never_reachable, 0);
    }

    #[test]
    fn single_batch_input_is_handled() {
        let traces = vec![trace(2, &[true, false])];
        let b = batch_comparison(&traces);
        assert_eq!(b.batch1_traces, 0);
        assert_eq!(b.batch1_avg_reachable, 0.0);
        assert!(b.churned.is_empty(), "no batch-1 baseline, no churn claims");
    }

    #[test]
    fn render_mentions_the_papers_explanation() {
        let b = batch_comparison(&[trace(1, &[true]), trace(2, &[true])]);
        let r = b.render();
        assert!(r.contains("leaving the NTP pool"));
        assert!(r.contains("April/May"));
    }
}
