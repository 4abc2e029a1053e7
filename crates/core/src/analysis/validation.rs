//! ECN-validation confusion matrix: the modern-ECN report section.
//!
//! Joins the truth-free [`ValidationCounts`] accumulator against the
//! blueprint's middlebox ground truth at report time, producing
//! per-truth-class outcome counts and the three headline rates —
//! true-failure (bleached paths the validator correctly failed),
//! false-failure (capable paths it wrongly failed) and missed-bleacher
//! (bleached paths it wrongly validated). The section only exists when
//! the validation pass ran (`ValidationConfig::packets > 0`); campaigns
//! with the pass disabled render byte-identically to pre-validator
//! builds.

use crate::reducers::ValidationCounts;
use crate::report::render_table;
use ecn_pool::GroundTruth;
use ecn_stack::ValidationOutcome;
use std::net::Ipv4Addr;

/// Ground-truth path classes the confusion matrix distinguishes. A
/// server can belong to several planted sets (profiles and middlebox
/// placement draw independently); classification picks the first match
/// in declaration order — ECN-hostile classes before benign-marking
/// ones, so a bleached-and-AQM path counts as bleached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthClass {
    /// Behind an always-on bleacher — the validator *should* fail.
    BleachedAlways,
    /// Behind a probabilistic bleacher (failure detectable, not
    /// guaranteed per round).
    BleachedSometimes,
    /// Behind a CE-suppressing (CE→ECT(0)) middlebox.
    CeSuppressed,
    /// Behind an ECT(1)→ECT(0) downgrading middlebox.
    Ect1Downgraded,
    /// Behind an ECT-dropping middlebox (marked trains black-hole).
    EctDropper,
    /// Behind a RED-style CE-marking AQM edge (marks are benign).
    AqmRed,
    /// Behind a CoDel-style sojourn-marking bottleneck (benign).
    AqmCodel,
    /// None of the above: a clean, ECN-capable path.
    Clean,
}

impl TruthClass {
    /// Every class, in report row order.
    pub const ALL: [TruthClass; 8] = [
        TruthClass::Clean,
        TruthClass::BleachedAlways,
        TruthClass::BleachedSometimes,
        TruthClass::CeSuppressed,
        TruthClass::Ect1Downgraded,
        TruthClass::EctDropper,
        TruthClass::AqmRed,
        TruthClass::AqmCodel,
    ];

    /// Dense index (report row order).
    pub fn index(self) -> usize {
        TruthClass::ALL.iter().position(|c| *c == self).unwrap()
    }

    /// Report row label.
    pub fn label(self) -> &'static str {
        match self {
            TruthClass::Clean => "clean",
            TruthClass::BleachedAlways => "bleached (always)",
            TruthClass::BleachedSometimes => "bleached (sometimes)",
            TruthClass::CeSuppressed => "ce-suppressor",
            TruthClass::Ect1Downgraded => "ect1-downgrade",
            TruthClass::EctDropper => "ect-dropper",
            TruthClass::AqmRed => "aqm-red",
            TruthClass::AqmCodel => "aqm-codel",
        }
    }

    /// Should a correct validator report this path `Capable`? AQM marks
    /// are benign; everything else planted is ECN-hostile.
    pub fn expects_capable(self) -> bool {
        matches!(
            self,
            TruthClass::Clean | TruthClass::AqmRed | TruthClass::AqmCodel
        )
    }
}

/// The rendered section: per-class outcome counts plus headline rates.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// `matrix[class.index()][outcome.index()]` — validation rounds per
    /// (ground-truth class, validator verdict) cell.
    pub matrix: [[u64; 6]; 8],
    /// Total validation rounds.
    pub rounds: u64,
    /// Distinct servers validated.
    pub servers: usize,
}

/// Classify one server against the planted ground truth.
fn classify(truth: &GroundTruth, addr: Ipv4Addr) -> TruthClass {
    let sets: [(&[Ipv4Addr], TruthClass); 7] = [
        (&truth.bleached_servers, TruthClass::BleachedAlways),
        (
            &truth.bleached_sometimes_servers,
            TruthClass::BleachedSometimes,
        ),
        (&truth.ce_suppressed_servers, TruthClass::CeSuppressed),
        (&truth.ect1_downgraded_servers, TruthClass::Ect1Downgraded),
        (&truth.ect_blocked, TruthClass::EctDropper),
        (&truth.aqm_red_servers, TruthClass::AqmRed),
        (&truth.aqm_codel_servers, TruthClass::AqmCodel),
    ];
    for (set, class) in sets {
        if set.contains(&addr) {
            return class;
        }
    }
    TruthClass::Clean
}

impl ValidationReport {
    /// Join the streamed outcome counters against the ground truth.
    /// `None` when the validation pass never ran.
    pub fn from_counts(counts: &ValidationCounts, truth: &GroundTruth) -> Option<ValidationReport> {
        if counts.is_empty() {
            return None;
        }
        let mut matrix = [[0u64; 6]; 8];
        for (addr, outcomes) in &counts.per_server {
            let row = &mut matrix[classify(truth, *addr).index()];
            for (slot, n) in row.iter_mut().zip(outcomes) {
                *slot += n;
            }
        }
        Some(ValidationReport {
            matrix,
            rounds: counts.rounds,
            servers: counts.per_server.len(),
        })
    }

    fn class_rounds(&self, class: TruthClass) -> u64 {
        self.matrix[class.index()].iter().sum()
    }

    fn class_failed(&self, class: TruthClass) -> u64 {
        ValidationOutcome::ALL
            .iter()
            .filter(|o| o.is_failed())
            .map(|o| self.matrix[class.index()][o.index()])
            .sum()
    }

    /// Of the rounds against always-bleached paths, the fraction the
    /// validator correctly failed.
    pub fn true_failure_rate(&self) -> f64 {
        ratio(
            self.class_failed(TruthClass::BleachedAlways),
            self.class_rounds(TruthClass::BleachedAlways),
        )
    }

    /// Of the rounds against genuinely capable paths (clean or behind a
    /// benign-marking AQM), the fraction the validator wrongly failed.
    pub fn false_failure_rate(&self) -> f64 {
        let (mut failed, mut rounds) = (0, 0);
        for class in TruthClass::ALL {
            if class.expects_capable() {
                failed += self.class_failed(class);
                rounds += self.class_rounds(class);
            }
        }
        ratio(failed, rounds)
    }

    /// Of the rounds against always-bleached paths, the fraction the
    /// validator wrongly reported `Capable`.
    pub fn missed_bleacher_rate(&self) -> f64 {
        ratio(
            self.matrix[TruthClass::BleachedAlways.index()][ValidationOutcome::Capable.index()],
            self.class_rounds(TruthClass::BleachedAlways),
        )
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let mut rows = Vec::new();
        for class in TruthClass::ALL {
            let row = &self.matrix[class.index()];
            if row.iter().all(|n| *n == 0) {
                continue; // class not planted (or never validated)
            }
            let mut cells = vec![class.label().to_string()];
            cells.extend(
                ValidationOutcome::ALL
                    .iter()
                    .map(|o| row[o.index()].to_string()),
            );
            rows.push(cells);
        }
        let mut out = render_table(
            "ECN validation: outcomes per middlebox ground-truth class",
            &[
                "ground truth",
                "capable",
                "bleached",
                "remarked",
                "black-hole",
                "ce-suppressed",
                "inconclusive",
            ],
            &rows,
        );
        out.push_str(&format!(
            "\nrounds: {} over {} servers\ntrue-failure rate (bleached paths failed): {}\nfalse-failure rate (capable paths failed): {}\nmissed-bleacher rate (bleached paths validated): {}\n",
            self.rounds,
            self.servers,
            render_rate(self.true_failure_rate()),
            render_rate(self.false_failure_rate()),
            render_rate(self.missed_bleacher_rate()),
        ));
        out
    }
}

fn ratio(hits: u64, total: u64) -> f64 {
    if total == 0 {
        f64::NAN
    } else {
        hits as f64 / total as f64
    }
}

fn render_rate(r: f64) -> String {
    if r.is_nan() {
        "n/a (no such paths)".to_string()
    } else {
        format!("{:.1}%", 100.0 * r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::validation_report;
    use crate::probes::{TcpProbeResult, UdpProbeResult};
    use crate::trace::{ServerOutcome, TraceRecord};
    use ecn_netsim::Nanos;

    fn outcome(addr: Ipv4Addr, v: ValidationOutcome) -> ServerOutcome {
        let udp = UdpProbeResult {
            reachable: true,
            attempts: 1,
            response_ecn: None,
            rtt: None,
        };
        let tcp = TcpProbeResult {
            reachable: true,
            http_status: Some(302),
            requested_ecn: true,
            negotiated_ecn: true,
            syn_ack_flags: None,
            close_reason: None,
        };
        ServerOutcome {
            server: addr,
            udp_plain: udp,
            udp_ect: udp,
            tcp_plain: tcp.clone(),
            tcp_ecn: tcp,
            validation: Some(v),
        }
    }

    fn trace(outcomes: Vec<ServerOutcome>) -> TraceRecord {
        TraceRecord {
            vantage_key: "v".into(),
            vantage_name: "V".into(),
            batch: 1,
            started_at: Nanos::ZERO,
            outcomes,
        }
    }

    fn truth_with(bleached: &[Ipv4Addr], aqm: &[Ipv4Addr]) -> GroundTruth {
        GroundTruth {
            bleached_servers: bleached.to_vec(),
            aqm_red_servers: aqm.to_vec(),
            ..GroundTruth::default()
        }
    }

    #[test]
    fn matrix_joins_outcomes_against_truth() {
        let bleached = Ipv4Addr::new(10, 0, 0, 1);
        let aqm = Ipv4Addr::new(10, 0, 0, 2);
        let clean = Ipv4Addr::new(10, 0, 0, 3);
        let truth = truth_with(&[bleached], &[aqm]);
        let traces = vec![
            trace(vec![
                outcome(bleached, ValidationOutcome::FailedBleached),
                outcome(aqm, ValidationOutcome::Capable),
                outcome(clean, ValidationOutcome::Capable),
            ]),
            trace(vec![
                outcome(bleached, ValidationOutcome::Capable), // a miss
                outcome(aqm, ValidationOutcome::Capable),
                outcome(clean, ValidationOutcome::FailedBlackHole), // false failure
            ]),
        ];
        let r = validation_report(&traces, &truth).expect("pass ran");
        assert_eq!(r.rounds, 6);
        assert_eq!(r.servers, 3);
        let cell = |c: TruthClass, o: ValidationOutcome| r.matrix[c.index()][o.index()];
        assert_eq!(
            cell(
                TruthClass::BleachedAlways,
                ValidationOutcome::FailedBleached
            ),
            1
        );
        assert_eq!(
            cell(TruthClass::BleachedAlways, ValidationOutcome::Capable),
            1
        );
        assert_eq!(cell(TruthClass::AqmRed, ValidationOutcome::Capable), 2);
        assert!((r.true_failure_rate() - 0.5).abs() < 1e-12);
        assert!((r.missed_bleacher_rate() - 0.5).abs() < 1e-12);
        // 1 failure over 4 capable-path rounds (2 aqm + 2 clean)
        assert!((r.false_failure_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn disabled_pass_yields_no_section() {
        let clean = Ipv4Addr::new(10, 0, 0, 3);
        let mut o = outcome(clean, ValidationOutcome::Capable);
        o.validation = None;
        assert!(validation_report(&[trace(vec![o])], &GroundTruth::default()).is_none());
    }

    #[test]
    fn hostile_classes_take_precedence_over_benign() {
        // a server both bleached and behind an AQM counts as bleached
        let both = Ipv4Addr::new(10, 0, 0, 9);
        let truth = truth_with(&[both], &[both]);
        assert_eq!(classify(&truth, both), TruthClass::BleachedAlways);
        assert!(!TruthClass::BleachedAlways.expects_capable());
        assert!(TruthClass::AqmCodel.expects_capable());
    }

    #[test]
    fn render_reports_rates_and_skips_empty_classes() {
        let bleached = Ipv4Addr::new(10, 0, 0, 1);
        let truth = truth_with(&[bleached], &[]);
        let traces = vec![trace(vec![outcome(
            bleached,
            ValidationOutcome::FailedBleached,
        )])];
        let r = validation_report(&traces, &truth).expect("pass ran");
        let text = r.render();
        assert!(text.contains("bleached (always)"));
        assert!(text.contains("true-failure rate"));
        assert!(text.contains("100.0%"));
        assert!(!text.contains("aqm-red"), "empty classes are skipped");
        assert!(text.contains("n/a"), "no capable paths planted");
    }
}
