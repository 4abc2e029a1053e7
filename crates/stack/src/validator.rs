//! RFC 9000-style endpoint ECN validation (the s2n-quic `path/ecn.rs`
//! controller, adapted to datagram probes).
//!
//! A modern transport does not trust ECN blindly: it *tests* the path by
//! marking its first packets ECT and checking the peer's feedback for
//! evidence that the marks survived. The controller here is the state
//! machine the study's modern-ECN scenarios exercise against planted
//! middleboxes:
//!
//! ```text
//!             ┌──────────────────────── retest (cool-off elapsed) ─────┐
//!             ▼                                                        │
//!        ┌─────────┐  mangled/black-holed feedback   ┌────────┐        │
//!   ●──▶ │ Testing │ ───────────────────────────────▶│ Failed │ ───────┘
//!        └─────────┘                                 └────────┘
//!             │ ECT or CE confirmed      │ no feedback at all
//!             ▼                          ▼
//!        ┌─────────┐                ┌─────────┐
//!        │ Capable │                │ Unknown │
//!        └─────────┘                └─────────┘
//! ```
//!
//! Feedback is a per-packet report of the codepoint that *arrived* at the
//! peer (the analogue of QUIC's ACK-ECN counts). During `Testing` the
//! first [`ValidatorParams::testing_packets`] packets are sent marked;
//! one of them may be a deliberately CE-marked canary whose suppression
//! betrays a CE-clearing middlebox (the s2n-quic `ce_suppression` check).
//! A CE report for an ECT-sent packet is *capability-confirming* — an AQM
//! marked it — never a failure. Once any report shows a mangled mark the
//! round latches `Failed`; the only way out is a retest after
//! [`ValidatorParams::cooloff`], which restarts `Testing` from scratch —
//! there is no path from `Failed` (or from a bleached report) to
//! `Capable` within a round.

use ecn_netsim::Nanos;
use ecn_wire::Ecn;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Validation controller parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidatorParams {
    /// Packets marked ECT during the testing phase (s2n-quic tests the
    /// first 10).
    pub testing_packets: u32,
    /// Send one deliberately CE-marked canary to detect CE suppression.
    pub ce_canary: bool,
    /// Cool-off before a failed path may be retested.
    pub cooloff: Nanos,
}

impl Default for ValidatorParams {
    fn default() -> Self {
        ValidatorParams {
            testing_packets: 10,
            ce_canary: true,
            cooloff: Nanos::from_secs(60),
        }
    }
}

/// Controller state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidatorState {
    /// Marking packets ECT and watching feedback.
    Testing,
    /// Testing ended without any feedback: no evidence either way.
    Unknown,
    /// The path carries ECN marks faithfully.
    Capable,
    /// The path mangles or black-holes marked traffic; ECN is disabled
    /// until the cool-off elapses.
    Failed,
}

/// Why validation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FailureKind {
    /// A mark was cleared to not-ECT on path (bleaching).
    Bleached,
    /// A mark arrived as the *other* ECT codepoint (re-marking).
    Remarked,
    /// Marked packets vanished while unmarked traffic got through.
    BlackHole,
    /// The CE canary arrived with its congestion signal erased.
    CeSuppressed,
}

/// The per-endpoint verdict a finished round emits into the reducers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ValidationOutcome {
    /// Path validated: ECN usable.
    Capable,
    /// Failed: marks bleached to not-ECT.
    FailedBleached,
    /// Failed: ECT codepoint rewritten to the other ECT codepoint.
    FailedRemarked,
    /// Failed: marked packets black-holed.
    FailedBlackHole,
    /// Failed: CE canary suppressed.
    FailedCeSuppressed,
    /// No feedback at all — nothing to validate against.
    Inconclusive,
}

impl ValidationOutcome {
    /// Stable dense index (reducer accumulator slot).
    pub fn index(self) -> usize {
        match self {
            ValidationOutcome::Capable => 0,
            ValidationOutcome::FailedBleached => 1,
            ValidationOutcome::FailedRemarked => 2,
            ValidationOutcome::FailedBlackHole => 3,
            ValidationOutcome::FailedCeSuppressed => 4,
            ValidationOutcome::Inconclusive => 5,
        }
    }

    /// All outcomes in `index` order.
    pub const ALL: [ValidationOutcome; 6] = [
        ValidationOutcome::Capable,
        ValidationOutcome::FailedBleached,
        ValidationOutcome::FailedRemarked,
        ValidationOutcome::FailedBlackHole,
        ValidationOutcome::FailedCeSuppressed,
        ValidationOutcome::Inconclusive,
    ];

    /// Any of the failure verdicts?
    pub fn is_failed(self) -> bool {
        !matches!(
            self,
            ValidationOutcome::Capable | ValidationOutcome::Inconclusive
        )
    }
}

impl fmt::Display for ValidationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ValidationOutcome::Capable => "capable",
            ValidationOutcome::FailedBleached => "failed-bleached",
            ValidationOutcome::FailedRemarked => "failed-remarked",
            ValidationOutcome::FailedBlackHole => "failed-blackhole",
            ValidationOutcome::FailedCeSuppressed => "failed-ce-suppressed",
            ValidationOutcome::Inconclusive => "inconclusive",
        })
    }
}

/// The validation controller for one path (one peer).
#[derive(Debug, Clone)]
pub struct EcnValidator {
    params: ValidatorParams,
    state: ValidatorState,
    failure: Option<FailureKind>,
    /// Marked packets sent this round.
    sent_marked: u32,
    /// Reports confirming an intact ECT or CE arrival.
    confirmed: u32,
    /// Any feedback at all this round (marked or control).
    any_feedback: bool,
    /// When a failed path may be retested.
    retest_at: Option<Nanos>,
}

impl EcnValidator {
    /// A fresh controller in `Testing`.
    pub fn new(params: ValidatorParams) -> EcnValidator {
        EcnValidator {
            params,
            state: ValidatorState::Testing,
            failure: None,
            sent_marked: 0,
            confirmed: 0,
            any_feedback: false,
            retest_at: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> ValidatorState {
        self.state
    }

    /// The codepoint the next outgoing packet should carry: `session`
    /// (ECT(0) or ECT(1)) while testing budget remains — with the final
    /// testing packet swapped for a CE canary when configured — and
    /// not-ECT otherwise. Call once per packet; counts the send.
    pub fn next_codepoint(&mut self, session: Ecn) -> Ecn {
        if self.state != ValidatorState::Testing || self.sent_marked >= self.params.testing_packets
        {
            return Ecn::NotEct;
        }
        self.sent_marked += 1;
        if self.params.ce_canary && self.sent_marked == self.params.testing_packets {
            Ecn::Ce
        } else {
            session
        }
    }

    fn fail(&mut self, kind: FailureKind) {
        // First failure wins; the round latches Failed at conclude().
        if self.failure.is_none() {
            self.failure = Some(kind);
        }
    }

    /// Feed one peer report: the packet was sent with `sent` and the peer
    /// saw it arrive with `arrived`.
    pub fn on_peer_report(&mut self, sent: Ecn, arrived: Ecn) {
        self.any_feedback = true;
        if self.state != ValidatorState::Testing {
            return;
        }
        match (sent, arrived) {
            // Intact, or AQM-marked on path: capability-confirming.
            (s, a) if s.is_ect() && (a == s || a == Ecn::Ce) => self.confirmed += 1,
            // Mark cleared on path.
            (s, Ecn::NotEct) if s.is_ect() => self.fail(FailureKind::Bleached),
            // ECT(0) ⇄ ECT(1) rewriting.
            (s, a) if s.is_ect() && a.is_ect() => self.fail(FailureKind::Remarked),
            // The CE canary: intact CE confirms; anything else means a
            // middlebox erased the congestion signal.
            (Ecn::Ce, Ecn::Ce) => self.confirmed += 1,
            (Ecn::Ce, _) => self.fail(FailureKind::CeSuppressed),
            // Control traffic (not-ECT sent): nothing to learn beyond
            // the feedback itself.
            _ => {}
        }
    }

    /// End the testing round at `now`. `control_reachable` says unmarked
    /// traffic to the same peer got through (distinguishes a marked-
    /// traffic black hole from a dead peer).
    pub fn conclude(&mut self, now: Nanos, control_reachable: bool) -> ValidationOutcome {
        if self.state == ValidatorState::Testing {
            self.state = if self.failure.is_some() {
                ValidatorState::Failed
            } else if self.confirmed > 0 {
                ValidatorState::Capable
            } else if !self.any_feedback && !control_reachable {
                ValidatorState::Unknown
            } else {
                // Marked packets vanished while the peer was demonstrably
                // alive (control feedback or reachability).
                self.failure = Some(FailureKind::BlackHole);
                ValidatorState::Failed
            };
            if self.state == ValidatorState::Failed {
                self.retest_at = Some(now + self.params.cooloff);
            }
        }
        self.outcome()
    }

    /// The verdict for the concluded round.
    pub fn outcome(&self) -> ValidationOutcome {
        match self.state {
            ValidatorState::Capable => ValidationOutcome::Capable,
            ValidatorState::Unknown | ValidatorState::Testing => ValidationOutcome::Inconclusive,
            ValidatorState::Failed => match self.failure {
                Some(FailureKind::Bleached) => ValidationOutcome::FailedBleached,
                Some(FailureKind::Remarked) => ValidationOutcome::FailedRemarked,
                Some(FailureKind::CeSuppressed) => ValidationOutcome::FailedCeSuppressed,
                Some(FailureKind::BlackHole) | None => ValidationOutcome::FailedBlackHole,
            },
        }
    }

    /// Retest a failed path once the cool-off has elapsed: back to a
    /// fresh `Testing` round. Returns true when the retest started.
    /// Paths that concluded `Capable`/`Unknown` never retest.
    pub fn maybe_retest(&mut self, now: Nanos) -> bool {
        match (self.state, self.retest_at) {
            (ValidatorState::Failed, Some(at)) if now >= at => {
                let params = self.params;
                *self = EcnValidator::new(params);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ValidatorParams {
        ValidatorParams::default()
    }

    #[test]
    fn clean_path_validates_capable() {
        let mut v = EcnValidator::new(params());
        let mut sent = Vec::new();
        for _ in 0..10 {
            sent.push(v.next_codepoint(Ecn::Ect0));
        }
        assert_eq!(sent.iter().filter(|e| **e == Ecn::Ect0).count(), 9);
        assert_eq!(*sent.last().unwrap(), Ecn::Ce, "last packet is the canary");
        // budget exhausted: subsequent traffic is unmarked
        assert_eq!(v.next_codepoint(Ecn::Ect0), Ecn::NotEct);
        for s in &sent {
            v.on_peer_report(*s, *s);
        }
        assert_eq!(v.conclude(Nanos::ZERO, true), ValidationOutcome::Capable);
        assert_eq!(v.state(), ValidatorState::Capable);
    }

    #[test]
    fn aqm_ce_marks_confirm_capability() {
        let mut v = EcnValidator::new(ValidatorParams {
            ce_canary: false,
            ..params()
        });
        for _ in 0..10 {
            let s = v.next_codepoint(Ecn::Ect1);
            assert_eq!(s, Ecn::Ect1);
            // every packet CE-marked by an AQM on path
            v.on_peer_report(s, Ecn::Ce);
        }
        assert_eq!(v.conclude(Nanos::ZERO, true), ValidationOutcome::Capable);
    }

    #[test]
    fn bleached_report_latches_failed() {
        let mut v = EcnValidator::new(params());
        let s = v.next_codepoint(Ecn::Ect0);
        v.on_peer_report(s, Ecn::NotEct);
        // later intact reports cannot rescue the round
        for _ in 0..20 {
            v.on_peer_report(Ecn::Ect0, Ecn::Ect0);
        }
        assert_eq!(
            v.conclude(Nanos::ZERO, true),
            ValidationOutcome::FailedBleached
        );
    }

    #[test]
    fn remarking_is_distinguished_from_bleaching() {
        let mut v = EcnValidator::new(params());
        let s = v.next_codepoint(Ecn::Ect1);
        v.on_peer_report(s, Ecn::Ect0);
        assert_eq!(
            v.conclude(Nanos::ZERO, true),
            ValidationOutcome::FailedRemarked
        );
    }

    #[test]
    fn suppressed_canary_fails() {
        let mut v = EcnValidator::new(params());
        for _ in 0..10 {
            let s = v.next_codepoint(Ecn::Ect0);
            let arrived = if s == Ecn::Ce { Ecn::Ect0 } else { s };
            v.on_peer_report(s, arrived);
        }
        assert_eq!(
            v.conclude(Nanos::ZERO, true),
            ValidationOutcome::FailedCeSuppressed
        );
    }

    #[test]
    fn black_hole_needs_live_peer_evidence() {
        // marked packets vanish, peer alive via control traffic → black hole
        let mut v = EcnValidator::new(params());
        for _ in 0..10 {
            v.next_codepoint(Ecn::Ect0);
        }
        assert_eq!(
            v.conclude(Nanos::ZERO, true),
            ValidationOutcome::FailedBlackHole
        );

        // nothing at all came back and control failed too → inconclusive
        let mut v = EcnValidator::new(params());
        for _ in 0..10 {
            v.next_codepoint(Ecn::Ect0);
        }
        assert_eq!(
            v.conclude(Nanos::ZERO, false),
            ValidationOutcome::Inconclusive
        );
        assert_eq!(v.state(), ValidatorState::Unknown);
    }

    #[test]
    fn retest_honours_cooloff() {
        let mut v = EcnValidator::new(params());
        let s = v.next_codepoint(Ecn::Ect0);
        v.on_peer_report(s, Ecn::NotEct);
        v.conclude(Nanos::from_secs(5), true);
        assert_eq!(v.state(), ValidatorState::Failed);
        // too early
        assert!(!v.maybe_retest(Nanos::from_secs(30)));
        assert_eq!(v.state(), ValidatorState::Failed);
        // cool-off elapsed: fresh testing round
        assert!(v.maybe_retest(Nanos::from_secs(65)));
        assert_eq!(v.state(), ValidatorState::Testing);
        assert_eq!(v.next_codepoint(Ecn::Ect0), Ecn::Ect0);
        // capable paths never retest
        let mut c = EcnValidator::new(ValidatorParams {
            ce_canary: false,
            ..params()
        });
        let s = c.next_codepoint(Ecn::Ect0);
        c.on_peer_report(s, Ecn::Ect0);
        c.conclude(Nanos::ZERO, true);
        assert!(!c.maybe_retest(Nanos::from_secs(1_000_000)));
    }

    #[test]
    fn outcome_indices_are_dense_and_stable() {
        for (i, o) in ValidationOutcome::ALL.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
        assert!(ValidationOutcome::FailedBleached.is_failed());
        assert!(!ValidationOutcome::Capable.is_failed());
        assert!(!ValidationOutcome::Inconclusive.is_failed());
        assert_eq!(ValidationOutcome::Capable.to_string(), "capable");
    }
}
