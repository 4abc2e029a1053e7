//! Queue disciplines for bottleneck links: DropTail and RED with ECN
//! marking (RFC 2309 / RFC 3168 §5), plus two CE-*marking* AQM models for
//! the modern-ECN scenario family.
//!
//! On the measurement paths the paper probes, queues are uncongested and no
//! CE marks were observed (§4.2). The RED implementation exists so the same
//! substrate can demonstrate *why* ECN matters for UDP media traffic (the
//! paper's §1 motivation): the `rtp_media` example pushes a media flow
//! through a RED bottleneck and adapts to the CE marks it gets back.
//!
//! [`QueueDisc::MarkProb`] and [`QueueDisc::CodelMark`] exist for the
//! endpoint-validation scenarios: deployed AQMs that CE-mark ECT traffic a
//! validator must accept as *capability-confirming* congestion signal, not
//! mangling. Both only ever mark markable codepoints and never touch
//! not-ECT traffic (RFC 3168 §5).

use crate::time::Nanos;
use rand::rngs::SmallRng;
use rand::Rng;

/// Discipline configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueDisc {
    /// Tail-drop with a byte limit.
    DropTail {
        /// Maximum backlog in bytes before arriving packets are dropped.
        limit_bytes: u64,
    },
    /// Random Early Detection with ECN marking.
    Red {
        /// Average-queue threshold where early marking/dropping begins.
        min_th_bytes: u64,
        /// Average-queue threshold where everything is marked/dropped.
        max_th_bytes: u64,
        /// Marking probability at `max_th`.
        max_p: f64,
        /// EWMA weight for the average queue estimate.
        weight: f64,
        /// If true, ECT packets are CE-marked instead of dropped.
        ecn: bool,
        /// Hard byte limit (physical buffer).
        limit_bytes: u64,
    },
    /// RED-style probabilistic CE marker: every markable packet is CE-marked
    /// with fixed probability `prob`, independent of the instantaneous
    /// backlog — the steady-state behaviour of a congested AQM as seen by
    /// sparse probe traffic. Not-ECT packets pass untouched (subject only to
    /// the hard byte limit); the marker never drops in place of marking.
    MarkProb {
        /// Per-packet marking probability for markable (ECT) packets.
        prob: f64,
        /// Hard byte limit (physical buffer).
        limit_bytes: u64,
    },
    /// CoDel-style sojourn-threshold CE marker (L4S-style immediate
    /// marking): a markable packet whose standing-queue sojourn exceeds
    /// `target` is CE-marked, deterministically and without randomness.
    /// Not-ECT packets pass untouched below the hard byte limit.
    CodelMark {
        /// Sojourn threshold above which markable packets are CE-marked.
        target: Nanos,
        /// Hard byte limit (physical buffer).
        limit_bytes: u64,
    },
}

impl QueueDisc {
    /// A deep FIFO for core links that should never drop in this study.
    pub fn deep_fifo() -> QueueDisc {
        QueueDisc::DropTail {
            limit_bytes: 64 * 1024 * 1024,
        }
    }

    /// A RED+ECN bottleneck of roughly `bdp_bytes` buffering.
    pub fn red_ecn(bdp_bytes: u64) -> QueueDisc {
        QueueDisc::Red {
            min_th_bytes: bdp_bytes / 4,
            max_th_bytes: (bdp_bytes * 3) / 4,
            max_p: 0.1,
            weight: 0.02,
            ecn: true,
            limit_bytes: bdp_bytes * 2,
        }
    }

    /// A steady-state probabilistic AQM marker with a deep buffer.
    pub fn aqm_mark(prob: f64) -> QueueDisc {
        QueueDisc::MarkProb {
            prob,
            limit_bytes: 64 * 1024 * 1024,
        }
    }

    /// An L4S-style sojourn-threshold marker with a deep buffer.
    pub fn l4s_mark(target: Nanos) -> QueueDisc {
        QueueDisc::CodelMark {
            target,
            limit_bytes: 64 * 1024 * 1024,
        }
    }
}

/// What the queue decided for an arriving packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueVerdict {
    /// Enqueue unchanged.
    Enqueue,
    /// Enqueue and CE-mark (RED + ECT packet).
    EnqueueMarked,
    /// Drop (overflow, or RED early drop of a not-ECT packet).
    Drop(QueueDropCause),
}

/// Why the queue dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueDropCause {
    /// Hard buffer overflow.
    Overflow,
    /// RED early drop.
    RedEarly,
    /// RED forced drop above max threshold.
    RedForced,
}

/// Runtime queue state for one link.
#[derive(Debug, Clone)]
pub struct QueueState {
    disc: QueueDisc,
    /// EWMA of the queue size in bytes (RED only).
    avg_bytes: f64,
    /// Packets since the last RED mark/drop (RED's uniformisation counter).
    count_since_mark: u64,
}

impl QueueState {
    /// Fresh state for a discipline.
    pub fn new(disc: QueueDisc) -> QueueState {
        QueueState {
            disc,
            avg_bytes: 0.0,
            count_since_mark: 0,
        }
    }

    /// The configured discipline.
    pub fn disc(&self) -> &QueueDisc {
        &self.disc
    }

    /// Current average queue estimate (test/diagnostic hook).
    pub fn avg_bytes(&self) -> f64 {
        self.avg_bytes
    }

    /// Decide the fate of a packet arriving to a backlog of
    /// `backlog_bytes`. `sojourn` is the queueing delay the packet will
    /// experience before transmission begins (zero on unlimited-rate
    /// links); `ect` says whether the packet is CE-markable.
    pub fn on_arrival(
        &mut self,
        backlog_bytes: u64,
        packet_bytes: u64,
        sojourn: Nanos,
        ect: bool,
        rng: &mut SmallRng,
    ) -> QueueVerdict {
        match self.disc {
            QueueDisc::DropTail { limit_bytes } => {
                if backlog_bytes + packet_bytes > limit_bytes {
                    QueueVerdict::Drop(QueueDropCause::Overflow)
                } else {
                    QueueVerdict::Enqueue
                }
            }
            QueueDisc::MarkProb { prob, limit_bytes } => {
                if backlog_bytes + packet_bytes > limit_bytes {
                    return QueueVerdict::Drop(QueueDropCause::Overflow);
                }
                // Only markable packets consume randomness: not-ECT
                // traffic through an AQM draws nothing, so a zero-AQM
                // world and a not-ECT flow see identical RNG streams.
                if ect && rng.gen_bool(prob) {
                    QueueVerdict::EnqueueMarked
                } else {
                    QueueVerdict::Enqueue
                }
            }
            QueueDisc::CodelMark {
                target,
                limit_bytes,
            } => {
                if backlog_bytes + packet_bytes > limit_bytes {
                    return QueueVerdict::Drop(QueueDropCause::Overflow);
                }
                if ect && sojourn > target {
                    QueueVerdict::EnqueueMarked
                } else {
                    QueueVerdict::Enqueue
                }
            }
            QueueDisc::Red {
                min_th_bytes,
                max_th_bytes,
                max_p,
                weight,
                ecn,
                limit_bytes,
            } => {
                if backlog_bytes + packet_bytes > limit_bytes {
                    return QueueVerdict::Drop(QueueDropCause::Overflow);
                }
                self.avg_bytes = (1.0 - weight) * self.avg_bytes + weight * backlog_bytes as f64;
                let avg = self.avg_bytes;
                if avg < min_th_bytes as f64 {
                    self.count_since_mark += 1;
                    return QueueVerdict::Enqueue;
                }
                if avg >= max_th_bytes as f64 {
                    self.count_since_mark = 0;
                    return if ecn && ect {
                        QueueVerdict::EnqueueMarked
                    } else {
                        QueueVerdict::Drop(QueueDropCause::RedForced)
                    };
                }
                // Between thresholds: geometric inter-mark spacing (Floyd's
                // count correction).
                let base_p =
                    max_p * (avg - min_th_bytes as f64) / (max_th_bytes - min_th_bytes) as f64;
                let p = (base_p / (1.0 - base_p * self.count_since_mark as f64)).clamp(0.0, 1.0);
                self.count_since_mark += 1;
                if rng.gen_bool(p) {
                    self.count_since_mark = 0;
                    if ecn && ect {
                        QueueVerdict::EnqueueMarked
                    } else {
                        QueueVerdict::Drop(QueueDropCause::RedEarly)
                    }
                } else {
                    QueueVerdict::Enqueue
                }
            }
        }
    }
}

/// Drain timing helper: given a link `rate` in bits/s, how long does a
/// packet of `bytes` take to serialise? `None` rate = infinitely fast.
pub fn serialisation_delay(rate_bps: Option<u64>, bytes: u64) -> Nanos {
    match rate_bps {
        None => Nanos::ZERO,
        Some(0) => Nanos::ZERO,
        Some(rate) => Nanos((bytes * 8).saturating_mul(1_000_000_000) / rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;

    #[test]
    fn droptail_accepts_under_limit() {
        let mut q = QueueState::new(QueueDisc::DropTail { limit_bytes: 3000 });
        let mut rng = derive_rng(1, "q");
        assert_eq!(
            q.on_arrival(0, 1500, Nanos::ZERO, false, &mut rng),
            QueueVerdict::Enqueue
        );
        assert_eq!(
            q.on_arrival(1500, 1500, Nanos::ZERO, false, &mut rng),
            QueueVerdict::Enqueue
        );
        assert_eq!(
            q.on_arrival(3000, 1500, Nanos::ZERO, false, &mut rng),
            QueueVerdict::Drop(QueueDropCause::Overflow)
        );
    }

    #[test]
    fn red_idle_queue_never_marks() {
        let mut q = QueueState::new(QueueDisc::red_ecn(100_000));
        let mut rng = derive_rng(2, "q");
        for _ in 0..1000 {
            assert_eq!(
                q.on_arrival(0, 100, Nanos::ZERO, true, &mut rng),
                QueueVerdict::Enqueue
            );
        }
    }

    #[test]
    fn red_marks_ect_and_drops_not_ect_when_congested() {
        let disc = QueueDisc::Red {
            min_th_bytes: 10_000,
            max_th_bytes: 30_000,
            max_p: 0.1,
            weight: 0.2,
            ecn: true,
            limit_bytes: 1_000_000,
        };
        let mut rng = derive_rng(3, "q");

        let mut marks = 0;
        let mut drops = 0;
        let mut q = QueueState::new(disc);
        for _ in 0..5000 {
            match q.on_arrival(25_000, 1000, Nanos::ZERO, true, &mut rng) {
                QueueVerdict::EnqueueMarked => marks += 1,
                QueueVerdict::Drop(_) => drops += 1,
                QueueVerdict::Enqueue => {}
            }
        }
        assert!(marks > 100, "ECT packets should be CE-marked, got {marks}");
        assert_eq!(drops, 0, "ECT packets must not be early-dropped");

        let mut q = QueueState::new(disc);
        let mut marks_ne = 0;
        let mut drops_ne = 0;
        for _ in 0..5000 {
            match q.on_arrival(25_000, 1000, Nanos::ZERO, false, &mut rng) {
                QueueVerdict::EnqueueMarked => marks_ne += 1,
                QueueVerdict::Drop(_) => drops_ne += 1,
                QueueVerdict::Enqueue => {}
            }
        }
        assert_eq!(marks_ne, 0, "not-ECT packets can never be marked");
        assert!(
            drops_ne > 100,
            "not-ECT packets should be dropped, got {drops_ne}"
        );
    }

    #[test]
    fn red_forces_above_max_threshold() {
        let disc = QueueDisc::Red {
            min_th_bytes: 1_000,
            max_th_bytes: 2_000,
            max_p: 0.1,
            weight: 1.0, // avg == instantaneous
            ecn: true,
            limit_bytes: 1_000_000,
        };
        let mut q = QueueState::new(disc);
        let mut rng = derive_rng(4, "q");
        assert_eq!(
            q.on_arrival(50_000, 100, Nanos::ZERO, true, &mut rng),
            QueueVerdict::EnqueueMarked
        );
        assert_eq!(
            q.on_arrival(50_000, 100, Nanos::ZERO, false, &mut rng),
            QueueVerdict::Drop(QueueDropCause::RedForced)
        );
    }

    #[test]
    fn red_hard_limit_still_applies() {
        let mut q = QueueState::new(QueueDisc::red_ecn(10_000));
        let mut rng = derive_rng(5, "q");
        assert_eq!(
            q.on_arrival(25_000, 1500, Nanos::ZERO, true, &mut rng),
            QueueVerdict::Drop(QueueDropCause::Overflow)
        );
    }

    #[test]
    fn mark_prob_marks_only_markable() {
        let mut q = QueueState::new(QueueDisc::aqm_mark(0.5));
        let mut rng = derive_rng(6, "q");
        let mut marks = 0;
        for _ in 0..2000 {
            match q.on_arrival(0, 100, Nanos::ZERO, true, &mut rng) {
                QueueVerdict::EnqueueMarked => marks += 1,
                QueueVerdict::Enqueue => {}
                other => panic!("{other:?}"),
            }
        }
        assert!((800..1200).contains(&marks), "marks {marks}");
        // not-ECT traffic is never marked, never dropped, and draws no RNG
        for _ in 0..2000 {
            assert_eq!(
                q.on_arrival(0, 100, Nanos::ZERO, false, &mut rng),
                QueueVerdict::Enqueue
            );
        }
    }

    #[test]
    fn mark_prob_not_ect_draws_no_randomness() {
        let disc = QueueDisc::aqm_mark(0.5);
        let mut a = derive_rng(7, "q");
        let mut b = derive_rng(7, "q");
        let mut qa = QueueState::new(disc);
        // stream a: 100 not-ECT packets through the marker, then one draw
        for _ in 0..100 {
            qa.on_arrival(0, 100, Nanos::ZERO, false, &mut a);
        }
        // stream b: no packets at all
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn codel_mark_thresholds_on_sojourn() {
        let mut q = QueueState::new(QueueDisc::l4s_mark(Nanos::from_millis(1)));
        let mut rng = derive_rng(8, "q");
        // below target: untouched
        assert_eq!(
            q.on_arrival(0, 100, Nanos::from_micros(900), true, &mut rng),
            QueueVerdict::Enqueue
        );
        // above target, markable: marked
        assert_eq!(
            q.on_arrival(0, 100, Nanos::from_millis(2), true, &mut rng),
            QueueVerdict::EnqueueMarked
        );
        // above target, not-ECT: passes unmarked (marker never drops)
        assert_eq!(
            q.on_arrival(0, 100, Nanos::from_millis(2), false, &mut rng),
            QueueVerdict::Enqueue
        );
    }

    #[test]
    fn markers_respect_hard_limit() {
        let mut rng = derive_rng(9, "q");
        let mut q = QueueState::new(QueueDisc::MarkProb {
            prob: 1.0,
            limit_bytes: 1000,
        });
        assert_eq!(
            q.on_arrival(900, 200, Nanos::ZERO, true, &mut rng),
            QueueVerdict::Drop(QueueDropCause::Overflow)
        );
        let mut q = QueueState::new(QueueDisc::CodelMark {
            target: Nanos::ZERO,
            limit_bytes: 1000,
        });
        assert_eq!(
            q.on_arrival(900, 200, Nanos::from_secs(1), true, &mut rng),
            QueueVerdict::Drop(QueueDropCause::Overflow)
        );
    }

    #[test]
    fn serialisation_delay_math() {
        // 1500 bytes at 12 kbit/s = 1 s
        assert_eq!(serialisation_delay(Some(12_000), 1500), Nanos::from_secs(1));
        assert_eq!(serialisation_delay(None, 1500), Nanos::ZERO);
        assert_eq!(serialisation_delay(Some(0), 1500), Nanos::ZERO);
    }
}
