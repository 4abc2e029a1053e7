//! Directed links: propagation delay, serialisation rate, a queue
//! discipline, and a loss process.
//!
//! The link model is the standard fluid one: a link tracks the time until
//! which its transmitter is busy; an offered packet either joins the
//! (virtual) queue — extending `busy_until` — or is dropped by the
//! discipline/loss process. One event per hop keeps the 210-trace campaign
//! (hundreds of millions of hop traversals) tractable.
//!
//! A link comes in three parts: its [`LinkProps`], which the topology
//! stores once per distinct value (a campaign world has about a dozen,
//! however many links it has); the topology's per-link record of the
//! far end and a props index, which every world stamped from one
//! skeleton shares; and the mutable [`LinkState`] (queue, loss process,
//! busy horizon), which a world holds only for links that are not
//! passive ([`LinkProps::is_passive`]): a passive link's offer is a pure
//! function of the packet, so it needs no state at all.

use crate::loss::{LossModel, LossProcess};
use crate::queue::{serialisation_delay, QueueDisc, QueueDropCause, QueueState, QueueVerdict};
use crate::time::Nanos;
use rand::rngs::SmallRng;

/// Index of a directed link in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// Index of a node in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Static link properties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProps {
    /// One-way propagation delay.
    pub delay: Nanos,
    /// Serialisation rate in bits/s. `None` = infinitely fast (no queueing),
    /// the right model for uncongested core links under probe traffic.
    pub rate_bps: Option<u64>,
    /// Queue discipline (only meaningful with a finite rate).
    pub queue: QueueDisc,
    /// Loss process on the wire.
    pub loss: LossModel,
}

impl LinkProps {
    /// A clean link: fixed delay, no rate limit, no loss.
    pub fn clean(delay: Nanos) -> LinkProps {
        LinkProps {
            delay,
            rate_bps: None,
            queue: QueueDisc::deep_fifo(),
            loss: LossModel::None,
        }
    }

    /// A lossy link with independent loss.
    pub fn lossy(delay: Nanos, p: f64) -> LinkProps {
        LinkProps {
            loss: LossModel::Bernoulli { p },
            ..LinkProps::clean(delay)
        }
    }

    /// A link with bursty (Gilbert–Elliott) loss at the given mean rate.
    pub fn bursty(delay: Nanos, mean_loss: f64) -> LinkProps {
        LinkProps {
            loss: LossModel::congested_access(mean_loss),
            ..LinkProps::clean(delay)
        }
    }

    /// A rate-limited bottleneck with the given queue.
    pub fn bottleneck(delay: Nanos, rate_bps: u64, queue: QueueDisc) -> LinkProps {
        LinkProps {
            delay,
            rate_bps: Some(rate_bps),
            queue,
            loss: LossModel::None,
        }
    }
}

/// What happened when a packet was offered to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// The packet will arrive at the far end at `at`; `ce_mark` means the
    /// queue asked for it to be CE-marked (RED + ECT).
    Deliver {
        /// Arrival time at the far end.
        at: Nanos,
        /// CE-mark the packet before delivery.
        ce_mark: bool,
    },
    /// Dropped by the loss process.
    Lost,
    /// Dropped by the queue.
    Dropped(QueueDropCause),
}

/// The mutable half of a directed link: queue, loss process, and the
/// time until which the transmitter is busy.
#[derive(Debug, Clone)]
pub struct LinkState {
    queue: QueueState,
    loss: LossProcess,
    busy_until: Nanos,
}

impl LinkState {
    /// Fresh state for a link with `props`.
    pub fn new(props: &LinkProps) -> LinkState {
        LinkState {
            queue: QueueState::new(props.queue),
            loss: LossProcess::new(props.loss),
            busy_until: Nanos::ZERO,
        }
    }
}

impl LinkProps {
    /// Current backlog in bytes of a link with these properties,
    /// inferred from the busy horizon in its `state`.
    pub fn backlog_bytes(&self, state: &LinkState, now: Nanos) -> u64 {
        match self.rate_bps {
            None | Some(0) => 0,
            Some(rate) => {
                let busy = state.busy_until.saturating_sub(now);
                busy.0.saturating_mul(rate) / 8 / 1_000_000_000
            }
        }
    }

    /// True when [`Self::offer`] is a pure function of the packet for any
    /// realistic datagram: no rate limit (so no queueing and no
    /// `busy_until` mutation), no loss process, and a drop-tail queue too
    /// deep to overflow an IPv4-sized packet. Traversing such a link
    /// draws no randomness and mutates no link state: the outcome is
    /// always `Deliver { at: now + delay, ce_mark: false }`. The
    /// simulator's multi-hop tunnelling relies on this, and a world keeps
    /// no [`LinkState`] for such a link.
    pub fn is_passive(&self) -> bool {
        self.rate_bps.is_none()
            && matches!(self.loss, LossModel::None)
            && matches!(
                self.queue,
                QueueDisc::DropTail { limit_bytes } if limit_bytes >= 65_535
            )
    }

    /// Offer a packet of `bytes` bytes at `now` to a link with these
    /// properties, whose runtime state is `state`; `ect` marks
    /// CE-markability.
    pub fn offer(
        &self,
        state: &mut LinkState,
        now: Nanos,
        bytes: u64,
        ect: bool,
        rng: &mut SmallRng,
    ) -> LinkOutcome {
        if state.loss.should_drop(now, ect, rng) {
            return LinkOutcome::Lost;
        }
        let backlog = self.backlog_bytes(state, now);
        let sojourn = state.busy_until.saturating_sub(now);
        let verdict = state.queue.on_arrival(backlog, bytes, sojourn, ect, rng);
        let ce_mark = match verdict {
            QueueVerdict::Drop(cause) => return LinkOutcome::Dropped(cause),
            QueueVerdict::EnqueueMarked => true,
            QueueVerdict::Enqueue => false,
        };
        let start = state.busy_until.max(now);
        let tx = serialisation_delay(self.rate_bps, bytes);
        state.busy_until = start + tx;
        LinkOutcome::Deliver {
            at: state.busy_until + self.delay,
            ce_mark,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;

    /// A link's properties together with its own state, for offering to
    /// directly.
    struct Wire(LinkProps, LinkState);

    impl Wire {
        fn offer(&mut self, now: Nanos, bytes: u64, ect: bool, rng: &mut SmallRng) -> LinkOutcome {
            self.0.offer(&mut self.1, now, bytes, ect, rng)
        }

        fn backlog_bytes(&self, now: Nanos) -> u64 {
            self.0.backlog_bytes(&self.1, now)
        }

        fn is_passive(&self) -> bool {
            self.0.is_passive()
        }
    }

    fn mk(props: LinkProps) -> Wire {
        Wire(props, LinkState::new(&props))
    }

    #[test]
    fn clean_link_delivers_after_delay() {
        let mut l = mk(LinkProps::clean(Nanos::from_millis(10)));
        let mut rng = derive_rng(1, "l");
        match l.offer(Nanos::from_secs(1), 100, false, &mut rng) {
            LinkOutcome::Deliver { at, ce_mark } => {
                assert_eq!(at, Nanos::from_secs(1) + Nanos::from_millis(10));
                assert!(!ce_mark);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rate_limited_link_serialises_back_to_back() {
        // 8 kbit/s, 1000-byte packets => 1 s each.
        let mut l = mk(LinkProps::bottleneck(
            Nanos::ZERO,
            8_000,
            QueueDisc::deep_fifo(),
        ));
        let mut rng = derive_rng(2, "l");
        let a = l.offer(Nanos::ZERO, 1000, false, &mut rng);
        let b = l.offer(Nanos::ZERO, 1000, false, &mut rng);
        match (a, b) {
            (LinkOutcome::Deliver { at: t1, .. }, LinkOutcome::Deliver { at: t2, .. }) => {
                assert_eq!(t1, Nanos::from_secs(1));
                assert_eq!(t2, Nanos::from_secs(2));
            }
            other => panic!("{other:?}"),
        }
        // backlog reflects the queued second packet
        assert!(l.backlog_bytes(Nanos::ZERO) > 0);
        // after the queue drains, backlog is zero again
        assert_eq!(l.backlog_bytes(Nanos::from_secs(5)), 0);
    }

    #[test]
    fn droptail_overflow_on_small_buffer() {
        // The backlog includes the packet in transmission, so a 2500-byte
        // limit fits two 1000-byte packets but not a third.
        let props = LinkProps::bottleneck(
            Nanos::ZERO,
            8_000,
            QueueDisc::DropTail { limit_bytes: 2500 },
        );
        let mut l = mk(props);
        let mut rng = derive_rng(3, "l");
        assert!(matches!(
            l.offer(Nanos::ZERO, 1000, false, &mut rng),
            LinkOutcome::Deliver { .. }
        ));
        assert!(matches!(
            l.offer(Nanos::ZERO, 1000, false, &mut rng),
            LinkOutcome::Deliver { .. }
        ));
        // third packet sees 2000 bytes of backlog: 2000 + 1000 > 2500
        assert!(matches!(
            l.offer(Nanos::ZERO, 1000, false, &mut rng),
            LinkOutcome::Dropped(QueueDropCause::Overflow)
        ));
    }

    #[test]
    fn lossy_link_loses_roughly_p() {
        let mut l = mk(LinkProps::lossy(Nanos::ZERO, 0.2));
        let mut rng = derive_rng(4, "l");
        let lost = (0..10_000)
            .filter(|i| matches!(l.offer(Nanos(*i), 100, false, &mut rng), LinkOutcome::Lost))
            .count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn aqm_links_are_never_passive() {
        let passive = mk(LinkProps::clean(Nanos::from_millis(1)));
        assert!(passive.is_passive());
        let mark = mk(LinkProps {
            queue: QueueDisc::aqm_mark(0.25),
            ..LinkProps::clean(Nanos::from_millis(1))
        });
        assert!(!mark.is_passive(), "MarkProb must defeat tunnel collapse");
        let codel = mk(LinkProps {
            queue: QueueDisc::l4s_mark(Nanos::from_millis(1)),
            ..LinkProps::clean(Nanos::from_millis(1))
        });
        assert!(!codel.is_passive(), "CodelMark must defeat tunnel collapse");
    }

    #[test]
    fn codel_bottleneck_marks_backlogged_train() {
        // 1 Mbit/s, 1000-byte packets => 8 ms serialisation each; a
        // back-to-back train exceeds the 1 ms sojourn target from the
        // second packet on.
        let mut l = mk(LinkProps::bottleneck(
            Nanos::ZERO,
            1_000_000,
            QueueDisc::l4s_mark(Nanos::from_millis(1)),
        ));
        let mut rng = derive_rng(6, "l");
        let mut marks = 0;
        for _ in 0..5 {
            match l.offer(Nanos::ZERO, 1000, true, &mut rng) {
                LinkOutcome::Deliver { ce_mark, .. } => marks += usize::from(ce_mark),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(marks, 4, "all but the head-of-line packet are marked");
        // the same train sent not-ECT passes unmarked
        let mut l = mk(LinkProps::bottleneck(
            Nanos::ZERO,
            1_000_000,
            QueueDisc::l4s_mark(Nanos::from_millis(1)),
        ));
        for _ in 0..5 {
            match l.offer(Nanos::ZERO, 1000, false, &mut rng) {
                LinkOutcome::Deliver { ce_mark, .. } => assert!(!ce_mark),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn red_bottleneck_marks_ect_under_load() {
        // Responsive RED (weight 1.0 = instantaneous average) over a wide
        // band: every packet past min_th has a marking chance, and none are
        // dropped because they are ECT.
        let disc = QueueDisc::Red {
            min_th_bytes: 2_000,
            max_th_bytes: 150_000,
            max_p: 0.5,
            weight: 1.0,
            ecn: true,
            limit_bytes: 10_000_000,
        };
        let mut l = mk(LinkProps::bottleneck(Nanos::ZERO, 80_000, disc));
        let mut rng = derive_rng(5, "l");
        let mut marks = 0;
        let mut drops = 0;
        for _ in 0..200 {
            match l.offer(Nanos::ZERO, 1000, true, &mut rng) {
                LinkOutcome::Deliver { ce_mark: true, .. } => marks += 1,
                LinkOutcome::Dropped(_) | LinkOutcome::Lost => drops += 1,
                LinkOutcome::Deliver { .. } => {}
            }
        }
        assert!(marks > 10, "expected CE marks under load, got {marks}");
        assert_eq!(drops, 0, "ECT traffic must be marked, not dropped");
    }
}
