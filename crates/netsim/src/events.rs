//! The simulator's packet counters.
//!
//! Every [`crate::sim::Sim`] holds one always-on [`SimCounters`]: each
//! originate, forward, deliver, drop, CE-mark, ICMP-error and
//! ECN-rewrite site of the forwarding pipeline increments one counter.
//! A drop is an indexed increment by [`DropCause`]; a rewrite bumps its
//! router's entry in a small ordered map keyed by [`NodeId`] — no
//! hashing and no label cloning per packet.
//!
//! The counters are ground truth, *not* visible to the measurement
//! application: the prober infers everything through packets, like the
//! real study. Tests read them through [`crate::sim::Sim::counters`];
//! the campaign engine drains them once per work unit
//! ([`crate::sim::Sim::drain_event_counters`]) into the unit's record
//! (`ecn-core::events::UnitRecord`), resolving each rewriting router to
//! its label there. Both maps iterate in key order, so that record is
//! deterministic by construction, mirroring the reducer discipline of
//! `ecn-core::reducers`.

use crate::link::NodeId;
use crate::queue::QueueDropCause;
use std::collections::BTreeMap;

/// Why the simulator discarded a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Lost on the wire (loss model).
    Loss,
    /// Queue drop.
    Queue(QueueDropCause),
    /// Firewall rule.
    Firewall,
    /// TTL expired at a router.
    TtlExpired,
    /// No route to destination.
    NoRoute,
    /// TOS-sensitive router dropped a marked packet.
    PolicyTos,
    /// Arrived at a host whose address does not match.
    HostMismatch,
}

impl DropCause {
    /// Every cause, in counter-index order.
    const ALL: [DropCause; 9] = [
        DropCause::Loss,
        DropCause::Queue(QueueDropCause::Overflow),
        DropCause::Queue(QueueDropCause::RedEarly),
        DropCause::Queue(QueueDropCause::RedForced),
        DropCause::Firewall,
        DropCause::TtlExpired,
        DropCause::NoRoute,
        DropCause::PolicyTos,
        DropCause::HostMismatch,
    ];

    /// This cause's position in [`Self::ALL`].
    fn index(self) -> usize {
        match self {
            DropCause::Loss => 0,
            DropCause::Queue(QueueDropCause::Overflow) => 1,
            DropCause::Queue(QueueDropCause::RedEarly) => 2,
            DropCause::Queue(QueueDropCause::RedForced) => 3,
            DropCause::Firewall => 4,
            DropCause::TtlExpired => 5,
            DropCause::NoRoute => 6,
            DropCause::PolicyTos => 7,
            DropCause::HostMismatch => 8,
        }
    }
}

/// Stable, schema-facing label for a drop cause (the JSON-lines metrics
/// export keys its `dropped` object with these).
pub fn drop_cause_label(cause: DropCause) -> &'static str {
    match cause {
        DropCause::Loss => "loss",
        DropCause::Queue(QueueDropCause::Overflow) => "queue-overflow",
        DropCause::Queue(QueueDropCause::RedEarly) => "queue-red-early",
        DropCause::Queue(QueueDropCause::RedForced) => "queue-red-forced",
        DropCause::Firewall => "firewall",
        DropCause::TtlExpired => "ttl-expired",
        DropCause::NoRoute => "no-route",
        DropCause::PolicyTos => "policy-tos",
        DropCause::HostMismatch => "host-mismatch",
    }
}

/// What one simulator counted since it was stamped or last drained.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimCounters {
    /// Datagrams delivered to a matching host agent.
    pub delivered: u64,
    /// Link transmissions (per hop; a tunnelled chain counts every hop
    /// it skips).
    pub forwarded: u64,
    /// Datagrams hosts sent onto their access link.
    pub originated: u64,
    /// Datagrams CE-marked by a RED+ECN queue.
    pub ce_marked: u64,
    /// ICMP time-exceeded messages generated.
    pub icmp_time_exceeded: u64,
    /// ICMP destination-unreachable messages generated.
    pub icmp_dest_unreachable: u64,
    /// Datagrams discarded, indexed like `DropCause::ALL`.
    dropped: [u64; DropCause::ALL.len()],
    /// ECN codepoint rewrites (bleaching / legacy-TOS mangling), per
    /// router.
    pub ecn_rewritten: BTreeMap<NodeId, u64>,
}

impl SimCounters {
    /// Count one drop.
    pub(crate) fn note_drop(&mut self, cause: DropCause) {
        self.dropped[cause.index()] += 1;
    }

    /// Count one ECN rewrite at router `node`.
    pub(crate) fn note_ecn_rewrite(&mut self, node: NodeId) {
        *self.ecn_rewritten.entry(node).or_insert(0) += 1;
    }

    /// Drops for one cause.
    pub fn dropped(&self, cause: DropCause) -> u64 {
        self.dropped[cause.index()]
    }

    /// Every cause with its drop count (zero included), in declaration
    /// order.
    pub fn dropped_by_cause(&self) -> impl Iterator<Item = (DropCause, u64)> + '_ {
        DropCause::ALL.into_iter().zip(self.dropped)
    }

    /// Total drops across causes.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Total ECN rewrites across routers.
    pub fn total_ecn_rewritten(&self) -> u64 {
        self.ecn_rewritten.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_stable() {
        let labels: std::collections::BTreeSet<_> = DropCause::ALL
            .iter()
            .map(|&c| drop_cause_label(c))
            .collect();
        assert_eq!(labels.len(), DropCause::ALL.len(), "labels must be unique");
        for (i, cause) in DropCause::ALL.into_iter().enumerate() {
            assert_eq!(cause.index(), i, "{cause:?} indexes its own counter");
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut s = SimCounters::default();
        s.note_drop(DropCause::Loss);
        s.note_drop(DropCause::Loss);
        s.note_drop(DropCause::Firewall);
        assert_eq!(s.dropped(DropCause::Loss), 2);
        assert_eq!(s.dropped(DropCause::Firewall), 1);
        assert_eq!(s.dropped(DropCause::NoRoute), 0);
        assert_eq!(s.total_dropped(), 3);
        let nonzero: Vec<_> = s.dropped_by_cause().filter(|&(_, n)| n > 0).collect();
        assert_eq!(
            nonzero,
            [(DropCause::Loss, 2), (DropCause::Firewall, 1)],
            "causes come out in index order"
        );
        s.note_ecn_rewrite(NodeId(4));
        s.note_ecn_rewrite(NodeId(5));
        s.note_ecn_rewrite(NodeId(5));
        assert_eq!(s.ecn_rewritten[&NodeId(5)], 2);
        assert_eq!(s.total_ecn_rewritten(), 3);
    }
}
