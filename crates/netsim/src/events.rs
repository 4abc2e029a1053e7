//! Per-simulation event counters for the engine's typed event stream.
//!
//! The simulator itself stays observer-agnostic: when a tap is installed
//! ([`crate::sim::Sim::install_event_tap`]), the deliver/drop/ECN-rewrite
//! sites of the forwarding pipeline count into a [`SimCounters`], which
//! the campaign engine drains once per work unit into the unit's record
//! (`ecn-core::events::UnitRecord`). With no tap installed every site is
//! a single `Option` test — no allocation, no label cloning — which is
//! what keeps the disabled path inside the `probe_hot_loop` bound and
//! the `alloc_regression` budgets.
//!
//! Counters use `BTreeMap` keys (stable iteration order) so draining them
//! into an exported stream is deterministic by construction, mirroring
//! the reducer discipline of `ecn-core::reducers`.

use crate::queue::QueueDropCause;
use crate::stats::DropCause;
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// What one simulator observed while a tap was installed: datagram
/// delivery/drop totals, CE marks, and per-router ECN rewrites keyed by
/// the router's human-readable label (the "named hop").
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimCounters {
    /// Datagrams delivered to a matching host agent.
    pub delivered: u64,
    /// Datagrams discarded, by stable cause label.
    pub dropped: BTreeMap<&'static str, u64>,
    /// Datagrams CE-marked by a RED+ECN queue.
    pub ce_marked: u64,
    /// ECN codepoint rewrites (bleaching / legacy-TOS mangling), per
    /// named router hop.
    pub ecn_rewritten: BTreeMap<Arc<str>, u64>,
}

impl SimCounters {
    /// Count one drop.
    pub fn note_drop(&mut self, cause: DropCause) {
        *self.dropped.entry(drop_cause_label(cause)).or_insert(0) += 1;
    }

    /// Count one ECN rewrite at the named hop.
    pub fn note_ecn_rewrite(&mut self, hop: Arc<str>) {
        *self.ecn_rewritten.entry(hop).or_insert(0) += 1;
    }

    /// Total drops across causes.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.values().sum()
    }

    /// Total ECN rewrites across hops.
    pub fn total_ecn_rewritten(&self) -> u64 {
        self.ecn_rewritten.values().sum()
    }

    /// Fold `other` into `self` (commutative, like reducer merges).
    pub fn merge(&mut self, other: &SimCounters) {
        self.delivered += other.delivered;
        self.ce_marked += other.ce_marked;
        for (k, v) in &other.dropped {
            *self.dropped.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.ecn_rewritten {
            *self.ecn_rewritten.entry(k.clone()).or_insert(0) += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_stable() {
        let causes = [
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
        let labels: std::collections::BTreeSet<_> =
            causes.iter().map(|&c| drop_cause_label(c)).collect();
        assert_eq!(labels.len(), causes.len(), "labels must be unique");
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = SimCounters {
            delivered: 3,
            ..SimCounters::default()
        };
        a.note_drop(DropCause::Loss);
        a.note_ecn_rewrite("pe-1".into());
        let mut b = SimCounters {
            delivered: 2,
            ..SimCounters::default()
        };
        b.note_drop(DropCause::Loss);
        b.note_drop(DropCause::Firewall);
        b.note_ecn_rewrite("pe-1".into());
        b.note_ecn_rewrite("core-2".into());

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.delivered, 5);
        assert_eq!(ab.total_dropped(), 3);
        assert_eq!(ab.total_ecn_rewritten(), 3);
        assert_eq!(ab.ecn_rewritten[&Arc::<str>::from("pe-1")], 2);
    }
}
