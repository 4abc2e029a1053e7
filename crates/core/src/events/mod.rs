//! Typed event stream over the campaign engine — the s2n-quic-events
//! pattern (ROADMAP item 4): a zero-cost-when-disabled [`Subscriber`]
//! trait the engine is monomorphized over, plus three built-in
//! subscribers.
//!
//! ## Emission points
//!
//! | Event | Emitted from |
//! |---|---|
//! | [`Event::CampaignStarted`] | `engine::try_run_engine_observed`, once the unit pool is known |
//! | [`Event::ProbeSent`] | `campaign::run_trace_observed`, before each of the four probes |
//! | [`Event::TraceVerdict`] | the engine's unit loop, after the trace record is reduced |
//! | [`Event::SimFlushed`] | the engine's unit loop, draining the netsim tap ([`ecn_netsim::SimCounters`]: datagrams delivered/dropped, CE marks, ECN rewrites at named hops) |
//! | [`Event::UnitFinished`] | the engine's unit loop, after the unit's traceroute slice |
//! | [`Event::ShardProgress`] | each engine shard, after every unit it executes |
//! | [`Event::WorkersClamped`] | the supervised driver (`mp`), when `processes` exceeds the unit count |
//! | [`Event::WorkerFailed`] | the supervised driver, when a worker attempt crashes/hangs/corrupts |
//! | [`Event::UnitRetried`] | the supervised driver, once per unit re-shipped to a respawned worker |
//! | [`Event::WorkerFinished`] | the supervised driver, when a worker slot delivers its payload |
//! | [`Event::CheckpointWritten`] | the supervised driver, after each atomic checkpoint write |
//!
//! The supervision events exist only on the parent's root subscriber in
//! multi-process mode (workers observe their own units internally); the
//! in-process engine never emits them, so single-process metrics streams
//! are unchanged.
//!
//! ## Zero-cost contract
//!
//! `()` implements [`Subscriber`] with [`Subscriber::ENABLED`]` = false`:
//! every emission site is guarded by `if S::ENABLED`, so the disabled
//! path is const-folded away by monomorphization — `try_run_engine` *is*
//! `try_run_engine_observed` with `()`, and the `probe_hot_loop` /
//! `alloc_regression` gates measure exactly that path. The netsim tap is
//! only installed when `S::ENABLED`.
//!
//! ## Determinism guarantee
//!
//! Shards deliver events in work-stealing order, so subscribers follow
//! the reducer discipline ([`crate::reducers`]): accumulate per-unit
//! state keyed by the chunk-invariant unit identity, [`Subscriber::merge`]
//! commutatively, and emit ordered output only in
//! [`Subscriber::finish`]. Every event except [`Event::ShardProgress`]
//! is a deterministic function of (plan, config, seed) — `ShardProgress`
//! depends on the stealing schedule and must never reach a deterministic
//! export (the built-in subscribers only feed it to the stderr progress
//! meter).

mod json;
mod progress;
mod sampler;

pub use json::JsonLinesMetrics;
pub use progress::Progress;
pub use sampler::TraceSampler;

use crate::trace::TraceRecord;
use ecn_netsim::SimCounters;
use std::net::Ipv4Addr;

/// Chunk-invariant identity of one work unit (one vantage's schedule
/// against one target chunk) — the key subscribers accumulate under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnitId {
    /// Vantage index (Table 2 order).
    pub vantage: usize,
    /// Target-chunk index within the vantage.
    pub chunk: usize,
}

/// Which of the four §3 measurements a probe belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// NTP over not-ECT UDP.
    UdpPlain,
    /// NTP over ECT(0)-marked UDP.
    UdpEct,
    /// HTTP over TCP without ECN.
    TcpPlain,
    /// HTTP over TCP with an ECN-setup SYN.
    TcpEcn,
}

impl ProbeKind {
    /// Stable schema label (the JSON-lines `probes` object keys).
    pub fn label(self) -> &'static str {
        match self {
            ProbeKind::UdpPlain => "udp_plain",
            ProbeKind::UdpEct => "udp_ect",
            ProbeKind::TcpPlain => "tcp_plain",
            ProbeKind::TcpEcn => "tcp_ecn",
        }
    }

    /// Dense index (0..4) for array-backed accumulators.
    pub fn index(self) -> usize {
        match self {
            ProbeKind::UdpPlain => 0,
            ProbeKind::UdpEct => 1,
            ProbeKind::TcpPlain => 2,
            ProbeKind::TcpEcn => 3,
        }
    }

    /// All four kinds, in schema order.
    pub const ALL: [ProbeKind; 4] = [
        ProbeKind::UdpPlain,
        ProbeKind::UdpEct,
        ProbeKind::TcpPlain,
        ProbeKind::TcpEcn,
    ];
}

/// One typed engine event. Borrowed payloads keep emission allocation-free;
/// subscribers clone only what they retain.
#[derive(Debug)]
pub enum Event<'a> {
    /// The campaign's shape is known; emitted once, on the root
    /// subscriber, before any shard starts.
    CampaignStarted {
        /// Vantage count.
        vantages: usize,
        /// Work units in the pool (vantages × target chunks).
        units: usize,
        /// Discovered probe targets.
        targets: usize,
    },
    /// A probe is about to be sent (four per server per trace).
    ProbeSent {
        /// Emitting unit.
        unit: UnitId,
        /// Target server.
        server: Ipv4Addr,
        /// Which of the four measurements.
        kind: ProbeKind,
    },
    /// A trace finished and its record was reduced. `record` holds this
    /// unit's chunk of the logical trace (all targets when
    /// `target_chunks = 1`).
    TraceVerdict {
        /// Emitting unit.
        unit: UnitId,
        /// Index of the trace within the vantage's schedule.
        trace_index: usize,
        /// The finished (partial) record.
        record: &'a TraceRecord,
    },
    /// The unit's simulator tap was drained: datagram delivery/drop
    /// totals, CE marks, and ECN rewrites at named hops.
    SimFlushed {
        /// Emitting unit.
        unit: UnitId,
        /// Counters since the unit's world was instantiated.
        counters: &'a SimCounters,
    },
    /// A work unit ran to completion (emitted after its traceroute
    /// slice, following `SimFlushed`).
    UnitFinished {
        /// The finished unit.
        unit: UnitId,
        /// Traces the unit executed.
        traces: usize,
        /// Server observations the unit produced (traces × chunk targets).
        observations: usize,
    },
    /// A shard finished another unit. **Nondeterministic** — depends on
    /// the work-stealing schedule; excluded from deterministic exports.
    ShardProgress {
        /// Shard index.
        shard: usize,
        /// Units this shard has completed so far.
        units_done: usize,
    },
    /// The supervised driver clamped an over-provisioned worker count to
    /// the remaining unit-pool size (spawning idle workers would pay full
    /// blueprint builds for empty slices).
    WorkersClamped {
        /// Worker processes requested.
        requested: usize,
        /// Worker processes actually spawned.
        spawned: usize,
    },
    /// A worker attempt failed (crash, hang, malformed payload, pipe
    /// error). **Nondeterministic by nature** — follows injected or real
    /// subprocess failures, never a fault-free run.
    WorkerFailed {
        /// Worker slot index.
        worker: usize,
        /// The failed attempt (0 = first spawn).
        attempt: u32,
        /// Units in the worker's slice.
        units: usize,
        /// Human-readable failure cause (a rendered
        /// [`crate::mp::MpFailure`]).
        cause: &'a str,
        /// Whether the supervisor will respawn the worker.
        will_retry: bool,
    },
    /// A unit is being re-shipped to a respawned worker (one per unit in
    /// the failed worker's slice, following [`Event::WorkerFailed`]).
    UnitRetried {
        /// The unit being retried.
        unit: UnitId,
        /// The worker slot retrying it.
        worker: usize,
        /// The attempt about to run it (1 = first retry).
        attempt: u32,
    },
    /// A worker slot delivered its payload (possibly after retries).
    WorkerFinished {
        /// Worker slot index.
        worker: usize,
        /// Units the worker executed.
        units: usize,
        /// Server observations the worker produced.
        observations: u64,
    },
    /// The supervised driver persisted a checkpoint (atomic temp+rename;
    /// see [`crate::mp::Checkpoint`]).
    CheckpointWritten {
        /// Canonical units recorded complete.
        completed_units: usize,
        /// Total units in the campaign.
        total_units: usize,
    },
}

/// A typed observer of engine events.
///
/// The engine is generic over `S: Subscriber` and guards every emission
/// with `if S::ENABLED`, so a disabled subscriber costs nothing. Engine
/// lifecycle: the *root* instance receives [`Event::CampaignStarted`],
/// each shard runs a [`Subscriber::fork`], forks are
/// [`Subscriber::merge`]d back into the root after the shards join, and
/// [`Subscriber::finish`] runs once on the root. For deterministic
/// output, accumulate keyed by [`UnitId`] and order only in `finish`
/// (see the module docs).
pub trait Subscriber: Send + Sized {
    /// Whether the engine should emit at all. `false` const-folds every
    /// emission site away.
    const ENABLED: bool = true;

    /// A per-shard instance. Forks observe disjoint unit subsets; shared
    /// live state (e.g. a progress meter) goes behind an `Arc`.
    fn fork(&self) -> Self;

    /// Observe one event.
    fn on_event(&mut self, event: &Event<'_>);

    /// Fold a fork back into the root (must be commutative across forks,
    /// like [`crate::reducers::Reduce::merge`]).
    fn merge(&mut self, other: Self);

    /// The campaign is over; flush ordered output. Runs once, on the
    /// root, after all forks are merged.
    fn finish(&mut self) {}
}

/// The no-op subscriber: compiles to nothing (`ENABLED = false`).
impl Subscriber for () {
    const ENABLED: bool = false;
    fn fork(&self) -> Self {}
    fn on_event(&mut self, _event: &Event<'_>) {}
    fn merge(&mut self, _other: Self) {}
}

/// Runtime-optional subscriber: `None` observes nothing (but, unlike
/// `()`, still pays the emission calls — the choice is per-run, not
/// per-monomorphization).
impl<S: Subscriber> Subscriber for Option<S> {
    const ENABLED: bool = S::ENABLED;
    fn fork(&self) -> Self {
        self.as_ref().map(S::fork)
    }
    fn on_event(&mut self, event: &Event<'_>) {
        if let Some(s) = self {
            s.on_event(event);
        }
    }
    fn merge(&mut self, other: Self) {
        if let (Some(a), Some(b)) = (self.as_mut(), other) {
            a.merge(b);
        }
    }
    fn finish(&mut self) {
        if let Some(s) = self {
            s.finish();
        }
    }
}

/// Composition: both subscribers observe every event. Nest pairs for
/// wider fan-out.
impl<A: Subscriber, B: Subscriber> Subscriber for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    fn fork(&self) -> Self {
        (self.0.fork(), self.1.fork())
    }
    fn on_event(&mut self, event: &Event<'_>) {
        self.0.on_event(event);
        self.1.on_event(event);
    }
    fn merge(&mut self, other: Self) {
        self.0.merge(other.0);
        self.1.merge(other.1);
    }
    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }
}

/// Minimal JSON string escaping for labels and names in hand-built
/// JSON-lines output (quotes, backslashes, control characters).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_subscriber_is_disabled() {
        // `ENABLED` is a const by design — pinning its value per
        // composition shape is exactly the point of this test.
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(!<() as Subscriber>::ENABLED);
            assert!(<Option<TraceSampler> as Subscriber>::ENABLED);
            assert!(<((), Option<TraceSampler>) as Subscriber>::ENABLED);
            assert!(!<((), ()) as Subscriber>::ENABLED);
        }
    }

    #[test]
    fn probe_kind_schema_is_stable() {
        let labels: Vec<_> = ProbeKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["udp_plain", "udp_ect", "tcp_plain", "tcp_ecn"]);
        for (i, k) in ProbeKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
