//! Typed event stream over the campaign engine — the s2n-quic-events
//! pattern (ROADMAP item 4): a zero-cost-when-disabled [`Subscriber`]
//! trait the engine is monomorphized over, plus three built-in
//! subscribers.
//!
//! ## Emission points
//!
//! | Event | Emitted from |
//! |---|---|
//! | [`Event::CampaignStarted`] | `engine::try_run_engine_observed`, once the remaining unit pool is known |
//! | [`Event::TraceVerdict`] | the engine's unit loop, after the trace record is reduced |
//! | [`Event::UnitFinished`] | the engine's unit loop, after the unit's traceroute slice, carrying its [`UnitRecord`]; under `processes > 1`, the parent re-emits each worker's shipped records |
//! | [`Event::WorkersClamped`] | the supervised driver (`mp`), when `processes` exceeds the unit count |
//! | [`Event::WorkerFailed`] | the supervised driver, when a worker attempt crashes/hangs/corrupts |
//! | [`Event::WorkerFinished`] | the supervised driver, when a worker slot delivers its payload (its units' [`Event::UnitFinished`] follow) |
//! | [`Event::CheckpointWritten`] | the engine, after each atomic checkpoint write |
//!
//! Every unit reaches the subscriber once, as one [`Event::UnitFinished`],
//! whichever process ran it: a worker collects the records its units emit
//! ([`crate::mp::WorkerCounters`]) and ships them home with its payload.
//! So the per-unit stream is the same under any `processes`; the
//! supervision events are the only addition, and the in-process engine
//! never emits them. [`Event::TraceVerdict`] borrows a raw record and so
//! never leaves the process that ran the unit.
//!
//! ## Zero-cost contract
//!
//! `()` implements [`Subscriber`] with [`Subscriber::ENABLED`]` = false`:
//! every emission site is guarded by `if S::ENABLED`, so the disabled
//! path is const-folded away by monomorphization — `try_run_engine` *is*
//! `try_run_engine_observed` with `()`. Nothing below `engine::run_unit`
//! takes a subscriber: the probe loop (`campaign::run_trace`) emits
//! nothing. The simulator counts its packets whether or not anyone
//! observes (one increment per counting site, see
//! [`ecn_netsim::SimCounters`]); only building the [`UnitRecord`] from
//! those counters waits for `S::ENABLED`.
//!
//! ## Determinism guarantee
//!
//! Shards deliver events in the order they finish units, so subscribers
//! follow the reducer discipline ([`crate::reducers`]): accumulate
//! per-unit state keyed by the chunk-invariant unit identity,
//! [`Subscriber::merge`] commutatively, and emit ordered output only in
//! [`Subscriber::finish`]. Every event is a deterministic function of
//! (plan, config, seed) in a fault-free run; only its arrival order
//! depends on which shard took which unit.

mod json;
mod progress;
mod sampler;

pub use json::JsonLinesMetrics;
pub use progress::Progress;
pub use sampler::TraceSampler;

use crate::trace::TraceRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Chunk-invariant identity of one work unit (one vantage's schedule
/// against one target chunk) — the key subscribers accumulate under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct UnitId {
    /// Vantage index (Table 2 order).
    pub vantage: usize,
    /// Target-chunk index within the vantage.
    pub chunk: usize,
}

impl UnitId {
    /// The unit at canonical index `index` with `chunks` target chunks
    /// per vantage. The canonical order is vantage-major, chunk-minor;
    /// resume skip lists and the multi-process partition (`crate::mp`)
    /// are both defined over these indices.
    pub(crate) fn at(index: usize, chunks: usize) -> UnitId {
        UnitId {
            vantage: index / chunks,
            chunk: index % chunks,
        }
    }
}

/// What one work unit did: the record [`Event::UnitFinished`] carries,
/// and what a worker process ships home for each unit it ran. It is the
/// world's [`ecn_netsim::SimCounters`] keyed by name: drop causes by
/// their stable label (a cause never seen is absent), ECN rewrites by
/// router label, so routers that share a label share a key.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UnitRecord {
    /// Traces the unit executed.
    pub traces: u64,
    /// Server observations the unit produced (traces × chunk targets).
    /// Each one is four probes: `run_trace` sends all four §3
    /// measurements to every target of every trace.
    pub observations: u64,
    /// Datagrams delivered end-to-end.
    pub delivered: u64,
    /// Datagrams dropped, by cause label.
    pub dropped: BTreeMap<String, u64>,
    /// CE congestion marks applied.
    pub ce_marked: u64,
    /// ECN rewrites (bleaching, legacy-TOS mangling), by named hop.
    pub ecn_rewritten: BTreeMap<String, u64>,
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
    /// A work unit ran to completion (emitted after its traceroute
    /// slice), in this process or in a worker process.
    UnitFinished {
        /// The finished unit.
        unit: UnitId,
        /// What it did: traces, observations and its simulator's
        /// delivery, drop, CE-mark and ECN-rewrite counters.
        record: &'a UnitRecord,
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
    /// A worker slot delivered its payload (possibly after retries). One
    /// [`Event::UnitFinished`] per unit it shipped follows.
    WorkerFinished {
        /// Worker slot index.
        worker: usize,
        /// Units the worker executed.
        units: usize,
        /// Server observations across those units.
        observations: u64,
    },
    /// The engine persisted a checkpoint (atomic temp+rename; see
    /// [`crate::mp::Checkpoint`]).
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
/// each in-process shard runs a [`Subscriber::fork`], forks are
/// [`Subscriber::merge`]d back into the root after the shards join, and
/// [`Subscriber::finish`] runs once on the root. Under `processes > 1`
/// the root receives the supervision events and every worker's
/// [`Event::UnitFinished`] records directly. For deterministic
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
    fn escaping_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
