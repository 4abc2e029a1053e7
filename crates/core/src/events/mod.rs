//! What a finished run carries beyond its aggregates, and the writers
//! that turn it into output.
//!
//! The engine returns every observation as data on its
//! [`crate::EngineRun`]; nothing subscribes while it runs.
//!
//! | Field | What it holds |
//! |---|---|
//! | `unit_records` | one [`UnitRecord`] per executed unit, in canonical `(vantage, chunk)` order, built by the unit in this process or shipped home by a worker |
//! | `supervision` | the supervised driver's [`SupervisionLog`]: its clamp, failed attempts and per-worker totals (empty in-process) |
//! | `checkpoints` | the engine's [`CheckpointWrites`], when it wrote any |
//! | `result.traces` | the 1-in-N trace sample of [`crate::EngineConfig::sample_traces`], stitched and in campaign order (empty when the rate is 0) |
//!
//! [`write_metrics`] renders the whole `--metrics` stream from these, and
//! [`crate::EngineConfig::progress`] drives a live stderr meter from the
//! shards and the multi-process parent.
//!
//! ## Determinism
//!
//! Every record and log entry is a deterministic function of (plan,
//! config, seed) in a fault-free run, and each is stored in a canonical
//! order, never in the order the shards finished their units. So the
//! metrics stream is byte-identical for any shard count and, apart from
//! the supervision lines, any process count. The progress meter alone
//! reads the wall clock and the finishing order, which is why it writes
//! to stderr. The stream's one wall-clock value is the summary's
//! `wall_ms`.

mod json;
mod progress;
mod sampler;

pub use json::write_metrics;
pub(crate) use progress::Progress;
pub use sampler::selects;
pub(crate) use sampler::stitch;

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Chunk-invariant identity of one work unit (one vantage's schedule
/// against one target chunk): the key unit records are ordered by.
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

/// What one work unit did: one per unit on [`crate::EngineRun`], and what
/// a worker process ships home for each unit it ran. It is the world's
/// [`ecn_netsim::SimCounters`] keyed by name: drop causes by their stable
/// label (a cause never seen is absent), ECN rewrites by router label,
/// so routers that share a label share a key.
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

/// What the supervised driver (`crate::mp`) did under `processes > 1`.
/// Empty in-process, where nothing is spawned.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisionLog {
    /// `(requested, spawned)` when the requested worker count exceeded
    /// the units left and was clamped: idle workers would pay full
    /// blueprint builds for empty slices.
    pub clamped: Option<(usize, usize)>,
    /// Every failed worker attempt, in `(worker, attempt)` order.
    pub failures: Vec<WorkerFailure>,
    /// `(worker, units, observations)` for each worker slot that
    /// delivered its payload, in worker order.
    pub workers: Vec<(usize, usize, u64)>,
}

/// One failed worker attempt (crash, hang, malformed payload, pipe
/// error). **Nondeterministic by nature**: it follows injected or real
/// subprocess failures, never a fault-free run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Worker slot index.
    pub worker: usize,
    /// The failed attempt (0 = first spawn).
    pub attempt: u32,
    /// Units in the worker's slice.
    pub units: usize,
    /// The failure cause (a rendered [`crate::mp::MpFailure`]).
    pub cause: String,
    /// Whether the supervisor respawned the worker.
    pub will_retry: bool,
}

/// The engine's checkpoint writes (atomic temp+rename; see
/// [`crate::mp::Checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointWrites {
    /// Checkpoint files written.
    pub writes: u64,
    /// Canonical units the last write recorded complete.
    pub completed: usize,
    /// Canonical units in the campaign.
    pub total: usize,
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
    fn escaping_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
