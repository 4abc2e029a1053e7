//! End-to-end trace sampling: keep 1-in-N *logical* traces, selected by
//! a hash of the trace's chunk-invariant identity. This is the engine's
//! only way to retain raw [`TraceRecord`]s
//! ([`crate::EngineConfig::sample_traces`]): at rate 1 it keeps every
//! one, and at larger populations a rate of N bounds what is kept.
//!
//! The selection predicate [`selects`] is a pure function of
//! `(vantage_key, trace_index)` — never the chunk, shard, or schedule —
//! so the sampled set is exactly the subset of the campaign's stitched
//! records whose identity hash lands on the sample, byte-for-byte and
//! invariant under shard count (`tests/event_stream.rs` proves this
//! property against a naive one-unit-at-a-time campaign).

use super::UnitId;
use crate::trace::TraceRecord;
use ecn_netsim::{derive_seed, LabelBuf};

/// Salt for the identity hash: fixed and documented so a given logical
/// trace is sampled (or not) consistently across campaigns and tools.
const SAMPLER_SALT: u64 = 0xec5a_4d91_2015_0e41;

/// The identity-hash selection predicate: does a sample at rate
/// `1/every` keep the trace `(vantage_key, trace_index)`? Pure in its
/// arguments — chunk-, shard-, and seed-independent. `every <= 1` keeps
/// every trace.
pub fn selects(every: usize, vantage_key: &str, trace_index: usize) -> bool {
    if every <= 1 {
        return true;
    }
    let label = LabelBuf::format(format_args!("sample/{vantage_key}/t{trace_index}"));
    derive_seed(SAMPLER_SALT, label.as_str()).is_multiple_of(every as u64)
}

/// Stitch the sampled chunk partials `(unit, trace_index, record)` into
/// logical traces: the lowest chunk's record carries the header fields
/// (vantage, batch, started_at) and later chunks append their outcomes
/// in chunk order. The traces come back ordered by `(started_at,
/// vantage_key)`, schedule order breaking ties, as a stable sort of
/// schedule-ordered records would leave them.
pub(crate) fn stitch(mut partials: Vec<(UnitId, usize, TraceRecord)>) -> Vec<TraceRecord> {
    partials.sort_by_key(|(unit, trace_index, _)| (unit.vantage, *trace_index, unit.chunk));
    let mut traces: Vec<(usize, usize, TraceRecord)> = Vec::new();
    for (unit, trace_index, record) in partials {
        match traces.last_mut() {
            Some((vantage, index, base)) if (*vantage, *index) == (unit.vantage, trace_index) => {
                base.outcomes.extend(record.outcomes)
            }
            _ => traces.push((unit.vantage, trace_index, record)),
        }
    }
    traces.sort_by(|(_, ai, a), (_, bi, b)| {
        (a.started_at, a.vantage_key.as_str(), *ai).cmp(&(
            b.started_at,
            b.vantage_key.as_str(),
            *bi,
        ))
    });
    traces.into_iter().map(|(_, _, record)| record).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_one_keeps_everything() {
        for i in 0..50 {
            assert!(selects(1, "home1", i));
            assert!(selects(0, "home1", i));
        }
    }

    #[test]
    fn selection_rate_is_roughly_one_in_n() {
        let keys = ["home1", "home2", "dc-ec2-east", "univ-wired"];
        for n in [2usize, 4, 8] {
            let kept: usize = keys
                .iter()
                .flat_map(|k| (0..250).map(move |i| selects(n, k, i)))
                .filter(|&s| s)
                .count();
            let expect = 1000 / n;
            assert!(
                kept > expect / 2 && kept < expect * 2,
                "1/{n}: kept {kept} of 1000 (expected ≈{expect})"
            );
        }
    }

    #[test]
    fn selection_is_identity_pure() {
        // same (key, index) always answers the same, regardless of order
        let a = selects(4, "home1", 3);
        for _ in 0..10 {
            assert_eq!(selects(4, "home1", 3), a);
        }
    }
}
