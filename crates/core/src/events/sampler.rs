//! End-to-end trace sampling: keep 1-in-N *logical* traces, selected by
//! a hash of the trace's chunk-invariant identity. This is the engine's
//! only way to retain raw [`TraceRecord`]s: at rate 1 it keeps every
//! one, and at larger populations a rate of N bounds what is kept.
//!
//! The selection predicate [`TraceSampler::selects`] is a pure function
//! of `(vantage_key, trace_index)` — never the chunk, shard, or
//! schedule — so the sampled set is exactly the subset of the
//! campaign's stitched records whose identity hash lands on the sample,
//! byte-for-byte and invariant under shard count (`tests/event_stream.rs`
//! proves this property against a naive one-unit-at-a-time campaign).

use super::{Event, Subscriber};
use crate::trace::TraceRecord;
use ecn_netsim::{derive_seed, LabelBuf};
use std::collections::BTreeMap;

/// Salt for the identity hash: fixed and documented so a given logical
/// trace is sampled (or not) consistently across campaigns and tools.
const SAMPLER_SALT: u64 = 0xec5a_4d91_2015_0e41;

/// The 1-in-N trace sampler. Forks collect the selected (possibly
/// partial, when `target_chunks > 1`) records; [`Subscriber::finish`]
/// stitches chunk partials together and orders the result by
/// `(started_at, vantage_key)`, schedule order breaking ties.
#[derive(Debug, Default)]
pub struct TraceSampler {
    every: usize,
    /// (vantage, trace_index) → chunk → that chunk's partial record.
    partials: BTreeMap<(usize, usize), BTreeMap<usize, TraceRecord>>,
    records: Vec<TraceRecord>,
}

impl TraceSampler {
    /// A sampler keeping one in `every` logical traces (`every <= 1`
    /// keeps all of them).
    pub fn new(every: usize) -> TraceSampler {
        TraceSampler {
            every,
            ..TraceSampler::default()
        }
    }

    /// The identity-hash selection predicate: does a sampler at rate
    /// `1/every` keep the trace `(vantage_key, trace_index)`? Pure in its
    /// arguments — chunk-, shard-, and seed-independent.
    pub fn selects(every: usize, vantage_key: &str, trace_index: usize) -> bool {
        if every <= 1 {
            return true;
        }
        let label = LabelBuf::format(format_args!("sample/{vantage_key}/t{trace_index}"));
        derive_seed(SAMPLER_SALT, label.as_str()).is_multiple_of(every as u64)
    }

    /// The sampled records, available after [`Subscriber::finish`]:
    /// chunk partials merged, ordered by `(started_at, vantage_key)`, with
    /// schedule order breaking ties.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Consume the sampler, yielding the sampled records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl Subscriber for TraceSampler {
    fn fork(&self) -> Self {
        TraceSampler::new(self.every)
    }

    fn on_event(&mut self, event: &Event<'_>) {
        if let Event::TraceVerdict {
            unit,
            trace_index,
            record,
        } = event
        {
            if TraceSampler::selects(self.every, &record.vantage_key, *trace_index) {
                self.partials
                    .entry((unit.vantage, *trace_index))
                    .or_default()
                    .insert(unit.chunk, (*record).clone());
            }
        }
    }

    fn merge(&mut self, other: Self) {
        for (key, chunks) in other.partials {
            self.partials.entry(key).or_default().extend(chunks);
        }
        self.records.extend(other.records);
    }

    fn finish(&mut self) {
        // Stitch: the lowest chunk's record carries the header fields
        // (vantage, batch, started_at), later chunks append their
        // outcomes in chunk order, and the final set sorts by
        // (started_at, vantage_key) — trace_index breaks ties, as a
        // stable sort of schedule-ordered records would.
        let mut merged: Vec<(usize, TraceRecord)> = Vec::with_capacity(self.partials.len());
        for ((_vantage, trace_index), chunks) in std::mem::take(&mut self.partials) {
            let mut iter = chunks.into_values();
            let Some(mut base) = iter.next() else {
                continue;
            };
            for partial in iter {
                base.outcomes.extend(partial.outcomes);
            }
            merged.push((trace_index, base));
        }
        merged.sort_by(|(ai, a), (bi, b)| {
            (a.started_at, a.vantage_key.as_str(), *ai).cmp(&(
                b.started_at,
                b.vantage_key.as_str(),
                *bi,
            ))
        });
        self.records = merged.into_iter().map(|(_, rec)| rec).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_one_keeps_everything() {
        for i in 0..50 {
            assert!(TraceSampler::selects(1, "home1", i));
            assert!(TraceSampler::selects(0, "home1", i));
        }
    }

    #[test]
    fn selection_rate_is_roughly_one_in_n() {
        let keys = ["home1", "home2", "dc-ec2-east", "univ-wired"];
        for n in [2usize, 4, 8] {
            let kept: usize = keys
                .iter()
                .flat_map(|k| (0..250).map(move |i| TraceSampler::selects(n, k, i)))
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
        let a = TraceSampler::selects(4, "home1", 3);
        for _ in 0..10 {
            assert_eq!(TraceSampler::selects(4, "home1", 3), a);
        }
    }
}
