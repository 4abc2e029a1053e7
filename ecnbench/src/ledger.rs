//! The traced replay's ledger: spans recorded around every call into a
//! layer, counts read at the same boundaries, and the per-layer metrics
//! derived from both.
//!
//! A span records its name, start and end (ns since the replay started),
//! the span that was open when it began, the unit it belongs to, and the
//! allocations and simulator events counted between its ends. A span's
//! self time is its duration minus the durations of its children; spans
//! on one thread nest strictly, so the children never overlap.

use ecn_bench::alloc::{allocated_bytes, allocation_count};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `probe.trace`.
    pub name: &'static str,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// `(vantage, chunk)` of the engine unit the span belongs to.
    pub unit: Option<(usize, usize)>,
    /// Allocations made while the span was open (counting allocator only).
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Simulator events dispatched while the span was open, where a
    /// simulator ran.
    pub events: Option<u64>,
}

/// Counts read at span boundaries that belong to no single span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Server observations (traces × targets, summed over chunks).
    pub observations: u64,
    /// Engine units replayed.
    pub units: u64,
    /// DNS queries discovery issued.
    pub queries: u64,
    /// Resident-set growth across the blueprint build, kB.
    pub blueprint_rss_kb: u64,
    /// Datagrams delivered during probing (event tap).
    pub delivered: u64,
    /// Datagrams dropped during probing, every cause (event tap).
    pub dropped: u64,
    /// CE marks applied during probing (event tap).
    pub ce_marked: u64,
    /// Traceroute paths surveyed.
    pub paths: u64,
    /// Bytes of one serialised `WorkerRequest`.
    pub request_bytes: u64,
    /// Bytes of the largest serialised `WorkerPayload`.
    pub payload_bytes_max: u64,
    /// Bytes of the merged aggregates, serialised.
    pub aggregates_bytes: u64,
    /// Bytes of the rendered report.
    pub report_bytes: u64,
}

/// The span recorder. A disabled tracer records nothing and reads no
/// counters, so the untraced replay runs the same calls bare.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Boundary counts (complete only when tracing).
    pub counts: Counts,
}

impl Tracer {
    /// A recorder that is on or off for its whole life.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: Counts::default(),
        }
    }

    /// Whether spans and counts are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, unit: Option<(usize, usize)>) {
        if !self.on {
            return;
        }
        let (allocs, alloc_bytes) = (allocation_count(), allocated_bytes());
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.iter().rev().nth(1).copied(),
            unit,
            allocs,
            alloc_bytes,
            events: None,
        });
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        self.close_with(None);
    }

    /// Close the innermost open span, recording the simulator events
    /// dispatched inside it.
    pub fn close_with(&mut self, events: Option<u64>) {
        if !self.on {
            return;
        }
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let (allocs, alloc_bytes) = (allocation_count(), allocated_bytes());
        let i = self.open.pop().expect("close matches an open span");
        let s = &mut self.spans[i];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = alloc_bytes - s.alloc_bytes;
        s.events = events;
    }

    /// Derive the per-layer metrics the replay alone can give, for units
    /// dealt round-robin over `lanes`.
    pub fn ledger(&self, lanes: usize) -> Ledger {
        let spans = &self.spans;
        let dur: Vec<f64> = spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        let mut self_s = dur.clone();
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                self_s[p] -= dur[i];
            }
        }
        let named = |name: &'static str| {
            spans
                .iter()
                .enumerate()
                .filter(move |(_, s)| s.name == name)
                .map(|(i, _)| i)
        };
        let total = |name| named(name).map(|i| self_s[i]).sum::<f64>();
        let durations_ms = |name| named(name).map(|i| dur[i] * 1e3).collect::<Vec<f64>>();
        let allocs = |name| named(name).map(|i| spans[i].allocs).sum::<u64>() as f64;
        let alloc_bytes = |name| named(name).map(|i| spans[i].alloc_bytes).sum::<u64>() as f64;
        let events = |name| named(name).filter_map(|i| spans[i].events).sum::<u64>() as f64;

        let c = &self.counts;
        let obs = c.observations.max(1) as f64;
        let units = c.units.max(1) as f64;
        let probe_s = total("probe.trace");
        let probe_events = events("probe.trace");
        let lanes = lanes.max(1);
        let mut lane_busy = vec![0.0; lanes];
        for (k, i) in named("engine.unit").enumerate() {
            lane_busy[k % lanes] += dur[i];
        }
        let mean_busy = lane_busy.iter().sum::<f64>() / lane_busy.len() as f64;
        let max_busy = lane_busy.iter().cloned().fold(0.0, f64::max);

        let mut l = Ledger::default();
        let mut put = |name: &str, value: f64| {
            l.layers.insert(name.to_string(), value);
        };
        put("pool.blueprint_build_s", total("pool.blueprint_build"));
        put("pool.world_instantiate_s", total("pool.world_instantiate"));
        put("pool.blueprint_rss_mib", c.blueprint_rss_kb as f64 / 1024.0);
        put("pool.unit_instantiate_s", total("pool.unit_instantiate"));
        put(
            "pool.allocs_per_unit",
            allocs("pool.unit_instantiate") / units,
        );
        put("discovery.s", total("discovery"));
        put("discovery.queries", c.queries as f64);
        put("mp.request_mb", c.request_bytes as f64 / 1e6);
        put("mp.payload_mb_max", c.payload_bytes_max as f64 / 1e6);
        put("mp.payload_encode_s", total("mp.payload_encode"));
        put("mp.payload_decode_s", total("mp.payload_decode"));
        put("mp.worker_setup_s", total("mp.worker_setup"));
        put(
            "mp.partition_imbalance",
            if mean_busy > 0.0 {
                max_busy / mean_busy
            } else {
                1.0
            },
        );
        put("probe.s", probe_s);
        put("probe.us_per_obs", probe_s * 1e6 / obs);
        put("probe.allocs_per_obs", allocs("probe.trace") / obs);
        put(
            "probe.alloc_bytes_per_obs",
            alloc_bytes("probe.trace") / obs,
        );
        put("netsim.events_per_obs", probe_events / obs);
        put("netsim.ns_per_event", probe_s * 1e9 / probe_events.max(1.0));
        put("netsim.delivered_per_obs", c.delivered as f64 / obs);
        put("netsim.dropped_per_obs", c.dropped as f64 / obs);
        put("netsim.ce_marked_per_obs", c.ce_marked as f64 / obs);
        put("traceroute.s", total("traceroute.survey"));
        put("traceroute.paths", c.paths as f64);
        put(
            "traceroute.events_per_path",
            if c.paths > 0 {
                events("traceroute.survey") / c.paths as f64
            } else {
                0.0
            },
        );
        put("reduce.observe_s", total("reduce.observe"));
        put("reduce.merge_s", total("reduce.merge"));
        put("reduce.aggregates_mb", c.aggregates_bytes as f64 / 1e6);
        put("report.render_s", total("report.render"));
        put("report.bytes", c.report_bytes as f64);

        for (prefix, span) in [
            ("pool.unit_instantiate_ms", "pool.unit_instantiate"),
            ("probe.trace_ms", "probe.trace"),
            ("engine.unit_busy_ms", "engine.unit"),
        ] {
            let mut ms = durations_ms(span);
            ms.sort_by(f64::total_cmp);
            let (tail, label) = tail(&ms);
            l.layers.insert(format!("{prefix}_p50"), quantile(&ms, 0.5));
            l.layers.insert(format!("{prefix}_tail"), tail);
            l.notes
                .insert(format!("{prefix}_p50"), format!("p50 of {}", ms.len()));
            l.notes.insert(format!("{prefix}_tail"), label);
        }
        l.side_work_s = [
            "mp.worker_setup",
            "mp.request_encode",
            "mp.payload_encode",
            "mp.payload_decode",
        ]
        .into_iter()
        .map(total)
        .sum();
        l
    }
}

/// Per-layer metrics from one traced replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, serde::Deserialize)]
pub struct Ledger {
    /// Metric name → value, in the units `PER_LAYER` states.
    pub layers: BTreeMap<String, f64>,
    /// Metric name → which percentile of how many samples.
    pub notes: BTreeMap<String, String>,
    /// Seconds the replay spent measuring multi-process costs — work the
    /// untraced replay does not do.
    pub side_work_s: f64,
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99/p90 with at least ten samples beyond it, else the
/// maximum, with a label naming which and of how many samples.
fn tail(sorted: &[f64]) -> (f64, String) {
    let n = sorted.len();
    for (q, label) in [(0.99, "p99"), (0.90, "p90")] {
        if n as f64 * (1.0 - q) >= 10.0 {
            return (quantile(sorted, q), format!("{label} of {n}"));
        }
    }
    (quantile(sorted, 1.0), format!("max of {n}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=104).map(f64::from).collect();
        assert_eq!(tail(&v), (94.0, "p90 of 104".to_string()));
        let v: Vec<f64> = (1..=2730).map(f64::from).collect();
        assert_eq!(tail(&v).1, "p99 of 2730");
        let v: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(tail(&v), (13.0, "max of 13".to_string()));
        assert_eq!(quantile(&v, 0.5), 7.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.open("report.render", None);
        t.open("probe.trace", None);
        std::thread::sleep(std::time::Duration::from_millis(20));
        t.close();
        t.close();
        assert_eq!(t.spans()[1].parent, Some(0));
        let l = t.ledger(1);
        assert!(l.layers["probe.s"] >= 0.020, "{l:?}");
        assert!(l.layers["report.render_s"] < 0.010, "{l:?}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open("probe.trace", None);
        t.close();
        assert!(t.spans().is_empty());
    }
}
