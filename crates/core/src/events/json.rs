//! JSON-lines metrics export: periodic counter snapshots plus terminal
//! per-unit records, written to any `io::Write` sink.
//!
//! ## Schema (one JSON object per line)
//!
//! ```text
//! {"type":"campaign","scenario":S,"seed":N,"vantages":V,"units":U,"targets":T}
//! {"type":"unit","vantage":v,"chunk":c,"traces":t,"observations":o,
//!  "probes":{"tcp_ecn":o,"tcp_plain":o,"udp_ect":o,"udp_plain":o},
//!  "delivered":..,"dropped":{<cause>:n,..},"ce_marked":..,
//!  "ecn_rewritten":{<hop label>:n,..}}                 // one per unit
//! {"type":"snapshot","units_done":k,"traces":..,"observations":..,
//!  "probes_sent":..,"delivered":..,"dropped_total":..,"ce_marked":..,
//!  "ecn_rewritten_total":..}                           // every K units
//! {"type":"summary","units":..,"traces":..,"observations":..,
//!  "probes_sent":..,"delivered":..,"dropped_total":..,"ce_marked":..,
//!  "ecn_rewritten_total":..,"wall_ms":..}              // last line
//! ```
//!
//! Every line derives from the [`UnitRecord`]s of
//! [`Event::UnitFinished`]. `run_trace` sends all four §3 probes to every
//! target of every trace, so each per-kind `probes` count is the unit's
//! `observations` and `probes_sent` is four times the observations.
//!
//! Unit records appear in canonical `(vantage, chunk)` order and
//! snapshots are synthesized between them every `snapshot_every` units,
//! so the stream is **byte-identical for any shard and process count** —
//! the one exception is the summary's `wall_ms` field, the stream's only
//! wall-clock value (tests normalize it; everything else is a pure
//! function of the scenario).
//!
//! ## Supervision lines
//!
//! Under `processes > 1` the parent-side subscriber also sees worker
//! lifecycle events; those surface as extra typed lines between the
//! header and the unit records, **emitted only when present** so
//! single-process streams are byte-identical to earlier schema versions.
//! A checkpoint line appears whenever a checkpoint was written, at any
//! process count:
//!
//! ```text
//! {"type":"workers_clamped","requested":8,"spawned":1}
//! {"type":"worker_failed","worker":1,"attempt":0,"units":3,
//!  "will_retry":true,"cause":"..."}                    // per failed attempt
//! {"type":"worker","worker":0,"units":7,"observations":N}  // per worker slot
//! {"type":"retries","unit_retries":3}                  // when any unit retried
//! {"type":"checkpoint","writes":4,"completed":13,"total":13}
//! ```
//!
//! Failure lines are sorted by `(worker, attempt)` and worker lines by
//! worker index, so the stream stays deterministic for a fixed fault
//! schedule.

use super::{json_escape, Event, Subscriber, UnitId, UnitRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::time::Instant;

/// The four §3 probes, as the unit line's `probes` object names them.
const PROBE_LABELS: [&str; 4] = ["udp_plain", "udp_ect", "tcp_plain", "tcp_ecn"];

/// The JSON-lines metrics subscriber. Forks keep each unit's
/// [`UnitRecord`] keyed by [`UnitId`]; the root writes the whole ordered
/// stream in [`Subscriber::finish`], which is what makes the output
/// deterministic whichever shard runs which unit (see the module docs).
#[derive(Debug)]
pub struct JsonLinesMetrics<W: Write + Send> {
    /// Only the root holds the sink; forks carry `None`.
    writer: Option<W>,
    scenario: String,
    seed: u64,
    snapshot_every: usize,
    started: Instant,
    shape: Option<(usize, usize, usize)>, // vantages, units, targets
    units: BTreeMap<UnitId, UnitRecord>,
    // supervision records (multi-process mode; all empty in-process,
    // apart from `checkpoints`)
    clamped: Option<(usize, usize)>,        // requested, spawned
    workers: BTreeMap<usize, (usize, u64)>, // worker -> (units, observations)
    failures: Vec<FailureRec>,
    unit_retries: u64,
    checkpoints: Option<(u64, usize, usize)>, // writes, completed, total
    err: Option<io::Error>,
}

/// One failed worker attempt, as observed on the root subscriber.
#[derive(Debug, Clone)]
struct FailureRec {
    worker: usize,
    attempt: u32,
    units: usize,
    cause: String,
    will_retry: bool,
}

impl<W: Write + Send> JsonLinesMetrics<W> {
    /// A metrics exporter writing to `writer`, with a default header
    /// identity and a snapshot every 10 units.
    pub fn new(writer: W) -> JsonLinesMetrics<W> {
        JsonLinesMetrics {
            writer: Some(writer),
            scenario: "campaign".into(),
            seed: 0,
            snapshot_every: 10,
            started: Instant::now(),
            shape: None,
            units: BTreeMap::new(),
            clamped: None,
            workers: BTreeMap::new(),
            failures: Vec::new(),
            unit_retries: 0,
            checkpoints: None,
            err: None,
        }
    }

    /// Set the header identity (`scenario`/`seed` fields of the
    /// `campaign` line).
    pub fn with_header(mut self, scenario: &str, seed: u64) -> JsonLinesMetrics<W> {
        self.scenario = scenario.to_string();
        self.seed = seed;
        self
    }

    /// Snapshot cadence in units (0 disables snapshots).
    pub fn snapshot_every(mut self, units: usize) -> JsonLinesMetrics<W> {
        self.snapshot_every = units;
        self
    }

    /// Reclaim the sink after [`Subscriber::finish`] (e.g. to append
    /// sampled trace records to the same file). Fails with the recorded
    /// write error if flushing failed.
    pub fn into_writer(mut self) -> io::Result<W> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.writer
            .take()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fork holds no writer"))
    }

    fn write_line(&mut self, line: &str) {
        if self.err.is_some() {
            return;
        }
        if let Some(w) = &mut self.writer {
            if let Err(e) = w
                .write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
            {
                self.err = Some(e);
            }
        }
    }
}

/// Render a `{"label":count,...}` object from an ordered map.
fn counter_object<K: AsRef<str>>(map: &BTreeMap<K, u64>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(k.as_ref()), v);
    }
    out.push('}');
    out
}

/// Cumulative totals used by snapshot and summary lines.
#[derive(Default)]
struct Totals {
    traces: u64,
    observations: u64,
    delivered: u64,
    dropped: u64,
    ce_marked: u64,
    ecn_rewritten: u64,
}

impl Totals {
    fn add(&mut self, rec: &UnitRecord) {
        self.traces += rec.traces;
        self.observations += rec.observations;
        self.delivered += rec.delivered;
        self.dropped += rec.dropped.values().sum::<u64>();
        self.ce_marked += rec.ce_marked;
        self.ecn_rewritten += rec.ecn_rewritten.values().sum::<u64>();
    }

    fn fields(&self) -> String {
        format!(
            "\"traces\":{},\"observations\":{},\"probes_sent\":{},\"delivered\":{},\
             \"dropped_total\":{},\"ce_marked\":{},\"ecn_rewritten_total\":{}",
            self.traces,
            self.observations,
            PROBE_LABELS.len() as u64 * self.observations,
            self.delivered,
            self.dropped,
            self.ce_marked,
            self.ecn_rewritten,
        )
    }
}

impl<W: Write + Send> Subscriber for JsonLinesMetrics<W> {
    fn fork(&self) -> Self {
        JsonLinesMetrics {
            writer: None,
            scenario: String::new(),
            seed: 0,
            snapshot_every: 0,
            started: self.started,
            shape: None,
            units: BTreeMap::new(),
            clamped: None,
            workers: BTreeMap::new(),
            failures: Vec::new(),
            unit_retries: 0,
            checkpoints: None,
            err: None,
        }
    }

    fn on_event(&mut self, event: &Event<'_>) {
        match event {
            Event::CampaignStarted {
                vantages,
                units,
                targets,
            } => self.shape = Some((*vantages, *units, *targets)),
            Event::UnitFinished { unit, record } => {
                self.units.insert(*unit, (*record).clone());
            }
            Event::WorkersClamped { requested, spawned } => {
                self.clamped = Some((*requested, *spawned));
            }
            Event::WorkerFailed {
                worker,
                attempt,
                units,
                cause,
                will_retry,
            } => self.failures.push(FailureRec {
                worker: *worker,
                attempt: *attempt,
                units: *units,
                cause: cause.to_string(),
                will_retry: *will_retry,
            }),
            Event::UnitRetried { .. } => self.unit_retries += 1,
            Event::WorkerFinished {
                worker,
                units,
                observations,
            } => {
                let rec = self.workers.entry(*worker).or_default();
                rec.0 += units;
                rec.1 += observations;
            }
            Event::CheckpointWritten {
                completed_units,
                total_units,
            } => {
                let (writes, completed, total) = self.checkpoints.get_or_insert((0, 0, 0));
                *writes += 1;
                *completed = *completed_units;
                *total = *total_units;
            }
            Event::TraceVerdict { .. } => {}
        }
    }

    fn merge(&mut self, other: Self) {
        // forks observe disjoint units, and every unit finishes once
        self.units.extend(other.units);
        self.shape = self.shape.or(other.shape);
        self.clamped = self.clamped.or(other.clamped);
        for (worker, (units, observations)) in other.workers {
            let rec = self.workers.entry(worker).or_default();
            rec.0 += units;
            rec.1 += observations;
        }
        self.failures.extend(other.failures);
        self.unit_retries += other.unit_retries;
        if let Some((w, c, t)) = other.checkpoints {
            let (writes, completed, total) = self.checkpoints.get_or_insert((0, 0, 0));
            *writes += w;
            *completed = c;
            *total = t;
        }
        if self.err.is_none() {
            self.err = other.err;
        }
    }

    fn finish(&mut self) {
        let (vantages, unit_count, targets) = self.shape.unwrap_or((0, 0, 0));
        let header = format!(
            "{{\"type\":\"campaign\",\"scenario\":\"{}\",\"seed\":{},\"vantages\":{},\
             \"units\":{},\"targets\":{}}}",
            json_escape(&self.scenario),
            self.seed,
            vantages,
            unit_count,
            targets,
        );
        self.write_line(&header);

        // supervision lines: only present in multi-process mode, so the
        // single-process stream stays byte-identical to older schemas
        if let Some((requested, spawned)) = self.clamped.take() {
            self.write_line(&format!(
                "{{\"type\":\"workers_clamped\",\"requested\":{requested},\"spawned\":{spawned}}}"
            ));
        }
        let mut failures = std::mem::take(&mut self.failures);
        failures.sort_by_key(|f| (f.worker, f.attempt));
        for f in failures {
            self.write_line(&format!(
                "{{\"type\":\"worker_failed\",\"worker\":{},\"attempt\":{},\"units\":{},\
                 \"will_retry\":{},\"cause\":\"{}\"}}",
                f.worker,
                f.attempt,
                f.units,
                f.will_retry,
                json_escape(&f.cause),
            ));
        }
        for (worker, (w_units, observations)) in std::mem::take(&mut self.workers) {
            self.write_line(&format!(
                "{{\"type\":\"worker\",\"worker\":{worker},\"units\":{w_units},\
                 \"observations\":{observations}}}"
            ));
        }
        if self.unit_retries > 0 {
            self.write_line(&format!(
                "{{\"type\":\"retries\",\"unit_retries\":{}}}",
                self.unit_retries
            ));
        }
        if let Some((writes, completed, total)) = self.checkpoints.take() {
            self.write_line(&format!(
                "{{\"type\":\"checkpoint\",\"writes\":{writes},\"completed\":{completed},\
                 \"total\":{total}}}"
            ));
        }

        let units = std::mem::take(&mut self.units);
        let mut totals = Totals::default();
        for (done, (id, rec)) in units.iter().enumerate() {
            let probes: BTreeMap<&str, u64> = PROBE_LABELS
                .iter()
                .map(|&label| (label, rec.observations))
                .collect();
            let line = format!(
                "{{\"type\":\"unit\",\"vantage\":{},\"chunk\":{},\"traces\":{},\
                 \"observations\":{},\"probes\":{},\"delivered\":{},\"dropped\":{},\
                 \"ce_marked\":{},\"ecn_rewritten\":{}}}",
                id.vantage,
                id.chunk,
                rec.traces,
                rec.observations,
                counter_object(&probes),
                rec.delivered,
                counter_object(&rec.dropped),
                rec.ce_marked,
                counter_object(&rec.ecn_rewritten),
            );
            self.write_line(&line);
            totals.add(rec);
            let done = done + 1;
            if self.snapshot_every > 0 && done % self.snapshot_every == 0 && done < units.len() {
                let snap = format!(
                    "{{\"type\":\"snapshot\",\"units_done\":{},{}}}",
                    done,
                    totals.fields(),
                );
                self.write_line(&snap);
            }
        }
        let summary = format!(
            "{{\"type\":\"summary\",\"units\":{},{},\"wall_ms\":{:.3}}}",
            units.len(),
            totals.fields(),
            self.started.elapsed().as_secs_f64() * 1e3,
        );
        self.write_line(&summary);
        if self.err.is_none() {
            if let Some(w) = &mut self.writer {
                if let Err(e) = w.flush() {
                    self.err = Some(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_object_renders_sorted_pairs() {
        let mut m: BTreeMap<&str, u64> = BTreeMap::new();
        assert_eq!(counter_object(&m), "{}");
        m.insert("loss", 2);
        m.insert("firewall", 1);
        assert_eq!(counter_object(&m), "{\"firewall\":1,\"loss\":2}");
    }

    #[test]
    fn finish_writes_header_units_and_summary() {
        let mut sub = JsonLinesMetrics::new(Vec::new())
            .with_header("t", 7)
            .snapshot_every(1);
        sub.on_event(&Event::CampaignStarted {
            vantages: 1,
            units: 2,
            targets: 3,
        });
        let record = UnitRecord {
            traces: 1,
            observations: 3,
            ..UnitRecord::default()
        };
        for chunk in [1, 0] {
            // out-of-order arrival must not matter
            let unit = UnitId { vantage: 0, chunk };
            sub.on_event(&Event::UnitFinished {
                unit,
                record: &record,
            });
        }
        sub.finish();
        let out = String::from_utf8(sub.into_writer().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        assert!(lines[0].starts_with("{\"type\":\"campaign\",\"scenario\":\"t\",\"seed\":7"));
        assert!(lines[1].contains("\"chunk\":0"), "canonical order");
        assert!(lines[2].starts_with("{\"type\":\"snapshot\",\"units_done\":1"));
        assert!(lines[3].contains("\"chunk\":1"));
        assert!(lines[4].starts_with("{\"type\":\"summary\",\"units\":2"));
        assert!(lines[1]
            .contains("\"probes\":{\"tcp_ecn\":3,\"tcp_plain\":3,\"udp_ect\":3,\"udp_plain\":3}"));
        assert!(lines[4].contains("\"probes_sent\":24"));
    }
}
