//! JSON-lines metrics export: the whole `--metrics` stream of a finished
//! run, written by [`write_metrics`] to any `io::Write` sink.
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
//!  "ecn_rewritten_total":..}                           // every 10 units
//! {"type":"summary","units":..,"traces":..,"observations":..,
//!  "probes_sent":..,"delivered":..,"dropped_total":..,"ce_marked":..,
//!  "ecn_rewritten_total":..,"wall_ms":..}
//! {"type":"trace","record":{..}}                       // per sampled trace
//! ```
//!
//! Every unit, snapshot and summary line derives from the run's
//! [`UnitRecord`]s. `run_trace` sends all four §3 probes to every target
//! of every trace, so each per-kind `probes` count is the unit's
//! `observations` and `probes_sent` is four times the observations.
//!
//! Unit records appear in canonical `(vantage, chunk)` order and
//! snapshots are synthesized between them every `SNAPSHOT_EVERY` (10)
//! units, so the stream is **byte-identical for any shard and process
//! count** — the one exception is the summary's `wall_ms` field
//! ([`crate::EngineTiming::wall`]), the stream's only wall-clock value
//! (tests normalize it; everything else is a pure function of the
//! scenario). The `trace` lines are the run's sample
//! ([`crate::EngineConfig::sample_traces`]), in campaign order.
//!
//! ## Supervision lines
//!
//! Under `processes > 1` the run's [`super::SupervisionLog`] surfaces as
//! extra typed lines between the header and the unit records, **written
//! only when present** so single-process streams are byte-identical to
//! earlier schema versions. A checkpoint line appears whenever a
//! checkpoint was written, at any process count:
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
//! Failure lines are in `(worker, attempt)` order and worker lines in
//! worker order, so the stream stays deterministic for a fixed fault
//! schedule.

use super::{json_escape, UnitRecord};
use crate::engine::EngineRun;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};

/// The four §3 probes, as the unit line's `probes` object names them.
const PROBE_LABELS: [&str; 4] = ["udp_plain", "udp_ect", "tcp_plain", "tcp_ecn"];

/// Units between two cumulative `snapshot` lines.
const SNAPSHOT_EVERY: usize = 10;

/// Write the whole metrics stream of `run` to `out` (see the module docs
/// for the schema): the `campaign` header naming `scenario` and `seed`,
/// the supervision and checkpoint lines, the unit lines with a snapshot
/// every 10 units, the summary, then one `trace` line per sampled trace.
/// Flushes `out` before returning.
pub fn write_metrics(
    mut out: impl Write,
    scenario: &str,
    seed: u64,
    run: &EngineRun,
) -> io::Result<()> {
    writeln!(
        out,
        "{{\"type\":\"campaign\",\"scenario\":\"{}\",\"seed\":{seed},\"vantages\":{},\
         \"units\":{},\"targets\":{}}}",
        json_escape(scenario),
        run.result.vantage_order.len(),
        run.units,
        run.result.targets.len(),
    )?;

    // supervision lines: only present in multi-process mode, so the
    // single-process stream stays byte-identical to older schemas
    let log = &run.supervision;
    if let Some((requested, spawned)) = log.clamped {
        writeln!(
            out,
            "{{\"type\":\"workers_clamped\",\"requested\":{requested},\"spawned\":{spawned}}}"
        )?;
    }
    for f in &log.failures {
        writeln!(
            out,
            "{{\"type\":\"worker_failed\",\"worker\":{},\"attempt\":{},\"units\":{},\
             \"will_retry\":{},\"cause\":\"{}\"}}",
            f.worker,
            f.attempt,
            f.units,
            f.will_retry,
            json_escape(&f.cause),
        )?;
    }
    for (worker, units, observations) in &log.workers {
        writeln!(
            out,
            "{{\"type\":\"worker\",\"worker\":{worker},\"units\":{units},\
             \"observations\":{observations}}}"
        )?;
    }
    // a retried attempt re-ships every unit of the worker's slice
    let retried = log.failures.iter().filter(|f| f.will_retry);
    let unit_retries: usize = retried.map(|f| f.units).sum();
    if unit_retries > 0 {
        writeln!(
            out,
            "{{\"type\":\"retries\",\"unit_retries\":{unit_retries}}}"
        )?;
    }
    if let Some(ck) = run.checkpoints {
        writeln!(
            out,
            "{{\"type\":\"checkpoint\",\"writes\":{},\"completed\":{},\"total\":{}}}",
            ck.writes, ck.completed, ck.total,
        )?;
    }

    let units = &run.unit_records;
    let mut totals = Totals::default();
    for (done, (id, rec)) in units.iter().enumerate() {
        let probes: BTreeMap<&str, u64> = PROBE_LABELS
            .iter()
            .map(|&label| (label, rec.observations))
            .collect();
        writeln!(
            out,
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
        )?;
        totals.add(rec);
        let done = done + 1;
        if done % SNAPSHOT_EVERY == 0 && done < units.len() {
            writeln!(
                out,
                "{{\"type\":\"snapshot\",\"units_done\":{done},{}}}",
                totals.fields()
            )?;
        }
    }
    writeln!(
        out,
        "{{\"type\":\"summary\",\"units\":{},{},\"wall_ms\":{:.3}}}",
        units.len(),
        totals.fields(),
        run.timing.wall.as_secs_f64() * 1e3,
    )?;
    for record in &run.result.traces {
        let json = serde_json::to_string(record).map_err(io::Error::other)?;
        writeln!(out, "{{\"type\":\"trace\",\"record\":{json}}}")?;
    }
    out.flush()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_run_engine, CampaignConfig, EngineConfig};
    use ecn_pool::PoolPlan;

    #[test]
    fn counter_object_renders_sorted_pairs() {
        let mut m: BTreeMap<&str, u64> = BTreeMap::new();
        assert_eq!(counter_object(&m), "{}");
        m.insert("loss", 2);
        m.insert("firewall", 1);
        assert_eq!(counter_object(&m), "{\"firewall\":1,\"loss\":2}");
    }

    #[test]
    fn writes_header_units_snapshot_summary_and_sample() {
        let cfg = CampaignConfig {
            discovery_rounds: 10,
            traces_per_vantage: Some(1),
            run_traceroute: false,
            ..CampaignConfig::quick(7)
        };
        let eng = EngineConfig {
            shards: Some(2),
            unit_order: crate::UnitOrder::Reversed,
            sample_traces: 1,
            ..EngineConfig::default()
        };
        let run = try_run_engine(&PoolPlan::scaled(24), &cfg, &eng).unwrap();
        let mut out = Vec::new();
        write_metrics(&mut out, "t", 7, &run).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // header, 13 units with a snapshot after the tenth, the summary
        // and 13 sampled traces
        assert_eq!(lines.len(), 1 + 13 + 1 + 1 + 13, "{out}");
        assert!(lines[0].starts_with("{\"type\":\"campaign\",\"scenario\":\"t\",\"seed\":7"));
        assert!(
            lines[1].contains("\"vantage\":0,\"chunk\":0"),
            "canonical order"
        );
        assert!(lines[11].starts_with("{\"type\":\"snapshot\",\"units_done\":10"));
        assert!(lines[12].contains("\"vantage\":10,"));
        assert!(lines[15].starts_with("{\"type\":\"summary\",\"units\":13"));
        assert!(lines[16].starts_with("{\"type\":\"trace\",\"record\":{"));
        let observations = run.result.targets.len();
        assert!(lines[1].contains(&format!(
            "\"probes\":{{\"tcp_ecn\":{observations},\"tcp_plain\":{observations},\
             \"udp_ect\":{observations},\"udp_plain\":{observations}}}"
        )));
        let probes_sent = 4 * 13 * observations;
        assert!(lines[15].contains(&format!("\"probes_sent\":{probes_sent}")));
    }
}
