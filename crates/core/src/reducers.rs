//! Streaming trace reducers: aggregate campaign results trace-by-trace as
//! the engine produces them, instead of accumulating every [`TraceRecord`]
//! in one `Vec` before analysis.
//!
//! These accumulators are the **single source of truth for the report
//! path**: [`CampaignAggregates`] carries everything
//! [`crate::analysis::FullReport::from_aggregates`] needs to render every
//! table and figure byte-identically to a naive walk over every raw
//! record (`crates/core/tests/report_differential.rs` proves it), so a
//! campaign never holds an O(traces × servers) structure.
//!
//! ## Reducer contract
//!
//! Each shard of the execution engine owns one [`ShardReducers`] instance
//! and feeds it records the moment a work unit finishes them; at the end
//! the engine merges the shard instances. Because work stealing makes the
//! observation *order* nondeterministic, a reducer must be
//! **order-invariant**: observation and [`Reduce::merge`] must be
//! commutative and associative. In practice that means integer counters
//! (never running `f64` sums, whose rounding depends on order) and keyed
//! maps with deterministic iteration (`BTreeMap`). Ratios are computed
//! only in `finalize`-style accessors, from the merged integer counts.
//!
//! Per-logical-trace bookkeeping under target chunking: a trace split
//! across chunks arrives as several partial records. [`TraceStats`] is
//! the one reducer that counts traces: a map keyed by the chunk-invariant
//! unit identity `(vantage, trace index)` whose values are small integer
//! counters — O(#traces) entries, not O(#traces × #servers) records. The
//! Figure 2/5 bars, Table 2's per-location trace counts and the §4.1
//! batch means all derive from it, so the other reducers count only
//! per-observation facts and never read [`TraceCtx::first_chunk`].

use crate::analysis::differential::ServerDifferential;
use crate::campaign::VantageRoutes;
use crate::trace::TraceRecord;
use ecn_asdb::AsDb;
use ecn_netsim::Nanos;
use ecn_wire::Ecn;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Chunk-invariant identity of one observed (partial) trace record. The
/// engine derives it from the work unit, never from the shard, so two
/// chunks of the same logical trace carry the same `(vantage,
/// trace_index)` no matter which shard ran them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// True exactly once per logical trace (the chunk-0 partial).
    pub first_chunk: bool,
    /// Vantage index (Table 2 order).
    pub vantage: usize,
    /// Index of this trace in the vantage's schedule.
    pub trace_index: usize,
}

impl TraceCtx {
    /// Context for observing a whole (unchunked, or already stitched)
    /// trace, e.g. when replaying a `&[TraceRecord]`.
    pub fn whole(vantage: usize, trace_index: usize) -> TraceCtx {
        TraceCtx {
            first_chunk: true,
            vantage,
            trace_index,
        }
    }
}

/// Context for observing a (partial) traceroute survey.
#[derive(Debug, Clone, Copy)]
pub struct RouteCtx<'a> {
    /// Vantage index (Table 2 order).
    pub vantage: usize,
    /// IP→AS database, for classifying strip locations at observe time.
    pub asdb: &'a AsDb,
}

/// The streaming-reduction contract (see module docs): observe records in
/// any order, merge shard instances in any order, same result.
pub trait Reduce: Send + Sized {
    /// Fold one (possibly partial) trace record into the accumulator.
    fn observe_trace(&mut self, _rec: &TraceRecord, _ctx: &TraceCtx) {}
    /// Fold one (possibly partial) vantage traceroute survey.
    fn observe_routes(&mut self, _routes: &VantageRoutes, _ctx: &RouteCtx<'_>) {}
    /// Absorb another shard's accumulator.
    fn merge(&mut self, other: Self);
}

// ---------------------------------------------------------------- table 2

/// Per-vantage Table 2 counters (the per-location trace denominator comes
/// from [`TraceStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VantageTable2 {
    /// (server, trace) observations reachable via not-ECT UDP but not
    /// ECT(0) — the per-vantage ECT-marked-reachability deficit.
    pub udp_ect_unreachable: u64,
    /// Of those, TCP-reachable observations failing to negotiate ECN.
    pub fail_tcp_ecn: u64,
    /// Of those, TCP-reachable observations that did negotiate.
    pub ok_tcp_ecn: u64,
}

/// Streaming accumulator behind Table 2 (§4.4): per-vantage differential
/// reachability plus the global UDP/TCP contingency table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2Counts {
    /// Per-vantage counters, keyed by vantage name (Table 2 spelling).
    pub per_vantage: BTreeMap<String, VantageTable2>,
    /// 2×2 contingency counts over (udp_diff, refuses_tcp_ecn), restricted
    /// to observations where both verdicts are defined.
    pub n11: u64,
    /// diff ∧ negotiates.
    pub n10: u64,
    /// ¬diff ∧ refuses.
    pub n01: u64,
    /// ¬diff ∧ negotiates.
    pub n00: u64,
    /// UDP-ECT-blocked, TCP-reachable observations.
    pub blocked_tcp_reachable: u64,
    /// Of those, observations that negotiated ECN anyway.
    pub blocked_negotiated: u64,
}

impl Reduce for Table2Counts {
    fn observe_trace(&mut self, rec: &TraceRecord, _ctx: &TraceCtx) {
        let mut udp_unreach = 0;
        let mut fail = 0;
        let mut ok = 0;
        for o in &rec.outcomes {
            let diff = o.udp_diff_plain_only();
            if diff {
                udp_unreach += 1;
                if o.tcp_ecn.reachable {
                    self.blocked_tcp_reachable += 1;
                    if o.tcp_ecn.negotiated_ecn {
                        ok += 1;
                        self.blocked_negotiated += 1;
                    } else {
                        fail += 1;
                    }
                }
            }
            if o.udp_plain.reachable && o.tcp_ecn.reachable {
                match (diff, !o.tcp_ecn.negotiated_ecn) {
                    (true, true) => self.n11 += 1,
                    (true, false) => self.n10 += 1,
                    (false, true) => self.n01 += 1,
                    (false, false) => self.n00 += 1,
                }
            }
        }
        let e = self
            .per_vantage
            .entry(rec.vantage_name.clone())
            .or_default();
        e.udp_ect_unreachable += udp_unreach;
        e.fail_tcp_ecn += fail;
        e.ok_tcp_ecn += ok;
    }

    fn merge(&mut self, other: Self) {
        for (name, v) in other.per_vantage {
            let e = self.per_vantage.entry(name).or_default();
            e.udp_ect_unreachable += v.udp_ect_unreachable;
            e.fail_tcp_ecn += v.fail_tcp_ecn;
            e.ok_tcp_ecn += v.ok_tcp_ecn;
        }
        self.n11 += other.n11;
        self.n10 += other.n10;
        self.n01 += other.n01;
        self.n00 += other.n00;
        self.blocked_tcp_reachable += other.blocked_tcp_reachable;
        self.blocked_negotiated += other.blocked_negotiated;
    }
}

impl Table2Counts {
    /// φ correlation between "UDP-ECT unreachable" and "refuses TCP ECN",
    /// computed from the merged integer contingency table.
    pub fn phi(&self) -> f64 {
        let (n11, n10, n01, n00) = (
            self.n11 as f64,
            self.n10 as f64,
            self.n01 as f64,
            self.n00 as f64,
        );
        let denom = ((n11 + n10) * (n01 + n00) * (n11 + n01) * (n10 + n00)).sqrt();
        if denom < 1e-12 {
            0.0
        } else {
            (n11 * n00 - n10 * n01) / denom
        }
    }

    /// Fraction of blocked-but-TCP-reachable observations that negotiated
    /// ECN (the paper's "majority" claim).
    pub fn blocked_but_negotiates(&self) -> f64 {
        if self.blocked_tcp_reachable == 0 {
            0.0
        } else {
            self.blocked_negotiated as f64 / self.blocked_tcp_reachable as f64
        }
    }
}

// ------------------------------------------------------- per-trace figures

/// Integer counters for one logical trace — the data behind one Figure 2
/// bar, one Figure 5 bar, one trace of a Table 2 row and one trace of a
/// §4.1 batch. Chunk partials of the same trace merge by addition; the
/// identity fields are set by whichever chunk arrives first and the start
/// time by the chunk-0 partial (whose world's clock a stitched record's
/// header carries).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCounters {
    /// Vantage key (stable identifier).
    pub vantage_key: String,
    /// Vantage display name (Table 2 spelling).
    pub vantage_name: String,
    /// Collection batch (1 = April/May, 2 = July/August).
    pub batch: u8,
    /// Virtual start time of the chunk-0 partial; `None` until observed.
    pub started_at: Option<Nanos>,
    /// Servers reachable via not-ECT UDP.
    pub udp_plain: u32,
    /// Servers reachable via ECT(0) UDP.
    pub udp_ect: u32,
    /// Servers reachable both ways.
    pub udp_both: u32,
    /// Servers answering HTTP on either TCP probe.
    pub tcp_reachable: u32,
    /// Servers negotiating ECN over TCP.
    pub tcp_negotiated: u32,
}

impl TraceCounters {
    fn absorb(&mut self, other: TraceCounters) {
        if self.vantage_key.is_empty() {
            self.vantage_key = other.vantage_key;
            self.vantage_name = other.vantage_name;
            self.batch = other.batch;
        }
        if self.started_at.is_none() {
            self.started_at = other.started_at;
        }
        self.udp_plain += other.udp_plain;
        self.udp_ect += other.udp_ect;
        self.udp_both += other.udp_both;
        self.tcp_reachable += other.tcp_reachable;
        self.tcp_negotiated += other.tcp_negotiated;
    }
}

/// Streaming per-logical-trace accumulator: one [`TraceCounters`] per
/// `(vantage, trace index)`. This is what lets the report path rebuild the
/// per-trace Figure 2/5 bars — and the campaign-order trace sequence their
/// averages are computed over — without retaining any [`TraceRecord`].
/// It is the only reducer that counts traces.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Counters keyed by the chunk-invariant trace identity.
    pub per_trace: BTreeMap<(usize, usize), TraceCounters>,
}

impl Reduce for TraceStats {
    fn observe_trace(&mut self, rec: &TraceRecord, ctx: &TraceCtx) {
        let mut c = TraceCounters {
            vantage_key: rec.vantage_key.clone(),
            vantage_name: rec.vantage_name.clone(),
            batch: rec.batch,
            started_at: ctx.first_chunk.then_some(rec.started_at),
            ..TraceCounters::default()
        };
        for o in &rec.outcomes {
            c.udp_plain += u32::from(o.udp_plain.reachable);
            c.udp_ect += u32::from(o.udp_ect.reachable);
            c.udp_both += u32::from(o.udp_plain.reachable && o.udp_ect.reachable);
            c.tcp_reachable += u32::from(o.tcp_plain.reachable || o.tcp_ecn.reachable);
            c.tcp_negotiated += u32::from(o.tcp_ecn.negotiated_ecn);
        }
        self.per_trace
            .entry((ctx.vantage, ctx.trace_index))
            .or_default()
            .absorb(c);
    }

    fn merge(&mut self, other: Self) {
        for (key, v) in other.per_trace {
            self.per_trace.entry(key).or_default().absorb(v);
        }
    }
}

impl TraceStats {
    /// Logical traces observed.
    pub fn len(&self) -> usize {
        self.per_trace.len()
    }

    /// True when no trace has been observed.
    pub fn is_empty(&self) -> bool {
        self.per_trace.is_empty()
    }

    /// Traces in campaign order — the exact order of the legacy
    /// `CampaignResult::traces` vector, which the engine sorts by
    /// `(started_at, vantage_key)` with schedule order as the (stable)
    /// tiebreak within a vantage.
    pub fn ordered(&self) -> Vec<&TraceCounters> {
        let mut v: Vec<(&(usize, usize), &TraceCounters)> = self.per_trace.iter().collect();
        v.sort_by(|(&(_, ai), a), (&(_, bi), b)| {
            (a.started_at.unwrap_or(Nanos::MAX), &a.vantage_key, ai).cmp(&(
                b.started_at.unwrap_or(Nanos::MAX),
                &b.vantage_key,
                bi,
            ))
        });
        v.into_iter().map(|(_, t)| t).collect()
    }

    /// Vantage display names in first-seen campaign order — the row order
    /// of Table 2 / Figure 3 and the bar order of the per-vantage figures.
    pub fn location_order(&self) -> Vec<String> {
        location_order_of(&self.ordered())
    }
}

/// Vantage display names in first-seen order over an already-sorted trace
/// sequence (see [`TraceStats::ordered`]).
pub fn location_order_of(ordered: &[&TraceCounters]) -> Vec<String> {
    let mut order = Vec::new();
    for t in ordered {
        if !order.contains(&t.vantage_name) {
            order.push(t.vantage_name.clone());
        }
    }
    order
}

// ---------------------------------------------------------------- figure 3

/// Streaming accumulator behind Figure 3: per (location, server)
/// differential-reachability counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DifferentialCounts {
    /// location name → server → counters.
    pub per_location: BTreeMap<String, BTreeMap<Ipv4Addr, ServerDifferential>>,
}

impl Reduce for DifferentialCounts {
    fn observe_trace(&mut self, rec: &TraceRecord, _ctx: &TraceCtx) {
        let loc = self
            .per_location
            .entry(rec.vantage_name.clone())
            .or_default();
        for o in &rec.outcomes {
            let d = loc.entry(o.server).or_default();
            d.traces += 1;
            d.plain_traces += u32::from(o.udp_plain.reachable);
            d.ect_traces += u32::from(o.udp_ect.reachable);
            d.diff_a += u32::from(o.udp_diff_plain_only());
            d.diff_b += u32::from(o.udp_diff_ect_only());
        }
    }

    fn merge(&mut self, other: Self) {
        for (name, servers) in other.per_location {
            let loc = self.per_location.entry(name).or_default();
            for (addr, v) in servers {
                let d = loc.entry(addr).or_default();
                d.traces += v.traces;
                d.plain_traces += v.plain_traces;
                d.ect_traces += v.ect_traces;
                d.diff_a += v.diff_a;
                d.diff_b += v.diff_b;
            }
        }
    }
}

// ------------------------------------------------------------ §4.1 batches

/// Streaming accumulator behind the §4.1 batch comparison's churn
/// inference: per-server reachability histories (the per-batch means come
/// from [`TraceStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchCounts {
    /// Per server and batch: (reachable observations, observations).
    pub per_server: BTreeMap<Ipv4Addr, [(u32, u32); 2]>,
}

/// A collection batch's slot in the §4.1 per-batch arrays: batch 1 (or
/// an unset 0) → 0, batch 2 (or anything later) → 1.
pub(crate) fn batch_slot(batch: u8) -> usize {
    usize::from(batch.clamp(1, 2)) - 1
}

impl Reduce for BatchCounts {
    fn observe_trace(&mut self, rec: &TraceRecord, _ctx: &TraceCtx) {
        let b = batch_slot(rec.batch);
        for o in &rec.outcomes {
            let e = self.per_server.entry(o.server).or_insert([(0, 0), (0, 0)]);
            e[b].1 += 1;
            e[b].0 += u32::from(o.udp_plain.reachable);
        }
    }

    fn merge(&mut self, other: Self) {
        for (addr, v) in other.per_server {
            let e = self.per_server.entry(addr).or_insert([(0, 0), (0, 0)]);
            for b in 0..2 {
                e[b].0 += v[b].0;
                e[b].1 += v[b].1;
            }
        }
    }
}

// ---------------------------------------------------------------- figure 4

/// Streaming accumulator behind Figure 4 / §4.2: per-(vantage, router)
/// mark-survival state and first-modified-hop strip locations, classified
/// against the AS database at observe time. All fields merge by `|`/`+`,
/// so the result is invariant under sharding and chunking (a traceroute
/// path is always wholly contained in one observation).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopSurveyCounts {
    /// (vantage index, router) → (ever passed the mark, ever modified it).
    pub hop_state: BTreeMap<(usize, Ipv4Addr), (bool, bool)>,
    /// First-modified-hop locations → (AS ever determinable, ever
    /// classified as an AS-boundary crossing).
    pub strip_locations: BTreeMap<(usize, Ipv4Addr), (bool, bool)>,
    /// CE marks observed in quotes (paper: none).
    pub ce_observed: u64,
    /// Paths answered by the destination itself.
    pub reached_destination: u64,
    /// Paths traced.
    pub paths: u64,
}

impl Reduce for HopSurveyCounts {
    fn observe_routes(&mut self, routes: &VantageRoutes, ctx: &RouteCtx<'_>) {
        for path in &routes.paths {
            self.paths += 1;
            self.reached_destination += u64::from(path.reached_destination);
            let sent = path.sent_ecn;
            let mut prev_responding: Option<Ipv4Addr> = None;
            let mut first_modified_recorded = false;
            for hop in &path.hops {
                let Some(router) = hop.router else { continue };
                let any_mod = hop.modified(sent);
                let any_pass = hop.quoted_ecn.contains(&sent);
                self.ce_observed += hop.quoted_ecn.iter().filter(|e| **e == Ecn::Ce).count() as u64;
                let e = self
                    .hop_state
                    .entry((ctx.vantage, router))
                    .or_insert((false, false));
                e.0 |= any_pass;
                e.1 |= any_mod;
                if any_mod && !first_modified_recorded {
                    first_modified_recorded = true;
                    let class = ctx.asdb.classify_hop(prev_responding, router);
                    let loc = self
                        .strip_locations
                        .entry((ctx.vantage, router))
                        .or_insert((false, false));
                    loc.0 |= class.asn().is_some();
                    loc.1 |= class.is_boundary();
                }
                prev_responding = Some(router);
            }
        }
    }

    fn merge(&mut self, other: Self) {
        for (key, (pass, modified)) in other.hop_state {
            let e = self.hop_state.entry(key).or_insert((false, false));
            e.0 |= pass;
            e.1 |= modified;
        }
        for (key, (mapped, boundary)) in other.strip_locations {
            let e = self.strip_locations.entry(key).or_insert((false, false));
            e.0 |= mapped;
            e.1 |= boundary;
        }
        self.ce_observed += other.ce_observed;
        self.reached_destination += other.reached_destination;
        self.paths += other.paths;
    }
}

// ------------------------------------------------------------- validation

/// Streaming accumulator behind the ECN-validation report section:
/// per-server counts of each [`ecn_stack::ValidationOutcome`], indexed
/// densely by [`ecn_stack::ValidationOutcome::index`]. Truth-free at
/// observe time — the confusion matrix against middlebox ground truth is
/// joined at report time ([`crate::analysis::validation`]), so
/// observation stays a pure
/// function of the trace record and the merge contract holds trivially
/// (integer counters in a `BTreeMap`). Empty — and absent from the
/// report — whenever the validation pass is disabled.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValidationCounts {
    /// server → outcome counts, indexed by `ValidationOutcome::index()`.
    pub per_server: BTreeMap<Ipv4Addr, [u64; 6]>,
    /// Total validation rounds observed (sum of every counter).
    pub rounds: u64,
}

impl ValidationCounts {
    /// No validation rounds observed (the pass was disabled)?
    pub fn is_empty(&self) -> bool {
        self.rounds == 0
    }
}

impl Reduce for ValidationCounts {
    fn observe_trace(&mut self, rec: &TraceRecord, _ctx: &TraceCtx) {
        for o in &rec.outcomes {
            if let Some(v) = o.validation {
                self.per_server.entry(o.server).or_default()[v.index()] += 1;
                self.rounds += 1;
            }
        }
    }

    fn merge(&mut self, other: Self) {
        for (addr, counts) in other.per_server {
            let e = self.per_server.entry(addr).or_default();
            for (slot, n) in e.iter_mut().zip(counts) {
                *slot += n;
            }
        }
        self.rounds += other.rounds;
    }
}

// ---------------------------------------------------------------- composite

/// The full streamed-aggregate set: everything the report path needs,
/// finalized. Each engine shard owns one instance (see [`ShardReducers`])
/// and the engine merges them; the result rides on
/// `CampaignResult::aggregates`.
///
/// Serializes (vendored-serde JSON) so a whole instance can cross a
/// process boundary: the multi-process engine mode ships each worker's
/// partial aggregate set to the parent over a pipe (see `crate::mp`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignAggregates {
    /// Table 2 counters.
    pub table2: Table2Counts,
    /// Per-logical-trace counters (the Figure 2/5 bars, the Table 2 and
    /// §4.1 trace counts).
    pub trace_stats: TraceStats,
    /// Figure 3 per-(location, server) differential counters.
    pub differential: DifferentialCounts,
    /// §4.1 per-server batch histories.
    pub batches: BatchCounts,
    /// Figure 4 hop-identity state.
    pub hops: HopSurveyCounts,
    /// ECN-validation outcome counters (empty unless the pass ran).
    pub validation: ValidationCounts,
}

impl Reduce for CampaignAggregates {
    fn observe_trace(&mut self, rec: &TraceRecord, ctx: &TraceCtx) {
        self.table2.observe_trace(rec, ctx);
        self.trace_stats.observe_trace(rec, ctx);
        self.differential.observe_trace(rec, ctx);
        self.batches.observe_trace(rec, ctx);
        self.validation.observe_trace(rec, ctx);
    }

    fn observe_routes(&mut self, routes: &VantageRoutes, ctx: &RouteCtx<'_>) {
        self.hops.observe_routes(routes, ctx);
    }

    fn merge(&mut self, other: Self) {
        self.table2.merge(other.table2);
        self.trace_stats.merge(other.trace_stats);
        self.differential.merge(other.differential);
        self.batches.merge(other.batches);
        self.hops.merge(other.hops);
        self.validation.merge(other.validation);
    }
}

/// The reducer set each engine shard owns — the same type as the merged
/// result: a shard's accumulator *is* a partial [`CampaignAggregates`].
pub type ShardReducers = CampaignAggregates;

/// Hierarchically merge partial accumulators: pairwise rounds until one
/// remains, so `n` parts take [`merge_depth`]`(n)` = ⌈log₂ n⌉ rounds
/// instead of the flat left-fold's `n − 1` sequential absorptions into
/// one ever-growing accumulator. Correctness needs nothing beyond the
/// [`Reduce`] contract — merge is commutative and associative — and the
/// tree shape keeps each round's participants of comparable size, so no
/// single merge rebalances a map that already absorbed every other part.
/// The engine uses this for its shard merge and the multi-process parent
/// for its worker-payload merge.
pub fn merge_tree<R: Reduce + Default>(mut parts: Vec<R>) -> R {
    while parts.len() > 1 {
        let mut next = Vec::with_capacity(parts.len().div_ceil(2));
        let mut it = parts.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                a.merge(b);
            }
            next.push(a);
        }
        parts = next;
    }
    parts.pop().unwrap_or_default()
}

/// Merge rounds [`merge_tree`] performs over `n` parts: ⌈log₂ n⌉ (0 for
/// a single part or none).
pub fn merge_depth(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{BatchComparison, Table2};
    use crate::probes::{TcpProbeResult, UdpProbeResult};
    use crate::trace::ServerOutcome;
    use ecn_netsim::Nanos;
    use std::net::Ipv4Addr;

    fn outcome(i: u8, plain: bool, ect: bool, tcp: bool, neg: bool) -> ServerOutcome {
        let udp = |r| UdpProbeResult {
            reachable: r,
            attempts: 1,
            response_ecn: None,
            rtt: None,
        };
        let tcpr = |r, n| TcpProbeResult {
            reachable: r,
            http_status: if r { Some(302) } else { None },
            requested_ecn: true,
            negotiated_ecn: n,
            syn_ack_flags: None,
            close_reason: None,
        };
        ServerOutcome {
            server: Ipv4Addr::new(10, 0, 0, i),
            udp_plain: udp(plain),
            udp_ect: udp(ect),
            tcp_plain: tcpr(tcp, false),
            tcp_ecn: tcpr(tcp, neg),
            validation: None,
        }
    }

    fn rec(name: &str, outcomes: Vec<ServerOutcome>) -> TraceRecord {
        TraceRecord {
            vantage_key: name.to_lowercase(),
            vantage_name: name.into(),
            batch: 2,
            started_at: Nanos::ZERO,
            outcomes,
        }
    }

    #[test]
    fn table2_counts_match_batch_analysis() {
        let traces = vec![
            rec(
                "A",
                vec![
                    outcome(1, true, false, true, true),
                    outcome(2, true, false, true, false),
                    outcome(3, true, true, true, true),
                ],
            ),
            rec("B", vec![outcome(4, true, false, false, false)]),
        ];
        let mut streamed = ShardReducers::default();
        for (i, t) in traces.iter().enumerate() {
            streamed.observe_trace(t, &TraceCtx::whole(i, 0));
        }
        let batch = crate::naive::table2(&traces);
        // per-vantage averages agree with the batch analysis; the trace
        // denominator is the location's count in the per-trace stats
        for row in &batch.rows {
            let v = &streamed.table2.per_vantage[&row.location];
            let n = streamed
                .trace_stats
                .per_trace
                .values()
                .filter(|t| t.vantage_name == row.location)
                .count() as f64;
            assert_eq!(
                v.udp_ect_unreachable as f64 / n,
                row.avg_udp_ect_unreachable
            );
            assert_eq!(v.fail_tcp_ecn as f64 / n, row.avg_fail_tcp_ecn);
        }
        let t2 = &streamed.table2;
        assert!((t2.phi() - batch.phi).abs() < 1e-12);
        assert!((t2.blocked_but_negotiates() - batch.blocked_but_negotiates).abs() < 1e-12);
    }

    #[test]
    fn merge_is_order_invariant() {
        let a = rec("A", vec![outcome(1, true, false, true, true)]);
        let b = rec("B", vec![outcome(2, true, true, true, false)]);
        let c = rec("A", vec![outcome(3, false, true, false, false)]);
        let (ka, kb, kc) = (TraceCtx::whole(0, 0), TraceCtx::whole(1, 0), {
            TraceCtx::whole(0, 1)
        });

        let mut left = ShardReducers::default();
        left.observe_trace(&a, &ka);
        left.observe_trace(&b, &kb);
        let mut right = ShardReducers::default();
        right.observe_trace(&c, &kc);
        left.merge(right);

        let mut other_order = ShardReducers::default();
        other_order.observe_trace(&c, &kc);
        let mut rest = ShardReducers::default();
        rest.observe_trace(&b, &kb);
        rest.observe_trace(&a, &ka);
        other_order.merge(rest);

        assert_eq!(left, other_order);
    }

    #[test]
    fn partial_chunks_count_one_trace() {
        // one logical trace split across two chunks: every artefact that
        // divides by a trace count sees one trace
        let first = TraceCtx {
            first_chunk: true,
            vantage: 0,
            trace_index: 0,
        };
        let rest = TraceCtx {
            first_chunk: false,
            ..first
        };
        let mut r = ShardReducers::default();
        r.observe_trace(&rec("A", vec![outcome(1, true, false, true, true)]), &first);
        r.observe_trace(
            &rec("A", vec![outcome(2, true, false, false, false)]),
            &rest,
        );
        let ordered = r.trace_stats.ordered();
        let t2 = Table2::from_counts(&r.table2, &ordered);
        assert_eq!(t2.rows[0].traces, 1);
        assert_eq!(t2.rows[0].avg_udp_ect_unreachable, 2.0);
        let b = BatchComparison::from_counts(&r.batches, &ordered);
        assert_eq!((b.batch1_traces, b.batch2_traces), (0, 1));
        assert_eq!(b.batch2_avg_reachable, 2.0);
    }

    #[test]
    fn trace_stats_merge_partials_into_one_bar() {
        let first = TraceCtx {
            first_chunk: true,
            vantage: 3,
            trace_index: 7,
        };
        let rest = TraceCtx {
            first_chunk: false,
            ..first
        };
        // chunk 1 observed before chunk 0 (stealing order): identity and
        // counters must come out the same
        let mut s = TraceStats::default();
        s.observe_trace(&rec("A", vec![outcome(2, true, false, true, false)]), &rest);
        s.observe_trace(&rec("A", vec![outcome(1, true, true, true, true)]), &first);
        assert_eq!(s.len(), 1);
        let t = &s.per_trace[&(3, 7)];
        assert_eq!(t.started_at, Some(Nanos::ZERO));
        assert_eq!((t.vantage_name.as_str(), t.batch), ("A", 2));
        assert_eq!((t.udp_plain, t.udp_ect, t.udp_both), (2, 1, 1));
        assert_eq!((t.tcp_reachable, t.tcp_negotiated), (2, 1));
    }

    #[test]
    fn tree_merge_equals_flat_fold() {
        // 7 parts (odd, forces carry legs at every round): tree merge and
        // the old left-fold must agree exactly
        let parts: Vec<ShardReducers> = (0..7u8)
            .map(|i| {
                let mut r = ShardReducers::default();
                let name = ["A", "B", "C"][usize::from(i) % 3];
                r.observe_trace(
                    &rec(
                        name,
                        vec![outcome(i + 1, i % 2 == 0, true, true, i % 3 == 0)],
                    ),
                    &TraceCtx::whole(usize::from(i), 0),
                );
                r
            })
            .collect();
        let mut flat = ShardReducers::default();
        for p in parts.clone() {
            flat.merge(p);
        }
        assert_eq!(merge_tree(parts), flat);
    }

    #[test]
    fn merge_depth_is_ceil_log2() {
        for (n, d) in [
            (0, 0),
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
        ] {
            assert_eq!(merge_depth(n), d, "n = {n}");
        }
    }

    #[test]
    fn aggregates_round_trip_through_json() {
        // the multi-process wire format: a populated aggregate set must
        // survive serialize → parse bit-exactly
        let mut r = ShardReducers::default();
        r.observe_trace(
            &rec("A", vec![outcome(1, true, false, true, true)]),
            &TraceCtx::whole(0, 0),
        );
        r.observe_trace(
            &rec("B", vec![outcome(2, true, true, true, false)]),
            &TraceCtx::whole(1, 3),
        );
        let json = serde_json::to_string(&r).expect("serialize aggregates");
        let back: ShardReducers = serde_json::from_str(&json).expect("parse aggregates");
        assert_eq!(r, back);
    }

    #[test]
    fn validation_counts_observe_merge_and_round_trip() {
        use ecn_stack::ValidationOutcome;
        let with_validation = |i: u8, v: ValidationOutcome| {
            let mut o = outcome(i, true, true, true, true);
            o.validation = Some(v);
            o
        };
        let a = rec(
            "A",
            vec![
                with_validation(1, ValidationOutcome::Capable),
                with_validation(2, ValidationOutcome::FailedBleached),
                outcome(3, true, true, true, true), // pass disabled for this one
            ],
        );
        let b = rec("B", vec![with_validation(1, ValidationOutcome::Capable)]);

        let mut left = ValidationCounts::default();
        left.observe_trace(&a, &TraceCtx::whole(0, 0));
        let mut right = ValidationCounts::default();
        right.observe_trace(&b, &TraceCtx::whole(1, 0));
        left.merge(right);

        assert_eq!(left.rounds, 3);
        let s1 = left.per_server[&Ipv4Addr::new(10, 0, 0, 1)];
        assert_eq!(s1[ValidationOutcome::Capable.index()], 2);
        let s2 = left.per_server[&Ipv4Addr::new(10, 0, 0, 2)];
        assert_eq!(s2[ValidationOutcome::FailedBleached.index()], 1);
        assert!(!left.per_server.contains_key(&Ipv4Addr::new(10, 0, 0, 3)));

        // wire format round trip (the multi-process payload path)
        let json = serde_json::to_string(&left).expect("serialize");
        let back: ValidationCounts = serde_json::from_str(&json).expect("parse");
        assert_eq!(left, back);

        // disabled pass leaves the accumulator empty
        let mut empty = ValidationCounts::default();
        empty.observe_trace(&rec("A", vec![outcome(1, true, true, true, true)]), {
            &TraceCtx::whole(0, 0)
        });
        assert!(empty.is_empty());
    }

    #[test]
    fn batch_counts_split_by_batch() {
        let mut r = ShardReducers::default();
        let mut t1 = rec("A", vec![outcome(1, true, true, false, false)]);
        t1.batch = 1;
        r.observe_trace(&t1, &TraceCtx::whole(0, 0));
        r.observe_trace(
            &rec("A", vec![outcome(1, false, false, false, false)]),
            &TraceCtx::whole(0, 1),
        );
        let b = BatchComparison::from_counts(&r.batches, &r.trace_stats.ordered());
        assert_eq!((b.batch1_traces, b.batch2_traces), (1, 1));
        assert_eq!((b.batch1_avg_reachable, b.batch2_avg_reachable), (1.0, 0.0));
        let s = r.batches.per_server[&Ipv4Addr::new(10, 0, 0, 1)];
        assert_eq!(s, [(1, 1), (0, 1)]);
    }
}
