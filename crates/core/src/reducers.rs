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
//! across chunks arrives as several partial records, so anything counted
//! once per trace (e.g. the Table 2 trace denominator) is counted only
//! when [`TraceCtx::first_chunk`] is true. Per-trace *figures* (the
//! Figure 2/5 bars are one bar per trace) live in [`TraceStats`]: a map
//! keyed by the chunk-invariant unit identity `(vantage, trace index)`
//! whose values are small integer counters — O(#traces) entries, not
//! O(#traces × #servers) records.

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

/// Per-vantage Table 2 counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VantageTable2 {
    /// Logical traces observed from this vantage.
    pub traces: u64,
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
    fn observe_trace(&mut self, rec: &TraceRecord, ctx: &TraceCtx) {
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
        if ctx.first_chunk {
            e.traces += 1;
        }
        e.udp_ect_unreachable += udp_unreach;
        e.fail_tcp_ecn += fail;
        e.ok_tcp_ecn += ok;
    }

    fn merge(&mut self, other: Self) {
        for (name, v) in other.per_vantage {
            let e = self.per_vantage.entry(name).or_default();
            e.traces += v.traces;
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

// ---------------------------------------------------------------- figure 2

/// Per-vantage UDP/TCP reachability counters (Figure 2/5 numerators and
/// denominators, kept linear so streaming stays order-invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VantageReachability {
    /// Logical traces observed.
    pub traces: u64,
    /// (server, trace) observations reachable via not-ECT UDP.
    pub udp_plain: u64,
    /// Observations reachable via ECT(0) UDP.
    pub udp_ect: u64,
    /// Observations reachable both ways.
    pub udp_both: u64,
    /// Observations answering HTTP on either TCP probe.
    pub tcp_reachable: u64,
    /// Observations negotiating ECN over TCP.
    pub tcp_negotiated: u64,
}

/// Streaming reachability accumulator (the per-vantage counts behind
/// Figures 2 and 5's headline ratios).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReachabilityCounts {
    /// Per-vantage counters, keyed by vantage key.
    pub per_vantage: BTreeMap<String, VantageReachability>,
}

impl Reduce for ReachabilityCounts {
    fn observe_trace(&mut self, rec: &TraceRecord, ctx: &TraceCtx) {
        let e = self.per_vantage.entry(rec.vantage_key.clone()).or_default();
        if ctx.first_chunk {
            e.traces += 1;
        }
        for o in &rec.outcomes {
            e.udp_plain += u64::from(o.udp_plain.reachable);
            e.udp_ect += u64::from(o.udp_ect.reachable);
            e.udp_both += u64::from(o.udp_plain.reachable && o.udp_ect.reachable);
            e.tcp_reachable += u64::from(o.tcp_plain.reachable || o.tcp_ecn.reachable);
            e.tcp_negotiated += u64::from(o.tcp_ecn.negotiated_ecn);
        }
    }

    fn merge(&mut self, other: Self) {
        for (key, v) in other.per_vantage {
            let e = self.per_vantage.entry(key).or_default();
            e.traces += v.traces;
            e.udp_plain += v.udp_plain;
            e.udp_ect += v.udp_ect;
            e.udp_both += v.udp_both;
            e.tcp_reachable += v.tcp_reachable;
            e.tcp_negotiated += v.tcp_negotiated;
        }
    }
}

impl ReachabilityCounts {
    /// Aggregate Figure 2a value: of not-ECT-reachable observations, the
    /// percentage also reachable with ECT(0).
    pub fn pct_a(&self) -> f64 {
        let plain: u64 = self.per_vantage.values().map(|v| v.udp_plain).sum();
        let both: u64 = self.per_vantage.values().map(|v| v.udp_both).sum();
        if plain == 0 {
            100.0
        } else {
            100.0 * both as f64 / plain as f64
        }
    }

    /// Aggregate Figure 2b value.
    pub fn pct_b(&self) -> f64 {
        let ect: u64 = self.per_vantage.values().map(|v| v.udp_ect).sum();
        let both: u64 = self.per_vantage.values().map(|v| v.udp_both).sum();
        if ect == 0 {
            100.0
        } else {
            100.0 * both as f64 / ect as f64
        }
    }

    /// Aggregate ECN negotiation share among TCP-reachable observations
    /// (Figure 5's headline).
    pub fn negotiated_pct(&self) -> f64 {
        let reach: u64 = self.per_vantage.values().map(|v| v.tcp_reachable).sum();
        let neg: u64 = self.per_vantage.values().map(|v| v.tcp_negotiated).sum();
        if reach == 0 {
            0.0
        } else {
            100.0 * neg as f64 / reach as f64
        }
    }
}

// ------------------------------------------------------- per-trace figures

/// Integer counters for one logical trace — the data behind one Figure 2
/// bar and one Figure 5 bar. Chunk partials of the same trace merge by
/// addition; the identity fields are set by whichever chunk arrives first
/// and the start time by the chunk-0 partial (whose world's clock a
/// stitched record's header carries).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCounters {
    /// Vantage key (stable identifier).
    pub vantage_key: String,
    /// Vantage display name (Table 2 spelling).
    pub vantage_name: String,
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

/// Streaming accumulator behind the §4.1 batch comparison: per-batch trace
/// counts and per-server reachability histories.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchCounts {
    /// Logical traces per batch.
    pub batch_traces: [u64; 2],
    /// Sum over traces of not-ECT-reachable server counts, per batch.
    pub batch_reach_sum: [u64; 2],
    /// Per server and batch: (reachable observations, observations).
    pub per_server: BTreeMap<Ipv4Addr, [(u32, u32); 2]>,
}

impl Reduce for BatchCounts {
    fn observe_trace(&mut self, rec: &TraceRecord, ctx: &TraceCtx) {
        let b = usize::from(rec.batch.clamp(1, 2)) - 1;
        if ctx.first_chunk {
            self.batch_traces[b] += 1;
        }
        for o in &rec.outcomes {
            self.batch_reach_sum[b] += u64::from(o.udp_plain.reachable);
            let e = self.per_server.entry(o.server).or_insert([(0, 0), (0, 0)]);
            e[b].1 += 1;
            e[b].0 += u32::from(o.udp_plain.reachable);
        }
    }

    fn merge(&mut self, other: Self) {
        for b in 0..2 {
            self.batch_traces[b] += other.batch_traces[b];
            self.batch_reach_sum[b] += other.batch_reach_sum[b];
        }
        for (addr, v) in other.per_server {
            let e = self.per_server.entry(addr).or_insert([(0, 0), (0, 0)]);
            for b in 0..2 {
                e[b].0 += v[b].0;
                e[b].1 += v[b].1;
            }
        }
    }
}

// ---------------------------------------------------------------- survey

/// Streaming traceroute-survey totals (hop observation counters; the
/// hop-identity state behind Figure 4 lives in [`HopSurveyCounts`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurveyCounts {
    /// Paths observed per vantage key.
    pub paths_per_vantage: BTreeMap<String, u64>,
    /// Responding hop observations.
    pub hops_responded: u64,
    /// Silent hops (`*`).
    pub hops_silent: u64,
    /// Responding hops whose quotes all still carried the sent mark.
    pub hops_pass: u64,
    /// Responding hops showing a modified mark in at least one quote.
    pub hops_modified: u64,
    /// Modified hops with disagreeing probes (the "sometimes" signature).
    pub hops_mixed: u64,
    /// Paths whose ICMP port-unreachable reached back from the target.
    pub reached_destination: u64,
}

impl Reduce for SurveyCounts {
    fn observe_routes(&mut self, routes: &VantageRoutes, _ctx: &RouteCtx<'_>) {
        *self
            .paths_per_vantage
            .entry(routes.vantage_key.clone())
            .or_default() += routes.paths.len() as u64;
        for path in &routes.paths {
            self.reached_destination += u64::from(path.reached_destination);
            for hop in &path.hops {
                if hop.router.is_none() {
                    self.hops_silent += 1;
                    continue;
                }
                self.hops_responded += 1;
                if hop.modified(path.sent_ecn) {
                    self.hops_modified += 1;
                    if hop.mixed(path.sent_ecn) {
                        self.hops_mixed += 1;
                    }
                } else {
                    self.hops_pass += 1;
                }
            }
        }
    }

    fn merge(&mut self, other: Self) {
        for (key, n) in other.paths_per_vantage {
            *self.paths_per_vantage.entry(key).or_default() += n;
        }
        self.hops_responded += other.hops_responded;
        self.hops_silent += other.hops_silent;
        self.hops_pass += other.hops_pass;
        self.hops_modified += other.hops_modified;
        self.hops_mixed += other.hops_mixed;
        self.reached_destination += other.reached_destination;
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
    /// Per-vantage Figure 2/5 ratio counters.
    pub reachability: ReachabilityCounts,
    /// Per-logical-trace counters (the Figure 2/5 bars).
    pub trace_stats: TraceStats,
    /// Figure 3 per-(location, server) differential counters.
    pub differential: DifferentialCounts,
    /// §4.1 batch-comparison counters.
    pub batches: BatchCounts,
    /// Traceroute survey totals.
    pub survey: SurveyCounts,
    /// Figure 4 hop-identity state.
    pub hops: HopSurveyCounts,
    /// ECN-validation outcome counters (empty unless the pass ran).
    pub validation: ValidationCounts,
}

impl Reduce for CampaignAggregates {
    fn observe_trace(&mut self, rec: &TraceRecord, ctx: &TraceCtx) {
        self.table2.observe_trace(rec, ctx);
        self.reachability.observe_trace(rec, ctx);
        self.trace_stats.observe_trace(rec, ctx);
        self.differential.observe_trace(rec, ctx);
        self.batches.observe_trace(rec, ctx);
        self.validation.observe_trace(rec, ctx);
    }

    fn observe_routes(&mut self, routes: &VantageRoutes, ctx: &RouteCtx<'_>) {
        self.survey.observe_routes(routes, ctx);
        self.hops.observe_routes(routes, ctx);
    }

    fn merge(&mut self, other: Self) {
        self.table2.merge(other.table2);
        self.reachability.merge(other.reachability);
        self.trace_stats.merge(other.trace_stats);
        self.differential.merge(other.differential);
        self.batches.merge(other.batches);
        self.survey.merge(other.survey);
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
        let mut streamed = Table2Counts::default();
        for (i, t) in traces.iter().enumerate() {
            streamed.observe_trace(t, &TraceCtx::whole(i, 0));
        }
        let batch = crate::naive::table2(&traces);
        // per-vantage averages agree with the batch analysis
        for row in &batch.rows {
            let v = &streamed.per_vantage[&row.location];
            assert_eq!(v.udp_ect_unreachable as f64 / v.traces as f64, {
                row.avg_udp_ect_unreachable
            });
            assert_eq!(
                v.fail_tcp_ecn as f64 / v.traces as f64,
                row.avg_fail_tcp_ecn
            );
        }
        assert!((streamed.phi() - batch.phi).abs() < 1e-12);
        assert!((streamed.blocked_but_negotiates() - batch.blocked_but_negotiates).abs() < 1e-12);
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
        let mut r = ReachabilityCounts::default();
        // one logical trace split across two chunks
        let first = TraceCtx {
            first_chunk: true,
            vantage: 0,
            trace_index: 0,
        };
        let rest = TraceCtx {
            first_chunk: false,
            ..first
        };
        r.observe_trace(&rec("A", vec![outcome(1, true, true, true, true)]), &first);
        r.observe_trace(
            &rec("A", vec![outcome(2, true, false, false, false)]),
            &rest,
        );
        let v = &r.per_vantage["a"];
        assert_eq!(v.traces, 1);
        assert_eq!(v.udp_plain, 2);
        assert_eq!(v.udp_both, 1);
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
        assert_eq!(t.vantage_name, "A");
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
        let mut b = BatchCounts::default();
        let mut t1 = rec("A", vec![outcome(1, true, true, false, false)]);
        t1.batch = 1;
        b.observe_trace(&t1, &TraceCtx::whole(0, 0));
        b.observe_trace(
            &rec("A", vec![outcome(1, false, false, false, false)]),
            &TraceCtx::whole(0, 1),
        );
        assert_eq!(b.batch_traces, [1, 1]);
        assert_eq!(b.batch_reach_sum, [1, 0]);
        let s = b.per_server[&Ipv4Addr::new(10, 0, 0, 1)];
        assert_eq!(s, [(1, 1), (0, 1)]);
    }
}
