//! The sharded campaign engine.
//!
//! One blueprint, many worlds: the engine builds the seeded
//! [`WorldBlueprint`] **once**, then executes the campaign as a pool of
//! independent work units — one per (vantage × target-chunk) — that a
//! configurable number of shards take in turn from one shared cursor.
//! Each unit instantiates its own live world from the shared blueprint
//! under an RNG domain label derived from the *unit identity* (never the
//! shard), so:
//!
//! - shard count and the order units are taken in cannot change any
//!   result byte — sequential execution is literally the `shards = 1`
//!   special case;
//! - N shards pay one decision phase plus N cheap instantiations, not N
//!   full world builds (what the old per-vantage-thread runner did);
//! - finished records stream straight into shard-local reducers
//!   ([`crate::reducers`]) and are dropped; the streamed aggregates are
//!   what the report path renders from, so a campaign retains no raw
//!   records beyond the 1-in-N sample of [`EngineConfig::sample_traces`]
//!   (rate 1 keeps all of them).
//!
//! [`try_run_engine`] is the one entry point. The [`EngineRun`] it returns
//! carries everything a run observed as data (see [`crate::events`]).

use crate::campaign::{
    discover_campaign, plan_with_churn, run_trace, run_traceroute_survey, schedule_for,
    CampaignResult, ScheduledTrace,
};
use crate::config::CampaignConfig;
use crate::events::{
    selects, stitch, CheckpointWrites, Progress, SupervisionLog, UnitId, UnitRecord,
};
use crate::mp::Completed;
use crate::reducers::{CampaignAggregates, Reduce, RouteCtx, TraceCtx};
use crate::trace::TraceRecord;
use ecn_netsim::drop_cause_label;
use ecn_pool::{PoolPlan, VantageSpec, WorldBlueprint};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub use crate::mp::MpError;

/// The order the shards take the unit list in. Results are invariant
/// under this knob (the determinism suite enforces it); it exists so
/// tests can prove scheduling-order independence. Serializes so the
/// multi-process worker request can carry it across the pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum UnitOrder {
    /// Vantage-major, chunk-minor (the canonical order).
    #[default]
    AsScheduled,
    /// Reversed canonical order.
    Reversed,
    /// Seeded pseudo-random permutation.
    Shuffled(u64),
}

/// Engine knobs, separate from the §3 methodology in [`CampaignConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker shards. `None` = available parallelism. Any value produces
    /// byte-identical results; it only controls concurrency.
    pub shards: Option<usize>,
    /// Worker **processes**. `1` (the default) runs everything in this
    /// process, checkpoint and resume included; `N > 1` partitions the
    /// remaining unit list round-robin across `N` supervised child
    /// processes (each running its own `shards`-wide unit pool) and
    /// tree-merges their serialized [`CampaignAggregates`] — see
    /// [`crate::mp`]. Like `shards`, a pure concurrency/memory knob: any
    /// value renders byte-identical reports and the same
    /// [`EngineRun::unit_records`], plus a [`EngineRun::supervision`] log
    /// (worker lifecycle, retries) when `N > 1`.
    pub processes: usize,
    /// Target-list chunks per vantage (work granularity). Unlike `shards`
    /// this knob *is* part of the experiment definition: each chunk probes
    /// in its own world, so changing it changes the measured noise.
    pub target_chunks: usize,
    /// Unit scheduling order (results are invariant; see [`UnitOrder`]).
    pub unit_order: UnitOrder,
    /// Respawn retries per worker slot when `processes > 1` (default 2): a
    /// worker that crashes, hangs, or delivers a malformed payload is
    /// respawned with bounded exponential backoff, re-running exactly its
    /// unit slice — byte-identical by the commutative-merge contract. A
    /// slot that fails `1 + max_worker_retries` times turns into
    /// [`MpError::RetriesExhausted`].
    pub max_worker_retries: u32,
    /// Per-worker deadline when `processes > 1` (default off): a worker
    /// delivering no payload within this span is killed and the attempt
    /// counted as [`crate::mp::MpFailure::Hung`].
    pub worker_timeout: Option<Duration>,
    /// Checkpoint sink (default off): persist the merged-so-far
    /// aggregates plus the completed-unit bitmap here via an atomic
    /// temp+rename write (see [`crate::mp::Checkpoint`]) — after every
    /// worker payload when `processes > 1`, once when the units finish
    /// in-process.
    pub checkpoint: Option<PathBuf>,
    /// Resume source (default off): load a [`crate::mp::Checkpoint`],
    /// verify its campaign fingerprint, and re-run only the units absent
    /// from its bitmap. Renders byte-identical to an uninterrupted run.
    pub resume: Option<PathBuf>,
    /// Keep 1 in `sample_traces` logical traces, selected by a hash of
    /// the trace's identity ([`crate::events::selects`]), and return them
    /// stitched in campaign order in [`CampaignResult::traces`]. 0, the
    /// default, keeps none; 1 keeps every trace. Only units run in this
    /// process are sampled: worker processes ship no raw records, and a
    /// checkpoint holds none.
    pub sample_traces: usize,
    /// Print a live unit/observation progress line to stderr, at most
    /// every 200 ms and once at the end (default off).
    pub progress: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: None,
            processes: 1,
            target_chunks: 1,
            unit_order: UnitOrder::AsScheduled,
            max_worker_retries: 2,
            worker_timeout: None,
            checkpoint: None,
            resume: None,
            sample_traces: 0,
            progress: false,
        }
    }
}

impl EngineConfig {
    /// An engine pinned to `n` shards.
    pub fn with_shards(n: usize) -> EngineConfig {
        EngineConfig {
            shards: Some(n),
            ..EngineConfig::default()
        }
    }
}

/// Where the wall-clock went, phase by phase. Per-unit phases
/// (`instantiate`, `probe`, `reduce`) are summed across shards — and, in
/// multi-process mode, across worker processes — so they can exceed
/// `wall` when execution overlaps. Serializes (`Duration` as
/// `[secs, nanos]`) so worker payloads can report their breakdown.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EngineTiming {
    /// Building the world blueprint (once per campaign).
    pub blueprint_build: Duration,
    /// Discovery world instantiation + the DNS discovery loop.
    pub discovery: Duration,
    /// Stamping out per-unit worlds from the blueprint (summed).
    pub instantiate: Duration,
    /// Probing + traceroute inside unit worlds (summed).
    pub probe: Duration,
    /// Streaming reduction and final merge (summed).
    pub reduce: Duration,
    /// End-to-end wall clock.
    pub wall: Duration,
}

impl EngineTiming {
    /// Render a one-line breakdown for logs.
    pub fn render(&self) -> String {
        format!(
            "blueprint {:.3}s | discovery {:.1}s | instantiate {:.3}s | probe {:.1}s | reduce {:.3}s | wall {:.1}s",
            self.blueprint_build.as_secs_f64(),
            self.discovery.as_secs_f64(),
            self.instantiate.as_secs_f64(),
            self.probe.as_secs_f64(),
            self.reduce.as_secs_f64(),
            self.wall.as_secs_f64(),
        )
    }
}

/// A finished engine run.
pub struct EngineRun {
    /// The campaign products (aggregates, targets, databases).
    pub result: CampaignResult,
    /// Phase timing breakdown.
    pub timing: EngineTiming,
    /// Shards actually used.
    pub shards: usize,
    /// Work units executed.
    pub units: usize,
    /// Worker processes used (`1` = everything ran in this process).
    pub processes: usize,
    /// Reducer merge rounds performed: ⌈log₂ shards-per-process⌉ for the
    /// in-process tree, plus ⌈log₂ processes⌉ for the cross-process tree
    /// in multi-process mode (see [`crate::reducers::merge_tree`]).
    pub merge_depth: usize,
    /// Peak resident set size in kB (`VmHWM`): the max of
    /// [`Self::process_peak_rss_kb`]. `0` where `/proc/self/status` is
    /// unavailable.
    pub peak_rss_kb: u64,
    /// Each process's own `VmHWM` in kB: this process first, then the
    /// worker slots in index order (one entry in-process). It says which
    /// process holds the peak; the megapool bench and the CLI report it.
    pub process_peak_rss_kb: Vec<u64>,
    /// The [`UnitRecord`] of every unit this run executed, in canonical
    /// `(vantage, chunk)` order: built by the unit in this process, or
    /// shipped home by the worker that ran it.
    pub unit_records: Vec<(UnitId, UnitRecord)>,
    /// What the supervised driver did under `processes > 1`; empty
    /// in-process.
    pub supervision: SupervisionLog,
    /// The checkpoint writes, when [`EngineConfig::checkpoint`] (or a
    /// resume) named a file.
    pub checkpoints: Option<CheckpointWrites>,
}

/// Apply the scheduling-order knob (a pure permutation; results are
/// invariant — the determinism suite sweeps it).
pub(crate) fn apply_unit_order(units: &mut [UnitId], order: UnitOrder) {
    match order {
        UnitOrder::AsScheduled => {}
        UnitOrder::Reversed => units.reverse(),
        UnitOrder::Shuffled(seed) => {
            units.shuffle(&mut ecn_netsim::derive_rng(seed, "engine/unit-order"))
        }
    }
}

/// Run the full campaign.
///
/// The result carries the streamed aggregates — everything
/// [`crate::analysis::FullReport`] renders from — and no raw records
/// unless [`EngineConfig::sample_traces`] asks for a sample. Results are
/// byte-identical for every shard count.
///
/// This is the one driver. It builds the blueprint, discovers, applies a
/// resumed checkpoint's skip list and writes checkpoints, whatever the
/// process count. With `eng.processes > 1` it drops the blueprint after
/// discovery and hands the remaining units to supervised worker processes
/// ([`crate::mp`]), whose unit records come home with their payloads;
/// the run then also logs the supervision ([`EngineRun::supervision`]).
/// The run fails with a typed [`MpError`] when a worker slot exhausts its
/// retry budget or a checkpoint cannot be read, matched or written.
///
/// ```
/// use ecn_core::{try_run_engine, CampaignConfig, EngineConfig, FullReport};
/// use ecn_pool::PoolPlan;
///
/// // A tiny, fast campaign: 24 servers, compressed calendar, one trace
/// // per vantage, no traceroute survey.
/// let cfg = CampaignConfig {
///     discovery_rounds: 10,
///     traces_per_vantage: Some(1),
///     run_traceroute: false,
///     ..CampaignConfig::quick(7)
/// };
/// let run = try_run_engine(&PoolPlan::scaled(24), &cfg, &EngineConfig::with_shards(2))
///     .expect("an in-process campaign cannot fail");
/// assert_eq!(run.result.targets.len(), 24);
/// assert_eq!(run.result.aggregates.trace_stats.len(), 13); // one per vantage
/// assert_eq!(run.unit_records.len(), 13); // one unit per vantage
/// assert!(FullReport::from_campaign(&run.result).render().contains("Table 2"));
/// ```
pub fn try_run_engine(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    eng: &EngineConfig,
) -> Result<EngineRun, MpError> {
    let wall0 = Instant::now();
    let mut timing = EngineTiming::default();
    let plan = plan_with_churn(plan, cfg);

    // Phase 1: decide the world once.
    let t0 = Instant::now();
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    timing.blueprint_build = t0.elapsed();

    // Phase 2: discovery, in a root-stream world without server stacks
    // that is dropped as soon as discovery returns.
    let t0 = Instant::now();
    let mut result = discover_campaign(&bp, cfg);
    timing.discovery = t0.elapsed();
    // Worker processes rebuild the blueprint, so under `processes > 1`
    // the parent drops it now, before it loads a checkpoint: from here on
    // it stamps no world.
    let in_process = (eng.processes <= 1).then_some(bp);

    // Phase 3: the unit pool, less what a resumed checkpoint completed.
    let vantage_count = result.vantage_order.len();
    let chunks = eng.target_chunks.max(1);
    let mut completed = Completed::start(
        &plan,
        cfg,
        chunks,
        vantage_count * chunks,
        eng.resume.as_deref(),
    )?;
    let remaining = completed.remaining();
    let progress = eng.progress.then(|| Progress::new(remaining.len()));

    // Phase 4: run the remaining units, here or in worker processes.
    let mut ran = if let Some(bp) = in_process {
        let mut units: Vec<UnitId> = remaining.iter().map(|&i| UnitId::at(i, chunks)).collect();
        apply_unit_order(&mut units, eng.unit_order);
        let pool = run_unit_pool(
            &bp,
            &result.targets,
            &per_vantage_schedule(&plan.vantages(), cfg),
            &units,
            chunks,
            cfg,
            eng,
            progress.as_ref(),
            &mut timing,
        );
        completed.add(&remaining, pool.reducers);
        completed.checkpoint(eng.checkpoint.as_deref())?;
        result.traces = stitch(pool.sampled);
        Ran {
            shards: pool.shard_count,
            processes: 1,
            merge_depth: crate::reducers::merge_depth(pool.shard_count),
            worker_peaks: Vec::new(),
            unit_records: pool.unit_records,
            supervision: SupervisionLog::default(),
        }
    } else {
        crate::mp::run_supervised(
            &plan,
            cfg,
            eng,
            &result.targets,
            &mut completed,
            progress.as_ref(),
            &mut timing,
        )?
    };
    ran.unit_records.sort_by_key(|&(unit, _)| unit);

    // Phase 5: merge the resumed state with what ran.
    let t0 = Instant::now();
    let checkpoints = completed.writes();
    let (aggregates, parts) = completed.merge();
    result.aggregates = aggregates;
    timing.reduce += t0.elapsed();
    timing.wall = wall0.elapsed();

    if let Some(progress) = &progress {
        progress.finish();
    }
    let mut process_peak_rss_kb = vec![crate::mp::peak_rss_kb()];
    process_peak_rss_kb.extend(ran.worker_peaks);
    Ok(EngineRun {
        result,
        timing,
        shards: ran.shards,
        // in-process, or dealt in full across the workers
        units: remaining.len(),
        processes: ran.processes,
        merge_depth: ran.merge_depth + crate::reducers::merge_depth(parts),
        peak_rss_kb: process_peak_rss_kb.iter().copied().max().unwrap_or(0),
        process_peak_rss_kb,
        unit_records: ran.unit_records,
        supervision: ran.supervision,
        checkpoints,
    })
}

/// How the remaining units ran: in this process or in worker processes.
pub(crate) struct Ran {
    /// Shards used, summed over processes.
    pub(crate) shards: usize,
    /// Processes that ran the units (`1` in-process).
    pub(crate) processes: usize,
    /// Rounds of the deepest per-process shard merge.
    pub(crate) merge_depth: usize,
    /// Each worker slot's `VmHWM` in kB, in index order (none in-process).
    pub(crate) worker_peaks: Vec<u64>,
    /// The record of every unit that ran, in any order.
    pub(crate) unit_records: Vec<(UnitId, UnitRecord)>,
    /// The supervised driver's log (empty in-process).
    pub(crate) supervision: SupervisionLog,
}

/// The full schedule, split per vantage (each unit runs exactly its
/// vantage's slice). It reads only the vantage specs and the campaign
/// calendar, so the multi-process workers compute it from the plan
/// without instantiating a world.
pub(crate) fn per_vantage_schedule(
    specs: &[VantageSpec],
    cfg: &CampaignConfig,
) -> Vec<Vec<ScheduledTrace>> {
    let full = schedule_for(specs, cfg);
    let mut per: Vec<Vec<ScheduledTrace>> = vec![Vec::new(); specs.len()];
    for st in full {
        per[st.vantage].push(st);
    }
    per
}

/// What the unit pool produced, after the deterministic merge.
pub(crate) struct PoolOutcome {
    /// Tree-merged shard reducers.
    pub(crate) reducers: CampaignAggregates,
    /// Shards actually used.
    pub(crate) shard_count: usize,
    /// Every unit's record, in any order.
    pub(crate) unit_records: Vec<(UnitId, UnitRecord)>,
    /// The sampled traces' chunk partials, `(unit, trace_index, record)`,
    /// in any order ([`crate::events::stitch`] orders them).
    pub(crate) sampled: Vec<(UnitId, usize, TraceRecord)>,
}

/// What one shard accumulates over the units it takes.
#[derive(Default)]
struct Shard {
    reducers: CampaignAggregates,
    unit_records: Vec<(UnitId, UnitRecord)>,
    sampled: Vec<(UnitId, usize, TraceRecord)>,
    instantiate: Duration,
    probe: Duration,
    reduce: Duration,
}

/// Phase 4 of the engine: execute `units` on a pool of shards, each
/// taking the next unit in list order until none is left, then
/// tree-merge the (commutative) shard reducers. Shared by the in-process
/// engine and the multi-process worker (which passes its round-robin
/// partition of the canonical unit list).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_unit_pool(
    bp: &WorldBlueprint,
    targets: &[Ipv4Addr],
    per_vantage_sched: &[Vec<ScheduledTrace>],
    units: &[UnitId],
    chunks: usize,
    cfg: &CampaignConfig,
    eng: &EngineConfig,
    progress: Option<&Progress>,
    timing: &mut EngineTiming,
) -> PoolOutcome {
    let unit_count = units.len();
    let shard_count = eng
        .shards
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, unit_count.max(1));

    // The cursor only hands out indices into the shared, read-only unit
    // list, so it publishes no data: Relaxed suffices.
    let cursor = AtomicUsize::new(0);
    let mut shards: Vec<Shard> = Vec::with_capacity(shard_count);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut shard = Shard::default();
                while let Some(&unit) = units.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                    let chunk_targets = chunk_slice(targets, unit.chunk, chunks);
                    let record = run_unit(
                        bp,
                        unit,
                        &per_vantage_sched[unit.vantage],
                        chunk_targets,
                        cfg,
                        eng.sample_traces,
                        &mut shard,
                    );
                    if let Some(progress) = progress {
                        progress.unit_done(record.observations);
                    }
                    shard.unit_records.push((unit, record));
                }
                shard
            }));
        }
        for h in handles {
            shards.push(h.join().expect("engine shard"));
        }
    });

    // Deterministic merge. Reducers merge as a pairwise tree
    // (⌈log₂ shards⌉ rounds; commutativity + associativity make it equal
    // to any fold — `reducers::tree_merge_equals_flat_fold` pins that).
    let t0 = Instant::now();
    let mut shard_reducers: Vec<CampaignAggregates> = Vec::with_capacity(shard_count);
    let mut unit_records = Vec::with_capacity(unit_count);
    let mut sampled = Vec::new();
    for shard in shards {
        shard_reducers.push(shard.reducers);
        unit_records.extend(shard.unit_records);
        sampled.extend(shard.sampled);
        timing.instantiate += shard.instantiate;
        timing.probe += shard.probe;
        timing.reduce += shard.reduce;
    }
    let reducers = crate::reducers::merge_tree(shard_reducers);
    timing.reduce += t0.elapsed();

    PoolOutcome {
        reducers,
        shard_count,
        unit_records,
        sampled,
    }
}

/// The `c`-th of `chunks` balanced contiguous slices of `targets`;
/// concatenating the slices in chunk order reproduces the target order.
fn chunk_slice(targets: &[Ipv4Addr], c: usize, chunks: usize) -> &[Ipv4Addr] {
    let n = targets.len();
    &targets[c * n / chunks..(c + 1) * n / chunks]
}

/// Execute one unit: instantiate its world under the unit-identity RNG
/// domain, run the vantage's schedule against the unit's target chunk,
/// then (optionally) its slice of the traceroute survey — streaming every
/// finished record into the shard's reducers and keeping the ones the
/// 1-in-`sample_every` sample selects (none at 0). Returns the unit's
/// [`UnitRecord`]: the only place the world's packet counters are
/// drained.
fn run_unit(
    bp: &WorldBlueprint,
    unit: UnitId,
    sched: &[ScheduledTrace],
    chunk_targets: &[Ipv4Addr],
    cfg: &CampaignConfig,
    sample_every: usize,
    shard: &mut Shard,
) -> UnitRecord {
    let first_chunk = unit.chunk == 0;
    let t0 = Instant::now();
    // Scoped stamp: only this chunk's targets get server stacks. Packets
    // in a unit world flow exclusively between the vantages and the
    // chunk's targets, so the scoping is invisible to every outcome —
    // while cutting stamp cost from O(servers) to O(servers/chunks).
    let probed: HashSet<Ipv4Addr> = chunk_targets.iter().copied().collect();
    let mut sc = bp.instantiate_unit_scoped(unit.vantage, unit.chunk, &probed);
    shard.instantiate += t0.elapsed();

    let t0 = Instant::now();
    let mut unit_reduce = Duration::ZERO;
    for (trace_index, st) in sched.iter().enumerate() {
        if sc.sim.now() < st.start {
            sc.sim.run_until(st.start);
        }
        let rec = run_trace(&mut sc, unit.vantage, st.batch, chunk_targets, cfg);
        let tr = Instant::now();
        shard.reducers.observe_trace(
            &rec,
            &TraceCtx {
                first_chunk,
                vantage: unit.vantage,
                trace_index,
            },
        );
        unit_reduce += tr.elapsed();
        if sample_every > 0 && selects(sample_every, &rec.vantage_key, trace_index) {
            shard.sampled.push((unit, trace_index, rec));
        }
    }
    if cfg.run_traceroute {
        let routes = run_traceroute_survey(&mut sc, unit.vantage, chunk_targets, cfg);
        let tr = Instant::now();
        shard.reducers.observe_routes(
            &routes,
            &RouteCtx {
                vantage: unit.vantage,
                asdb: &sc.asdb,
            },
        );
        unit_reduce += tr.elapsed();
    }
    let sim = sc.sim.drain_event_counters();
    // routers that share a label share a key
    let mut ecn_rewritten = BTreeMap::new();
    for (&node, &n) in &sim.ecn_rewritten {
        *ecn_rewritten
            .entry(sc.sim.label_of(node).to_string())
            .or_insert(0) += n;
    }
    // the probe span encloses the reducer segments; report them disjointly
    shard.reduce += unit_reduce;
    shard.probe += t0.elapsed().saturating_sub(unit_reduce);
    UnitRecord {
        traces: sched.len() as u64,
        observations: (sched.len() * chunk_targets.len()) as u64,
        delivered: sim.delivered,
        dropped: sim
            .dropped_by_cause()
            .filter(|&(_, n)| n > 0)
            .map(|(cause, n)| (drop_cause_label(cause).to_string(), n))
            .collect(),
        ce_marked: sim.ce_marked,
        ecn_rewritten,
    }
}
