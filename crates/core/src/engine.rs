//! The sharded campaign engine.
//!
//! One blueprint, many worlds: the engine builds the seeded
//! [`WorldBlueprint`] **once**, then executes the campaign as a pool of
//! independent work units — one per (vantage × target-chunk) — scheduled
//! across a configurable number of work-stealing shards. Each unit
//! instantiates its own live world from the shared blueprint under an RNG
//! domain label derived from the *unit identity* (never the shard), so:
//!
//! - shard count and work-stealing order cannot change any result byte —
//!   sequential execution is literally the `shards = 1` special case;
//! - N shards pay one decision phase plus N cheap instantiations, not N
//!   full world builds (what the old per-vantage-thread runner did);
//! - finished records stream straight into shard-local reducers
//!   ([`crate::reducers`]) instead of first accumulating every
//!   [`TraceRecord`] in one `Vec`; the streamed aggregates are what the
//!   report path renders from, so the default campaign retains zero raw
//!   records ([`EngineConfig::keep_traces`] is the opt-in escape hatch
//!   for per-trace consumers).

use crate::campaign::{
    discover_in, finish, plan_with_churn, run_trace_observed, run_traceroute_survey, schedule_for,
    CampaignResult, DiscoveryStats, ScheduledTrace, VantageRoutes,
};
use crate::config::CampaignConfig;
use crate::events::{Event, Subscriber, UnitId};
use crate::reducers::{Reduce, RouteCtx, ShardReducers, TraceCtx};
use crate::trace::TraceRecord;
use ecn_pool::{PoolPlan, VantageSpec, WorldBlueprint};
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub use crate::mp::MpError;

/// How the unit list is ordered before being dealt to the shards. Results
/// are invariant under this knob (the determinism suite enforces it); it
/// exists so tests can prove scheduling-order independence. Serializes so
/// the multi-process worker request can carry it across the pipe.
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
    /// process; `N > 1` partitions the unit list round-robin across `N`
    /// supervised child processes (each running its own `shards`-wide
    /// work-stealing pool) and tree-merges their serialized
    /// [`ShardReducers`] — see [`crate::mp`]. Like `shards`, a pure
    /// concurrency/memory knob: any value renders byte-identical reports.
    /// Subscribers in multi-process mode observe parent-side supervision
    /// events (worker lifecycle, retries, checkpoints) rather than
    /// per-probe events; `keep_traces`/`keep_routes` stay incompatible
    /// (raw records do not cross the worker pipe) and yield
    /// [`MpError::Unsupported`].
    pub processes: usize,
    /// Target-list chunks per vantage (work granularity). Unlike `shards`
    /// this knob *is* part of the experiment definition: each chunk probes
    /// in its own world, so changing it changes the measured noise.
    pub target_chunks: usize,
    /// Keep the raw per-trace records (default: **off**). The report path
    /// no longer needs them — `FullReport` renders from
    /// `CampaignResult::aggregates` — so the default campaign retains
    /// zero `TraceRecord`s at peak and runs in O(aggregates) memory.
    /// Turn this on only for per-trace consumers (dataset export, pcap
    /// artefacts, the legacy `FullReport::from_traces` cross-check).
    pub keep_traces: bool,
    /// Keep the raw per-vantage [`crate::traceroute::TraceroutePath`]s
    /// (default: **off**). Figure 4 renders from the streamed
    /// [`crate::reducers::HopSurveyCounts`], so the survey's
    /// O(vantages × targets) path vector is an opt-in escape hatch for
    /// raw-route consumers (dataset export, path-level audits) — the
    /// mirror of [`Self::keep_traces`].
    pub keep_routes: bool,
    /// Unit scheduling order (results are invariant; see [`UnitOrder`]).
    pub unit_order: UnitOrder,
    /// Respawn retries per worker slot in supervised mode (default 2): a
    /// worker that crashes, hangs, or delivers a malformed payload is
    /// respawned with bounded exponential backoff, re-running exactly its
    /// unit slice — byte-identical by the commutative-merge contract. A
    /// slot that fails `1 + max_worker_retries` times turns into
    /// [`MpError::RetriesExhausted`].
    pub max_worker_retries: u32,
    /// Per-worker deadline (default off): a worker delivering no payload
    /// within this span is killed and the attempt counted as
    /// [`crate::mp::MpFailure::Hung`].
    pub worker_timeout: Option<Duration>,
    /// Checkpoint sink (default off): after every worker payload, persist
    /// the merged-so-far aggregates plus the completed-unit bitmap here
    /// via an atomic temp+rename write (see [`crate::mp::Checkpoint`]).
    /// Setting this routes the campaign through the supervised driver
    /// even at `processes = 1`.
    pub checkpoint: Option<PathBuf>,
    /// Resume source (default off): load a [`crate::mp::Checkpoint`],
    /// verify its campaign fingerprint, and re-run only the units absent
    /// from its bitmap. Renders byte-identical to an uninterrupted run.
    pub resume: Option<PathBuf>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: None,
            processes: 1,
            target_chunks: 1,
            keep_traces: false,
            keep_routes: false,
            unit_order: UnitOrder::AsScheduled,
            max_worker_retries: 2,
            worker_timeout: None,
            checkpoint: None,
            resume: None,
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

    /// This configuration, fanned out across `n` worker processes.
    pub fn across_processes(self, n: usize) -> EngineConfig {
        EngineConfig {
            processes: n.max(1),
            ..self
        }
    }

    /// This configuration, with **both** raw-record escape hatches
    /// enabled: per-trace records and per-vantage traceroute paths. The
    /// legacy `FullReport::from_traces` derivation walks both vectors,
    /// so they travel together.
    pub fn keeping_traces(self) -> EngineConfig {
        EngineConfig {
            keep_traces: true,
            keep_routes: true,
            ..self
        }
    }

    /// This configuration, retaining only the raw traceroute paths (the
    /// per-trace records stay streamed).
    pub fn keeping_routes(self) -> EngineConfig {
        EngineConfig {
            keep_routes: true,
            ..self
        }
    }

    /// Whether this configuration routes through the supervised
    /// multi-process driver ([`crate::mp`]): worker processes, a
    /// checkpoint sink, or a resume source.
    pub fn supervised(&self) -> bool {
        self.processes > 1 || self.checkpoint.is_some() || self.resume.is_some()
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
    /// The campaign products (traces, routes, aggregates, databases).
    pub result: CampaignResult,
    /// Phase timing breakdown.
    pub timing: EngineTiming,
    /// Shards actually used.
    pub shards: usize,
    /// Work units executed.
    pub units: usize,
    /// Peak number of `TraceRecord`s simultaneously *retained* across all
    /// shards (records held in vectors, not the O(1) in-flight record
    /// being probed/reduced). Zero on reducer-only runs — the memory
    /// claim `report_memory` benches.
    pub peak_resident_traces: usize,
    /// Worker processes used (`1` = everything ran in this process).
    pub processes: usize,
    /// Reducer merge rounds performed: ⌈log₂ shards-per-process⌉ for the
    /// in-process tree, plus ⌈log₂ processes⌉ for the cross-process tree
    /// in multi-process mode (see [`crate::reducers::merge_tree`]).
    pub merge_depth: usize,
    /// Peak resident set size in kB (`VmHWM`): the max across this
    /// process and every worker, each a per-process high-water mark. The
    /// megapool bench records it to show multi-process campaigns bound
    /// per-process memory. `0` where `/proc/self/status` is unavailable.
    pub peak_rss_kb: u64,
}

/// One work unit: one vantage's full schedule against one target chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Unit {
    pub(crate) vantage: usize,
    pub(crate) chunk: usize,
}

/// The canonical (vantage-major, chunk-minor) unit list — the order every
/// partitioning and permutation is defined against. The multi-process
/// partition (`crate::mp`) deals canonical *indices* round-robin, so the
/// union over workers is exactly this list for any process count.
pub(crate) fn canonical_units(vantage_count: usize, chunks: usize) -> Vec<Unit> {
    (0..vantage_count)
        .flat_map(|vantage| (0..chunks).map(move |chunk| Unit { vantage, chunk }))
        .collect()
}

/// Apply the scheduling-order knob (a pure permutation; results are
/// invariant — the determinism suite sweeps it).
pub(crate) fn apply_unit_order(units: &mut [Unit], order: UnitOrder) {
    match order {
        UnitOrder::AsScheduled => {}
        UnitOrder::Reversed => units.reverse(),
        UnitOrder::Shuffled(seed) => {
            units.shuffle(&mut ecn_netsim::derive_rng(seed, "engine/unit-order"))
        }
    }
}

/// What one unit produced (partial records when `target_chunks > 1`).
struct UnitOutput {
    unit: Unit,
    traces: Vec<TraceRecord>,
    routes: Option<VantageRoutes>,
}

/// Run the full campaign through the sharded engine.
///
/// This is [`run_engine_observed`] with the no-op `()` subscriber — the
/// monomorphized zero-cost path every existing caller and the
/// `alloc_regression`/`probe_hot_loop` gates exercise.
pub fn run_engine(plan: &PoolPlan, cfg: &CampaignConfig, eng: &EngineConfig) -> EngineRun {
    run_engine_observed(plan, cfg, eng, ()).0
}

/// Fallible [`run_engine`]: returns the typed [`MpError`] a supervised
/// multi-process campaign can fail with (retry budget exhausted,
/// checkpoint mismatch) instead of panicking. In-process campaigns
/// (`processes = 1`, no checkpoint/resume) cannot fail this way.
pub fn try_run_engine(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    eng: &EngineConfig,
) -> Result<EngineRun, MpError> {
    try_run_engine_observed(plan, cfg, eng, ()).map(|(run, ())| run)
}

/// Run the full campaign, streaming typed events into `subscriber` (see
/// [`crate::events`]): the root instance sees
/// [`Event::CampaignStarted`], each shard drives a
/// [`Subscriber::fork`], forks merge back deterministically, and
/// [`Subscriber::finish`] runs once before this returns. Results are
/// byte-identical to [`run_engine`] — subscribers observe, they cannot
/// perturb.
///
/// Infallible compatibility wrapper over [`try_run_engine_observed`];
/// supervised-campaign errors (which the `ecnudp` CLI reports with a
/// dedicated exit code) panic here.
pub fn run_engine_observed<S: Subscriber>(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    eng: &EngineConfig,
    subscriber: S,
) -> (EngineRun, S) {
    try_run_engine_observed(plan, cfg, eng, subscriber)
        .unwrap_or_else(|e| panic!("campaign failed: {e}"))
}

/// The fallible observed engine entry point. Configurations with
/// `eng.supervised()` (worker processes, checkpoint, or resume) route
/// through the supervised multi-process driver ([`crate::mp`]): the
/// subscriber then observes parent-side supervision events
/// ([`Event::WorkerFailed`], [`Event::UnitRetried`],
/// [`Event::CheckpointWritten`], …) instead of per-probe events, and the
/// run can fail with a typed [`MpError`] naming the worker and unit
/// range. Everything else runs in-process, infallibly.
pub fn try_run_engine_observed<S: Subscriber>(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    eng: &EngineConfig,
    mut subscriber: S,
) -> Result<(EngineRun, S), MpError> {
    if eng.supervised() {
        if eng.keep_traces || eng.keep_routes {
            // Raw records do not cross the worker pipe; the CLI rejects
            // this combination with a friendlier message.
            return Err(MpError::Unsupported {
                what: "keep_traces/keep_routes under the supervised \
                       multi-process driver (raw records do not cross the \
                       worker pipe); run them with processes = 1 and no \
                       checkpoint/resume"
                    .into(),
            });
        }
        let run = crate::mp::run_multiprocess(plan, cfg, eng, &mut subscriber)?;
        if S::ENABLED {
            subscriber.finish();
        }
        return Ok((run, subscriber));
    }
    let wall0 = Instant::now();
    let mut timing = EngineTiming::default();
    let plan = plan_with_churn(plan, cfg);

    // Phase 1: decide the world once.
    let t0 = Instant::now();
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    timing.blueprint_build = t0.elapsed();

    // Phase 2: discovery, in the canonical (root-stream) world.
    let t0 = Instant::now();
    let mut disco_world = bp.instantiate();
    let discovery = discover_in(&mut disco_world, cfg);
    timing.discovery = t0.elapsed();
    let targets = discovery.targets.clone();

    // Phase 3: the unit pool. Per-vantage schedules are fixed up front;
    // units exist per (vantage × target chunk).
    let vantage_count = disco_world.vantages.len();
    let chunks = eng.target_chunks.max(1);
    let per_vantage_sched = per_vantage_schedule(&plan.vantages(), cfg);
    let mut units = canonical_units(vantage_count, chunks);
    apply_unit_order(&mut units, eng.unit_order);
    let unit_count = units.len();
    if S::ENABLED {
        subscriber.on_event(&Event::CampaignStarted {
            vantages: vantage_count,
            units: unit_count,
            targets: targets.len(),
        });
    }

    // Phases 4–5: work-stealing execution and deterministic merge.
    let pool = run_unit_pool(
        &bp,
        &targets,
        &per_vantage_sched,
        units,
        chunks,
        cfg,
        eng,
        &mut subscriber,
        &mut timing,
    );
    timing.wall = wall0.elapsed();

    if S::ENABLED {
        subscriber.finish();
    }
    let result = finish(
        disco_world,
        targets,
        DiscoveryStats::from(&discovery),
        pool.traces,
        pool.routes,
        pool.reducers,
    );
    Ok((
        EngineRun {
            result,
            timing,
            shards: pool.shard_count,
            units: unit_count,
            peak_resident_traces: pool.peak_resident_traces,
            processes: 1,
            merge_depth: crate::reducers::merge_depth(pool.shard_count),
            peak_rss_kb: crate::mp::peak_rss_kb(),
        },
        subscriber,
    ))
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
    /// Raw records in canonical order (empty unless `keep_traces`).
    pub(crate) traces: Vec<TraceRecord>,
    /// Raw routes in canonical order (empty unless `keep_routes`).
    pub(crate) routes: Vec<VantageRoutes>,
    /// Tree-merged shard reducers.
    pub(crate) reducers: ShardReducers,
    /// Shards actually used.
    pub(crate) shard_count: usize,
    /// Peak retained `TraceRecord`s across shards.
    pub(crate) peak_resident_traces: usize,
}

/// Phases 4–5 of the engine: execute `units` over a work-stealing shard
/// pool, then merge deterministically — a pairwise **tree** for the
/// (commutative) reducers, canonical unit order for the raw records.
/// Shared by the in-process engine and the multi-process worker (which
/// passes its round-robin partition of the canonical unit list).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_unit_pool<S: Subscriber>(
    bp: &WorldBlueprint,
    targets: &[Ipv4Addr],
    per_vantage_sched: &[Vec<ScheduledTrace>],
    units: Vec<Unit>,
    chunks: usize,
    cfg: &CampaignConfig,
    eng: &EngineConfig,
    subscriber: &mut S,
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

    // Phase 4: work-stealing execution. Each shard owns a deque, takes
    // from its front, and steals from the back of a round-robin victim.
    let queues: Vec<Mutex<VecDeque<Unit>>> = {
        let mut qs: Vec<VecDeque<Unit>> = (0..shard_count).map(|_| VecDeque::new()).collect();
        for (i, u) in units.into_iter().enumerate() {
            qs[i % shard_count].push_back(u);
        }
        qs.into_iter().map(Mutex::new).collect()
    };
    type ShardYield<S> = (
        Vec<UnitOutput>,
        ShardReducers,
        S,
        Duration,
        Duration,
        Duration,
    );
    let mut shard_yields: Vec<ShardYield<S>> = Vec::with_capacity(shard_count);
    let resident_traces = AtomicUsize::new(0);
    let peak_resident_traces = AtomicUsize::new(0);
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let queues = &queues;
            let per_vantage_sched = &per_vantage_sched;
            let resident = (&resident_traces, &peak_resident_traces);
            // forked here, on the spawning thread, so `S` needs only Send
            let mut sub = subscriber.fork();
            handles.push(scope.spawn(move |_| {
                let mut outputs = Vec::new();
                let mut reducers = ShardReducers::default();
                let mut inst = Duration::ZERO;
                let mut probe = Duration::ZERO;
                let mut reduce = Duration::ZERO;
                let mut done = 0usize;
                while let Some(unit) = next_unit(s, queues) {
                    let chunk_targets = chunk_slice(targets, unit.chunk, chunks);
                    let out = run_unit(
                        bp,
                        unit,
                        &per_vantage_sched[unit.vantage],
                        chunk_targets,
                        cfg,
                        (eng.keep_traces, eng.keep_routes),
                        &mut reducers,
                        &mut sub,
                        resident,
                        (&mut inst, &mut probe, &mut reduce),
                    );
                    outputs.push(out);
                    done += 1;
                    if S::ENABLED {
                        sub.on_event(&Event::ShardProgress {
                            shard: s,
                            units_done: done,
                        });
                    }
                }
                (outputs, reducers, sub, inst, probe, reduce)
            }));
        }
        for h in handles {
            shard_yields.push(h.join().expect("engine shard"));
        }
    })
    .expect("engine threads");

    // Phase 5: deterministic merge. Reducers merge as a pairwise tree
    // (⌈log₂ shards⌉ rounds; commutativity + associativity make it equal
    // to any fold — `reducers::tree_merge_equals_flat_fold` pins that);
    // raw records merge in canonical unit order.
    let t0 = Instant::now();
    let mut outputs: Vec<UnitOutput> = Vec::with_capacity(unit_count);
    let mut shard_reducers: Vec<ShardReducers> = Vec::with_capacity(shard_count);
    for (outs, red, sub, inst, probe, reduce) in shard_yields {
        outputs.extend(outs);
        shard_reducers.push(red);
        subscriber.merge(sub);
        timing.instantiate += inst;
        timing.probe += probe;
        timing.reduce += reduce;
    }
    let reducers = crate::reducers::merge_tree(shard_reducers);
    outputs.sort_by_key(|o| (o.unit.vantage, o.unit.chunk));

    let mut traces: Vec<TraceRecord> = Vec::new();
    let mut routes: Vec<VantageRoutes> = Vec::new();
    let mut merged_for_vantage: Option<(Vec<TraceRecord>, Option<VantageRoutes>)> = None;
    let flush = |m: Option<(Vec<TraceRecord>, Option<VantageRoutes>)>,
                 traces: &mut Vec<TraceRecord>,
                 routes: &mut Vec<VantageRoutes>| {
        if let Some((t, r)) = m {
            traces.extend(t);
            routes.extend(r);
        }
    };
    let mut current_vantage = usize::MAX;
    for out in outputs {
        if out.unit.vantage != current_vantage {
            flush(merged_for_vantage.take(), &mut traces, &mut routes);
            current_vantage = out.unit.vantage;
            merged_for_vantage = Some((out.traces, out.routes));
        } else if let Some((merged, merged_routes)) = &mut merged_for_vantage {
            // later chunks extend the partial records in target order
            for (m, partial) in merged.iter_mut().zip(out.traces) {
                m.outcomes.extend(partial.outcomes);
            }
            if let (Some(r), Some(partial)) = (merged_routes.as_mut(), out.routes) {
                r.paths.extend(partial.paths);
            }
        }
    }
    flush(merged_for_vantage.take(), &mut traces, &mut routes);
    // merge in schedule order (stable: traces carry start times); compare
    // the vantage key by reference — a sort key would clone the String
    // on every comparison
    traces.sort_by(|a, b| {
        (a.started_at, a.vantage_key.as_str()).cmp(&(b.started_at, b.vantage_key.as_str()))
    });
    timing.reduce += t0.elapsed();

    PoolOutcome {
        traces,
        routes,
        reducers,
        shard_count,
        peak_resident_traces: peak_resident_traces.load(Ordering::Relaxed),
    }
}

/// Run the full campaign with default engine settings: reducer-only
/// (`keep_traces = false`), so the result carries streamed aggregates —
/// everything `FullReport` needs — and an empty trace vector. This is the
/// single entry point that replaced the old sequential/parallel runner
/// pair: results are byte-identical for every shard count.
///
/// ```
/// use ecn_core::{run_campaign, CampaignConfig};
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
/// let result = run_campaign(&PoolPlan::scaled(24), &cfg);
/// assert_eq!(result.targets.len(), 24);
/// // the default path retains no raw records — only streamed aggregates
/// assert!(result.traces.is_empty() && result.routes.is_empty());
/// assert_eq!(result.aggregates.trace_stats.len(), 13); // one per vantage
/// ```
pub fn run_campaign(plan: &PoolPlan, cfg: &CampaignConfig) -> CampaignResult {
    run_engine(plan, cfg, &EngineConfig::default()).result
}

/// Run the full campaign retaining the raw per-trace records and
/// traceroute paths — the escape hatch for raw-record consumers (dataset
/// export, pcap artefacts, `FullReport::from_traces`).
pub fn run_campaign_with_traces(plan: &PoolPlan, cfg: &CampaignConfig) -> CampaignResult {
    run_engine(plan, cfg, &EngineConfig::default().keeping_traces()).result
}

/// The `c`-th of `chunks` balanced contiguous slices of `targets`;
/// concatenating the slices in chunk order reproduces the target order.
fn chunk_slice(targets: &[Ipv4Addr], c: usize, chunks: usize) -> &[Ipv4Addr] {
    let n = targets.len();
    &targets[c * n / chunks..(c + 1) * n / chunks]
}

/// Pop local work, else steal from the back of a victim.
///
/// Victims are visited round-robin starting at the shard's right-hand
/// neighbour, and each visit is a single lock-and-pop. The previous
/// "steal from the fullest" policy locked every queue once to measure
/// lengths and then re-locked the chosen victim — O(shards²) lock
/// traffic per steal across the drain phase, for no placement benefit
/// (results are order-invariant and units are uniform).
fn next_unit(s: usize, queues: &[Mutex<VecDeque<Unit>>]) -> Option<Unit> {
    if let Some(u) = queues[s].lock().pop_front() {
        return Some(u);
    }
    let n = queues.len();
    for off in 1..n {
        let v = (s + off) % n;
        if let Some(u) = queues[v].lock().pop_back() {
            return Some(u);
        }
    }
    None
}

/// Execute one unit: instantiate its world under the unit-identity RNG
/// domain, run the vantage's schedule against the unit's target chunk,
/// then (optionally) its slice of the traceroute survey — streaming every
/// finished record into the shard's reducers, and (when `S::ENABLED`)
/// typed events into the shard's subscriber fork.
#[allow(clippy::too_many_arguments)]
fn run_unit<S: Subscriber>(
    bp: &WorldBlueprint,
    unit: Unit,
    sched: &[ScheduledTrace],
    chunk_targets: &[Ipv4Addr],
    cfg: &CampaignConfig,
    (keep_traces, keep_routes): (bool, bool),
    reducers: &mut ShardReducers,
    sub: &mut S,
    (resident, peak): (&AtomicUsize, &AtomicUsize),
    (inst, probe, reduce): (&mut Duration, &mut Duration, &mut Duration),
) -> UnitOutput {
    let first_chunk = unit.chunk == 0;
    let uid = UnitId {
        vantage: unit.vantage,
        chunk: unit.chunk,
    };
    let t0 = Instant::now();
    // Scoped stamp: only this chunk's targets get server stacks. Packets
    // in a unit world flow exclusively between the vantages and the
    // chunk's targets, so the scoping is invisible to every outcome —
    // while cutting stamp cost from O(servers) to O(servers/chunks).
    let probed: HashSet<Ipv4Addr> = chunk_targets.iter().copied().collect();
    let mut sc = bp.instantiate_unit_scoped(unit.vantage, unit.chunk, &probed);
    if S::ENABLED {
        // purely observational: the tap counts, it cannot change outcomes
        sc.sim.install_event_tap();
    }
    *inst += t0.elapsed();

    let t0 = Instant::now();
    let mut unit_reduce = Duration::ZERO;
    let mut traces = Vec::with_capacity(if keep_traces { sched.len() } else { 0 });
    for (trace_index, st) in sched.iter().enumerate() {
        if sc.sim.now() < st.start {
            sc.sim.run_until(st.start);
        }
        let rec = run_trace_observed(
            &mut sc,
            unit.vantage,
            st.batch,
            chunk_targets,
            cfg,
            sub,
            uid,
        );
        let tr = Instant::now();
        reducers.observe_trace(
            &rec,
            &TraceCtx {
                first_chunk,
                vantage: unit.vantage,
                trace_index,
            },
        );
        unit_reduce += tr.elapsed();
        if S::ENABLED {
            sub.on_event(&Event::TraceVerdict {
                unit: uid,
                trace_index,
                record: &rec,
            });
        }
        if keep_traces {
            traces.push(rec);
            let now = resident.fetch_add(1, Ordering::Relaxed) + 1;
            peak.fetch_max(now, Ordering::Relaxed);
        }
    }
    let routes = cfg
        .run_traceroute
        .then(|| {
            let r = run_traceroute_survey(&mut sc, unit.vantage, chunk_targets, cfg);
            let tr = Instant::now();
            reducers.observe_routes(
                &r,
                &RouteCtx {
                    vantage: unit.vantage,
                    asdb: &sc.asdb,
                },
            );
            unit_reduce += tr.elapsed();
            // Figure 4 renders from HopSurveyCounts; the raw paths are
            // retained only on request, mirroring keep_traces
            keep_routes.then_some(r)
        })
        .flatten();
    if S::ENABLED {
        let counters = sc.sim.drain_event_counters();
        sub.on_event(&Event::SimFlushed {
            unit: uid,
            counters: &counters,
        });
        sub.on_event(&Event::UnitFinished {
            unit: uid,
            traces: sched.len(),
            observations: sched.len() * chunk_targets.len(),
        });
    }
    // the probe span encloses the reducer segments; report them disjointly
    *reduce += unit_reduce;
    *probe += t0.elapsed().saturating_sub(unit_reduce);

    UnitOutput {
        unit,
        traces,
        routes,
    }
}
