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
//!   ([`crate::reducers`]) and are dropped; the streamed aggregates are
//!   what the report path renders from, so a campaign retains zero raw
//!   records. Per-trace consumers subscribe instead: every finished record
//!   passes through [`Event::TraceVerdict`], and
//!   [`crate::events::TraceSampler`] at rate 1 keeps all of them.
//!
//! [`try_run_engine_observed`] is the one entry point;
//! [`try_run_engine`] is its shorthand for the no-op `()` subscriber.

use crate::campaign::{
    discover_in, finish, plan_with_churn, run_trace_observed, run_traceroute_survey, schedule_for,
    CampaignResult, DiscoveryStats, ScheduledTrace,
};
use crate::config::CampaignConfig;
use crate::events::{Event, Subscriber, UnitId};
use crate::reducers::{Reduce, RouteCtx, ShardReducers, TraceCtx};
use ecn_pool::{PoolPlan, VantageSpec, WorldBlueprint};
use parking_lot::Mutex;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::path::PathBuf;
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
    /// per-probe events.
    pub processes: usize,
    /// Target-list chunks per vantage (work granularity). Unlike `shards`
    /// this knob *is* part of the experiment definition: each chunk probes
    /// in its own world, so changing it changes the measured noise.
    pub target_chunks: usize,
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

/// Run the full campaign with the no-op `()` subscriber: exactly
/// [`try_run_engine_observed`] monomorphized over `()`, the zero-cost
/// path the `alloc_regression`/`probe_hot_loop` gates exercise.
///
/// The result carries the streamed aggregates — everything
/// [`crate::analysis::FullReport`] renders from — and no raw records.
/// Results are byte-identical for every shard count.
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
/// assert!(FullReport::from_campaign(&run.result).render().contains("Table 2"));
/// ```
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
/// [`Subscriber::finish`] runs once before this returns. Subscribers
/// observe, they cannot perturb: results are byte-identical to
/// [`try_run_engine`].
///
/// Configurations with `eng.supervised()` (worker processes, checkpoint,
/// or resume) route through the supervised multi-process driver
/// ([`crate::mp`]): the subscriber then observes parent-side supervision
/// events ([`Event::WorkerFailed`], [`Event::UnitRetried`],
/// [`Event::CheckpointWritten`], …) instead of per-probe events, and the
/// run can fail with a typed [`MpError`] naming the worker and unit
/// range (retry budget exhausted, checkpoint mismatch). Everything else
/// runs in-process and returns `Ok`.
pub fn try_run_engine_observed<S: Subscriber>(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    eng: &EngineConfig,
    mut subscriber: S,
) -> Result<(EngineRun, S), MpError> {
    if eng.supervised() {
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
        pool.reducers,
    );
    Ok((
        EngineRun {
            result,
            timing,
            shards: pool.shard_count,
            units: unit_count,
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
    /// Tree-merged shard reducers.
    pub(crate) reducers: ShardReducers,
    /// Shards actually used.
    pub(crate) shard_count: usize,
}

/// Phases 4–5 of the engine: execute `units` over a work-stealing shard
/// pool, then tree-merge the (commutative) shard reducers. Shared by the
/// in-process engine and the multi-process worker (which passes its
/// round-robin partition of the canonical unit list).
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
    type ShardYield<S> = (ShardReducers, S, Duration, Duration, Duration);
    let mut shard_yields: Vec<ShardYield<S>> = Vec::with_capacity(shard_count);
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let queues = &queues;
            let per_vantage_sched = &per_vantage_sched;
            // forked here, on the spawning thread, so `S` needs only Send
            let mut sub = subscriber.fork();
            handles.push(scope.spawn(move |_| {
                let mut reducers = ShardReducers::default();
                let mut inst = Duration::ZERO;
                let mut probe = Duration::ZERO;
                let mut reduce = Duration::ZERO;
                let mut done = 0usize;
                while let Some(unit) = next_unit(s, queues) {
                    let chunk_targets = chunk_slice(targets, unit.chunk, chunks);
                    run_unit(
                        bp,
                        unit,
                        &per_vantage_sched[unit.vantage],
                        chunk_targets,
                        cfg,
                        &mut reducers,
                        &mut sub,
                        (&mut inst, &mut probe, &mut reduce),
                    );
                    done += 1;
                    if S::ENABLED {
                        sub.on_event(&Event::ShardProgress {
                            shard: s,
                            units_done: done,
                        });
                    }
                }
                (reducers, sub, inst, probe, reduce)
            }));
        }
        for h in handles {
            shard_yields.push(h.join().expect("engine shard"));
        }
    })
    .expect("engine threads");

    // Phase 5: deterministic merge. Reducers merge as a pairwise tree
    // (⌈log₂ shards⌉ rounds; commutativity + associativity make it equal
    // to any fold — `reducers::tree_merge_equals_flat_fold` pins that).
    let t0 = Instant::now();
    let mut shard_reducers: Vec<ShardReducers> = Vec::with_capacity(shard_count);
    for (red, sub, inst, probe, reduce) in shard_yields {
        shard_reducers.push(red);
        subscriber.merge(sub);
        timing.instantiate += inst;
        timing.probe += probe;
        timing.reduce += reduce;
    }
    let reducers = crate::reducers::merge_tree(shard_reducers);
    timing.reduce += t0.elapsed();

    PoolOutcome {
        reducers,
        shard_count,
    }
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
    reducers: &mut ShardReducers,
    sub: &mut S,
    (inst, probe, reduce): (&mut Duration, &mut Duration, &mut Duration),
) {
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
    }
    if cfg.run_traceroute {
        let routes = run_traceroute_survey(&mut sc, unit.vantage, chunk_targets, cfg);
        let tr = Instant::now();
        reducers.observe_routes(
            &routes,
            &RouteCtx {
                vantage: unit.vantage,
                asdb: &sc.asdb,
            },
        );
        unit_reduce += tr.elapsed();
    }
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
}
