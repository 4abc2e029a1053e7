//! Multi-process shard mode: partition the engine's unit pool across
//! child **processes**, each running its own work-stealing shard pool,
//! and tree-merge their serialized reducers in the parent — under a
//! supervisor that retries failed workers and can checkpoint progress.
//!
//! ## Why processes
//!
//! Shards bound wall-clock; processes bound *memory*. Every reducer map
//! a shard touches lives until the final merge, so a megapool campaign
//! (10⁵–10⁶ servers) concentrates O(vantages × servers) of keyed state —
//! plus every concurrently instantiated unit world — in one address
//! space. The reducer contract (commutative, associative merge) was
//! designed so shards can live anywhere; this module puts them behind a
//! pipe: each worker holds only its partition's worlds and partial
//! aggregates, and the parent's high-water mark stays at discovery +
//! merged aggregates.
//!
//! ## Worker protocol
//!
//! The parent spawns `processes` children running the **same binary**
//! with the single argument [`WORKER_ARG`] (binaries opt in by calling
//! [`maybe_worker`] first thing in `main`; tests point
//! [`WORKER_EXE_ENV`] at the `ecnudp` binary instead). Each child reads
//! one [`WorkerRequest`] as JSON on stdin, runs its round-robin
//! partition of the canonical unit list — position `p` of the
//! not-yet-completed units belongs to worker `p % processes` — and
//! writes one [`WorkerPayload`] as JSON on stdout: its tree-merged
//! [`ShardReducers`], timing breakdown, peak-RSS gauge, and an
//! event-stream summary ([`WorkerCounters`]). Worker stderr is piped
//! through a line-tagging relay, so concurrent panics surface as
//! `[worker N] …` lines instead of an unattributable interleaving.
//!
//! Workers skip discovery entirely: the parent runs it once and ships
//! the target list in the request. A worker only needs the blueprint
//! (rebuilt from the same plan + seed, bit-identical by construction)
//! and the per-vantage schedule, which is world-clock-independent.
//!
//! ## Supervision
//!
//! Each worker slot gets a supervisor thread running a bounded retry
//! loop: spawn → feed request → await payload (optionally under
//! [`EngineConfig::worker_timeout`]) → classify any failure into a typed
//! [`MpFailure`] (crash, hang, truncated/malformed payload, pipe error)
//! → back off exponentially and respawn, re-shipping **the same unit
//! slice** (the partition is a pure function of the request, so a retry
//! is deterministic). A slot that exhausts
//! [`EngineConfig::max_worker_retries`] turns into
//! [`MpError::RetriesExhausted`] naming the worker and its unit range —
//! never a panic. Because reducers merge commutatively, recovered runs
//! render byte-identical to fault-free ones;
//! `tests/process_determinism.rs` and `tests/fault_injection.rs` prove
//! it against real injected subprocess failures (`crates/core/src/fault.rs`).
//!
//! ## Checkpoint / resume
//!
//! With [`EngineConfig::checkpoint`] set, the parent persists a
//! [`Checkpoint`] — merged-so-far aggregates plus the completed-unit
//! bitmap — after every worker payload, via the atomic same-directory
//! temp+rename pattern. [`EngineConfig::resume`] loads one, verifies its
//! content checksum and campaign fingerprint, and re-runs only the units
//! absent from the bitmap; the commutative merge makes the stitched
//! result byte-identical to an uninterrupted run.
//!
//! ## Determinism
//!
//! The partition is over *canonical* unit indices, reducers are
//! commutative and associative, and every unit's RNG domain derives from
//! its identity — so process count, retry schedule, and resume
//! partitioning, like shard count and stealing order, cannot change any
//! result byte.

use crate::campaign::{discover_in, finish, plan_with_churn, DiscoveryStats};
use crate::config::CampaignConfig;
use crate::engine::{
    apply_unit_order, canonical_units, per_vantage_schedule, run_unit_pool, EngineConfig,
    EngineRun, EngineTiming, Unit, UnitOrder,
};
use crate::events::{Event, Subscriber, UnitId};
use crate::fault::{FaultPlan, WorkerFault, CRASH_EXIT_CODE, PARENT_EXIT_CODE};
use crate::reducers::{merge_depth, merge_tree, ShardReducers};
use ecn_netsim::SimCounters;
use ecn_pool::{PoolPlan, WorldBlueprint};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The hidden `argv[1]` that switches a cooperating binary into worker
/// mode (see [`maybe_worker`]). Deliberately not a `--flag`: it can
/// never collide with user-facing CLI surface.
pub const WORKER_ARG: &str = "__mp-worker";

/// Environment override for the worker executable. Defaults to
/// `std::env::current_exe()` (self-spawn); set this to the `ecnudp`
/// binary from contexts whose own executable has no worker hook (the
/// libtest harness cannot intercept `main`).
pub const WORKER_EXE_ENV: &str = "ECNUDP_WORKER_EXE";

/// Everything a worker needs to run its partition, shipped as JSON on
/// its stdin. The plan already carries the churn pin
/// (`plan_with_churn`), and `targets` is the parent's discovery result —
/// workers never re-discover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerRequest {
    /// The churned pool plan (world definition).
    pub plan: PoolPlan,
    /// The campaign methodology configuration.
    pub cfg: CampaignConfig,
    /// Discovered probe targets, in probing order.
    pub targets: Vec<Ipv4Addr>,
    /// Target-list chunks per vantage.
    pub target_chunks: usize,
    /// Shards per worker (`None` = the worker's available parallelism).
    pub shards: Option<usize>,
    /// Unit scheduling order within the worker's partition.
    pub unit_order: UnitOrder,
    /// Total worker processes.
    pub processes: usize,
    /// This worker's index in `0..processes`.
    pub index: usize,
    /// Canonical unit indices already completed (sorted; from a resumed
    /// checkpoint). The round-robin partition is dealt over the units
    /// *not* in this list.
    pub skip: Vec<usize>,
    /// Which spawn attempt this is (0 = first). Carried so injected
    /// faults (`crates/core/src/fault.rs`) can scope themselves to
    /// early attempts.
    pub attempt: u32,
}

/// Event-stream summary a worker sends home: observation totals plus the
/// merged netsim counters, re-keyed as owned `String`s (the in-process
/// [`SimCounters`] uses `&'static str` / `Arc<str>` keys, which cannot
/// cross a serialization boundary).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerCounters {
    /// Server observations produced (Σ unit traces × chunk targets).
    pub observations: u64,
    /// Datagrams delivered end-to-end.
    pub delivered: u64,
    /// Datagrams dropped, by cause label.
    pub dropped: BTreeMap<String, u64>,
    /// CE congestion marks applied.
    pub ce_marked: u64,
    /// ECN rewrites observed, by hop label.
    pub ecn_rewritten: BTreeMap<String, u64>,
}

impl WorkerCounters {
    fn absorb_sim(&mut self, c: &SimCounters) {
        self.delivered += c.delivered;
        for (k, v) in &c.dropped {
            *self.dropped.entry((*k).to_string()).or_default() += v;
        }
        self.ce_marked += c.ce_marked;
        for (k, v) in &c.ecn_rewritten {
            *self.ecn_rewritten.entry(k.to_string()).or_default() += v;
        }
    }

    /// Merge another summary (commutative, like everything on the wire).
    pub fn merge(&mut self, other: &WorkerCounters) {
        self.observations += other.observations;
        self.delivered += other.delivered;
        for (k, v) in &other.dropped {
            *self.dropped.entry(k.clone()).or_default() += v;
        }
        self.ce_marked += other.ce_marked;
        for (k, v) in &other.ecn_rewritten {
            *self.ecn_rewritten.entry(k.clone()).or_default() += v;
        }
    }
}

/// One worker's results, shipped as JSON on its stdout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerPayload {
    /// The worker's tree-merged partial aggregates.
    pub aggregates: ShardReducers,
    /// Units the worker executed.
    pub units: usize,
    /// Shards the worker actually used.
    pub shards: usize,
    /// The worker's phase timing (blueprint + instantiate/probe/reduce).
    pub timing: EngineTiming,
    /// Always 0: no engine path retains raw records. The field stays so
    /// the payload's wire shape (and the `ecnbench` replay, which builds
    /// this struct by literal) is unchanged.
    pub peak_resident_traces: usize,
    /// The worker process's `VmHWM` in kB (0 off-Linux).
    pub peak_rss_kb: u64,
    /// Event-stream summary (observations + netsim counters).
    pub counters: WorkerCounters,
}

// ------------------------------------------------------------- error types

/// Why one worker **attempt** failed — the per-attempt cause the
/// supervisor classifies before deciding to retry.
#[derive(Debug)]
pub enum MpFailure {
    /// The worker process could not be spawned.
    Spawn(std::io::Error),
    /// The unit request could not be written to the worker's stdin
    /// (and the worker still exited successfully, so the pipe error is
    /// the primary cause).
    RequestWrite(std::io::Error),
    /// The worker's stdout could not be read.
    PayloadRead(std::io::Error),
    /// The worker process could not be reaped.
    Wait(std::io::Error),
    /// The worker exited with a failure status before delivering a
    /// payload (`code` is `None` when it was killed by a signal).
    Crashed {
        /// The exit code, if the process exited normally.
        code: Option<i32>,
    },
    /// The worker exited successfully but its payload did not parse —
    /// truncated or corrupt JSON.
    Malformed {
        /// Parse-failure detail.
        detail: String,
        /// How many payload bytes arrived.
        payload_bytes: usize,
    },
    /// No payload arrived within [`EngineConfig::worker_timeout`]; the
    /// worker was killed.
    Hung {
        /// The deadline that expired.
        timeout: Duration,
    },
}

impl fmt::Display for MpFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpFailure::Spawn(e) => write!(f, "could not spawn the worker process: {e}"),
            MpFailure::RequestWrite(e) => {
                write!(f, "could not write the unit request to the worker: {e}")
            }
            MpFailure::PayloadRead(e) => write!(f, "could not read the worker payload: {e}"),
            MpFailure::Wait(e) => write!(f, "could not reap the worker process: {e}"),
            MpFailure::Crashed { code: Some(code) } => {
                write!(f, "worker crashed with exit code {code}")
            }
            MpFailure::Crashed { code: None } => write!(f, "worker was killed by a signal"),
            MpFailure::Malformed {
                detail,
                payload_bytes,
            } => write!(
                f,
                "worker payload was malformed ({payload_bytes} bytes received): {detail}"
            ),
            MpFailure::Hung { timeout } => write!(
                f,
                "worker delivered no payload within the {:.1}s deadline and was killed",
                timeout.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for MpFailure {}

/// A terminal multi-process campaign error — what the supervisor returns
/// instead of panicking. The `ecnudp` CLI maps these to a distinct exit
/// code; every variant names what failed and where.
#[derive(Debug)]
pub enum MpError {
    /// A worker slot failed on every attempt in the retry budget.
    RetriesExhausted {
        /// The worker index (`0..processes`).
        worker: usize,
        /// Human-readable description of the worker's unit slice.
        units: String,
        /// Attempts made (1 + retries).
        attempts: u32,
        /// The final attempt's failure.
        last: MpFailure,
    },
    /// A checkpoint file could not be read, written, or did not match
    /// this campaign.
    Checkpoint {
        /// The checkpoint path.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// An internal invariant failed (serialization, executable lookup).
    Internal(String),
}

impl fmt::Display for MpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpError::RetriesExhausted {
                worker,
                units,
                attempts,
                last,
            } => write!(
                f,
                "worker {worker} failed after {attempts} attempt(s) covering {units}: {last}"
            ),
            MpError::Checkpoint { path, detail } => {
                write!(f, "checkpoint {}: {detail}", path.display())
            }
            MpError::Internal(detail) => write!(f, "internal multi-process error: {detail}"),
        }
    }
}

impl std::error::Error for MpError {}

// ------------------------------------------------------------- checkpoints

/// On-disk schema version of [`Checkpoint`] (2 added
/// [`Checkpoint::checksum`]).
pub const CHECKPOINT_VERSION: u32 = 2;

/// A campaign checkpoint: the merged-so-far aggregates plus the bitmap
/// of completed canonical units, written atomically (same-directory
/// temp + rename) after every worker payload when
/// [`EngineConfig::checkpoint`] is set. `fingerprint` pins the file to
/// one (plan, config, chunking) so a resume against a different
/// scenario is rejected instead of silently merging apples into oranges;
/// `checksum` pins it to its own content, so a torn, bit-flipped or
/// hand-edited file is refused by [`read_checkpoint`] instead of being
/// merged into the report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// FNV-1a over the serialized (plan, campaign config, target_chunks).
    pub fingerprint: u64,
    /// Total canonical units in the campaign.
    pub unit_count: usize,
    /// Completed canonical unit indices, sorted ascending.
    pub completed: Vec<usize>,
    /// Merge of every completed worker payload (plus any resumed state).
    pub aggregates: ShardReducers,
    /// FNV-1a over the serialized `completed` list, then the serialized
    /// `aggregates`.
    pub checksum: u64,
}

impl Checkpoint {
    /// A current-version checkpoint with its content checksum stamped.
    fn new(
        fingerprint: u64,
        unit_count: usize,
        completed: Vec<usize>,
        aggregates: ShardReducers,
    ) -> Result<Checkpoint, MpError> {
        let mut ck = Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint,
            unit_count,
            completed,
            aggregates,
            checksum: 0,
        };
        ck.checksum = ck.content_checksum()?;
        Ok(ck)
    }

    /// FNV-1a over the re-serialized `completed` list and `aggregates`:
    /// what [`Self::checksum`] must equal for the content to be intact.
    fn content_checksum(&self) -> Result<u64, MpError> {
        let internal =
            |e: serde_json::Error| MpError::Internal(format!("serialize checkpoint: {e:?}"));
        let completed = serde_json::to_string(&self.completed).map_err(internal)?;
        let aggregates = serde_json::to_string(&self.aggregates).map_err(internal)?;
        let h = fnv1a(FNV_OFFSET, completed.as_bytes());
        Ok(fnv1a(h, aggregates.as_bytes()))
    }
}

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The campaign identity a checkpoint is pinned to: plan + methodology
/// config + chunking, all of which shape the unit pool and its results.
fn campaign_fingerprint(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    chunks: usize,
) -> Result<u64, MpError> {
    let plan_json = serde_json::to_string(plan)
        .map_err(|e| MpError::Internal(format!("serialize plan for fingerprint: {e:?}")))?;
    let cfg_json = serde_json::to_string(cfg)
        .map_err(|e| MpError::Internal(format!("serialize config for fingerprint: {e:?}")))?;
    let mut h = fnv1a(FNV_OFFSET, plan_json.as_bytes());
    h = fnv1a(h, cfg_json.as_bytes());
    h = fnv1a(h, &(chunks as u64).to_le_bytes());
    Ok(h)
}

/// Load a checkpoint file and check its version and content checksum
/// (fingerprint verification happens in the resume path, which knows the
/// campaign identity).
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, MpError> {
    let err = |detail: String| MpError::Checkpoint {
        path: path.to_path_buf(),
        detail,
    };
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("cannot read: {e}")))?;
    let ck: Checkpoint =
        serde_json::from_str(&text).map_err(|e| err(format!("cannot parse: {e:?}")))?;
    if ck.version != CHECKPOINT_VERSION {
        return Err(err(format!(
            "schema version {} (this build reads {CHECKPOINT_VERSION})",
            ck.version
        )));
    }
    let content = ck.content_checksum()?;
    if ck.checksum != content {
        return Err(err(format!(
            "content checksum mismatch (recorded {:#018x}, contents hash to {content:#018x}); \
             the file is truncated, corrupted or edited",
            ck.checksum
        )));
    }
    Ok(ck)
}

/// Atomically write a checkpoint: serialize to a same-directory temp
/// file, then rename over the target (the `update_bench_json` pattern —
/// a reader, or a resume after a crash mid-write, sees either the old
/// complete file or the new complete file, never a torn one).
fn write_checkpoint(path: &Path, ck: &Checkpoint) -> Result<(), MpError> {
    let err = |detail: String| MpError::Checkpoint {
        path: path.to_path_buf(),
        detail,
    };
    let json = serde_json::to_string(ck).map_err(|e| err(format!("cannot serialize: {e:?}")))?;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| err("path has no file name".into()))?;
    let tmp = dir
        .unwrap_or_else(|| Path::new("."))
        .join(format!(".{name}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, json.as_bytes())
        .map_err(|e| err(format!("cannot write temp file {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        err(format!("cannot rename temp file into place: {e}"))
    })
}

// ------------------------------------------------------------ worker side

/// The worker-side event collector: taps every unit's [`SimCounters`]
/// drain and observation totals. Enabled (`ENABLED = true`) but purely
/// observational, so worker results stay byte-identical to an
/// unobserved run — the process-determinism suite proves it.
#[derive(Default)]
struct WorkerTap {
    counters: WorkerCounters,
}

impl Subscriber for WorkerTap {
    fn fork(&self) -> Self {
        WorkerTap::default()
    }

    fn on_event(&mut self, event: &Event<'_>) {
        match event {
            Event::SimFlushed { counters, .. } => self.counters.absorb_sim(counters),
            Event::UnitFinished { observations, .. } => {
                self.counters.observations += *observations as u64;
            }
            _ => {}
        }
    }

    fn merge(&mut self, other: Self) {
        self.counters.merge(&other.counters);
    }
}

/// This worker's round-robin partition: filter out completed units, then
/// deal the remainder by position. Must stay the exact mirror of the
/// parent's assignment ([`partition_assignments`]).
fn worker_partition(req: &WorkerRequest, vantage_count: usize, chunks: usize) -> Vec<Unit> {
    let processes = req.processes.max(1);
    let mut units = canonical_units(vantage_count, chunks);
    let mut canonical = 0usize;
    let mut position = 0usize;
    units.retain(|_| {
        let ci = canonical;
        canonical += 1;
        if req.skip.binary_search(&ci).is_ok() {
            return false;
        }
        let mine = position % processes == req.index;
        position += 1;
        mine
    });
    units
}

/// Execute one worker request (the body of worker mode; separated so
/// tests can drive the partition logic in-process).
pub fn run_worker(req: &WorkerRequest) -> WorkerPayload {
    run_worker_sabotaged(req, None)
}

/// [`run_worker`] with an optional injected fault. `CrashAfterUnits`
/// truncates the partition, does the (about-to-be-lost) work, then
/// exits — the most expensive failure mode the supervisor must absorb.
fn run_worker_sabotaged(req: &WorkerRequest, fault: Option<WorkerFault>) -> WorkerPayload {
    let mut timing = EngineTiming::default();
    let t0 = Instant::now();
    let bp = WorldBlueprint::build(&req.plan, req.cfg.seed);
    timing.blueprint_build = t0.elapsed();

    // The schedule needs only the vantage specs, which the plan holds.
    let specs = req.plan.vantages();
    let vantage_count = specs.len();
    let per_vantage_sched = per_vantage_schedule(&specs, &req.cfg);

    let chunks = req.target_chunks.max(1);
    let mut units = worker_partition(req, vantage_count, chunks);
    apply_unit_order(&mut units, req.unit_order);
    let crash_after = match fault {
        Some(WorkerFault::CrashAfterUnits(k)) => {
            units.truncate(k);
            true
        }
        _ => false,
    };
    let unit_count = units.len();

    let eng = EngineConfig {
        shards: req.shards,
        ..EngineConfig::default()
    };
    let mut tap = WorkerTap::default();
    let wall0 = Instant::now();
    let pool = run_unit_pool(
        &bp,
        &req.targets,
        &per_vantage_sched,
        units,
        chunks,
        &req.cfg,
        &eng,
        &mut tap,
        &mut timing,
    );
    timing.wall = wall0.elapsed();
    if crash_after {
        eprintln!(
            "[fault] worker {} crashing after {unit_count} unit(s) (attempt {})",
            req.index, req.attempt
        );
        std::process::exit(CRASH_EXIT_CODE);
    }
    WorkerPayload {
        aggregates: pool.reducers,
        units: unit_count,
        shards: pool.shard_count,
        timing,
        peak_resident_traces: 0,
        peak_rss_kb: peak_rss_kb(),
        counters: tap.counters,
    }
}

/// Worker mode entry point: if this process was spawned as a worker
/// (`argv[1]` == [`WORKER_ARG`]), serve one request over stdin/stdout
/// and return an exit code to bubble out of `main`; otherwise `None`.
/// Cooperating binaries (the `ecnudp` CLI, the bench harnesses) call
/// this before any argument parsing. Honors the test-only `ECNUDP_FAULT`
/// sabotage protocol (`crates/core/src/fault.rs`).
pub fn maybe_worker() -> Option<std::process::ExitCode> {
    if std::env::args().nth(1).as_deref() != Some(WORKER_ARG) {
        return None;
    }
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("mp worker: cannot read request: {e}");
        return Some(std::process::ExitCode::FAILURE);
    }
    let req: WorkerRequest = match serde_json::from_str(&input) {
        Ok(req) => req,
        Err(e) => {
            eprintln!("mp worker: malformed request: {e:?}");
            return Some(std::process::ExitCode::FAILURE);
        }
    };
    let fault = FaultPlan::from_env().for_worker(req.index, req.attempt);
    match fault {
        Some(WorkerFault::Panic) => {
            panic!(
                "ECNUDP_FAULT: injected panic in worker {} (attempt {})",
                req.index, req.attempt
            );
        }
        Some(WorkerFault::Hang) => {
            eprintln!(
                "[fault] worker {} hanging (attempt {})",
                req.index, req.attempt
            );
            loop {
                std::thread::sleep(Duration::from_secs(60));
            }
        }
        _ => {}
    }
    let payload = run_worker_sabotaged(&req, fault);
    let json = match serde_json::to_string(&payload) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("mp worker: cannot serialize payload: {e:?}");
            return Some(std::process::ExitCode::FAILURE);
        }
    };
    let bytes: &[u8] = match fault {
        // exit 0 with a half-written payload: the nastier corruption case
        // (a crash at least reports a status; this one lies)
        Some(WorkerFault::TruncatePayload) => &json.as_bytes()[..json.len() / 2],
        Some(WorkerFault::CorruptJson) => b"{\"aggregates\": not json at all",
        _ => json.as_bytes(),
    };
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(bytes).and_then(|()| out.flush()) {
        eprintln!("mp worker: cannot write payload: {e}");
        return Some(std::process::ExitCode::FAILURE);
    }
    Some(std::process::ExitCode::SUCCESS)
}

// ------------------------------------------------------------ parent side

/// Resolve the worker executable: [`WORKER_EXE_ENV`] override, else this
/// very binary.
fn worker_exe() -> Result<PathBuf, MpError> {
    if let Some(exe) = std::env::var_os(WORKER_EXE_ENV) {
        return Ok(exe.into());
    }
    std::env::current_exe()
        .map_err(|e| MpError::Internal(format!("cannot resolve the worker executable: {e}")))
}

/// Clamp an over-provisioned worker count to the remaining unit pool:
/// spawning more processes than units would pay a full per-worker
/// blueprint build for an empty slice. Zero remaining units (a resume
/// that already completed everything) need zero workers.
fn clamped_processes(requested: usize, remaining: usize) -> usize {
    requested.min(remaining).max(usize::from(remaining > 0))
}

/// The parent's unit assignment: deal the not-yet-completed canonical
/// indices round-robin by position. Mirror of [`worker_partition`].
fn partition_assignments(
    total_units: usize,
    completed: &BTreeSet<usize>,
    processes: usize,
) -> Vec<Vec<usize>> {
    let mut assignments = vec![Vec::new(); processes];
    for (position, ci) in (0..total_units)
        .filter(|i| !completed.contains(i))
        .enumerate()
    {
        assignments[position % processes].push(ci);
    }
    assignments
}

/// Compact human description of a worker's unit slice, for error
/// messages and events: count plus the first few canonical indices.
fn describe_units(assigned: &[usize], total: usize) -> String {
    let head: Vec<String> = assigned.iter().take(8).map(|i| i.to_string()).collect();
    let ellipsis = if assigned.len() > 8 { ", …" } else { "" };
    format!(
        "{} of {} unit(s) (canonical indices [{}{}])",
        assigned.len(),
        total,
        head.join(", "),
        ellipsis
    )
}

/// Exponential backoff before retry `attempt` (0-based): 50 ms doubling,
/// capped at 2 s — long enough to ride out transient spawn pressure,
/// short enough to be invisible next to a campaign.
fn retry_backoff(attempt: u32) -> Duration {
    Duration::from_millis((50u64 << attempt.min(5)).min(2_000))
}

/// One supervisor→parent message.
enum SupMsg {
    /// An attempt failed; the supervisor retries iff `will_retry`.
    Failed {
        worker: usize,
        attempt: u32,
        cause: String,
        will_retry: bool,
    },
    /// The worker slot delivered its payload.
    Done {
        worker: usize,
        payload: Box<WorkerPayload>,
    },
    /// The worker slot exhausted its retry budget.
    Fatal { error: MpError },
}

/// Run one worker attempt end to end: spawn, feed the request, relay
/// stderr with a `[worker N]` tag, await the payload (optionally under a
/// deadline), classify any failure.
fn run_attempt(
    exe: &Path,
    req_json: &str,
    worker: usize,
    timeout: Option<Duration>,
) -> Result<WorkerPayload, MpFailure> {
    let mut child = Command::new(exe)
        .arg(WORKER_ARG)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(MpFailure::Spawn)?;

    // Line-tagging stderr relay: concurrent workers' diagnostics (and
    // panics) interleave on the parent's stderr line-by-line, each line
    // attributable to its worker.
    let stderr = child.stderr.take().expect("stderr is piped");
    let relay = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            match line {
                Ok(line) => eprintln!("[worker {worker}] {line}"),
                Err(_) => break,
            }
        }
    });

    // Feed the request. A worker that died before reading gives a pipe
    // error here; the exit status (checked below) is the primary cause.
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let write_result = stdin
        .write_all(req_json.as_bytes())
        .and_then(|()| stdin.flush());
    drop(stdin); // EOF: the worker's read_to_string returns

    // Read the payload on a helper thread so a deadline can interrupt
    // the wait (there is no portable non-blocking pipe read in std).
    let stdout = child.stdout.take().expect("stdout is piped");
    let (payload_tx, payload_rx) = mpsc::channel::<std::io::Result<String>>();
    let reader = std::thread::spawn(move || {
        let mut json = String::new();
        let result = {
            let mut stdout = stdout;
            stdout.read_to_string(&mut json).map(|_| json)
        };
        let _ = payload_tx.send(result);
    });

    let read = match timeout {
        None => payload_rx.recv().unwrap_or_else(|_| {
            Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "payload reader thread died",
            ))
        }),
        Some(deadline) => match payload_rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                let _ = relay.join();
                return Err(MpFailure::Hung { timeout: deadline });
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "payload reader thread died",
            )),
        },
    };
    let status = child.wait().map_err(MpFailure::Wait)?;
    let _ = reader.join();
    let _ = relay.join();

    if !status.success() {
        return Err(MpFailure::Crashed {
            code: status.code(),
        });
    }
    if let Err(e) = write_result {
        return Err(MpFailure::RequestWrite(e));
    }
    let json = read.map_err(MpFailure::PayloadRead)?;
    serde_json::from_str(&json).map_err(|e| MpFailure::Malformed {
        detail: format!("{e:?}"),
        payload_bytes: json.len(),
    })
}

/// The per-slot supervisor loop: bounded-retry [`run_attempt`] with
/// exponential backoff, reporting every outcome to the parent channel.
fn supervise_worker(
    exe: &Path,
    mut req: WorkerRequest,
    units_desc: &str,
    max_retries: u32,
    timeout: Option<Duration>,
    tx: &mpsc::Sender<SupMsg>,
) {
    let worker = req.index;
    let mut attempt = 0u32;
    loop {
        req.attempt = attempt;
        let req_json = match serde_json::to_string(&req) {
            Ok(json) => json,
            Err(e) => {
                let _ = tx.send(SupMsg::Fatal {
                    error: MpError::Internal(format!("serialize worker {worker} request: {e:?}")),
                });
                return;
            }
        };
        match run_attempt(exe, &req_json, worker, timeout) {
            Ok(payload) => {
                let _ = tx.send(SupMsg::Done {
                    worker,
                    payload: Box::new(payload),
                });
                return;
            }
            Err(failure) => {
                let will_retry = attempt < max_retries;
                let _ = tx.send(SupMsg::Failed {
                    worker,
                    attempt,
                    cause: failure.to_string(),
                    will_retry,
                });
                if !will_retry {
                    let _ = tx.send(SupMsg::Fatal {
                        error: MpError::RetriesExhausted {
                            worker,
                            units: units_desc.to_string(),
                            attempts: attempt + 1,
                            last: failure,
                        },
                    });
                    return;
                }
                std::thread::sleep(retry_backoff(attempt));
                attempt += 1;
            }
        }
    }
}

/// The supervised multi-process engine driver (any configuration with
/// `processes > 1`, a checkpoint sink, or a resume source): blueprint +
/// discovery here, probing in spawned workers under per-slot
/// supervisors, incremental checkpointing, hierarchical merge of the
/// payloads. Byte-identical to the in-process engine for any process
/// count, retry schedule, or resume partition.
pub(crate) fn run_multiprocess<S: Subscriber>(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    eng: &EngineConfig,
    subscriber: &mut S,
) -> Result<EngineRun, MpError> {
    let wall0 = Instant::now();
    let mut timing = EngineTiming::default();
    let plan = plan_with_churn(plan, cfg);
    let faults = FaultPlan::from_env();
    if !faults.is_empty() {
        eprintln!("mp: ECNUDP_FAULT is set — fault injection active");
    }

    // Phase 1–2 (parent): blueprint + discovery, exactly as in-process.
    let t0 = Instant::now();
    let bp = WorldBlueprint::build(&plan, cfg.seed);
    timing.blueprint_build = t0.elapsed();
    let t0 = Instant::now();
    let mut disco_world = bp.instantiate();
    let discovery = discover_in(&mut disco_world, cfg);
    timing.discovery = t0.elapsed();
    let targets = discovery.targets.clone();

    let vantage_count = disco_world.vantages.len();
    let chunks = eng.target_chunks.max(1);
    let total_units = vantage_count * chunks;
    let fingerprint = campaign_fingerprint(&plan, cfg, chunks)?;

    // Resume: load, verify identity, seed the merge with saved state.
    let mut completed: BTreeSet<usize> = BTreeSet::new();
    let mut merged_parts: Vec<ShardReducers> = Vec::new();
    if let Some(resume_path) = &eng.resume {
        let ck = read_checkpoint(resume_path)?;
        let mismatch = |detail: String| MpError::Checkpoint {
            path: resume_path.clone(),
            detail,
        };
        if ck.fingerprint != fingerprint {
            return Err(mismatch(format!(
                "belongs to a different campaign (fingerprint {:#018x}, this run is {:#018x}); \
                 resume must use the same scenario, seed, and target_chunks",
                ck.fingerprint, fingerprint
            )));
        }
        if ck.unit_count != total_units {
            return Err(mismatch(format!(
                "records {} units, this campaign has {total_units}",
                ck.unit_count
            )));
        }
        if let Some(&bad) = ck.completed.iter().find(|&&i| i >= total_units) {
            return Err(mismatch(format!(
                "completed unit index {bad} out of range (unit count {total_units})"
            )));
        }
        completed = ck.completed.iter().copied().collect();
        eprintln!(
            "resuming from {}: {}/{} units already complete",
            resume_path.display(),
            completed.len(),
            total_units
        );
        merged_parts.push(ck.aggregates);
    }
    let skip: Vec<usize> = completed.iter().copied().collect();
    let remaining = total_units - completed.len();

    if S::ENABLED {
        subscriber.on_event(&Event::CampaignStarted {
            vantages: vantage_count,
            units: remaining,
            targets: targets.len(),
        });
    }

    let requested = eng.processes.max(1);
    let processes = clamped_processes(requested, remaining);
    if processes < requested {
        eprintln!(
            "mp: clamping {requested} worker processes to {processes} \
             ({remaining} unit(s) to run)"
        );
        if S::ENABLED {
            subscriber.on_event(&Event::WorkersClamped {
                requested,
                spawned: processes,
            });
        }
    }

    let mut units_run = 0usize;
    let mut shards = 0usize;
    let mut peak_rss = 0u64;
    let mut worker_merge_depth = 0usize;
    let mut fatal: Option<MpError> = None;

    if processes > 0 {
        let exe = worker_exe()?;
        let assignments = partition_assignments(total_units, &completed, processes);
        let unit_descs: Vec<String> = assignments
            .iter()
            .map(|a| describe_units(a, total_units))
            .collect();
        let timeout = eng.worker_timeout;
        let max_retries = eng.max_worker_retries;

        // One supervisor thread per worker slot; the parent thread sits
        // in the channel, merging payloads as they land (and writing the
        // checkpoint after each) so a crash of the *parent* loses at
        // most the in-flight workers.
        let (tx, rx) = mpsc::channel::<SupMsg>();
        let mut payloads_merged = 0usize;
        crossbeam::thread::scope(|scope| {
            for (index, units_desc) in unit_descs.iter().enumerate() {
                let tx = tx.clone();
                let exe = &exe;
                let req = WorkerRequest {
                    plan: plan.clone(),
                    cfg: *cfg,
                    targets: targets.clone(),
                    target_chunks: eng.target_chunks,
                    shards: eng.shards,
                    unit_order: eng.unit_order,
                    processes,
                    index,
                    skip: skip.clone(),
                    attempt: 0,
                };
                scope.spawn(move |_| {
                    supervise_worker(exe, req, units_desc, max_retries, timeout, &tx);
                });
            }
            drop(tx);

            let mut pending = processes;
            while pending > 0 {
                let msg = match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break, // all supervisors gone
                };
                match msg {
                    SupMsg::Failed {
                        worker,
                        attempt,
                        cause,
                        will_retry,
                    } => {
                        eprintln!(
                            "mp: worker {worker} attempt {attempt} failed ({cause}); {}",
                            if will_retry {
                                "retrying its unit slice"
                            } else {
                                "retry budget exhausted"
                            }
                        );
                        if S::ENABLED {
                            subscriber.on_event(&Event::WorkerFailed {
                                worker,
                                attempt,
                                units: assignments[worker].len(),
                                cause: &cause,
                                will_retry,
                            });
                            if will_retry {
                                for &ci in &assignments[worker] {
                                    subscriber.on_event(&Event::UnitRetried {
                                        unit: UnitId {
                                            vantage: ci / chunks,
                                            chunk: ci % chunks,
                                        },
                                        worker,
                                        attempt: attempt + 1,
                                    });
                                }
                            }
                        }
                    }
                    SupMsg::Done { worker, payload } => {
                        pending -= 1;
                        units_run += payload.units;
                        shards += payload.shards;
                        peak_rss = peak_rss.max(payload.peak_rss_kb);
                        worker_merge_depth = worker_merge_depth.max(merge_depth(payload.shards));
                        timing.instantiate += payload.timing.instantiate;
                        timing.probe += payload.timing.probe;
                        timing.reduce += payload.timing.reduce;
                        if S::ENABLED {
                            subscriber.on_event(&Event::WorkerFinished {
                                worker,
                                units: payload.units,
                                observations: payload.counters.observations,
                            });
                        }
                        completed.extend(assignments[worker].iter().copied());
                        merged_parts.push(payload.aggregates);
                        payloads_merged += 1;
                        if let Some(ck_path) = &eng.checkpoint {
                            let written = Checkpoint::new(
                                fingerprint,
                                total_units,
                                completed.iter().copied().collect(),
                                merge_tree(merged_parts.clone()),
                            )
                            .and_then(|ck| write_checkpoint(ck_path, &ck));
                            if let Err(e) = written {
                                fatal.get_or_insert(e);
                            } else if S::ENABLED {
                                subscriber.on_event(&Event::CheckpointWritten {
                                    completed_units: completed.len(),
                                    total_units,
                                });
                            }
                        }
                        if faults.parent_exit_after_payloads == Some(payloads_merged) {
                            eprintln!("[fault] parent exiting after {payloads_merged} payload(s)");
                            std::process::exit(PARENT_EXIT_CODE);
                        }
                    }
                    SupMsg::Fatal { error } => {
                        pending -= 1;
                        fatal.get_or_insert(error);
                    }
                }
            }
        })
        .map_err(|_| MpError::Internal("a supervisor thread panicked".into()))?;
    }

    if let Some(error) = fatal {
        return Err(error);
    }

    // Phase 5 (parent): hierarchical merge of resumed state + payloads.
    let t0 = Instant::now();
    let part_count = merged_parts.len();
    let aggregates = merge_tree(merged_parts);
    timing.reduce += t0.elapsed();
    timing.wall = wall0.elapsed();

    let result = finish(
        disco_world,
        targets,
        DiscoveryStats::from(&discovery),
        aggregates,
    );
    Ok(EngineRun {
        result,
        timing,
        shards,
        units: units_run,
        processes: processes.max(1),
        merge_depth: worker_merge_depth + merge_depth(part_count),
        peak_rss_kb: peak_rss.max(self::peak_rss_kb()),
    })
}

/// This process's peak resident set size (`VmHWM`) in kB, from
/// `/proc/self/status`. A per-process high-water mark: it only ever
/// grows, which is exactly the gauge the megapool memory claim needs
/// (each process reports its own ceiling). Returns 0 where procfs is
/// unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bare_request(processes: usize, index: usize) -> WorkerRequest {
        WorkerRequest {
            plan: PoolPlan::scaled(24),
            cfg: CampaignConfig::quick(7),
            targets: Vec::new(),
            target_chunks: 3,
            shards: Some(2),
            unit_order: UnitOrder::AsScheduled,
            processes,
            index,
            skip: Vec::new(),
            attempt: 0,
        }
    }

    #[test]
    fn round_robin_partition_covers_every_canonical_unit_once() {
        // union over workers == canonical list, pairwise disjoint
        for processes in 1..=5usize {
            let mut seen = [0u32; 13 * 3];
            for index in 0..processes {
                let mut req = bare_request(processes, index);
                req.target_chunks = 3;
                for u in worker_partition(&req, 13, 3) {
                    seen[u.vantage * 3 + u.chunk] += 1;
                }
            }
            assert!(
                seen.iter().all(|&n| n == 1),
                "partition must be exact for P = {processes}"
            );
        }
    }

    #[test]
    fn partition_with_skip_covers_exactly_the_remaining_units() {
        // parent-side assignment and worker-side partition must agree
        let total = 13 * 2;
        let completed: BTreeSet<usize> = [0usize, 3, 4, 7, 20].into_iter().collect();
        for processes in 1..=4usize {
            let assignments = partition_assignments(total, &completed, processes);
            let mut seen = vec![0u32; total];
            for (index, assigned) in assignments.iter().enumerate() {
                let mut req = bare_request(processes, index);
                req.target_chunks = 2;
                req.skip = completed.iter().copied().collect();
                let units = worker_partition(&req, 13, 2);
                assert_eq!(
                    units.len(),
                    assigned.len(),
                    "worker {index}/{processes} slice size"
                );
                for (u, &ci) in units.iter().zip(assigned) {
                    assert_eq!(u.vantage * 2 + u.chunk, ci, "canonical index mismatch");
                    seen[ci] += 1;
                }
            }
            for (ci, &n) in seen.iter().enumerate() {
                let expect = u32::from(!completed.contains(&ci));
                assert_eq!(n, expect, "unit {ci} coverage at P = {processes}");
            }
        }
    }

    #[test]
    fn request_and_payload_round_trip() {
        let req = WorkerRequest {
            plan: PoolPlan::scaled(24),
            cfg: CampaignConfig::quick(7),
            targets: vec![Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)],
            target_chunks: 3,
            shards: Some(2),
            unit_order: UnitOrder::Shuffled(9),
            processes: 4,
            index: 2,
            skip: vec![1, 5, 9],
            attempt: 3,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: WorkerRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);

        let counters = WorkerCounters {
            observations: 5,
            delivered: 17,
            dropped: [("loss".to_string(), 2u64)].into_iter().collect(),
            ..WorkerCounters::default()
        };
        let payload = WorkerPayload {
            aggregates: ShardReducers::default(),
            units: 6,
            shards: 2,
            timing: EngineTiming::default(),
            peak_resident_traces: 0,
            peak_rss_kb: 1234,
            counters,
        };
        let json = serde_json::to_string(&payload).unwrap();
        let back: WorkerPayload = serde_json::from_str(&json).unwrap();
        assert_eq!(back.units, 6);
        assert_eq!(back.peak_rss_kb, 1234);
        assert_eq!(back.counters.dropped["loss"], 2);
        assert_eq!(back.counters, payload.counters);
    }

    #[test]
    fn checkpoint_round_trips_through_the_atomic_writer() {
        let dir = std::env::temp_dir().join(format!("ecnudp-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ck");
        let ck = Checkpoint::new(0xdead_beef, 26, vec![0, 3, 7], ShardReducers::default()).unwrap();
        write_checkpoint(&path, &ck).unwrap();
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(back.fingerprint, 0xdead_beef);
        assert_eq!(back.unit_count, 26);
        assert_eq!(back.completed, vec![0, 3, 7]);
        // overwrite is atomic-by-rename: a second write replaces cleanly
        write_checkpoint(&path, &ck).unwrap();
        assert!(read_checkpoint(&path).is_ok());
        // version gate
        let mut old = ck.clone();
        old.version = 99;
        write_checkpoint(&path, &old).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains("schema version 99"), "{err}");
        // content gate: contents that no longer hash to the recorded
        // checksum are refused, naming the file
        let mut edited = ck.clone();
        edited.completed.push(9);
        write_checkpoint(&path, &edited).unwrap();
        let err = read_checkpoint(&path).unwrap_err().to_string();
        assert!(err.contains("content checksum mismatch"), "{err}");
        assert!(err.contains("campaign.ck"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_pins_plan_config_and_chunking() {
        let plan = PoolPlan::scaled(24);
        let cfg = CampaignConfig::quick(7);
        let base = campaign_fingerprint(&plan, &cfg, 2).unwrap();
        assert_eq!(base, campaign_fingerprint(&plan, &cfg, 2).unwrap());
        assert_ne!(base, campaign_fingerprint(&plan, &cfg, 3).unwrap());
        let other_cfg = CampaignConfig::quick(8);
        assert_ne!(base, campaign_fingerprint(&plan, &other_cfg, 2).unwrap());
        let other_plan = PoolPlan::scaled(25);
        assert_ne!(base, campaign_fingerprint(&other_plan, &cfg, 2).unwrap());
    }

    #[test]
    fn backoff_is_bounded_and_monotone() {
        let mut last = Duration::ZERO;
        for attempt in 0..10 {
            let b = retry_backoff(attempt);
            assert!(b >= last, "backoff must not shrink");
            assert!(b <= Duration::from_secs(2), "backoff is capped");
            last = b;
        }
        assert_eq!(retry_backoff(0), Duration::from_millis(50));
    }

    #[test]
    fn worker_count_clamps_to_the_unit_pool() {
        // the satellite boundary: 1 unit, 8 requested processes → 1 worker
        assert_eq!(clamped_processes(8, 1), 1);
        assert_eq!(clamped_processes(8, 0), 0, "nothing left → no workers");
        assert_eq!(clamped_processes(2, 13), 2, "under-provisioned is kept");
        assert_eq!(clamped_processes(13, 13), 13);
        // and the clamped count still partitions every unit exactly once
        let assigned = partition_assignments(1, &BTreeSet::new(), clamped_processes(8, 1));
        assert_eq!(assigned, vec![vec![0]]);
    }

    #[test]
    fn error_display_names_worker_and_units() {
        let err = MpError::RetriesExhausted {
            worker: 3,
            units: describe_units(&[3, 7, 11], 13),
            attempts: 4,
            last: MpFailure::Crashed { code: Some(101) },
        };
        let msg = err.to_string();
        assert!(msg.contains("worker 3"), "{msg}");
        assert!(msg.contains("4 attempt(s)"), "{msg}");
        assert!(msg.contains("3 of 13 unit(s)"), "{msg}");
        assert!(msg.contains("[3, 7, 11]"), "{msg}");
        assert!(msg.contains("exit code 101"), "{msg}");
    }

    #[test]
    fn in_process_worker_partitions_merge_to_the_full_campaign() {
        // Drive run_worker directly (no spawning): merging every
        // partition's aggregates must equal the naive one-unit-at-a-time
        // campaign.
        let plan = PoolPlan::scaled(24);
        let cfg = CampaignConfig {
            discovery_rounds: 20,
            traces_per_vantage: Some(1),
            run_traceroute: false,
            ..CampaignConfig::quick(11)
        };
        // target_chunks is a *world-shaping* knob (each chunk probes from
        // its own unit world), so the baseline must use the same chunking
        // as the workers; processes/shards/orders are the invariant axes.
        let baseline = crate::naive::naive_campaign(&plan, &cfg, 2);
        let targets = baseline.targets.clone();
        let processes = 3;
        let payloads: Vec<WorkerPayload> = (0..processes)
            .map(|index| {
                run_worker(&WorkerRequest {
                    plan: plan_with_churn(&plan, &cfg),
                    cfg,
                    targets: targets.clone(),
                    target_chunks: 2,
                    shards: Some(2),
                    unit_order: UnitOrder::Reversed,
                    processes,
                    index,
                    skip: Vec::new(),
                    attempt: 0,
                })
            })
            .collect();
        let total_units: usize = payloads.iter().map(|p| p.units).sum();
        assert_eq!(total_units, 13 * 2, "every (vantage × chunk) unit ran once");
        let observations: u64 = payloads.iter().map(|p| p.counters.observations).sum();
        assert_eq!(observations, 13 * targets.len() as u64);
        assert!(payloads.iter().all(|p| p.counters.delivered > 0));
        let merged = merge_tree(payloads.into_iter().map(|p| p.aggregates).collect());
        assert_eq!(merged, baseline.aggregates);
    }
}
