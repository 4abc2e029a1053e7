//! Multi-process shard mode: partition the engine's remaining unit pool
//! across child **processes**, each running its own shard pool, and
//! tree-merge their serialized reducers in the parent — under a
//! supervisor that retries failed workers — plus the checkpoint files
//! the engine writes and resumes from at any process count.
//!
//! ## Why processes
//!
//! Shards bound wall-clock; processes isolate faults and split the
//! per-unit memory. Every reducer map a shard touches lives until the
//! final merge, and every concurrently instantiated unit world lives
//! while it probes. The reducer contract (commutative, associative
//! merge) was designed so shards can live anywhere; this module puts
//! them behind a pipe. What each process holds:
//!
//! - **Every process** holds one [`WorldBlueprint`], about 2.5 KB per
//!   server (the skeleton, the databases, the DNS zone, the population).
//!   That is the floor `--processes` does not divide.
//! - **The parent** (the engine, `crate::engine`) builds it, discovers
//!   in a world without server stacks (1.5 MiB at 8 000 servers, against
//!   29 MiB for a full world), and drops both before the workers start.
//!   It then holds only the targets, the shared databases and the
//!   payloads it merges.
//! - **A worker** rebuilds the blueprint, then holds its partition's
//!   unit worlds and partial aggregates.
//!
//! At 50 000 servers (`scenarios/megapool-smoke.toml`, 2 processes) the
//! parent peaks at 165 MB and each worker at 230 MB, against 248 MB for
//! one process; the blueprint is 123 MB of each.
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
//! [`CampaignAggregates`], timing breakdown, peak-RSS gauge, and the
//! [`UnitRecord`] of every unit it ran ([`WorkerCounters`]). The parent
//! re-emits those records as [`Event::UnitFinished`], so subscribers see
//! the same per-unit stream under any process count. Worker stderr is piped
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
//! Supervision applies to worker processes only: with `processes = 1`
//! nothing is spawned, so there is nothing to retry or time out. Each
//! worker slot gets a supervisor thread running a bounded retry
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
//! With [`EngineConfig::checkpoint`] set, the engine persists a
//! [`Checkpoint`] — merged-so-far aggregates plus the completed-unit
//! bitmap — via the atomic same-directory temp+rename pattern: after
//! every worker payload under `processes > 1`, once when the units finish
//! in-process. [`EngineConfig::resume`] loads one, verifies its content
//! checksum and campaign fingerprint, and re-runs only the units absent
//! from the bitmap, at any process count; the commutative merge makes the
//! stitched result byte-identical to an uninterrupted run.
//!
//! ## Determinism
//!
//! The partition is over *canonical* unit indices, reducers are
//! commutative and associative, and every unit's RNG domain derives from
//! its identity — so process count, retry schedule, and resume
//! partitioning, like shard count and unit order, cannot change any
//! result byte.

use crate::config::CampaignConfig;
use crate::engine::{
    apply_unit_order, per_vantage_schedule, run_unit_pool, EngineConfig, EngineTiming, Ran,
    UnitOrder,
};
use crate::events::{Event, Subscriber, UnitId, UnitRecord};
use crate::fault::{FaultPlan, WorkerFault, CRASH_EXIT_CODE, PARENT_EXIT_CODE};
use crate::reducers::{merge_depth, merge_tree, CampaignAggregates};
use ecn_pool::{PoolPlan, WorldBlueprint};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
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

/// The per-unit records a worker sends home: one [`UnitRecord`] per unit
/// it ran, sorted by unit — the records its units emitted as
/// [`Event::UnitFinished`], collected by this type as the worker's
/// subscriber. The parent re-emits each one, so `--metrics` and
/// `--progress` read the same under any process count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerCounters {
    /// `(unit, record)` for every unit the worker ran.
    pub units: Vec<(UnitId, UnitRecord)>,
}

impl Subscriber for WorkerCounters {
    fn fork(&self) -> Self {
        WorkerCounters::default()
    }

    fn on_event(&mut self, event: &Event<'_>) {
        if let Event::UnitFinished { unit, record } = event {
            self.units.push((*unit, (*record).clone()));
        }
    }

    fn merge(&mut self, other: Self) {
        self.units.extend(other.units);
    }
}

/// One worker's results, shipped as JSON on its stdout.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerPayload {
    /// The worker's tree-merged partial aggregates.
    pub aggregates: CampaignAggregates,
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
    /// The per-unit records of every unit the worker ran.
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
/// [`Checkpoint::checksum`]; 3 dropped the aggregates' second and third
/// trace counts, leaving [`crate::reducers::TraceStats`] the only one).
pub const CHECKPOINT_VERSION: u32 = 3;

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
    pub aggregates: CampaignAggregates,
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
        aggregates: CampaignAggregates,
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
/// file, then rename over the target (a reader, or a resume after a
/// crash mid-write, sees either the old complete file or the new
/// complete file, never a torn one).
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

/// The canonical units a campaign has completed and their aggregates:
/// nothing for a fresh run, a verified checkpoint's bitmap and
/// aggregates for a resumed one, and more as units finish — a worker
/// payload at a time under `processes > 1`, all at once in-process. The
/// engine keeps one per campaign; it is what a checkpoint persists.
pub(crate) struct Completed {
    /// The campaign identity checkpoints are pinned to.
    fingerprint: u64,
    /// Canonical units in the campaign.
    total_units: usize,
    /// Canonical indices of the completed units.
    units: BTreeSet<usize>,
    /// Aggregates of the completed units, one part per resumed
    /// checkpoint or finished batch, merged only at the end.
    parts: Vec<CampaignAggregates>,
}

impl Completed {
    /// Start a campaign of `total_units` units: from nothing, or
    /// from the checkpoint at `resume` once its version, checksum and
    /// campaign identity check out.
    pub(crate) fn start(
        plan: &PoolPlan,
        cfg: &CampaignConfig,
        chunks: usize,
        total_units: usize,
        resume: Option<&Path>,
    ) -> Result<Completed, MpError> {
        let mut completed = Completed {
            fingerprint: campaign_fingerprint(plan, cfg, chunks)?,
            total_units,
            units: BTreeSet::new(),
            parts: Vec::new(),
        };
        if let Some(path) = resume {
            let ck = completed.verify(path)?;
            eprintln!(
                "resuming from {}: {}/{} units already complete",
                path.display(),
                ck.completed.len(),
                total_units
            );
            completed.units.extend(ck.completed);
            completed.parts.push(ck.aggregates);
        }
        Ok(completed)
    }

    /// Read the checkpoint at `path` ([`read_checkpoint`]) and check that
    /// it belongs to this campaign.
    fn verify(&self, path: &Path) -> Result<Checkpoint, MpError> {
        let ck = read_checkpoint(path)?;
        let mismatch = |detail: String| MpError::Checkpoint {
            path: path.to_path_buf(),
            detail,
        };
        if ck.fingerprint != self.fingerprint {
            return Err(mismatch(format!(
                "belongs to a different campaign (fingerprint {:#018x}, this run is {:#018x}); \
                 resume must use the same scenario, seed, and target_chunks",
                ck.fingerprint, self.fingerprint
            )));
        }
        if ck.unit_count != self.total_units {
            return Err(mismatch(format!(
                "records {} units, this campaign has {}",
                ck.unit_count, self.total_units
            )));
        }
        if let Some(&bad) = ck.completed.iter().find(|&&i| i >= self.total_units) {
            return Err(mismatch(format!(
                "completed unit index {bad} out of range (unit count {})",
                self.total_units
            )));
        }
        Ok(ck)
    }

    /// The completed canonical indices, ascending: every partition skips
    /// them.
    fn skip(&self) -> Vec<usize> {
        self.units.iter().copied().collect()
    }

    /// The canonical indices still to run, ascending.
    pub(crate) fn remaining(&self) -> Vec<usize> {
        (0..self.total_units)
            .filter(|i| !self.units.contains(i))
            .collect()
    }

    /// Record `units` (canonical indices) as complete with their
    /// aggregates.
    pub(crate) fn add(&mut self, units: &[usize], aggregates: CampaignAggregates) {
        self.units.extend(units.iter().copied());
        self.parts.push(aggregates);
    }

    /// Persist what is complete so far to `path`, when one is set, and
    /// tell the subscriber.
    pub(crate) fn checkpoint<S: Subscriber>(
        &self,
        path: Option<&Path>,
        subscriber: &mut S,
    ) -> Result<(), MpError> {
        let Some(path) = path else {
            return Ok(());
        };
        let ck = Checkpoint::new(
            self.fingerprint,
            self.total_units,
            self.skip(),
            merge_tree(self.parts.clone()),
        )?;
        write_checkpoint(path, &ck)?;
        if S::ENABLED {
            subscriber.on_event(&Event::CheckpointWritten {
                completed_units: self.units.len(),
                total_units: self.total_units,
            });
        }
        Ok(())
    }

    /// The campaign's aggregates: every part tree-merged, and how many
    /// parts there were.
    pub(crate) fn merge(self) -> (CampaignAggregates, usize) {
        let parts = self.parts.len();
        (merge_tree(self.parts), parts)
    }
}

// ------------------------------------------------------------ worker side

/// This worker's slice of the parent's assignment
/// ([`partition_assignments`]), each canonical index mapped back to its
/// (vantage, chunk) unit. An `index` at or past `processes` gets an empty
/// slice.
fn worker_partition(req: &WorkerRequest, vantage_count: usize, chunks: usize) -> Vec<UnitId> {
    let processes = req.processes.max(1);
    let assigned = partition_assignments(vantage_count * chunks, &req.skip, processes)
        .into_iter()
        .nth(req.index)
        .unwrap_or_default();
    assigned.iter().map(|&i| UnitId::at(i, chunks)).collect()
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
    let mut counters = WorkerCounters::default();
    let wall0 = Instant::now();
    let pool = run_unit_pool(
        &bp,
        &req.targets,
        &per_vantage_sched,
        &units,
        chunks,
        &req.cfg,
        &eng,
        &mut counters,
        &mut timing,
    );
    counters.units.sort_by_key(|&(unit, _)| unit);
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
        counters,
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

/// The unit assignment, computed by the parent and by each worker alike:
/// deal the canonical indices not in `skip` (sorted) round-robin by
/// position.
fn partition_assignments(total_units: usize, skip: &[usize], processes: usize) -> Vec<Vec<usize>> {
    let mut assignments = vec![Vec::new(); processes];
    for (position, ci) in (0..total_units)
        .filter(|i| skip.binary_search(i).is_err())
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

/// Run the remaining units of `completed` in `eng.processes` supervised
/// worker processes (clamped to the units left): probing in spawned
/// workers under per-slot supervisors, each payload added to `completed`
/// (and checkpointed) as it lands, and each worker's unit records
/// re-emitted as [`Event::UnitFinished`]. `plan` is the churned plan the
/// engine discovered in; the engine has dropped its blueprint, so the
/// parent stamps no world while the workers run. Byte-identical to the
/// in-process engine for any process count, retry schedule, or resume
/// partition.
pub(crate) fn run_supervised<S: Subscriber>(
    plan: &PoolPlan,
    cfg: &CampaignConfig,
    eng: &EngineConfig,
    targets: &[Ipv4Addr],
    completed: &mut Completed,
    subscriber: &mut S,
    timing: &mut EngineTiming,
) -> Result<Ran, MpError> {
    let faults = FaultPlan::from_env();
    if !faults.is_empty() {
        eprintln!("mp: ECNUDP_FAULT is set — fault injection active");
    }
    let chunks = eng.target_chunks.max(1);
    let total_units = completed.total_units;
    let skip = completed.skip();
    let remaining = total_units - skip.len();

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

    let mut ran = Ran {
        shards: 0,
        processes: processes.max(1),
        merge_depth: 0,
        worker_peaks: vec![0; processes],
    };
    if processes == 0 {
        return Ok(ran);
    }
    let mut fatal: Option<MpError> = None;
    let exe = worker_exe()?;
    let assignments = partition_assignments(total_units, &skip, processes);
    let unit_descs: Vec<String> = assignments
        .iter()
        .map(|a| describe_units(a, total_units))
        .collect();
    let timeout = eng.worker_timeout;
    let max_retries = eng.max_worker_retries;

    // One supervisor thread per worker slot; the parent thread sits in
    // the channel, merging payloads as they land (and writing the
    // checkpoint after each) so a crash of the *parent* loses at most the
    // in-flight workers.
    let (tx, rx) = mpsc::channel::<SupMsg>();
    let mut payloads_merged = 0usize;
    std::thread::scope(|scope| {
        for (index, units_desc) in unit_descs.iter().enumerate() {
            let tx = tx.clone();
            let exe = &exe;
            let req = WorkerRequest {
                plan: plan.clone(),
                cfg: *cfg,
                targets: targets.to_vec(),
                target_chunks: eng.target_chunks,
                shards: eng.shards,
                unit_order: eng.unit_order,
                processes,
                index,
                skip: skip.clone(),
                attempt: 0,
            };
            scope.spawn(move || {
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
                                    unit: UnitId::at(ci, chunks),
                                    worker,
                                    attempt: attempt + 1,
                                });
                            }
                        }
                    }
                }
                SupMsg::Done { worker, payload } => {
                    pending -= 1;
                    let payload = *payload;
                    ran.shards += payload.shards;
                    ran.worker_peaks[worker] = payload.peak_rss_kb;
                    ran.merge_depth = ran.merge_depth.max(merge_depth(payload.shards));
                    timing.instantiate += payload.timing.instantiate;
                    timing.probe += payload.timing.probe;
                    timing.reduce += payload.timing.reduce;
                    if S::ENABLED {
                        let records = &payload.counters.units;
                        subscriber.on_event(&Event::WorkerFinished {
                            worker,
                            units: payload.units,
                            observations: records.iter().map(|(_, r)| r.observations).sum(),
                        });
                        for (unit, record) in records {
                            subscriber.on_event(&Event::UnitFinished {
                                unit: *unit,
                                record,
                            });
                        }
                    }
                    completed.add(&assignments[worker], payload.aggregates);
                    payloads_merged += 1;
                    if let Err(e) = completed.checkpoint(eng.checkpoint.as_deref(), subscriber) {
                        fatal.get_or_insert(e);
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
    });

    match fatal {
        Some(error) => Err(error),
        None => Ok(ran),
    }
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
    use crate::campaign::plan_with_churn;
    use proptest::prelude::*;
    use std::sync::OnceLock;

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
        // each worker's units map back to the parent's canonical indices,
        // and together they cover exactly the units not skipped
        let total = 13 * 2;
        let skip = vec![0usize, 3, 4, 7, 20];
        for processes in 1..=4usize {
            let assignments = partition_assignments(total, &skip, processes);
            let mut seen = vec![0u32; total];
            for (index, assigned) in assignments.iter().enumerate() {
                let mut req = bare_request(processes, index);
                req.target_chunks = 2;
                req.skip = skip.clone();
                let units = worker_partition(&req, 13, 2);
                let back: Vec<usize> = units.iter().map(|u| u.vantage * 2 + u.chunk).collect();
                assert_eq!(&back, assigned, "worker {index}/{processes} slice");
                for ci in back {
                    seen[ci] += 1;
                }
            }
            for (ci, &n) in seen.iter().enumerate() {
                let expect = u32::from(!skip.contains(&ci));
                assert_eq!(n, expect, "unit {ci} coverage at P = {processes}");
            }
            // a worker index past the process count gets nothing
            let stray = bare_request(processes, processes);
            assert!(worker_partition(&stray, 13, 2).is_empty());
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

        let record = UnitRecord {
            observations: 5,
            delivered: 17,
            dropped: [("loss".to_string(), 2u64)].into_iter().collect(),
            ..UnitRecord::default()
        };
        let counters = WorkerCounters {
            units: vec![(
                UnitId {
                    vantage: 4,
                    chunk: 1,
                },
                record,
            )],
        };
        let payload = WorkerPayload {
            aggregates: CampaignAggregates::default(),
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
        assert_eq!(back.counters.units[0].1.dropped["loss"], 2);
        assert_eq!(back.counters, payload.counters);
    }

    #[test]
    fn checkpoint_round_trips_through_the_atomic_writer() {
        let dir = std::env::temp_dir().join(format!("ecnudp-ck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.ck");
        let ck = Checkpoint::new(
            0xdead_beef,
            26,
            vec![0, 3, 7],
            CampaignAggregates::default(),
        )
        .unwrap();
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
        let assigned = partition_assignments(1, &[], clamped_processes(8, 1));
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
        // one record per unit it ran, in unit order, each with traffic
        for p in &payloads {
            let records = &p.counters.units;
            assert_eq!(records.len(), p.units);
            assert!(records.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(records
                .iter()
                .all(|(_, r)| r.traces == 1 && r.delivered > 0));
        }
        let observations: u64 = payloads
            .iter()
            .flat_map(|p| &p.counters.units)
            .map(|(_, r)| r.observations)
            .sum();
        assert_eq!(observations, 13 * targets.len() as u64);
        let merged = merge_tree(payloads.into_iter().map(|p| p.aggregates).collect());
        assert_eq!(merged, baseline.aggregates);
    }

    /// What crosses the worker pipe and the disk, as the real code writes
    /// it: a serialized worker request, the payload [`run_worker`]
    /// answers it with, and the checkpoint an in-process run writes —
    /// plus the same campaign's [`Completed`] to verify checkpoints
    /// against.
    struct Wire {
        request: String,
        payload: String,
        checkpoint: Vec<u8>,
        completed: Completed,
    }

    fn real_wire() -> &'static Wire {
        static WIRE: OnceLock<Wire> = OnceLock::new();
        WIRE.get_or_init(|| {
            let plan = PoolPlan::scaled(24);
            let cfg = CampaignConfig {
                discovery_rounds: 20,
                traces_per_vantage: Some(1),
                ..CampaignConfig::quick(5)
            };
            let path = scratch_file("real");
            let eng = EngineConfig {
                shards: Some(2),
                target_chunks: 2,
                checkpoint: Some(path.clone()),
                ..EngineConfig::default()
            };
            let run = crate::engine::try_run_engine(&plan, &cfg, &eng).unwrap();
            let checkpoint = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            let plan = plan_with_churn(&plan, &cfg);
            let req = WorkerRequest {
                plan: plan.clone(),
                cfg,
                targets: run.result.targets,
                target_chunks: 2,
                shards: Some(2),
                unit_order: UnitOrder::AsScheduled,
                processes: 2,
                index: 1,
                skip: vec![0, 5],
                attempt: 0,
            };
            let payload = serde_json::to_string(&run_worker(&req)).unwrap();
            Wire {
                request: serde_json::to_string(&req).unwrap(),
                payload,
                checkpoint,
                completed: Completed::start(&plan, &cfg, 2, 26, None).unwrap(),
            }
        })
    }

    /// A path in the temp directory that no other test process uses.
    fn scratch_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ecnudp-wire-{}-{name}.ck", std::process::id()))
    }

    /// Parse bytes the way the pipe's reader does: text first, then JSON.
    fn parse<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        serde_json::from_str(text).map_err(|e| format!("{e:?}"))
    }

    proptest! {
        #[test]
        fn truncated_or_flipped_pipe_and_checkpoint_bytes_are_refused_never_a_panic(
            cut in 0.0f64..1.0,
            flips in proptest::collection::vec((0.0f64..1.0, 1u8..=255), 1..5),
        ) {
            let wire = real_wire();
            let intact: Checkpoint = parse(&wire.checkpoint).unwrap();
            let file = scratch_file("mutated");
            let inputs: [(&str, &[u8]); 3] = [
                ("request", wire.request.as_bytes()),
                ("payload", wire.payload.as_bytes()),
                ("checkpoint", &wire.checkpoint),
            ];
            for (name, bytes) in inputs {
                let truncated = bytes[..(cut * bytes.len() as f64) as usize].to_vec();
                let mut flipped = bytes.to_vec();
                for &(at, mask) in &flips {
                    flipped[(at * bytes.len() as f64) as usize] ^= mask;
                }
                for (torn, mutated) in [(true, truncated), (false, flipped)] {
                    let refused = match name {
                        "request" => parse::<WorkerRequest>(&mutated).is_err(),
                        "payload" => parse::<WorkerPayload>(&mutated).is_err(),
                        _ => {
                            std::fs::write(&file, &mutated).unwrap();
                            match wire.completed.verify(&file) {
                                Err(MpError::Checkpoint { path, .. }) => {
                                    prop_assert_eq!(&path, &file, "the refusal names the file");
                                    true
                                }
                                Err(other) => panic!("untyped refusal: {other}"),
                                // a flip the parser cannot see (say `e` to
                                // `E` in a float) leaves the same content
                                Ok(ck) => {
                                    prop_assert_eq!(&ck.completed, &intact.completed);
                                    prop_assert_eq!(&ck.aggregates, &intact.aggregates);
                                    false
                                }
                            }
                        }
                    };
                    // a strict prefix of a JSON document never parses
                    prop_assert!(refused || !torn, "truncated {} at {} parsed", name, cut);
                }
            }
            let _ = std::fs::remove_file(&file);
        }
    }
}
