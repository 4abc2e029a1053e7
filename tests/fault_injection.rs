//! End-to-end fault-injection coverage for the supervised multi-process
//! driver, using **real subprocess failures** via the test-only
//! `ECNUDP_FAULT` protocol (grammar in `crates/core/src/fault.rs`):
//!
//! - injected worker panics/crashes/hangs/corruptions recover through the
//!   retry path and render **byte-identical** to the fault-free run;
//! - worker stderr reaches the operator tagged `[worker N]`;
//! - an exhausted retry budget is a typed exit-3 error naming the worker
//!   and its unit range — never a parent panic;
//! - a parent killed mid-run resumes from its checkpoint byte-identically,
//!   re-running only the units absent from the bitmap, with workers or
//!   (at `--processes 1`) in-process without spawning any;
//! - a checkpoint from a different campaign is refused with a typed error,
//!   and so is one whose content was edited after it was written;
//! - over-provisioned worker counts clamp to the unit pool with a warning.
//!
//! Faults are delivered with `.env()` on each spawned `Command` — never
//! `set_var` — so parallel tests cannot race on the parent's environment.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

const SCENARIO: &str = "scenarios/paper2015-mini.toml";
/// paper2015-mini lowers to 13 vantages × 1 chunk = 13 units.
const MINI_UNITS: usize = 13;

fn ecnudp(args: &[&str], fault: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ecnudp"));
    cmd.args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        // never inherit a fault plan from the test runner's environment
        .env_remove("ECNUDP_FAULT");
    if let Some(plan) = fault {
        cmd.env("ECNUDP_FAULT", plan);
    }
    cmd.output().expect("spawn ecnudp")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-faults");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// The fault-free golden: mini preset, 2 workers. Computed once; every
/// recovery test must reproduce these exact report bytes.
fn golden_stdout() -> &'static str {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let out = ecnudp(&["run", "--scenario", SCENARIO, "--processes", "2"], None);
        assert!(
            out.status.success(),
            "fault-free run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 report")
    })
}

#[test]
fn injected_worker_panic_recovers_byte_identical_with_tagged_stderr() {
    let out = ecnudp(
        &["run", "--scenario", SCENARIO, "--processes", "2"],
        Some("panic=0"),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "retry must recover: {err}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden_stdout(),
        "recovered run must render byte-identical to the fault-free golden"
    );
    assert!(
        err.contains("[worker 0]"),
        "worker stderr must reach the operator tagged with its index: {err}"
    );
    assert!(
        err.contains("panicked"),
        "the real panic message must survive the relay: {err}"
    );
}

#[test]
fn crash_mid_partition_recovers_byte_identical() {
    // worker 0 runs 2 units' worth of paid work, then exit(101); the
    // respawn re-runs exactly its slice and the merge heals
    let out = ecnudp(
        &["run", "--scenario", SCENARIO, "--processes", "2"],
        Some("crash-after-unit=2:worker=0"),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "retry must recover: {err}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden_stdout());
    assert!(
        err.contains("worker 0") && err.contains("retry"),
        "supervisor must narrate the failure and the retry: {err}"
    );
}

#[test]
fn a_crashed_worker_surfaces_as_supervision_lines_in_the_metrics() {
    // worker 0 holds 7 of the 13 units; its crash re-ships all 7
    let metrics = scratch("supervision-lines.jsonl");
    let _ = std::fs::remove_file(&metrics);
    let out = ecnudp(
        &[
            "run",
            "--scenario",
            SCENARIO,
            "--processes",
            "2",
            "--metrics",
            metrics.to_str().expect("utf8 path"),
        ],
        Some("crash-after-unit=1:worker=0"),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "retry must recover: {err}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden_stdout());
    let text = std::fs::read_to_string(&metrics).expect("read metrics");
    let lines = |kind: &str| -> Vec<&str> {
        let tag = format!("{{\"type\":\"{kind}\",");
        text.lines().filter(|l| l.starts_with(&tag)).collect()
    };
    assert_eq!(
        lines("worker_failed"),
        [concat!(
            r#"{"type":"worker_failed","worker":0,"attempt":0,"units":7,"#,
            r#""will_retry":true,"cause":"worker crashed with exit code 101"}"#
        )]
    );
    let workers = lines("worker");
    assert_eq!(workers.len(), 2, "one line per worker slot: {workers:?}");
    assert!(workers[0].starts_with(r#"{"type":"worker","worker":0,"units":7,"#));
    assert!(workers[1].starts_with(r#"{"type":"worker","worker":1,"units":6,"#));
    assert_eq!(lines("retries"), [r#"{"type":"retries","unit_retries":7}"#]);
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn corrupted_and_truncated_payloads_are_retried_to_the_same_bytes() {
    let out = ecnudp(
        &["run", "--scenario", SCENARIO, "--processes", "2"],
        Some("truncate-payload=0,corrupt-json=1"),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "retry must recover: {err}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden_stdout());
}

#[test]
fn hung_worker_is_killed_at_the_deadline_and_retried() {
    let out = ecnudp(
        &[
            "run",
            "--scenario",
            SCENARIO,
            "--processes",
            "2",
            "--worker-timeout",
            "2",
        ],
        Some("hang=1"),
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "retry must recover: {err}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden_stdout());
    assert!(
        err.contains("no payload within"),
        "the hang must be diagnosed as a deadline kill: {err}"
    );
}

#[test]
fn exhausted_retry_budget_is_a_typed_exit_3_never_a_panic() {
    // the fault outlives the budget: 1 retry allowed, fault covers 99
    let out = ecnudp(
        &[
            "run",
            "--scenario",
            SCENARIO,
            "--processes",
            "2",
            "--max-retries",
            "1",
        ],
        Some("crash-after-unit=0:worker=1:attempts=99"),
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "campaign failure has its own exit code"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("campaign failed") && err.contains("worker 1"),
        "the error must name the failing worker: {err}"
    );
    assert!(
        err.contains("unit") && err.contains("attempt"),
        "the error must name the unit range and the spent budget: {err}"
    );
    assert!(
        !err.contains("RUST_BACKTRACE"),
        "exhaustion is a typed error, not a parent panic: {err}"
    );
}

#[test]
fn parent_killed_mid_run_resumes_byte_identical_running_only_the_rest() {
    let ckpt = scratch("killed-parent.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_arg = ckpt.to_str().expect("utf8 path");

    // phase 1: the parent dies (exit 86) after merging the first of the
    // two worker payloads — the second worker's units are lost with it
    let out = ecnudp(
        &[
            "run",
            "--scenario",
            SCENARIO,
            "--processes",
            "2",
            "--checkpoint",
            ckpt_arg,
        ],
        Some("parent-exit-after-payload=1"),
    );
    assert_eq!(
        out.status.code(),
        Some(86),
        "injected parent death uses its own exit code: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.exists(), "the checkpoint must survive the dead parent");

    // phase 2: resume finishes the campaign byte-identically, with two
    // workers and in-process alike, each from its own copy of the
    // checkpoint (a resume rewrites the file it resumes from)
    for processes in ["2", "1"] {
        let copy = scratch(&format!("killed-parent-resume-{processes}.ckpt"));
        std::fs::copy(&ckpt, &copy).expect("copy checkpoint");
        let copy_arg = copy.to_str().expect("utf8 path");
        let out = ecnudp(
            &[
                "run",
                "--scenario",
                SCENARIO,
                "--processes",
                processes,
                "--resume",
                copy_arg,
            ],
            None,
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "resume must complete: {err}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            golden_stdout(),
            "interrupted + resumed at --processes {processes} must render \
             byte-identical to uninterrupted"
        );
        assert!(
            err.contains("resuming from") && err.contains("already complete"),
            "resume must say how much of the campaign it skipped: {err}"
        );
        // the bitmap held the first payload's partition (about half the
        // pool); the resume ran only the rest
        let resumed: usize = err
            .lines()
            .find_map(|l| {
                l.split("resuming from").nth(1)?;
                let tail = l.split(": ").nth(1)?;
                tail.split('/').next()?.trim().parse().ok()
            })
            .expect("resume line carries completed/total counts");
        assert!(
            (1..MINI_UNITS).contains(&resumed),
            "the merged payload's units were skipped, not all {MINI_UNITS}: got {resumed}"
        );
        let _ = std::fs::remove_file(&copy);
    }

    // a resume at --processes 1 runs in this process: one peak-RSS entry
    let copy = scratch("killed-parent-resume-json.ckpt");
    std::fs::copy(&ckpt, &copy).expect("copy checkpoint");
    let out = ecnudp(
        &[
            "run",
            "--scenario",
            SCENARIO,
            "--resume",
            copy.to_str().expect("utf8 path"),
            "--json",
        ],
        None,
    );
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let key = "\"process_peak_rss_kb\":[";
    let at = summary.find(key).expect("peak list in --json") + key.len();
    let peaks = &summary[at..at + summary[at..].find(']').expect("closing bracket")];
    assert!(
        !peaks.is_empty() && !peaks.contains(','),
        "--processes 1 spawns no worker, so one process peaks: [{peaks}]"
    );
    let _ = std::fs::remove_file(&copy);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_campaign() {
    let ckpt = scratch("mismatched.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_arg = ckpt.to_str().expect("utf8 path");

    let out = ecnudp(
        &[
            "run",
            "--scenario",
            SCENARIO,
            "--processes",
            "2",
            "--checkpoint",
            ckpt_arg,
        ],
        Some("parent-exit-after-payload=1"),
    );
    assert_eq!(out.status.code(), Some(86));
    assert!(ckpt.exists());

    // same spec file, different seed → different campaign fingerprint
    let out = ecnudp(
        &[
            "run",
            "--scenario",
            SCENARIO,
            "--processes",
            "2",
            "--seed",
            "7",
            "--resume",
            ckpt_arg,
        ],
        None,
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "a foreign checkpoint is a typed campaign error"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("checkpoint") && err.contains("fingerprint"),
        "the refusal must say what mismatched: {err}"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn resume_refuses_a_corrupted_checkpoint() {
    let ckpt = scratch("corrupted.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_arg = ckpt.to_str().expect("utf8 path");

    let out = ecnudp(
        &[
            "run",
            "--scenario",
            SCENARIO,
            "--processes",
            "2",
            "--checkpoint",
            ckpt_arg,
        ],
        Some("parent-exit-after-payload=1"),
    );
    assert_eq!(out.status.code(), Some(86));

    // Change one digit of the merged Table 2 counters. The file stays
    // valid JSON of the right shape, for the same campaign, so only the
    // content checksum can tell.
    let text = std::fs::read_to_string(&ckpt).expect("read checkpoint");
    let key = "\"udp_ect_unreachable\":";
    let at = text.find(key).expect("Table 2 counters in the checkpoint") + key.len();
    let digit = text.as_bytes()[at];
    assert!(digit.is_ascii_digit(), "a count follows the key");
    let flipped = if digit == b'9' {
        '8'
    } else {
        char::from(digit + 1)
    };
    let edited = format!("{}{flipped}{}", &text[..at], &text[at + 1..]);
    std::fs::write(&ckpt, edited).expect("write edited checkpoint");

    let out = ecnudp(
        &[
            "run",
            "--scenario",
            SCENARIO,
            "--processes",
            "2",
            "--resume",
            ckpt_arg,
        ],
        None,
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "a corrupted checkpoint is a typed campaign error"
    );
    assert!(out.stdout.is_empty(), "no report from corrupted state");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(ckpt_arg) && err.contains("checksum"),
        "the refusal must name the file and the checksum: {err}"
    );
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn overprovisioned_worker_count_clamps_to_the_unit_pool() {
    // 20 processes over 13 units: clamp, warn, and still render the golden
    let out = ecnudp(&["run", "--scenario", SCENARIO, "--processes", "20"], None);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden_stdout());
    assert!(
        err.contains("clamping 20 worker processes to 13"),
        "the clamp must be narrated: {err}"
    );
}
