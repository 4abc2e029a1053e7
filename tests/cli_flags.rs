//! Spawned-binary coverage for the engine-topology and supervision flags:
//! zero-value rejection at parse time (`--shards 0`, `--processes 0`,
//! non-positive `--worker-timeout`), the supervised-mode ×
//! `--sample-traces` conflict, metrics/progress streaming worker
//! lifecycle under `--processes > 1` (with the same summary totals as
//! one process), and the `validate` metrics probe's
//! non-destructiveness (a pre-existing metrics file must survive
//! byte-identical — the probe opens for append, never truncate).

use std::path::Path;
use std::process::Command;

fn ecnudp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ecnudp"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn ecnudp")
}

#[test]
fn zero_shards_is_rejected_at_parse_with_the_flag_name() {
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--shards",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--shards") && err.contains("at least 1"),
        "error must name the flag and the floor: {err}"
    );
}

#[test]
fn zero_processes_is_rejected_at_parse_with_the_flag_name() {
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--processes",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--processes") && err.contains("at least 1"),
        "error must name the flag and the floor: {err}"
    );
}

#[test]
fn nonpositive_worker_timeout_is_rejected_at_parse_with_the_flag_name() {
    for bad in ["0", "-1.5", "inf", "nan"] {
        let out = ecnudp(&[
            "run",
            "--scenario",
            "scenarios/paper2015-mini.toml",
            "--worker-timeout",
            bad,
        ]);
        assert_eq!(out.status.code(), Some(2), "usage errors exit 2 ({bad})");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--worker-timeout"),
            "error must name the flag ({bad}): {err}"
        );
    }
}

#[test]
fn supervised_mode_refuses_trace_sampling() {
    // raw trace records stay inside the worker process; the CLI must say
    // so instead of silently dropping the sampler
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--processes",
        "2",
        "--metrics",
        "target/test-scenarios/refused-metrics.jsonl",
        "--sample-traces",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(1), "config conflict exits 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--sample-traces") && err.contains("--processes 1"),
        "error must explain the conflict and the way out: {err}"
    );
}

#[test]
fn multiprocess_metrics_stream_reports_worker_lifecycle() {
    // --metrics/--progress now ride along with --processes > 1: the
    // parent's supervision events land on the stream as worker lines
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scenarios");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let metrics = dir.join("mp-worker-lifecycle.jsonl");
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--processes",
        "2",
        "--metrics",
        metrics.to_str().expect("utf8 path"),
        "--progress",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stream = std::fs::read_to_string(&metrics).expect("metrics stream");
    assert!(
        stream.contains("\"type\":\"worker\""),
        "supervised metrics stream must carry worker lines: {stream}"
    );
    assert!(
        !stream.contains("\"type\":\"unit\""),
        "per-unit events stay inside the workers: {stream}"
    );
    let _ = std::fs::remove_file(&metrics);
}

/// The `summary` line of a `--metrics` run at `processes`, with its
/// `wall_ms` field (the stream's one wall-clock value) cut off.
fn metrics_summary(processes: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scenarios");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let metrics = dir.join(format!("summary-at-{processes}-processes.jsonl"));
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--processes",
        processes,
        "--metrics",
        metrics.to_str().expect("utf8 path"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stream = std::fs::read_to_string(&metrics).expect("metrics stream");
    let _ = std::fs::remove_file(&metrics);
    let summary = stream
        .lines()
        .find(|l| l.starts_with("{\"type\":\"summary\""))
        .unwrap_or_else(|| panic!("no summary line: {stream}"));
    let cut = summary.find(",\"wall_ms\"").expect("wall_ms field");
    summary[..cut].to_string()
}

#[test]
fn multiprocess_metrics_summary_equals_the_single_process_one() {
    // the parent sees no unit events under --processes > 1; its summary
    // must still count every worker's units, traces, probes and packets
    let single = metrics_summary("1");
    assert!(
        single.contains("\"units\":13,") && !single.contains("\"observations\":0,"),
        "{single}"
    );
    assert_eq!(metrics_summary("2"), single);
}

#[test]
fn validate_leaves_a_preexisting_metrics_file_byte_identical() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scenarios");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let metrics = dir.join("preexisting-metrics.jsonl");
    let body = "{\"event\":\"from-an-earlier-run\"}\n{\"event\":\"keep-me\"}\n";
    std::fs::write(&metrics, body).expect("seed metrics file");

    let metrics_arg = metrics.to_str().expect("utf8 path");
    let out = ecnudp(&[
        "validate",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--metrics",
        metrics_arg,
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("writable"), "probe must report: {stdout}");
    assert_eq!(
        std::fs::read_to_string(&metrics).expect("metrics file still there"),
        body,
        "validate must not truncate or rewrite an existing metrics file"
    );

    // and when the probe creates the file, it cleans it up again
    let fresh = dir.join("probe-created-metrics.jsonl");
    let _ = std::fs::remove_file(&fresh);
    let out = ecnudp(&[
        "validate",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        "--metrics",
        fresh.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success());
    assert!(
        !fresh.exists(),
        "a probe-created metrics file must be removed again"
    );
    let _ = std::fs::remove_file(&metrics);
}
