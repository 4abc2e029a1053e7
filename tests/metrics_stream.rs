//! The `--metrics` stream golden: `ecnudp run` on
//! `scenarios/paper2015-mini.toml` three ways, each stream pinned byte
//! for byte in `tests/golden/metrics_stream.txt` with the summary's
//! `wall_ms` (its only wall-clock value) zeroed:
//!
//! 1. in-process with `--metrics --sample-traces 3 --progress`: the
//!    header, unit, snapshot and summary lines, then the sampled `trace`
//!    lines; plus the prefix of the last line `--progress` prints;
//! 2. `--processes 2 --checkpoint <f>`: the worker and `checkpoint`
//!    supervision lines ahead of the same unit lines;
//! 3. `--resume <f>` of that finished checkpoint: a zero-unit stream.
//!
//! Regenerate with `ECNUDP_BLESS=1`.

#[path = "util/golden.rs"]
mod golden;

use golden::check_golden;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `ecnudp run` on the mini preset with `args`, writing the metrics
/// stream to `metrics`; returns the stream and the run's stderr.
fn run_with_metrics(metrics: &Path, args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ecnudp"))
        .args(["run", "--scenario", "scenarios/paper2015-mini.toml"])
        .args(["--shards", "2", "--metrics", metrics.to_str().unwrap()])
        .args(args)
        .env_remove("ECNUDP_FAULT")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn ecnudp");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "ecnudp run {args:?} failed: {stderr}");
    let stream = std::fs::read_to_string(metrics).expect("metrics file");
    (stream, stderr)
}

/// Zero the summary's `wall_ms`, keeping every other byte.
fn zero_wall_ms(stream: &str) -> String {
    stream
        .lines()
        .map(|line| match line.find("\"wall_ms\":") {
            Some(pos) => format!("{}\"wall_ms\":0}}\n", &line[..pos]),
            None => format!("{line}\n"),
        })
        .collect()
}

/// A file under `target/` that no other test process uses.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("stream-{}-{name}", std::process::id()))
}

#[test]
fn metrics_streams_match_the_golden() {
    let metrics = scratch("run.jsonl");
    let checkpoint = scratch("run.ckpt");
    let _ = std::fs::remove_file(&checkpoint);
    let mut golden = String::new();

    let (stream, stderr) = run_with_metrics(&metrics, &["--sample-traces", "3", "--progress"]);
    golden.push_str("## in-process --sample-traces 3 --progress\n");
    golden.push_str(&zero_wall_ms(&stream));
    let last = stderr
        .lines()
        .rfind(|l| l.starts_with("[ecnudp] "))
        .expect("--progress prints a line");
    let prefix = "[ecnudp] 13/13 units | 520 obs";
    assert!(last.starts_with(prefix), "last progress line: {last}");
    golden.push_str(&format!("## last progress line\n{prefix}\n"));

    let ckpt = checkpoint.to_str().unwrap();
    let (stream, _) = run_with_metrics(&metrics, &["--processes", "2", "--checkpoint", ckpt]);
    golden.push_str("## --processes 2 --checkpoint\n");
    golden.push_str(&zero_wall_ms(&stream));

    let (stream, _) = run_with_metrics(&metrics, &["--resume", ckpt]);
    golden.push_str("## --resume of the finished checkpoint\n");
    golden.push_str(&zero_wall_ms(&stream));

    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&checkpoint);
    check_golden("metrics_stream", &golden);
}
