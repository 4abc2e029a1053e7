//! Spawned-binary coverage for the engine-topology and supervision flags:
//! out-of-range rejection at parse time (`--shards` outside 1..=1024,
//! `--processes` outside 1..=256, a `--worker-timeout` outside
//! (0, 86400] s, `--max-retries` above 1000), the `--sample-traces`
//! conflict with `--processes > 1` and `--resume` and a `--metrics` path
//! naming the spec or checkpoint file (both refused before any file is
//! opened),
//! metrics/progress streaming worker lifecycle under `--processes > 1`
//! (with the same unit, snapshot and summary lines as one process), and
//! the `validate` metrics probe's non-destructiveness (a pre-existing
//! metrics file must survive byte-identical — the probe opens for
//! append, never truncate).

use std::path::Path;
use std::process::Command;

fn ecnudp(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ecnudp"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn ecnudp")
}

/// Run with `flag value` and assert a usage error (exit 2) whose message
/// names the flag and contains `bound`. Every value here is refused at
/// parse, so no campaign, thread or worker process ever starts.
fn assert_refused_at_parse(flag: &str, value: &str, bound: &str) {
    let out = ecnudp(&[
        "run",
        "--scenario",
        "scenarios/paper2015-mini.toml",
        flag,
        value,
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "usage errors exit 2 ({flag} {value})"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(flag) && err.contains(bound),
        "error must name the flag and the bound ({flag} {value}): {err}"
    );
}

#[test]
fn zero_shards_is_rejected_at_parse_with_the_flag_name() {
    assert_refused_at_parse("--shards", "0", "at least 1");
    // one thread per shard: the engine clamps only to the unit count,
    // which a spec can raise to 13 x population.servers
    assert_refused_at_parse("--shards", "1025", "at most 1024");
    assert_refused_at_parse("--shards", "18446744073709551615", "at most 1024");
}

#[test]
fn zero_processes_is_rejected_at_parse_with_the_flag_name() {
    assert_refused_at_parse("--processes", "0", "at least 1");
    // one worker process, and one blueprint build, per process
    assert_refused_at_parse("--processes", "257", "at most 256");
    assert_refused_at_parse("--processes", "18446744073709551615", "at most 256");
}

#[test]
fn out_of_range_supervision_flags_are_rejected_at_parse_with_the_flag_name() {
    // 1e300 s would overflow the deadline's Duration
    let bad_timeouts = ["0", "-1.5", "inf", "nan", "1e300", "86401"];
    let cases = bad_timeouts
        .iter()
        .map(|&s| ("--worker-timeout", s))
        .chain([("--max-retries", "1001")]);
    for (flag, bad) in cases {
        let out = ecnudp(&[
            "run",
            "--scenario",
            "scenarios/paper2015-mini.toml",
            flag,
            bad,
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "usage errors exit 2 ({flag} {bad})"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag),
            "error must name the flag ({flag} {bad}): {err}"
        );
    }
}

#[test]
fn supervised_mode_refuses_trace_sampling() {
    // raw trace records stay inside the worker process and are not in a
    // checkpoint; the CLI must say so instead of silently dropping the
    // sampler, and must refuse before it truncates the metrics file
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scenarios");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let metrics = dir.join("refused-metrics.jsonl");
    let metrics_arg = metrics.to_str().expect("utf8 path");
    let never_read = dir.join("refused-resume.ckpt");
    let conflicts: [&[&str]; 2] = [
        &["--processes", "2"],
        &["--resume", never_read.to_str().expect("utf8 path")],
    ];
    for conflict in conflicts {
        std::fs::write(&metrics, "precious\nbytes\n").expect("seed metrics file");
        let mut args = vec!["run", "--scenario", "scenarios/paper2015-mini.toml"];
        args.extend_from_slice(conflict);
        args.extend_from_slice(&["--metrics", metrics_arg, "--sample-traces", "4"]);
        let out = ecnudp(&args);
        assert_eq!(out.status.code(), Some(1), "config conflict exits 1");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--sample-traces") && err.contains("--processes 1"),
            "error must explain the conflict and the way out: {err}"
        );
        assert_eq!(
            std::fs::read_to_string(&metrics).expect("metrics file still there"),
            "precious\nbytes\n",
            "a refused run must leave the metrics file as it was ({conflict:?})"
        );
    }
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn metrics_naming_the_spec_or_checkpoint_file_is_refused_before_it_is_opened() {
    // the metrics stream truncates its file when the run starts: on the
    // --resume file that empties the checkpoint before the engine reads
    // it, on the --checkpoint file the stream is lost under the
    // checkpoint, on the --scenario file the spec is lost. Each time the
    // run must stop before touching the file.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scenarios");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let spec = dir.join("metrics-clash.toml");
    let preset = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/paper2015-mini.toml");
    std::fs::copy(preset, &spec).expect("copy spec");
    let spec_arg = spec.to_str().expect("utf8 path");
    let ckpt = dir.join("metrics-clash.ckpt");
    let ckpt_arg = ckpt.to_str().expect("utf8 path");
    // the same file by another spelling
    let respelled = dir.join("../test-scenarios/./metrics-clash.ckpt");
    let respelled_arg = respelled.to_str().expect("utf8 path");
    let body = "{\"checkpoint\":\"from an earlier run\"}\n";
    // (the flag whose file --metrics names, its arguments, --metrics)
    let cases: [(&str, &[&str], &str); 4] = [
        ("--resume", &["--resume", ckpt_arg], ckpt_arg),
        ("--checkpoint", &["--checkpoint", ckpt_arg], ckpt_arg),
        ("--checkpoint", &["--checkpoint", ckpt_arg], respelled_arg),
        ("--scenario", &[], spec_arg),
    ];
    let spec_body = std::fs::read_to_string(&spec).expect("spec");
    for (flag, flag_args, metrics_arg) in cases {
        std::fs::write(&ckpt, body).expect("seed checkpoint file");
        let mut args = vec!["run", "--scenario", spec_arg];
        args.extend_from_slice(flag_args);
        args.extend_from_slice(&["--metrics", metrics_arg]);
        let out = ecnudp(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "config conflict exits 1 ({flag} {metrics_arg}): {err}"
        );
        assert!(
            err.contains("--metrics") && err.contains(flag),
            "error must name both flags ({flag} {metrics_arg}): {err}"
        );
        assert_eq!(
            std::fs::read_to_string(&ckpt).expect("checkpoint still there"),
            body,
            "a refused run must leave the checkpoint as it was ({flag} {metrics_arg})"
        );
        assert_eq!(
            std::fs::read_to_string(&spec).expect("spec still there"),
            spec_body,
            "a refused run must leave the spec as it was ({flag} {metrics_arg})"
        );
    }
    // a checkpoint that does not exist yet, spelled two ways
    let fresh = dir.join("metrics-clash-fresh.ckpt");
    let _ = std::fs::remove_file(&fresh);
    let fresh_respelled = dir.join("./metrics-clash-fresh.ckpt");
    let out = ecnudp(&[
        "run",
        "--scenario",
        spec_arg,
        "--checkpoint",
        fresh.to_str().expect("utf8 path"),
        "--metrics",
        fresh_respelled.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1), "config conflict exits 1");
    assert!(!fresh.exists(), "a refused run must create no file");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&spec);
}

#[test]
fn multiprocess_metrics_stream_reports_worker_lifecycle() {
    // --metrics/--progress ride along with --processes > 1: the parent's
    // supervision events land on the stream as worker lines, next to the
    // unit lines of the records the workers ship home
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
    assert_eq!(
        stream.matches("\"type\":\"unit\"").count(),
        13,
        "one unit line per unit, whichever worker ran it: {stream}"
    );
    let _ = std::fs::remove_file(&metrics);
}

/// Line types only the supervised driver writes.
const SUPERVISION_LINES: [&str; 5] = [
    "workers_clamped",
    "worker_failed",
    "worker",
    "retries",
    "checkpoint",
];

/// The `--metrics` stream of a run at `processes`, without its
/// supervision lines and with the summary's `wall_ms` (the stream's one
/// wall-clock value) cut off.
fn metrics_stream(processes: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-scenarios");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let metrics = dir.join(format!("stream-at-{processes}-processes.jsonl"));
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
    let supervision = |line: &str| {
        SUPERVISION_LINES
            .iter()
            .any(|t| line.starts_with(&format!("{{\"type\":\"{t}\",")))
    };
    let mut kept = String::new();
    for line in stream.lines().filter(|l| !supervision(l)) {
        let line = match line.find(",\"wall_ms\"") {
            Some(cut) => &line[..cut],
            None => line,
        };
        kept.push_str(line);
        kept.push('\n');
    }
    kept
}

#[test]
fn multiprocess_metrics_summary_equals_the_single_process_one() {
    // every unit reaches the stream once, in this process or shipped home
    // by a worker: apart from the supervision lines, the stream at any
    // process count is the one-process stream, unit lines, snapshots and
    // summary alike
    let single = metrics_stream("1");
    assert_eq!(single.matches("\"type\":\"unit\"").count(), 13, "{single}");
    let summary = single.lines().last().expect("summary line");
    assert!(
        summary.starts_with("{\"type\":\"summary\",\"units\":13,")
            && !summary.contains("\"observations\":0,"),
        "{single}"
    );
    for processes in ["2", "4"] {
        assert_eq!(metrics_stream(processes), single, "--processes {processes}");
    }
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
