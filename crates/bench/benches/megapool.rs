//! Megapool scaling bench: drive the 10⁵-server `scenarios/megapool.toml`
//! campaign through the engine at several `--processes` counts and record
//! servers/sec, per-process peak RSS, and merge depth into the `megapool`
//! section of `BENCH_campaign.json`.
//!
//! Each configuration runs in a **spawned copy of this bench binary**
//! (hidden `__measure` argv), because peak RSS is read from `VmHWM` — a
//! per-process high-water mark that never comes back down. Measuring two
//! configurations in one process would let the first run's mark mask the
//! second's. The spawned child is also what the engine's worker processes
//! re-invoke (`ecn_core::maybe_worker` hook at the top of `main`), so the
//! whole multi-process pipeline runs exactly as the CLI does.
//!
//! Scale knobs (env): `ECNUDP_BENCH_MEGAPOOL_SCENARIO` (file name under
//! `scenarios/`, default `megapool.toml`; use `megapool-smoke.toml` for a
//! CI-sized run), `ECNUDP_BENCH_MEGAPOOL_PROCESSES` (comma list,
//! default `1,4`).

use ecn_core::{campaign_config, engine_config, try_run_engine, EngineConfig};
use ecn_pool::ScenarioSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels under the workspace root")
        .to_path_buf()
}

fn load_spec(scenario: &str) -> ScenarioSpec {
    let path = workspace_root().join("scenarios").join(scenario);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    ScenarioSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Hidden per-configuration child: run one campaign, print a flat JSON
/// line with the gauges, exit. (`argv: __measure <processes> <scenario>`.)
fn run_measure(processes: usize, scenario: &str) -> ExitCode {
    let spec = load_spec(scenario);
    let eng = EngineConfig {
        processes,
        ..engine_config(&spec)
    };
    let t0 = Instant::now();
    let run =
        try_run_engine(&spec.plan(), &campaign_config(&spec), &eng).expect("megapool campaign");
    let wall_s = t0.elapsed().as_secs_f64();
    println!(
        "{{\"servers\": {}, \"targets\": {}, \"units\": {}, \"shards\": {}, \
         \"merge_depth\": {}, \"wall_s\": {:.1}, \"servers_per_sec\": {:.0}, \
         \"peak_rss_kb\": {}}}",
        spec.population.servers,
        run.result.targets.len(),
        run.units,
        run.shards,
        run.merge_depth,
        wall_s,
        spec.population.servers as f64 / wall_s,
        run.peak_rss_kb,
    );
    ExitCode::SUCCESS
}

fn spawn_measure(processes: usize, scenario: &str) -> String {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .arg("__measure")
        .arg(processes.to_string())
        .arg(scenario)
        .output()
        .expect("spawn measurement child");
    assert!(
        out.status.success(),
        "measurement child (processes={processes}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 gauges");
    stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .expect("child prints a gauge line")
        .to_string()
}

fn main() -> ExitCode {
    // engine worker processes re-invoke this binary
    if let Some(code) = ecn_core::maybe_worker() {
        return code;
    }
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("__measure") {
        let processes: usize = argv[2].parse().expect("processes");
        return run_measure(processes, &argv[3]);
    }

    let scenario =
        std::env::var("ECNUDP_BENCH_MEGAPOOL_SCENARIO").unwrap_or_else(|_| "megapool.toml".into());
    let processes: Vec<usize> = std::env::var("ECNUDP_BENCH_MEGAPOOL_PROCESSES")
        .unwrap_or_else(|_| "1,4".into())
        .split(',')
        .map(|p| p.trim().parse().expect("process count"))
        .collect();

    println!("[megapool] scenario {scenario}, process counts {processes:?}");
    let mut rows = Vec::new();
    for &p in &processes {
        let gauges = spawn_measure(p, &scenario);
        println!("[megapool] processes={p}: {gauges}");
        rows.push((p, gauges));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"scenario\": \"{scenario}\",\n"));
    json.push_str("  \"by_processes\": {\n");
    for (i, (p, gauges)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!("    \"{p}\": {gauges}{comma}\n"));
    }
    json.push_str("  }\n}");
    ecn_bench::update_bench_json(
        &workspace_root().join("BENCH_campaign.json"),
        "megapool",
        &json,
    );
    println!("[megapool] scaling table -> BENCH_campaign.json");
    ExitCode::SUCCESS
}
