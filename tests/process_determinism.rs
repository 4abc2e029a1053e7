//! Multi-process determinism: `EngineConfig::processes` is a pure
//! concurrency/memory knob, exactly like shards and stealing order.
//! `FullReport::render` must be byte-identical across
//! `processes ∈ {1, 2, 4} × shards ∈ {1, 4} × unit orders` — the
//! partition is over canonical unit identities and the reducers merge
//! commutatively, so no process topology can change a result byte.
//!
//! Workers are real spawned processes: the tests point
//! [`ecnudp::core::WORKER_EXE_ENV`] at the `ecnudp` binary (the libtest
//! harness has no worker hook of its own), so this suite also covers the
//! JSON worker protocol end-to-end.
//!
//! The megapool-smoke sweep (50k servers) is heavyweight and runs only
//! with `ECNUDP_MEGAPOOL=1` (the CI megapool smoke job); the
//! paper2015-mini sweep always runs.

use ecnudp::core::{
    campaign_config, engine_config, try_run_engine, EngineConfig, EngineRun, FullReport, UnitOrder,
    WORKER_EXE_ENV,
};
use ecnudp::pool::ScenarioSpec;
use proptest::prelude::*;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

fn load_preset(name: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    ScenarioSpec::from_toml_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn run_preset(spec: &ScenarioSpec, processes: usize, shards: usize, order: UnitOrder) -> EngineRun {
    // the worker self-spawn must resolve to the CLI binary, not the
    // libtest harness (which would re-run the test suite per worker)
    std::env::set_var(WORKER_EXE_ENV, env!("CARGO_BIN_EXE_ecnudp"));
    let eng = EngineConfig {
        shards: Some(shards),
        processes,
        unit_order: order,
        ..engine_config(spec)
    };
    try_run_engine(&spec.plan(), &campaign_config(spec), &eng).expect("supervised campaign")
}

fn render(run: &EngineRun) -> String {
    FullReport::from_campaign(&run.result).render()
}

#[test]
fn mini_report_is_byte_identical_across_process_topologies() {
    let spec = load_preset("paper2015-mini.toml");
    let baseline = run_preset(&spec, 1, 1, UnitOrder::AsScheduled);
    let expected = render(&baseline);
    assert_eq!(baseline.processes, 1);
    assert_eq!(baseline.merge_depth, 0, "one shard, one process: flat");

    for processes in [1usize, 2, 4] {
        for shards in [1usize, 4] {
            for order in [
                UnitOrder::AsScheduled,
                UnitOrder::Reversed,
                UnitOrder::Shuffled(7),
            ] {
                if (processes, shards, order) == (1, 1, UnitOrder::AsScheduled) {
                    continue;
                }
                let run = run_preset(&spec, processes, shards, order);
                assert_eq!(
                    expected,
                    render(&run),
                    "report bytes changed at processes={processes} shards={shards} {order:?}"
                );
                assert_eq!(run.processes, processes);
                assert_eq!(
                    run.units, baseline.units,
                    "partitions must cover every unit exactly once"
                );
            }
        }
    }
}

#[test]
fn validation_section_is_byte_identical_across_topologies() {
    // The modern-ECN acceptance sweep: the validation confusion matrix —
    // and the whole report carrying it — must be byte-identical across
    // shards ∈ {1, 4, 13, 32} × process counts × stealing orders. The
    // validator adds a fifth probe phase with its own packet trains, so
    // this proves the new phase draws no schedule-dependent randomness.
    let spec = load_preset("validator-vs-bleachers.toml");
    let baseline = run_preset(&spec, 1, 1, UnitOrder::AsScheduled);
    assert!(
        !baseline.result.aggregates.validation.is_empty(),
        "the preset must actually run the validation pass"
    );
    let expected = render(&baseline);
    for (processes, shards, order) in [
        (1usize, 4usize, UnitOrder::Reversed),
        (1, 13, UnitOrder::Shuffled(7)),
        (1, 32, UnitOrder::Shuffled(23)),
        (2, 1, UnitOrder::Reversed),
        (2, 4, UnitOrder::Shuffled(7)),
        (2, 13, UnitOrder::AsScheduled),
        (2, 32, UnitOrder::Shuffled(5)),
    ] {
        let run = run_preset(&spec, processes, shards, order);
        assert_eq!(
            baseline.result.aggregates.validation, run.result.aggregates.validation,
            "validation counters changed at processes={processes} shards={shards} {order:?}"
        );
        assert_eq!(
            expected,
            render(&run),
            "report bytes changed at processes={processes} shards={shards} {order:?}"
        );
    }
}

#[test]
fn multiprocess_run_reports_topology_gauges() {
    let spec = load_preset("paper2015-mini.toml");
    let run = run_preset(&spec, 4, 2, UnitOrder::AsScheduled);
    assert_eq!(run.processes, 4);
    // 13 units round-robin over 4 workers: 4+3+3+3, each worker shards
    // clamped to its unit count
    assert_eq!(run.units, 13);
    assert!(run.shards >= 4, "summed worker shards, got {}", run.shards);
    // ceil(log2(2 shards)) + ceil(log2(4 processes)) = 1 + 2
    assert_eq!(run.merge_depth, 3);
    if cfg!(target_os = "linux") {
        assert!(run.peak_rss_kb > 0, "VmHWM gauge must be populated");
    }
}

#[test]
fn megapool_smoke_is_deterministic_across_processes_with_bounded_rss() {
    if std::env::var_os("ECNUDP_MEGAPOOL").is_none() {
        eprintln!("skipping megapool smoke (set ECNUDP_MEGAPOOL=1 to run)");
        return;
    }
    let spec = load_preset("megapool-smoke.toml");
    let single = run_preset(&spec, 1, 4, UnitOrder::AsScheduled);
    let expected = render(&single);
    for (processes, shards, order) in [
        (2usize, 4usize, UnitOrder::Reversed),
        (4, 1, UnitOrder::AsScheduled),
        (4, 4, UnitOrder::Shuffled(7)),
    ] {
        let run = run_preset(&spec, processes, shards, order);
        assert_eq!(
            expected,
            render(&run),
            "megapool-smoke bytes changed at processes={processes} shards={shards} {order:?}"
        );
        if cfg!(target_os = "linux") {
            // the whole point of worker processes: per-process peak RSS
            // stays bounded. Measured ~0.79 GB per process at 50k servers
            // (radix-trie tables + shared Arc<Topology>); a regression
            // that funnels whole-campaign state into one process — or
            // reverts the table compression — blows through 2 GiB.
            assert!(
                run.peak_rss_kb > 0 && run.peak_rss_kb < 2 * 1024 * 1024,
                "peak RSS {} kB outside the smoke ceiling",
                run.peak_rss_kb
            );
        }
    }
}

// -------------------------------------------------- fault-recovery property
//
// Random real-subprocess faults (crash, panic, hang, truncated/corrupt
// payload) across workers × retry budgets must leave the rendered report
// byte-identical to the fault-free golden: the supervisor re-ships exactly
// the failed unit slice and the reducer merge is order-insensitive.
//
// Each case spawns the CLI with `ECNUDP_FAULT` set via `.env()` (never
// `set_var` — parallel in-process tests must not inherit faults).

/// One spawned campaign per case is expensive; 3 cases by default keeps
/// `cargo test -q` inside the CI budget, while the chaos job's
/// `PROPTEST_CASES=128` widens the sweep to 16 campaigns.
fn fault_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
        .map(|n| (n / 8).max(3))
        .unwrap_or(3)
}

/// The fault-free CLI golden: mini preset, 2 workers, computed once.
fn fault_free_golden() -> &'static str {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let out = Command::new(env!("CARGO_BIN_EXE_ecnudp"))
            .args(["run", "--scenario", "scenarios/paper2015-mini.toml"])
            .args(["--processes", "2"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .env_remove("ECNUDP_FAULT")
            .output()
            .expect("spawn ecnudp");
        assert!(
            out.status.success(),
            "fault-free run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 report")
    })
}

/// Render one `ECNUDP_FAULT` directive. Kind 4 (hang) is special-cased by
/// the caller: it needs `--worker-timeout` and a single covered attempt.
fn fault_directive(kind: u8, worker: usize, attempts: u32) -> String {
    match kind % 5 {
        0 => format!("panic={worker}:attempts={attempts}"),
        1 => format!(
            "crash-after-unit={}:worker={worker}:attempts={attempts}",
            kind % 4
        ),
        2 => format!("truncate-payload={worker}:attempts={attempts}"),
        3 => format!("corrupt-json={worker}:attempts={attempts}"),
        _ => format!("hang={worker}:attempts={attempts}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fault_cases()))]
    #[test]
    fn injected_faults_never_change_report_bytes(
        kind in 0u8..5,
        second_pick in 0u8..8, // < 4: a second fault on another worker (never a second hang)
        worker_pick in 0usize..4,
        processes in 2usize..=4,
        budget in 1u32..=3,
        attempt_pick in 0u32..3,
    ) {
        let worker = worker_pick % processes;
        let hang = kind % 5 == 4;
        // the fault covers fewer attempts than the budget allows, so the
        // campaign must always recover; hangs cover one attempt to keep
        // each case inside a single deadline wait
        let attempts = if hang { 1 } else { 1 + attempt_pick % budget };
        let mut plan = fault_directive(kind, worker, attempts);
        if let Some(k2) = (second_pick < 4).then_some(second_pick) {
            let other = (worker + 1) % processes;
            plan.push(',');
            plan.push_str(&fault_directive(k2, other, 1));
        }
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ecnudp"));
        cmd.args(["run", "--scenario", "scenarios/paper2015-mini.toml"])
            .args(["--processes", &processes.to_string()])
            .args(["--max-retries", &budget.to_string()])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .env("ECNUDP_FAULT", &plan);
        if hang {
            cmd.args(["--worker-timeout", "5"]);
        }
        let out = cmd.output().expect("spawn ecnudp");
        let err = String::from_utf8_lossy(&out.stderr);
        prop_assert!(
            out.status.success(),
            "must recover from `{}` within {} retries: {}",
            plan, budget, err
        );
        prop_assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            fault_free_golden(),
            "report bytes changed under `{}` (processes={})",
            plan, processes
        );
    }
}
