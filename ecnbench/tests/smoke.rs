//! Smoke test: every workload at 60 servers, in this process, through the
//! measured campaign and through the untraced and traced replays. The
//! three must render the same report, and the metric names and units
//! the benchmark emits must be exactly those `BENCHMARK.json` lists.
//!
//!   cargo test --offline --manifest-path ecnbench/Cargo.toml

use ecn_core::EngineConfig;
use ecnbench::campaign;
use ecnbench::ledger::Tracer;
use ecnbench::replay::replay;
use ecnbench::workload::WORKLOADS;
use ecnbench::{end_to_end, per_layer, Timed, END_TO_END, PER_LAYER};
use serde::Deserialize;

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

fn benchmark_json() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn pairs(metrics: &[Metric]) -> Vec<(&str, &str)> {
    metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_emits() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    assert_eq!(pairs(&bench.end_to_end), END_TO_END);
    assert_eq!(pairs(&bench.per_layer), PER_LAYER);
}

#[test]
fn every_workload_replays_to_the_measured_report() {
    for w in &WORKLOADS {
        let mut spec = w.spec(2015);
        spec.population.servers = 60;
        // the test harness cannot host engine workers: run in-process
        let eng = EngineConfig {
            processes: 1,
            ..w.engine(&spec)
        };
        let line = campaign::run(&spec, &eng).expect("campaign runs");
        assert_eq!(line.traces, w.traces, "{}", w.name);

        let plain = replay(&spec, w.lanes(), &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced = replay(&spec, w.lanes(), &mut tracer);
        for r in [&plain, &traced] {
            assert_eq!(r.digest, line.digest, "{}: replay report differs", w.name);
            assert_eq!((r.targets, r.traces), (line.targets, line.traces));
        }

        let runs = [Timed {
            wall_s: 1.0,
            cpu_s: 1.0,
            line,
        }];
        let e2e_names: Vec<&str> = end_to_end(&runs).keys().copied().collect();
        let mut expected: Vec<&str> = END_TO_END.map(|(n, _)| n).to_vec();
        expected.sort_unstable();
        assert_eq!(e2e_names, expected);
        for (name, value, unit, _) in per_layer(w, &runs, 1.0, 1.0, &tracer.ledger(w.lanes())) {
            assert!(value.is_finite(), "{}: {name} = {value} {unit}", w.name);
        }
    }
}
