//! The frozen workload table. Each spec file under `workloads/` is
//! compiled into the binary and carries, in its header comment, the
//! reason the workload exists.

use ecn_core::{engine_config, EngineConfig};
use ecn_pool::ScenarioSpec;

/// One benchmark workload: a frozen scenario spec and the execution
/// shape it is measured at.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The frozen spec text.
    spec: &'static str,
    /// Worker processes (1 = in-process).
    pub processes: usize,
    /// Engine shards per process.
    pub shards: usize,
    /// Logical traces the spec schedules, for every seed.
    pub traces: usize,
}

/// Every workload, in the order a bare invocation runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper2015",
        spec: include_str!("../workloads/paper2015.toml"),
        processes: 1,
        shards: 1,
        traces: 26,
    },
    Workload {
        name: "megapool-2p",
        spec: include_str!("../workloads/megapool-2p.toml"),
        processes: 2,
        shards: 1,
        traces: 13,
    },
    Workload {
        name: "validator-aqm",
        spec: include_str!("../workloads/validator-aqm.toml"),
        processes: 1,
        shards: 1,
        traces: 26,
    },
    Workload {
        name: "hostile-edge",
        spec: include_str!("../workloads/hostile-edge.toml"),
        processes: 1,
        shards: 2,
        traces: 52,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The spec, with `seed` in place of the file's seed.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::from_toml_str(self.spec)
            .unwrap_or_else(|e| panic!("frozen workload `{}` does not parse: {e}", self.name));
        spec.seed = seed;
        spec
    }

    /// Execution lanes: processes × shards, the units' round-robin deal.
    pub fn lanes(&self) -> usize {
        self.processes * self.shards
    }

    /// The engine configuration the measured runs use.
    pub fn engine(&self, spec: &ScenarioSpec) -> EngineConfig {
        EngineConfig {
            shards: Some(self.shards),
            processes: self.processes,
            ..engine_config(spec)
        }
    }
}
