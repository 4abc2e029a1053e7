//! # ecnudp — *Is Explicit Congestion Notification usable with UDP?*
//!
//! A full reproduction of McQuistin & Perkins (IMC 2015) as a Rust
//! workspace: the measurement application and analysis ([`core`]), and the
//! simulated-Internet substrate it runs on (wire formats, packet-level
//! simulator, host stack, application services, pool population model).
//!
//! ```no_run
//! use ecnudp::core::{try_run_engine, CampaignConfig, EngineConfig, FullReport};
//! use ecnudp::pool::PoolPlan;
//!
//! // One blueprint, many shards, byte-identical for any shard count.
//! // The report renders from streamed aggregates: the engine keeps raw
//! // TraceRecords only as a 1-in-N sample, here one trace in eight.
//! let eng = EngineConfig {
//!     sample_traces: 8,
//!     ..EngineConfig::default()
//! };
//! let run = try_run_engine(&PoolPlan::paper(), &CampaignConfig::default(), &eng)
//!     .expect("an in-process campaign cannot fail");
//! let report = FullReport::from_campaign(&run.result);
//! println!("{}", report.render());
//! eprintln!("{} sampled traces", run.result.traces.len());
//! eprintln!("{}", run.timing.render());
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured audit of every table and figure.

pub use ecn_asdb as asdb;
pub use ecn_core as core;
pub use ecn_geo as geo;
pub use ecn_netsim as netsim;
pub use ecn_pool as pool;
pub use ecn_services as services;
pub use ecn_stack as stack;
pub use ecn_wire as wire;
