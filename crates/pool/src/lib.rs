//! # ecn-pool — population model and scenario builder
//!
//! Builds the world the measurement study probes: the ~2500-member NTP
//! pool with its co-located web servers, the AS-level topology connecting
//! them to the 13 vantage points of paper §3, and the planted ground truth
//! — ECT-dropping middleboxes, ECN-bleaching routers, volunteer churn and
//! flaps — whose *measured* shadow the campaign reproduces.
//!
//! Everything is seeded: [`scenario::build_scenario`] with the same plan
//! and seed yields the same Internet, packet for packet.
//!
//! Worlds are described declaratively by [`spec::ScenarioSpec`] (TOML or
//! JSON files; `scenarios/` in the repository root is the preset
//! library) and lowered to the imperative [`plan::PoolPlan`] that
//! [`blueprint::WorldBlueprint::build`] consumes.

#![warn(missing_docs)]

pub mod blueprint;
pub mod plan;
pub mod scenario;
pub mod spec;
pub mod vantage;

pub use blueprint::{generate_profiles, WorldBlueprint};
pub use plan::{PoolPlan, ServerProfile, SpecialBehaviour, WebProfile};
pub use scenario::{
    build_scenario, BleachSite, GroundTruth, Scenario, ServerInfo, Vantage, EC2_SUPER_PREFIX,
};
pub use spec::{
    LinkSpec, MiddleboxSpec, PopulationSpec, ScenarioSpec, ScheduleProfile, ScheduleSpec,
    SpecError, TopologySpec, ValidatorSpec,
};
pub use vantage::{
    all_vantages, total_traces, TraceAllocation, VantageSpec, UDP_RETRIES, UDP_TIMEOUT,
};
