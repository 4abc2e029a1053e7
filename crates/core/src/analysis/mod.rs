//! The analysis suite: one module per paper artefact, plus a
//! [`FullReport`] aggregator that computes everything from a
//! [`crate::campaign::CampaignResult`]'s streamed aggregates. Each
//! artefact has exactly one derivation: a finalizer over its reducer
//! (`from_counts` / `*_from_counters`), never a walk over raw records.

pub mod batches;
pub mod correlation;
pub mod differential;
pub mod hops;
pub mod reachability;
pub mod table1;
pub mod tcp_ecn;
pub mod trend;
pub mod validation;

pub use batches::BatchComparison;
pub use correlation::{Table2, Table2Row};
pub use differential::{Figure3, ServerDifferential};
pub use hops::{figure4_dot, Figure4};
pub use reachability::{figure2_from_counters, Figure2, TraceBar};
pub use table1::{table1, Table1};
pub use tcp_ecn::{figure5_from_counters, Fig5Bar, Figure5};
pub use trend::{figure6, fit_logistic, historical_points, Figure6, LogisticFit, TrendPoint};
pub use validation::{TruthClass, ValidationReport};

use crate::campaign::CampaignResult;

/// Every table and figure computed from one campaign.
pub struct FullReport {
    /// Table 1: server geography.
    pub table1: Table1,
    /// Figure 2: UDP reachability ±ECT(0).
    pub figure2: Figure2,
    /// Figure 3: per-server differential reachability.
    pub figure3: Figure3,
    /// Figure 4 / §4.2: hop-level mark survival.
    pub figure4: Figure4,
    /// Figure 5: TCP reachability and ECN negotiation.
    pub figure5: Figure5,
    /// Figure 6: historical trend with our point appended.
    pub figure6: Figure6,
    /// Table 2: UDP/TCP correlation.
    pub table2: Table2,
    /// §4.1 batch comparison (churn between collection periods).
    pub batches: BatchComparison,
    /// ECN-validation confusion matrix — `None` unless the modern-ECN
    /// validation pass ran (`ValidationConfig::packets > 0`), so
    /// pre-validator campaigns render byte-identically.
    pub validation: Option<ValidationReport>,
}

impl FullReport {
    /// Compute everything. The same as [`Self::from_aggregates`]: the
    /// streamed aggregates are the single source of truth for the report
    /// path. Both names stay because callers outside this workspace's
    /// library (the `ecnbench` benchmark among them) use each.
    pub fn from_campaign(result: &CampaignResult) -> FullReport {
        FullReport::from_aggregates(result)
    }

    /// Compute everything from the streamed aggregates — O(aggregates)
    /// memory, no `TraceRecord` or per-trace walk involved. Renders
    /// byte-identically to a naive walk over every raw record of the same
    /// campaign (`crates/core/tests/report_differential.rs` is the gate).
    ///
    /// ```
    /// use ecn_core::{try_run_engine, CampaignConfig, EngineConfig, FullReport};
    /// use ecn_pool::PoolPlan;
    ///
    /// let cfg = CampaignConfig {
    ///     discovery_rounds: 10,
    ///     traces_per_vantage: Some(1),
    ///     run_traceroute: false,
    ///     ..CampaignConfig::quick(2015)
    /// };
    /// let run = try_run_engine(&PoolPlan::scaled(24), &cfg, &EngineConfig::default())
    ///     .expect("an in-process campaign cannot fail");
    /// let report = FullReport::from_aggregates(&run.result);
    /// let text = report.render();
    /// for artefact in ["Table 1", "Figure 2a", "Figure 3", "Figure 5", "Table 2"] {
    ///     assert!(text.contains(artefact), "missing {artefact}");
    /// }
    /// ```
    pub fn from_aggregates(result: &CampaignResult) -> FullReport {
        let a = &result.aggregates;
        // campaign order is sorted out once; every per-trace artefact
        // derives from the same sequence
        let ordered = a.trace_stats.ordered();
        let order = crate::reducers::location_order_of(&ordered);
        let figure5 = figure5_from_counters(&ordered);
        let measured_pct = figure5.negotiated_pct();
        FullReport {
            table1: table1(&result.geodb, &result.targets),
            figure2: figure2_from_counters(&ordered),
            figure3: Figure3::from_counts(a.differential.clone(), &order),
            figure4: Figure4::from_counts(&a.hops, &result.asdb),
            figure5,
            figure6: figure6(measured_pct),
            table2: Table2::from_counts(&a.table2, &order),
            batches: BatchComparison::from_counts(&a.batches),
            validation: ValidationReport::from_counts(&a.validation, &result.truth),
        }
    }

    /// Render the whole report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.table1.render());
        out.push('\n');
        out.push_str(&self.figure2.render());
        out.push('\n');
        out.push_str(&self.figure3.render());
        out.push('\n');
        out.push_str(&self.figure4.render());
        out.push('\n');
        out.push_str(&self.figure5.render());
        out.push('\n');
        out.push_str(&self.figure6.render());
        out.push('\n');
        out.push_str(&self.table2.render());
        out.push('\n');
        out.push_str(&self.batches.render());
        if let Some(v) = &self.validation {
            out.push('\n');
            out.push_str(&v.render());
        }
        out
    }
}
