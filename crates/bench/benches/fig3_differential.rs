//! Figure 3: per-server differential reachability per location — the
//! "same handful of servers is ECT-unreachable from everywhere" result.

use ecn_bench::{paper_campaign, time_kernel};
use ecn_core::analysis::Figure3;
use ecn_core::FullReport;

fn main() {
    let result = paper_campaign(false);
    let fig = FullReport::from_aggregates(&result).figure3;
    println!("{}", fig.render());

    // audit against the planted ground truth
    let planted: usize = result.truth.ect_blocked.len() + result.truth.ect_blocked_flaky.len();
    println!(
        "audit: planted {} ECT-blocking middleboxes; measured {} persistent blackholes (flaky ECMP servers appear as partial spikes)",
        planted,
        fig.persistent_a.len()
    );
    let found: usize = fig
        .persistent_a
        .iter()
        .filter(|a| result.truth.ect_blocked.contains(a))
        .count();
    println!(
        "audit: {found}/{} persistent findings are planted always-blocked servers",
        fig.persistent_a.len()
    );

    // kernel: the Figure 3 finalizer over the streamed per-(location,
    // server) counters, including the copy it consumes
    let a = &result.aggregates;
    time_kernel(
        "figure3 from aggregates (13 locations x 2500 servers)",
        10,
        || Figure3::from_counts(a.differential.clone(), &a.trace_stats.location_order()),
    );
}
