//! Figure 5: web-server reachability over TCP and ECN negotiation success
//! (paper: 1334 reachable, 1095 = 82.0% negotiate).

use ecn_bench::{paper_campaign, time_kernel};
use ecn_core::analysis::figure5_from_counters;
use ecn_core::FullReport;

fn main() {
    let result = paper_campaign(false);
    let fig = FullReport::from_aggregates(&result).figure5;
    println!("{}", fig.render());

    println!(
        "audit: planted {} web servers of which {} ECN-capable ({:.1}%)",
        result.truth.web_server_count,
        result.truth.web_ecn_on_count,
        100.0 * result.truth.web_ecn_on_count as f64 / result.truth.web_server_count.max(1) as f64,
    );

    // kernel: the Figure 5 finalizer over the 210 streamed trace counters
    time_kernel("figure5 from aggregates (210 traces)", 50, || {
        figure5_from_counters(&result.aggregates.trace_stats.ordered())
    });
}
