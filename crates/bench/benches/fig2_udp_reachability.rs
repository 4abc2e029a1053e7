//! Figure 2: per-trace UDP reachability with and without ECT(0) marks —
//! the paper's headline result (98.97% / 99.45%).

use ecn_bench::{paper_campaign, time_kernel};
use ecn_core::analysis::figure2_from_counters;
use ecn_core::FullReport;

fn main() {
    let result = paper_campaign(false);
    let fig = FullReport::from_aggregates(&result).figure2;
    println!("{}", fig.render());

    // per-trace bars, exported for plotting
    let out = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out).expect("mkdir");
    let mut csv = String::from("trace,vantage,pct_a,pct_b,plain_reachable,ect_reachable\n");
    for (i, b) in fig.bars.iter().enumerate() {
        csv.push_str(&format!(
            "{i},{},{:.4},{:.4},{},{}\n",
            b.vantage_key, b.pct_a, b.pct_b, b.plain_reachable, b.ect_reachable
        ));
    }
    std::fs::write(out.join("figure2_bars.csv"), &csv).expect("write csv");
    println!("per-trace series -> target/figures/figure2_bars.csv");

    // kernel: the Figure 2 finalizer over the 210 streamed trace counters
    time_kernel("figure2 from aggregates (210 traces)", 20, || {
        figure2_from_counters(&result.aggregates.trace_stats.ordered())
    });
}
