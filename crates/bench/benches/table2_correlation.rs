//! Table 2: correlation between UDP-with-ECT unreachability and TCP ECN
//! negotiation failure — the weak-correlation / UDP-specific-filtering
//! finding of §4.4.

use ecn_bench::{paper_campaign, time_kernel};
use ecn_core::analysis::Table2;
use ecn_core::FullReport;

fn main() {
    let result = paper_campaign(false);
    let t2 = FullReport::from_aggregates(&result).table2;
    println!("{}", t2.render());

    println!(
        "paper reference rows: Perkins 8/3, McQuistin 160/20, UGla wired 10/2, UGla w'less 43/4, EC2 10..16 / 2..5"
    );

    // kernel: the Table 2 finalizer over the streamed correlation counters
    let a = &result.aggregates;
    time_kernel("table2 from aggregates (210 traces)", 20, || {
        Table2::from_counts(&a.table2, &a.trace_stats.ordered())
    });
}
