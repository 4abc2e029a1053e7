//! Figure 6: the 2000–2015 trend in TCP ECN negotiation, with our
//! measured point appended and a logistic growth fit.

use ecn_bench::{paper_campaign, time_kernel};
use ecn_core::analysis::{fit_logistic, historical_points};
use ecn_core::FullReport;

fn main() {
    let result = paper_campaign(false);
    let fig = FullReport::from_aggregates(&result).figure6;
    println!("{}", fig.render());

    // yearly curve samples for plotting
    let out = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out).expect("mkdir");
    let mut csv = String::from("year,fit_percent\n");
    for y in 2000..=2017 {
        csv.push_str(&format!("{y},{:.3}\n", fig.fit.at(f64::from(y))));
    }
    std::fs::write(out.join("figure6_fit.csv"), &csv).expect("write csv");
    println!("fit curve -> target/figures/figure6_fit.csv");

    time_kernel("logistic fit (8 points)", 10_000, || {
        fit_logistic(&historical_points())
    });
}
