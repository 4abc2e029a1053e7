//! Figure 6: the historical trend of TCP servers willing to negotiate ECN,
//! 2000–2015 (§4.3). Combines the prior studies the paper plots with our
//! measured 2015 point, and fits a logistic growth curve — the paper's
//! observation is that its 82.0% sits "on a growth curve that looks to be
//! in line with previous results".

use crate::report::render_table;

/// One measurement of ECN-negotiation willingness.
#[derive(Debug, Clone)]
pub struct TrendPoint {
    /// Decimal year of the measurement.
    pub year: f64,
    /// Percentage of probed servers negotiating ECN.
    pub percent: f64,
    /// Study label.
    pub source: String,
}

/// Historical points as plotted in Figure 6 (values from the studies the
/// paper cites: Medina 2000/2004, Langley 2008, Bauer 2011, Kühlewind
/// 2012×2, Trammell 2014).
pub fn historical_points() -> Vec<TrendPoint> {
    let p = |year: f64, percent: f64, source: &str| TrendPoint {
        year,
        percent,
        source: source.to_string(),
    };
    vec![
        p(2000.5, 0.2, "(Medina)"),
        p(2004.3, 1.0, "(Medina)"),
        p(2008.7, 1.07, "(Langley)"),
        p(2011.5, 17.2, "(Bauer)"),
        p(2012.3, 25.16, "(Kuhlewind)"),
        p(2012.6, 29.48, "(Kuhlewind)"),
        p(2014.7, 56.17, "(Trammell)"),
    ]
}

/// A fitted logistic curve `100 / (1 + exp(-k (t - t0)))`.
#[derive(Debug, Clone, Copy)]
pub struct LogisticFit {
    /// Growth rate per year.
    pub k: f64,
    /// Midpoint year (50% adoption).
    pub t0: f64,
    /// Coefficient of determination of the logit-space regression.
    pub r_squared: f64,
}

impl LogisticFit {
    /// Evaluate the curve at a decimal year.
    pub fn at(&self, year: f64) -> f64 {
        100.0 / (1.0 + (-self.k * (year - self.t0)).exp())
    }
}

/// Fit the logistic by linear regression in logit space:
/// `ln(p/(100-p)) = k·t − k·t0`.
pub fn fit_logistic(points: &[TrendPoint]) -> LogisticFit {
    let data: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.percent > 0.0 && p.percent < 100.0)
        .map(|p| (p.year, (p.percent / (100.0 - p.percent)).ln()))
        .collect();
    let n = data.len() as f64;
    let sx: f64 = data.iter().map(|(x, _)| x).sum();
    let sy: f64 = data.iter().map(|(_, y)| y).sum();
    let sxx: f64 = data.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = data.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    let k = if denom.abs() < 1e-12 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    let intercept = (sy - k * sx) / n;
    let t0 = if k.abs() < 1e-12 { 0.0 } else { -intercept / k };
    // r² in logit space
    let mean_y = sy / n;
    let ss_tot: f64 = data.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = data
        .iter()
        .map(|(x, y)| (y - (k * x + intercept)).powi(2))
        .sum();
    let r_squared = if ss_tot < 1e-12 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    LogisticFit { k, t0, r_squared }
}

/// The Figure 6 dataset.
#[derive(Debug, Clone)]
pub struct Figure6 {
    /// Historical points plus our measurement (last entry).
    pub points: Vec<TrendPoint>,
    /// Logistic fit over everything.
    pub fit: LogisticFit,
    /// Our measured point.
    pub measured: TrendPoint,
}

/// Build Figure 6: append our measured 2015 value and fit.
pub fn figure6(measured_percent: f64) -> Figure6 {
    let measured = TrendPoint {
        year: 2015.55, // July/August 2015 batch
        percent: measured_percent,
        source: "measured".to_string(),
    };
    let mut points = historical_points();
    points.push(measured.clone());
    let fit = fit_logistic(&points);
    Figure6 {
        points,
        fit,
        measured,
    }
}

impl Figure6 {
    /// Render the series and fit, paper-style.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.1}", p.year),
                    format!("{:.2}%", p.percent),
                    p.source.clone(),
                    format!("{:.2}%", self.fit.at(p.year)),
                ]
            })
            .collect();
        let mut out = render_table(
            "Figure 6: trend in TCP ECN negotiation capability",
            &["year", "negotiated", "source", "logistic fit"],
            &rows,
        );
        out.push_str(&format!(
            "\nlogistic fit: midpoint {:.1}, growth {:.2}/yr, r² = {:.3} (logit space)\n",
            self.fit.t0, self.fit.k, self.fit.r_squared,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn historical_points_match_cited_studies() {
        let pts = historical_points();
        assert_eq!(pts.len(), 7);
        let trammell = pts.iter().find(|p| p.source == "(Trammell)").unwrap();
        assert!((trammell.percent - 56.17).abs() < 1e-9);
        let kuhl: Vec<_> = pts.iter().filter(|p| p.source == "(Kuhlewind)").collect();
        assert_eq!(kuhl.len(), 2);
        // strictly increasing over time
        for w in pts.windows(2) {
            assert!(w[0].year < w[1].year);
            assert!(w[0].percent <= w[1].percent);
        }
    }

    #[test]
    fn perfect_logistic_is_recovered() {
        let truth = LogisticFit {
            k: 0.5,
            t0: 2013.0,
            r_squared: 1.0,
        };
        let pts: Vec<TrendPoint> = (2005..2020)
            .map(|y| TrendPoint {
                year: y as f64,
                percent: truth.at(y as f64),
                source: "synthetic".into(),
            })
            .collect();
        let fit = fit_logistic(&pts);
        assert!((fit.k - 0.5).abs() < 1e-6, "k = {}", fit.k);
        assert!((fit.t0 - 2013.0).abs() < 1e-6, "t0 = {}", fit.t0);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn our_measurement_lies_near_the_growth_curve() {
        // The paper's point: 82.0% in 2015 is in line with prior growth
        // ("a significant increase … but on a growth curve that looks to
        // be in line with previous results"). The fit is loose — the early
        // near-zero years flatten the logit regression — so the check is
        // that the curve lands within ~25 points and below the measured
        // value (adoption accelerating).
        let f = figure6(82.0);
        let predicted = f.fit.at(2015.55);
        assert!(
            (predicted - 82.0).abs() < 25.0,
            "measured 82% vs curve {predicted:.1}%"
        );
        assert!(predicted < 82.0, "our point sits above the fitted curve");
        assert!(f.fit.r_squared > 0.9, "r² = {}", f.fit.r_squared);
        assert!(f.fit.k > 0.0, "adoption grows");
        assert!(f.fit.t0 > 2010.0 && f.fit.t0 < 2020.0);
    }

    #[test]
    fn render_lists_all_points() {
        let f = figure6(82.0);
        let r = f.render();
        assert!(r.contains("(Trammell)"));
        assert!(r.contains("measured"));
        assert!(r.contains("logistic fit"));
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let fit = fit_logistic(&[]);
        assert_eq!(fit.k, 0.0);
        let fit = fit_logistic(&[TrendPoint {
            year: 2000.0,
            percent: 50.0,
            source: "x".into(),
        }]);
        assert!(fit.k.is_finite());
    }
}
