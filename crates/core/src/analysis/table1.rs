//! Table 1 / Figure 1: geographic distribution of the discovered servers.

use crate::report::render_table;
use ecn_geo::{GeoDb, Region, TABLE1_DISTRIBUTION};
use std::net::Ipv4Addr;

/// The Table 1 dataset.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Measured (region, count) over the discovered targets.
    pub rows: Vec<(Region, usize)>,
    /// Total discovered.
    pub total: usize,
}

/// Compute Table 1 from the discovered target list.
pub fn table1(geodb: &GeoDb, targets: &[Ipv4Addr]) -> Table1 {
    Table1 {
        rows: geodb.distribution(targets),
        total: targets.len(),
    }
}

impl Table1 {
    /// Count for one region.
    pub fn count(&self, region: Region) -> usize {
        self.rows
            .iter()
            .find(|(r, _)| *r == region)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }

    /// Paper-style text rendering with the paper's column alongside.
    pub fn render(&self) -> String {
        let paper: std::collections::HashMap<Region, usize> =
            TABLE1_DISTRIBUTION.iter().copied().collect();
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(region, count)| {
                vec![
                    region.to_string(),
                    count.to_string(),
                    paper.get(region).copied().unwrap_or(0).to_string(),
                ]
            })
            .collect();
        rows.push(vec![
            "Total".into(),
            self.total.to_string(),
            ecn_geo::TABLE1_TOTAL.to_string(),
        ]);
        render_table(
            "Table 1: geographic distribution of NTP pool servers",
            &["Region", "measured", "paper"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecn_geo::GeoRecord;

    #[test]
    fn distribution_counts_and_unknown() {
        let mut db = GeoDb::new();
        let a = Ipv4Addr::new(1, 0, 0, 1);
        let b = Ipv4Addr::new(1, 0, 0, 2);
        db.insert(
            a,
            GeoRecord {
                region: Region::Europe,
                country: "uk".into(),
                lat: 0.0,
                lon: 0.0,
            },
        );
        let t = table1(&db, &[a, b]);
        assert_eq!(t.count(Region::Europe), 1);
        assert_eq!(t.count(Region::Unknown), 1);
        assert_eq!(t.total, 2);
        let r = t.render();
        assert!(r.contains("Europe"));
        assert!(r.contains("1664"), "paper column present");
        assert!(r.contains("Total"));
    }
}
