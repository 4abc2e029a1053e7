//! Figure 4 and the §4.2 hop statistics: where do ECT(0) marks get
//! stripped?
//!
//! A *hop* is a (vantage, responding router address) pair. A hop is
//! **modified** if any probe's quoted ECN field differed from what was
//! sent, **sometimes-modified** if probes disagreed. The *strip location*
//! of a path is the first modified hop — classified as an AS-boundary
//! location when its AS differs from the previous responding hop's
//! (paper: 59.1% of determinable strip locations were at AS boundaries).

use crate::campaign::VantageRoutes;
use crate::reducers::HopSurveyCounts;
use crate::report::render_table;
use ecn_asdb::AsDb;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Aggregated §4.2 statistics.
#[derive(Debug, Clone)]
pub struct Figure4 {
    /// Unique (vantage, hop) pairs that responded (paper: 155439).
    pub total_hops: usize,
    /// Hops whose quotes always matched the sent mark (paper: 154421).
    pub pass_hops: usize,
    /// Hops observed with a modified mark at least once (paper: 1143).
    pub strip_hops: usize,
    /// Hops that both passed and stripped (paper: 125 "only sometimes").
    pub sometimes_hops: usize,
    /// Distinct ASes among responding hops (paper: 1400).
    pub as_count: usize,
    /// Strip locations (first modified hop per path, deduplicated per
    /// vantage).
    pub strip_locations: usize,
    /// Strip locations whose AS could be determined.
    pub located: usize,
    /// Of those, at an AS boundary (paper: 59.1%).
    pub boundary: usize,
    /// CE marks observed in quotes (paper: none).
    pub ce_observed: usize,
    /// Paths ending with an ICMP answer from the destination itself
    /// (paper: traces generally stop one hop before the destination).
    pub reached_destination: usize,
    /// Total paths traced.
    pub paths: usize,
}

impl Figure4 {
    /// Fraction of hops passing the mark unmodified (paper: ~98%... of
    /// 155439, 154421 = 99.3%; "~98% of network hops" in the abstract).
    pub fn pass_fraction(&self) -> f64 {
        if self.total_hops == 0 {
            return 1.0;
        }
        self.pass_hops as f64 / self.total_hops as f64
    }

    /// Fraction of located strip locations at AS boundaries.
    pub fn boundary_fraction(&self) -> f64 {
        if self.located == 0 {
            return 0.0;
        }
        self.boundary as f64 / self.located as f64
    }

    /// Paper-style text rendering.
    pub fn render(&self) -> String {
        let rows = vec![
            vec![
                "IP-level hops observed".into(),
                self.total_hops.to_string(),
                "155439".into(),
            ],
            vec![
                "… passing ECT(0) unmodified".into(),
                self.pass_hops.to_string(),
                "154421".into(),
            ],
            vec![
                "… with mark stripped".into(),
                self.strip_hops.to_string(),
                "1143".into(),
            ],
            vec![
                "… only sometimes stripping".into(),
                self.sometimes_hops.to_string(),
                "125".into(),
            ],
            vec![
                "ASes covered".into(),
                self.as_count.to_string(),
                "1400".into(),
            ],
            vec![
                "strip locations at AS boundaries".into(),
                format!("{:.1}%", 100.0 * self.boundary_fraction()),
                "59.1%".into(),
            ],
            vec![
                "ECN-CE marks seen".into(),
                self.ce_observed.to_string(),
                "0".into(),
            ],
        ];
        let mut out = render_table(
            "Figure 4 / §4.2: ECN mark survival across network hops",
            &["metric", "measured", "paper"],
            &rows,
        );
        out.push_str(&format!(
            "pass fraction {:.2}% over {} paths ({} reached the destination)\n",
            100.0 * self.pass_fraction(),
            self.paths,
            self.reached_destination,
        ));
        out
    }
}

impl Figure4 {
    /// Finalize the streamed hop-survey state. Only `as_count` still
    /// needs the AS database here (a lookup over the merged hop
    /// identities); the per-path strip classification happened at
    /// observe time.
    pub fn from_counts(counts: &HopSurveyCounts, asdb: &AsDb) -> Figure4 {
        let total_hops = counts.hop_state.len();
        let strip_hops = counts.hop_state.values().filter(|(_, m)| *m).count();
        let sometimes_hops = counts.hop_state.values().filter(|(p, m)| *p && *m).count();
        let pass_hops = counts.hop_state.values().filter(|(p, _)| *p).count();
        let as_count = {
            let mut set = BTreeSet::new();
            for (_, ip) in counts.hop_state.keys() {
                if let Some(asn) = asdb.lookup(*ip) {
                    set.insert(asn);
                }
            }
            set.len()
        };
        let located = counts.strip_locations.values().filter(|(m, _)| *m).count();
        let boundary = counts
            .strip_locations
            .values()
            .filter(|(m, b)| *m && *b)
            .count();

        Figure4 {
            total_hops,
            pass_hops,
            strip_hops,
            sometimes_hops,
            as_count,
            strip_locations: counts.strip_locations.len(),
            located,
            boundary,
            ce_observed: counts.ce_observed as usize,
            reached_destination: counts.reached_destination as usize,
            paths: counts.paths as usize,
        }
    }
}

/// Export one vantage's traceroute tree as Graphviz DOT: hops in green
/// when they always passed the mark, red when they (ever) returned a
/// modified quote — the textual equivalent of the paper's radial Figure 4.
pub fn figure4_dot(vr: &VantageRoutes) -> String {
    let mut modified: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut edges: BTreeSet<(String, String)> = BTreeSet::new();
    let mut nodes: BTreeSet<Ipv4Addr> = BTreeSet::new();
    for path in &vr.paths {
        let sent = path.sent_ecn;
        let mut prev = format!("\"{}\"", vr.vantage_key);
        for hop in &path.hops {
            let Some(router) = hop.router else { continue };
            nodes.insert(router);
            if hop.modified(sent) {
                modified.insert(router);
            }
            let this = format!("\"{router}\"");
            edges.insert((prev.clone(), this.clone()));
            prev = this;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "// ECN traceroute map from {} — green hops pass ECT(0), red hops returned a modified mark\n",
        vr.vantage_key
    ));
    out.push_str("graph ecn_traceroute {\n  layout=twopi; ranksep=2;\n");
    out.push_str(&format!(
        "  \"{}\" [shape=box, color=blue, root=true];\n",
        vr.vantage_key
    ));
    for n in &nodes {
        let color = if modified.contains(n) { "red" } else { "green" };
        out.push_str(&format!("  \"{n}\" [shape=point, color={color}];\n"));
    }
    for (a, b) in &edges {
        out.push_str(&format!("  {a} -- {b};\n"));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::figure4;
    use crate::traceroute::{HopObservation, TraceroutePath};
    use ecn_wire::Ecn;

    fn ip(a: u8, b: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, a, b, 1)
    }

    fn hop(router: Ipv4Addr, quotes: Vec<Ecn>) -> HopObservation {
        HopObservation {
            ttl: 0,
            router: Some(router),
            quoted_ecn: quotes,
        }
    }

    fn path(dst: Ipv4Addr, hops: Vec<HopObservation>) -> TraceroutePath {
        TraceroutePath {
            dst,
            sent_ecn: Ecn::Ect0,
            hops,
            reached_destination: false,
        }
    }

    fn asdb() -> AsDb {
        let mut db = AsDb::new();
        db.insert(Ipv4Addr::new(10, 1, 0, 0), 16, 65001);
        db.insert(Ipv4Addr::new(10, 2, 0, 0), 16, 65002);
        db
    }

    #[test]
    fn clean_path_counts_only_passes() {
        let routes = vec![VantageRoutes {
            vantage_key: "v".into(),
            paths: vec![path(
                ip(9, 9),
                vec![
                    hop(ip(1, 1), vec![Ecn::Ect0; 3]),
                    hop(ip(1, 2), vec![Ecn::Ect0; 3]),
                ],
            )],
        }];
        let f = figure4(&routes, &asdb());
        assert_eq!(f.total_hops, 2);
        assert_eq!(f.pass_hops, 2);
        assert_eq!(f.strip_hops, 0);
        assert_eq!(f.strip_locations, 0);
        assert_eq!(f.ce_observed, 0);
        assert!((f.pass_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn red_run_counts_downstream_hops_and_locates_first() {
        // bleacher between hop1 (AS 65001) and hop2 (AS 65002): hops 2,3 red
        let routes = vec![VantageRoutes {
            vantage_key: "v".into(),
            paths: vec![path(
                ip(9, 9),
                vec![
                    hop(ip(1, 1), vec![Ecn::Ect0; 3]),
                    hop(ip(2, 1), vec![Ecn::NotEct; 3]),
                    hop(ip(2, 2), vec![Ecn::NotEct; 3]),
                ],
            )],
        }];
        let f = figure4(&routes, &asdb());
        assert_eq!(f.total_hops, 3);
        assert_eq!(f.strip_hops, 2, "both downstream hops show modified");
        assert_eq!(f.pass_hops, 1);
        assert_eq!(f.sometimes_hops, 0);
        assert_eq!(f.strip_locations, 1, "one first-modified location");
        assert_eq!(f.located, 1);
        assert_eq!(f.boundary, 1, "65001 -> 65002 crossing");
        assert!((f.boundary_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sometimes_strips_appear_in_both_counts() {
        let routes = vec![VantageRoutes {
            vantage_key: "v".into(),
            paths: vec![path(
                ip(9, 9),
                vec![hop(ip(1, 1), vec![Ecn::Ect0, Ecn::NotEct, Ecn::Ect0])],
            )],
        }];
        let f = figure4(&routes, &asdb());
        assert_eq!(f.total_hops, 1);
        assert_eq!(f.strip_hops, 1);
        assert_eq!(f.pass_hops, 1);
        assert_eq!(f.sometimes_hops, 1);
        // paper arithmetic: pass + strip - sometimes = total
        assert_eq!(f.pass_hops + f.strip_hops - f.sometimes_hops, f.total_hops);
    }

    #[test]
    fn same_hop_from_two_vantages_counts_twice() {
        let p = path(ip(9, 9), vec![hop(ip(1, 1), vec![Ecn::Ect0; 3])]);
        let routes = vec![
            VantageRoutes {
                vantage_key: "v1".into(),
                paths: vec![p.clone()],
            },
            VantageRoutes {
                vantage_key: "v2".into(),
                paths: vec![p],
            },
        ];
        let f = figure4(&routes, &asdb());
        assert_eq!(f.total_hops, 2, "hops are per-vantage observations");
        assert_eq!(f.as_count, 1);
    }

    #[test]
    fn interior_strip_is_not_boundary() {
        // both hops in AS 65001: strip located interior
        let routes = vec![VantageRoutes {
            vantage_key: "v".into(),
            paths: vec![path(
                ip(9, 9),
                vec![
                    hop(ip(1, 1), vec![Ecn::Ect0; 3]),
                    hop(ip(1, 2), vec![Ecn::NotEct; 3]),
                ],
            )],
        }];
        let f = figure4(&routes, &asdb());
        assert_eq!(f.located, 1);
        assert_eq!(f.boundary, 0);
    }

    #[test]
    fn dot_export_colors_nodes() {
        let routes = VantageRoutes {
            vantage_key: "v".into(),
            paths: vec![path(
                ip(9, 9),
                vec![
                    hop(ip(1, 1), vec![Ecn::Ect0; 3]),
                    hop(ip(2, 1), vec![Ecn::NotEct; 3]),
                ],
            )],
        };
        let dot = figure4_dot(&routes);
        assert!(dot.contains("\"10.1.1.1\" [shape=point, color=green]"));
        assert!(dot.contains("\"10.2.1.1\" [shape=point, color=red]"));
        assert!(dot.contains("\"v\" -- \"10.1.1.1\"") || dot.contains("\"v\" [shape=box"));
        assert!(dot.starts_with("//"));
    }
}
