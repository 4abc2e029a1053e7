//! # ecn-geo — synthetic geolocation database
//!
//! Substitutes for the MaxMind GeoLite2 City snapshot (25 April 2015) the
//! paper used to place the 2500 NTP pool servers on a map (Figure 1) and
//! into the regional breakdown of Table 1. The regional *marginals* are
//! taken from the paper verbatim; the per-server coordinates are sampled
//! from per-region bounding boxes, weighted towards a few population
//! centres so the Figure 1 scatter has realistic clumping.

use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Continental regions as reported in Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Africa.
    Africa,
    /// Asia.
    Asia,
    /// Australia/Oceania.
    Australia,
    /// Europe.
    Europe,
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Address not present in the geolocation database.
    Unknown,
}

impl Region {
    /// All regions in Table 1 order.
    pub const ALL: [Region; 7] = [
        Region::Africa,
        Region::Asia,
        Region::Australia,
        Region::Europe,
        Region::NorthAmerica,
        Region::SouthAmerica,
        Region::Unknown,
    ];
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::Africa => "Africa",
            Region::Asia => "Asia",
            Region::Australia => "Australia",
            Region::Europe => "Europe",
            Region::NorthAmerica => "North America",
            Region::SouthAmerica => "South America",
            Region::Unknown => "Unknown",
        };
        f.write_str(s)
    }
}

/// The paper's Table 1: NTP pool servers discovered per region.
pub const TABLE1_DISTRIBUTION: [(Region, usize); 7] = [
    (Region::Africa, 22),
    (Region::Asia, 190),
    (Region::Australia, 68),
    (Region::Europe, 1664),
    (Region::NorthAmerica, 522),
    (Region::SouthAmerica, 32),
    (Region::Unknown, 2),
];

/// Total servers in Table 1.
pub const TABLE1_TOTAL: usize = 2500;

/// Country codes used for pool subdomains, per region (subset of the real
/// pool's country zones, enough to exercise the discovery loop).
pub fn region_countries(region: Region) -> &'static [&'static str] {
    match region {
        Region::Africa => &["za", "ke", "eg"],
        Region::Asia => &["jp", "cn", "in", "kr", "sg", "tw", "hk", "id"],
        Region::Australia => &["au", "nz"],
        Region::Europe => &[
            "uk", "de", "fr", "nl", "se", "pl", "it", "es", "ch", "at", "fi", "cz", "ru", "dk",
            "no",
        ],
        Region::NorthAmerica => &["us", "ca", "mx"],
        Region::SouthAmerica => &["br", "ar", "cl"],
        Region::Unknown => &[],
    }
}

/// The pool's continental zone names (subdomains like
/// `europe.pool.ntp.org`).
pub fn region_zone(region: Region) -> Option<&'static str> {
    match region {
        Region::Africa => Some("africa"),
        Region::Asia => Some("asia"),
        Region::Australia => Some("oceania"),
        Region::Europe => Some("europe"),
        Region::NorthAmerica => Some("north-america"),
        Region::SouthAmerica => Some("south-america"),
        Region::Unknown => None,
    }
}

/// (lat, lon) bounding boxes plus a few population-centre anchors.
fn region_box(region: Region) -> ((f64, f64), (f64, f64)) {
    match region {
        Region::Africa => ((-34.0, 35.0), (-17.0, 47.0)),
        Region::Asia => ((1.0, 55.0), (68.0, 145.0)),
        Region::Australia => ((-45.0, -10.0), (113.0, 178.0)),
        Region::Europe => ((36.0, 68.0), (-10.0, 40.0)),
        Region::NorthAmerica => ((18.0, 60.0), (-125.0, -60.0)),
        Region::SouthAmerica => ((-40.0, 10.0), (-80.0, -35.0)),
        Region::Unknown => ((0.0, 0.0), (0.0, 0.0)),
    }
}

fn region_anchors(region: Region) -> &'static [(f64, f64)] {
    match region {
        Region::Europe => &[
            (51.5, -0.1), // London
            (52.5, 13.4), // Berlin
            (48.9, 2.4),  // Paris
            (52.4, 4.9),  // Amsterdam
            (59.3, 18.1), // Stockholm
            (50.1, 14.4), // Prague
        ],
        Region::NorthAmerica => &[
            (40.7, -74.0),  // New York
            (37.8, -122.4), // San Francisco
            (41.9, -87.6),  // Chicago
            (45.5, -73.6),  // Montreal
        ],
        Region::Asia => &[
            (35.7, 139.7), // Tokyo
            (1.3, 103.8),  // Singapore
            (37.6, 127.0), // Seoul
        ],
        Region::Australia => &[(-33.9, 151.2), (-37.8, 145.0)],
        Region::SouthAmerica => &[(-23.5, -46.6)],
        Region::Africa => &[(-33.9, 18.4)],
        Region::Unknown => &[],
    }
}

/// One geolocated address.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoRecord {
    /// Continental region.
    pub region: Region,
    /// Two-letter country code (empty for Unknown).
    pub country: String,
    /// Latitude.
    pub lat: f64,
    /// Longitude.
    pub lon: f64,
}

/// The database: address → record.
#[derive(Debug, Default, Clone)]
pub struct GeoDb {
    records: HashMap<Ipv4Addr, GeoRecord>,
}

impl GeoDb {
    /// An empty database.
    pub fn new() -> GeoDb {
        GeoDb::default()
    }

    /// Insert a record.
    pub fn insert(&mut self, addr: Ipv4Addr, record: GeoRecord) {
        self.records.insert(addr, record);
    }

    /// Look up an address (None ≙ the paper's "Unknown" row).
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&GeoRecord> {
        self.records.get(&addr)
    }

    /// Region of an address, mapping misses to [`Region::Unknown`].
    pub fn region_of(&self, addr: Ipv4Addr) -> Region {
        self.lookup(addr)
            .map(|r| r.region)
            .unwrap_or(Region::Unknown)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Count addresses per region (the Table 1 aggregation), over a target
    /// list: addresses not in the DB count as Unknown.
    pub fn distribution(&self, addrs: &[Ipv4Addr]) -> Vec<(Region, usize)> {
        let mut counts: HashMap<Region, usize> = HashMap::new();
        for a in addrs {
            *counts.entry(self.region_of(*a)).or_insert(0) += 1;
        }
        Region::ALL
            .iter()
            .map(|r| (*r, counts.get(r).copied().unwrap_or(0)))
            .collect()
    }
}

/// Sample a plausible location for a server in `region`: 70% clustered
/// near an anchor city, 30% uniform in the region's bounding box.
pub fn sample_location(region: Region, rng: &mut SmallRng) -> (f64, f64) {
    let ((lat_lo, lat_hi), (lon_lo, lon_hi)) = region_box(region);
    let anchors = region_anchors(region);
    if !anchors.is_empty() && rng.gen_bool(0.7) {
        let (alat, alon) = anchors[rng.gen_range(0..anchors.len())];
        let lat = (alat + rng.gen_range(-2.0..2.0)).clamp(lat_lo, lat_hi);
        let lon = (alon + rng.gen_range(-2.0..2.0)).clamp(lon_lo, lon_hi);
        (lat, lon)
    } else {
        (
            rng.gen_range(lat_lo..=lat_hi),
            rng.gen_range(lon_lo..=lon_hi),
        )
    }
}

/// Pick a country code for a server in `region`.
pub fn sample_country(region: Region, rng: &mut SmallRng) -> String {
    let countries = region_countries(region);
    if countries.is_empty() {
        String::new()
    } else {
        countries[rng.gen_range(0..countries.len())].to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn table1_totals() {
        let sum: usize = TABLE1_DISTRIBUTION.iter().map(|(_, n)| n).sum();
        assert_eq!(sum, TABLE1_TOTAL);
        assert_eq!(TABLE1_DISTRIBUTION[3], (Region::Europe, 1664));
    }

    #[test]
    fn lookup_and_distribution() {
        let mut db = GeoDb::new();
        let a = Ipv4Addr::new(192, 0, 2, 1);
        let b = Ipv4Addr::new(192, 0, 2, 2);
        let c = Ipv4Addr::new(192, 0, 2, 3);
        db.insert(
            a,
            GeoRecord {
                region: Region::Europe,
                country: "uk".into(),
                lat: 51.5,
                lon: -0.1,
            },
        );
        db.insert(
            b,
            GeoRecord {
                region: Region::Asia,
                country: "jp".into(),
                lat: 35.7,
                lon: 139.7,
            },
        );
        let dist = db.distribution(&[a, b, c]);
        let get = |r: Region| dist.iter().find(|(x, _)| *x == r).unwrap().1;
        assert_eq!(get(Region::Europe), 1);
        assert_eq!(get(Region::Asia), 1);
        assert_eq!(get(Region::Unknown), 1, "unmapped address is Unknown");
        assert_eq!(db.region_of(c), Region::Unknown);
    }

    #[test]
    fn sampled_locations_fall_inside_region_boxes() {
        let mut rng = SmallRng::seed_from_u64(1);
        for region in Region::ALL.iter().take(6) {
            let ((lat_lo, lat_hi), (lon_lo, lon_hi)) = region_box(*region);
            for _ in 0..200 {
                let (lat, lon) = sample_location(*region, &mut rng);
                assert!(lat >= lat_lo && lat <= lat_hi, "{region} lat {lat}");
                assert!(lon >= lon_lo && lon <= lon_hi, "{region} lon {lon}");
            }
        }
    }

    #[test]
    fn countries_belong_to_their_region() {
        for r in Region::ALL {
            let mut rng = SmallRng::seed_from_u64(7);
            let c = sample_country(r, &mut rng);
            if r == Region::Unknown {
                assert!(c.is_empty());
            } else {
                assert!(region_countries(r).contains(&c.as_str()));
            }
        }
    }

    #[test]
    fn every_populated_region_has_a_zone_name() {
        for (r, n) in TABLE1_DISTRIBUTION {
            if r != Region::Unknown && n > 0 {
                assert!(region_zone(r).is_some(), "{r}");
            }
        }
        assert_eq!(region_zone(Region::Unknown), None);
    }
}
