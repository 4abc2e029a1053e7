//! The thirteen measurement vantage points of paper §3: two homes, the
//! University of Glasgow (wired and wireless), and nine EC2 regions.

use ecn_geo::Region;
use ecn_netsim::{LossModel, Nanos};

/// Which collection batch(es) a vantage participates in (§3: homes and
/// UGla wireless in April/May 2015; everything incl. EC2 in July/August).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceAllocation {
    /// Traces collected in the April/May batch.
    pub batch1: usize,
    /// Traces collected in the July/August batch.
    pub batch2: usize,
}

/// One vantage point.
#[derive(Debug, Clone)]
pub struct VantageSpec {
    /// Paper's display name (Table 2 spelling).
    pub name: &'static str,
    /// Stable key for labels/files.
    pub key: &'static str,
    /// Short name used in Figure 2/5 axis labels.
    pub short: &'static str,
    /// Region (places the vantage near a tier-1).
    pub region: Region,
    /// Third octet base for the vantage prefix (see `scenario::addressing`).
    pub net_index: u8,
    /// Is this an EC2 vantage (drawn from 54.0.0.0/8)?
    pub ec2: bool,
    /// Access-link loss model (the calibrated noise source).
    pub loss_up: LossModel,
    /// Loss on the downstream direction.
    pub loss_down: LossModel,
    /// Trace allocation across the two batches.
    pub traces: TraceAllocation,
}

/// All 13 vantages in Table 2 order, with calibrated loss models.
///
/// Calibration targets (Table 2 "Avg. unreachable UDP with ECT"):
/// Perkins 8, McQuistin 160, UGla wired 10, UGla wireless 43, EC2 10–16.
/// The McQuistin home runs an ECN-*biased* burst model — symmetric loss
/// cannot reproduce a large Fig 2a differential alongside the small
/// Fig 2b one, which is exactly the paper's TOS-sensitivity hypothesis.
pub fn all_vantages() -> Vec<VantageSpec> {
    let t = |b1, b2| TraceAllocation {
        batch1: b1,
        batch2: b2,
    };
    vec![
        VantageSpec {
            name: "Perkins home",
            key: "perkins-home",
            short: "Perkins\nhome",
            region: Region::Europe,
            net_index: 0,
            ec2: false,
            loss_up: LossModel::congested_access(0.003),
            loss_down: LossModel::congested_access(0.003),
            traces: t(15, 15),
        },
        VantageSpec {
            name: "McQuistin home",
            key: "mcquistin-home",
            short: "McQuistin\nhome",
            region: Region::Europe,
            net_index: 1,
            ec2: false,
            // Congested access with a TOS-reading shaper: bursts shed
            // ECT-marked packets far more aggressively than not-ECT.
            loss_up: LossModel::tos_biased_access(0.34, 0.50, 0.97),
            loss_down: LossModel::congested_access(0.006),
            traces: t(8, 5),
        },
        VantageSpec {
            name: "U. Glasgow wired",
            key: "uglasgow-wired",
            short: "UGla\nwired",
            region: Region::Europe,
            net_index: 2,
            ec2: false,
            loss_up: LossModel::congested_access(0.005),
            loss_down: LossModel::congested_access(0.005),
            traces: t(0, 22),
        },
        VantageSpec {
            name: "U. Glasgow w'less",
            key: "uglasgow-wireless",
            short: "UGla\nw'less",
            region: Region::Europe,
            net_index: 3,
            ec2: false,
            loss_up: LossModel::congested_access(0.12),
            loss_down: LossModel::congested_access(0.12),
            traces: t(14, 14),
        },
        ec2(
            "EC2 California",
            "ec2-california",
            "EC2\nCal",
            Region::NorthAmerica,
            4,
            0.005,
            t(0, 13),
        ),
        ec2(
            "EC2 Frankfurt",
            "ec2-frankfurt",
            "EC2\nFra",
            Region::Europe,
            5,
            0.012,
            t(0, 13),
        ),
        ec2(
            "EC2 Ireland",
            "ec2-ireland",
            "EC2\nIre",
            Region::Europe,
            6,
            0.0055,
            t(0, 13),
        ),
        ec2(
            "EC2 Oregon",
            "ec2-oregon",
            "EC2\nOre",
            Region::NorthAmerica,
            7,
            0.012,
            t(0, 13),
        ),
        ec2(
            "EC2 Sao Paulo",
            "ec2-sao-paulo",
            "EC2\nSao",
            Region::SouthAmerica,
            8,
            0.016,
            t(0, 13),
        ),
        ec2(
            "EC2 Singapore",
            "ec2-singapore",
            "EC2\nSin",
            Region::Asia,
            9,
            0.005,
            t(0, 13),
        ),
        ec2(
            "EC2 Sydney",
            "ec2-sydney",
            "EC2\nSyd",
            Region::Australia,
            10,
            0.0055,
            t(0, 13),
        ),
        ec2(
            "EC2 Tokyo",
            "ec2-tokyo",
            "EC2\nTok",
            Region::Asia,
            11,
            0.012,
            t(0, 13),
        ),
        ec2(
            "EC2 Virginia",
            "ec2-virginia",
            "EC2\nVir",
            Region::NorthAmerica,
            12,
            0.016,
            t(0, 13),
        ),
    ]
}

fn ec2(
    name: &'static str,
    key: &'static str,
    short: &'static str,
    region: Region,
    net_index: u8,
    loss: f64,
    traces: TraceAllocation,
) -> VantageSpec {
    VantageSpec {
        name,
        key,
        short,
        region,
        net_index,
        ec2: true,
        loss_up: LossModel::congested_access(loss),
        loss_down: LossModel::congested_access(loss),
        traces,
    }
}

/// Total traces across the campaign (paper: 210).
pub fn total_traces(vantages: &[VantageSpec]) -> usize {
    vantages
        .iter()
        .map(|v| v.traces.batch1 + v.traces.batch2)
        .sum()
}

/// The probe-retry schedule of §3: up to five retransmissions, one second
/// timeout each.
pub const UDP_RETRIES: u32 = 5;
/// Per-attempt timeout.
pub const UDP_TIMEOUT: Nanos = Nanos(1_000_000_000);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_vantages_two_hundred_ten_traces() {
        let v = all_vantages();
        assert_eq!(v.len(), 13);
        assert_eq!(total_traces(&v), 210);
        assert_eq!(v.iter().filter(|x| x.ec2).count(), 9);
    }

    #[test]
    fn batch1_is_homes_and_wireless_only() {
        // §3: initial traces from the authors' homes and the UGla wireless.
        for v in all_vantages() {
            if v.traces.batch1 > 0 {
                assert!(
                    v.key.contains("home") || v.key.contains("wireless"),
                    "{} should not be in batch 1",
                    v.name
                );
                assert!(!v.ec2);
            }
        }
    }

    #[test]
    fn keys_and_net_indices_unique() {
        let v = all_vantages();
        let keys: std::collections::HashSet<_> = v.iter().map(|x| x.key).collect();
        assert_eq!(keys.len(), 13);
        let nets: std::collections::HashSet<_> = v.iter().map(|x| x.net_index).collect();
        assert_eq!(nets.len(), 13);
    }

    #[test]
    fn mcquistin_home_is_ecn_biased() {
        let v = all_vantages();
        let mcq = v.iter().find(|x| x.key == "mcquistin-home").unwrap();
        assert!(matches!(
            mcq.loss_up,
            LossModel::GilbertElliottEcnBiased { .. }
        ));
        // and it is the only one
        let biased = v
            .iter()
            .filter(|x| matches!(x.loss_up, LossModel::GilbertElliottEcnBiased { .. }))
            .count();
        assert_eq!(biased, 1);
    }
}
