//! Per-link packet-loss processes.
//!
//! Two models: independent (Bernoulli) loss, and the two-state
//! Gilbert–Elliott chain that produces the loss *bursts* characteristic of
//! congested access links and wireless — the phenomenon the paper suspects
//! behind transient "unreachable" verdicts (a burst can eat all five NTP
//! retries in a row, where independent loss at the same mean rate almost
//! never does; the `ablations` bench quantifies exactly this).

use crate::time::Nanos;
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration of a link's loss process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Independent loss with the given probability per packet.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott model with *time-based* state transitions:
    /// the chain moves between Good and Bad states with exponential
    /// residence times, and each state has its own loss probability.
    GilbertElliott {
        /// Mean residence time in the Good state.
        mean_good: Nanos,
        /// Mean residence time in the Bad state.
        mean_bad: Nanos,
        /// Loss probability while Good.
        loss_good: f64,
        /// Loss probability while Bad.
        loss_bad: f64,
    },
    /// Gilbert–Elliott whose Bad state discriminates by ECN codepoint:
    /// a congested legacy device that reads the whole TOS octet and
    /// preferentially sheds packets with nonzero ECN bits — one of the
    /// paper's hypotheses (§4.1) for persistent-but-not-total differential
    /// reachability. Good-state loss applies to all packets equally.
    GilbertElliottEcnBiased {
        /// Mean residence time in the Good state.
        mean_good: Nanos,
        /// Mean residence time in the Bad state.
        mean_bad: Nanos,
        /// Loss probability while Good (all packets).
        loss_good: f64,
        /// Bad-state loss for not-ECT packets.
        loss_bad_not_ect: f64,
        /// Bad-state loss for ECT/CE packets.
        loss_bad_ect: f64,
    },
}

impl LossModel {
    /// A burst model tuned for a congested residential uplink: ~`mean_loss`
    /// average loss concentrated in multi-second bad periods.
    pub fn congested_access(mean_loss: f64) -> LossModel {
        // Bad state is lossy (90%); choose the duty cycle to hit mean_loss.
        // The high in-burst rate is what lets a single burst defeat all
        // five 1-second NTP retries.
        let loss_bad = 0.9;
        let duty = (mean_loss / loss_bad).min(1.0);
        let mean_bad = Nanos::from_millis(8_000);
        let mean_good = Nanos((mean_bad.0 as f64 * (1.0 - duty) / duty.max(1e-9)) as u64);
        LossModel::GilbertElliott {
            mean_good,
            mean_bad,
            loss_good: 0.001,
            loss_bad,
        }
    }

    /// A congested legacy access device: bursts shed ECT-marked packets at
    /// `loss_bad_ect` but not-ECT packets only at `loss_bad_not_ect`.
    /// `duty` is the fraction of time spent congested.
    pub fn tos_biased_access(duty: f64, loss_bad_not_ect: f64, loss_bad_ect: f64) -> LossModel {
        let mean_bad = Nanos::from_millis(8_000);
        let duty = duty.clamp(1e-6, 1.0);
        let mean_good = Nanos((mean_bad.0 as f64 * (1.0 - duty) / duty) as u64);
        LossModel::GilbertElliottEcnBiased {
            mean_good,
            mean_bad,
            loss_good: 0.001,
            loss_bad_not_ect,
            loss_bad_ect,
        }
    }

    /// This model with its long-run mean loss scaled by roughly `factor`.
    /// Independent loss multiplies the per-packet probability (clamped
    /// into `[0, 1]`); burst models keep their in-burst loss rates and
    /// burst *lengths* but enter bursts `factor`× as often (Good-state
    /// residence divided by `factor`), preserving the burst character
    /// that defeats retry schedules.
    ///
    /// `scaled(1.0)` returns the model unchanged, bit for bit; the
    /// scenario-spec subsystem relies on that to keep `loss_scale = 1.0`
    /// worlds byte-identical to unscaled ones.
    pub fn scaled(&self, factor: f64) -> LossModel {
        if factor == 1.0 {
            return *self;
        }
        let factor = factor.max(0.0);
        let mul = |p: f64| (p * factor).clamp(0.0, 1.0);
        // more (or fewer) bursts per unit time; saturate instead of
        // overflowing for tiny factors
        let stretch = |good: Nanos| {
            let scaled = (good.0 as f64 / factor.max(1e-9)).min(u64::MAX as f64);
            Nanos(scaled as u64)
        };
        match *self {
            LossModel::None => LossModel::None,
            LossModel::Bernoulli { p } => LossModel::Bernoulli { p: mul(p) },
            LossModel::GilbertElliott {
                mean_good,
                mean_bad,
                loss_good,
                loss_bad,
            } => LossModel::GilbertElliott {
                mean_good: stretch(mean_good),
                mean_bad,
                loss_good: mul(loss_good),
                loss_bad,
            },
            LossModel::GilbertElliottEcnBiased {
                mean_good,
                mean_bad,
                loss_good,
                loss_bad_not_ect,
                loss_bad_ect,
            } => LossModel::GilbertElliottEcnBiased {
                mean_good: stretch(mean_good),
                mean_bad,
                loss_good: mul(loss_good),
                loss_bad_not_ect,
                loss_bad_ect,
            },
        }
    }

    /// Long-run average loss probability of the model (for ECN-biased
    /// models, the average for *not-ECT* traffic).
    pub fn mean_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                mean_good,
                mean_bad,
                loss_good,
                loss_bad,
            } => duty_weighted(mean_good, mean_bad, loss_good, loss_bad),
            LossModel::GilbertElliottEcnBiased {
                mean_good,
                mean_bad,
                loss_good,
                loss_bad_not_ect,
                ..
            } => duty_weighted(mean_good, mean_bad, loss_good, loss_bad_not_ect),
        }
    }
}

fn duty_weighted(mean_good: Nanos, mean_bad: Nanos, loss_good: f64, loss_bad: f64) -> f64 {
    let g = mean_good.0 as f64;
    let b = mean_bad.0 as f64;
    if g + b == 0.0 {
        0.0
    } else {
        (loss_good * g + loss_bad * b) / (g + b)
    }
}

/// Runtime state of a loss process.
#[derive(Debug, Clone)]
pub struct LossProcess {
    model: LossModel,
    /// Gilbert–Elliott: are we currently in the Bad state?
    in_bad: bool,
    /// When the current state expires.
    state_until: Nanos,
}

impl LossProcess {
    /// Create a process in the Good state.
    pub fn new(model: LossModel) -> LossProcess {
        LossProcess {
            model,
            in_bad: false,
            state_until: Nanos::ZERO,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &LossModel {
        &self.model
    }

    /// Should the packet passing at `now` be dropped? `ecn_capable` is
    /// true for ECT(0)/ECT(1)/CE packets (only the ECN-biased model cares).
    pub fn should_drop(&mut self, now: Nanos, ecn_capable: bool, rng: &mut SmallRng) -> bool {
        match self.model {
            LossModel::None => false,
            LossModel::Bernoulli { p } => p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0)),
            LossModel::GilbertElliott {
                mean_good,
                mean_bad,
                loss_good,
                loss_bad,
            } => {
                self.advance_chain(now, mean_good, mean_bad, rng);
                let p = if self.in_bad { loss_bad } else { loss_good };
                p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))
            }
            LossModel::GilbertElliottEcnBiased {
                mean_good,
                mean_bad,
                loss_good,
                loss_bad_not_ect,
                loss_bad_ect,
            } => {
                self.advance_chain(now, mean_good, mean_bad, rng);
                let p = if self.in_bad {
                    if ecn_capable {
                        loss_bad_ect
                    } else {
                        loss_bad_not_ect
                    }
                } else {
                    loss_good
                };
                p > 0.0 && rng.gen_bool(p.clamp(0.0, 1.0))
            }
        }
    }

    /// Advance the two-state chain: draw new states until `now` is inside
    /// the current residence interval. Residence intervals are contiguous
    /// — after a long idle gap the chain replays every intermediate flip,
    /// so sparsely-observed processes keep the correct duty cycle.
    fn advance_chain(&mut self, now: Nanos, mean_good: Nanos, mean_bad: Nanos, rng: &mut SmallRng) {
        while now >= self.state_until {
            self.in_bad = if self.state_until == Nanos::ZERO {
                // initial state: stationary distribution
                let g = mean_good.0 as f64;
                let b = mean_bad.0 as f64;
                rng.gen_bool(if g + b > 0.0 { b / (g + b) } else { 0.0 })
            } else {
                !self.in_bad
            };
            let mean = if self.in_bad { mean_bad } else { mean_good };
            let dwell = exponential(mean, rng).max(Nanos(1));
            self.state_until = Nanos(self.state_until.0.saturating_add(dwell.0));
        }
    }
}

/// Draw from Exp(mean) as virtual-time nanoseconds.
fn exponential(mean: Nanos, rng: &mut SmallRng) -> Nanos {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    Nanos((-(u.ln()) * mean.0 as f64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;

    #[test]
    fn none_never_drops() {
        let mut p = LossProcess::new(LossModel::None);
        let mut rng = derive_rng(1, "t");
        for i in 0..1000 {
            assert!(!p.should_drop(Nanos(i), false, &mut rng));
        }
    }

    #[test]
    fn bernoulli_hits_mean() {
        let mut p = LossProcess::new(LossModel::Bernoulli { p: 0.1 });
        let mut rng = derive_rng(2, "t");
        let drops = (0..20_000)
            .filter(|i| p.should_drop(Nanos(*i), false, &mut rng))
            .count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_hits_mean_and_bursts() {
        let model = LossModel::congested_access(0.10);
        assert!((model.mean_loss() - 0.10).abs() < 0.01);
        let mut p = LossProcess::new(model);
        let mut rng = derive_rng(3, "t");
        // one packet per 10 ms over ~3.3 virtual hours (the 8-second burst
        // states need a long horizon for the duty cycle to converge)
        let n = 1_200_000u64;
        let mut drops = 0u64;
        let mut burst = 0u64;
        let mut max_burst = 0u64;
        for i in 0..n {
            if p.should_drop(Nanos::from_millis(i * 10), false, &mut rng) {
                drops += 1;
                burst += 1;
                max_burst = max_burst.max(burst);
            } else {
                burst = 0;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.02, "rate {rate}");
        // Bursts: with 70% loss in 4s-long bad states sampled at 100Hz,
        // long runs of consecutive losses must appear.
        assert!(max_burst > 10, "max_burst {max_burst}");
    }

    #[test]
    fn bernoulli_does_not_burst_like_ge() {
        // Equal mean loss, radically different P(5 consecutive losses) —
        // the mechanism behind false "unreachable" verdicts.
        let mut bern = LossProcess::new(LossModel::Bernoulli { p: 0.1 });
        let mut ge = LossProcess::new(LossModel::congested_access(0.1));
        let mut rng_b = derive_rng(4, "b");
        let mut rng_g = derive_rng(4, "g");
        let trials = 20_000u64;
        let mut fail5_b = 0;
        let mut fail5_g = 0;
        for t in 0..trials {
            // Five retries, 1 s apart (paper §3 schedule).
            let base = Nanos::from_secs(t * 30);
            let all_b =
                (0..5).all(|k| bern.should_drop(base + Nanos::from_secs(k), false, &mut rng_b));
            let all_g =
                (0..5).all(|k| ge.should_drop(base + Nanos::from_secs(k), false, &mut rng_g));
            fail5_b += u64::from(all_b);
            fail5_g += u64::from(all_g);
        }
        assert!(
            fail5_g > fail5_b.max(1) * 20,
            "GE {fail5_g} vs Bernoulli {fail5_b}"
        );
    }

    #[test]
    fn mean_loss_reporting() {
        assert_eq!(LossModel::None.mean_loss(), 0.0);
        assert_eq!(LossModel::Bernoulli { p: 0.25 }.mean_loss(), 0.25);
    }

    #[test]
    fn scaled_one_is_bit_identical_and_scaling_clamps() {
        for model in [
            LossModel::None,
            LossModel::Bernoulli { p: 0.37 },
            LossModel::congested_access(0.12),
            LossModel::tos_biased_access(0.34, 0.50, 0.97),
        ] {
            assert_eq!(model.scaled(1.0), model, "scaled(1.0) must be identity");
        }
        let doubled = LossModel::Bernoulli { p: 0.3 }.scaled(2.0);
        assert_eq!(doubled, LossModel::Bernoulli { p: 0.6 });
        let clamped = LossModel::Bernoulli { p: 0.8 }.scaled(2.0);
        assert_eq!(clamped, LossModel::Bernoulli { p: 1.0 });
        // burst models scale mean loss by scaling burst frequency
        let halved = LossModel::congested_access(0.10).scaled(0.5);
        assert!((halved.mean_loss() - 0.05).abs() < 0.01, "{halved:?}");
        let doubled = LossModel::congested_access(0.10).scaled(2.0);
        assert!(doubled.mean_loss() > 0.15, "{doubled:?}");
    }
}
