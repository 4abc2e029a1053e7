//! Host availability: whether a (volunteer-operated) server is answering
//! at a given virtual time.
//!
//! The NTP pool offers no service guarantee (paper §4.1): some servers are
//! off-line for whole measurement batches, others flap for minutes at a
//! time. Both behaviours matter to the study — permanent churn lowers
//! absolute reachability between the April/May and July/August batches,
//! while short flaps produce the *transient* differential-reachability
//! noise that the paper is careful to separate from genuine ECN blackholes.
//!
//! A flapping host's up/down chain is a pure function of its model, seed
//! and label, and every unit world stamped from one blueprint evaluates
//! the same chain from t = 0. Rather than each replaying every flip since
//! t = 0, the evaluators of one chain share [`FlapMarks`]: checkpoints of
//! the chain's state every [`FlapMarks::SPACING`] flips, written by
//! whichever evaluator gets there first. An evaluator behind the latest
//! checkpoint jumps to it and replays only the flips after it.

use ecn_netsim::{derive_rng, derive_seed, LabelBuf, Nanos};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Availability behaviour of a host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AvailabilityModel {
    /// Always answering.
    AlwaysUp,
    /// Never answering (dead host still in the target list).
    AlwaysDown,
    /// Up until `t`, then gone for good (left the pool between batches).
    DownAfter(Nanos),
    /// Down until `t`, then up (joined late).
    UpAfter(Nanos),
    /// Alternates up/down with exponential dwell times.
    Flapping {
        /// Mean residence in the up state.
        mean_up: Nanos,
        /// Mean residence in the down state.
        mean_down: Nanos,
    },
}

impl AvailabilityModel {
    /// Long-run fraction of time the host answers.
    pub fn uptime_fraction(&self) -> f64 {
        match *self {
            AvailabilityModel::AlwaysUp => 1.0,
            AvailabilityModel::AlwaysDown => 0.0,
            // the step models depend on the horizon; report the eventual state
            AvailabilityModel::DownAfter(_) => 0.0,
            AvailabilityModel::UpAfter(_) => 1.0,
            AvailabilityModel::Flapping { mean_up, mean_down } => {
                let u = mean_up.0 as f64;
                let d = mean_down.0 as f64;
                if u + d == 0.0 {
                    1.0
                } else {
                    u / (u + d)
                }
            }
        }
    }
}

/// The RNG-domain label of the availability chain of the host at `addr`.
pub(crate) fn host_label(addr: Ipv4Addr) -> LabelBuf {
    LabelBuf::format(format_args!("avail-{addr}"))
}

/// The replay loop's whole state after some flip: 48 bytes.
#[derive(Debug, Clone, PartialEq)]
struct Mark {
    rng: SmallRng,
    until: Nanos,
    up: bool,
}

/// Checkpoints of one flapping host's up/down chain, shared by every
/// evaluator of that chain (one per world stamped from a blueprint) and
/// extended lazily by whichever evaluator first replays past the next one.
///
/// Mark `i` is the evaluator's state right after flip `(i + 1) × SPACING`.
/// The chain is a pure function of (model, seed, label), so a mark is the
/// same whoever wrote it, and restoring one changes how many flips an
/// evaluator replays, never an answer.
#[derive(Debug)]
pub struct FlapMarks {
    model: AvailabilityModel,
    /// Seed of the chain's RNG (`derive_seed(seed, label)`).
    chain_seed: u64,
    marks: Mutex<Vec<Mark>>,
}

impl FlapMarks {
    /// Flips between consecutive marks. Halving it cuts the flips a fresh
    /// evaluator replays after its last mark, and doubles the marks kept:
    /// at 512, the paper calendar keeps about five per flapping host.
    pub const SPACING: u64 = 512;

    /// No marks yet, for the chain `Availability::new(model, seed, label)`
    /// evaluates.
    pub fn new(model: AvailabilityModel, seed: u64, label: &str) -> FlapMarks {
        FlapMarks {
            model,
            chain_seed: derive_seed(seed, label),
            marks: Mutex::new(Vec::new()),
        }
    }

    /// No marks yet, for the chain of the host at `addr` that
    /// [`install`](crate::install) gives this `model` and
    /// [`StackConfig::seed`](crate::StackConfig::seed).
    pub fn for_host(model: AvailabilityModel, seed: u64, addr: Ipv4Addr) -> FlapMarks {
        FlapMarks::new(model, seed, host_label(addr).as_str())
    }

    /// Marks kept so far.
    pub fn kept(&self) -> usize {
        self.marks.lock().len()
    }

    /// The latest mark whose residence interval ends at or before `now`,
    /// with its flip count, if it lies past flip `flips`.
    fn restore_point(&self, now: Nanos, flips: u64) -> Option<(u64, Mark)> {
        let marks = self.marks.lock();
        // `until` never decreases along the chain
        let passed = marks.partition_point(|m| m.until <= now);
        let at = passed as u64 * Self::SPACING;
        (at > flips).then(|| (at, marks[passed - 1].clone()))
    }

    /// Offer the state after flip `flips` (a multiple of `SPACING`). It is
    /// kept only if it is the next mark, so the list stays contiguous
    /// whichever evaluator writes it.
    fn offer(&self, flips: u64, mark: Mark) {
        let index = (flips / Self::SPACING - 1) as usize;
        let mut marks = self.marks.lock();
        if index == marks.len() {
            // a list holds a handful of marks: grow it to fit, not double
            marks.reserve_exact(1);
            marks.push(mark);
        } else {
            debug_assert!(
                marks.get(index).is_none_or(|kept| *kept == mark),
                "two evaluators of one chain disagree at flip {flips}"
            );
        }
    }
}

/// Stateful evaluator of an [`AvailabilityModel`].
#[derive(Debug)]
pub struct Availability {
    model: AvailabilityModel,
    rng: SmallRng,
    up: bool,
    until: Nanos,
    /// Flips replayed so far; the first draws the initial state.
    flips: u64,
    /// Checkpoints shared with the other evaluators of this chain.
    marks: Option<Arc<FlapMarks>>,
}

impl Availability {
    /// Build an evaluator; `seed`/`label` make the flap schedule
    /// deterministic and independent per host.
    pub fn new(model: AvailabilityModel, seed: u64, label: &str) -> Availability {
        Availability {
            model,
            rng: derive_rng(seed, label),
            up: true,
            until: Nanos::ZERO,
            flips: 0,
            marks: None,
        }
    }

    /// Share `marks` with the other evaluators of this chain.
    ///
    /// # Panics
    ///
    /// If `marks` belong to another chain (model, seed or label), or this
    /// evaluator has already replayed a flip.
    pub fn sharing(mut self, marks: Arc<FlapMarks>) -> Availability {
        assert!(
            self.flips == 0
                && marks.model == self.model
                && SmallRng::seed_from_u64(marks.chain_seed) == self.rng,
            "flap marks shared with an evaluator of another chain"
        );
        self.marks = Some(marks);
        self
    }

    /// Is the host answering at `now`? (Monotone `now` expected; the
    /// simulator guarantees it.)
    pub fn is_up(&mut self, now: Nanos) -> bool {
        match self.model {
            AvailabilityModel::AlwaysUp => true,
            AvailabilityModel::AlwaysDown => false,
            AvailabilityModel::DownAfter(t) => now < t,
            AvailabilityModel::UpAfter(t) => now >= t,
            AvailabilityModel::Flapping { mean_up, mean_down } => {
                if now >= self.until {
                    self.restore(now);
                    self.replay(now, mean_up, mean_down);
                }
                self.up
            }
        }
    }

    /// Jump to the latest shared mark at or before `now`, if it lies ahead.
    fn restore(&mut self, now: Nanos) {
        let Some(marks) = &self.marks else { return };
        if let Some((flips, mark)) = marks.restore_point(now, self.flips) {
            self.rng = mark.rng;
            self.until = mark.until;
            self.up = mark.up;
            self.flips = flips;
        }
    }

    /// Flip until the residence interval holding `now`. Intervals are
    /// contiguous: after a long gap this replays every intermediate flip
    /// (from the last mark, when marks are shared), so the duty cycle is
    /// correct even under sparse probing (a campaign touches each server
    /// only once per trace).
    fn replay(&mut self, now: Nanos, mean_up: Nanos, mean_down: Nanos) {
        while now >= self.until {
            if self.flips == 0 {
                // start in the stationary distribution
                let p_up = self.model.uptime_fraction();
                self.up = self.rng.gen_bool(p_up.clamp(0.0, 1.0));
            } else {
                self.up = !self.up;
            }
            let mean = if self.up { mean_up } else { mean_down };
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let dwell = Nanos(((-(u.ln())) * mean.0 as f64) as u64).max(Nanos(1));
            self.until = Nanos(self.until.0.saturating_add(dwell.0));
            self.flips += 1;
            if self.flips.is_multiple_of(FlapMarks::SPACING) {
                if let Some(marks) = &self.marks {
                    marks.offer(
                        self.flips,
                        Mark {
                            rng: self.rng.clone(),
                            until: self.until,
                            up: self.up,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_models() {
        let mut up = Availability::new(AvailabilityModel::AlwaysUp, 1, "a");
        let mut down = Availability::new(AvailabilityModel::AlwaysDown, 1, "b");
        for t in [0u64, 1_000_000, u64::MAX / 2] {
            assert!(up.is_up(Nanos(t)));
            assert!(!down.is_up(Nanos(t)));
        }
    }

    #[test]
    fn down_after_steps_once() {
        let cut = Nanos::from_secs(100);
        let mut a = Availability::new(AvailabilityModel::DownAfter(cut), 1, "c");
        assert!(a.is_up(Nanos::from_secs(99)));
        assert!(!a.is_up(Nanos::from_secs(100)));
        assert!(!a.is_up(Nanos::from_secs(5000)));
    }

    #[test]
    fn up_after_steps_once() {
        let cut = Nanos::from_secs(10);
        let mut a = Availability::new(AvailabilityModel::UpAfter(cut), 1, "d");
        assert!(!a.is_up(Nanos::from_secs(9)));
        assert!(a.is_up(Nanos::from_secs(10)));
    }

    #[test]
    fn flapping_hits_duty_cycle() {
        let model = AvailabilityModel::Flapping {
            mean_up: Nanos::from_secs(95),
            mean_down: Nanos::from_secs(5),
        };
        assert!((model.uptime_fraction() - 0.95).abs() < 1e-9);
        let mut a = Availability::new(model, 7, "e");
        let samples = 200_000u64;
        let up = (0..samples)
            .filter(|i| a.is_up(Nanos::from_millis(i * 50)))
            .count();
        let frac = up as f64 / samples as f64;
        assert!((frac - 0.95).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn flap_schedule_is_deterministic_per_seed() {
        let model = AvailabilityModel::Flapping {
            mean_up: Nanos::from_secs(10),
            mean_down: Nanos::from_secs(10),
        };
        let mut a = Availability::new(model, 42, "x");
        let mut b = Availability::new(model, 42, "x");
        let mut c = Availability::new(model, 43, "x");
        let series_a: Vec<bool> = (0..1000).map(|i| a.is_up(Nanos::from_secs(i))).collect();
        let series_b: Vec<bool> = (0..1000).map(|i| b.is_up(Nanos::from_secs(i))).collect();
        let series_c: Vec<bool> = (0..1000).map(|i| c.is_up(Nanos::from_secs(i))).collect();
        assert_eq!(series_a, series_b);
        assert_ne!(series_a, series_c);
    }

    /// The paper world's flap model: 2 h up, 45 s down.
    const POOL_FLAP: AvailabilityModel = AvailabilityModel::Flapping {
        mean_up: Nanos(2 * 3600 * 1_000_000_000),
        mean_down: Nanos(45 * 1_000_000_000),
    };

    const LABEL: &str = "avail-198.51.100.7";

    fn day(d: u64) -> Nanos {
        Nanos::from_secs(d * 86_400)
    }

    #[test]
    fn marks_sit_after_every_spacing_flips_and_cut_a_fresh_replay() {
        let marks = Arc::new(FlapMarks::new(POOL_FLAP, 2015, LABEL));
        let mut first = Availability::new(POOL_FLAP, 2015, LABEL).sharing(marks.clone());
        // the paper calendar's last trace starts near day 113
        let answer = first.is_up(day(113));
        let kept = marks.marks.lock().clone();
        assert_eq!(kept.len() as u64, first.flips / FlapMarks::SPACING);
        assert!(kept.len() >= 4, "{} marks by day 113", kept.len());

        // an unshared evaluator stepped one flip at a time passes every mark
        let mut step = Availability::new(POOL_FLAP, 2015, LABEL);
        while step.flips < first.flips {
            step.is_up(step.until);
            if step.flips.is_multiple_of(FlapMarks::SPACING) {
                let i = (step.flips / FlapMarks::SPACING - 1) as usize;
                let state = Mark {
                    rng: step.rng.clone(),
                    until: step.until,
                    up: step.up,
                };
                assert_eq!(
                    kept[i], state,
                    "mark {i} is not the state after flip {}",
                    step.flips
                );
            }
        }

        let mut fresh = Availability::new(POOL_FLAP, 2015, LABEL).sharing(marks);
        fresh.restore(day(113));
        let restored_at = fresh.flips;
        assert_eq!(fresh.is_up(day(113)), answer);
        assert!(
            fresh.flips - restored_at < FlapMarks::SPACING,
            "a fresh evaluator replayed {} flips",
            fresh.flips - restored_at
        );
        assert_eq!(
            (fresh.rng, fresh.until, fresh.up, fresh.flips),
            (first.rng, first.until, first.up, first.flips)
        );
    }

    #[test]
    fn threads_sharing_marks_answer_as_one_unshared_evaluator() {
        let marks = Arc::new(FlapMarks::new(POOL_FLAP, 7, LABEL));
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (marks, barrier) = (marks.clone(), &barrier);
                scope.spawn(move || {
                    // each thread its own cadence, out to day 200
                    let gap = Nanos::from_secs(3 * 3600 + t * 2_237);
                    let times: Vec<Nanos> = (0..)
                        .map(|k| Nanos(k * gap.0))
                        .take_while(|&at| at <= day(200))
                        .collect();
                    let mut alone = Availability::new(POOL_FLAP, 7, LABEL);
                    let expected: Vec<bool> = times.iter().map(|&at| alone.is_up(at)).collect();
                    let mut shared = Availability::new(POOL_FLAP, 7, LABEL).sharing(marks);
                    barrier.wait();
                    let answers: Vec<bool> = times.iter().map(|&at| shared.is_up(at)).collect();
                    assert_eq!(answers, expected, "thread {t}");
                });
            }
        });
        assert!(marks.kept() >= 8, "{} marks by day 200", marks.kept());
    }

    #[test]
    #[should_panic(expected = "another chain")]
    fn marks_of_another_chain_are_refused() {
        let marks = Arc::new(FlapMarks::new(POOL_FLAP, 2015, "avail-198.51.100.8"));
        let _ = Availability::new(POOL_FLAP, 2015, LABEL).sharing(marks);
    }
}
