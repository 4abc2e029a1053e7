//! Virtual time. The simulator is fully deterministic: time is a `u64`
//! nanosecond counter that only advances when the event loop dequeues an
//! event.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nanos(pub u64);

impl Nanos {
    /// Time zero.
    pub const ZERO: Nanos = Nanos(0);
    /// Far future; used as an "infinite" horizon for `run_until`.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// From whole seconds.
    pub fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// From milliseconds.
    pub fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// From microseconds.
    pub fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// As (truncated) milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// As f64 seconds (for reporting only — never for simulation logic).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Nanos::from_secs(2).0, 2_000_000_000);
        assert_eq!(Nanos::from_millis(5).as_millis(), 5);
        assert_eq!(Nanos::from_micros(7).0, 7_000);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_millis(10);
        let b = Nanos::from_millis(4);
        assert_eq!(a + b, Nanos::from_millis(14));
        assert_eq!(a - b, Nanos::from_millis(6));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Nanos::from_millis(14));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Nanos(500).to_string(), "500ns");
        assert_eq!(Nanos::from_millis(2).to_string(), "2.000ms");
        assert_eq!(Nanos::from_secs(1).to_string(), "1.000s");
    }
}
