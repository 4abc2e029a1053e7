//! Live progress meter ([`crate::EngineConfig::progress`]): unit and
//! observation rates and an ETA, printed to stderr while the campaign
//! runs.
//!
//! This is the one output whose *timing* is nondeterministic (it reads
//! the wall clock and the order the shards finish units in), which is
//! why it writes to stderr and never into a metrics export:
//! `ecnudp run … --progress > report.txt` still captures a clean,
//! deterministic artefact on stdout.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Minimum milliseconds between two printed lines.
const PRINT_EVERY_MS: u64 = 200;

/// Stderr progress meter. The shards and the multi-process parent share
/// one by reference and advance its atomic counters; any of them may
/// (rate-limited) repaint the line.
#[derive(Debug)]
pub(crate) struct Progress {
    started: Instant,
    units_total: usize,
    units_done: AtomicUsize,
    observations: AtomicU64,
    /// Failed worker attempts (supervised multi-process mode only).
    worker_failures: AtomicU64,
    /// Units re-shipped to respawned workers.
    unit_retries: AtomicU64,
    /// Milliseconds-since-start of the last line printed (throttle).
    last_print_ms: AtomicU64,
}

impl Progress {
    /// A meter for a run of `units_total` units.
    pub(crate) fn new(units_total: usize) -> Progress {
        Progress {
            started: Instant::now(),
            units_total,
            units_done: AtomicUsize::new(0),
            observations: AtomicU64::new(0),
            worker_failures: AtomicU64::new(0),
            unit_retries: AtomicU64::new(0),
            last_print_ms: AtomicU64::new(0),
        }
    }

    /// A unit finished, in this process or in a worker.
    pub(crate) fn unit_done(&self, observations: u64) {
        self.observations.fetch_add(observations, Ordering::Relaxed);
        let done = self.units_done.fetch_add(1, Ordering::Relaxed) + 1;
        self.maybe_print(done, false);
    }

    /// A worker attempt failed; a retry re-ships its `units`.
    pub(crate) fn worker_failed(&self, units: usize, will_retry: bool) {
        self.worker_failures.fetch_add(1, Ordering::Relaxed);
        if will_retry {
            self.unit_retries.fetch_add(units as u64, Ordering::Relaxed);
        }
    }

    /// The run is over: print the final line.
    pub(crate) fn finish(&self) {
        self.maybe_print(self.units_done.load(Ordering::Relaxed), true);
    }

    fn render(&self, done: usize) -> String {
        let total = self.units_total;
        let obs = self.observations.load(Ordering::Relaxed);
        let secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let obs_rate = obs as f64 / secs;
        let unit_rate = done as f64 / secs;
        let eta = if done > 0 && total > done {
            (total - done) as f64 / unit_rate
        } else {
            0.0
        };
        let mut line = format!(
            "[ecnudp] {done}/{total} units | {obs} obs | {obs_rate:.0} obs/s (servers/s) | ETA {eta:.1}s"
        );
        let failures = self.worker_failures.load(Ordering::Relaxed);
        if failures > 0 {
            let retries = self.unit_retries.load(Ordering::Relaxed);
            line.push_str(&format!(
                " | {failures} worker failure(s), {retries} unit(s) retried"
            ));
        }
        line
    }

    fn maybe_print(&self, done: usize, force: bool) {
        let now_ms = self.started.elapsed().as_millis() as u64;
        let last = self.last_print_ms.load(Ordering::Relaxed);
        let due = now_ms.saturating_sub(last) >= PRINT_EVERY_MS;
        if (force || due)
            && self
                .last_print_ms
                .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            eprintln!("{}", self.render(done));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reports_progress_shape() {
        let p = Progress::new(10);
        p.observations.store(400, Ordering::Relaxed);
        let line = p.render(5);
        assert!(line.contains("5/10 units"), "{line}");
        assert!(line.contains("400 obs"), "{line}");
        assert!(line.contains("ETA"), "{line}");
    }

    #[test]
    fn worker_failures_join_the_line() {
        let p = Progress::new(4);
        p.worker_failed(3, true);
        p.worker_failed(3, false);
        let line = p.render(1);
        assert!(
            line.ends_with("2 worker failure(s), 3 unit(s) retried"),
            "{line}"
        );
    }
}
