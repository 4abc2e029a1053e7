//! Live progress meter: unit/observation rates and an ETA, printed to
//! stderr while the campaign runs.
//!
//! This is the one built-in subscriber whose *output timing* is
//! nondeterministic (it reads the wall clock and the order the shards
//! finish units in), which is why it writes to stderr and never into a
//! metrics export: `ecnudp run … --progress > report.txt` still captures
//! a clean, deterministic artefact on stdout.

use super::{Event, Subscriber};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
struct State {
    started: Instant,
    units_total: AtomicUsize,
    units_done: AtomicUsize,
    observations: AtomicU64,
    /// Failed worker attempts (supervised multi-process mode only).
    worker_failures: AtomicU64,
    /// Units re-shipped to respawned workers.
    unit_retries: AtomicU64,
    /// Milliseconds-since-start of the last line printed (throttle).
    last_print_ms: AtomicU64,
}

/// Stderr progress meter. All forks share one atomic state behind an `Arc`,
/// so any shard finishing a unit can advance the shared counters and
/// (rate-limited) repaint the line.
#[derive(Debug, Clone)]
pub struct Progress {
    state: Arc<State>,
    /// Minimum milliseconds between prints.
    every_ms: u64,
}

impl Progress {
    /// A progress meter printing at most every 200 ms.
    pub fn new() -> Progress {
        Progress::with_interval_ms(200)
    }

    /// A progress meter printing at most every `every_ms` milliseconds.
    pub fn with_interval_ms(every_ms: u64) -> Progress {
        Progress {
            state: Arc::new(State {
                started: Instant::now(),
                units_total: AtomicUsize::new(0),
                units_done: AtomicUsize::new(0),
                observations: AtomicU64::new(0),
                worker_failures: AtomicU64::new(0),
                unit_retries: AtomicU64::new(0),
                last_print_ms: AtomicU64::new(0),
            }),
            every_ms,
        }
    }

    /// Units completed so far (shared across forks).
    pub fn units_done(&self) -> usize {
        self.state.units_done.load(Ordering::Relaxed)
    }

    /// Server observations completed so far (shared across forks).
    pub fn observations(&self) -> u64 {
        self.state.observations.load(Ordering::Relaxed)
    }

    fn render(&self, done: usize) -> String {
        let st = &self.state;
        let total = st.units_total.load(Ordering::Relaxed);
        let obs = st.observations.load(Ordering::Relaxed);
        let secs = st.started.elapsed().as_secs_f64().max(1e-9);
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
        let failures = st.worker_failures.load(Ordering::Relaxed);
        if failures > 0 {
            let retries = st.unit_retries.load(Ordering::Relaxed);
            line.push_str(&format!(
                " | {failures} worker failure(s), {retries} unit(s) retried"
            ));
        }
        line
    }

    fn maybe_print(&self, done: usize, force: bool) {
        let st = &self.state;
        let now_ms = st.started.elapsed().as_millis() as u64;
        let last = st.last_print_ms.load(Ordering::Relaxed);
        let due = now_ms.saturating_sub(last) >= self.every_ms;
        if (force || due)
            && st
                .last_print_ms
                .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            eprintln!("{}", self.render(done));
        }
    }
}

impl Default for Progress {
    fn default() -> Self {
        Progress::new()
    }
}

impl Subscriber for Progress {
    fn fork(&self) -> Self {
        self.clone() // shared Arc: live counters span all shards
    }

    fn on_event(&mut self, event: &Event<'_>) {
        match event {
            Event::CampaignStarted { units, .. } => {
                self.state.units_total.store(*units, Ordering::Relaxed);
            }
            // in this process or, re-emitted by the parent, in a worker
            Event::UnitFinished { record, .. } => {
                self.state
                    .observations
                    .fetch_add(record.observations, Ordering::Relaxed);
                let done = self.state.units_done.fetch_add(1, Ordering::Relaxed) + 1;
                self.maybe_print(done, false);
            }
            Event::WorkerFailed { .. } => {
                self.state.worker_failures.fetch_add(1, Ordering::Relaxed);
            }
            Event::UnitRetried { .. } => {
                self.state.unit_retries.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    fn merge(&mut self, _other: Self) {
        // state is shared; nothing to fold
    }

    fn finish(&mut self) {
        let done = self.state.units_done.load(Ordering::Relaxed);
        self.maybe_print(done, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forks_share_counters() {
        let mut root = Progress::with_interval_ms(u64::MAX); // never prints early
        root.on_event(&Event::CampaignStarted {
            vantages: 2,
            units: 4,
            targets: 10,
        });
        let mut fork = root.fork();
        fork.on_event(&Event::UnitFinished {
            unit: super::super::UnitId {
                vantage: 0,
                chunk: 0,
            },
            record: &super::super::UnitRecord {
                traces: 1,
                observations: 10,
                ..Default::default()
            },
        });
        assert_eq!(root.units_done(), 1);
        assert_eq!(root.observations(), 10);
        root.merge(fork);
        assert_eq!(root.units_done(), 1, "merge must not double-count");
    }

    #[test]
    fn render_reports_progress_shape() {
        let p = Progress::new();
        p.state.units_total.store(10, Ordering::Relaxed);
        p.state.observations.store(400, Ordering::Relaxed);
        let line = p.render(5);
        assert!(line.contains("5/10 units"), "{line}");
        assert!(line.contains("400 obs"), "{line}");
        assert!(line.contains("ETA"), "{line}");
    }
}
