//! Per-point progress callbacks.
//!
//! A [`ProgressSink`] observes a run from two vantage points:
//!
//! * the **sweep pool** reports grid-level progress — each artifact's
//!   sweep announces its point count up front via
//!   [`sweep_started`](ProgressSink::sweep_started) and ticks
//!   [`point_done`](ProgressSink::point_done) as workers finish points;
//! * [`crate::ExperimentConfig::run_cached`] reports resolution-level
//!   progress — every simulator invocation routed through it calls
//!   [`point_resolved`](ProgressSink::point_resolved) with the report's
//!   simulated cycles and whether the result came from the store.
//!
//! The two views are deliberately distinct: most artifacts run exactly
//! one simulation per grid point (so the counts line up), but some run
//! several (or none — `ccnuma` drives the simulator directly), so the
//! daemon surfaces both rather than conflating them.
//!
//! Every method has a no-op default and implementors must be
//! `Send + Sync`: callbacks arrive concurrently from sweep workers.
//! Sinks must never write to stdout or touch artifact outputs — the
//! byte-identity of every table, CSV and golden fixture with and without
//! a sink installed is a tested invariant.
//!
//! [`StderrProgress`] is the CLI's sink (`--progress`); the daemon
//! installs its own per job.

use std::sync::Mutex;
use std::time::Instant;

use crate::sweep::peak_rss_kb;

/// Observer for sweep and simulation progress. All methods default to
/// no-ops so sinks implement only the events they care about.
pub trait ProgressSink: Send + Sync {
    /// A sweep named `artifact` is starting with `points` grid points.
    /// Called once per artifact sweep, before any point is evaluated;
    /// totals accumulate across the artifacts of one job.
    fn sweep_started(&self, artifact: &str, points: u64) {
        let _ = (artifact, points);
    }

    /// One grid point (labelled `label`) finished evaluating. Called from
    /// sweep worker threads, in completion (not input) order.
    fn point_done(&self, label: &str) {
        let _ = label;
    }

    /// One simulation routed through `run_cached` resolved, costing
    /// `simulated_cycles` (as reported by the run), `from_cache` when the
    /// result was served from the configured store instead of simulated.
    fn point_resolved(&self, simulated_cycles: u64, from_cache: bool) {
        let _ = (simulated_cycles, from_cache);
    }
}

/// Paints a live one-line status of the current sweep to stderr:
/// points done out of the sweep's total, freshly simulated cycles per
/// wall-clock second since the sweep started, and the process peak RSS.
/// The line is cleared when the sweep's last point finishes. Stderr
/// only: stdout carries the deterministic tables.
#[derive(Debug)]
pub struct StderrProgress {
    line: Mutex<Line>,
}

/// The state behind the painted line, reset by each sweep.
#[derive(Debug)]
struct Line {
    artifact: String,
    total: u64,
    done: u64,
    cycles: u64,
    started: Instant,
}

impl Line {
    fn start(artifact: &str, total: u64) -> Line {
        Line { artifact: artifact.to_string(), total, done: 0, cycles: 0, started: Instant::now() }
    }
}

impl StderrProgress {
    fn line(&self) -> std::sync::MutexGuard<'_, Line> {
        self.line.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Default for StderrProgress {
    /// A sink with no sweep started yet.
    fn default() -> Self {
        StderrProgress { line: Mutex::new(Line::start("", 0)) }
    }
}

impl ProgressSink for StderrProgress {
    fn sweep_started(&self, artifact: &str, points: u64) {
        *self.line() = Line::start(artifact, points);
    }

    fn point_done(&self, _label: &str) {
        let mut line = self.line();
        line.done += 1;
        let secs = line.started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { line.cycles as f64 / secs } else { 0.0 };
        eprint!(
            "\r[{}] {}/{} points, {rate:.3e} cycles/s, peak RSS {} KB ",
            line.artifact,
            line.done,
            line.total,
            peak_rss_kb()
        );
        if line.done == line.total {
            eprint!("\r{:79}\r", "");
        }
    }

    fn point_resolved(&self, simulated_cycles: u64, from_cache: bool) {
        if !from_cache {
            self.line().cycles += simulated_cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct Counting {
        started: AtomicU64,
        done: AtomicU64,
        resolved: AtomicU64,
    }

    impl ProgressSink for Counting {
        fn sweep_started(&self, _artifact: &str, points: u64) {
            self.started.fetch_add(points, Ordering::Relaxed);
        }
        fn point_done(&self, _label: &str) {
            self.done.fetch_add(1, Ordering::Relaxed);
        }
        fn point_resolved(&self, simulated_cycles: u64, _from_cache: bool) {
            self.resolved.fetch_add(simulated_cycles, Ordering::Relaxed);
        }
    }

    struct Silent;
    impl ProgressSink for Silent {}

    #[test]
    fn default_methods_are_noops() {
        let s = Silent;
        s.sweep_started("fig8", 42);
        s.point_done("RADIX/V-COMA");
        s.point_resolved(1_000, true);
    }

    #[test]
    fn sinks_are_object_safe_and_shareable() {
        let sink = Counting::default();
        let dyn_sink: &dyn ProgressSink = &sink;
        dyn_sink.sweep_started("table2", 30);
        dyn_sink.point_done("p0");
        dyn_sink.point_done("p1");
        dyn_sink.point_resolved(500, false);
        assert_eq!(sink.started.load(Ordering::Relaxed), 30);
        assert_eq!(sink.done.load(Ordering::Relaxed), 2);
        assert_eq!(sink.resolved.load(Ordering::Relaxed), 500);
    }
}
