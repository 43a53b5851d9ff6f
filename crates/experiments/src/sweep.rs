//! Parallel experiment sweeps.
//!
//! Every artifact module expands its grid (benchmark × scheme × size …)
//! into a list of [`SweepPoint`]s and hands them to [`run`], which
//! evaluates them on a worker pool of scoped threads and merges the
//! [`SweepResult`]s back **in input order**. Each point is a pure function
//! of the experiment configuration, so the merged output is byte-identical
//! no matter how many workers ran the sweep or in which order the points
//! finished — `--jobs 1` and `--jobs 8` produce the same tables and CSVs.
//!
//! Each sweep also records a [`SweepStats`] entry (wall-clock, simulated
//! cycles, throughput) in a process-wide ledger; the CLI drains it with
//! [`take_stats`] and writes `BENCH_sweep.json`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

use crate::progress::ProgressSink;

/// One point of a sweep grid: a display label plus the evaluator input.
#[derive(Debug, Clone)]
pub struct SweepPoint<I> {
    /// Human-readable point label (e.g. `RADIX/V-COMA`), used for
    /// observability only — never for merging.
    pub label: String,
    /// The input handed to the evaluator.
    pub input: I,
}

impl<I> SweepPoint<I> {
    /// Builds a point.
    pub fn new(label: impl Into<String>, input: I) -> Self {
        SweepPoint { label: label.into(), input }
    }
}

/// One evaluated point: the artifact datum plus the simulated cycles spent
/// producing it (0 for non-simulation work such as trace summarisation).
#[derive(Debug, Clone)]
pub struct SweepResult<T> {
    /// The artifact datum.
    pub value: T,
    /// Simulated cycles consumed by the point's runs.
    pub simulated_cycles: u64,
}

impl<T> SweepResult<T> {
    /// Wraps a value with its simulated-cycle cost.
    pub fn new(value: T, simulated_cycles: u64) -> Self {
        SweepResult { value, simulated_cycles }
    }
}

/// Throughput record of one completed sweep.
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Sweep name (the artifact, e.g. `fig8`).
    pub sweep: String,
    /// Number of grid points evaluated.
    pub points: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Total simulated cycles across all points.
    pub simulated_cycles: u64,
    /// Peak resident-set size of the process when the sweep finished, in
    /// KB (`VmHWM` from `/proc/self/status`; 0 where unavailable). A
    /// high-water mark, so it only ever grows across sweeps — compare the
    /// first sweeps of separate runs, not later sweeps of one run.
    pub peak_rss_kb: u64,
}

/// Reads the process peak resident-set size in KB (`VmHWM` from
/// `/proc/self/status`). Returns 0 on platforms without procfs.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace().nth(1).and_then(|kb| kb.parse().ok())
            })
        })
        .unwrap_or(0)
}

impl SweepStats {
    /// Grid points evaluated per wall-clock second.
    pub fn points_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.points as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Simulated cycles retired per wall-clock second.
    pub fn cycles_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.simulated_cycles as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

static LEDGER: Mutex<Vec<SweepStats>> = Mutex::new(Vec::new());

/// Drains and returns the stats of every sweep run since the last call
/// (process-wide, in completion order).
pub fn take_stats() -> Vec<SweepStats> {
    // Poison-robust: a panicking sweep point (caught upstream by the
    // daemon's `catch_unwind`) must not leave the process-wide ledger
    // unreadable. The ledger is append-only, so a poisoned guard still
    // holds a consistent vector.
    std::mem::take(&mut *LEDGER.lock().unwrap_or_else(std::sync::PoisonError::into_inner))
}

/// Evaluates `points` on `jobs` worker threads and returns the values in
/// input order. `jobs` is clamped to `[1, points.len()]`; the merged
/// output is independent of the worker count.
///
/// Prints one throughput line per sweep and appends a [`SweepStats`]
/// record to the process-wide ledger.
pub fn run<I, T, F>(name: &str, jobs: usize, points: Vec<SweepPoint<I>>, eval: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> SweepResult<T> + Sync,
{
    run_progress(name, jobs, None, points, eval)
}

/// [`run`] with an optional [`ProgressSink`]: the sink hears
/// `sweep_started(name, points)` before evaluation begins and one
/// `point_done(label)` per finished point, from whichever worker thread
/// finished it. The returned values — and every byte of stdout — are
/// identical with and without a sink.
pub fn run_progress<I, T, F>(
    name: &str,
    jobs: usize,
    sink: Option<&dyn ProgressSink>,
    points: Vec<SweepPoint<I>>,
    eval: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> SweepResult<T> + Sync,
{
    let t0 = Instant::now();
    let n = points.len();
    let jobs = jobs.clamp(1, n.max(1));
    if let Some(sink) = sink {
        sink.sweep_started(name, n as u64);
    }

    // Work-stealing over a shared cursor; each worker writes finished
    // results into its point's dedicated slot, so completion order never
    // influences the merge below.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<SweepResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let points = &points;
    let eval = &eval;
    let slots_ref = &slots;
    let next_ref = &next;
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(move || loop {
                let i = next_ref.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = eval(&points[i].input);
                *slots_ref[i].lock().unwrap() = Some(result);
                if let Some(sink) = sink {
                    sink.point_done(&points[i].label);
                }
            });
        }
    });

    let mut values = Vec::with_capacity(n);
    let mut simulated_cycles = 0u64;
    for slot in slots {
        let r = slot.into_inner().unwrap().expect("every sweep point is evaluated");
        simulated_cycles = simulated_cycles.saturating_add(r.simulated_cycles);
        values.push(r.value);
    }

    let stats = SweepStats {
        sweep: name.to_string(),
        points: n,
        jobs,
        wall_seconds: t0.elapsed().as_secs_f64(),
        simulated_cycles,
        peak_rss_kb: peak_rss_kb(),
    };
    println!(
        "[sweep {}: {} points on {} jobs, {:.2}s wall, {} sim cycles, {:.1} points/s, {:.3e} cycles/s]",
        stats.sweep,
        stats.points,
        stats.jobs,
        stats.wall_seconds,
        stats.simulated_cycles,
        stats.points_per_second(),
        stats.cycles_per_second(),
    );
    LEDGER.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(stats);
    values
}

/// The run-wide context `BENCH_sweep.json` records next to the sweep
/// stats, so a throughput figure is never separated from the machine
/// size and worker count that produced it.
#[derive(Debug, Clone, Copy)]
pub struct BenchContext {
    /// Sweep worker threads (the resolved `--jobs` value).
    pub jobs: usize,
    /// Node count of the machine under test (`--nodes`).
    pub nodes: u64,
    /// The process code fingerprint (see [`crate::cache::code_fingerprint`]):
    /// ties the recorded throughput to the code revision that produced
    /// it, and matches the fingerprint of any cache entries the run
    /// read or wrote.
    pub code_fingerprint: &'static str,
}

/// The `BENCH_sweep.json` document, in key order.
#[derive(Serialize)]
struct BenchDoc {
    jobs: usize,
    nodes: u64,
    code_fingerprint: String,
    total_wall_seconds: f64,
    total_points: usize,
    total_simulated_cycles: u64,
    total_cycles_per_second: f64,
    max_peak_rss_kb: u64,
    sweeps: Vec<SweepRecord>,
}

/// One `sweeps` record of [`BenchDoc`]: a [`SweepStats`] with its rates.
#[derive(Serialize)]
struct SweepRecord {
    sweep: String,
    points: usize,
    jobs: usize,
    wall_seconds: f64,
    simulated_cycles: u64,
    points_per_second: f64,
    cycles_per_second: f64,
    peak_rss_kb: u64,
}

/// Renders sweep stats as the `BENCH_sweep.json` document: the run
/// context, overall wall-clock and one record per sweep.
pub fn bench_json(stats: &[SweepStats], ctx: BenchContext) -> String {
    let total_wall: f64 = stats.iter().map(|s| s.wall_seconds).sum();
    let total_cycles: u64 = stats.iter().map(|s| s.simulated_cycles).sum();
    let cycles_per_sec = if total_wall > 0.0 { total_cycles as f64 / total_wall } else { 0.0 };
    let max_rss: u64 = stats.iter().map(|s| s.peak_rss_kb).max().unwrap_or(0);
    let doc = BenchDoc {
        jobs: ctx.jobs,
        nodes: ctx.nodes,
        code_fingerprint: ctx.code_fingerprint.to_string(),
        total_wall_seconds: total_wall,
        total_points: stats.iter().map(|s| s.points).sum(),
        total_simulated_cycles: total_cycles,
        total_cycles_per_second: cycles_per_sec,
        max_peak_rss_kb: max_rss,
        sweeps: stats
            .iter()
            .map(|s| SweepRecord {
                sweep: s.sweep.clone(),
                points: s.points,
                jobs: s.jobs,
                wall_seconds: s.wall_seconds,
                simulated_cycles: s.simulated_cycles,
                points_per_second: s.points_per_second(),
                cycles_per_second: s.cycles_per_second(),
                peak_rss_kb: s.peak_rss_kb,
            })
            .collect(),
    };
    vcoma::metrics::json::to_json_pretty(&doc).expect("bench document has no maps")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_points(n: u64) -> Vec<SweepPoint<u64>> {
        (0..n).map(|i| SweepPoint::new(format!("p{i}"), i)).collect()
    }

    #[test]
    fn results_come_back_in_input_order() {
        for jobs in [1, 2, 7, 64] {
            let out = run("test_order", jobs, square_points(23), |&i| {
                // Skew the per-point latency so completion order differs
                // from input order under real parallelism.
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                SweepResult::new(i * i, i)
            });
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run("test_serial", 1, square_points(17), |&i| SweepResult::new(i * 7, 0));
        let parallel = run("test_parallel", 8, square_points(17), |&i| SweepResult::new(i * 7, 0));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn progress_sink_hears_start_and_every_point() {
        use std::collections::BTreeSet;

        #[derive(Default)]
        struct Sink {
            started: Mutex<Vec<(String, u64)>>,
            labels: Mutex<BTreeSet<String>>,
        }
        impl crate::progress::ProgressSink for Sink {
            fn sweep_started(&self, artifact: &str, points: u64) {
                self.started.lock().unwrap().push((artifact.to_string(), points));
            }
            fn point_done(&self, label: &str) {
                self.labels.lock().unwrap().insert(label.to_string());
            }
        }

        let sink = Sink::default();
        let out = run_progress("test_sink", 4, Some(&sink), square_points(9), |&i| {
            SweepResult::new(i + 1, 0)
        });
        assert_eq!(out, (1..=9).collect::<Vec<u64>>());
        assert_eq!(*sink.started.lock().unwrap(), vec![("test_sink".to_string(), 9)]);
        let labels = sink.labels.lock().unwrap();
        assert_eq!(labels.len(), 9, "one point_done per point: {labels:?}");
        assert!(labels.contains("p0") && labels.contains("p8"));
    }

    #[test]
    fn empty_sweep_is_fine() {
        let out: Vec<u64> = run("test_empty", 4, Vec::<SweepPoint<u64>>::new(), |&i| {
            SweepResult::new(i, 0)
        });
        assert!(out.is_empty());
    }

    #[test]
    fn stats_accumulate_cycles() {
        take_stats(); // other tests share the process-wide ledger
        let _ = run("test_stats", 2, square_points(5), |&i| SweepResult::new(i, 100));
        let stats = take_stats();
        let s = stats.iter().find(|s| s.sweep == "test_stats").expect("ledger entry");
        assert_eq!(s.points, 5);
        assert_eq!(s.simulated_cycles, 500);
        assert!(s.wall_seconds >= 0.0);
        assert!(s.jobs <= 2);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let stats = vec![
            SweepStats {
                sweep: "fig8".into(),
                points: 36,
                jobs: 4,
                wall_seconds: 1.5,
                simulated_cycles: 3_000_000,
                peak_rss_kb: 18_000,
            },
            SweepStats {
                sweep: "table2".into(),
                points: 30,
                jobs: 4,
                wall_seconds: 0.5,
                simulated_cycles: 1_000_000,
                peak_rss_kb: 20_000,
            },
        ];
        let j = bench_json(
            &stats,
            BenchContext {
                jobs: 4,
                nodes: 64,
                code_fingerprint: crate::cache::code_fingerprint(),
            },
        );
        assert!(j.contains("\"sweeps\": ["));
        assert!(j.contains("\"nodes\": 64"));
        assert!(j.contains(&format!(
            "\"code_fingerprint\": \"{}\"",
            crate::cache::code_fingerprint()
        )));
        assert!(j.contains("\"sweep\": \"fig8\""));
        assert!(j.contains("\"total_points\": 66"));
        assert!(j.contains("\"total_simulated_cycles\": 4000000"));
        assert!(j.contains("\"max_peak_rss_kb\": 20000"));
        assert!(j.contains("\"peak_rss_kb\": 18000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches("\"sweep\":").count(), 2);
        assert!(!j.contains("\"history\""), "each run's file stands alone");
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        // On Linux VmHWM is always present; elsewhere the probe reports 0.
        let rss = peak_rss_kb();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }
}
