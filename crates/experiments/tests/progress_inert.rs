//! Observability must be byte-inert: attaching a [`ProgressSink`] (and
//! a cache) to an [`ExperimentConfig`] may never change a single byte
//! of any rendered artifact. The daemon relies on this — its progress
//! counters and store ride on the same hooks, and its CSVs must stay
//! identical to a plain `--jobs 1` CLI run.
//!
//! Alongside inertness this pins the callback accounting itself: every
//! grid point is announced and completed exactly once, and the
//! cached/simulated split flips completely between a cold and a warm
//! cache run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use vcoma::{codec, SimConfig, SimReport};
use vcoma_experiments::cache::{code_fingerprint, PointKey, ReportCache};
use vcoma_experiments::progress::{ProgressSink, StderrProgress};
use vcoma_experiments::{artifacts, ExperimentConfig};

/// Counts every callback; the assertions below reconcile the counts
/// against each other, so a dropped or doubled callback fails loudly.
#[derive(Default)]
struct CountingSink {
    sweeps: AtomicU64,
    announced: AtomicU64,
    points: AtomicU64,
    cached: AtomicU64,
    fresh: AtomicU64,
    cycles: AtomicU64,
}

impl ProgressSink for CountingSink {
    fn sweep_started(&self, _artifact: &str, points: u64) {
        self.sweeps.fetch_add(1, Ordering::Relaxed);
        self.announced.fetch_add(points, Ordering::Relaxed);
    }

    fn point_done(&self, _label: &str) {
        self.points.fetch_add(1, Ordering::Relaxed);
    }

    fn point_resolved(&self, simulated_cycles: u64, from_cache: bool) {
        if from_cache {
            self.cached.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fresh.fetch_add(1, Ordering::Relaxed);
            self.cycles.fetch_add(simulated_cycles, Ordering::Relaxed);
        }
    }
}

/// A [`ReportCache`] over a `HashMap` of encoded envelopes — the
/// daemon's `DiskStore` with the disk swapped for memory.
#[derive(Default)]
struct MemCache {
    entries: Mutex<HashMap<String, String>>,
}

impl ReportCache for MemCache {
    fn load(&self, key: &PointKey, cfg: &SimConfig) -> Option<SimReport> {
        let text = self.entries.lock().unwrap().get(&key.digest)?.clone();
        codec::decode(&text, cfg.clone()).ok().map(|d| d.report)
    }

    fn store(&self, key: &PointKey, report: &SimReport) {
        let text = codec::encode(report, code_fingerprint(), &key.digest);
        self.entries.lock().unwrap().insert(key.digest.clone(), text);
    }
}

/// Renders `table2` and flattens it to comparable bytes.
fn render_table2(cfg: &ExperimentConfig) -> Vec<(String, String)> {
    let output = artifacts::run_standard("table2", cfg).expect("table2 is standard");
    output.tables.iter().map(|(stem, table)| (stem.clone(), table.to_csv())).collect()
}

fn base_cfg() -> ExperimentConfig {
    ExperimentConfig::smoke().with_jobs(2)
}

#[test]
fn progress_sink_is_byte_inert_and_counts_every_point() {
    let plain = render_table2(&base_cfg());

    let sink = Arc::new(CountingSink::default());
    let observed = render_table2(&base_cfg().with_progress(Arc::clone(&sink) as _));
    assert_eq!(plain, observed, "attaching a progress sink changed rendered bytes");

    let announced = sink.announced.load(Ordering::Relaxed);
    assert_eq!(sink.sweeps.load(Ordering::Relaxed), 1, "table2 runs one sweep");
    assert!(announced > 0);
    assert_eq!(
        sink.points.load(Ordering::Relaxed),
        announced,
        "every announced grid point completes exactly once"
    );
    // No cache configured: every resolution is a fresh simulation.
    assert_eq!(sink.cached.load(Ordering::Relaxed), 0);
    assert_eq!(sink.fresh.load(Ordering::Relaxed), announced);
    assert!(sink.cycles.load(Ordering::Relaxed) > 0, "fresh runs retire cycles");

    // The CLI's `--progress` sink paints stderr and nothing else.
    let painted = render_table2(&base_cfg().with_progress(Arc::new(StderrProgress::default())));
    assert_eq!(plain, painted, "the stderr progress sink changed rendered bytes");
}

#[test]
fn cli_progress_line_goes_to_stderr_and_leaves_csvs_alone() {
    let base = std::env::temp_dir().join(format!("vcoma-cli-progress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let run = |out: &str, progress: bool| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_vcoma-experiments"));
        cmd.current_dir(&base).args(["table2", "--scale", "0.005", "--jobs", "2", "--out", out]);
        if progress {
            cmd.arg("--progress");
        }
        let output = cmd.output().expect("run vcoma-experiments");
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        output
    };
    let plain = run("plain", false);
    let painted = run("painted", true);
    assert!(plain.stderr.is_empty());
    let stderr = String::from_utf8_lossy(&painted.stderr);
    assert!(stderr.contains("[table2] ") && stderr.contains(" points, "), "stderr: {stderr:?}");
    assert!(!String::from_utf8_lossy(&painted.stdout).contains(" points, "));
    let csv = |dir: &str| std::fs::read(base.join(dir).join("table2.csv")).expect("table2.csv");
    assert_eq!(csv("plain"), csv("painted"), "--progress changed the CSV bytes");
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn cache_plus_progress_stays_inert_and_flips_the_resolution_split() {
    let plain = render_table2(&base_cfg());
    let cache = Arc::new(MemCache::default());

    // Cold cache: everything simulates, everything gets stored.
    let cold_sink = Arc::new(CountingSink::default());
    let cold = render_table2(
        &base_cfg()
            .with_cache(Arc::clone(&cache) as _)
            .with_progress(Arc::clone(&cold_sink) as _),
    );
    assert_eq!(plain, cold, "a cold cache changed rendered bytes");
    let points = cold_sink.points.load(Ordering::Relaxed);
    assert_eq!(cold_sink.cached.load(Ordering::Relaxed), 0);
    assert_eq!(cold_sink.fresh.load(Ordering::Relaxed), points);
    assert_eq!(cache.entries.lock().unwrap().len() as u64, points);

    // Warm cache: everything loads, nothing simulates, bytes identical.
    let warm_sink = Arc::new(CountingSink::default());
    let warm = render_table2(
        &base_cfg()
            .with_cache(Arc::clone(&cache) as _)
            .with_progress(Arc::clone(&warm_sink) as _),
    );
    assert_eq!(plain, warm, "a warm cache changed rendered bytes");
    assert_eq!(warm_sink.points.load(Ordering::Relaxed), points);
    assert_eq!(warm_sink.cached.load(Ordering::Relaxed), points);
    assert_eq!(warm_sink.fresh.load(Ordering::Relaxed), 0);
    assert_eq!(warm_sink.cycles.load(Ordering::Relaxed), 0, "cache hits retire no cycles");
}
