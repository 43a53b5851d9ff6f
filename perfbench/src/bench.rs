//! The benchmark's workloads and the passes that resolve their points.
//!
//! Every workload is a job of points resolved through the sweep daemon's
//! `DiskStore`. A *cold* pass resolves each point into an empty store: a
//! miss, a simulation, a write. A *resume* pass reopens the store, as a
//! restarted daemon would, and resolves each point again as a store hit.
//! `locality_l0` and `stream_vcoma` resolve their points by calling
//! `Machine::run_streaming` directly; `store_resume` runs a `table2` +
//! `fig10` job through `artifacts::run_standard`, the daemon worker's
//! entry point.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vcoma::workloads::{all_benchmarks, by_name, Workload};
use vcoma::{Machine, MachineConfig, Op, OpSource, Scheme, SimConfig, SimError, SimReport, TlbOrg};
use vcoma_experiments::cache::{code_fingerprint, fnv128_hex, point_key, PointKey, ReportCache};
use vcoma_experiments::progress::ProgressSink;
use vcoma_experiments::render::TextTable;
use vcoma_experiments::table2::{TABLE2_SCHEMES, TABLE2_SIZES};
use vcoma_experiments::{artifacts, fig10, sweep, table2, ExperimentConfig};

use crate::checks::{self, Score, DEFAULT_SEED};
use crate::store::TimedStore;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["locality_l0", "stream_vcoma", "store_resume"];

/// The artifacts of `store_resume`'s job.
const JOB_ARTIFACTS: [&str; 2] = ["table2", "fig10"];

/// One simulation point: a config and the workload it replays.
pub struct Point {
    pub label: String,
    pub scale: f64,
    pub sim: SimConfig,
    pub workload: Box<dyn Workload>,
}

impl Point {
    fn new(prefix: &str, benchmark: &str, scale: f64, sim: SimConfig) -> Point {
        let workload = by_name(benchmark, scale).expect("a paper benchmark");
        Point {
            label: format!("{prefix}/{}", workload.name()),
            scale,
            sim,
            workload,
        }
    }

    pub fn key(&self) -> PointKey {
        point_key(
            &self.sim,
            self.workload.as_ref(),
            self.scale,
            code_fingerprint(),
        )
    }
}

/// One workload of the benchmark, built from its seed.
pub struct Bench {
    pub name: &'static str,
    pub scale: f64,
    /// The points a simulation job resolves. For the artifact job, the
    /// points of its `table2` half, which the traced run replays.
    pub points: Vec<Point>,
    /// The artifact job, configured as the sweep daemon configures one.
    pub job: Option<ExperimentConfig>,
    /// The host warm-up point, always at the default seed.
    pub warmup: Point,
}

/// Table 2's fully-associative TLB bank: 8, 32 and 128 entries.
fn table2_bank() -> Vec<(u64, TlbOrg)> {
    TABLE2_SIZES
        .iter()
        .map(|&s| (s, TlbOrg::FullyAssociative))
        .collect()
}

fn with_table2_bank(scheme: Scheme, seed: u64) -> SimConfig {
    SimConfig::new(MachineConfig::paper_baseline(), scheme)
        .with_translation_specs(table2_bank())
        .with_seed(seed)
}

/// V-COMA with the default 8-entry fully-associative DLB.
fn v_coma(seed: u64) -> SimConfig {
    SimConfig::new(MachineConfig::paper_baseline(), Scheme::V_COMA).with_seed(seed)
}

/// Builds workload `name` at master seed `seed`; `smoke` shrinks every
/// scale so a run takes seconds. `None` for an unknown name.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Bench> {
    let warm = if smoke { 0.002 } else { 0.01 };
    let sim_scale = if smoke { 0.01 } else { 0.1 };
    let l0 = |seed| with_table2_bank(Scheme::L0_TLB, seed);
    let bench = match name {
        "locality_l0" => Bench {
            name: "locality_l0",
            scale: sim_scale,
            points: ["BARNES", "FMM"]
                .iter()
                .map(|b| Point::new(name, b, sim_scale, l0(seed)))
                .collect(),
            job: None,
            warmup: Point::new("locality_l0/warmup", "BARNES", warm, l0(DEFAULT_SEED)),
        },
        "stream_vcoma" => Bench {
            name: "stream_vcoma",
            scale: sim_scale,
            points: ["FFT", "RADIX"]
                .iter()
                .map(|b| Point::new(name, b, sim_scale, v_coma(seed)))
                .collect(),
            job: None,
            warmup: Point::new("stream_vcoma/warmup", "FFT", warm, v_coma(DEFAULT_SEED)),
        },
        "store_resume" => {
            let scale = if smoke { 0.002 } else { 0.01 };
            let mut job = ExperimentConfig::new().with_scale(scale).with_jobs(1);
            job.seed = seed;
            let mut points = Vec::new();
            for w in all_benchmarks(scale) {
                for scheme in TABLE2_SCHEMES {
                    let prefix = format!("store_resume/{}", scheme.label());
                    points.push(Point::new(
                        &prefix,
                        w.name(),
                        scale,
                        with_table2_bank(scheme, seed),
                    ));
                }
            }
            Bench {
                name: "store_resume",
                scale,
                points,
                job: Some(job),
                warmup: Point::new("store_resume/warmup", "RADIX", warm, l0(DEFAULT_SEED)),
            }
        }
        _ => return None,
    };
    Some(bench)
}

/// One simulated point and where its host time went.
pub struct SimRun {
    pub report: SimReport,
    /// Ops, and memory ops among them, pulled from the sources.
    pub ops: u64,
    pub mem_ops: u64,
    /// Time spent inside `next_op` (zero unless timed).
    pub next_op: Duration,
    pub start: Instant,
    pub machine_new: Duration,
    pub run_streaming: Duration,
}

#[derive(Default)]
struct Tally {
    ops: Cell<u64>,
    mem_ops: Cell<u64>,
    ns: Cell<u64>,
}

/// Counts the ops a source yields and, if `timed`, the time spent
/// producing them.
struct Tallied {
    inner: Box<dyn OpSource>,
    tally: Rc<Tally>,
    timed: bool,
}

impl OpSource for Tallied {
    fn next_op(&mut self) -> Option<Op> {
        let op = if self.timed {
            let t = Instant::now();
            let op = self.inner.next_op();
            self.tally
                .ns
                .set(self.tally.ns.get() + t.elapsed().as_nanos() as u64);
            op
        } else {
            self.inner.next_op()
        };
        if let Some(op) = op {
            self.tally.ops.set(self.tally.ops.get() + 1);
            if op.addr().is_some() {
                self.tally.mem_ops.set(self.tally.mem_ops.get() + 1);
            }
        }
        op
    }
}

/// Simulates `p` on a fresh machine, streaming its workload.
pub fn simulate(p: &Point, timed: bool) -> Result<SimRun, SimError> {
    let tally = Rc::new(Tally::default());
    let start = Instant::now();
    let machine = Machine::new(p.sim.clone());
    let machine_new = start.elapsed();
    let t = Instant::now();
    let report = machine.run_streaming(|| {
        p.workload
            .sources(&p.sim.machine)
            .into_iter()
            .map(|inner| {
                Box::new(Tallied {
                    inner,
                    tally: Rc::clone(&tally),
                    timed,
                }) as Box<dyn OpSource>
            })
            .collect()
    })?;
    let run_streaming = t.elapsed();
    Ok(SimRun {
        report,
        ops: tally.ops.get(),
        mem_ops: tally.mem_ops.get(),
        next_op: Duration::from_nanos(tally.ns.get()),
        start,
        machine_new,
        run_streaming,
    })
}

/// Checks a simulated point: conservation always, and its digest against
/// the pin when it ran at the default seed. Returns the verdict and the
/// digest.
pub fn verify(p: &Point, run: &SimRun) -> (Result<(), String>, String) {
    let digest = checks::digest(&run.report);
    let verdict = checks::conservation(&run.report, Some(run.mem_ops)).and_then(|()| {
        if p.sim.seed == DEFAULT_SEED {
            checks::pinned(&format!("{}@{}", p.label, p.scale), &digest)
        } else {
            Ok(())
        }
    });
    (verdict, digest)
}

/// One pass over a workload's job.
pub struct Pass {
    pub start: Instant,
    pub secs: f64,
    /// References simulated (zero on a resume pass).
    pub refs: u64,
    /// What the pass produced, to compare passes: one digest per point,
    /// or the job's CSV digest.
    pub digests: Vec<String>,
    /// A point job's simulations, aligned with `Bench::points`.
    pub runs: Vec<Option<SimRun>>,
}

/// Resolves every point into the empty `store`.
pub fn cold(b: &Bench, store: &Arc<TimedStore>, timed: bool, score: &mut Score) -> Pass {
    if let Some(job) = &b.job {
        return cold_job(b, job, store, score);
    }
    let start = Instant::now();
    let outcomes: Vec<Result<SimRun, String>> = b
        .points
        .iter()
        .map(|p| {
            let key = p.key();
            if store.load(&key, &p.sim).is_some() {
                return Err("the cold store already held the point".to_string());
            }
            let run = simulate(p, timed).map_err(|e| e.to_string())?;
            store.store(&key, &run.report);
            Ok(run)
        })
        .collect();
    let secs = start.elapsed().as_secs_f64();
    let mut digests = Vec::new();
    let mut runs = Vec::new();
    for (p, outcome) in b.points.iter().zip(outcomes) {
        let (verdict, digest, run) = match outcome {
            Ok(run) => {
                let (verdict, digest) = verify(p, &run);
                (verdict, digest, Some(run))
            }
            Err(e) => (Err(e), String::new(), None),
        };
        score.point(&p.label, verdict);
        digests.push(digest);
        runs.push(run);
    }
    let refs = runs.iter().flatten().map(|r| r.report.total_refs()).sum();
    Pass {
        start,
        secs,
        refs,
        digests,
        runs,
    }
}

/// Runs the job's artifacts through the shared dispatch and returns
/// their CSVs.
fn render_job(cfg: &ExperimentConfig) -> String {
    let mut csv = String::new();
    for name in JOB_ARTIFACTS {
        let out =
            artifacts::run_standard(name, cfg).expect("table2 and fig10 are standard artifacts");
        for (stem, table) in &out.tables {
            csv.push_str(stem);
            csv.push('\n');
            csv.push_str(&table.to_csv());
        }
    }
    // The harness records every sweep process-wide for the CLI's
    // summary; drain it so repeated passes do not accumulate records.
    let _ = sweep::take_stats();
    csv
}

fn cold_job(b: &Bench, job: &ExperimentConfig, store: &Arc<TimedStore>, score: &mut Score) -> Pass {
    let cfg = job
        .clone()
        .with_cache(Arc::clone(store) as Arc<dyn ReportCache>);
    let start = Instant::now();
    let csv = render_job(&cfg);
    let secs = start.elapsed().as_secs_f64();
    let (mut rows, mut refs) = (Vec::new(), 0);
    for (key, report) in &store.log().written {
        score.point(
            &format!("{}/{}", b.name, key.digest),
            checks::conservation(report, None),
        );
        rows.push(format!("{} {}", key.digest, checks::digest(report)));
        refs += report.total_refs();
    }
    rows.sort();
    let reports = fnv128_hex(&rows.join("\n"));
    let csv_digest = fnv128_hex(&csv);
    if job.seed == DEFAULT_SEED {
        for (what, digest) in [("reports", &reports), ("csv", &csv_digest)] {
            let pin = format!("{}/{what}@{}", b.name, b.scale);
            score.point(&pin, checks::pinned(&pin, digest));
        }
    }
    Pass {
        start,
        secs,
        refs,
        digests: vec![csv_digest],
        runs: Vec::new(),
    }
}

/// Resolves every point from `store`, a reopened handle on a cold
/// pass's store, and checks the results reproduce `cold`'s.
pub fn resume(b: &Bench, store: &Arc<TimedStore>, cold: &Pass, score: &mut Score) -> Pass {
    if let Some(job) = &b.job {
        return resume_job(job, store, cold, score);
    }
    let start = Instant::now();
    let loaded: Vec<Option<SimReport>> = b
        .points
        .iter()
        .map(|p| store.load(&p.key(), &p.sim))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    let digests: Vec<String> = loaded
        .iter()
        .map(|r| r.as_ref().map(checks::digest).unwrap_or_default())
        .collect();
    for ((p, got), want) in b.points.iter().zip(&digests).zip(&cold.digests) {
        let verdict = if got.is_empty() {
            Err("store miss on resume".to_string())
        } else if got != want {
            Err(format!("resumed digest {got} != cold {want}"))
        } else {
            Ok(())
        };
        score.point(&format!("{} (resumed)", p.label), verdict);
    }
    Pass {
        start,
        secs,
        refs: 0,
        digests,
        runs: Vec::new(),
    }
}

/// Counts point resolutions that simulated instead of loading.
#[derive(Default)]
struct Simulations(AtomicU64);

impl ProgressSink for Simulations {
    fn point_resolved(&self, _simulated_cycles: u64, from_cache: bool) {
        if !from_cache {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn resume_job(
    job: &ExperimentConfig,
    store: &Arc<TimedStore>,
    cold: &Pass,
    score: &mut Score,
) -> Pass {
    let sims = Arc::new(Simulations::default());
    let cfg = job
        .clone()
        .with_cache(Arc::clone(store) as Arc<dyn ReportCache>)
        .with_progress(Arc::clone(&sims) as Arc<dyn ProgressSink>);
    let start = Instant::now();
    let csv = render_job(&cfg);
    let secs = start.elapsed().as_secs_f64();
    let csv_digest = fnv128_hex(&csv);
    let disk = store.disk();
    let simulated = sims.0.load(Ordering::Relaxed);
    let verdict = if csv_digest != cold.digests[0] {
        Err("the resumed CSVs differ from the cold ones".to_string())
    } else if simulated > 0 || disk.misses() > 0 || disk.writes() > 0 {
        Err(format!(
            "{simulated} simulations, {} misses, {} writes",
            disk.misses(),
            disk.writes()
        ))
    } else {
        Ok(())
    };
    score.points(
        "store_resume resume pass",
        disk.hits() + disk.misses(),
        verdict,
    );
    Pass {
        start,
        secs,
        refs: 0,
        digests: vec![csv_digest],
        runs: Vec::new(),
    }
}

/// Host time to render the cold pass's results as tables and CSV: the
/// job's own artifacts, or a per-point summary table.
pub fn render_time(b: &Bench, store: &Arc<TimedStore>, cold: &Pass) -> Duration {
    let Some(job) = &b.job else {
        let start = Instant::now();
        let mut table = TextTable::new(vec!["POINT", "REFS", "CYCLES", "TLB MISS %", "TXNS"]);
        for (p, run) in b.points.iter().zip(&cold.runs) {
            if let Some(run) = run {
                let r = &run.report;
                table.row(vec![
                    p.label.clone(),
                    r.total_refs().to_string(),
                    r.simulated_cycles().to_string(),
                    format!("{:.3}", 100.0 * r.translation_miss_rate(0)),
                    r.protocol().remote_transactions().to_string(),
                ]);
            }
        }
        std::hint::black_box(table.render().len() + table.to_csv().len());
        return start.elapsed();
    };
    let cfg = job
        .clone()
        .with_cache(Arc::clone(store) as Arc<dyn ReportCache>);
    let rows = table2::run(&cfg);
    let panels = fig10::run(&cfg);
    let _ = sweep::take_stats();
    let start = Instant::now();
    let mut bytes = table2::render(&rows).to_csv().len();
    for p in &panels {
        bytes += fig10::render(p).to_csv().len();
    }
    std::hint::black_box(bytes);
    start.elapsed()
}
