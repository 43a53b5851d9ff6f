//! `perfbench`: the host-side benchmark of the vcoma simulator.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//!           [--commit SHA] [--work DIR]
//! ```
//!
//! `perfbench/run.py` builds this binary and runs it; `perfbench/README.md`
//! describes the workloads and metrics. Untraced runs (`--trace 0`) print
//! the end-to-end metrics, traced runs (`--trace 1`) the per-layer ones.
//! The last line of standard output is one JSON object with the run's
//! verdict and metrics.

mod bench;
mod calib;
mod checks;
mod layers;
mod ledger;
mod spans;
mod stats;
mod store;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vcoma::codec;
use vcoma_experiments::cache::{code_fingerprint, ReportCache};
use vcoma_experiments::sweep::peak_rss_kb;

use bench::{Bench, Pass};
use calib::Times;
use checks::Score;
use layers::{Counts, Layers};
use spans::Spans;
use stats::{mean, median, quantile};
use store::{StoreLog, TimedStore};

/// Set-ups per run; `setup_s` is the median of their scaled times.
const SETUP_REPS: usize = 9;
/// Store loads per run's resume passes, so the p90 rests on at least 12
/// samples.
const MIN_RESUME_LOADS: usize = 120;
/// Share of the untraced run's time spent on resume passes.
const RESUME_SHARE: f64 = 0.2;
/// Figures printed but not reported. A resume load's time depends on
/// the process: in ten runs of `stream_vcoma` the median load took either
/// about 0.80 or about 0.92 ms (scaled), so these two spread by 0.12 to
/// 0.13 across runs; the p90 moved by 0.05.
const PRINTED_ONLY: [&str; 2] = ["resume_s", "resume_p50_ms"];
/// Resume time between two samples of the reference kernel.
const BRACKET_S: f64 = 0.1;
const MB: f64 = 1024.0 * 1024.0;

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    commit: String,
    work: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: checks::DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            smoke: false,
            commit: "unknown".to_string(),
            work: PathBuf::from(".bench_work"),
        };
        while let Some(flag) = it.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = parse_seed(&value)?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds '{value}'"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace '{value}' (0 or 1)")),
                    };
                }
                "--commit" => args.commit = value,
                "--work" => args.work = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !bench::WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                bench::WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("bad --seed '{s}'"))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = args.work.join(format!("run-{}", std::process::id()));
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, scratch: &Path) -> Result<(), String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut score = Score::default();
    let (b, setup_s) = setup(args, scratch, &mut score)?;
    let metrics = if args.trace {
        traced(args, &b, scratch, &mut score)?
    } else {
        let mut m = untraced(args, &b, scratch, &mut score)?;
        m.push(metric("peak_rss_mb", peak_rss_kb() as f64 / 1024.0, "MB"));
        m.push(metric("setup_s", setup_s, "s"));
        m
    };
    report(args, &b, &score, &metrics);
    Ok(())
}

/// Builds the workload, opens a store and runs the warm-up point,
/// `SETUP_REPS` times, each between two samples of the reference kernel.
/// Returns the workload and the median set-up time scaled to the nominal
/// host (`calib`).
fn setup(args: &Args, scratch: &Path, score: &mut Score) -> Result<(Bench, f64), String> {
    let mut times = Times::default();
    let mut built = None;
    let mut before = calib::sample();
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let b = bench::build(&args.workload, args.seed, args.smoke)
            .expect("the workload name was validated");
        let store = TimedStore::open(scratch.join(format!("setup-{rep}")))?;
        let warm = bench::simulate(&b.warmup, false);
        if let Ok(run) = &warm {
            store.store(&b.warmup.key(), &run.report);
        }
        let secs = start.elapsed().as_secs_f64();
        let after = calib::sample();
        times.push(secs, before, after);
        before = after;
        let verdict = match &warm {
            Ok(run) => bench::verify(&b.warmup, run).0,
            Err(e) => Err(e.to_string()),
        };
        score.point(&b.warmup.label, verdict);
        built = Some(b);
    }
    println!("{:<26} {:>18} s (unscaled)", "setup_s", median(&times.raw));
    Ok((built.expect("SETUP_REPS > 0"), median(&times.scaled)))
}

/// The end-to-end run. Each round is a cold pass into a fresh store,
/// then resume passes through reopened handles on that store until they
/// have taken `RESUME_SHARE` of the time so far; interleaving the two
/// lets both sample the same host conditions over the whole run.
/// Samples of the reference kernel around each cold pass, and between
/// resume passes every `BRACKET_S`, scale their times to the nominal host
/// (`calib`).
fn untraced(
    args: &Args,
    b: &Bench,
    scratch: &Path,
    score: &mut Score,
) -> Result<Vec<Metric>, String> {
    let start = Instant::now();
    let (mut cold_secs, mut resume_secs, mut loads) =
        (Times::default(), Times::default(), Times::default());
    let mut kernel = Vec::new();
    let (mut cold_total, mut resume_total) = (0.0, 0.0);
    let mut first: Option<Pass> = None;
    let mut dir = PathBuf::new();
    for round in 0.. {
        if round > 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dir = scratch.join(format!("cold-{round}"));
        let before = calib::sample();
        let p = bench::cold(b, &Arc::new(TimedStore::open(dir.clone())?), false, score);
        let after = calib::sample();
        cold_secs.push(p.secs, before, after);
        kernel.extend([before, after]);
        cold_total += p.secs;
        match &first {
            None => first = Some(p),
            Some(f) => {
                let verdict = if p.digests == f.digests {
                    Ok(())
                } else {
                    Err("differs from the first cold pass at the same seed".to_string())
                };
                score.point(&format!("{} cold pass {round}", b.name), verdict);
            }
        }
        let cold = first.as_ref().expect("set in the first round");
        let done = start.elapsed().as_secs_f64() >= args.seconds;
        let mut open = Bracket {
            opened: after,
            ..Bracket::default()
        };
        while resume_total < cold_total * RESUME_SHARE / (1.0 - RESUME_SHARE)
            || (done && loads.raw.len() + open.loads.len() < MIN_RESUME_LOADS)
        {
            let store = Arc::new(TimedStore::open(dir.clone())?);
            let secs = bench::resume(b, &store, cold, score).secs;
            open.passes.push(secs);
            resume_total += secs;
            open.loads
                .extend(store.take_log().loads.iter().map(|c| ms(c.took)));
            if open.passes.iter().sum::<f64>() >= BRACKET_S {
                let end = calib::sample();
                kernel.push(end);
                open.close(end, &mut resume_secs, &mut loads);
            }
        }
        if !open.passes.is_empty() {
            let end = calib::sample();
            kernel.push(end);
            open.close(end, &mut resume_secs, &mut loads);
        }
        if done {
            break;
        }
    }
    eprintln!(
        "{} cold passes, {} resume passes, {} resume loads",
        cold_secs.raw.len(),
        resume_secs.raw.len(),
        loads.raw.len()
    );
    let refs = first.map_or(0, |p| p.refs);
    for m in figures(refs, &cold_secs.raw, &resume_secs.raw, &loads.raw) {
        println!("{:<26} {:>18} {} (unscaled)", m.name, m.value, m.unit);
    }
    println!(
        "{:<26} {:>18} s ({} samples; nominal {} s)",
        "reference kernel",
        median(&kernel),
        kernel.len(),
        calib::NOMINAL_S
    );
    let (printed, reported): (Vec<Metric>, Vec<Metric>) =
        figures(refs, &cold_secs.scaled, &resume_secs.scaled, &loads.scaled)
            .into_iter()
            .partition(|m| PRINTED_ONLY.contains(&m.name));
    for m in printed {
        println!("{:<26} {:>18} {}", m.name, m.value, m.unit);
    }
    Ok(reported)
}

/// The untraced run's figures from its cold pass times, resume pass times
/// and resume load times (ms); `refs` is the references in a cold pass.
fn figures(refs: u64, cold: &[f64], resume: &[f64], loads: &[f64]) -> Vec<Metric> {
    let rates: Vec<f64> = cold.iter().map(|s| refs as f64 / s).collect();
    vec![
        metric("refs_per_s", median(&rates), "1/s"),
        metric("cold_s", median(cold), "s"),
        metric("resume_s", median(resume), "s"),
        metric("resume_p50_ms", quantile(loads, 0.5), "ms"),
        metric("resume_p90_ms", quantile(loads, 0.9), "ms"),
    ]
}

/// Resume timings taken since the kernel sample `opened`, waiting for the
/// sample that closes their bracket.
#[derive(Default)]
struct Bracket {
    opened: f64,
    passes: Vec<f64>,
    loads: Vec<f64>,
}

impl Bracket {
    /// Records the bracket's pass times and loads as measured between
    /// `opened` and `end`, and opens the next bracket at `end`.
    fn close(&mut self, end: f64, passes: &mut Times, loads: &mut Times) {
        for secs in self.passes.drain(..) {
            passes.push(secs, self.opened, end);
        }
        for ms in self.loads.drain(..) {
            loads.push(ms, self.opened, end);
        }
        self.opened = end;
    }
}

fn store_spans(spans: &mut Spans, parent: usize, log: &StoreLog) {
    for c in &log.loads {
        spans.add(Some(parent), "store.load", c.start, c.took, 1);
    }
    for c in &log.writes {
        spans.add(Some(parent), "store.write", c.start, c.took, 1);
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced run: one cold pass untimed and one timed in place (their
/// difference is the tracing overhead), traced resume passes, codec and
/// key timing, then the layer replay of every point.
fn traced(
    args: &Args,
    b: &Bench,
    scratch: &Path,
    score: &mut Score,
) -> Result<Vec<Metric>, String> {
    let timer_ns = layers::timer_overhead_ns();
    let mut spans = Spans::new();

    let plain = bench::cold(
        b,
        &Arc::new(TimedStore::open(scratch.join("cold-plain"))?),
        false,
        score,
    );
    let dir = scratch.join("cold-traced");
    let store = Arc::new(TimedStore::open(dir.clone())?);
    let cold = bench::cold(b, &store, true, score);
    let trace_overhead = cold.secs / plain.secs - 1.0;
    let cold_log = store.take_log();
    let (mut hits, mut misses) = (store.disk().hits(), store.disk().misses());
    let disk_mb = stats::dir_bytes(&dir) as f64 / MB;
    let id = spans.add(
        None,
        "cold-pass",
        cold.start,
        Duration::from_secs_f64(cold.secs),
        1,
    );
    store_spans(&mut spans, id, &cold_log);
    let render = bench::render_time(b, &Arc::new(TimedStore::open(dir.clone())?), &cold);

    let mut loads = Vec::new();
    while loads.len() < MIN_RESUME_LOADS {
        let handle = Arc::new(TimedStore::open(dir.clone())?);
        let pass = bench::resume(b, &handle, &cold, score);
        let log = handle.take_log();
        let id = spans.add(
            None,
            "resume-pass",
            pass.start,
            Duration::from_secs_f64(pass.secs),
            1,
        );
        store_spans(&mut spans, id, &log);
        loads.extend(log.loads.iter().map(|c| ms(c.took)));
        hits += handle.disk().hits();
        misses += handle.disk().misses();
    }

    let (mut encode, mut decode, mut envelope_kb) = (Vec::new(), Vec::new(), Vec::new());
    for (key, report) in &cold_log.written {
        let t = Instant::now();
        let text = codec::encode(report, code_fingerprint(), &key.digest);
        encode.push(ms(t.elapsed()));
        let t = Instant::now();
        let decoded = codec::decode(&text, report.config().clone());
        decode.push(ms(t.elapsed()));
        envelope_kb.push(text.len() as f64 / 1024.0);
        let verdict = match decoded {
            Ok(d) if codec::encode(&d.report, code_fingerprint(), &key.digest) == text => Ok(()),
            Ok(_) => Err("re-encoding the decoded report changed its bytes".to_string()),
            Err(e) => Err(format!("{e:?}")),
        };
        score.point(&format!("codec round trip {}", key.digest), verdict);
    }

    let reps = (1000 / b.points.len()).max(1);
    let t = Instant::now();
    for _ in 0..reps {
        for p in &b.points {
            std::hint::black_box(p.key());
        }
    }
    let point_key_us = t.elapsed().as_secs_f64() * 1e6 / (reps * b.points.len()) as f64;

    // The layer replay. A point job's traced cold pass already holds the
    // real runs; the artifact job's points are simulated here.
    let runs: Vec<Option<bench::SimRun>> = if b.job.is_none() {
        cold.runs
    } else {
        b.points
            .iter()
            .map(|p| {
                let run = bench::simulate(p, true);
                let verdict = match &run {
                    Ok(run) => bench::verify(p, run).0,
                    Err(e) => Err(e.to_string()),
                };
                score.point(&p.label, verdict);
                run.ok()
            })
            .collect()
    };
    let (mut real, mut replayed, mut layers) =
        (Counts::default(), Counts::default(), Layers::default());
    let (mut ops, mut refs, mut cycles, mut lookups, mut flc_probes, mut slc_probes) =
        (0, 0, 0, 0, 0, 0);
    let (mut invalidations, mut msgs, mut bytes, mut pages, mut unmapped) = (0, 0, 0, 0, 0);
    let (mut next_op, mut streaming, mut machine_new) =
        (Duration::ZERO, Duration::ZERO, Vec::new());
    for (p, run) in b.points.iter().zip(&runs) {
        let Some(run) = run else { continue };
        let r = &run.report;
        let root = spans.add(
            None,
            &p.label,
            run.start,
            run.machine_new + run.run_streaming,
            1,
        );
        spans.add(Some(root), "sim.machine_new", run.start, run.machine_new, 1);
        let replay_start = run.start + run.machine_new;
        let sim = spans.add(
            Some(root),
            "sim.run_streaming",
            replay_start,
            run.run_streaming,
            1,
        );
        spans.add(
            Some(sim),
            "workloads.next_op",
            replay_start,
            run.next_op,
            run.ops,
        );

        let t = Instant::now();
        let replay = layers::replay(&p.sim, p.workload.sources(&p.sim.machine));
        let id = spans.add(
            None,
            &format!("{} layer replay", p.label),
            t,
            t.elapsed(),
            1,
        );
        for (name, acc) in replay.layers.named() {
            spans.add(Some(id), name, t, Duration::from_nanos(acc.ns), acc.calls);
        }

        real.merge(&Counts::of_report(r));
        replayed.merge(&replay.counts);
        layers.merge(&replay.layers);
        pages += replay.pages;
        unmapped += replay.unmapped;
        ops += run.ops;
        next_op += run.next_op;
        streaming += run.run_streaming;
        machine_new.push(ms(run.machine_new));
        refs += r.total_refs();
        cycles += r.simulated_cycles();
        lookups += r.translation_accesses_total(0);
        flc_probes += r.flc_total().accesses();
        slc_probes += r.slc_total().accesses();
        invalidations += r.protocol().invalidations;
        msgs += r.net_msgs();
        bytes += r.net_bytes();
    }

    println!("layer replay fidelity (the real run's counters beside the replay's):");
    for ((name, want), (_, got)) in real.named().into_iter().zip(replayed.named()) {
        println!(
            "  {name:<11} real {want:>11} replay {got:>11} ratio {:.4}",
            ratio(got, want)
        );
    }
    println!("  timer cost subtracted per timed call: {timer_ns:.1} ns; unmapped replay refs: {unmapped}");
    let span_path = args
        .work
        .join(format!("spans-{}-{}.json", b.name, args.seed));
    match spans.write(&span_path) {
        Ok(()) => println!("spans: {}", span_path.display()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", span_path.display()),
    }

    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let next_op_ns = per(next_op.as_nanos() as f64 - ops as f64 * timer_ns, ops).max(0.0);
    Ok(vec![
        metric("workloads.ops", ops as f64, "count"),
        metric("workloads.next_op_ns", next_op_ns, "ns"),
        metric("sim.refs", refs as f64, "count"),
        metric("sim.cycles", cycles as f64, "count"),
        metric("sim.machine_new_ms", mean(&machine_new), "ms"),
        metric(
            "sim.replay_ns_per_ref",
            per(streaming.saturating_sub(next_op).as_nanos() as f64, refs),
            "ns",
        ),
        metric("tlb.lookups", lookups as f64, "count"),
        metric("tlb.miss_ratio", ratio(real.tlb_misses, lookups), "ratio"),
        metric("tlb.lookup_ns", layers.tlb.per_call_ns(timer_ns), "ns"),
        metric("cachesim.flc_probes", flc_probes as f64, "count"),
        metric(
            "cachesim.flc_miss_ratio",
            ratio(real.flc_misses, flc_probes),
            "ratio",
        ),
        metric(
            "cachesim.flc_probe_ns",
            layers.flc.per_call_ns(timer_ns),
            "ns",
        ),
        metric("cachesim.slc_probes", slc_probes as f64, "count"),
        metric(
            "cachesim.slc_miss_ratio",
            ratio(real.slc_misses, slc_probes),
            "ratio",
        ),
        metric(
            "cachesim.slc_probe_ns",
            layers.slc.per_call_ns(timer_ns),
            "ns",
        ),
        metric("vm.pages", pages as f64, "count"),
        metric("vm.map_ns", layers.vm.per_call_ns(timer_ns), "ns"),
        metric(
            "metrics.observe_ns",
            layers.metrics.per_call_ns(timer_ns),
            "ns",
        ),
        metric("coherence.txns", real.txns as f64, "count"),
        metric("coherence.txn_ratio", ratio(real.txns, refs), "ratio"),
        metric("coherence.invalidations", invalidations as f64, "count"),
        metric(
            "coherence.txn_ns",
            per(layers.coherence.net_ns(timer_ns), replayed.txns),
            "ns",
        ),
        metric("net.msgs", msgs as f64, "count"),
        metric("net.bytes", bytes as f64, "bytes"),
        metric("net.send_ns", layers.net.per_call_ns(timer_ns), "ns"),
        metric("store.load_ms", mean(&loads), "ms"),
        metric(
            "store.write_ms",
            mean(
                &cold_log
                    .writes
                    .iter()
                    .map(|c| ms(c.took))
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        metric("store.hit_ratio", ratio(hits, hits + misses), "ratio"),
        metric("store.disk_mb", disk_mb, "MB"),
        metric("codec.encode_ms", mean(&encode), "ms"),
        metric("codec.decode_ms", mean(&decode), "ms"),
        metric("codec.envelope_kb", mean(&envelope_kb), "KB"),
        metric("experiments.point_key_us", point_key_us, "us"),
        metric("experiments.render_ms", ms(render), "ms"),
        metric(
            "fidelity.flc_misses",
            ratio(replayed.flc_misses, real.flc_misses),
            "ratio",
        ),
        metric(
            "fidelity.slc_misses",
            ratio(replayed.slc_misses, real.slc_misses),
            "ratio",
        ),
        metric(
            "fidelity.tlb_misses",
            ratio(replayed.tlb_misses, real.tlb_misses),
            "ratio",
        ),
        metric("fidelity.txns", ratio(replayed.txns, real.txns), "ratio"),
        metric("bench.trace_overhead", trace_overhead, "ratio"),
    ])
}

/// Prints the result key, every metric with its unit, the error rate and
/// the ledger comparison, then the JSON verdict as the last line.
fn report(args: &Args, b: &Bench, score: &Score, metrics: &[Metric]) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let key = format!(
        "nproc={nproc} fingerprint={} commit={} workload={} scale={} seed={} trace={}",
        code_fingerprint(),
        args.commit,
        b.name,
        b.scale,
        args.seed,
        u8::from(args.trace)
    );
    println!("key {key}");
    for m in metrics {
        println!("{:<26} {:>18} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<26} {:>18} ratio ({} of {} points failed a check)",
        "error_rate",
        score.error_rate(),
        score.failed,
        score.attempted
    );
    ledger::record(&args.work.join("ledger.tsv"), &key, metrics);
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        score.failed == 0,
        score.attempted,
        score.failed,
        body.join(", ")
    );
}
