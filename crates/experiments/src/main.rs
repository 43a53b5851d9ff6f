//! CLI entry point: regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p vcoma-experiments -- all --scale 0.1 --out results/
//! cargo run --release -p vcoma-experiments -- fig8 table2
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;
use vcoma_experiments::progress::StderrProgress;
use vcoma_experiments::{artifacts, breakdown, cache, client, faults, sweep, trace, ExperimentConfig};

/// Every artifact name the CLI accepts, in default execution order
/// (`breakdown`, `faults` and `trace` opt in through their flags or by
/// name rather than running under `all`).
const VALID_ARTIFACTS: [&str; 14] = [
    "table1", "fig8", "table2", "table3", "fig9", "table4", "fig10", "fig11", "table5",
    "ablations", "ccnuma", "breakdown", "faults", "trace",
];

const USAGE: &str = "\
usage: vcoma-experiments [ARTIFACT...] [--scale F] [--nodes N] [--jobs N]
                         [--schemes LIST] [--out DIR]
                         [--breakdown] [--metrics-out FILE]
                         [--fault-plan SPEC] [--fault-seed S] [--trace-out FILE]
                         [--progress]

artifacts: table1 fig8 table2 table3 fig9 table4 fig10 fig11 table5 ablations
           ccnuma breakdown faults trace all
           (default: all, which runs everything except breakdown, faults and trace)

client mode (talks to a running vcoma-sweepd; see submit --help):
  vcoma-experiments submit [ARTIFACT...] --server ENDPOINT [--out DIR]
  vcoma-experiments status JOB --server ENDPOINT
  vcoma-experiments fetch  JOB --server ENDPOINT --out DIR
  vcoma-experiments stats --server ENDPOINT

options:
  --scale F          fraction of each benchmark's iterations to replay (default 0.1)
  --nodes N          node count (default 32, the paper's machine)
  --jobs N           sweep worker threads (default: one per available core);
                     tables and CSVs are byte-identical for any value
  --schemes LIST     comma-separated scheme keys to run, e.g.
                     l0_tlb,vcoma,victima (default: each artifact's full
                     roster). Applies to fig8, table5, breakdown, faults and
                     trace; artifacts with fixed paper subsets (table2,
                     table3, fig9) ignore it
  --out DIR          also write each artifact as CSV into DIR
  --breakdown        print the fine latency-attribution table (scheme x benchmark;
                     per-row totals equal the run's simulated cycles exactly)
  --metrics-out FILE write the merged metrics snapshot (counters, histograms,
                     traced events) of the breakdown runs as JSON to FILE
  --fault-plan SPEC  base fault plan for the faults artifact, e.g.
                     drop=0.01,dup=0.005,delay=32,nack=0.02 (that is the
                     default when faults runs without this flag)
  --fault-seed S     fault-decision seed (default 0xFA17); equal seeds give
                     bit-identical fault runs at any --jobs value
  --trace-out FILE   write the trace artifact's sampled span trees as Chrome
                     trace-event JSON to FILE (load in ui.perfetto.dev or
                     chrome://tracing); implies the trace artifact
  --progress         paint a live progress line per sweep on stderr (artifact,
                     completed points, cycles/s, peak RSS); stdout stays
                     byte-identical with or without it

exit status: 0 on success, 2 on a usage error, 3 when a run fails (a
coherence-invariant violation under --fault-plan, or VM exhaustion).

Sweep throughput is printed per artifact and summarised in
BENCH_sweep.json (written to the current directory, never to --out).
";

/// Parses a numeric flag value, exiting with a one-line usage error (status
/// 2) on garbage instead of a panic backtrace.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let raw = value.unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    });
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} got '{raw}', expected a number");
        std::process::exit(2);
    })
}

/// Parses a flag's required value, exiting with a one-line usage error
/// (status 2) when it is missing.
fn flag_value(flag: &str, value: Option<String>) -> String {
    value.unwrap_or_else(|| {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    })
}

/// Writes a user-requested output file (`--out` CSVs, `--metrics-out`,
/// `--trace-out`, `BENCH_sweep.json`), creating missing parent
/// directories first. On failure prints a one-line error and exits with
/// status 2 — an unwritable path is a usage error, not a panic.
fn write_output_file(path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("error: cannot create directory {}: {e}", parent.display());
                std::process::exit(2);
            }
        }
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
}

fn main() {
    let mut artifacts: Vec<String> = Vec::new();
    let mut scale = 0.1f64;
    let mut nodes = 32u64;
    let mut jobs = 0usize;
    let mut out: Option<PathBuf> = None;
    let mut want_breakdown = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut fault_plan: Option<vcoma::faults::FaultPlan> = None;
    let mut fault_seed: Option<u64> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut schemes: Option<vcoma::SchemeSet> = None;
    let mut progress = false;

    let mut args = std::env::args().skip(1).peekable();
    // Client subcommands talk to a running vcoma-sweepd instead of
    // simulating locally; everything after the subcommand is theirs.
    if let Some(cmd) = args.peek() {
        if matches!(cmd.as_str(), "submit" | "status" | "fetch" | "stats") {
            let cmd = args.next().expect("peeked");
            client::cli_main(&cmd, args);
        }
    }
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = parse_flag("--scale", args.next());
                if !(scale > 0.0 && scale.is_finite()) {
                    eprintln!("error: --scale must be a positive fraction, got {scale}");
                    std::process::exit(2);
                }
            }
            "--nodes" => {
                nodes = parse_flag("--nodes", args.next());
                if nodes == 0 {
                    eprintln!("error: --nodes must be at least 1");
                    std::process::exit(2);
                }
            }
            "--jobs" => {
                jobs = parse_flag("--jobs", args.next());
                if jobs == 0 {
                    eprintln!("error: --jobs must be at least 1 (omit the flag for one per core)");
                    std::process::exit(2);
                }
            }
            "--schemes" => {
                let spec = args.next().unwrap_or_else(|| {
                    eprintln!("error: --schemes needs a value");
                    std::process::exit(2);
                });
                match vcoma::SchemeSet::parse(&spec) {
                    Ok(set) => schemes = Some(set),
                    Err(e) => {
                        eprintln!("error: --schemes {spec}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--fault-seed" => {
                let raw: String = args.next().unwrap_or_else(|| {
                    eprintln!("error: --fault-seed needs a value");
                    std::process::exit(2);
                });
                let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                };
                fault_seed = Some(parsed.unwrap_or_else(|_| {
                    eprintln!("error: --fault-seed got '{raw}', expected a decimal or 0x-hex number");
                    std::process::exit(2);
                }));
            }
            "--fault-plan" => {
                let spec = args.next().unwrap_or_else(|| {
                    eprintln!("error: --fault-plan needs a value");
                    std::process::exit(2);
                });
                match vcoma::faults::FaultPlan::parse(&spec) {
                    Ok(p) => fault_plan = Some(p),
                    Err(e) => {
                        eprintln!("error: --fault-plan {spec}: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => out = Some(PathBuf::from(flag_value("--out", args.next()))),
            "--breakdown" => want_breakdown = true,
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(flag_value("--metrics-out", args.next())));
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(flag_value("--trace-out", args.next())));
            }
            "--progress" => progress = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown option '{other}' (run with --help for usage)");
                std::process::exit(2);
            }
            other => artifacts.push(other.to_string()),
        }
    }
    // Validate every artifact name before any work runs, so a typo fails
    // fast instead of surfacing minutes into a sweep.
    let unknown: Vec<&String> =
        artifacts.iter().filter(|a| *a != "all" && !VALID_ARTIFACTS.contains(&a.as_str())).collect();
    if !unknown.is_empty() {
        for a in &unknown {
            eprintln!("error: unknown artifact '{a}'");
        }
        eprintln!("valid artifacts: {} all", VALID_ARTIFACTS.join(" "));
        std::process::exit(2);
    }
    if want_breakdown || metrics_out.is_some() {
        if !artifacts.iter().any(|a| a == "breakdown") {
            artifacts.push("breakdown".to_string());
        }
    } else if artifacts.iter().any(|a| a == "breakdown") {
        want_breakdown = true;
    }
    if (fault_plan.is_some() || fault_seed.is_some())
        && !artifacts.iter().any(|a| a == "faults")
    {
        artifacts.push("faults".to_string());
    }
    if trace_out.is_some() && !artifacts.iter().any(|a| a == "trace") {
        artifacts.push("trace".to_string());
    }
    if artifacts.is_empty() || artifacts.iter().any(|a| a == "all") {
        let keep_breakdown = artifacts.iter().any(|a| a == "breakdown");
        let keep_faults = artifacts.iter().any(|a| a == "faults");
        let keep_trace = artifacts.iter().any(|a| a == "trace");
        artifacts = ["table1", "fig8", "table2", "table3", "fig9", "table4", "fig10", "fig11", "table5", "ablations", "ccnuma"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        if keep_breakdown {
            artifacts.push("breakdown".to_string());
        }
        if keep_faults {
            artifacts.push("faults".to_string());
        }
        if keep_trace {
            artifacts.push("trace".to_string());
        }
    }

    let machine = vcoma::MachineConfig::builder().nodes(nodes).build().expect("valid machine");
    let mut cfg =
        ExperimentConfig { machine, ..ExperimentConfig::new() }.with_scale(scale).with_jobs(jobs);
    if progress {
        cfg = cfg.with_progress(Arc::new(StderrProgress::default()));
    }
    if let Some(set) = schemes {
        cfg = cfg.with_schemes(set);
    }
    println!(
        "machine: {} nodes, scale {scale}, {} sweep workers (paper geometry, paper timing)\n",
        cfg.machine.nodes,
        cfg.effective_jobs(),
    );
    // Fail unwritable destinations before any sweep runs, not after.
    if let Some(dir) = &out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create directory {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    for file in [&metrics_out, &trace_out].into_iter().flatten() {
        if let Some(parent) = file.parent() {
            if !parent.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(parent) {
                    eprintln!("error: cannot create directory {}: {e}", parent.display());
                    std::process::exit(2);
                }
            }
        }
    }
    let save = |name: &str, csv: String| {
        if let Some(dir) = &out {
            let path = dir.join(format!("{name}.csv"));
            write_output_file(&path, &csv);
            println!("  -> wrote {}", path.display());
        }
    };

    for a in &artifacts {
        let t0 = std::time::Instant::now();
        match a.as_str() {
            name if artifacts::STANDARD.contains(&name) => {
                let output = artifacts::run_standard(name, &cfg)
                    .expect("STANDARD names dispatch");
                println!("{}", output.heading);
                for (stem, t) in &output.tables {
                    println!("{}", t.render());
                    save(stem, t.to_csv());
                }
            }
            "breakdown" => {
                println!("== Fine latency attribution: scheme x benchmark ==");
                let rows = breakdown::run(&cfg);
                if want_breakdown {
                    let t = breakdown::render(&rows);
                    println!("{}", t.render());
                    save("breakdown", t.to_csv());
                }
                if let Some(path) = &metrics_out {
                    let merged = breakdown::merged_metrics(&rows);
                    if merged.dropped_events > 0 {
                        eprintln!(
                            "warning: event ring overflowed; {} oldest events were dropped \
                             (counters and histograms stay exact, the event list is partial)",
                            merged.dropped_events
                        );
                    }
                    let json = vcoma::metrics::json::to_json_pretty(&merged)
                        .expect("metrics snapshot serializes");
                    write_output_file(path, &json);
                    println!("  -> wrote {}", path.display());
                }
            }
            "trace" => {
                println!("== Transaction tracing: critical-path latency attribution ==");
                println!(
                    "sampling 1 in {} references per node, <= {} spans per node buffer",
                    trace::SAMPLE_EVERY,
                    trace::CAPACITY
                );
                let rows = trace::run(&cfg);
                let t = trace::render(&rows);
                println!("{}", t.render());
                save("trace", t.to_csv());
                if let Some(path) = &trace_out {
                    write_output_file(path, &trace::export(&rows));
                    println!("  -> wrote {} (load in ui.perfetto.dev)", path.display());
                }
            }
            "faults" => {
                println!("== Fault injection: robustness sweep (auditor on) ==");
                let mut base = fault_plan.clone().unwrap_or_else(faults::default_plan);
                if let Some(seed) = fault_seed {
                    base = base.with_seed(seed);
                }
                println!("base plan: {base} (seed {:#x})", base.seed);
                match faults::run(&cfg, &base) {
                    Ok(rows) => {
                        let t = faults::render(&base, &rows);
                        println!("{}", t.render());
                        save("faults", t.to_csv());
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(3);
                    }
                }
            }
            other => unreachable!("artifact '{other}' passed validation but has no runner"),
        }
        println!("[{a} took {:.1}s]\n", t0.elapsed().as_secs_f64());
    }

    // Sweep throughput summary. BENCH_sweep.json goes to the working
    // directory, not --out: the --out CSVs stay byte-identical across
    // worker counts, while wall-clock figures never are.
    let stats = sweep::take_stats();
    if !stats.is_empty() {
        let json = sweep::bench_json(
            &stats,
            sweep::BenchContext {
                jobs: cfg.effective_jobs(),
                nodes: cfg.machine.nodes,
                code_fingerprint: cache::code_fingerprint(),
            },
        );
        write_output_file(Path::new("BENCH_sweep.json"), &json);
        let total_wall: f64 = stats.iter().map(|s| s.wall_seconds).sum();
        let total_cycles: u64 = stats.iter().map(|s| s.simulated_cycles).sum();
        println!(
            "sweeps: {} points in {:.1}s wall ({:.3e} simulated cycles/s) -> BENCH_sweep.json",
            stats.iter().map(|s| s.points).sum::<usize>(),
            total_wall,
            if total_wall > 0.0 { total_cycles as f64 / total_wall } else { 0.0 }
        );
    }
}
