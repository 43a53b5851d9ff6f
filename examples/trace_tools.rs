//! Trace tooling: generate a benchmark trace, analyse it, archive it, and
//! replay the archived copy.
//!
//! ```text
//! cargo run --release --example trace_tools -- [BENCHMARK] [SCALE]
//! ```

use vcoma::workloads::{by_name, load_traces, save_traces, TraceAnalysis};
use vcoma::{Machine, MachineConfig, Scheme, SimConfig, SimError};

fn main() -> Result<(), SimError> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "BARNES".to_string());
    let scale: f64 = args.next().map(|s| s.parse().expect("SCALE")).unwrap_or(0.02);
    let machine = MachineConfig::paper_baseline();
    let workload = by_name(&name, scale).unwrap_or_else(|| panic!("unknown benchmark {name}"));

    // Generate and analyse.
    let traces = workload.generate(&machine);
    let analysis = TraceAnalysis::of(&traces, &machine);
    println!("{} at scale {scale}:", workload.name());
    println!("  refs           {:>12} ({:.1}% writes)", analysis.refs(), 100.0 * analysis.write_fraction());
    println!("  footprint      {:>9.2} MB ({} pages)", analysis.footprint_mb(machine.page_size), analysis.pages);
    println!(
        "  sharing        {:>12.2} mean nodes/page, {} write-shared pages",
        analysis.mean_sharing_degree(),
        analysis.write_shared_pages
    );
    println!("  sync           {:>12} barriers, {} lock acquires", analysis.barriers, analysis.lock_acquires);

    // Archive to the text format and reload.
    let text = save_traces(&traces);
    println!("  archive        {:>9.2} MB of trace text", text.len() as f64 / (1 << 20) as f64);
    let reloaded = load_traces(&text).expect("own archive parses");
    assert_eq!(reloaded, traces, "round trip must be lossless");

    // Replay the reloaded copy.
    let report = Machine::new(SimConfig::new(machine, Scheme::V_COMA)).run(reloaded)?;
    println!(
        "  replay         {:>12} cycles under V-COMA, {} DLB misses",
        report.exec_time(),
        report.translation_misses_total(0)
    );
    Ok(())
}
