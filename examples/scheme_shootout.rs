//! Scheme shootout: all six translation-scheme variants on one benchmark.
//!
//! Prints a per-scheme table of translation misses, miss rate, execution
//! time and time breakdown — a one-benchmark miniature of the paper's
//! Figure 8 / Table 2 / Figure 10 story.
//!
//! ```text
//! cargo run --release --example scheme_shootout [-- BENCHMARK [SCALE]]
//! ```
//! `BENCHMARK` is one of RADIX, FFT, FMM, OCEAN, RAYTRACE, BARNES
//! (default OCEAN); `SCALE` replays that fraction of the workload
//! (default 0.1).

use vcoma::workloads::{by_name, Workload};
use vcoma::{all_schemes, simulate, MachineConfig, SimConfig, SimError};

fn main() -> Result<(), SimError> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "OCEAN".to_string());
    let scale: f64 = args.next().map(|s| s.parse().expect("SCALE must be a number")).unwrap_or(0.1);
    let workload: Box<dyn Workload> =
        by_name(&name, scale).unwrap_or_else(|| panic!("unknown benchmark {name}"));

    println!(
        "{} ({}) at scale {scale}, 32 nodes, 8-entry fully-associative TLB/DLB\n",
        workload.name(),
        workload.params()
    );
    println!(
        "{:<16} {:>9} {:>10} {:>9} {:>9} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "xl-acc", "xl-misses", "rate %", "remote", "exec cycles", "busy", "sync",
        "local", "remote", "xlat"
    );

    for scheme in all_schemes() {
        let sim = SimConfig::new(MachineConfig::paper_baseline(), scheme).with_entries(8);
        let report = simulate(sim, workload.as_ref())?;
        let b = report.mean_breakdown();
        println!(
            "{:<16} {:>9} {:>10} {:>9.3} {:>9} {:>12} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
            scheme.label(),
            report.translation_accesses_total(0),
            report.translation_misses_total(0),
            100.0 * report.translation_miss_rate(0),
            report.protocol().remote_transactions(),
            report.exec_time(),
            b.busy,
            b.sync,
            b.local_stall,
            b.remote_stall,
            b.translation
        );
    }

    println!(
        "\nExpected shape (paper Fig. 8): misses fall monotonically from L0-TLB to\n\
         V-COMA, except that L2-TLB's writeback translations can push it above\n\
         L2-TLB/no_wback (and sometimes above L1) on streaming workloads."
    );
    Ok(())
}
