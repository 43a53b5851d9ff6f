//! Quickstart: simulate one benchmark under the classic TLB design and
//! under V-COMA, and compare the translation overhead.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use vcoma::workloads::{Radix, Workload};
use vcoma::{simulate, MachineConfig, Scheme, SimConfig, SimError};

fn main() -> Result<(), SimError> {
    // The paper's RADIX benchmark, replaying 10 % of the keys so the
    // example finishes in a couple of seconds. The arrays keep their full
    // size, so the translation behaviour keeps its shape.
    let workload = Radix::paper().scaled(0.1);
    println!(
        "workload: {} ({}), nominal footprint {:.2} MB\n",
        workload.name(),
        workload.params(),
        workload.shared_mb()
    );

    for scheme in [Scheme::L0_TLB, Scheme::V_COMA] {
        // 32-node paper machine, 8-entry fully-associative TLB/DLB.
        let sim = SimConfig::new(MachineConfig::paper_baseline(), scheme).with_entries(8);
        let report = simulate(sim, &workload)?;
        let b = report.mean_breakdown();
        println!("{scheme}:");
        println!("  references           {:>12}", report.total_refs());
        println!(
            "  translation misses   {:>12}  ({:.3}% of references)",
            report.translation_misses_total(0),
            100.0 * report.translation_miss_rate(0)
        );
        println!("  execution time       {:>12} cycles", report.exec_time());
        println!(
            "  per-node breakdown   busy {:.0} | sync {:.0} | local {:.0} | remote {:.0} | xlat {:.0}\n",
            b.busy, b.sync, b.local_stall, b.remote_stall, b.translation
        );
    }

    println!(
        "V-COMA's DLB sits at the home node, is shared by all 32 processors, and\n\
         is consulted only by coherence transactions - so its miss count collapses\n\
         relative to a same-sized private TLB (the paper's sharing + prefetching\n\
         effects)."
    );
    Ok(())
}
