//! Pressure map: the global-page-set memory-pressure profile of Figure 11.
//!
//! V-COMA has no control over which global set a page lands in — the
//! virtual address decides. The paper's §6 concern is that virtual-layout
//! conflicts could saturate some sets; Figure 11 shows the profiles are in
//! fact near-uniform. This example prints an ASCII profile per benchmark.
//!
//! ```text
//! cargo run --release --example pressure_map
//! ```

use vcoma::workloads::all_benchmarks;
use vcoma::{simulate, MachineConfig, Scheme, SimConfig, SimError};

fn main() -> Result<(), SimError> {
    println!("global-page-set pressure profiles under V-COMA (paper Fig. 11)\n");
    for workload in all_benchmarks(0.02) {
        let sim = SimConfig::new(MachineConfig::paper_baseline(), Scheme::V_COMA);
        let report = simulate(sim, workload.as_ref())?;
        let p = report.pressure();
        // Bucket the 256 global page sets into 32 columns for display.
        let cols = 32;
        let per = p.sets() / cols;
        let buckets: Vec<f64> = (0..cols)
            .map(|c| {
                (0..per).map(|i| p.pressure((c * per + i) as u64)).sum::<f64>() / per as f64
            })
            .collect();
        let peak = p.max().max(1e-9);
        let bar: String = buckets
            .iter()
            .map(|&b| {
                let i = ((b / peak) * 7.0).round() as usize;
                [' ', '.', ':', '-', '=', '+', '*', '#'][i.min(7)]
            })
            .collect();
        println!(
            "{:<9} |{bar}|  mean {:.3}  max {:.3}  cv {:.3}",
            workload.name(),
            p.mean(),
            p.max(),
            p.coefficient_of_variation()
        );
    }
    println!(
        "\ncv is the coefficient of variation across the 256 global page sets;\n\
         small values confirm the paper's 'very uniform pressure on every\n\
         global set' claim — program locality in the virtual space spreads\n\
         pages evenly over the colors without any OS intervention."
    );
    Ok(())
}
