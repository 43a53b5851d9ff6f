//! Custom workload: build your own trace with `TraceBuilder` and run it.
//!
//! Shows the lower-level API: regions carved from the virtual address
//! space, hand-written per-node access patterns, locks and barriers, and a
//! direct `Machine` run — useful when the six packaged benchmarks don't
//! match the pattern you want to study.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use vcoma::vm::AddressSpaceLayout;
use vcoma::workloads::TraceBuilder;
use vcoma::{Machine, MachineConfig, Scheme, SimConfig, SimError};

fn main() -> Result<(), SimError> {
    let machine = MachineConfig::paper_baseline();

    // A tiny "work stealing" pattern: a shared task counter guarded by a
    // lock, a shared input table read by everyone, and per-node result
    // buffers written privately.
    let mut layout = AddressSpaceLayout::new(0x2000_0000);
    let table = layout.region("table", 2 << 20, machine.page_size).expect("layout");
    let results = layout
        .per_node_regions("results", machine.nodes, 64 << 10, machine.page_size)
        .expect("layout");
    let counter = layout.region("counter", machine.page_size, machine.page_size).expect("layout");

    let mut b = TraceBuilder::new(machine.nodes, 1234);
    b.think = 2;
    for (n, result) in results.iter().enumerate() {
        for _task in 0..200 {
            // Claim a task.
            b.critical_section(n, 0, |b, n| {
                b.read(n, counter.addr(0));
                b.write(n, counter.addr(0));
            });
            // Read a random stripe of the shared table, write local result.
            let off = b.rng().gen_range(table.size / 64) * 64;
            for k in 0..4 {
                b.read(n, table.addr((off + k * 64) % table.size));
            }
            let r = b.rng().gen_range(result.size / 64) * 64;
            b.write(n, result.addr(r));
        }
    }
    b.barrier();
    let traces = b.into_traces();

    println!("custom work-stealing workload: {} total ops\n", traces.iter().map(Vec::len).sum::<usize>());
    for scheme in [Scheme::L0_TLB, Scheme::L3_TLB, Scheme::V_COMA] {
        let sim = SimConfig::new(machine.clone(), scheme).with_entries(8);
        let report = Machine::new(sim).run(traces.clone())?;
        println!(
            "{:<8} exec {:>10} cycles | translation misses {:>6} | sync {:>8.0} cyc/node",
            scheme.label(),
            report.exec_time(),
            report.translation_misses_total(0),
            report.mean_breakdown().sync,
        );
    }
    Ok(())
}
