//! CC-NUMA motivation (paper §2, Figure 1): why the in-memory SHARED-TLB
//! that inspired V-COMA does *not* work in a conventional CC-NUMA.
//!
//! In CC-NUMA, placing translation at the home node means the home is
//! selected by the virtual address, so the OS loses page placement and
//! migration: a node's private working set gets scattered across the
//! machine and "capacity misses are remote most of the time" — whereas in
//! a COMA the attraction memory migrates the data to its user, which is
//! exactly the property V-COMA exploits.
//!
//! ```text
//! cargo run --release --example ccnuma_motivation
//! ```

use vcoma::sim::ccnuma::{private_streams, NumaMachine, NumaScheme};
use vcoma::{MachineConfig, Scheme, SimConfig};

fn main() {
    let machine = MachineConfig::paper_baseline();
    let nodes = machine.nodes;
    let cfg = SimConfig::new(machine, Scheme::L0_TLB).with_entries(32);

    println!(
        "{:<12} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "scheme", "exec cycles", "xl-misses", "local-mem", "remote-mem", "remote %"
    );
    for scheme in NumaScheme::ALL {
        // Every node streams three times over its own 256 KB working set
        // (four times the SLC, so capacity misses are plentiful): the
        // pattern first-touch placement is built for.
        let report = NumaMachine::new(cfg.clone(), scheme)
            .run_sources(private_streams(nodes, 256 << 10, 3))
            .expect("the working sets fit the frame pool");
        println!(
            "{:<12} {:>12} {:>10} {:>10} {:>10} {:>9.1}",
            scheme.label(),
            report.exec_time(),
            report.translation_misses(),
            report.local_mem_accesses,
            report.remote_mem_accesses,
            100.0 * report.remote_fraction()
        );
    }
    println!(
        "\nWith first-touch placement (L0/L1/L2) the private capacity misses stay\n\
         local; under SHARED-TLB the homes are virtual-address-hashed, so ~31/32\n\
         of them cross the network — the paper's reason to seek a COMA instead,\n\
         where migration makes the same idea (home-side translation) win."
    );
}
