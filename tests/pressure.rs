//! Figure-11 claims: V-COMA's global-page-set pressure is low and
//! near-uniform for the paper's workloads, and the machinery detects
//! deliberately skewed layouts.

use vcoma::vm::AddressSpaceLayout;
use vcoma::workloads::TraceBuilder;
use vcoma::{Machine, MachineConfig, Scheme, SimConfig};
use vcoma_experiments::{fig11, ExperimentConfig};

#[test]
fn paper_workloads_have_near_uniform_pressure() {
    let rows = fig11::run(&ExperimentConfig::smoke().with_scale(0.02));
    for r in &rows {
        assert!(r.mean > 0.0, "{}", r.benchmark);
        assert!(
            r.max < 1.0,
            "{}: some global page set is saturated (max {})",
            r.benchmark,
            r.max
        );
        assert!(
            r.cv < 2.0,
            "{}: pressure profile too skewed (cv {:.3})",
            r.benchmark,
            r.cv
        );
    }
}

#[test]
fn skewed_virtual_layout_is_visible_in_the_profile() {
    // A pathological layout that puts every page in the same global page
    // set (stride = colors × page size) must show up as a highly
    // non-uniform profile — the §6 danger case.
    let machine = MachineConfig::paper_baseline();
    let stride = machine.global_page_sets() * machine.page_size;
    let mut b = TraceBuilder::new(machine.nodes, 99);
    let mut layout = AddressSpaceLayout::new(0x4000_0000);
    let region = layout.region("skewed", 64 * stride, machine.page_size).unwrap();
    for n in 0..machine.nodes as usize {
        for i in 0..64u64 {
            b.read(n, region.addr(i * stride));
        }
    }
    let sim = SimConfig::new(MachineConfig::paper_baseline(), Scheme::V_COMA);
    let report = Machine::new(sim).run(b.into_traces()).unwrap();
    let p = report.pressure();
    assert!(
        p.coefficient_of_variation() > 5.0,
        "a single-color layout must give an extreme profile (cv {:.2})",
        p.coefficient_of_variation()
    );
    assert!(p.pressure(0) > 0.0 || p.max() > 0.0);
}

#[test]
fn pressure_counts_match_touched_pages() {
    let machine = MachineConfig::paper_baseline();
    let mut b = TraceBuilder::new(machine.nodes, 1);
    let mut layout = AddressSpaceLayout::new(0x4000_0000);
    // 256 pages: exactly one per global page set.
    let region = layout
        .region("uniform", machine.global_page_sets() * machine.page_size, machine.page_size)
        .unwrap();
    for i in 0..machine.global_page_sets() {
        b.read(0, region.addr(i * machine.page_size));
    }
    let sim = SimConfig::new(MachineConfig::paper_baseline(), Scheme::V_COMA);
    let report = Machine::new(sim).run(b.into_traces()).unwrap();
    let p = report.pressure();
    let expected = 1.0 / machine.page_slots_per_global_set() as f64;
    for set in 0..machine.global_page_sets() {
        assert!(
            (p.pressure(set) - expected).abs() < 1e-12,
            "set {set}: pressure {} != {expected}",
            p.pressure(set)
        );
    }
    assert_eq!(p.coefficient_of_variation(), 0.0);
}
