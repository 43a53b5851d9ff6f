//! Golden-report regression suite.
//!
//! The rendered Table 2, Figure 8 and Figure 10 artifacts at smoke scale
//! are snapshotted as byte-exact fixtures under `tests/golden/`. Any
//! change to trace generation, cache/TLB behaviour, protocol timing or
//! rendering shows up here as a diff — Figure 10 in particular carries
//! absolute cycle counts, so even a one-cycle latency change fails the
//! suite. The `breakdown` and `trace` fixtures pin the fine ledger and
//! the span kinds beneath Figure 10's coarse categories, so a cycle
//! moved between two fine categories or two span kinds fails too.
//! Beside them sit the scale-up fixtures: one summary line per scheme
//! for a 64-node and a 256-node smoke run.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! VCOMA_BLESS=1 cargo test -p vcoma-integration --test golden_reports
//! ```

use std::fs;
use std::path::PathBuf;
use vcoma::workloads::UniformRandom;
use vcoma::{
    all_schemes, paper_schemes, simulate, MachineConfig, Scheme, SimConfig, SimReport, TraceConfig,
};
use vcoma_experiments::{breakdown, ccnuma, fig10, fig8, table2, trace, ExperimentConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
}

/// The suite runs the sweeps on two workers: the fixtures double as a
/// check that parallel evaluation leaves the rendered bytes untouched.
fn cfg() -> ExperimentConfig {
    ExperimentConfig::smoke().with_jobs(2)
}

fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("VCOMA_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        fs::write(&path, actual).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); create it with VCOMA_BLESS=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "golden mismatch for {name}; if the change is intentional, regenerate with\n\
         VCOMA_BLESS=1 cargo test -p vcoma-integration --test golden_reports\n\
         --- expected ---\n{expected}--- actual ---\n{actual}"
    );
}

#[test]
fn table2_matches_golden() {
    let rows = table2::run(&cfg());
    check("table2_smoke.txt", &table2::render(&rows).render());
}

#[test]
fn fig8_matches_golden() {
    let mut out = String::new();
    for panel in fig8::run(&cfg()) {
        out.push_str(&fig8::render(&panel).render());
        out.push('\n');
    }
    check("fig8_smoke.txt", &out);
}

#[test]
fn fig10_matches_golden() {
    let mut out = String::new();
    for panel in fig10::run(&cfg()) {
        out.push_str(&fig10::render(&panel).render());
        out.push('\n');
    }
    check("fig10_smoke.txt", &out);
}

/// Every scheme × benchmark row's nine fine latency categories and their
/// conserved total.
#[test]
fn breakdown_matches_golden() {
    check("breakdown_smoke.csv", &breakdown::render(&breakdown::run(&cfg())).to_csv());
}

/// Each scheme's sampled references: percentiles and the critical-path
/// cycles of every span kind.
#[test]
fn trace_matches_golden() {
    check("trace_smoke.csv", &trace::render(&trace::run(&cfg())).to_csv());
}

/// The §2 CC-NUMA argument: exec cycles, translation misses and remote
/// fraction for the four Figure-1 options on the private-working-set
/// workload.
#[test]
fn ccnuma_matches_golden() {
    check("ccnuma_smoke.txt", &ccnuma::render(&ccnuma::run(&cfg())).render());
}

/// One compact, fully deterministic line per scheme: enough to pin the
/// timing model and every counter without snapshotting 256 node reports.
fn summary_line(scheme: Scheme, r: &SimReport) -> String {
    format!(
        "{scheme} exec={} refs={} writes={} msgs={} bytes={} swaps={} breakdown={:?} fine={:?}\n",
        r.exec_time(),
        r.total_refs(),
        r.total_writes(),
        r.net_msgs(),
        r.net_bytes(),
        r.swap_outs(),
        r.aggregate_breakdown(),
        r.aggregate_fine(),
    )
}

/// Runs the scale-up smoke workload on `nodes` nodes for each scheme and
/// returns one summary line per scheme.
///
/// The roster is explicit so the paper-scheme fixtures record the paper's
/// six schemes while the post-1998 schemes pin their own fixture.
fn scale_up_summary(schemes: &[Scheme], nodes: u64, refs_per_node: u64) -> String {
    let machine = MachineConfig::builder().nodes(nodes).build().expect("scale-up machine");
    let w = UniformRandom { pages: 2 * nodes, refs_per_node, write_fraction: 0.3 };
    let mut out = String::new();
    for &scheme in schemes {
        // Tracing is armed so the fixtures also show it stays inert at scale.
        let tc = TraceConfig { sample_every: 17, capacity: 128 };
        let report = simulate(SimConfig::new(machine.clone(), scheme).with_trace(tc), &w)
            .unwrap_or_else(|e| panic!("{scheme} @ {nodes} nodes: {e}"));
        out.push_str(&summary_line(scheme, &report));
    }
    out
}

#[test]
fn node64_smoke_matches_golden() {
    check("scale_up_64node_smoke.txt", &scale_up_summary(&paper_schemes(), 64, 200));
}

#[test]
fn node256_smoke_matches_golden() {
    check("scale_up_256node_smoke.txt", &scale_up_summary(&paper_schemes(), 256, 60));
}

#[test]
fn post1998_schemes_node64_smoke_matches_golden() {
    let extras: Vec<Scheme> = all_schemes().into_iter().filter(|s| !s.is_paper()).collect();
    assert!(!extras.is_empty(), "the registry ships post-1998 schemes");
    check("scale_up_64node_post1998_smoke.txt", &scale_up_summary(&extras, 64, 200));
}
