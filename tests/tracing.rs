//! Tracing-inertness integration suite.
//!
//! Causal tracing is an observer: enabling it must not move a single
//! cycle, reference count or message anywhere in the simulation. These
//! tests run every scheme with tracing on and off and require the
//! reports, the rendered sweep tables and their CSV serializations to be
//! byte-identical, and the golden fixtures to stay valid in a process
//! that has already run traced sweeps.

use std::path::PathBuf;
use vcoma_experiments::render::TextTable;
use vcoma_experiments::sweep::{self, SweepPoint};
use vcoma_experiments::{table2, trace, ExperimentConfig};
use vcoma::{all_schemes, paper_schemes, simulate, Scheme, SimReport, TraceConfig};

fn cfg() -> ExperimentConfig {
    ExperimentConfig::smoke().with_jobs(2)
}

/// Runs `scheme` over the first smoke benchmark, traced or untraced.
fn run_one(cfg: &ExperimentConfig, scheme: Scheme, traced: bool) -> SimReport {
    let benchmarks = cfg.benchmarks();
    let w = &benchmarks[0];
    let sim = cfg.simulator(scheme);
    let tc = TraceConfig { sample_every: trace::SAMPLE_EVERY, capacity: trace::CAPACITY };
    let sim = if traced { sim.with_trace(tc) } else { sim };
    simulate(sim, w.as_ref()).unwrap()
}

/// A small artifact-style sweep table over all schemes, built from either
/// traced or untraced runs. Everything an artifact table could print is
/// derived from these report fields, so byte-equality here means every
/// golden fixture and sweep CSV is independent of the tracing toggle.
fn sweep_table(cfg: &ExperimentConfig, traced: bool) -> TextTable {
    let points: Vec<SweepPoint<Scheme>> = all_schemes()
        .into_iter()
        .map(|scheme| SweepPoint::new(scheme.to_string(), scheme))
        .collect();
    let rows = sweep::run(cfg, "tracing-inertness", points, |&scheme| {
        let r = run_one(cfg, scheme, traced);
        vec![
            scheme.to_string(),
            r.exec_time().to_string(),
            r.total_refs().to_string(),
            r.net_msgs().to_string(),
            r.net_bytes().to_string(),
            r.swap_outs().to_string(),
            format!("{:?}", r.aggregate_breakdown()),
            format!("{:?}", r.aggregate_fine()),
        ]
    });
    let mut t = TextTable::new(vec![
        "scheme",
        "exec cycles",
        "refs",
        "net msgs",
        "net bytes",
        "swap outs",
        "breakdown",
        "fine",
    ]);
    for row in rows {
        t.row(row);
    }
    t
}

#[test]
fn tracing_is_inert_for_every_scheme() {
    let cfg = cfg();
    for scheme in all_schemes() {
        let plain = run_one(&cfg, scheme, false);
        let traced = run_one(&cfg, scheme, true);
        assert!(plain.trace().is_none(), "{scheme}: untraced run must not carry spans");
        let snap = traced.trace().unwrap_or_else(|| panic!("{scheme}: traced run carries spans"));
        assert!(snap.sampled_txns > 0, "{scheme}: sampler admitted nothing");
        assert_eq!(plain.exec_time(), traced.exec_time(), "{scheme}: exec time moved");
        assert_eq!(plain.total_refs(), traced.total_refs(), "{scheme}: refs moved");
        assert_eq!(plain.total_writes(), traced.total_writes(), "{scheme}: writes moved");
        assert_eq!(plain.net_msgs(), traced.net_msgs(), "{scheme}: messages moved");
        assert_eq!(plain.net_bytes(), traced.net_bytes(), "{scheme}: bytes moved");
        assert_eq!(plain.swap_outs(), traced.swap_outs(), "{scheme}: swap-outs moved");
        assert_eq!(
            format!("{:?}", plain.aggregate_breakdown()),
            format!("{:?}", traced.aggregate_breakdown()),
            "{scheme}: time breakdown moved"
        );
        assert_eq!(
            format!("{:?}", plain.aggregate_fine()),
            format!("{:?}", traced.aggregate_fine()),
            "{scheme}: fine latency breakdown moved"
        );
        assert_eq!(
            format!("{:?}", plain.protocol()),
            format!("{:?}", traced.protocol()),
            "{scheme}: protocol counters moved"
        );
        assert_eq!(
            format!("{:?}", plain.nodes()),
            format!("{:?}", traced.nodes()),
            "{scheme}: per-node stats moved"
        );
    }
}

#[test]
fn traced_and_untraced_sweep_csvs_are_byte_identical() {
    let cfg = cfg();
    let plain = sweep_table(&cfg, false);
    let traced = sweep_table(&cfg, true);
    assert_eq!(plain.render(), traced.render(), "rendered sweep tables diverged");
    assert_eq!(plain.to_csv(), traced.to_csv(), "sweep CSVs diverged");
}

#[test]
fn goldens_stay_byte_identical_with_tracing_in_process() {
    // A full traced sweep first: if the tracer leaked into any shared
    // state, the golden fixture comparison below would diverge.
    let cfg = cfg();
    let rows = trace::run(&cfg);
    assert_eq!(rows.len(), paper_schemes().len());
    let rendered = table2::render(&table2::run(&cfg)).render();
    let path =
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/table2_smoke.txt"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {} ({e})", path.display()));
    assert_eq!(rendered, golden, "table2 golden moved after traced runs in the same process");
}
