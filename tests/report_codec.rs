//! Canonical `SimReport` serialization: round-trip and format-pinning
//! suite for `vcoma::codec` (the sweep server's store format).
//!
//! The encoded envelope of a small deterministic run — including the
//! latency histograms, protocol and crossbar counts, per-node latency
//! breakdowns and an optional trace snapshot — is snapshotted byte-exactly
//! under `tests/golden/`. A change to any serialized shape fails here
//! loudly, which is the contract that makes on-disk result stores
//! trustworthy: stale stores must break visibly, not decode into subtly
//! different reports. `simreport_v3.json` stays as the previous version's
//! envelope, which must fail the version check.
//!
//! To regenerate after an intentional format change (bump
//! `codec::VERSION` too):
//!
//! ```text
//! VCOMA_BLESS=1 cargo test -p vcoma-integration --test report_codec
//! ```

use std::fs;
use std::path::PathBuf;
use vcoma::workloads::UniformRandom;
use vcoma::{codec, simulate, MachineConfig, Scheme, SimConfig, SimReport, TraceConfig};

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
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
        panic!("missing golden fixture {} ({e}); create it with VCOMA_BLESS=1", path.display())
    });
    assert!(
        expected == actual,
        "golden mismatch for {name}; if the format change is intentional, bump \
         codec::VERSION and regenerate with\n\
         VCOMA_BLESS=1 cargo test -p vcoma-integration --test report_codec"
    );
}

fn workload() -> UniformRandom {
    UniformRandom { pages: 32, refs_per_node: 200, write_fraction: 0.3 }
}

fn traced_report() -> SimReport {
    let sim = SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA)
        .with_seed(9)
        .with_trace(TraceConfig { sample_every: 4, capacity: 1 << 14 });
    simulate(sim, &workload()).unwrap()
}

#[test]
fn encoded_report_matches_golden_fixture() {
    let report = traced_report();
    let text = codec::encode(&report, "golden-fingerprint", "golden-key");
    check("simreport_v4.json", &text);
}

#[test]
fn stale_v3_envelope_fails_the_version_check() {
    let v3 = fs::read_to_string(golden_dir().join("simreport_v3.json")).expect("v3 fixture");
    let cfg = traced_report().config().clone();
    assert!(matches!(codec::decode(&v3, cfg), Err(codec::CodecError::Version(3))));
}

#[test]
fn paper_machine_envelope_is_one_compact_line() {
    // A stored point of the paper's 32-node machine: one line of compact
    // JSON without the event ring, small enough that a store hit is cheap.
    let w = UniformRandom { pages: 64, refs_per_node: 200, write_fraction: 0.3 };
    let sim = SimConfig::new(MachineConfig::paper_baseline(), Scheme::V_COMA).with_seed(9);
    let report = simulate(sim, &w).unwrap();
    assert_eq!(report.nodes().len(), 32);
    let text = codec::encode(&report, "fp", "key");
    assert!(!text.contains('\n'), "the envelope is one line");
    assert!(!text.contains("\"events\""), "the event ring is not stored");
    assert!(text.len() < 32 * 1024, "envelope is {} bytes", text.len());
}

#[test]
fn traced_report_round_trips_exactly() {
    let report = traced_report();
    assert!(report.trace().is_some(), "run was traced");
    let text = codec::encode(&report, "fp", "key");
    let decoded = codec::decode(&text, report.config().clone()).expect("decodes");
    assert_eq!(decoded.fingerprint, "fp");
    assert_eq!(decoded.key, "key");
    // The decoded report is indistinguishable from the original, down to
    // latency histograms, breakdowns and trace spans.
    assert_eq!(format!("{:?}", decoded.report), format!("{report:?}"));
    // And a second encode of the decoded report is byte-identical.
    assert_eq!(codec::encode(&decoded.report, "fp", "key"), text);
}

#[test]
fn untraced_report_round_trips_with_null_trace() {
    let sim = SimConfig::new(MachineConfig::tiny(), Scheme::L0_TLB).with_seed(3);
    let report = simulate(sim, &workload()).unwrap();
    assert!(report.trace().is_none());
    let text = codec::encode(&report, "fp", "key");
    assert!(text.contains("\"trace\":null"));
    let decoded = codec::decode(&text, report.config().clone()).expect("decodes");
    assert!(decoded.report.trace().is_none());
    assert_eq!(format!("{:?}", decoded.report), format!("{report:?}"));
}

#[test]
fn aggregates_survive_the_round_trip() {
    let report = traced_report();
    let text = codec::encode(&report, "fp", "key");
    let decoded = codec::decode(&text, report.config().clone()).expect("decodes").report;
    assert_eq!(decoded.exec_time(), report.exec_time());
    assert_eq!(decoded.simulated_cycles(), report.simulated_cycles());
    assert_eq!(decoded.total_refs(), report.total_refs());
    assert_eq!(decoded.aggregate_fine().total(), report.aggregate_fine().total());
    assert_eq!(decoded.translation_misses_total(0), report.translation_misses_total(0));
    assert_eq!(decoded.net_msgs(), report.net_msgs());
    assert_eq!(decoded.metrics(), report.metrics());
    assert_eq!(decoded.trace(), report.trace());
}
