//! Canonical, versioned serialization of [`SimReport`] — the store
//! format of the sweep server's content-addressed result cache.
//!
//! A report is written as a JSON **envelope**: a `format` tag, a schema
//! `version`, the code `fingerprint` and cache `key` it was produced
//! under, and the report `body`. The body deliberately excludes the run's
//! [`SimConfig`]: a config embeds live scheme handles and fault plans
//! that have no canonical wire form, and every legitimate reader already
//! holds the config — it computed the cache key from it. [`decode`]
//! therefore takes the config back as an argument and reassembles the
//! report as a struct literal over every field, so a decoded report is
//! indistinguishable from a freshly simulated one.
//!
//! An envelope is one line of compact JSON (`to_json_line` in
//! `vcoma-metrics`: no whitespace, no trailing newline), since a store
//! hit's cost is mostly reading and decoding it. The body carries the
//! report's metrics snapshot, which holds the latency histograms but never
//! the machine's event ring.
//!
//! The encoding is byte-deterministic (all maps are `BTreeMap`s and the
//! writer is deterministic), which is what lets the integration suite
//! pin the format with a golden fixture and the CI byte-diff
//! daemon-served artifacts against direct runs.

use crate::{NodeReport, SimConfig, SimReport};
use serde::{Deserialize, Serialize};
use vcoma_coherence::ProtocolStats;
use vcoma_metrics::json::{from_json_str, to_json_line, JsonParseError};
use vcoma_metrics::{MetricsSnapshot, TraceSnapshot};
use vcoma_net::NetStats;
use vcoma_vm::PressureProfile;

/// The envelope's format tag.
pub const FORMAT: &str = "vcoma-simreport";

/// Current schema version. Bump on any change to the serialized shape of
/// the envelope or any type reachable from the body; stores treat a
/// version mismatch as a cache miss.
pub const VERSION: u64 = 4;

#[derive(Serialize, Deserialize)]
struct Envelope {
    format: String,
    version: u64,
    fingerprint: String,
    key: String,
    body: Body,
}

#[derive(Serialize, Deserialize)]
struct Body {
    nodes: Vec<NodeReport>,
    protocol: ProtocolStats,
    net: NetStats,
    pressure: PressureProfile,
    swap_outs: u64,
    metrics: MetricsSnapshot,
    trace: Option<TraceSnapshot>,
}

/// A successfully decoded envelope: the reassembled report plus the
/// provenance the envelope recorded at encode time.
#[derive(Debug, Clone)]
pub struct Decoded {
    /// The reassembled report.
    pub report: SimReport,
    /// Code fingerprint the report was produced under.
    pub fingerprint: String,
    /// Cache key the report was stored under.
    pub key: String,
}

/// Why an envelope failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input is not valid JSON or not a valid envelope shape.
    Json(JsonParseError),
    /// The envelope's format tag is not [`FORMAT`].
    Format(String),
    /// The envelope's schema version is not [`VERSION`].
    Version(u64),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Json(e) => write!(f, "malformed report envelope: {e}"),
            Self::Format(found) => {
                write!(f, "not a report envelope: format `{found}`, expected `{FORMAT}`")
            }
            Self::Version(found) => {
                write!(f, "report envelope version {found}, this build reads {VERSION}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<JsonParseError> for CodecError {
    fn from(e: JsonParseError) -> Self {
        Self::Json(e)
    }
}

/// Encodes `report` into a [`VERSION`] envelope, recording the given code
/// `fingerprint` and cache `key` as provenance.
#[must_use]
pub fn encode(report: &SimReport, fingerprint: &str, key: &str) -> String {
    let envelope = Envelope {
        format: FORMAT.to_string(),
        version: VERSION,
        fingerprint: fingerprint.to_string(),
        key: key.to_string(),
        body: Body {
            nodes: report.nodes().to_vec(),
            protocol: *report.protocol(),
            net: report.net().clone(),
            pressure: report.pressure().clone(),
            swap_outs: report.swap_outs(),
            metrics: report.metrics().clone(),
            trace: report.trace().cloned(),
        },
    };
    to_json_line(&envelope).expect("report envelope has only string-keyed maps")
}

/// Decodes an envelope produced by [`encode`], reassembling the report
/// around the caller-supplied `cfg` (the same config whose cache key
/// located the envelope).
///
/// # Errors
///
/// Returns [`CodecError`] on malformed JSON, a foreign format tag, or a
/// schema-version mismatch.
pub fn decode(text: &str, cfg: SimConfig) -> Result<Decoded, CodecError> {
    let envelope: Envelope = from_json_str(text)?;
    if envelope.format != FORMAT {
        return Err(CodecError::Format(envelope.format));
    }
    if envelope.version != VERSION {
        return Err(CodecError::Version(envelope.version));
    }
    let body = envelope.body;
    let report = SimReport {
        cfg,
        nodes: body.nodes,
        protocol: body.protocol,
        net: body.net,
        pressure: body.pressure,
        swap_outs: body.swap_outs,
        metrics: body.metrics,
        trace: body.trace,
    };
    Ok(Decoded { report, fingerprint: envelope.fingerprint, key: envelope.key })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_tlb::Scheme;
    use vcoma_types::MachineConfig;

    fn small_report() -> SimReport {
        SimReport {
            cfg: SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA),
            nodes: vec![],
            protocol: ProtocolStats::default(),
            net: NetStats::default(),
            pressure: PressureProfile::from_occupancy(&[2, 0], 4),
            swap_outs: 3,
            metrics: MetricsSnapshot::default(),
            trace: None,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let r = small_report();
        let text = encode(&r, "fp-test", "key-test");
        let d = decode(&text, r.config().clone()).expect("decodes");
        assert_eq!(d.fingerprint, "fp-test");
        assert_eq!(d.key, "key-test");
        assert_eq!(format!("{:?}", d.report.pressure()), format!("{:?}", r.pressure()));
        assert_eq!(d.report.swap_outs(), 3);
        // Re-encoding the decoded report is byte-identical.
        assert_eq!(encode(&d.report, "fp-test", "key-test"), text);
    }

    #[test]
    fn decode_rejects_foreign_and_future_envelopes() {
        let r = small_report();
        let cfg = r.config().clone();
        let text = encode(&r, "fp", "k");
        let wrong_format = text.replace("vcoma-simreport", "other-format");
        assert!(matches!(
            decode(&wrong_format, cfg.clone()),
            Err(CodecError::Format(f)) if f == "other-format"
        ));
        let wrong_version =
            text.replace(&format!("\"version\":{VERSION}"), "\"version\":999");
        assert!(matches!(decode(&wrong_version, cfg.clone()), Err(CodecError::Version(999))));
        assert!(matches!(decode("{not json", cfg.clone()), Err(CodecError::Json(_))));
        // A hostile nesting depth fails to parse instead of exhausting the stack.
        let deep = format!("{{\"x\":{}", "[".repeat(1 << 20));
        assert!(matches!(decode(&deep, cfg), Err(CodecError::Json(_))));
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use crate::{Machine, TraceConfig};
        use proptest::prelude::*;
        use vcoma_workloads::{UniformRandom, Workload};

        fn cfg() -> SimConfig {
            SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA)
                .with_seed(5)
                .with_trace(TraceConfig { sample_every: 8, capacity: 16 })
        }

        /// The envelope of a small traced run: nodes, histograms and
        /// trace spans all present, yet short enough to try every prefix.
        fn real_envelope() -> String {
            let cfg = cfg();
            let w = UniformRandom { pages: 16, refs_per_node: 100, write_fraction: 0.3 };
            let report = Machine::new(cfg.clone()).run(w.generate(&cfg.machine)).expect("runs");
            encode(&report, "fp", "key")
        }

        #[test]
        fn every_truncation_of_a_real_envelope_is_an_error() {
            let text = real_envelope();
            assert!(decode(&text, cfg()).is_ok(), "the whole envelope decodes");
            assert!(text.contains("\"spans\":[{"), "the envelope carries trace spans");
            for end in 0..text.len() {
                if let Some(prefix) = text.get(..end) {
                    assert!(decode(prefix, cfg()).is_err(), "a {end}-byte prefix decoded");
                }
            }
        }

        /// Bytes a corruption splices in: JSON punctuation, digits and
        /// the letters of `true`/`false`/`null`, so edits reach past
        /// the tokenizer into the envelope's shape.
        const SPLICE: &[u8] = b"{}[]\":,.-+eE0123456789truefalsn \\/u\xff";

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn arbitrary_bytes_are_an_error(
                bytes in proptest::collection::vec(0u8..=255, 0..512),
            ) {
                let text = String::from_utf8_lossy(&bytes);
                prop_assert!(decode(&text, cfg()).is_err());
            }

            #[test]
            fn corrupted_envelopes_never_panic(
                edits in proptest::collection::vec((0usize..1 << 20, 0usize..64), 1..6),
            ) {
                let mut bytes = real_envelope().into_bytes();
                for (at, pick) in edits {
                    let at = at % bytes.len();
                    match pick % 3 {
                        0 => bytes[at] = SPLICE[pick % SPLICE.len()],
                        1 => bytes.insert(at, SPLICE[pick % SPLICE.len()]),
                        _ => {
                            bytes.remove(at);
                        }
                    }
                }
                // Any outcome but a panic is fine: an edit inside a number
                // can leave a valid envelope.
                let _ = decode(&String::from_utf8_lossy(&bytes), cfg());
            }
        }
    }
}
