//! A stored trace cannot grow the span-kind interner without bound.
//!
//! Decoding a store envelope interns every span kind it carries, and the
//! interner is process-wide and never frees. An envelope with more
//! distinct kinds than the interner holds must fail to decode (a store
//! miss), and a trace of the simulator's own kinds must still decode
//! afterwards, although it is decoded here for the first time only after
//! the flood: the interner starts out holding them. This binary holds one
//! test, because the interner is process-wide.

use std::path::PathBuf;
use vcoma::metrics::{intern, MAX_INTERNED};
use vcoma::{codec, MachineConfig, Scheme, SimConfig, TraceConfig};

#[test]
fn an_envelope_past_the_interner_cap_fails_to_decode() {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden"))
        .join("simreport_v4.json");
    let golden = std::fs::read_to_string(path).expect("v4 fixture");
    let cfg = SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA)
        .with_seed(9)
        .with_trace(TraceConfig { sample_every: 4, capacity: 1 << 14 });

    // Give every span a kind of its own.
    let tag = "\"kind\":\"";
    let (mut flood, mut rest, mut kinds) = (String::new(), golden.as_str(), 0usize);
    while let Some(at) = rest.find(tag) {
        let value = &rest[at + tag.len()..];
        flood.push_str(&rest[..at + tag.len()]);
        flood.push_str(&format!("flood-{kinds}"));
        rest = &value[value.find('"').expect("a closing quote")..];
        kinds += 1;
    }
    flood.push_str(rest);
    assert!(kinds > MAX_INTERNED, "{kinds} spans cannot overflow the interner");

    assert!(matches!(codec::decode(&flood, cfg.clone()), Err(codec::CodecError::Json(_))));
    assert_eq!(intern("one-more-kind"), None, "the flood filled the interner");
    assert!(codec::decode(&golden, cfg).is_ok(), "the simulator's own kinds still resolve");
}
