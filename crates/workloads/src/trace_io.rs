//! Plain-text trace serialisation.
//!
//! Generated traces can be saved and reloaded, so an interesting run can
//! be archived, diffed, or replayed on a modified simulator without
//! regenerating it. The format is line-oriented and self-describing:
//!
//! ```text
//! # vcoma trace v1
//! node 0
//! r 0x1000
//! w 0x2040
//! c 5
//! b 0
//! l 1
//! u 1
//! node 1
//! …
//! ```
//!
//! `r`/`w` carry hexadecimal byte addresses; `c` carries compute cycles;
//! `b`, `l` and `u` carry barrier/lock identifiers in decimal; `p` carries
//! an address and a rights string (`rw`, `r-`, `-w`, `--`).
//!
//! Loaded traces replay through the streaming engine like any other op
//! stream: every `Op` iterator is a [`vcoma_types::OpSource`], and
//! [`vcoma_types::trace_sources`] boxes one borrowing cursor per node.

use vcoma_types::{Op, Protection, SyncId, VAddr};

/// The header line identifying the format.
pub const TRACE_HEADER: &str = "# vcoma trace v1";

/// Error produced when parsing a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// Serialises per-node traces to the text format.
pub fn save_traces(traces: &[Vec<Op>]) -> String {
    let mut out = String::with_capacity(traces.iter().map(Vec::len).sum::<usize>() * 10 + 64);
    out.push_str(TRACE_HEADER);
    out.push('\n');
    for (n, trace) in traces.iter().enumerate() {
        out.push_str(&format!("node {n}\n"));
        for op in trace {
            match op {
                Op::Read(a) => out.push_str(&format!("r {:#x}\n", a.raw())),
                Op::Write(a) => out.push_str(&format!("w {:#x}\n", a.raw())),
                Op::Compute(c) => out.push_str(&format!("c {c}\n")),
                Op::Barrier(id) => out.push_str(&format!("b {}\n", id.0)),
                Op::Lock(id) => out.push_str(&format!("l {}\n", id.0)),
                Op::Unlock(id) => out.push_str(&format!("u {}\n", id.0)),
                Op::Protect(a, p) => out.push_str(&format!("p {:#x} {p}\n", a.raw())),
            }
        }
    }
    out
}

/// Parses the text format back into per-node traces.
///
/// # Errors
///
/// Returns [`ParseTraceError`] on a missing/foreign header, an op before
/// the first `node` line, out-of-order node declarations, or a malformed
/// op line.
pub fn load_traces(text: &str) -> Result<Vec<Vec<Op>>, ParseTraceError> {
    let err = |line: usize, message: &str| ParseTraceError { line, message: message.to_string() };
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == TRACE_HEADER => {}
        Some((i, h)) => return Err(err(i + 1, &format!("expected `{TRACE_HEADER}`, got `{h}`"))),
        None => return Err(err(1, "empty input")),
    }
    let mut traces: Vec<Vec<Op>> = Vec::new();
    for (i, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (tag, rest) = line.split_once(' ').ok_or_else(|| err(i + 1, "missing operand"))?;
        let rest = rest.trim();
        match tag {
            "node" => {
                let n: usize =
                    rest.parse().map_err(|_| err(i + 1, "node index must be decimal"))?;
                if n != traces.len() {
                    return Err(err(
                        i + 1,
                        &format!("node {n} out of order (expected {})", traces.len()),
                    ));
                }
                traces.push(Vec::new());
            }
            "r" | "w" => {
                let hex = rest.strip_prefix("0x").ok_or_else(|| {
                    err(i + 1, "addresses must be hexadecimal with a 0x prefix")
                })?;
                let addr = u64::from_str_radix(hex, 16)
                    .map_err(|_| err(i + 1, "invalid hexadecimal address"))?;
                let op = if tag == "r" {
                    Op::Read(VAddr::new(addr))
                } else {
                    Op::Write(VAddr::new(addr))
                };
                traces.last_mut().ok_or_else(|| err(i + 1, "op before first node"))?.push(op);
            }
            "c" => {
                let cycles: u64 =
                    rest.parse().map_err(|_| err(i + 1, "invalid cycle count"))?;
                traces
                    .last_mut()
                    .ok_or_else(|| err(i + 1, "op before first node"))?
                    .push(Op::Compute(cycles));
            }
            "b" | "l" | "u" => {
                let id: u32 = rest.parse().map_err(|_| err(i + 1, "invalid sync id"))?;
                let op = match tag {
                    "b" => Op::Barrier(SyncId(id)),
                    "l" => Op::Lock(SyncId(id)),
                    _ => Op::Unlock(SyncId(id)),
                };
                traces.last_mut().ok_or_else(|| err(i + 1, "op before first node"))?.push(op);
            }
            "p" => {
                let (addr, prot) = rest
                    .split_once(' ')
                    .ok_or_else(|| err(i + 1, "protect needs an address and rights"))?;
                let hex = addr.strip_prefix("0x").ok_or_else(|| {
                    err(i + 1, "addresses must be hexadecimal with a 0x prefix")
                })?;
                let addr = u64::from_str_radix(hex, 16)
                    .map_err(|_| err(i + 1, "invalid hexadecimal address"))?;
                let prot = match prot.trim() {
                    "rw" => Protection::read_write(),
                    "r-" => Protection::read_only(),
                    "-w" => Protection { read: false, write: true },
                    "--" => Protection { read: false, write: false },
                    other => return Err(err(i + 1, &format!("unknown rights `{other}`"))),
                };
                traces
                    .last_mut()
                    .ok_or_else(|| err(i + 1, "op before first node"))?
                    .push(Op::Protect(VAddr::new(addr), prot));
            }
            other => return Err(err(i + 1, &format!("unknown op tag `{other}`"))),
        }
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_hand_built_trace() {
        let traces = vec![
            vec![
                Op::Read(VAddr::new(0x1000)),
                Op::Write(VAddr::new(0x2040)),
                Op::Compute(5),
                Op::Barrier(SyncId(0)),
            ],
            vec![
                Op::Lock(SyncId(7)),
                Op::Unlock(SyncId(7)),
                Op::Protect(VAddr::new(0x3000), Protection::read_only()),
                Op::Barrier(SyncId(0)),
            ],
        ];
        let text = save_traces(&traces);
        assert!(text.starts_with(TRACE_HEADER));
        assert_eq!(load_traces(&text).unwrap(), traces);
    }

    #[test]
    fn roundtrip_generated_benchmark() {
        use crate::Workload;
        let cfg = vcoma_types::MachineConfig::paper_baseline();
        let traces = crate::Barnes::paper().scaled(0.002).generate(&cfg);
        let text = save_traces(&traces);
        assert_eq!(load_traces(&text).unwrap(), traces);
    }

    #[test]
    fn loaded_traces_stream_through_source_cursors() {
        use crate::Workload;
        let cfg = vcoma_types::MachineConfig::tiny();
        let traces = crate::PingPong { rounds: 5 }.generate(&cfg);
        let loaded = load_traces(&save_traces(&traces)).unwrap();
        let mut sources = vcoma_types::trace_sources(&loaded);
        let replayed: Vec<Vec<Op>> = sources
            .iter_mut()
            .map(|s| std::iter::from_fn(|| s.next_op()).collect())
            .collect();
        assert_eq!(replayed, traces);
    }

    #[test]
    fn rejects_missing_header() {
        let e = load_traces("node 0\nr 0x10\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("expected"));
        assert!(load_traces("").is_err());
    }

    #[test]
    fn rejects_op_before_node() {
        let e = load_traces("# vcoma trace v1\nr 0x10\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("before first node"));
    }

    #[test]
    fn rejects_out_of_order_nodes() {
        let e = load_traces("# vcoma trace v1\nnode 1\n").unwrap_err();
        assert!(e.message.contains("out of order"));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["r 10", "r 0xzz", "c ten", "b x", "q 1", "node x"] {
            let text = format!("# vcoma trace v1\nnode 0\n{bad}\n");
            assert!(load_traces(&text).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# vcoma trace v1\n\n# a comment\nnode 0\nr 0x40\n\n";
        let traces = load_traces(text).unwrap();
        assert_eq!(traces, vec![vec![Op::Read(VAddr::new(0x40))]]);
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_random_traces(
                ops in proptest::collection::vec(
                    proptest::collection::vec((0u8..7, 0u64..1 << 40), 0..40),
                    1..4,
                )
            ) {
                let traces: Vec<Vec<Op>> = ops
                    .iter()
                    .map(|node| {
                        node.iter()
                            .map(|&(k, v)| match k {
                                0 => Op::Read(VAddr::new(v)),
                                1 => Op::Write(VAddr::new(v)),
                                2 => Op::Compute(v),
                                3 => Op::Barrier(SyncId(v as u32)),
                                4 => Op::Lock(SyncId(v as u32)),
                                5 => Op::Unlock(SyncId(v as u32)),
                                _ => Op::Protect(
                                    VAddr::new(v),
                                    match v % 4 {
                                        0 => Protection::read_write(),
                                        1 => Protection::read_only(),
                                        2 => Protection { read: false, write: true },
                                        _ => Protection { read: false, write: false },
                                    },
                                ),
                            })
                            .collect()
                    })
                    .collect();
                let text = save_traces(&traces);
                prop_assert_eq!(load_traces(&text).unwrap(), traces);
            }
        }
    }
}
