//! Chrome trace-event (Perfetto) JSON export of [`TraceSnapshot`]s.
//!
//! The output is the classic `traceEvents` JSON object understood by
//! `ui.perfetto.dev` and `chrome://tracing`: one *process* per simulated
//! node (per exported run), one *track* (thread) per transaction class,
//! with a sibling `… hops` track carrying the annotation spans so message
//! hops and retries sit visually under the transaction that caused them.
//! Timestamps are simulated cycles reported through the `ts`/`dur`
//! microsecond fields — absolute units don't matter for inspection, and
//! cycles keep the export byte-deterministic.
//!
//! Every emitted event — including the `M` metadata records — carries
//! `ts`, `dur` and `pid` fields, which is the invariant the CI smoke job
//! validates. Hand-rolled string building that shares its string escaper
//! with [`crate::json`]: the workspace takes no serialisation dependency.

use crate::json::push_json_str;
use crate::span::{SpanCategory, TraceSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Process-id stride between exported runs: run `r`, node `n` becomes
/// `pid = r * RUN_PID_STRIDE + n + 1` (pids start at 1; some viewers
/// treat pid 0 as "the browser process").
pub const RUN_PID_STRIDE: u64 = 1000;

/// Serializes labelled trace snapshots as one Chrome trace-event JSON
/// document. Runs are laid out as disjoint pid ranges (see
/// [`RUN_PID_STRIDE`]); within a run each node is a process and each
/// transaction class (root span kind) gets an event track plus a `… hops`
/// track for its annotations.
#[must_use]
pub fn to_chrome_trace<'a, I>(runs: I) -> String
where
    I: IntoIterator<Item = (&'a str, &'a TraceSnapshot)>,
{
    let mut events: Vec<String> = Vec::new();
    for (run_idx, (label, snap)) in runs.into_iter().enumerate() {
        let pid_base = run_idx as u64 * RUN_PID_STRIDE + 1;

        // Transaction classes, in deterministic (sorted) order. Children
        // inherit their root's class; the map is (node, root id) → class.
        let mut classes: Vec<&'static str> =
            snap.spans.iter().filter(|s| s.parent == 0).map(|s| s.kind).collect();
        classes.sort_unstable();
        classes.dedup();
        let tid_of = |class: &str, annotation: bool| -> u64 {
            let idx = classes.iter().position(|c| *c == class).unwrap_or(0) as u64;
            1 + 2 * idx + u64::from(annotation)
        };
        let mut root_class: BTreeMap<(u16, u64), &'static str> = BTreeMap::new();
        for s in snap.spans.iter().filter(|s| s.parent == 0) {
            root_class.insert((s.node, s.id), s.kind);
        }

        // Metadata: process names per node, thread names per track.
        let mut nodes: Vec<u16> = snap.spans.iter().map(|s| s.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        for &node in &nodes {
            let pid = pid_base + u64::from(node);
            events.push(meta_event(pid, 0, "process_name", &format!("{label} node{node}")));
            for class in &classes {
                events.push(meta_event(pid, tid_of(class, false), "thread_name", class));
                events.push(meta_event(
                    pid,
                    tid_of(class, true),
                    "thread_name",
                    &format!("{class} hops"),
                ));
            }
        }

        // One "X" complete event per span. Spans arrive sorted by
        // (node, id) — creation order — which is already deterministic.
        for s in &snap.spans {
            let class = root_class
                .get(&(s.node, if s.parent == 0 { s.id } else { s.parent }))
                .copied()
                .unwrap_or(s.kind);
            let pid = pid_base + u64::from(s.node);
            let tid = tid_of(class, s.category == SpanCategory::Annotation);
            let mut e = String::from("{");
            let _ = write!(e, "\"name\": ");
            push_json_str(&mut e, s.kind);
            let _ = write!(e, ", \"cat\": \"{}\"", s.category.label());
            let _ = write!(e, ", \"ph\": \"X\", \"ts\": {}, \"dur\": {}", s.start, s.duration());
            let _ = write!(e, ", \"pid\": {pid}, \"tid\": {tid}");
            let _ = write!(
                e,
                ", \"args\": {{\"id\": {}, \"parent\": {}, \"arg\": {}}}}}",
                s.id, s.parent, s.arg
            );
            events.push(e);
        }
    }

    let mut out = String::from("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("    ");
        out.push_str(e);
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// A metadata (`"ph": "M"`) record naming a process or thread. Carries
/// zero `ts`/`dur` so every event in the file has the full field set.
fn meta_event(pid: u64, tid: u64, kind: &str, name: &str) -> String {
    let mut e = String::from("{");
    let _ = write!(e, "\"name\": \"{kind}\", \"ph\": \"M\", \"ts\": 0, \"dur\": 0");
    let _ = write!(e, ", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": ");
    push_json_str(&mut e, name);
    e.push_str("}}");
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Span, SpanBuffer, SpanCategory};

    fn sample_snapshot() -> TraceSnapshot {
        let mut b = SpanBuffer::new(64);
        let root = b.alloc_id();
        let child = b.alloc_id();
        let hop = b.alloc_id();
        b.push_txn(&[
            Span {
                id: root,
                parent: 0,
                node: 2,
                kind: "read",
                category: SpanCategory::Interval,
                start: 10,
                end: 90,
                arg: 0x4000,
            },
            Span {
                id: child,
                parent: root,
                node: 2,
                kind: "net",
                category: SpanCategory::Interval,
                start: 20,
                end: 50,
                arg: 7,
            },
            Span {
                id: hop,
                parent: root,
                node: 2,
                kind: "ReadReq",
                category: SpanCategory::Annotation,
                start: 20,
                end: 35,
                arg: 7,
            },
        ]);
        b.snapshot(4)
    }

    #[test]
    fn export_emits_processes_tracks_and_complete_events() {
        let snap = sample_snapshot();
        let json = to_chrome_trace([("RADIX/V-COMA", &snap)]);
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"traceEvents\": ["));
        // Node 2 of run 0 is pid 3, named after the run label.
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("RADIX/V-COMA node2"));
        assert!(json.contains("\"pid\": 3"));
        // One class ("read") on tid 1, its hops on tid 2.
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"read hops\""));
        // The root span with its timing.
        assert!(json.contains("\"name\": \"read\", \"cat\": \"interval\", \"ph\": \"X\", \"ts\": 10, \"dur\": 80"));
        // The hop rides the annotation track (tid 2).
        assert!(json.contains("\"name\": \"ReadReq\", \"cat\": \"annotation\", \"ph\": \"X\", \"ts\": 20, \"dur\": 15, \"pid\": 3, \"tid\": 2"));
        // Balanced braces/brackets and one trailing newline.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.ends_with("}\n"));
        // Every event carries ts/dur/pid — the CI invariant.
        let events = json.matches("\"ph\": ").count();
        assert_eq!(json.matches("\"ts\": ").count(), events);
        assert_eq!(json.matches("\"dur\": ").count(), events);
        assert_eq!(json.matches("\"pid\": ").count(), events);
    }

    #[test]
    fn multiple_runs_get_disjoint_pid_ranges_deterministically() {
        let snap = sample_snapshot();
        let a = to_chrome_trace([("runA", &snap), ("runB", &snap)]);
        let b = to_chrome_trace([("runA", &snap), ("runB", &snap)]);
        assert_eq!(a, b, "export is deterministic");
        assert!(a.contains(&format!("\"pid\": {}", RUN_PID_STRIDE + 3)));
        assert!(a.contains("runB node2"));
    }

    #[test]
    fn empty_trace_exports_an_empty_event_list() {
        let snap = TraceSnapshot::default();
        let json = to_chrome_trace([("empty", &snap)]);
        assert!(json.contains("\"traceEvents\": [\n  ]"));
    }
}
