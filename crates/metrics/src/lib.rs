//! Unified metrics and event-tracing subsystem for the V-COMA simulator.
//!
//! This crate is deliberately domain-agnostic: it knows nothing about
//! TLBs, coherence protocols or crossbars. It provides the building
//! blocks the rest of the workspace composes:
//!
//! * [`Mergeable`] — the one-method accumulation trait the workspace's
//!   summed statistics types implement, replacing the hand-rolled
//!   `fn merge(&mut self, other: &Self)` inherent methods that used to be
//!   copy-pasted per crate.
//! * [`Histogram`] — a fixed-shape power-of-two-bucketed histogram for
//!   cycle counts, cheap enough to live on the simulation fast path.
//! * [`EventRing`] — a bounded, cycle-stamped structured event buffer
//!   with an overwrite-oldest policy and a drop counter.
//! * [`MetricsRegistry`] — named histograms keyed by `&'static str`,
//!   snapshotted into the serializable [`MetricsSnapshot`], plus the
//!   event ring, which stays live in the registry and is never
//!   snapshotted. Event counts live in each layer's own stats struct.
//! * [`Span`] / [`SpanBuffer`] / [`SpanSampler`] — causal span trees for
//!   deterministically sampled transactions, with the
//!   [`critical_paths`] analyzer and a Chrome-trace/Perfetto JSON
//!   exporter in [`trace_export`].
//! * [`prometheus::PrometheusExposer`] — renders counter, gauge and
//!   histogram series into Prometheus text exposition for `/metrics`
//!   endpoints.
//!
//! Snapshots serialize to deterministic pretty-printed JSON through
//! [`json::to_json_pretty`]; determinism comes from `BTreeMap` key order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod intern;
pub mod json;
mod mergeable;
pub mod prometheus;
mod registry;
mod ring;
mod span;
pub mod trace_export;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use intern::{intern, MAX_INTERNED, MAX_INTERNED_LEN};
pub use mergeable::Mergeable;
pub use registry::{HistogramSlot, MetricsRegistry, MetricsSnapshot};
pub use ring::{Event, EventRing, EventSnapshot};
pub use span::{
    critical_paths, Span, SpanBuffer, SpanCategory, SpanId, SpanSampler, TraceSnapshot,
    TxnCriticalPath,
};
