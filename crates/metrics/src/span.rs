//! Causal span tracing: cycle-stamped span trees for sampled
//! transactions, with deterministic sampling and critical-path
//! attribution.
//!
//! Like the rest of this crate, the module is domain-agnostic: span
//! `kind`s are `&'static str` literals from the emitting layer's
//! vocabulary (`"tlb_miss"`, `"net"`, `"directory"`, ...). A transaction
//! is one span tree: a single root span covering its end-to-end latency
//! plus child spans linked through [`Span::parent`]. Children come in two
//! categories (see [`SpanCategory`]): **intervals**, which partition
//! their parent's duration and carry the critical-path attribution, and
//! **annotations** (individual message hops, retries, backoff windows),
//! which decorate the timeline without participating in the accounting.
//!
//! Sampling is deterministic: [`SpanSampler`] admits a transaction based
//! on a keyed hash of `(seed, node, per-node transaction index)` — all
//! quantities that are independent of worker count or wall-clock — so a
//! trace is byte-reproducible at any `--jobs` value.

use crate::Mergeable;
use serde::Serialize;
use std::collections::BTreeMap;

/// Identifier of a span within one node's trace. `0` is reserved to mean
/// "no parent" (the span is a transaction root).
pub type SpanId = u64;

/// How a span participates in critical-path accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanCategory {
    /// Part of the transaction's dependent chain: sibling intervals are
    /// disjoint and together tile their parent's duration, so summing
    /// them reattributes the parent's latency exactly.
    Interval,
    /// Timeline decoration (a message hop, a retry marker, a backoff
    /// window); excluded from critical-path sums.
    Annotation,
}

impl SpanCategory {
    /// Stable lower-case label (`"interval"` / `"annotation"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Interval => "interval",
            Self::Annotation => "annotation",
        }
    }
}

impl Serialize for SpanCategory {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.label())
    }
}

impl serde::de::Deserialize for SpanCategory {
    /// Deserializes from the stable [`label`](Self::label) strings.
    fn deserialize<D: serde::de::Deserializer>(d: D) -> Result<Self, D::Error> {
        match String::deserialize(d)?.as_str() {
            "interval" => Ok(Self::Interval),
            "annotation" => Ok(Self::Annotation),
            other => {
                Err(serde::de::Error::custom(format_args!("unknown span category `{other}`")))
            }
        }
    }
}

/// One cycle-stamped span of a transaction's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Identifier, unique within the owning node's trace.
    pub id: SpanId,
    /// Parent span id, or `0` for a transaction root.
    pub parent: SpanId,
    /// Node whose transaction this span belongs to.
    pub node: u16,
    /// Span kind, from the emitting layer's vocabulary.
    pub kind: &'static str,
    /// Accounting category.
    pub category: SpanCategory,
    /// First cycle covered by the span (inclusive).
    pub start: u64,
    /// First cycle after the span (exclusive); `end == start` is an
    /// instant marker.
    pub end: u64,
    /// Kind-specific argument (an address, a destination node, ...).
    pub arg: u64,
}

impl Span {
    /// The span's duration in cycles.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Owned wire form of a [`Span`]; `kind` arrives as a `String` and is
/// [interned](crate::intern) into the `&'static str` the in-memory type
/// carries. A kind the interner refuses fails the decode.
#[derive(serde::Deserialize)]
struct SpanWire {
    id: SpanId,
    parent: SpanId,
    node: u16,
    kind: String,
    category: SpanCategory,
    start: u64,
    end: u64,
    arg: u64,
}

impl serde::de::Deserialize for Span {
    fn deserialize<D: serde::de::Deserializer>(d: D) -> Result<Self, D::Error> {
        let w = SpanWire::deserialize(d)?;
        let kind = crate::intern(&w.kind)
            .ok_or_else(|| serde::de::Error::custom("span kind past the interner's caps"))?;
        Ok(Span {
            id: w.id,
            parent: w.parent,
            node: w.node,
            kind,
            category: w.category,
            start: w.start,
            end: w.end,
            arg: w.arg,
        })
    }
}

/// Deterministic every-Nth-transaction sampler.
///
/// The decision hashes `(seed, node, index)` through a SplitMix64-style
/// finalizer, so which transactions are sampled is a pure function of the
/// run's seed and the per-node transaction order — never of thread
/// scheduling — and sampled sets from different nodes are uncorrelated
/// rather than phase-locked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSampler {
    seed: u64,
    every: u64,
}

impl SpanSampler {
    /// Creates a sampler admitting (on average) one in `every`
    /// transactions; `every` is clamped to at least 1, and 1 admits all.
    #[must_use]
    pub fn new(seed: u64, every: u64) -> Self {
        Self { seed, every: every.max(1) }
    }

    /// The sampling period.
    #[must_use]
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Decides whether the transaction at per-node `index` on `node` is
    /// sampled.
    #[must_use]
    pub fn admits(&self, node: u64, index: u64) -> bool {
        self.every == 1 || keyed_hash(self.seed, node, index).is_multiple_of(self.every)
    }
}

/// SplitMix64-style finalizer over the sampling key, mirroring the fault
/// subsystem's keyed decision hash so sampling quality is already
/// field-tested.
fn keyed_hash(seed: u64, node: u64, index: u64) -> u64 {
    let mut z = seed
        ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bounded per-node span buffer with transaction-granular admission.
///
/// A transaction's spans are pushed as one batch; if the batch does not
/// fit in the remaining capacity the **whole transaction** is dropped and
/// counted, so the buffer never holds a partial tree and truncation is
/// always visible in [`TraceSnapshot::dropped_txns`].
#[derive(Debug, Clone, Default)]
pub struct SpanBuffer {
    capacity: usize,
    spans: Vec<Span>,
    sampled_txns: u64,
    dropped_txns: u64,
    next_id: SpanId,
}

impl SpanBuffer {
    /// Creates a buffer retaining at most `capacity` spans.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, spans: Vec::new(), sampled_txns: 0, dropped_txns: 0, next_id: 1 }
    }

    /// Allocates the next span id (ids start at 1; 0 means "root").
    pub fn alloc_id(&mut self) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Pushes one transaction's spans as a unit. Returns `true` if the
    /// batch was retained, `false` if it was dropped for capacity.
    pub fn push_txn(&mut self, txn: &[Span]) -> bool {
        if txn.is_empty() {
            return true;
        }
        if self.spans.len() + txn.len() <= self.capacity {
            self.spans.extend_from_slice(txn);
            self.sampled_txns += 1;
            true
        } else {
            self.dropped_txns += 1;
            false
        }
    }

    /// Number of spans currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no spans are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Transactions retained in the buffer.
    #[must_use]
    pub fn sampled_txns(&self) -> u64 {
        self.sampled_txns
    }

    /// Transactions dropped for capacity.
    #[must_use]
    pub fn dropped_txns(&self) -> u64 {
        self.dropped_txns
    }

    /// Discards all spans and resets the counters and id allocator (used
    /// at warmup reset).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.sampled_txns = 0;
        self.dropped_txns = 0;
        self.next_id = 1;
    }

    /// Converts into snapshot form; `sample_every` records the sampling
    /// period the spans were collected under.
    #[must_use]
    pub fn snapshot(&self, sample_every: u64) -> TraceSnapshot {
        TraceSnapshot {
            sample_every,
            sampled_txns: self.sampled_txns,
            dropped_txns: self.dropped_txns,
            spans: self.spans.clone(),
        }
    }
}

/// Serializable collection of sampled span trees (one run, all nodes).
#[derive(Debug, Clone, Default, PartialEq, Serialize, serde::Deserialize)]
pub struct TraceSnapshot {
    /// Sampling period the trace was collected under (0 = tracing off).
    pub sample_every: u64,
    /// Transactions retained across all merged buffers.
    pub sampled_txns: u64,
    /// Transactions dropped for buffer capacity.
    pub dropped_txns: u64,
    /// All retained spans, ordered by `(node, id)`.
    pub spans: Vec<Span>,
}

impl Mergeable for TraceSnapshot {
    fn merge(&mut self, other: &Self) {
        self.sample_every = self.sample_every.max(other.sample_every);
        self.sampled_txns += other.sampled_txns;
        self.dropped_txns += other.dropped_txns;
        self.spans.extend(other.spans.iter().copied());
        // Per-node id order is creation order, so this keeps the merged
        // trace deterministic regardless of merge grouping.
        self.spans.sort_by_key(|s| (s.node, s.id));
    }
}

/// Critical-path attribution of one sampled transaction.
///
/// `attributed` maps each span kind on the critical path to the cycles it
/// contributed; `unattributed` is whatever part of the root's duration no
/// interval child covered. For traces produced by the simulator the
/// interval children tile the root exactly, so `unattributed` is 0 and
/// `attributed` sums to `latency` — the conservation property the
/// integration suite asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnCriticalPath {
    /// Root span id.
    pub root: SpanId,
    /// Node that issued the transaction.
    pub node: u16,
    /// Root span kind (the transaction class, e.g. `"read"`).
    pub kind: &'static str,
    /// End-to-end latency of the transaction in cycles.
    pub latency: u64,
    /// Cycles attributed to each kind along the critical path.
    pub attributed: BTreeMap<&'static str, u64>,
    /// Root cycles not covered by any interval child.
    pub unattributed: u64,
}

/// Walks every transaction tree in `spans` and attributes each root's
/// end-to-end latency along its chain of interval spans.
///
/// Interval children represent the *critical* branch at each level (the
/// recording layer resolves forks by keeping the longer branch), so the
/// walk is: leaf intervals contribute their duration under their own
/// kind, inner intervals recurse, and any parent cycles not covered by
/// interval children are reported as `unattributed`. Results are ordered
/// by `(node, root id)`.
#[must_use]
pub fn critical_paths(spans: &[Span]) -> Vec<TxnCriticalPath> {
    let mut children: BTreeMap<(u16, SpanId), Vec<&Span>> = BTreeMap::new();
    let mut roots: Vec<&Span> = Vec::new();
    for s in spans {
        if s.parent == 0 {
            roots.push(s);
        } else {
            children.entry((s.node, s.parent)).or_default().push(s);
        }
    }
    roots.sort_by_key(|s| (s.node, s.id));

    let mut out = Vec::with_capacity(roots.len());
    for root in roots {
        let mut path = TxnCriticalPath {
            root: root.id,
            node: root.node,
            kind: root.kind,
            latency: root.duration(),
            attributed: BTreeMap::new(),
            unattributed: 0,
        };
        attribute(root, &children, &mut path);
        out.push(path);
    }
    out
}

fn attribute(
    span: &Span,
    children: &BTreeMap<(u16, SpanId), Vec<&Span>>,
    path: &mut TxnCriticalPath,
) {
    let intervals: Vec<&&Span> = children
        .get(&(span.node, span.id))
        .into_iter()
        .flatten()
        .filter(|c| c.category == SpanCategory::Interval)
        .collect();
    if intervals.is_empty() && span.parent != 0 {
        // A leaf interval contributes its whole duration under its kind.
        *path.attributed.entry(span.kind).or_insert(0) += span.duration();
        return;
    }
    let mut covered = 0u64;
    for c in &intervals {
        covered = covered.saturating_add(c.duration());
        attribute(c, children, path);
    }
    if span.parent == 0 && intervals.is_empty() {
        // A root with no recorded detail: all of it is unattributed.
        path.unattributed += span.duration();
    } else {
        path.unattributed += span.duration().saturating_sub(covered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, kind: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            node: 0,
            kind,
            category: SpanCategory::Interval,
            start,
            end,
            arg: 0,
        }
    }

    #[test]
    fn sampler_is_deterministic_and_roughly_one_in_n() {
        let s = SpanSampler::new(0x5EED, 8);
        let first: Vec<bool> = (0..1000).map(|i| s.admits(3, i)).collect();
        let again: Vec<bool> = (0..1000).map(|i| s.admits(3, i)).collect();
        assert_eq!(first, again, "sampling is a pure function of (seed, node, index)");
        let admitted = first.iter().filter(|&&b| b).count();
        assert!((60..=190).contains(&admitted), "~1/8 of 1000 expected, got {admitted}");
        // Different nodes sample different index sets.
        let other: Vec<bool> = (0..1000).map(|i| s.admits(4, i)).collect();
        assert_ne!(first, other);
        // every = 1 admits everything; every = 0 clamps to 1.
        assert!((0..100).all(|i| SpanSampler::new(1, 1).admits(0, i)));
        assert_eq!(SpanSampler::new(1, 0).every(), 1);
    }

    #[test]
    fn buffer_drops_whole_transactions_when_full() {
        let mut b = SpanBuffer::new(4);
        let t1 = [span(b.alloc_id(), 0, "read", 0, 10)];
        assert!(b.push_txn(&t1));
        let id = b.alloc_id();
        let t2 = [span(id, 0, "write", 10, 30), span(b.alloc_id(), id, "net", 12, 20)];
        assert!(b.push_txn(&t2));
        // Two more spans would exceed capacity 4 by one: whole txn drops.
        let id = b.alloc_id();
        let t3 = [span(id, 0, "read", 30, 44), span(b.alloc_id(), id, "net", 31, 40)];
        assert!(!b.push_txn(&t3));
        assert_eq!(b.len(), 3);
        assert_eq!(b.sampled_txns(), 2);
        assert_eq!(b.dropped_txns(), 1);
        // A one-span txn still fits.
        let id = b.alloc_id();
        assert!(b.push_txn(&[span(id, 0, "read", 50, 51)]));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dropped_txns(), 0);
        assert_eq!(b.alloc_id(), 1);
    }

    #[test]
    fn snapshot_merge_is_order_insensitive() {
        let mut a = SpanBuffer::new(16);
        let mut b = SpanBuffer::new(16);
        let ida = a.alloc_id();
        a.push_txn(&[span(ida, 0, "read", 0, 5)]);
        let mut sb = span(b.alloc_id(), 0, "write", 2, 9);
        sb.node = 1;
        b.push_txn(&[sb]);
        let mut ab = a.snapshot(4);
        ab.merge(&b.snapshot(4));
        let mut ba = b.snapshot(4);
        ba.merge(&a.snapshot(4));
        assert_eq!(ab, ba);
        assert_eq!(ab.sampled_txns, 2);
        assert_eq!(ab.sample_every, 4);
    }

    #[test]
    fn critical_path_attributes_nested_intervals_exactly() {
        // root read [0, 100): issue [0,1) + tlb_miss [1,31) + remote
        // [31,100) which itself splits into net + directory.
        let mut spans = vec![
            span(1, 0, "read", 0, 100),
            span(2, 1, "issue", 0, 1),
            span(3, 1, "tlb_miss", 1, 31),
            span(4, 1, "remote", 31, 100),
            span(5, 4, "net", 31, 61),
            span(6, 4, "directory", 61, 100),
        ];
        // An annotation hop must not perturb the attribution.
        let mut hop = span(7, 1, "hop", 31, 45);
        hop.category = SpanCategory::Annotation;
        spans.push(hop);

        let paths = critical_paths(&spans);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.kind, "read");
        assert_eq!(p.latency, 100);
        assert_eq!(p.unattributed, 0);
        assert_eq!(p.attributed.get("issue"), Some(&1));
        assert_eq!(p.attributed.get("tlb_miss"), Some(&30));
        assert_eq!(p.attributed.get("net"), Some(&30));
        assert_eq!(p.attributed.get("directory"), Some(&39));
        assert_eq!(p.attributed.get("remote"), None, "inner intervals recurse, not sum");
        let total: u64 = p.attributed.values().sum();
        assert_eq!(total + p.unattributed, p.latency, "conservation");
    }

    #[test]
    fn critical_path_reports_uncovered_cycles_and_bare_roots() {
        let spans = vec![
            span(1, 0, "write", 0, 50),
            span(2, 1, "issue", 0, 1),
            // 49 cycles of the root are uncovered.
            span(3, 0, "read", 60, 70), // bare root, no children
        ];
        let paths = critical_paths(&spans);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].unattributed, 49);
        assert_eq!(paths[1].latency, 10);
        assert_eq!(paths[1].unattributed, 10);
        assert!(paths[1].attributed.is_empty());
    }
}
