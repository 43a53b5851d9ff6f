//! Named counters, gauges and histograms, and the serializable snapshot.

use crate::{Event, EventRing, Histogram, HistogramSnapshot, Mergeable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A registry of named metrics for one simulation (or one node).
///
/// Names are `&'static str` so the fast path never allocates; the
/// simulator layers register with string literals from their own
/// vocabularies (`"protocol.read_miss"`, `"tlb.l1.evict"`, ...). Keys are
/// kept in a `BTreeMap` so iteration — and therefore every serialized
/// snapshot — is deterministic.
///
/// A hot path that records into the same histogram on every call resolves
/// its name once with [`histogram_slot`](Self::histogram_slot) and then
/// records through [`observe_slot`](Self::observe_slot), which is an index
/// into a `Vec` rather than a search by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    /// Histogram name → position in `histograms`. A registered histogram
    /// with no samples is absent from every view of the registry.
    histogram_slots: BTreeMap<&'static str, usize>,
    histograms: Vec<Histogram>,
    events: EventRing,
}

/// A histogram of one [`MetricsRegistry`], resolved by name once (see
/// [`MetricsRegistry::histogram_slot`]). Valid only for the registry that
/// returned it, across [`reset`](MetricsRegistry::reset)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSlot(usize);

impl MetricsRegistry {
    /// Creates an empty registry with an event ring of `event_capacity`.
    #[must_use]
    pub fn new(event_capacity: usize) -> Self {
        Self {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histogram_slots: BTreeMap::new(),
            histograms: Vec::new(),
            events: EventRing::new(event_capacity),
        }
    }

    /// Adds `delta` to the named counter, creating it at zero first.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Shorthand for [`count`](Self::count) with a delta of one.
    pub fn incr(&mut self, name: &'static str) {
        self.count(name, 1);
    }

    /// Sets the named gauge to an absolute value.
    pub fn gauge(&mut self, name: &'static str, value: i64) {
        self.gauges.insert(name, value);
    }

    /// Records one sample into the named histogram.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        let slot = self.histogram_slot(name);
        self.observe_slot(slot, value);
    }

    /// Resolves the named histogram to a slot, registering it (empty) if
    /// it is new.
    pub fn histogram_slot(&mut self, name: &'static str) -> HistogramSlot {
        let next = self.histograms.len();
        let index = *self.histogram_slots.entry(name).or_insert(next);
        if index == next {
            self.histograms.push(Histogram::new());
        }
        HistogramSlot(index)
    }

    /// Records one sample into a histogram resolved by
    /// [`histogram_slot`](Self::histogram_slot).
    #[inline]
    pub fn observe_slot(&mut self, slot: HistogramSlot, value: u64) {
        self.histograms[slot.0].record(value);
    }

    /// Every histogram holding samples, in name order.
    fn recorded_histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.histogram_slots
            .iter()
            .map(|(&name, &i)| (name, &self.histograms[i]))
            .filter(|(_, h)| h.count() > 0)
    }

    /// Appends a structured event to the ring.
    pub fn trace(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Current value of a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        let h = &self.histograms[*self.histogram_slots.get(name)?];
        (h.count() > 0).then_some(h)
    }

    /// The event ring.
    #[must_use]
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Clears all metrics and the event ring (used at warmup reset).
    /// Histogram slots stay registered, and valid, with no samples.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.fill(Histogram::new());
        self.events.clear();
    }

    /// Converts into the serializable, mergeable snapshot form. The event
    /// ring stays behind: it is a live flight recorder, read through
    /// [`events`](Self::events), and no snapshot carries it.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            gauges: self.gauges.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            histograms: self
                .recorded_histograms()
                .map(|(k, h)| (k.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

impl Mergeable for MetricsRegistry {
    fn merge(&mut self, other: &Self) {
        // Fully qualified: `BTreeMap` may grow an unrelated inherent
        // `merge` in a future std release (rust-lang/rust#48919).
        Mergeable::merge(&mut self.counters, &other.counters);
        for (k, v) in &other.gauges {
            // Gauges are point-in-time values; the merged registry keeps
            // the larger magnitude (useful for high-water marks).
            let slot = self.gauges.entry(k).or_insert(0);
            if v.abs() > slot.abs() {
                *slot = *v;
            }
        }
        for (name, h) in other.recorded_histograms() {
            let slot = self.histogram_slot(name);
            self.histograms[slot.0].merge(h);
        }
        Mergeable::merge(&mut self.events, &other.events);
    }
}

/// Serializable snapshot of a [`MetricsRegistry`]'s counters, gauges and
/// histograms (not its event ring).
///
/// This is what lands in `SimReport` and in `--metrics-out` JSON files.
/// Snapshots from parallel sweep jobs fold together through
/// [`Mergeable`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Cycle histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Current value of a counter (zero if absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram snapshot, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

impl Mergeable for MetricsSnapshot {
    fn merge(&mut self, other: &Self) {
        Mergeable::merge(&mut self.counters, &other.counters);
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_insert(0);
            if v.abs() > slot.abs() {
                *slot = *v;
            }
        }
        Mergeable::merge(&mut self.histograms, &other.histograms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new(16);
        assert_eq!(reg.counter("absent"), 0);
        reg.incr("hits");
        reg.count("hits", 2);
        assert_eq!(reg.counter("hits"), 3);
    }

    #[test]
    fn snapshot_round_trips_names_deterministically() {
        let mut reg = MetricsRegistry::new(4);
        reg.incr("b");
        reg.incr("a");
        reg.observe("lat", 42);
        reg.trace(Event { cycle: 7, node: 1, kind: "probe", addr: 0x40 });
        let snap = reg.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(reg.events().len(), 1, "the event stays in the registry's ring");
    }

    #[test]
    fn merge_folds_counters_histograms_and_drops() {
        let mut a = MetricsRegistry::new(8);
        let mut b = MetricsRegistry::new(1);
        b.count("x", 5);
        b.observe("lat", 10);
        b.trace(Event { cycle: 1, node: 0, kind: "e", addr: 0 });
        b.trace(Event { cycle: 2, node: 0, kind: "e", addr: 0 });
        assert_eq!(b.events().dropped(), 1);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.counter("x"), 10);
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        assert_eq!(a.events().dropped(), 2);
        assert_eq!(a.events().len(), 2);
        // Snapshots fold the same way, minus the ring.
        let mut s = MetricsRegistry::new(8).snapshot();
        s.merge(&b.snapshot());
        s.merge(&b.snapshot());
        assert_eq!(s.counter("x"), 10);
        assert_eq!(s.histogram("lat").unwrap().count, 2);
    }

    #[test]
    fn slots_record_like_names_and_survive_reset() {
        let mut reg = MetricsRegistry::new(4);
        let slot = reg.histogram_slot("lat");
        assert_eq!(reg.histogram_slot("lat"), slot);
        assert!(reg.histogram("lat").is_none(), "a registered, empty histogram is absent");
        assert!(reg.snapshot().histograms.is_empty());
        reg.observe_slot(slot, 5);
        reg.observe("lat", 7);
        assert_eq!(reg.histogram("lat").unwrap().count(), 2);
        reg.reset();
        assert!(reg.histogram("lat").is_none());
        reg.observe_slot(slot, 9);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn registry_merge_skips_empty_histograms() {
        let mut a = MetricsRegistry::new(4);
        let mut b = MetricsRegistry::new(4);
        b.histogram_slot("empty");
        b.observe("lat", 3);
        a.observe("lat", 4);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.histograms.keys().collect::<Vec<_>>(), vec!["lat"]);
        assert_eq!(snap.histogram("lat").unwrap().count, 2);
    }

    #[test]
    fn reset_clears_everything() {
        let mut reg = MetricsRegistry::new(4);
        reg.incr("n");
        reg.observe("h", 1);
        reg.trace(Event { cycle: 0, node: 0, kind: "e", addr: 0 });
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(reg.events().is_empty());
        assert_eq!(reg.events().dropped(), 0);
    }
}
