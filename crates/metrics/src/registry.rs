//! Named histograms and the event ring, and the serializable snapshot.

use crate::{Event, EventRing, Histogram, HistogramSnapshot, Mergeable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A registry of named histograms plus an event ring for one simulation.
///
/// Event counts live in each layer's own statistics struct (cache, TLB,
/// protocol and crossbar stats); the registry holds only what those
/// cannot: latency distributions and the flight recorder. Names are
/// `&'static str` so the fast path never allocates (`"latency.read"`,
/// ...). Keys are kept in a `BTreeMap` so iteration — and therefore every
/// serialized snapshot — is deterministic.
///
/// A hot path that records into the same histogram on every call resolves
/// its name once with [`histogram_slot`](Self::histogram_slot) and then
/// records through [`observe_slot`](Self::observe_slot), which is an index
/// into a `Vec` rather than a search by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
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
        Self { events: EventRing::new(event_capacity), ..Self::default() }
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

    /// Appends a structured event to the ring.
    pub fn trace(&mut self, event: Event) {
        self.events.push(event);
    }

    /// The event ring.
    #[must_use]
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Clears all metrics and the event ring (used at warmup reset).
    /// Histogram slots stay registered, and valid, with no samples.
    pub fn reset(&mut self) {
        self.histograms.fill(Histogram::new());
        self.events.clear();
    }

    /// Converts into the serializable, mergeable snapshot form: every
    /// histogram holding samples, in name order. The event ring stays
    /// behind: it is a live flight recorder, read through
    /// [`events`](Self::events), and no snapshot carries it.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let recorded = self.histogram_slots.iter().map(|(&name, &i)| (name, &self.histograms[i]));
        MetricsSnapshot {
            histograms: recorded
                .filter(|(_, h)| h.count() > 0)
                .map(|(name, h)| (name.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// Serializable snapshot of a [`MetricsRegistry`]'s histograms (not its
/// event ring).
///
/// This is what lands in `SimReport` and in `--metrics-out` JSON files.
/// Snapshots from parallel sweep jobs fold together through
/// [`Mergeable`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Cycle histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The named histogram snapshot, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}

impl Mergeable for MetricsSnapshot {
    fn merge(&mut self, other: &Self) {
        // Fully qualified: `BTreeMap` may grow an unrelated inherent
        // `merge` in a future std release (rust-lang/rust#48919).
        Mergeable::merge(&mut self.histograms, &other.histograms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_names_deterministically() {
        let mut reg = MetricsRegistry::new(4);
        reg.observe("b", 1);
        reg.observe("a", 2);
        reg.trace(Event { cycle: 7, node: 1, kind: "probe", addr: 0x40 });
        let snap = reg.snapshot();
        assert_eq!(snap.histograms.keys().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(snap.histogram("a").unwrap().sum, 2);
        assert_eq!(reg.events().len(), 1, "the event stays in the registry's ring");
    }

    #[test]
    fn snapshot_merge_folds_histograms() {
        let mut a = MetricsRegistry::new(8);
        let mut b = MetricsRegistry::new(8);
        a.observe("lat", 4);
        b.observe("lat", 10);
        b.observe("other", 1);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        s.merge(&b.snapshot());
        let lat = s.histogram("lat").unwrap();
        assert_eq!((lat.count, lat.sum, lat.min, lat.max), (3, 24, Some(4), Some(10)));
        assert_eq!(s.histogram("other").unwrap().count, 2);
    }

    #[test]
    fn slots_record_like_names_and_survive_reset() {
        let mut reg = MetricsRegistry::new(4);
        let slot = reg.histogram_slot("lat");
        assert_eq!(reg.histogram_slot("lat"), slot);
        assert!(reg.snapshot().histograms.is_empty(), "a registered, empty histogram is absent");
        reg.observe_slot(slot, 5);
        reg.observe("lat", 7);
        assert_eq!(reg.snapshot().histogram("lat").unwrap().count, 2);
        reg.reset();
        assert!(reg.snapshot().histograms.is_empty());
        reg.observe_slot(slot, 9);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut reg = MetricsRegistry::new(4);
        reg.observe("h", 1);
        reg.trace(Event { cycle: 0, node: 0, kind: "e", addr: 0 });
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.histograms.is_empty());
        assert!(reg.events().is_empty());
        assert_eq!(reg.events().dropped(), 0);
    }
}
