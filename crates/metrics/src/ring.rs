//! Bounded, cycle-stamped structured event ring.

/// One structured trace event.
///
/// `kind` is a `&'static str` rather than an enum so this crate stays
/// domain-agnostic: the simulator layers define their own kind
/// vocabularies (`"tlb_miss"`, `"dlb_lookup"`, `"swap_out"`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle at which the event occurred.
    pub cycle: u64,
    /// Node that observed the event.
    pub node: u16,
    /// Event kind, from the emitting layer's vocabulary.
    pub kind: &'static str,
    /// Physical or virtual address the event concerns.
    pub addr: u64,
}

/// A bounded ring buffer of [`Event`]s with an overwrite-oldest policy.
///
/// When full, pushing a new event evicts the oldest one and increments
/// [`dropped`](Self::dropped), so post-mortem analysis always knows how
/// much history was lost. A capacity of zero disables tracing entirely:
/// every push is counted as dropped and storage stays empty.
#[derive(Debug, Clone, Default)]
pub struct EventRing {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { buf: Vec::with_capacity(capacity.min(4096)), capacity, head: 0, dropped: 0 }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: Event) {
        if self.capacity == 0 {
            self.dropped += 1;
        } else if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of events currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events lost to overwrite (or to a zero capacity).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the stored events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Discards all stored events and resets the drop counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }

    /// Converts the stored events (oldest-first) into snapshot form.
    #[must_use]
    pub fn snapshot(&self) -> Vec<EventSnapshot> {
        self.iter()
            .map(|e| EventSnapshot {
                cycle: e.cycle,
                node: e.node,
                kind: e.kind.to_string(),
                addr: e.addr,
            })
            .collect()
    }
}

/// Owned form of an [`Event`], as error reports carry it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSnapshot {
    /// Simulated cycle at which the event occurred.
    pub cycle: u64,
    /// Node that observed the event.
    pub node: u16,
    /// Event kind.
    pub kind: String,
    /// Address the event concerns.
    pub addr: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> Event {
        Event { cycle, node: 0, kind: "test", addr: cycle * 64 }
    }

    #[test]
    fn fills_up_to_capacity_without_dropping() {
        let mut ring = EventRing::new(4);
        for c in 0..4 {
            ring.push(ev(c));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 0);
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3]);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let mut ring = EventRing::new(4);
        for c in 0..10 {
            ring.push(ev(c));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        // The six oldest (cycles 0..=5) were overwritten.
        let cycles: Vec<u64> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_stores_nothing_and_counts_everything() {
        let mut ring = EventRing::new(0);
        for c in 0..5 {
            ring.push(ev(c));
        }
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 5);
    }

    #[test]
    fn clear_resets_storage_and_drop_counter() {
        let mut ring = EventRing::new(2);
        for c in 0..5 {
            ring.push(ev(c));
        }
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
        ring.push(ev(9));
        assert_eq!(ring.iter().map(|e| e.cycle).collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn snapshot_preserves_oldest_first_order_after_wrap() {
        let mut ring = EventRing::new(3);
        for c in 0..5 {
            ring.push(ev(c));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.iter().map(|e| e.cycle).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(snap[0].kind, "test");
        assert_eq!(snap[0].addr, 2 * 64);
    }
}
