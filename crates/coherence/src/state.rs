//! Attraction-memory block states and the coherence directory.

use vcoma_types::{IntMap, NodeId, MAX_NODES};

/// State of a resident attraction-memory block (paper §4.2). Absence from
/// the AM array is the fourth state, *Invalid*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmState {
    /// A read-only copy; other copies exist, one of them is the master.
    Shared,
    /// The read-only *master* copy — the one responsible for injection on
    /// replacement and for supplying data to readers.
    MasterShared,
    /// The only copy, writable.
    Exclusive,
}

impl AmState {
    /// Returns `true` for the states that carry ownership (Master-shared or
    /// Exclusive) and therefore must be injected rather than dropped on
    /// replacement.
    pub const fn is_owner(self) -> bool {
        matches!(self, AmState::MasterShared | AmState::Exclusive)
    }

    /// Returns `true` if a local write can proceed without a coherence
    /// transaction.
    pub const fn satisfies_write(self) -> bool {
        matches!(self, AmState::Exclusive)
    }
}

impl std::fmt::Display for AmState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmState::Shared => f.write_str("S"),
            AmState::MasterShared => f.write_str("MS"),
            AmState::Exclusive => f.write_str("E"),
        }
    }
}

/// A directory record's handle: the offset of its first word in
/// [`Directory`]'s record slab. Valid from the call that creates the entry
/// until [`Directory::purge`] drops it, so a transaction looks its block
/// up once and works on the handle from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

impl Slot {
    const fn at(self) -> usize {
        self.0 as usize
    }
}

/// The machine's distributed directory: one entry per block the machine
/// has touched, held (logically) at the block's home node.
///
/// An entry records the nodes holding a copy — one presence bit per node —
/// and the node holding the master copy. Each entry is one record of
/// `1 + ceil(nodes / 64)` words in a flat slab: a meta word packing the
/// home (bits 0–15) and the master plus one (bits 16–32, zero for none),
/// then the presence mask. At the paper's 32 nodes that is 16 bytes per
/// block. A block-to-slot map finds the record; records freed by
/// [`Directory::purge`] are reused.
#[derive(Debug, Clone)]
pub struct Directory {
    index: IntMap<u64, u32>,
    recs: Vec<u64>,
    words: usize,
    free: Vec<u32>,
}

const MASTER_SHIFT: u32 = 16;

impl Directory {
    /// An empty directory for a machine of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or above [`MAX_NODES`].
    pub fn new(nodes: u64) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&nodes),
            "the directory covers 1 to {MAX_NODES} nodes, got {nodes}"
        );
        Directory {
            index: IntMap::default(),
            recs: Vec::new(),
            words: nodes.div_ceil(64) as usize,
            free: Vec::new(),
        }
    }

    /// The entry for `block`, created empty with home `home` if the block
    /// has none.
    pub fn entry(&mut self, block: u64, home: NodeId) -> Slot {
        let Directory { index, recs, words, free } = self;
        let at = *index.entry(block).or_insert_with(|| {
            let at = free.pop().unwrap_or_else(|| {
                let at = u32::try_from(recs.len()).expect("directory slab fits u32 offsets");
                recs.resize(recs.len() + 1 + *words, 0);
                at
            });
            let rec = &mut recs[at as usize..=at as usize + *words];
            rec.fill(0);
            rec[0] = u64::from(home.raw());
            at
        });
        Slot(at)
    }

    /// The entry for `block`, if it has one.
    pub fn slot(&self, block: u64) -> Option<Slot> {
        self.index.get(&block).copied().map(Slot)
    }

    /// Returns `true` if `block` has an entry.
    pub fn contains(&self, block: u64) -> bool {
        self.index.contains_key(&block)
    }

    /// Every block with an entry, in no particular order.
    pub fn blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.index.keys().copied()
    }

    /// The home node the entry lives at.
    pub fn home(&self, s: Slot) -> NodeId {
        NodeId::new(self.recs[s.at()] as u16)
    }

    /// The node holding the Master-shared or Exclusive copy, if any.
    pub fn master(&self, s: Slot) -> Option<NodeId> {
        match self.recs[s.at()] >> MASTER_SHIFT {
            0 => None,
            m => Some(NodeId::new((m - 1) as u16)),
        }
    }

    /// Sets (or clears) the master.
    pub fn set_master(&mut self, s: Slot, master: Option<NodeId>) {
        let plus_one = master.map_or(0, |m| u64::from(m.raw()) + 1);
        let meta = &mut self.recs[s.at()];
        *meta = (*meta & 0xFFFF) | (plus_one << MASTER_SHIFT);
    }

    fn mask(&self, s: Slot) -> &[u64] {
        &self.recs[s.at() + 1..=s.at() + self.words]
    }

    fn mask_mut(&mut self, s: Slot) -> &mut [u64] {
        let words = self.words;
        &mut self.recs[s.at() + 1..=s.at() + words]
    }

    /// Returns `true` if `node` holds a copy.
    pub fn holds(&self, s: Slot, node: NodeId) -> bool {
        let i = node.index();
        self.mask(s)[i / 64] & (1 << (i % 64)) != 0
    }

    /// Records that `node` holds a copy.
    pub fn add(&mut self, s: Slot, node: NodeId) {
        let i = node.index();
        self.mask_mut(s)[i / 64] |= 1 << (i % 64);
    }

    /// Records that `node` no longer holds a copy (a no-op if it did
    /// not), clearing the master if it was `node`.
    pub fn remove(&mut self, s: Slot, node: NodeId) {
        let i = node.index();
        self.mask_mut(s)[i / 64] &= !(1 << (i % 64));
        if self.master(s) == Some(node) {
            self.set_master(s, None);
        }
    }

    /// Makes `node` the only holder. The master is left as it was.
    pub fn set_only(&mut self, s: Slot, node: NodeId) {
        let i = node.index();
        let mask = self.mask_mut(s);
        mask.fill(0);
        mask[i / 64] = 1 << (i % 64);
    }

    /// Number of copies.
    pub fn copies(&self, s: Slot) -> u32 {
        self.mask(s).iter().map(|w| w.count_ones()).sum()
    }

    /// Returns `true` if no node holds a copy.
    pub fn is_uncached(&self, s: Slot) -> bool {
        self.mask(s).iter().all(|&w| w == 0)
    }

    /// The lowest-numbered holder at or above node index `from`. Walking
    /// with `next_holder(s, h.index() + 1)` visits holders in ascending
    /// order and tolerates removing each holder as it is visited.
    pub fn next_holder(&self, s: Slot, from: usize) -> Option<NodeId> {
        let mask = self.mask(s);
        let mut w = from / 64;
        let mut bits = *mask.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(NodeId::new((w * 64 + bits.trailing_zeros() as usize) as u16));
            }
            w += 1;
            bits = *mask.get(w)?;
        }
    }

    /// The holders in ascending node order.
    pub fn holders(&self, s: Slot) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.next_holder(s, 0), move |h| self.next_holder(s, h.index() + 1))
    }

    /// Drops `block`'s entry, returning its holders in ascending node
    /// order (empty if the block had no entry). The record is reused by
    /// the next new entry.
    pub fn purge(&mut self, block: u64) -> Vec<NodeId> {
        let Some(at) = self.index.remove(&block) else {
            return Vec::new();
        };
        let holders = self.holders(Slot(at)).collect();
        self.free.push(at);
        holders
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn am_state_predicates() {
        assert!(!AmState::Shared.is_owner());
        assert!(AmState::MasterShared.is_owner());
        assert!(AmState::Exclusive.is_owner());
        assert!(AmState::Exclusive.satisfies_write());
        assert!(!AmState::MasterShared.satisfies_write());
        assert!(!AmState::Shared.satisfies_write());
    }

    #[test]
    fn am_state_display() {
        assert_eq!(AmState::Shared.to_string(), "S");
        assert_eq!(AmState::MasterShared.to_string(), "MS");
        assert_eq!(AmState::Exclusive.to_string(), "E");
    }

    const fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    fn raw(nodes: impl Iterator<Item = NodeId>) -> Vec<u16> {
        nodes.map(NodeId::raw).collect()
    }

    #[test]
    fn dir_entry_add_remove() {
        let mut d = Directory::new(32);
        let e = d.entry(7, n(0));
        assert!(d.is_uncached(e));
        d.add(e, n(3));
        d.add(e, n(5));
        d.set_master(e, Some(n(3)));
        assert!(d.holds(e, n(3)));
        assert!(d.holds(e, n(5)));
        assert!(!d.holds(e, n(4)));
        assert_eq!(d.copies(e), 2);
        assert_eq!(d.home(e), n(0));
        d.remove(e, n(3));
        assert!(!d.holds(e, n(3)));
        assert_eq!(d.master(e), None, "removing the master clears the master field");
        assert_eq!(d.copies(e), 1);
        assert_eq!(d.entry(7, n(0)), e, "an existing entry keeps its slot");
    }

    #[test]
    fn holders_except_skips_the_exception() {
        // The invalidation walk: visit holders in ascending order, skip
        // the requester, remove each visited holder as it goes.
        let mut d = Directory::new(32);
        let e = d.entry(1, n(0));
        for i in [1u16, 2, 7] {
            d.add(e, n(i));
        }
        let mut visited = Vec::new();
        let mut next = d.next_holder(e, 0);
        while let Some(h) = next {
            next = d.next_holder(e, h.index() + 1);
            if h != n(2) {
                visited.push(h.raw());
                d.remove(e, h);
            }
        }
        assert_eq!(visited, vec![1, 7]);
        assert_eq!(raw(d.holders(e)), vec![2]);
    }

    #[test]
    fn copyset_scales_past_64_nodes() {
        // Regression: the single-u64 predecessor overflowed its shift at
        // node 64 and capped the directory at 64-node machines.
        let mut d = Directory::new(1024);
        let e = d.entry(0, n(1023));
        for i in [0u16, 63, 64, 255, 1023] {
            d.add(e, n(i));
            assert!(d.holds(e, n(i)), "node {i}");
        }
        assert_eq!(d.copies(e), 5);
        assert_eq!(raw(d.holders(e)), vec![0, 63, 64, 255, 1023], "ascending node order");
        assert_eq!(d.next_holder(e, 256).map(NodeId::raw), Some(1023));
        d.set_master(e, Some(n(1023)));
        assert_eq!(d.master(e), Some(n(1023)));
        assert_eq!(d.home(e), n(1023), "home and master share the meta word");
        d.remove(e, n(64));
        assert!(!d.holds(e, n(64)));
        assert_eq!(d.copies(e), 4);
        d.set_only(e, n(100));
        assert_eq!(raw(d.holders(e)), vec![100]);
    }

    #[test]
    fn remove_nonholder_is_noop() {
        let mut d = Directory::new(32);
        let e = d.entry(9, n(0));
        d.add(e, n(1));
        d.set_master(e, Some(n(1)));
        d.remove(e, n(9));
        assert!(d.holds(e, n(1)));
        assert_eq!(d.copies(e), 1);
        assert_eq!(d.master(e), Some(n(1)));
    }

    #[test]
    fn purge_frees_the_record_for_reuse() {
        let mut d = Directory::new(65);
        let e = d.entry(5, n(3));
        d.add(e, n(64));
        d.add(e, n(0));
        d.set_master(e, Some(n(64)));
        assert_eq!(raw(d.purge(5).into_iter()), vec![0, 64]);
        assert!(!d.contains(5));
        assert!(d.purge(5).is_empty(), "purging an unknown block is a no-op");
        let f = d.entry(6, n(1));
        assert_eq!(f, e, "the freed record is reused");
        assert!(d.is_uncached(f), "a reused record starts empty");
        assert_eq!((d.home(f), d.master(f)), (n(1), None));
    }

    #[test]
    #[should_panic(expected = "1 to 1024 nodes")]
    fn directory_rejects_machines_above_the_limit() {
        let _ = Directory::new(MAX_NODES + 1);
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;
        use std::collections::{BTreeMap, BTreeSet};

        /// Node counts covering one word, a word boundary, the paper
        /// machine and the limit.
        const NODE_COUNTS: [u64; 7] = [1, 2, 32, 64, 65, 256, 1024];

        /// The reference model of one entry: a sorted holder set, the
        /// master, and the home.
        #[derive(Debug, Default)]
        struct Model {
            holders: BTreeSet<u16>,
            master: Option<u16>,
            home: u16,
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn directory_matches_a_reference_model(
                which in 0usize..7,
                ops in proptest::collection::vec((0u8..6, 0u64..8, 0u16..1024), 1..300),
            ) {
                let nodes = NODE_COUNTS[which];
                let mut d = Directory::new(nodes);
                let mut model: BTreeMap<u64, Model> = BTreeMap::new();
                for (op, block, node) in ops {
                    let node = (u64::from(node) % nodes) as u16;
                    let home = (block % nodes) as u16;
                    if op == 5 {
                        let got = raw(d.purge(block).into_iter());
                        let want: Vec<u16> = model
                            .remove(&block)
                            .map_or_else(Vec::new, |m| m.holders.into_iter().collect());
                        prop_assert_eq!(got, want);
                        continue;
                    }
                    let s = d.entry(block, n(home));
                    let m = model
                        .entry(block)
                        .or_insert_with(|| Model { home, ..Model::default() });
                    match op {
                        0 => {
                            d.add(s, n(node));
                            m.holders.insert(node);
                        }
                        1 => {
                            d.remove(s, n(node));
                            m.holders.remove(&node);
                            if m.master == Some(node) {
                                m.master = None;
                            }
                        }
                        2 => {
                            d.set_only(s, n(node));
                            m.holders = BTreeSet::from([node]);
                        }
                        3 => {
                            d.set_master(s, Some(n(node)));
                            m.master = Some(node);
                        }
                        _ => {
                            d.set_master(s, None);
                            m.master = None;
                        }
                    }
                }
                let blocks: BTreeSet<u64> = d.blocks().collect();
                prop_assert_eq!(blocks, model.keys().copied().collect());
                for (&block, m) in &model {
                    let s = d.slot(block).expect("modelled block has an entry");
                    let holders = raw(d.holders(s));
                    prop_assert!(holders.windows(2).all(|w| w[0] < w[1]), "ascending: {holders:?}");
                    prop_assert_eq!(holders, m.holders.iter().copied().collect::<Vec<u16>>());
                    prop_assert_eq!(d.copies(s) as usize, m.holders.len());
                    prop_assert_eq!(d.is_uncached(s), m.holders.is_empty());
                    prop_assert_eq!(d.master(s).map(NodeId::raw), m.master);
                    prop_assert_eq!(d.home(s).raw(), m.home);
                    for i in 0..nodes as u16 {
                        prop_assert_eq!(d.holds(s, n(i)), m.holders.contains(&i));
                    }
                }
            }
        }
    }
}
