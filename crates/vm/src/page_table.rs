//! The global page table.

use crate::{DirectoryAllocator, FrameAllocator, VmError};
use vcoma_types::{IntMap, MachineConfig, PFrame, VPage};

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Physical frame backing the page (L0–L3 schemes). `None` in V-COMA.
    pub frame: Option<PFrame>,
    /// Directory page allocated to the page (V-COMA). `None` in L0–L3.
    pub dir_page: Option<u64>,
}

/// The machine-wide page table.
///
/// A single logical table suffices because the global virtual address space
/// is synonym-free; physically it would be distributed across the nodes'
/// private memories (each home node stores the entries of its own pages —
/// paper §4.1), which the simulator models through the home-node accounting
/// of its callers.
#[derive(Debug, Clone)]
pub struct PageTable {
    cfg: MachineConfig,
    entries: IntMap<VPage, PageEntry>,
}

impl PageTable {
    /// Creates an empty page table for the given machine.
    pub fn new(cfg: MachineConfig) -> Self {
        PageTable { cfg, entries: IntMap::default() }
    }

    /// The machine configuration the table was built for.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the physical frame of a mapped page.
    pub fn frame_of(&self, page: VPage) -> Option<PFrame> {
        self.entries.get(&page).and_then(|e| e.frame)
    }

    /// Returns the directory page of a mapped page (V-COMA).
    pub fn dir_page_of(&self, page: VPage) -> Option<u64> {
        self.entries.get(&page).and_then(|e| e.dir_page)
    }

    /// Maps a page to a physical frame drawn from `alloc` (L0–L3 schemes).
    /// Idempotent: an already-mapped page returns its existing frame.
    ///
    /// # Errors
    ///
    /// Propagates the allocator's error if no suitable frame exists.
    pub fn map_physical(
        &mut self,
        page: VPage,
        alloc: &mut dyn FrameAllocator,
    ) -> Result<PFrame, VmError> {
        if let Some(e) = self.entries.get(&page) {
            if let Some(f) = e.frame {
                return Ok(f);
            }
        }
        let frame = alloc.allocate(page, &self.cfg)?;
        let e = self.entries.entry(page).or_insert(PageEntry { frame: None, dir_page: None });
        e.frame = Some(frame);
        Ok(frame)
    }

    /// Maps a page to a V-COMA directory page drawn from `alloc`.
    /// Idempotent: an already-mapped page returns its existing directory
    /// page.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::GlobalSetFull`] if the page's global page set has
    /// no free page slot.
    pub fn map_directory(
        &mut self,
        page: VPage,
        alloc: &mut DirectoryAllocator,
    ) -> Result<u64, VmError> {
        if let Some(e) = self.entries.get(&page) {
            if let Some(dp) = e.dir_page {
                return Ok(dp);
            }
        }
        let dir_page = alloc.allocate(page, &self.cfg)?;
        let e = self.entries.entry(page).or_insert(PageEntry { frame: None, dir_page: None });
        e.dir_page = Some(dir_page);
        Ok(dir_page)
    }

    /// Unmaps a page, returning its entry.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] if the page was not mapped.
    pub fn unmap(&mut self, page: VPage) -> Result<PageEntry, VmError> {
        self.entries.remove(&page).ok_or(VmError::NotMapped(page))
    }

    /// Iterates over all mapped `(page, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VPage, &PageEntry)> {
        self.entries.iter().map(|(p, e)| (*p, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoundRobinAllocator;

    fn setup() -> (PageTable, RoundRobinAllocator) {
        let cfg = MachineConfig::tiny();
        let alloc = RoundRobinAllocator::new(&cfg);
        (PageTable::new(cfg), alloc)
    }

    #[test]
    fn map_physical_is_idempotent() {
        let (mut pt, mut alloc) = setup();
        let f1 = pt.map_physical(VPage::new(3), &mut alloc).unwrap();
        let f2 = pt.map_physical(VPage::new(3), &mut alloc).unwrap();
        assert_eq!(f1, f2);
        assert_eq!(pt.len(), 1);
        assert_eq!(pt.frame_of(VPage::new(3)), Some(f1));
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let (mut pt, mut alloc) = setup();
        let f1 = pt.map_physical(VPage::new(1), &mut alloc).unwrap();
        let f2 = pt.map_physical(VPage::new(2), &mut alloc).unwrap();
        assert_ne!(f1, f2);
    }

    #[test]
    fn unmap_then_lookup_fails() {
        let (mut pt, mut alloc) = setup();
        pt.map_physical(VPage::new(1), &mut alloc).unwrap();
        let e = pt.unmap(VPage::new(1)).unwrap();
        assert!(e.frame.is_some());
        assert_eq!(pt.frame_of(VPage::new(1)), None);
        assert_eq!(pt.unmap(VPage::new(1)), Err(VmError::NotMapped(VPage::new(1))));
    }

    #[test]
    fn map_directory_is_idempotent() {
        let cfg = MachineConfig::tiny();
        let mut pt = PageTable::new(cfg.clone());
        let mut dalloc = DirectoryAllocator::new(&cfg);
        let p = VPage::new(9);
        let dp = pt.map_directory(p, &mut dalloc).unwrap();
        assert_eq!(pt.dir_page_of(p), Some(dp));
        assert_eq!(pt.map_directory(p, &mut dalloc).unwrap(), dp);
    }

    #[test]
    fn iter_covers_all_mappings() {
        let (mut pt, mut alloc) = setup();
        for i in 0..10 {
            pt.map_physical(VPage::new(i), &mut alloc).unwrap();
        }
        assert_eq!(pt.iter().count(), 10);
        assert!(!pt.is_empty());
    }
}
