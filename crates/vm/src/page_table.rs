//! The global page table.

use crate::{DirectoryAllocator, FrameAllocator, VmError};
use vcoma_types::{DirAddr, IntMap, MachineConfig, PFrame, Protection, VPage};

/// One page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageEntry {
    /// Physical frame backing the page (L0–L3 schemes). `None` in V-COMA.
    pub frame: Option<PFrame>,
    /// Directory page allocated to the page (V-COMA). `None` in L0–L3.
    pub dir_page: Option<u64>,
    /// Referenced bit, maintained by the TLB/DLB refill path.
    pub referenced: bool,
    /// Modified bit (paper §4.3: set on first write-ownership request).
    pub modified: bool,
    /// Page-level protection.
    pub prot: Protection,
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

    /// Returns the entry for a page, if mapped.
    pub fn entry(&self, page: VPage) -> Option<&PageEntry> {
        self.entries.get(&page)
    }

    /// Returns a mutable entry for a page, if mapped.
    pub fn entry_mut(&mut self, page: VPage) -> Option<&mut PageEntry> {
        self.entries.get_mut(&page)
    }

    /// Returns the physical frame of a mapped page.
    pub fn frame_of(&self, page: VPage) -> Option<PFrame> {
        self.entries.get(&page).and_then(|e| e.frame)
    }

    /// Returns the directory page of a mapped page (V-COMA).
    pub fn dir_page_of(&self, page: VPage) -> Option<u64> {
        self.entries.get(&page).and_then(|e| e.dir_page)
    }

    /// Returns the directory address of a block within a mapped page
    /// (V-COMA): `dir_page × blocks_per_page + block_in_page`.
    pub fn dir_addr_of(&self, page: VPage, block_in_page: u64) -> Option<DirAddr> {
        let bpp = self.cfg.blocks_per_page();
        debug_assert!(block_in_page < bpp);
        self.dir_page_of(page).map(|dp| DirAddr::new(dp, block_in_page, bpp))
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
        let e = self.entries.entry(page).or_insert(PageEntry {
            frame: None,
            dir_page: None,
            referenced: false,
            modified: false,
            prot: Protection::read_write(),
        });
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
        let e = self.entries.entry(page).or_insert(PageEntry {
            frame: None,
            dir_page: None,
            referenced: false,
            modified: false,
            prot: Protection::read_write(),
        });
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

    /// Sets the referenced bit, returning the previous value.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] if the page was not mapped.
    pub fn set_referenced(&mut self, page: VPage) -> Result<bool, VmError> {
        let e = self.entries.get_mut(&page).ok_or(VmError::NotMapped(page))?;
        Ok(std::mem::replace(&mut e.referenced, true))
    }

    /// Sets the modified bit (paper §4.3: at the home, when a node first
    /// requests exclusive ownership of any block of the page), returning the
    /// previous value.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] if the page was not mapped.
    pub fn set_modified(&mut self, page: VPage) -> Result<bool, VmError> {
        let e = self.entries.get_mut(&page).ok_or(VmError::NotMapped(page))?;
        Ok(std::mem::replace(&mut e.modified, true))
    }

    /// Clears every referenced bit (the periodic page-daemon sweep the PE
    /// could perform — paper §4.1).
    pub fn clear_referenced_bits(&mut self) {
        for e in self.entries.values_mut() {
            e.referenced = false;
        }
    }

    /// Changes a page's protection, returning the old protection.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] if the page was not mapped.
    pub fn protect(&mut self, page: VPage, prot: Protection) -> Result<Protection, VmError> {
        let e = self.entries.get_mut(&page).ok_or(VmError::NotMapped(page))?;
        Ok(std::mem::replace(&mut e.prot, prot))
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
    fn referenced_and_modified_bits() {
        let (mut pt, mut alloc) = setup();
        let p = VPage::new(5);
        pt.map_physical(p, &mut alloc).unwrap();
        assert_eq!(pt.set_referenced(p), Ok(false));
        assert_eq!(pt.set_referenced(p), Ok(true));
        assert_eq!(pt.set_modified(p), Ok(false));
        assert_eq!(pt.set_modified(p), Ok(true));
        pt.clear_referenced_bits();
        assert!(!pt.entry(p).unwrap().referenced);
        assert!(pt.entry(p).unwrap().modified); // sweep leaves modified alone
        assert_eq!(pt.set_referenced(VPage::new(99)), Err(VmError::NotMapped(VPage::new(99))));
    }

    #[test]
    fn protect_replaces_rights() {
        let (mut pt, mut alloc) = setup();
        let p = VPage::new(5);
        pt.map_physical(p, &mut alloc).unwrap();
        let old = pt.protect(p, Protection::read_only()).unwrap();
        assert_eq!(old, Protection::read_write());
        assert_eq!(pt.entry(p).unwrap().prot, Protection::read_only());
    }

    #[test]
    fn dir_addr_of_combines_page_and_block() {
        let cfg = MachineConfig::tiny();
        let bpp = cfg.blocks_per_page();
        let mut pt = PageTable::new(cfg.clone());
        let mut dalloc = DirectoryAllocator::new(&cfg);
        let p = VPage::new(9);
        let dp = pt.map_directory(p, &mut dalloc).unwrap();
        let da = pt.dir_addr_of(p, 3).unwrap();
        assert_eq!(da.raw(), dp * bpp + 3);
        assert_eq!(pt.dir_page_of(p), Some(dp));
        // Idempotent.
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
