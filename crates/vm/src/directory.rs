//! V-COMA directory-page allocation.
//!
//! In V-COMA the directory memory at each home node is organised in
//! *directory pages* — one directory entry per attraction-memory block of a
//! memory page (paper §4.2). A directory page plays the role the pageframe
//! plays in a classical system (§4.3): it is allocated when a page is first
//! created and reclaimed when the page is swapped out.
//!
//! Because the attraction memory is set-associative over virtual addresses,
//! the VA → directory-page mapping is itself set-associative over *global
//! page sets*: each global page set has `nodes × assoc` page slots, and if a
//! new page's global set is saturated the page daemon must swap a resident
//! page of the same set out (§3.4, §6).

use crate::VmError;
use vcoma_types::{MachineConfig, VPage};

/// Allocator of V-COMA directory pages, tracking global-page-set occupancy.
#[derive(Debug, Clone)]
pub struct DirectoryAllocator {
    /// Next directory-page number per home node. Directory pages are
    /// node-local; their numbers are only meaningful together with the home.
    next_dir_page: Vec<u64>,
    /// Resident pages per global page set.
    occupancy: Vec<u64>,
    /// Page slots per global page set (`nodes × assoc`).
    slots_per_set: u64,
}

impl DirectoryAllocator {
    /// Creates an allocator for the machine with every global page set empty.
    pub fn new(cfg: &MachineConfig) -> Self {
        DirectoryAllocator {
            next_dir_page: vec![0; cfg.nodes as usize],
            occupancy: vec![0; cfg.global_page_sets() as usize],
            slots_per_set: cfg.page_slots_per_global_set(),
        }
    }

    /// Allocates a directory page at `page`'s home node.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::GlobalSetFull`] when the page's global page set
    /// has no free slot. (The simulator treats this as a forced swap that
    /// the preloaded workloads never trigger; callers that model paging can
    /// call [`DirectoryAllocator::swap_out`] and retry.)
    pub fn allocate(&mut self, page: VPage, cfg: &MachineConfig) -> Result<u64, VmError> {
        let set = cfg.global_page_set_of(page) as usize;
        if self.occupancy[set] >= self.slots_per_set {
            return Err(VmError::GlobalSetFull { set: set as u64 });
        }
        self.occupancy[set] += 1;
        let home = cfg.home_of_vpage(page).index();
        let dp = self.next_dir_page[home];
        self.next_dir_page[home] += 1;
        Ok(dp)
    }

    /// Releases a resident page's slot in its global page set (swap-out or
    /// unmap). The simulator counts swap-outs itself; this only frees the
    /// slot.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] if the set has no resident page to
    /// release.
    pub fn swap_out(&mut self, page: VPage, cfg: &MachineConfig) -> Result<(), VmError> {
        let set = cfg.global_page_set_of(page) as usize;
        if self.occupancy[set] == 0 {
            return Err(VmError::NotMapped(page));
        }
        self.occupancy[set] -= 1;
        Ok(())
    }

    /// Pressure of one global page set in `[0, 1]`.
    pub fn pressure(&self, set: u64) -> f64 {
        self.occupancy[set as usize % self.occupancy.len()] as f64 / self.slots_per_set as f64
    }

    /// Occupancy (resident pages) per global page set.
    pub fn occupancy(&self) -> &[u64] {
        &self.occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_sequential_dir_pages_per_home() {
        let cfg = MachineConfig::tiny(); // 4 nodes
        let mut a = DirectoryAllocator::new(&cfg);
        // Pages 0 and 4 share home node 0.
        let d0 = a.allocate(VPage::new(0), &cfg).unwrap();
        let d4 = a.allocate(VPage::new(4), &cfg).unwrap();
        assert_eq!(d0, 0);
        assert_eq!(d4, 1);
        // Page 1 is at home 1 and gets that node's first directory page.
        assert_eq!(a.allocate(VPage::new(1), &cfg).unwrap(), 0);
    }

    #[test]
    fn saturated_global_set_errors() {
        let cfg = MachineConfig::tiny();
        let gps = cfg.global_page_sets();
        let slots = cfg.page_slots_per_global_set();
        let mut a = DirectoryAllocator::new(&cfg);
        // Fill global page set 0 with pages 0, gps, 2*gps, ...
        for i in 0..slots {
            a.allocate(VPage::new(i * gps), &cfg).unwrap();
        }
        assert_eq!(a.pressure(0), 1.0);
        assert_eq!(
            a.allocate(VPage::new(slots * gps), &cfg),
            Err(VmError::GlobalSetFull { set: 0 })
        );
        // Another set is unaffected.
        a.allocate(VPage::new(1), &cfg).unwrap();
    }

    #[test]
    fn swap_out_frees_a_slot() {
        let cfg = MachineConfig::tiny();
        let gps = cfg.global_page_sets();
        let slots = cfg.page_slots_per_global_set();
        let mut a = DirectoryAllocator::new(&cfg);
        for i in 0..slots {
            a.allocate(VPage::new(i * gps), &cfg).unwrap();
        }
        a.swap_out(VPage::new(0), &cfg).unwrap();
        a.allocate(VPage::new(slots * gps), &cfg).unwrap();
        assert_eq!(a.pressure(0), 1.0);
    }

    #[test]
    fn swap_out_of_empty_set_errors() {
        let cfg = MachineConfig::tiny();
        let mut a = DirectoryAllocator::new(&cfg);
        assert!(a.swap_out(VPage::new(0), &cfg).is_err());
    }

    #[test]
    fn pressure_tracks_occupancy() {
        let cfg = MachineConfig::tiny();
        let slots = cfg.page_slots_per_global_set() as f64;
        let mut a = DirectoryAllocator::new(&cfg);
        assert_eq!(a.pressure(0), 0.0);
        a.allocate(VPage::new(0), &cfg).unwrap();
        assert!((a.pressure(0) - 1.0 / slots).abs() < 1e-12);
    }

    #[test]
    fn occupancy_slice_shape() {
        let cfg = MachineConfig::tiny();
        let a = DirectoryAllocator::new(&cfg);
        assert_eq!(a.occupancy().len(), cfg.global_page_sets() as usize);
        assert!(a.occupancy().iter().all(|&o| o == 0));
    }
}
