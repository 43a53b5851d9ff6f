//! Physical page-frame allocators (L0–L3 schemes).

use crate::VmError;
use vcoma_types::{MachineConfig, PFrame, VPage};

/// Strategy for assigning physical frames to virtual pages.
///
/// Two implementations reproduce the paper's setups:
/// [`RoundRobinAllocator`] for the physical COMA baseline ("physical
/// addresses are assigned round robin", §5.3) and [`ColoringAllocator`] for
/// `L3-TLB`, where the frame must have the same attraction-memory color as
/// the virtual page (§3.4, Figure 4).
pub trait FrameAllocator {
    /// Allocates a frame for `page`.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if no suitable frame remains.
    fn allocate(&mut self, page: VPage, cfg: &MachineConfig) -> Result<PFrame, VmError>;

    /// Returns a frame to the free pool.
    fn release(&mut self, frame: PFrame);

    /// Number of frames still free.
    fn free_frames(&self) -> u64;
}

/// Sequential (round-robin across nodes) frame assignment.
///
/// Frames are handed out in increasing frame-number order; since the home
/// node of frame `f` is `f mod nodes`, consecutive allocations rotate
/// through the nodes — the paper's round-robin physical page placement.
#[derive(Debug, Clone)]
pub struct RoundRobinAllocator {
    next: u64,
    total: u64,
    free_list: Vec<PFrame>,
}

impl RoundRobinAllocator {
    /// Creates an allocator over the machine's full frame pool.
    pub fn new(cfg: &MachineConfig) -> Self {
        RoundRobinAllocator { next: 0, total: cfg.total_page_frames(), free_list: Vec::new() }
    }
}

impl FrameAllocator for RoundRobinAllocator {
    fn allocate(&mut self, _page: VPage, _cfg: &MachineConfig) -> Result<PFrame, VmError> {
        if let Some(f) = self.free_list.pop() {
            return Ok(f);
        }
        if self.next >= self.total {
            return Err(VmError::OutOfFrames);
        }
        let f = PFrame::new(self.next);
        self.next += 1;
        Ok(f)
    }

    fn release(&mut self, frame: PFrame) {
        self.free_list.push(frame);
    }

    fn free_frames(&self) -> u64 {
        self.total - self.next + self.free_list.len() as u64
    }
}

/// Page-coloring frame assignment for the `L3-TLB` scheme.
///
/// The virtually indexed attraction memory constrains a page to the global
/// set selected by its *virtual* address; the physical frame must index the
/// same set, i.e. `frame ≡ vpage (mod global_page_sets)`. The allocator
/// keeps one free list per color.
#[derive(Debug, Clone)]
pub struct ColoringAllocator {
    colors: u64,
    /// Per-color stack of free frames.
    free: Vec<Vec<PFrame>>,
}

impl ColoringAllocator {
    /// Creates an allocator over the machine's full frame pool, bucketed by
    /// color.
    pub fn new(cfg: &MachineConfig) -> Self {
        let colors = cfg.global_page_sets();
        let mut free: Vec<Vec<PFrame>> = vec![Vec::new(); colors as usize];
        // Push high frames first so low frame numbers are allocated first.
        for f in (0..cfg.total_page_frames()).rev() {
            free[(f % colors) as usize].push(PFrame::new(f));
        }
        ColoringAllocator { colors, free }
    }

    /// The color (global page set) of a frame.
    pub fn color_of_frame(&self, frame: PFrame) -> u64 {
        frame.raw() % self.colors
    }
}

impl FrameAllocator for ColoringAllocator {
    fn allocate(&mut self, page: VPage, cfg: &MachineConfig) -> Result<PFrame, VmError> {
        let color = cfg.global_page_set_of(page);
        debug_assert_eq!(self.colors, cfg.global_page_sets());
        self.free[color as usize]
            .pop()
            .ok_or(VmError::OutOfColoredFrames { color })
    }

    fn release(&mut self, frame: PFrame) {
        let color = self.color_of_frame(frame);
        self.free[color as usize].push(frame);
    }

    fn free_frames(&self) -> u64 {
        self.free.iter().map(|v| v.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_homes() {
        let cfg = MachineConfig::paper_baseline();
        let mut a = RoundRobinAllocator::new(&cfg);
        for i in 0..64u64 {
            let f = a.allocate(VPage::new(1000 + i), &cfg).unwrap();
            assert_eq!(f.raw(), i);
            assert_eq!(cfg.home_of_pframe(f.raw()).index() as u64, i % 32);
        }
    }

    #[test]
    fn round_robin_exhausts_then_errors() {
        let cfg = MachineConfig::tiny();
        let mut a = RoundRobinAllocator::new(&cfg);
        let total = cfg.total_page_frames();
        for i in 0..total {
            a.allocate(VPage::new(i), &cfg).unwrap();
        }
        assert_eq!(a.free_frames(), 0);
        assert_eq!(a.allocate(VPage::new(9999), &cfg), Err(VmError::OutOfFrames));
    }

    #[test]
    fn round_robin_reuses_released_frames() {
        let cfg = MachineConfig::tiny();
        let mut a = RoundRobinAllocator::new(&cfg);
        let f = a.allocate(VPage::new(0), &cfg).unwrap();
        let before = a.free_frames();
        a.release(f);
        assert_eq!(a.free_frames(), before + 1);
        assert_eq!(a.allocate(VPage::new(1), &cfg).unwrap(), f);
    }

    #[test]
    fn coloring_matches_virtual_color() {
        let cfg = MachineConfig::paper_baseline();
        let mut a = ColoringAllocator::new(&cfg);
        for p in [0u64, 1, 255, 256, 300, 511, 1000] {
            let page = VPage::new(p);
            let f = a.allocate(page, &cfg).unwrap();
            assert_eq!(
                f.raw() % cfg.global_page_sets(),
                cfg.global_page_set_of(page),
                "frame color must equal page color for page {p}"
            );
        }
    }

    #[test]
    fn coloring_exhausts_one_color_independently() {
        let cfg = MachineConfig::tiny();
        let colors = cfg.global_page_sets();
        let per_color = cfg.total_page_frames() / colors;
        let mut a = ColoringAllocator::new(&cfg);
        // Drain color 0 by allocating pages ≡ 0 (mod colors).
        for i in 0..per_color {
            a.allocate(VPage::new(i * colors), &cfg).unwrap();
        }
        assert_eq!(
            a.allocate(VPage::new(per_color * colors), &cfg),
            Err(VmError::OutOfColoredFrames { color: 0 })
        );
        // Other colors unaffected.
        assert_eq!(a.free_frames(), cfg.total_page_frames() - per_color);
        a.allocate(VPage::new(1), &cfg).unwrap();
    }

    #[test]
    fn coloring_release_returns_to_right_bucket() {
        let cfg = MachineConfig::tiny();
        let mut a = ColoringAllocator::new(&cfg);
        let f = a.allocate(VPage::new(3), &cfg).unwrap();
        let before = a.free_frames();
        a.release(f);
        assert_eq!(a.free_frames(), before + 1);
        // The next page of the same color gets the released frame back.
        let colors = cfg.global_page_sets();
        assert_eq!(a.allocate(VPage::new(3 + colors), &cfg).unwrap(), f);
    }

    #[test]
    fn allocators_hand_out_distinct_frames() {
        let cfg = MachineConfig::tiny();
        let mut rr = RoundRobinAllocator::new(&cfg);
        let mut col = ColoringAllocator::new(&cfg);
        let mut seen_rr = std::collections::HashSet::new();
        let mut seen_col = std::collections::HashSet::new();
        for i in 0..cfg.total_page_frames() {
            assert!(seen_rr.insert(rr.allocate(VPage::new(i), &cfg).unwrap()));
            assert!(seen_col.insert(col.allocate(VPage::new(i), &cfg).unwrap()));
        }
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn coloring_invariant_holds_for_any_page(p in 0u64..100_000) {
                let cfg = MachineConfig::paper_baseline();
                let mut a = ColoringAllocator::new(&cfg);
                let f = a.allocate(VPage::new(p), &cfg).unwrap();
                prop_assert_eq!(f.raw() % cfg.global_page_sets(), cfg.global_page_set_of(VPage::new(p)));
            }
        }
    }
}
