//! Machine geometry and the fixed-latency timing model.
//!
//! [`MachineConfig::paper_baseline`] reproduces the simulated machine of
//! paper §5.1: 32 nodes, 16 KB direct-mapped write-through FLC (32-byte
//! blocks), 64 KB 4-way write-back SLC (64-byte blocks), 4 MB 4-way
//! attraction memory (128-byte blocks), 4 KB pages, and the latency charges
//! of the paper's timing model.

use crate::{ConfigError, NodeId, VPage};

/// The largest machine the simulator models. The coherence directory
/// sizes its copy sets to the configured node count, and 1024 covers
/// every scale-up the experiments sweep (the paper machine is 32).
pub const MAX_NODES: u64 = 1024;

/// The widest set any associative array may have. A set's recency ranks
/// are `u16`s, so 65,536 ways is the limit; the widest array the
/// experiments build is the paper machine's 256-way Victima spill.
pub const MAX_ASSOC: u64 = 1 << 16;

/// Geometry of one set-associative memory structure (cache or attraction
/// memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: u64,
    /// Associativity (ways per set). Must be a power of two; `1` means
    /// direct-mapped.
    pub assoc: u64,
    /// Block (line) size in bytes. Must be a power of two.
    pub block_size: u64,
}

impl CacheGeometry {
    /// Creates a geometry, validating all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is zero or not a power of
    /// two, if the associativity exceeds [`MAX_ASSOC`], or if the capacity
    /// cannot hold a single set.
    pub fn new(size_bytes: u64, assoc: u64, block_size: u64) -> Result<Self, ConfigError> {
        let g = CacheGeometry { size_bytes, assoc, block_size };
        g.validate()?;
        Ok(g)
    }

    /// Validates the geometry invariants.
    ///
    /// # Errors
    ///
    /// See [`CacheGeometry::new`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, v) in [
            ("size_bytes", self.size_bytes),
            ("assoc", self.assoc),
            ("block_size", self.block_size),
        ] {
            if v == 0 || !v.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { field: name, value: v });
            }
        }
        if self.assoc > MAX_ASSOC {
            return Err(ConfigError::TooLarge {
                field: "assoc",
                value: self.assoc,
                maximum: MAX_ASSOC,
            });
        }
        if self.size_bytes < self.assoc * self.block_size {
            return Err(ConfigError::TooSmall {
                field: "size_bytes",
                value: self.size_bytes,
                minimum: self.assoc * self.block_size,
            });
        }
        Ok(())
    }

    /// Total number of blocks (lines).
    pub const fn lines(&self) -> u64 {
        self.size_bytes / self.block_size
    }

    /// Number of sets.
    pub const fn sets(&self) -> u64 {
        self.lines() / self.assoc
    }
}

/// The paper's fixed-latency timing model, in 200 MHz processor cycles.
///
/// All latencies are charged to the issuing processor, matching the paper's
/// methodology (§5.1, citing Moga et al. \[20\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Timing {
    /// First-level cache hit. The paper charges zero.
    pub flc_hit: u64,
    /// Second-level cache hit (6 cycles in the paper).
    pub slc_hit: u64,
    /// Attraction-memory hit at the local node (74 cycles in the paper).
    pub am_hit: u64,
    /// One-way latency of an 8-byte request/control message on the crossbar
    /// (16 processor cycles in the paper: 8 bytes on an 8-bit 100 MHz
    /// crossbar).
    pub net_request: u64,
    /// One-way latency of a message carrying a memory block (272 processor
    /// cycles in the paper: 128-byte block plus header).
    pub net_block: u64,
    /// Service time of a TLB miss or a DLB miss (40 cycles in the paper,
    /// §5.3).
    pub translation_miss: u64,
    /// Directory/protocol-engine occupancy per transaction at the home node.
    /// The paper folds this into the message latencies; kept separate so
    /// ablations can vary it. Defaults to zero.
    pub dir_lookup: u64,
}

impl Timing {
    /// The paper's charges (§5.1, §5.3).
    pub const fn paper() -> Self {
        Timing {
            flc_hit: 0,
            slc_hit: 6,
            am_hit: 74,
            net_request: 16,
            net_block: 272,
            translation_miss: 40,
            dir_lookup: 0,
        }
    }
}

impl Default for Timing {
    fn default() -> Self {
        Timing::paper()
    }
}

/// Complete geometry of the simulated COMA machine.
///
/// Use [`MachineConfig::paper_baseline`] for the paper's machine or
/// [`MachineConfig::builder`] to customise. All cross-structure invariants
/// (block sizes non-decreasing up the hierarchy, page divisible into AM
/// blocks, power-of-two node count) are validated at construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Number of processing nodes. Must be a power of two no larger than
    /// [`MAX_NODES`].
    pub nodes: u64,
    /// First-level cache geometry (direct-mapped write-through in the paper).
    pub flc: CacheGeometry,
    /// Second-level cache geometry (4-way write-back in the paper).
    pub slc: CacheGeometry,
    /// Attraction-memory geometry per node (4 MB 4-way in the paper).
    pub am: CacheGeometry,
    /// Page size in bytes (4 KB in the paper).
    pub page_size: u64,
    /// Timing model.
    pub timing: Timing,
}

impl MachineConfig {
    /// The simulated baseline machine of paper §5.1.
    ///
    /// ```
    /// let cfg = vcoma_types::MachineConfig::paper_baseline();
    /// assert_eq!(cfg.am.sets(), 8192);
    /// assert_eq!(cfg.blocks_per_page(), 32);
    /// assert_eq!(cfg.global_page_sets(), 256);
    /// ```
    pub fn paper_baseline() -> Self {
        MachineConfig {
            nodes: 32,
            flc: CacheGeometry { size_bytes: 16 << 10, assoc: 1, block_size: 32 },
            slc: CacheGeometry { size_bytes: 64 << 10, assoc: 4, block_size: 64 },
            am: CacheGeometry { size_bytes: 4 << 20, assoc: 4, block_size: 128 },
            page_size: 4096,
            timing: Timing::paper(),
        }
    }

    /// A scaled-down machine for fast unit and property tests: 4 nodes,
    /// 1 KB FLC, 2 KB SLC, 64 KB AM, 1 KB pages, paper timing.
    pub fn tiny() -> Self {
        MachineConfig {
            nodes: 4,
            flc: CacheGeometry { size_bytes: 1 << 10, assoc: 1, block_size: 32 },
            slc: CacheGeometry { size_bytes: 2 << 10, assoc: 4, block_size: 64 },
            am: CacheGeometry { size_bytes: 64 << 10, assoc: 4, block_size: 128 },
            page_size: 1024,
            timing: Timing::paper(),
        }
    }

    /// Starts building a custom configuration from the paper baseline.
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder { cfg: MachineConfig::paper_baseline() }
    }

    /// Validates all cross-structure invariants.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any geometry is invalid, the node count or
    /// page size is not a power of two, the node count exceeds
    /// [`MAX_NODES`], the Victima spill ([`MachineConfig::spill_entries`])
    /// is wider than [`MAX_ASSOC`] ways, block sizes shrink up the
    /// hierarchy, or a page does not contain a whole number of blocks at
    /// each level.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.flc.validate()?;
        self.slc.validate()?;
        self.am.validate()?;
        if self.nodes == 0 || !self.nodes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo { field: "nodes", value: self.nodes });
        }
        if self.nodes > MAX_NODES {
            return Err(ConfigError::TooLarge {
                field: "nodes",
                value: self.nodes,
                maximum: MAX_NODES,
            });
        }
        if self.spill_entries() > MAX_ASSOC {
            return Err(ConfigError::TooLarge {
                field: "spill_entries",
                value: self.spill_entries(),
                maximum: MAX_ASSOC,
            });
        }
        if self.page_size == 0 || !self.page_size.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo { field: "page_size", value: self.page_size });
        }
        if self.flc.block_size > self.slc.block_size || self.slc.block_size > self.am.block_size {
            return Err(ConfigError::BlockSizeOrdering {
                flc: self.flc.block_size,
                slc: self.slc.block_size,
                am: self.am.block_size,
            });
        }
        if self.page_size < self.am.block_size {
            return Err(ConfigError::TooSmall {
                field: "page_size",
                value: self.page_size,
                minimum: self.am.block_size,
            });
        }
        // A page must span a whole number of AM sets so that a page occupies
        // "the same slots in consecutive global sets" (paper §3.4).
        if !self.am.sets().is_multiple_of(self.blocks_per_page()) {
            return Err(ConfigError::PageSetMismatch {
                am_sets: self.am.sets(),
                blocks_per_page: self.blocks_per_page(),
            });
        }
        Ok(())
    }

    /// Entries in the Victima-style translation spill, a fully-associative
    /// array: a quarter of the SLC's frames, at least 8 (256 in the
    /// paper).
    pub fn spill_entries(&self) -> u64 {
        (self.slc.lines() / 4).max(8)
    }

    /// Number of attraction-memory blocks per page (32 in the paper:
    /// 4 KB / 128 B). This is also the number of entries in a V-COMA
    /// *directory page*.
    pub const fn blocks_per_page(&self) -> u64 {
        self.page_size / self.am.block_size
    }

    /// Number of *global page sets* (paper §3.4): groups of contiguous AM
    /// global sets in which all blocks of a page reside. 256 in the paper
    /// (8192 AM sets / 32 blocks per page).
    pub const fn global_page_sets(&self) -> u64 {
        self.am.sets() / self.blocks_per_page()
    }

    /// Capacity of one global page set in page slots: `nodes × assoc`
    /// (paper §6). 128 in the paper.
    pub const fn page_slots_per_global_set(&self) -> u64 {
        self.nodes * self.am.assoc
    }

    /// Number of page frames each node's attraction memory can hold.
    pub const fn pages_per_node(&self) -> u64 {
        self.am.size_bytes / self.page_size
    }

    /// Total page frames in the machine.
    pub const fn total_page_frames(&self) -> u64 {
        self.pages_per_node() * self.nodes
    }

    /// The global page set a virtual page maps to (its "color").
    pub const fn global_page_set_of(&self, vpage: VPage) -> u64 {
        vpage.raw() % self.global_page_sets()
    }

    /// Home node of a virtual page: the `log2(nodes)` least-significant bits
    /// of the page number (paper §4.2 / Figure 6). Used by V-COMA and by the
    /// SHARED-TLB organisation.
    pub const fn home_of_vpage(&self, vpage: VPage) -> NodeId {
        debug_assert!(self.nodes.is_power_of_two(), "validate requires power-of-two nodes");
        NodeId::new((vpage.raw() & (self.nodes - 1)) as u16)
    }

    /// Home node of a physical frame: round-robin on the frame number,
    /// matching the paper's round-robin physical page assignment.
    pub const fn home_of_pframe(&self, frame: u64) -> NodeId {
        debug_assert!(self.nodes.is_power_of_two(), "validate requires power-of-two nodes");
        NodeId::new((frame & (self.nodes - 1)) as u16)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper_baseline()
    }
}

/// Builder for [`MachineConfig`], starting from the paper baseline.
///
/// ```
/// use vcoma_types::MachineConfig;
/// let cfg = MachineConfig::builder().nodes(64).page_size(8192).build()?;
/// assert_eq!(cfg.nodes, 64);
/// # Ok::<(), vcoma_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Sets the node count.
    pub fn nodes(mut self, nodes: u64) -> Self {
        self.cfg.nodes = nodes;
        self
    }

    /// Sets the FLC geometry.
    pub fn flc(mut self, g: CacheGeometry) -> Self {
        self.cfg.flc = g;
        self
    }

    /// Sets the SLC geometry.
    pub fn slc(mut self, g: CacheGeometry) -> Self {
        self.cfg.slc = g;
        self
    }

    /// Sets the attraction-memory geometry.
    pub fn am(mut self, g: CacheGeometry) -> Self {
        self.cfg.am = g;
        self
    }

    /// Sets the page size in bytes.
    pub fn page_size(mut self, bytes: u64) -> Self {
        self.cfg.page_size = bytes;
        self
    }

    /// Sets the timing model.
    pub fn timing(mut self, t: Timing) -> Self {
        self.cfg.timing = t;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the assembled configuration violates any
    /// invariant; see [`MachineConfig::validate`].
    pub fn build(self) -> Result<MachineConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_section_5_1() {
        let cfg = MachineConfig::paper_baseline();
        cfg.validate().unwrap();
        assert_eq!(cfg.nodes, 32);
        assert_eq!(cfg.flc.lines(), 512);
        assert_eq!(cfg.flc.sets(), 512); // direct-mapped
        assert_eq!(cfg.slc.lines(), 1024);
        assert_eq!(cfg.slc.sets(), 256);
        assert_eq!(cfg.am.lines(), 32768);
        assert_eq!(cfg.am.sets(), 8192);
        assert_eq!(cfg.blocks_per_page(), 32);
        assert_eq!(cfg.global_page_sets(), 256);
        assert_eq!(cfg.page_slots_per_global_set(), 128);
        assert_eq!(cfg.pages_per_node(), 1024);
        assert_eq!(cfg.total_page_frames(), 32768);
    }

    #[test]
    fn paper_timing_charges() {
        let t = Timing::paper();
        assert_eq!(t.flc_hit, 0);
        assert_eq!(t.slc_hit, 6);
        assert_eq!(t.am_hit, 74);
        assert_eq!(t.net_request, 16);
        assert_eq!(t.net_block, 272);
        assert_eq!(t.translation_miss, 40);
        assert_eq!(Timing::default(), t);
    }

    #[test]
    fn home_node_is_low_page_bits() {
        let cfg = MachineConfig::paper_baseline();
        for p in 0..100u64 {
            let vp = VPage::new(p);
            assert_eq!(cfg.home_of_vpage(vp).index() as u64, p % 32);
        }
    }

    #[test]
    fn global_page_set_wraps() {
        let cfg = MachineConfig::paper_baseline();
        assert_eq!(cfg.global_page_set_of(VPage::new(0)), 0);
        assert_eq!(cfg.global_page_set_of(VPage::new(256)), 0);
        assert_eq!(cfg.global_page_set_of(VPage::new(257)), 1);
    }

    #[test]
    fn geometry_rejects_non_power_of_two() {
        assert!(matches!(
            CacheGeometry::new(1000, 1, 32),
            Err(ConfigError::NotPowerOfTwo { field: "size_bytes", .. })
        ));
        assert!(matches!(
            CacheGeometry::new(1024, 3, 32),
            Err(ConfigError::NotPowerOfTwo { field: "assoc", .. })
        ));
        assert!(matches!(
            CacheGeometry::new(1024, 1, 0),
            Err(ConfigError::NotPowerOfTwo { field: "block_size", .. })
        ));
    }

    #[test]
    fn geometry_rejects_capacity_below_one_set() {
        assert!(matches!(
            CacheGeometry::new(128, 4, 64),
            Err(ConfigError::TooSmall { .. })
        ));
    }

    #[test]
    fn config_rejects_shrinking_block_sizes() {
        let cfg = MachineConfig::builder()
            .flc(CacheGeometry { size_bytes: 16 << 10, assoc: 1, block_size: 128 })
            .build();
        assert!(matches!(cfg, Err(ConfigError::BlockSizeOrdering { .. })));
    }

    #[test]
    fn config_rejects_odd_node_count() {
        assert!(MachineConfig::builder().nodes(12).build().is_err());
    }

    #[test]
    fn config_rejects_sets_wider_than_a_u16_rank() {
        let wide = |assoc| CacheGeometry { size_bytes: assoc * 32, assoc, block_size: 32 };
        assert_eq!(wide(MAX_ASSOC).validate(), Ok(()));
        assert_eq!(
            MachineConfig::builder().flc(wide(2 * MAX_ASSOC)).build(),
            Err(ConfigError::TooLarge { field: "assoc", value: 2 * MAX_ASSOC, maximum: MAX_ASSOC })
        );
        // The paper SLC's spill is 256 ways; an SLC of 2^18 64-byte
        // lines still fits, one twice as large does not.
        assert_eq!(MachineConfig::paper_baseline().spill_entries(), 256);
        let slc = |size_bytes| CacheGeometry { size_bytes, assoc: 4, block_size: 64 };
        let am = CacheGeometry { size_bytes: 64 << 20, assoc: 4, block_size: 128 };
        let fits = MachineConfig::builder().slc(slc(16 << 20)).am(am).build().unwrap();
        assert_eq!(fits.spill_entries(), MAX_ASSOC);
        assert_eq!(
            MachineConfig::builder().slc(slc(32 << 20)).am(am).build(),
            Err(ConfigError::TooLarge {
                field: "spill_entries",
                value: 2 * MAX_ASSOC,
                maximum: MAX_ASSOC
            })
        );
    }

    #[test]
    fn config_rejects_node_counts_above_the_limit() {
        assert_eq!(MachineConfig::builder().nodes(MAX_NODES).build().unwrap().nodes, MAX_NODES);
        for nodes in [2 * MAX_NODES, 1 << 16, 1 << 17] {
            assert_eq!(
                MachineConfig::builder().nodes(nodes).build(),
                Err(ConfigError::TooLarge { field: "nodes", value: nodes, maximum: MAX_NODES })
            );
        }
    }

    #[test]
    fn builder_customises_from_baseline() {
        let cfg = MachineConfig::builder().nodes(64).build().unwrap();
        assert_eq!(cfg.nodes, 64);
        assert_eq!(cfg.page_slots_per_global_set(), 256);
    }

    #[test]
    fn tiny_config_is_valid() {
        MachineConfig::tiny().validate().unwrap();
    }

    #[test]
    fn set_of_block_wraps_at_sets() {
        let g = CacheGeometry::new(1024, 2, 64).unwrap();
        assert_eq!(g.sets(), 8);
    }
}
