//! Virtual address-space layout construction.
//!
//! Workload generators place their data structures (shared arrays, per-node
//! private stacks, …) in the global virtual address space with this simple
//! region allocator. The paper's RAYTRACE discussion (§5.3) shows the layout
//! matters in V-COMA: the alignment chosen here directly controls which
//! global sets a structure occupies.

use crate::VmError;
use vcoma_types::VAddr;

/// Regions must end at or below this address (a 48-bit virtual space).
const LIMIT: u64 = 1 << 48;

/// A named, contiguous region of the global virtual address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Human-readable name (for diagnostics).
    pub name: &'static str,
    /// First byte of the region.
    pub base: VAddr,
    /// Region length in bytes.
    pub size: u64,
}

impl Region {
    /// Address `offset` bytes into the region.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `offset < size`.
    pub fn addr(&self, offset: u64) -> VAddr {
        debug_assert!(offset < self.size, "offset {offset} outside region {}", self.name);
        self.base.offset(offset)
    }

    /// Returns `true` if `addr` falls inside the region.
    pub fn contains(&self, addr: VAddr) -> bool {
        addr >= self.base && addr.raw() < self.base.raw() + self.size
    }

    /// One-past-the-end address.
    pub fn end(&self) -> VAddr {
        self.base.offset(self.size)
    }
}

/// A bump allocator carving named regions out of the global virtual address
/// space.
///
/// ```
/// use vcoma_vm::AddressSpaceLayout;
/// let mut layout = AddressSpaceLayout::new(0x1_0000);
/// let keys = layout.region("keys", 1 << 20, 4096)?;
/// let ranks = layout.region("ranks", 1 << 20, 4096)?;
/// assert!(keys.end() <= ranks.base);
/// # Ok::<(), vcoma_vm::VmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpaceLayout {
    cursor: u64,
    regions: Vec<Region>,
}

impl AddressSpaceLayout {
    /// Creates a layout starting at `base` with the full 48-bit space above
    /// it available.
    pub fn new(base: u64) -> Self {
        AddressSpaceLayout { cursor: base, regions: Vec::new() }
    }

    /// Carves a region of `size` bytes aligned to `align` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::LayoutOverflow`] if the region does not end at or
    /// below 2^48.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two or `size` is zero.
    pub fn region(
        &mut self,
        name: &'static str,
        size: u64,
        align: u64,
    ) -> Result<Region, VmError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(size > 0, "region size must be positive");
        let base = self.cursor.div_ceil(align) * align;
        let end = base.checked_add(size).ok_or(VmError::LayoutOverflow { region: name })?;
        if end > LIMIT {
            return Err(VmError::LayoutOverflow { region: name });
        }
        self.cursor = end;
        let r = Region { name, base: VAddr::new(base), size };
        self.regions.push(r.clone());
        Ok(r)
    }

    /// Carves one region per node, each of `size` bytes aligned to `align`.
    /// This is how per-node private structures (e.g. RAYTRACE's ray-tree
    /// stacks) are laid out; with `align = 32 KB` it reproduces the paper's
    /// pathological padding, with `align = page size` the fixed `V2` layout.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::LayoutOverflow`] if any region does not fit.
    pub fn per_node_regions(
        &mut self,
        name: &'static str,
        nodes: u64,
        size: u64,
        align: u64,
    ) -> Result<Vec<Region>, VmError> {
        (0..nodes).map(|_| self.region(name, size, align)).collect()
    }

    /// All regions carved so far, in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total bytes spanned from the first region's base to the cursor.
    pub fn footprint(&self) -> u64 {
        match self.regions.first() {
            Some(first) => self.cursor - first.base.raw(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let mut l = AddressSpaceLayout::new(0);
        let a = l.region("a", 100, 64).unwrap();
        let b = l.region("b", 200, 64).unwrap();
        assert!(a.end().raw() <= b.base.raw());
        assert!(!a.contains(b.base));
        assert!(a.contains(a.addr(99)));
    }

    #[test]
    fn alignment_is_respected() {
        let mut l = AddressSpaceLayout::new(1);
        let r = l.region("r", 10, 4096).unwrap();
        assert_eq!(r.base.raw() % 4096, 0);
        let r32k = l.region("r32k", 10, 32 << 10).unwrap();
        assert_eq!(r32k.base.raw() % (32 << 10), 0);
    }

    #[test]
    fn overflow_is_detected() {
        let mut l = AddressSpaceLayout::new(0);
        assert!(l.region("big", LIMIT + 1, 1).is_err());
        // Cursor must be unchanged after a failed carve.
        let ok = l.region("small", 500, 1).unwrap();
        assert_eq!(ok.base.raw(), 0);
    }

    #[test]
    fn per_node_regions_have_uniform_alignment() {
        let mut l = AddressSpaceLayout::new(0);
        let rs = l.per_node_regions("stacks", 8, 1000, 32 << 10).unwrap();
        assert_eq!(rs.len(), 8);
        for r in &rs {
            assert_eq!(r.base.raw() % (32 << 10), 0);
        }
        // All distinct bases.
        let mut bases: Vec<u64> = rs.iter().map(|r| r.base.raw()).collect();
        bases.dedup();
        assert_eq!(bases.len(), 8);
    }

    #[test]
    fn footprint_spans_all_regions() {
        let mut l = AddressSpaceLayout::new(0x1000);
        assert_eq!(l.footprint(), 0);
        l.region("a", 0x100, 0x1000).unwrap();
        l.region("b", 0x100, 0x1000).unwrap();
        assert_eq!(l.footprint(), 0x1100);
        assert_eq!(l.regions().len(), 2);
    }

    #[test]
    #[should_panic(expected = "alignment must be a power of two")]
    fn bad_alignment_panics() {
        AddressSpaceLayout::new(0).region("x", 10, 3).unwrap();
    }

    #[test]
    #[should_panic(expected = "region size must be positive")]
    fn zero_size_panics() {
        AddressSpaceLayout::new(0).region("x", 0, 1).unwrap();
    }
}
