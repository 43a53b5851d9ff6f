//! Address newtypes.
//!
//! [`VAddr`] is a byte address in the global, synonym-free virtual address
//! space that the processors issue. The page-number newtypes ([`VPage`],
//! [`PFrame`]) keep virtual pages and physical frames (`L0`–`L3` schemes
//! only; V-COMA has no physical addresses) from being mixed up with byte
//! addresses or with each other. Block numbers are plain `u64`s.

/// A byte address in the global virtual address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(u64);

impl VAddr {
    /// Creates a virtual address from a raw 64-bit value.
    pub const fn new(raw: u64) -> Self {
        VAddr(raw)
    }

    /// Returns the raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the virtual page number for pages of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `page_size` is a power of two.
    pub fn page(self, page_size: u64) -> VPage {
        debug_assert!(page_size.is_power_of_two());
        VPage(self.0 / page_size)
    }

    /// Returns the byte offset within the page.
    pub fn page_offset(self, page_size: u64) -> u64 {
        self.0 & (page_size - 1)
    }

    /// Returns the block number for blocks of `block_size` bytes.
    pub fn block(self, block_size: u64) -> u64 {
        debug_assert!(block_size.is_power_of_two());
        self.0 / block_size
    }

    /// Returns the address advanced by `bytes`.
    pub const fn offset(self, bytes: u64) -> VAddr {
        VAddr(self.0 + bytes)
    }
}

impl std::fmt::Display for VAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v:{:#x}", self.0)
    }
}

impl std::fmt::LowerHex for VAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for VAddr {
    fn from(raw: u64) -> Self {
        VAddr(raw)
    }
}

/// A virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VPage(u64);

impl VPage {
    /// Creates a virtual page number.
    pub const fn new(n: u64) -> Self {
        VPage(n)
    }

    /// Returns the raw page number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the base virtual address of the page.
    pub fn base(self, page_size: u64) -> VAddr {
        VAddr(self.0 * page_size)
    }
}

impl std::fmt::Display for VPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vp:{:#x}", self.0)
    }
}

/// A physical page-frame number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PFrame(u64);

impl PFrame {
    /// Creates a physical frame number.
    pub const fn new(n: u64) -> Self {
        PFrame(n)
    }

    /// Returns the raw frame number.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for PFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pf:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: u64 = 4096;

    #[test]
    fn vaddr_page_decomposition() {
        let va = VAddr::new(0x1_2345);
        assert_eq!(va.page(PAGE), VPage::new(0x12));
        assert_eq!(va.page_offset(PAGE), 0x345);
        assert_eq!(va.block(128), 0x1_2345 / 128);
    }

    #[test]
    fn vaddr_align_and_offset() {
        let va = VAddr::new(0x1234);
        assert_eq!(va.offset(0x10), VAddr::new(0x1244));
    }

    #[test]
    fn page_base_roundtrip() {
        let vp = VPage::new(42);
        assert_eq!(vp.base(PAGE).page(PAGE), vp);
    }

    #[test]
    fn display_formats() {
        assert_eq!(VAddr::new(0x10).to_string(), "v:0x10");
        assert_eq!(VPage::new(0x10).to_string(), "vp:0x10");
        assert_eq!(PFrame::new(0x10).to_string(), "pf:0x10");
    }
}
