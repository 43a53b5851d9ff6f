//! Virtual-memory error type.

use vcoma_types::VPage;

/// Errors raised by the virtual-memory subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// No free physical frame remains anywhere in the machine.
    OutOfFrames,
    /// No free physical frame of the required color remains (page-coloring
    /// allocator).
    OutOfColoredFrames {
        /// The required color (global page set index).
        color: u64,
    },
    /// A V-COMA global page set is full: allocating would exceed the
    /// `nodes × assoc` page slots of the set and the page daemon found
    /// nothing to evict.
    GlobalSetFull {
        /// The saturated global page set.
        set: u64,
    },
    /// The page is not mapped.
    NotMapped(VPage),
    /// The virtual address space region overflows or collides.
    LayoutOverflow {
        /// Region name that could not be placed.
        region: &'static str,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::OutOfFrames => f.write_str("no free physical frame remains"),
            VmError::OutOfColoredFrames { color } => {
                write!(f, "no free physical frame of color {color} remains")
            }
            VmError::GlobalSetFull { set } => {
                write!(f, "global page set {set} is full and nothing could be evicted")
            }
            VmError::NotMapped(p) => write!(f, "page {p} is not mapped"),
            VmError::LayoutOverflow { region } => {
                write!(f, "address-space layout cannot place region {region}")
            }
        }
    }
}

impl std::error::Error for VmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(VmError::OutOfFrames.to_string().contains("frame"));
        assert!(VmError::OutOfColoredFrames { color: 3 }.to_string().contains('3'));
        assert!(VmError::GlobalSetFull { set: 9 }.to_string().contains('9'));
        assert!(VmError::NotMapped(VPage::new(1)).to_string().contains("not mapped"));
        assert!(VmError::LayoutOverflow { region: "heap" }.to_string().contains("heap"));
    }

    #[test]
    fn is_std_error() {
        fn takes<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes(VmError::OutOfFrames);
    }
}
