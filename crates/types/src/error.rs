//! Configuration error type.

/// Error returned when a machine or cache configuration violates an
/// invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A field that must be a non-zero power of two was not.
    NotPowerOfTwo {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A field was below its minimum legal value.
    TooSmall {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// The minimum legal value.
        minimum: u64,
    },
    /// A field was above its maximum legal value.
    TooLarge {
        /// Name of the offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// The maximum legal value.
        maximum: u64,
    },
    /// Block sizes must be non-decreasing going up the hierarchy
    /// (FLC ≤ SLC ≤ AM).
    BlockSizeOrdering {
        /// FLC block size.
        flc: u64,
        /// SLC block size.
        slc: u64,
        /// Attraction-memory block size.
        am: u64,
    },
    /// The attraction memory's set count must be a multiple of the blocks
    /// per page so pages occupy whole global sets.
    PageSetMismatch {
        /// Attraction-memory sets per node.
        am_sets: u64,
        /// Attraction-memory blocks per page.
        blocks_per_page: u64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} must be a non-zero power of two, got {value}")
            }
            ConfigError::TooSmall { field, value, minimum } => {
                write!(f, "{field} must be at least {minimum}, got {value}")
            }
            ConfigError::TooLarge { field, value, maximum } => {
                write!(f, "{field} must be at most {maximum}, got {value}")
            }
            ConfigError::BlockSizeOrdering { flc, slc, am } => write!(
                f,
                "block sizes must not shrink up the hierarchy: flc={flc}, slc={slc}, am={am}"
            ),
            ConfigError::PageSetMismatch { am_sets, blocks_per_page } => write!(
                f,
                "attraction-memory sets ({am_sets}) must be a multiple of blocks per page \
                 ({blocks_per_page})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = ConfigError::NotPowerOfTwo { field: "nodes", value: 12 };
        assert_eq!(e.to_string(), "nodes must be a non-zero power of two, got 12");
        let e = ConfigError::TooSmall { field: "page_size", value: 64, minimum: 128 };
        assert_eq!(e.to_string(), "page_size must be at least 128, got 64");
        let e = ConfigError::TooLarge { field: "nodes", value: 2048, maximum: 1024 };
        assert_eq!(e.to_string(), "nodes must be at most 1024, got 2048");
        let e = ConfigError::BlockSizeOrdering { flc: 64, slc: 32, am: 128 };
        assert!(e.to_string().contains("flc=64"));
        let e = ConfigError::PageSetMismatch { am_sets: 100, blocks_per_page: 32 };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_err(ConfigError::NotPowerOfTwo { field: "x", value: 3 });
    }
}
