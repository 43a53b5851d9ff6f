//! Page-level access rights.

/// Access rights for a page, as carried by [`Op::Protect`](crate::Op::Protect).
///
/// The paper changes page-level protection through the home node (§4.3).
/// The simulator charges the cost of that change and enforces nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Protection {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
}

impl Protection {
    /// Read and write allowed.
    pub const fn read_write() -> Self {
        Protection { read: true, write: true }
    }

    /// Read-only.
    pub const fn read_only() -> Self {
        Protection { read: true, write: false }
    }
}

impl Default for Protection {
    fn default() -> Self {
        Protection::read_write()
    }
}

impl std::fmt::Display for Protection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.read, self.write) {
            (true, true) => f.write_str("rw"),
            (true, false) => f.write_str("r-"),
            (false, true) => f.write_str("-w"),
            (false, false) => f.write_str("--"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_allows() {
        let rw = Protection::read_write();
        assert!(rw.read && rw.write);
        let ro = Protection::read_only();
        assert!(ro.read && !ro.write);
        assert_eq!(Protection::default(), rw);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Protection::read_write().to_string(), "rw");
        assert_eq!(Protection::read_only().to_string(), "r-");
        assert_eq!(Protection { read: false, write: true }.to_string(), "-w");
        assert_eq!(Protection { read: false, write: false }.to_string(), "--");
    }
}
