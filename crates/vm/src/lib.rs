//! Virtual-memory subsystem for the V-COMA simulator.
//!
//! This crate models what the paper's five schemes need from the operating
//! system's memory manager. The paper preloads every data set (§5.1), so
//! nothing here models paging, reference/modify bits or protection checks:
//!
//! * a **global virtual address space** without synonyms, carved into named
//!   regions by [`AddressSpaceLayout`];
//! * a **page table** ([`PageTable`]) holding, per virtual page, the
//!   physical frame (L0–L3) or the V-COMA *directory page* (§4.3);
//! * **physical frame allocators**: round-robin assignment for the physical
//!   COMA baseline and a page-coloring allocator for `L3-TLB`, where the
//!   virtual and physical page must agree on their attraction-memory global
//!   set (§3.4, Figure 4);
//! * **directory-page allocation** for V-COMA, where the VA → directory-page
//!   mapping is set-associative over *global page sets* and allocation
//!   pressure may force swaps (§4.2–4.3, §6);
//! * the **memory-pressure profile** over global page sets reported in
//!   Figure 11 ([`PressureProfile`]).
//!
//! # Example
//!
//! ```
//! use vcoma_types::MachineConfig;
//! use vcoma_vm::{PageTable, RoundRobinAllocator, FrameAllocator};
//!
//! let cfg = MachineConfig::paper_baseline();
//! let mut pt = PageTable::new(cfg.clone());
//! let mut alloc = RoundRobinAllocator::new(&cfg);
//! let frame = pt.map_physical(vcoma_types::VPage::new(7), &mut alloc)?;
//! assert_eq!(pt.frame_of(vcoma_types::VPage::new(7)), Some(frame));
//! # Ok::<(), vcoma_vm::VmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod directory;
mod error;
mod layout;
mod page_table;
mod pressure;
mod tag_overhead;

pub use alloc::{ColoringAllocator, FrameAllocator, RoundRobinAllocator};
pub use directory::DirectoryAllocator;
pub use error::VmError;
pub use layout::{AddressSpaceLayout, Region};
pub use page_table::{PageEntry, PageTable};
pub use pressure::PressureProfile;
pub use tag_overhead::TagOverhead;
