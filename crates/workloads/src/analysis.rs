//! Trace analysis utilities.
//!
//! Summarises generated traces — footprint, reference mix, and the
//! sharing-degree histogram that distinguishes e.g. RADIX's all-to-all
//! output array from RAYTRACE's private stacks. Used by the Table-1
//! harness and handy when writing new generators.

use std::collections::HashMap;
use vcoma_types::{MachineConfig, Op, OpSource, VPage};

/// Summary statistics of one machine's worth of traces.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceAnalysis {
    /// Loads across all nodes.
    pub reads: u64,
    /// Stores across all nodes.
    pub writes: u64,
    /// Pure-compute cycles across all nodes.
    pub compute_cycles: u64,
    /// Barrier episodes per node (identical across nodes by construction).
    pub barriers: u64,
    /// Lock acquisitions across all nodes.
    pub lock_acquires: u64,
    /// Distinct pages touched.
    pub pages: u64,
    /// Sharing-degree histogram: `histogram[k]` = pages touched by exactly
    /// `k + 1` nodes.
    pub sharing_histogram: Vec<u64>,
    /// Distinct pages written by two or more nodes (write-shared).
    pub write_shared_pages: u64,
    /// Protection-change operations across all nodes.
    pub protection_changes: u64,
}

/// Running accumulator behind [`TraceAnalysis::of`] and
/// [`TraceAnalysis::of_sources`]: its state is per-page node sets and
/// counters, independent of how the ops are delivered.
#[derive(Default)]
struct Accumulator {
    /// 64-bit words per node set: `nodes.div_ceil(64)`.
    words: usize,
    /// Page → its slot in `sets`, in first-touch order.
    pages: HashMap<VPage, usize>,
    /// Per slot, the reader set's `words` words then the writer set's.
    sets: Vec<u64>,
    reads: u64,
    writes: u64,
    compute: u64,
    barriers: u64,
    locks: u64,
    protects: u64,
}

impl Accumulator {
    fn new(nodes: usize) -> Self {
        Accumulator { words: nodes.div_ceil(64).max(1), ..Self::default() }
    }

    /// Adds `node` to `page`'s reader (or writer) set.
    fn mark(&mut self, page: VPage, node: usize, write: bool) {
        let stride = 2 * self.words;
        let next = self.pages.len();
        let base = *self.pages.entry(page).or_insert(next) * stride;
        if base == self.sets.len() {
            self.sets.resize(base + stride, 0);
        }
        self.sets[base + usize::from(write) * self.words + node / 64] |= 1 << (node % 64);
    }

    fn push(&mut self, node: usize, op: &Op, page_size: u64) {
        match op {
            Op::Read(a) => {
                self.reads += 1;
                self.mark(a.page(page_size), node, false);
            }
            Op::Write(a) => {
                self.writes += 1;
                self.mark(a.page(page_size), node, true);
            }
            Op::Compute(c) => self.compute += c,
            Op::Barrier(_) => {
                if node == 0 {
                    self.barriers += 1;
                }
            }
            Op::Lock(_) => self.locks += 1,
            Op::Unlock(_) => {}
            Op::Protect(..) => self.protects += 1,
        }
    }

    fn finish(self, nodes: usize) -> TraceAnalysis {
        let buckets = nodes.max(1);
        let mut sharing = vec![0u64; buckets];
        let mut write_shared = 0u64;
        for set in self.sets.chunks_exact(2 * self.words) {
            let (r, w) = set.split_at(self.words);
            let degree: u32 = r.iter().zip(w).map(|(r, w)| (r | w).count_ones()).sum();
            sharing[(degree as usize).saturating_sub(1).min(buckets - 1)] += 1;
            if w.iter().map(|w| w.count_ones()).sum::<u32>() >= 2 {
                write_shared += 1;
            }
        }
        TraceAnalysis {
            reads: self.reads,
            writes: self.writes,
            compute_cycles: self.compute,
            barriers: self.barriers,
            lock_acquires: self.locks,
            pages: self.pages.len() as u64,
            sharing_histogram: sharing,
            write_shared_pages: write_shared,
            protection_changes: self.protects,
        }
    }
}

impl TraceAnalysis {
    /// Analyses the traces under `cfg`'s page size.
    pub fn of(traces: &[Vec<Op>], cfg: &MachineConfig) -> Self {
        let mut acc = Accumulator::new(traces.len());
        for (n, trace) in traces.iter().enumerate() {
            for op in trace {
                acc.push(n, op, cfg.page_size);
            }
        }
        acc.finish(traces.len())
    }

    /// Analyses streaming sources without materializing the traces. Ops
    /// are pulled round-robin across the nodes, so phase-chunked sources
    /// (see [`crate::Workload::sources`]) keep at most one generation
    /// phase buffered; the summary is identical to
    /// [`TraceAnalysis::of`] over the materialized traces.
    pub fn of_sources(mut sources: Vec<Box<dyn OpSource>>, cfg: &MachineConfig) -> Self {
        let nodes = sources.len();
        let mut acc = Accumulator::new(nodes);
        let mut live: Vec<usize> = (0..nodes).collect();
        while !live.is_empty() {
            live.retain(|&n| match sources[n].next_op() {
                Some(op) => {
                    acc.push(n, &op, cfg.page_size);
                    true
                }
                None => false,
            });
        }
        acc.finish(nodes)
    }

    /// Total memory references.
    pub fn refs(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of references that are writes.
    pub fn write_fraction(&self) -> f64 {
        if self.refs() == 0 {
            0.0
        } else {
            self.writes as f64 / self.refs() as f64
        }
    }

    /// Footprint in MB for the given page size.
    pub fn footprint_mb(&self, page_size: u64) -> f64 {
        (self.pages * page_size) as f64 / (1 << 20) as f64
    }

    /// Pages touched by two or more nodes.
    pub fn shared_pages(&self) -> u64 {
        self.sharing_histogram.iter().skip(1).sum()
    }

    /// Mean number of nodes touching a page.
    pub fn mean_sharing_degree(&self) -> f64 {
        if self.pages == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .sharing_histogram
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        weighted as f64 / self.pages as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_types::{SyncId, VAddr};

    fn cfg() -> MachineConfig {
        MachineConfig::tiny()
    }

    #[test]
    fn counts_ops_by_kind() {
        let traces = vec![
            vec![
                Op::Read(VAddr::new(0)),
                Op::Write(VAddr::new(0)),
                Op::Compute(7),
                Op::Barrier(SyncId(0)),
                Op::Lock(SyncId(1)),
                Op::Unlock(SyncId(1)),
            ],
            vec![Op::Read(VAddr::new(0x10000)), Op::Barrier(SyncId(0))],
        ];
        let a = TraceAnalysis::of(&traces, &cfg());
        assert_eq!(a.reads, 2);
        assert_eq!(a.writes, 1);
        assert_eq!(a.compute_cycles, 7);
        assert_eq!(a.barriers, 1);
        assert_eq!(a.lock_acquires, 1);
        assert_eq!(a.refs(), 3);
        assert!((a.write_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sharing_histogram_distinguishes_private_and_shared() {
        // Page 0 touched by both nodes (node 1 reads it), page at 0x10000
        // only by node 1.
        let traces = vec![
            vec![Op::Write(VAddr::new(0))],
            vec![Op::Read(VAddr::new(0)), Op::Read(VAddr::new(0x10000))],
        ];
        let a = TraceAnalysis::of(&traces, &cfg());
        assert_eq!(a.pages, 2);
        assert_eq!(a.sharing_histogram[0], 1, "one private page");
        assert_eq!(a.sharing_histogram[1], 1, "one 2-shared page");
        assert_eq!(a.shared_pages(), 1);
        assert_eq!(a.write_shared_pages, 0, "only one node writes page 0");
        assert!((a.mean_sharing_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn write_shared_pages_need_two_writers() {
        let traces = vec![
            vec![Op::Write(VAddr::new(0))],
            vec![Op::Write(VAddr::new(8))],
        ];
        let a = TraceAnalysis::of(&traces, &cfg());
        assert_eq!(a.write_shared_pages, 1);
    }

    #[test]
    fn nodes_above_64_do_not_alias() {
        let machine = MachineConfig::builder().nodes(128).build().expect("valid machine");
        let mut traces = vec![Vec::new(); 128];
        traces[0].push(Op::Write(VAddr::new(0)));
        traces[64].push(Op::Write(VAddr::new(0)));
        let a = TraceAnalysis::of(&traces, &machine);
        assert_eq!(a.write_shared_pages, 1);
        assert_eq!(a.shared_pages(), 1);
        assert!((a.mean_sharing_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_traces_are_all_zero() {
        let a = TraceAnalysis::of(&[Vec::new(), Vec::new()], &cfg());
        assert_eq!(a.refs(), 0);
        assert_eq!(a.pages, 0);
        assert_eq!(a.write_fraction(), 0.0);
        assert_eq!(a.mean_sharing_degree(), 0.0);
        assert_eq!(a.footprint_mb(4096), 0.0);
    }

    #[test]
    fn of_sources_matches_of_for_every_generator() {
        use crate::Workload;
        let cfg = MachineConfig::tiny();
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(crate::UniformRandom { pages: 16, refs_per_node: 200, write_fraction: 0.3 }),
            Box::new(crate::PingPong { rounds: 300 }),
            Box::new(crate::Radix::paper().scaled(0.01)),
            Box::new(crate::Ocean { n: 64, grids: 6, iterations: 4, scale: 1.0 }),
        ];
        for w in &workloads {
            let eager = TraceAnalysis::of(&w.generate(&cfg), &cfg);
            let streamed = TraceAnalysis::of_sources(w.sources(&cfg), &cfg);
            assert_eq!(eager, streamed, "{}", w.name());
        }
    }

    #[test]
    fn radix_output_is_write_shared_while_raytrace_stacks_are_private() {
        use crate::Workload;
        let machine = MachineConfig::paper_baseline();
        let radix = TraceAnalysis::of(&crate::Radix::paper().scaled(0.02).generate(&machine), &machine);
        let ray =
            TraceAnalysis::of(&crate::Raytrace::paper().scaled(0.02).generate(&machine), &machine);
        assert!(
            radix.write_shared_pages * 10 > radix.pages,
            "radix output pages are written by many nodes ({}/{})",
            radix.write_shared_pages,
            radix.pages
        );
        assert!(
            radix.mean_sharing_degree() > ray.mean_sharing_degree() * 0.8
                || ray.shared_pages() > 0,
            "sanity on sharing metrics"
        );
    }
}
