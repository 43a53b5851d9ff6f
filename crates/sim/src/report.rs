//! Simulation results.

use crate::breakdown::LatencyBreakdown;
use crate::{SimConfig, TimeBreakdown};
use vcoma_cachesim::CacheStats;
use vcoma_coherence::ProtocolStats;
use vcoma_metrics::{Mergeable, MetricsSnapshot, TraceSnapshot};
use vcoma_net::NetStats;
use vcoma_tlb::TlbStats;
use vcoma_vm::PressureProfile;

/// Per-node results of one run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct NodeReport {
    /// The node's final local time.
    pub time: u64,
    /// The node's fine-grained latency attribution; conserves cycles:
    /// `fine.total() == time`. Its Figure-10 view is `fine.coarse()`.
    pub fine: LatencyBreakdown,
    /// Memory references issued.
    pub refs: u64,
    /// Loads issued.
    pub reads: u64,
    /// Stores issued.
    pub writes: u64,
    /// Per-bank-member translation statistics (TLB for `L0`–`L3`, DLB for
    /// V-COMA), in spec order.
    pub translation: Vec<TlbStats>,
    /// FLC statistics.
    pub flc: CacheStats,
    /// SLC statistics.
    pub slc: CacheStats,
}

/// Results of one simulation run.
///
/// Built only inside this crate (by the machine at the end of a run and by
/// [`codec::decode`](crate::codec::decode)); read through the getters and
/// aggregate helpers.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub(crate) cfg: SimConfig,
    pub(crate) nodes: Vec<NodeReport>,
    pub(crate) protocol: ProtocolStats,
    pub(crate) net: NetStats,
    pub(crate) pressure: PressureProfile,
    pub(crate) swap_outs: u64,
    pub(crate) metrics: MetricsSnapshot,
    pub(crate) trace: Option<TraceSnapshot>,
}

impl SimReport {
    /// The configuration of the run.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Per-node reports.
    pub fn nodes(&self) -> &[NodeReport] {
        &self.nodes
    }

    /// Machine-wide protocol statistics.
    pub fn protocol(&self) -> &ProtocolStats {
        &self.protocol
    }

    /// Crossbar traffic statistics.
    pub fn net(&self) -> &NetStats {
        &self.net
    }

    /// Total crossbar messages.
    pub fn net_msgs(&self) -> u64 {
        self.net.total_msgs()
    }

    /// Total crossbar payload bytes.
    pub fn net_bytes(&self) -> u64 {
        self.net.bytes
    }

    /// The machine's metrics snapshot: the per-request latency
    /// histograms. Traced events stay in the machine's ring and are not
    /// part of the report.
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }

    /// The merged transaction-trace snapshot, if the run was traced.
    pub fn trace(&self) -> Option<&TraceSnapshot> {
        self.trace.as_ref()
    }

    /// The end-of-run global-page-set pressure profile (Figure 11).
    pub fn pressure(&self) -> &PressureProfile {
        &self.pressure
    }

    /// Pages the page daemon swapped out to make room — V-COMA global-set
    /// saturation or physical frame exhaustion (zero when the footprint
    /// fits, as in all paper runs).
    pub fn swap_outs(&self) -> u64 {
        self.swap_outs
    }

    /// Execution time: the maximum node completion time.
    pub fn exec_time(&self) -> u64 {
        self.nodes.iter().map(|n| n.time).max().unwrap_or(0)
    }

    /// Total simulated cycles across all nodes — the work metric behind
    /// the sweep harness's cycles-per-second throughput figure.
    pub fn simulated_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.time).sum()
    }

    /// Total processor references across all nodes.
    pub fn total_refs(&self) -> u64 {
        self.nodes.iter().map(|n| n.refs).sum()
    }

    /// Total stores across all nodes.
    pub fn total_writes(&self) -> u64 {
        self.nodes.iter().map(|n| n.writes).sum()
    }

    /// Sum of all nodes' time breakdowns, in Figure 10's categories.
    pub fn aggregate_breakdown(&self) -> TimeBreakdown {
        self.aggregate_fine().coarse()
    }

    /// Sum of all nodes' fine latency breakdowns; conserves cycles:
    /// `aggregate_fine().total() == simulated_cycles()`.
    pub fn aggregate_fine(&self) -> LatencyBreakdown {
        let mut b = LatencyBreakdown::default();
        for n in &self.nodes {
            b.merge(&n.fine);
        }
        b
    }

    /// Average per-node breakdown (the unit of Figure 10's bars).
    pub fn mean_breakdown(&self) -> TimeBreakdownF {
        let agg = self.aggregate_breakdown();
        let n = self.nodes.len().max(1) as f64;
        TimeBreakdownF {
            busy: agg.busy as f64 / n,
            sync: agg.sync as f64 / n,
            local_stall: agg.local_stall as f64 / n,
            remote_stall: agg.remote_stall as f64 / n,
            translation: agg.translation as f64 / n,
        }
    }

    /// Total translation (TLB or DLB) accesses for bank member `bank`.
    pub fn translation_accesses_total(&self, bank: usize) -> u64 {
        self.nodes.iter().map(|n| n.translation[bank].accesses).sum()
    }

    /// Total translation misses for bank member `bank` across the machine.
    pub fn translation_misses_total(&self, bank: usize) -> u64 {
        self.nodes.iter().map(|n| n.translation[bank].misses).sum()
    }

    /// Average translation misses **per node** for bank member `bank` —
    /// the y-axis of Figure 8.
    pub fn translation_misses_per_node(&self, bank: usize) -> f64 {
        self.translation_misses_total(bank) as f64 / self.nodes.len().max(1) as f64
    }

    /// Translation miss rate per processor reference for bank member
    /// `bank` — the metric of Table 2.
    pub fn translation_miss_rate(&self, bank: usize) -> f64 {
        let refs = self.total_refs();
        if refs == 0 {
            0.0
        } else {
            self.translation_misses_total(bank) as f64 / refs as f64
        }
    }

    /// Aggregated FLC statistics.
    pub fn flc_total(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for n in &self.nodes {
            s.merge(&n.flc);
        }
        s
    }

    /// Aggregated SLC statistics.
    pub fn slc_total(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for n in &self.nodes {
            s.merge(&n.slc);
        }
        s
    }
}

/// A fractional time breakdown (per-node averages).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdownF {
    /// Instruction execution.
    pub busy: f64,
    /// Barrier/lock waiting.
    pub sync: f64,
    /// Local cache/AM stalls.
    pub local_stall: f64,
    /// Coherence-transaction stalls.
    pub remote_stall: f64,
    /// Translation-miss service time.
    pub translation: f64,
}

impl TimeBreakdownF {
    /// Total of all categories.
    pub fn total(&self) -> f64 {
        self.busy + self.sync + self.local_stall + self.remote_stall + self.translation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma_tlb::Scheme;
    use vcoma_types::MachineConfig;

    fn report(nodes: Vec<NodeReport>, pressure: PressureProfile) -> SimReport {
        SimReport {
            cfg: SimConfig::new(MachineConfig::tiny(), Scheme::L0_TLB),
            nodes,
            protocol: ProtocolStats::default(),
            net: NetStats::default(),
            pressure,
            swap_outs: 0,
            metrics: MetricsSnapshot::default(),
            trace: None,
        }
    }

    fn empty_report() -> SimReport {
        report(vec![], PressureProfile::from_occupancy(&[0, 0], 4))
    }

    #[test]
    fn reports_cross_thread_boundaries() {
        // The sweep harness moves reports out of worker threads; keep
        // `SimReport` `Send` (a compile-time property, asserted here).
        fn assert_send<T: Send>() {}
        assert_send::<SimReport>();
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = empty_report();
        assert_eq!(r.exec_time(), 0);
        assert_eq!(r.total_refs(), 0);
        assert_eq!(r.translation_miss_rate(0), 0.0);
        assert_eq!(r.mean_breakdown().total(), 0.0);
        assert_eq!(r.aggregate_fine().total(), 0);
        assert_eq!(r.net_msgs(), 0);
        assert_eq!(r.net_bytes(), 0);
        assert_eq!(r.swap_outs(), 0);
        assert!(r.metrics().histograms.is_empty());
        assert!(r.trace().is_none(), "trace stays unset unless supplied");
    }

    #[test]
    fn aggregation_over_nodes() {
        let mk_node = |time, refs, misses| NodeReport {
            time,
            fine: LatencyBreakdown { busy: 10, network: 5, ..LatencyBreakdown::default() },
            refs,
            reads: refs,
            writes: 0,
            translation: vec![TlbStats { accesses: refs, misses, ..TlbStats::default() }],
            flc: CacheStats::default(),
            slc: CacheStats::default(),
        };
        let r = report(
            vec![mk_node(100, 50, 5), mk_node(200, 50, 15)],
            PressureProfile::from_occupancy(&[0], 1),
        );
        assert_eq!(r.exec_time(), 200);
        assert_eq!(r.simulated_cycles(), 300);
        assert_eq!(r.total_refs(), 100);
        assert_eq!(r.translation_misses_total(0), 20);
        assert_eq!(r.translation_misses_per_node(0), 10.0);
        assert!((r.translation_miss_rate(0) - 0.2).abs() < 1e-12);
        assert_eq!(r.aggregate_breakdown().busy, 20);
        assert_eq!(r.aggregate_fine().network, 10);
        assert_eq!(r.mean_breakdown().busy, 10.0);
    }
}
