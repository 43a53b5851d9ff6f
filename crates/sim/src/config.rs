//! Simulation configuration.

use vcoma_coherence::InjectionPolicy;
use vcoma_faults::FaultPlan;
use vcoma_tlb::{Scheme, TlbOrg};
use vcoma_types::MachineConfig;

/// Configuration of the causal transaction tracer (see
/// [`SimConfig::trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Sampling period: (on average) one in `sample_every` transactions
    /// per node is traced, chosen by a keyed hash of
    /// `(seed, node, per-node reference index)` so the sampled set is a
    /// pure function of the run. `1` traces everything.
    pub sample_every: u64,
    /// Per-node span-buffer capacity; when a transaction's spans would
    /// overflow it, the whole transaction is dropped and counted.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample_every: 64, capacity: 4096 }
    }
}

/// Configuration of one simulation run: the machine, the translation
/// scheme, and the TLB/DLB geometry sweep.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Machine geometry and timing.
    pub machine: MachineConfig,
    /// The address-translation scheme under test.
    pub scheme: Scheme,
    /// TLB/DLB `(entries, organisation)` specs observed in parallel; the
    /// first is the primary that affects simulated time. The same specs are
    /// used for the per-node TLBs (`L0`–`L3`) or the per-home DLBs
    /// (V-COMA), whichever the scheme needs.
    pub translation_specs: Vec<(u64, TlbOrg)>,
    /// Master seed: drives protocol victim selection, injection forwarding
    /// and TLB random replacement. Equal seeds give bit-identical runs.
    pub seed: u64,
    /// Model crossbar output-port contention (off in the paper's model).
    pub contention: bool,
    /// Replay the traces once untimed before measuring, so caches,
    /// attraction memories and TLB/DLBs start warm — the analogue of the
    /// paper's preloaded data sets (§5.1). Off by default.
    pub warmup: bool,
    /// How master-copy victims search for a new slot (paper §4.2 random
    /// forwarding by default).
    pub injection_policy: InjectionPolicy,
    /// Capacity of the machine's structured-event ring: the newest
    /// `event_capacity` traced events (TLB/DLB misses, shootdowns,
    /// swap-outs) are kept; older ones are dropped and counted. Zero
    /// disables event tracing entirely. The ring's only reader is the
    /// auditor's violation report ([`SimError::Audit`](crate::SimError));
    /// the capacity never changes a [`SimReport`](crate::SimReport).
    pub event_capacity: usize,
    /// Deterministic fault plan: message drop/duplication/extra delay at
    /// the crossbar boundary, transient home-directory NACKs, node pause
    /// windows. `None` (the default) installs no crossbar fault hook and
    /// leaves the protocol's plan at zero, so nothing is injected.
    pub fault_plan: Option<FaultPlan>,
    /// Run the coherence-invariant auditor: after every transaction the
    /// touched blocks are checked (single owner, no lost last copy,
    /// directory/residence agreement), with periodic and end-of-run full
    /// sweeps. Independent of `fault_plan`: auditing a fault-free run is
    /// a valid (and cheap) regression check.
    pub audit: bool,
    /// Causal transaction tracing: `Some` samples transactions
    /// deterministically and records cycle-stamped span trees (TLB walks,
    /// directory occupancy, network, message hops, retries) for
    /// critical-path attribution and Chrome-trace export. `None` (the
    /// default) leaves the measured timing and every report byte-identical
    /// to builds without tracing.
    pub trace: Option<TraceConfig>,
}

impl SimConfig {
    /// Creates a configuration with the paper's default translation
    /// structure: one 8-entry fully-associative TLB/DLB.
    pub fn new(machine: MachineConfig, scheme: Scheme) -> Self {
        SimConfig {
            machine,
            scheme,
            translation_specs: vec![(8, TlbOrg::FullyAssociative)],
            seed: 0xD0_5EED,
            contention: false,
            warmup: false,
            injection_policy: InjectionPolicy::RandomForward,
            event_capacity: 1024,
            fault_plan: None,
            audit: false,
            trace: None,
        }
    }

    /// Replaces the TLB/DLB specs (first entry is the primary).
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn with_translation_specs(mut self, specs: Vec<(u64, TlbOrg)>) -> Self {
        assert!(!specs.is_empty(), "at least one TLB/DLB spec is required");
        self.translation_specs = specs;
        self
    }

    /// Convenience: a single fully-associative TLB/DLB of `entries`.
    pub fn with_entries(self, entries: u64) -> Self {
        self.with_translation_specs(vec![(entries, TlbOrg::FullyAssociative)])
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables crossbar contention modelling.
    pub fn with_contention(mut self) -> Self {
        self.contention = true;
        self
    }

    /// Enables the warm-up pass (see [`SimConfig::warmup`]).
    pub fn with_warmup(mut self) -> Self {
        self.warmup = true;
        self
    }

    /// Selects the injection policy.
    pub fn with_injection_policy(mut self, policy: InjectionPolicy) -> Self {
        self.injection_policy = policy;
        self
    }

    /// Sets the event-ring capacity (see [`SimConfig::event_capacity`]).
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Installs a deterministic fault plan (see [`SimConfig::fault_plan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables the coherence-invariant auditor (see [`SimConfig::audit`]).
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Enables causal transaction tracing (see [`SimConfig::trace`]).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SimConfig::new(MachineConfig::paper_baseline(), Scheme::L0_TLB);
        assert_eq!(c.translation_specs, vec![(8, TlbOrg::FullyAssociative)]);
        assert!(!c.contention);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA)
            .with_entries(16)
            .with_seed(99)
            .with_contention()
            .with_event_capacity(4)
            .with_fault_plan(FaultPlan::parse("drop=0.01").unwrap())
            .with_audit()
            .with_trace(TraceConfig { sample_every: 8, capacity: 256 });
        assert_eq!(c.translation_specs, vec![(16, TlbOrg::FullyAssociative)]);
        assert_eq!(c.seed, 99);
        assert!(c.contention);
        assert_eq!(c.event_capacity, 4);
        assert_eq!(c.fault_plan.as_ref().map(|p| p.drop), Some(0.01));
        assert!(c.audit);
        assert_eq!(c.trace, Some(TraceConfig { sample_every: 8, capacity: 256 }));
    }

    #[test]
    fn tracing_is_off_by_default() {
        let c = SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA);
        assert_eq!(c.trace, None);
        assert_eq!(TraceConfig::default(), TraceConfig { sample_every: 64, capacity: 4096 });
    }

    #[test]
    #[should_panic(expected = "at least one TLB/DLB spec")]
    fn empty_specs_panic() {
        SimConfig::new(MachineConfig::tiny(), Scheme::L0_TLB).with_translation_specs(vec![]);
    }
}
