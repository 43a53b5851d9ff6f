//! Content-addressed caching of simulation results.
//!
//! Every sweep point the harness evaluates is a pure function of its
//! [`SimConfig`], its workload, and the code that was compiled — so a
//! finished [`SimReport`] can be keyed by a stable digest of exactly
//! those inputs and served from a store instead of re-simulated. This
//! module defines that key ([`PointKey`], [`point_key`]), the process
//! [`code_fingerprint`] that ties cached results to the code revision
//! that produced them, and the [`ReportCache`] trait the sweep server's
//! on-disk store implements.
//!
//! The key deliberately **excludes** the execution-strategy knob
//! `--jobs`, because the simulator's reports are byte-identical at any
//! worker count (the determinism the integration suite pins). Two runs
//! that differ only in parallelism share cache entries; two runs that
//! differ in any result-affecting input (machine, scheme, specs, seed,
//! workload, scale, code) never do.

use std::sync::OnceLock;

use vcoma::workloads::Workload;
use vcoma::{all_schemes, SimConfig, SimReport};

/// The content address of one sweep point: a digest plus the exact
/// material it was hashed from (kept for observability — a store can
/// write it next to the result so collisions are diagnosable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointKey {
    /// 128-bit hex digest of `material`; the store's file name.
    pub digest: String,
    /// The canonical description the digest covers.
    pub material: String,
}

/// A store of finished simulation reports, keyed by [`PointKey`].
///
/// Implementations must be safe to call from sweep worker threads.
/// `load` returns `None` on any miss — absent, unreadable, stale
/// format, foreign fingerprint — and `store` failures must be
/// non-fatal (a cache that cannot write degrades to re-simulation).
pub trait ReportCache: Send + Sync {
    /// Fetches the report stored under `key`, reassembled around `cfg`
    /// (the same config whose digest located it). `None` means miss.
    fn load(&self, key: &PointKey, cfg: &SimConfig) -> Option<SimReport>;

    /// Persists `report` under `key`.
    fn store(&self, key: &PointKey, report: &SimReport);
}

/// 64-bit FNV-1a over `bytes`, from the given offset basis.
fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// 128-bit hex digest: two independent FNV-1a passes (the standard
/// offset basis and a second basis derived from it), concatenated.
/// Not cryptographic — the store keeps the full material alongside the
/// digest, so a collision is detectable, merely not expected.
pub fn fnv128_hex(material: &str) -> String {
    const BASIS1: u64 = 0xcbf2_9ce4_8422_2325;
    const BASIS2: u64 = BASIS1 ^ 0x9e37_79b9_7f4a_7c15;
    let h1 = fnv1a64(material.as_bytes(), BASIS1);
    let h2 = fnv1a64(material.as_bytes(), BASIS2);
    format!("{h1:016x}{h2:016x}")
}

/// The process-wide code fingerprint: a digest of the crate version,
/// the report codec's schema version, and the full descriptor of every
/// registered translation scheme. Any change to the code that could
/// change a result — a version bump, a codec format change, a scheme
/// added or redefined — changes the fingerprint, and with it every
/// cache key, so stale stores miss instead of serving wrong answers.
///
/// Computed once on first use; a daemon that registers plugin schemes
/// must do so before its first cache operation.
pub fn code_fingerprint() -> &'static str {
    static FP: OnceLock<String> = OnceLock::new();
    FP.get_or_init(|| {
        let mut material = format!(
            "vcoma-experiments {} codec-v{}",
            env!("CARGO_PKG_VERSION"),
            vcoma::codec::VERSION
        );
        for scheme in all_schemes() {
            let s = scheme.spec();
            material.push_str(&format!(
                "\n{} label={} order={} paper={} flc={} slc={} am={} proto={} wb={} \
                 tlb={} alloc={:?} at={:?} doc={}",
                s.key,
                s.label,
                s.order,
                s.paper,
                s.virtual_flc,
                s.virtual_slc,
                s.virtual_am,
                s.virtual_protocol,
                s.writebacks_translate,
                s.has_private_tlb,
                s.alloc,
                s.translate_at,
                s.doc,
            ));
        }
        format!("{}-{}", env!("CARGO_PKG_VERSION"), fnv128_hex(&material))
    })
}

/// Builds the cache key of one sweep point: the simulation config
/// (machine, scheme, TLB/DLB specs, seed, every result-affecting
/// toggle), the workload's identity and parameters, the experiment
/// scale, and the code fingerprint. Execution-strategy knobs (worker
/// counts) are not part of a [`SimConfig`] and therefore never reach the
/// key.
pub fn point_key(cfg: &SimConfig, workload: &dyn Workload, scale: f64, fingerprint: &str) -> PointKey {
    let material = format!(
        "scheme={}\nconfig={:?}\nworkload={} [{}]\nscale={}\nfingerprint={}\n",
        cfg.scheme.key(),
        cfg,
        workload.name(),
        workload.params(),
        scale,
        fingerprint,
    );
    PointKey { digest: fnv128_hex(&material), material }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentConfig;
    use vcoma::workloads::by_name;
    use vcoma::Scheme;

    fn key_for(cfg: &ExperimentConfig, scheme: Scheme) -> PointKey {
        let w = by_name("RADIX", cfg.scale).expect("RADIX exists");
        point_key(&cfg.simulator(scheme), w.as_ref(), cfg.scale, code_fingerprint())
    }

    #[test]
    fn digest_is_stable_for_equal_inputs() {
        let cfg = ExperimentConfig::smoke();
        let a = key_for(&cfg, Scheme::V_COMA);
        let b = key_for(&cfg, Scheme::V_COMA);
        assert_eq!(a, b);
        assert_eq!(a.digest.len(), 32);
        assert!(a.digest.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn execution_strategy_knobs_never_reach_the_key() {
        // --jobs changes how a result is computed, never what it is; the
        // key must be identical across worker counts so a store filled at
        // one worker count serves all.
        let base = ExperimentConfig::smoke();
        let k = key_for(&base, Scheme::V_COMA);
        for variant in [
            base.clone().with_jobs(1),
            base.clone().with_jobs(7),
        ] {
            assert_eq!(key_for(&variant, Scheme::V_COMA), k);
        }
    }

    #[test]
    fn every_result_affecting_input_changes_the_digest() {
        let base = ExperimentConfig::smoke();
        let k = key_for(&base, Scheme::V_COMA);
        // Scheme.
        assert_ne!(key_for(&base, Scheme::L0_TLB).digest, k.digest);
        // Seed.
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        assert_ne!(key_for(&reseeded, Scheme::V_COMA).digest, k.digest);
        // Machine.
        let rescaled = base.clone().with_machine(vcoma::MachineConfig::tiny());
        assert_ne!(key_for(&rescaled, Scheme::V_COMA).digest, k.digest);
        // Workload scale.
        assert_ne!(key_for(&base.clone().with_scale(0.02), Scheme::V_COMA).digest, k.digest);
        // Workload identity.
        let w = by_name("FFT", base.scale).expect("FFT exists");
        let other = point_key(
            &base.simulator(Scheme::V_COMA),
            w.as_ref(),
            base.scale,
            code_fingerprint(),
        );
        assert_ne!(other.digest, k.digest);
        // Code fingerprint.
        let w = by_name("RADIX", base.scale).expect("RADIX exists");
        let foreign = point_key(
            &base.simulator(Scheme::V_COMA),
            w.as_ref(),
            base.scale,
            "other-build",
        );
        assert_ne!(foreign.digest, k.digest);
    }

    #[test]
    fn sim_config_toggles_change_the_digest() {
        let cfg = ExperimentConfig::smoke();
        let w = by_name("RADIX", cfg.scale).expect("RADIX exists");
        let base_sim = cfg.simulator(Scheme::L2_TLB);
        let k = point_key(&base_sim, w.as_ref(), cfg.scale, "fp");
        for sim in [
            cfg.simulator(Scheme::L2_TLB).with_entries(64),
            cfg.simulator(Scheme::L2_TLB).with_warmup(),
            cfg.simulator(Scheme::L2_TLB).with_contention(),
            cfg.simulator(Scheme::L2_TLB)
                .with_trace(vcoma::TraceConfig { sample_every: 8, capacity: 1 << 10 }),
        ] {
            let other = point_key(&sim, w.as_ref(), cfg.scale, "fp");
            assert_ne!(other.digest, k.digest, "{sim:?}");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_versioned() {
        let fp = code_fingerprint();
        assert_eq!(fp, code_fingerprint());
        assert!(fp.starts_with(env!("CARGO_PKG_VERSION")));
        let digest = fp.rsplit('-').next().expect("digest suffix");
        assert_eq!(digest.len(), 32);
    }

    #[test]
    fn fnv128_separates_nearby_material() {
        assert_ne!(fnv128_hex("a"), fnv128_hex("b"));
        assert_ne!(fnv128_hex(""), fnv128_hex("\0"));
        assert_eq!(fnv128_hex("seed=1"), fnv128_hex("seed=1"));
    }

    #[cfg(feature = "proptest-tests")]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // Distinct (seed, entries, scale) triples must produce
            // distinct digests; equal triples identical ones — over a
            // randomly sampled grid, not just the hand-picked cases.
            #[test]
            fn key_is_injective_over_a_sampled_grid(
                seed_a in 0u64..1000, seed_b in 0u64..1000,
                entries_pow_a in 3u64..10, entries_pow_b in 3u64..10,
            ) {
                let cfg = ExperimentConfig::smoke();
                let w = by_name("FFT", cfg.scale).expect("FFT exists");
                let sim_a = cfg.simulator(Scheme::V_COMA)
                    .with_seed(seed_a)
                    .with_entries(1 << entries_pow_a);
                let sim_b = cfg.simulator(Scheme::V_COMA)
                    .with_seed(seed_b)
                    .with_entries(1 << entries_pow_b);
                let ka = point_key(&sim_a, w.as_ref(), cfg.scale, "fp");
                let kb = point_key(&sim_b, w.as_ref(), cfg.scale, "fp");
                let same = seed_a == seed_b && entries_pow_a == entries_pow_b;
                prop_assert_eq!(ka.digest == kb.digest, same);
                prop_assert_eq!(ka.material == kb.material, same);
            }
        }
    }
}
