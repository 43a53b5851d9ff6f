//! The content-addressed on-disk result store.
//!
//! Each finished [`SimReport`] is written as a [`vcoma::codec`] envelope
//! at `ROOT/<d0d1>/<rest>.json`, where `<d0d1><rest>` is the point's
//! 128-bit key digest (two-level fan-out keeps directories small). A
//! `.material` sidecar records the exact key material, so a digest is
//! always diagnosable back to the config that produced it.
//!
//! Loads verify provenance before trusting a file: the envelope must
//! decode under the current schema version, carry the digest it was
//! looked up by, and carry the running build's
//! [`code_fingerprint`] — anything else is a miss, never an error.
//! Writes go through a temp file + atomic rename, so a crashed or
//! killed daemon leaves either the complete old entry or the complete
//! new one, which is what makes restart-and-resume safe.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::log::Level;
use crate::vlog;
use vcoma::{codec, SimConfig, SimReport};
use vcoma_experiments::cache::{code_fingerprint, PointKey, ReportCache};

/// A [`ReportCache`] over a directory. Cheap shared handles: wrap in an
/// `Arc` and hand clones to every sweep worker.
pub struct DiskStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the root directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Loads served from the store since this handle was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Loads that fell through to simulation since this handle was
    /// opened (absent, stale-format, or foreign-fingerprint entries).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Envelopes written since this handle was opened.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    fn entry_path(&self, digest: &str) -> PathBuf {
        // Digests are 32 lowercase hex chars (see `cache::fnv128_hex`);
        // fan out on the first two.
        self.root.join(&digest[..2]).join(format!("{}.json", &digest[2..]))
    }

    fn miss(&self) -> Option<SimReport> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }
}

impl ReportCache for DiskStore {
    fn load(&self, key: &PointKey, cfg: &SimConfig) -> Option<SimReport> {
        let path = self.entry_path(&key.digest);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => return self.miss(),
        };
        match codec::decode(&text, cfg.clone()) {
            Ok(d) if d.key == key.digest && d.fingerprint == code_fingerprint() => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(d.report)
            }
            // Wrong schema version, foreign fingerprint, truncated file:
            // all just mean "not usable", i.e. a miss.
            _ => self.miss(),
        }
    }

    fn store(&self, key: &PointKey, report: &SimReport) {
        let path = self.entry_path(&key.digest);
        let dir = path.parent().expect("entry paths have a parent");
        let text = codec::encode(report, code_fingerprint(), &key.digest);
        // Unique temp name per write (concurrent workers may race on one
        // digest; both renames install identical bytes).
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{}.{}.{seq}.tmp", &key.digest[2..], std::process::id()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&tmp, &text))
            .and_then(|()| std::fs::rename(&tmp, &path));
        match written {
            Ok(()) => {
                // Best-effort observability sidecar; losing it never
                // affects correctness.
                let _ = std::fs::write(path.with_extension("material"), &key.material);
                self.writes.fetch_add(1, Ordering::Relaxed);
                vlog!(Level::Debug, "store-write", "digest={} bytes={}", key.digest, text.len());
            }
            Err(e) => {
                // A store that cannot write degrades to re-simulation.
                let _ = std::fs::remove_file(&tmp);
                vlog!(Level::Warn, "store-write-failed", "digest={} error={e}", key.digest);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcoma::workloads::{UniformRandom, Workload};
    use vcoma::{simulate, Machine, MachineConfig, Scheme, SimConfig};
    use vcoma_experiments::cache::point_key;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("vcoma-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_run() -> (SimConfig, UniformRandom) {
        let w = UniformRandom { pages: 16, refs_per_node: 100, write_fraction: 0.25 };
        (SimConfig::new(MachineConfig::tiny(), Scheme::V_COMA).with_seed(7), w)
    }

    #[test]
    fn store_round_trips_a_report() {
        let dir = tmpdir("roundtrip");
        let store = DiskStore::open(&dir).expect("open");
        let (sim, w) = small_run();
        let key = point_key(&sim, &w, 1.0, code_fingerprint());

        assert!(store.load(&key, &sim).is_none(), "store starts empty");
        assert_eq!((store.hits(), store.misses()), (0, 1));

        let report = simulate(sim.clone(), &w).expect("runs");
        store.store(&key, &report);
        assert_eq!(store.writes(), 1);

        let loaded = store.load(&key, &sim).expect("hit after store");
        assert_eq!(format!("{loaded:?}"), format!("{report:?}"));
        assert_eq!((store.hits(), store.misses()), (1, 1));

        // The sidecar records the key material.
        let material_path = store.entry_path(&key.digest).with_extension("material");
        let material = std::fs::read_to_string(material_path).expect("sidecar exists");
        assert_eq!(material, key.material);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_run_whose_event_ring_overflowed_loads_identically() {
        // A 4-entry ring overflows under this TLB-thrashing workload; a
        // store hit must still equal the fresh run.
        let dir = tmpdir("overflow");
        let store = DiskStore::open(&dir).expect("open");
        let w = UniformRandom { pages: 200, refs_per_node: 1000, write_fraction: 0.3 };
        let cfg = SimConfig::new(MachineConfig::tiny(), Scheme::L0_TLB)
            .with_seed(9)
            .with_event_capacity(4);
        let key = point_key(&cfg, &w, 1.0, code_fingerprint());
        let report = Machine::new(cfg.clone()).run(w.generate(&cfg.machine)).expect("runs");
        store.store(&key, &report);
        let loaded = store.load(&key, &cfg).expect("hit after store");
        assert_eq!(format!("{loaded:?}"), format!("{report:?}"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_entries_are_misses_not_errors() {
        let dir = tmpdir("foreign");
        let store = DiskStore::open(&dir).expect("open");
        let (sim, w) = small_run();
        let key = point_key(&sim, &w, 1.0, code_fingerprint());
        let report = simulate(sim.clone(), &w).expect("runs");
        store.store(&key, &report);

        // Corrupt: a future schema version must be ignored, not served.
        let path = store.entry_path(&key.digest);
        let text = std::fs::read_to_string(&path).expect("entry");
        let current = format!("\"version\":{}", codec::VERSION);
        std::fs::write(&path, text.replace(&current, "\"version\":999")).expect("rewrite");
        assert!(store.load(&key, &sim).is_none());

        // Truncated file: also a miss.
        std::fs::write(&path, &text[..text.len() / 2]).expect("truncate");
        assert!(store.load(&key, &sim).is_none());

        // Restoring the original bytes restores the hit.
        std::fs::write(&path, &text).expect("restore");
        assert!(store.load(&key, &sim).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelopes_past_the_span_kind_caps_are_misses() {
        let dir = tmpdir("kind-cap");
        let store = DiskStore::open(&dir).expect("open");
        let (sim, w) = small_run();
        let sim = sim.with_trace(vcoma::TraceConfig { sample_every: 1, capacity: 64 });
        let key = point_key(&sim, &w, 1.0, code_fingerprint());
        store.store(&key, &simulate(sim.clone(), &w).expect("runs"));
        let path = store.entry_path(&key.digest);
        let text = std::fs::read_to_string(&path).expect("entry");
        let issue = "\"kind\":\"issue\"";
        assert!(text.contains(issue), "the entry carries spans");

        // A kind longer than the interner takes fails the decode: a miss.
        let long = format!("\"kind\":\"{}\"", "k".repeat(vcoma::metrics::MAX_INTERNED_LEN + 1));
        std::fs::write(&path, text.replacen(issue, &long, 1)).expect("rewrite");
        assert!(store.load(&key, &sim).is_none());
        assert_eq!(store.misses(), 1);

        std::fs::write(&path, &text).expect("restore");
        assert!(store.load(&key, &sim).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_handle_on_the_same_root_sees_the_entries() {
        // Persistence across "restarts": reopening the directory serves
        // everything the first handle wrote.
        let dir = tmpdir("reopen");
        let (sim, w) = small_run();
        let key = point_key(&sim, &w, 1.0, code_fingerprint());
        let report = simulate(sim.clone(), &w).expect("runs");
        {
            let store = DiskStore::open(&dir).expect("open");
            store.store(&key, &report);
        }
        let store = DiskStore::open(&dir).expect("reopen");
        let loaded = store.load(&key, &sim).expect("persisted entry");
        assert_eq!(format!("{loaded:?}"), format!("{report:?}"));
        assert_eq!((store.hits(), store.misses(), store.writes()), (1, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
