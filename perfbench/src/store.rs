//! A `ReportCache` that times every call into the sweep daemon's
//! `DiskStore` where it happens.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vcoma::{SimConfig, SimReport};
use vcoma_experiments::cache::{PointKey, ReportCache};
use vcoma_server::store::DiskStore;

/// One timed store call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub start: Instant,
    pub took: Duration,
}

/// Everything a store handle saw since it was opened or last drained.
#[derive(Default)]
pub struct StoreLog {
    pub loads: Vec<Call>,
    pub writes: Vec<Call>,
    /// Every report written, with its key.
    pub written: Vec<(PointKey, SimReport)>,
}

/// A `DiskStore` whose loads and writes are timed in place.
pub struct TimedStore {
    disk: DiskStore,
    log: Mutex<StoreLog>,
}

impl TimedStore {
    pub fn open(root: PathBuf) -> Result<TimedStore, String> {
        let disk = DiskStore::open(root.clone())
            .map_err(|e| format!("open store {}: {e}", root.display()))?;
        Ok(TimedStore {
            disk,
            log: Mutex::default(),
        })
    }

    pub fn disk(&self) -> &DiskStore {
        &self.disk
    }

    pub fn log(&self) -> MutexGuard<'_, StoreLog> {
        self.log
            .lock()
            .expect("a thread panicked while logging a store call")
    }

    pub fn take_log(&self) -> StoreLog {
        std::mem::take(&mut *self.log())
    }
}

impl ReportCache for TimedStore {
    fn load(&self, key: &PointKey, cfg: &SimConfig) -> Option<SimReport> {
        let start = Instant::now();
        let report = self.disk.load(key, cfg);
        let took = start.elapsed();
        self.log().loads.push(Call { start, took });
        report
    }

    fn store(&self, key: &PointKey, report: &SimReport) {
        let start = Instant::now();
        self.disk.store(key, report);
        let took = start.elapsed();
        let mut log = self.log();
        log.writes.push(Call { start, took });
        log.written.push((key.clone(), report.clone()));
    }
}
