//! The long-lived sweep daemon.
//!
//! One worker thread drains a FIFO job queue; each job expands to the
//! standard artifacts through [`vcoma_experiments::artifacts`] with the
//! daemon's [`DiskStore`] installed as the harness result cache, so
//! every sweep point is first looked up in the store and persisted the
//! moment it finishes. Any number of client connections (unix socket or
//! localhost TCP) submit jobs and poll status concurrently; the
//! NDJSON protocol lives in [`vcoma_experiments::protocol`].
//!
//! Jobs are **content-addressed**: the job id is a digest of the
//! submitted parameters plus the running build's code fingerprint, so
//! identical submissions collapse onto one job — and resubmitting after
//! a restart *is* the resume path, with finished points loading from
//! the store and only the remainder simulating.
//!
//! Progress comes from a per-job [`JobProgress`] sink installed into
//! the job's harness configuration: the sweep pool reports grid points
//! (announced totals and completions) and `run_cached` reports every
//! resolution — store hit or fresh simulation — with its simulated
//! cycle cost. Status responses and the HTTP `/metrics` endpoint read
//! those atomics live. The `ccnuma` artifact drives the CC-NUMA
//! reference machine directly rather than through `run_cached`, so it
//! contributes grid-point counts but no resolution counts.
//!
//! Beside the NDJSON control endpoint the daemon can open a second,
//! HTTP port (`--http ADDR`, see [`crate::http`]) serving `/metrics`,
//! `/healthz` and `/readyz` — control and observation stay on separate
//! listeners so a scrape can never stall a submit and vice versa.
//!
//! Operational events log through [`crate::log`] (`VCOMA_LOG` levels)
//! to stderr; stdout carries only the one `listening on …` readiness
//! line that scripts wait for.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::log::Level;
use crate::obs::JobProgress;
use crate::store::DiskStore;
use crate::{http, vlog};
use vcoma::metrics::json::{from_json_str, to_json_line};
use vcoma::metrics::prometheus::PrometheusExposer;
use vcoma::metrics::{HistogramSnapshot, Mergeable};
use vcoma_experiments::cache::{code_fingerprint, fnv128_hex};
use vcoma_experiments::client::Endpoint;
use vcoma_experiments::protocol::{CsvFile, Request, Response, PROTOCOL_VERSION};
use vcoma_experiments::{artifacts, sweep, ExperimentConfig};

/// Longest control-socket request line the daemon reads, in bytes. A
/// longer line gets one failure response and the connection closes, so
/// a client that never sends a newline cannot grow the daemon's memory.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// Daemon configuration: where to listen, where the store lives, and
/// the worker-pool shape every job runs with.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen endpoint (unix socket path or TCP address).
    pub listen: Endpoint,
    /// Result-store directory.
    pub store_dir: PathBuf,
    /// Sweep worker threads per job (`0` = one per available core).
    pub jobs: usize,
    /// Optional HTTP observation address (`--http`, e.g.
    /// `127.0.0.1:9188`); `None` means no HTTP port.
    pub http: Option<String>,
}

/// A validated, content-addressed job specification.
#[derive(Debug, Clone)]
struct JobSpec {
    artifacts: Vec<String>,
    scale: f64,
    nodes: u64,
    seed: u64,
    schemes: Option<String>,
}

impl JobSpec {
    /// The job id: a digest of every parameter plus the code
    /// fingerprint, so equal submissions share one job and a rebuilt
    /// daemon never serves another build's artifacts.
    fn id(&self) -> String {
        fnv128_hex(&format!(
            "artifacts={:?} scale={} nodes={} seed={} schemes={:?} fingerprint={}",
            self.artifacts,
            self.scale,
            self.nodes,
            self.seed,
            self.schemes,
            code_fingerprint(),
        ))
    }

    /// Builds the job's harness configuration (validation happened at
    /// submit time).
    fn experiment_config(&self, daemon: &DaemonConfig, store: Arc<DiskStore>) -> ExperimentConfig {
        let machine =
            vcoma::MachineConfig::builder().nodes(self.nodes).build().expect("validated at submit");
        let mut cfg = ExperimentConfig { machine, ..ExperimentConfig::new() }
            .with_scale(self.scale)
            .with_jobs(daemon.jobs)
            .with_cache(store);
        cfg.seed = self.seed;
        if let Some(spec) = &self.schemes {
            cfg = cfg.with_schemes(vcoma::SchemeSet::parse(spec).expect("validated at submit"));
        }
        cfg
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobPhase {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobPhase {
    fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
        }
    }
}

struct JobState {
    spec: JobSpec,
    phase: JobPhase,
    artifacts_done: u64,
    /// Live progress counters, shared with the job's sweep workers
    /// while it runs; replaced with a fresh instance (and frozen at
    /// completion) each time the job starts running.
    progress: Arc<JobProgress>,
    files: Vec<CsvFile>,
    error: Option<String>,
}

/// The daemon: store, job table, queue, and lifecycle flags. Create
/// with [`Daemon::new`], run with [`Daemon::serve`].
///
/// Lock ordering: `jobs` before `queue` — every path that needs both
/// (metrics assembly, submit) takes them in that order.
pub struct Daemon {
    config: DaemonConfig,
    store: Arc<DiskStore>,
    started: Instant,
    jobs: Mutex<BTreeMap<String, JobState>>,
    queue: Mutex<VecDeque<String>>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// The HTTP port's bound address, recorded by [`Daemon::serve`];
    /// lets tests bind port `0` and discover where it landed.
    http_addr: Mutex<Option<SocketAddr>>,
}

impl Daemon {
    /// Opens the store and prepares a daemon; no threads start until
    /// [`Daemon::serve`].
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store directory cannot be created.
    pub fn new(config: DaemonConfig) -> std::io::Result<Arc<Daemon>> {
        let store = Arc::new(DiskStore::open(&config.store_dir)?);
        Ok(Arc::new(Daemon {
            config,
            store,
            started: Instant::now(),
            jobs: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            http_addr: Mutex::new(None),
        }))
    }

    /// The daemon's result store.
    pub fn store(&self) -> &Arc<DiskStore> {
        &self.store
    }

    /// Whether shutdown has been requested (the HTTP loop polls this).
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Jobs waiting in the queue right now.
    pub fn queue_depth(&self) -> u64 {
        self.lock_queue().len() as u64
    }

    /// Whether the store root still exists on disk — the health signal
    /// behind `/healthz` and `/readyz`.
    pub fn store_reachable(&self) -> bool {
        self.config.store_dir.is_dir()
    }

    /// Whole seconds since the daemon was created.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Where the HTTP observation port is bound, once [`Daemon::serve`]
    /// has bound it (`None` before that, or when `--http` is off).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        *self.http_addr.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the job table, recovering from poisoning.
    ///
    /// A panicking artifact unwinds through `run_job` while one of these
    /// mutexes may be held (progress updates interleave with the sweep),
    /// poisoning it. The tables hold plain bookkeeping whose invariants
    /// every writer restores before releasing, so the poison flag carries
    /// no information: recover the guard and keep serving instead of
    /// letting every later `status`/`fetch`/`submit` panic.
    fn lock_jobs(&self) -> MutexGuard<'_, BTreeMap<String, JobState>> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the queue, recovering from poisoning (see [`Daemon::lock_jobs`]).
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<String>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Requests shutdown: the accept loop and worker stop at their next
    /// check and [`Daemon::serve`] returns.
    pub fn request_shutdown(&self) {
        // The flag is flipped while holding the queue lock: the worker
        // re-checks it under the same lock before blocking on the condvar,
        // so this notify cannot land in the gap between that check and the
        // wait (the classic lost wakeup, previously masked by a 100 ms
        // `wait_timeout` poll).
        let _queue = self.lock_queue();
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// Binds the listen endpoint, spawns the worker, and serves until
    /// shutdown is requested. Prints one `listening on …` line to
    /// stdout once ready (scripts wait for it).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the endpoint cannot be bound.
    pub fn serve(self: &Arc<Daemon>) -> std::io::Result<()> {
        let listener = match &self.config.listen {
            Endpoint::Unix(path) => {
                // A previous daemon's socket file would make bind fail;
                // it is dead by definition if we are starting.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Listener::Unix(l)
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Listener::Tcp(l)
            }
        };
        let http_thread = match &self.config.http {
            None => None,
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                let bound = l.local_addr()?;
                *self.http_addr.lock().unwrap_or_else(PoisonError::into_inner) = Some(bound);
                let daemon = Arc::clone(self);
                Some(std::thread::spawn(move || http::serve(l, daemon)))
            }
        };
        match self.http_addr() {
            Some(http) => println!(
                "vcoma-sweepd listening on {} (http {http}, store {}, fingerprint {})",
                self.config.listen,
                self.config.store_dir.display(),
                code_fingerprint()
            ),
            None => println!(
                "vcoma-sweepd listening on {} (store {}, fingerprint {})",
                self.config.listen,
                self.config.store_dir.display(),
                code_fingerprint()
            ),
        }
        std::io::stdout().flush().ok();
        vlog!(
            Level::Info,
            "daemon-start",
            "listen={} store={} fingerprint={}",
            self.config.listen,
            self.config.store_dir.display(),
            code_fingerprint()
        );

        let worker = {
            let daemon = Arc::clone(self);
            std::thread::spawn(move || daemon.worker_loop())
        };
        while !self.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok(stream) => {
                    let daemon = Arc::clone(self);
                    std::thread::spawn(move || daemon.handle_connection(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    vlog!(Level::Warn, "accept-failed", "error={e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        self.wake.notify_all();
        worker.join().ok();
        if let Some(t) = http_thread {
            t.join().ok();
        }
        if let Endpoint::Unix(path) = &self.config.listen {
            let _ = std::fs::remove_file(path);
        }
        vlog!(Level::Info, "daemon-stop", "uptime_seconds={}", self.uptime_seconds());
        Ok(())
    }

    fn handle_connection(self: Arc<Daemon>, stream: Stream) {
        vlog!(Level::Debug, "connect");
        let Ok(write_half) = stream.try_clone() else { return };
        let mut writer = write_half;
        let mut reader = BufReader::new(stream);
        let mut respond = |resp: &Response| {
            let Ok(mut out) = to_json_line(resp) else { return false };
            out.push('\n');
            writer.write_all(out.as_bytes()).and_then(|()| writer.flush()).is_ok()
        };
        let mut buf = Vec::new();
        loop {
            buf.clear();
            // One byte past the cap tells an oversized line from one
            // that ends exactly at it.
            let limit = MAX_REQUEST_LINE as u64 + 1;
            match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            if buf.last() == Some(&b'\n') {
                buf.pop();
            } else if buf.len() > MAX_REQUEST_LINE {
                vlog!(Level::Warn, "request-too-long", "limit_bytes={MAX_REQUEST_LINE}");
                respond(&Response::failure("request line too long"));
                return;
            }
            let Ok(line) = std::str::from_utf8(&buf) else { return };
            if line.trim().is_empty() {
                continue;
            }
            let resp = match from_json_str::<Request>(line) {
                Ok(req) => self.dispatch(&req),
                Err(e) => Response::failure(format!("malformed request: {e}")),
            };
            if !respond(&resp) {
                return;
            }
        }
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req.op.as_str() {
            "ping" => {
                let mut r = Response::success();
                r.protocol = Some(PROTOCOL_VERSION);
                r.fingerprint = Some(code_fingerprint().to_string());
                r
            }
            "submit" => self.submit(req),
            "status" => self.status(req),
            "fetch" => self.fetch(req),
            "stats" => {
                let (queued, running, done, failed) = self.phase_counts(&self.lock_jobs());
                let mut r = Response::success();
                r.fingerprint = Some(code_fingerprint().to_string());
                r.uptime_seconds = Some(self.uptime_seconds());
                r.jobs_queued = Some(queued);
                r.jobs_running = Some(running);
                r.jobs_done = Some(done);
                r.jobs_failed = Some(failed);
                r.store_hits = Some(self.store.hits());
                r.store_misses = Some(self.store.misses());
                r.store_writes = Some(self.store.writes());
                r
            }
            "shutdown" => {
                vlog!(Level::Info, "shutdown-request");
                self.request_shutdown();
                Response::success()
            }
            other => Response::failure(format!("unknown op '{other}'")),
        }
    }

    fn submit(&self, req: &Request) -> Response {
        let artifact_list = match &req.artifacts {
            None => artifacts::STANDARD.iter().map(|s| s.to_string()).collect(),
            Some(list) if list.is_empty() => {
                return Response::failure("submit got an empty artifact list");
            }
            Some(list) => {
                for a in list {
                    if !artifacts::STANDARD.contains(&a.as_str()) {
                        return Response::failure(format!(
                            "unknown artifact '{a}' (servable: {})",
                            artifacts::STANDARD.join(" ")
                        ));
                    }
                }
                list.clone()
            }
        };
        let defaults = ExperimentConfig::new();
        let scale = req.scale.unwrap_or(defaults.scale);
        if !(scale > 0.0 && scale.is_finite()) {
            return Response::failure(format!("scale must be a positive fraction, got {scale}"));
        }
        let nodes = req.nodes.unwrap_or(defaults.machine.nodes);
        if let Err(e) = vcoma::MachineConfig::builder().nodes(nodes).build() {
            return Response::failure(format!("invalid machine: {e}"));
        }
        if let Some(spec) = &req.schemes {
            if let Err(e) = vcoma::SchemeSet::parse(spec) {
                return Response::failure(format!("invalid schemes '{spec}': {e}"));
            }
        }
        let spec = JobSpec {
            artifacts: artifact_list,
            scale,
            nodes,
            seed: req.seed.unwrap_or(defaults.seed),
            schemes: req.schemes.clone(),
        };
        let id = spec.id();
        let phase = {
            let mut jobs = self.lock_jobs();
            match jobs.get(&id) {
                // Content-addressed dedup: an identical submission joins
                // the existing job in whatever phase it is in. A failed
                // job is re-enqueued (the failure may have been
                // environmental).
                Some(existing) if existing.phase != JobPhase::Failed => {
                    vlog!(Level::Info, "dedupe", "job={id} state={}", existing.phase.as_str());
                    existing.phase
                }
                _ => {
                    vlog!(
                        Level::Info,
                        "submit",
                        "job={id} artifacts={} scale={} nodes={} seed={}",
                        spec.artifacts.len(),
                        spec.scale,
                        spec.nodes,
                        spec.seed
                    );
                    jobs.insert(
                        id.clone(),
                        JobState {
                            spec,
                            phase: JobPhase::Queued,
                            artifacts_done: 0,
                            progress: Arc::new(JobProgress::new(&id)),
                            files: Vec::new(),
                            error: None,
                        },
                    );
                    let mut queue = self.lock_queue();
                    queue.push_back(id.clone());
                    // Notify while the queue lock is held: plain `wait`
                    // in the worker depends on it (no timeout safety net).
                    self.wake.notify_all();
                    drop(queue);
                    JobPhase::Queued
                }
            }
        };
        let mut r = Response::success();
        r.job = Some(id);
        r.state = Some(phase.as_str().to_string());
        r
    }

    fn status(&self, req: &Request) -> Response {
        let Some(id) = &req.job else {
            return Response::failure("status needs a job id");
        };
        let jobs = self.lock_jobs();
        let Some(job) = jobs.get(id) else {
            return Response::failure(format!("unknown job '{id}'"));
        };
        // The progress atomics are written live by the job's sweep
        // workers and frozen when the job finishes, so one read path
        // serves every phase.
        let p = &job.progress;
        let mut r = Response::success();
        r.job = Some(id.clone());
        r.state = Some(job.phase.as_str().to_string());
        r.error = job.error.clone();
        r.artifacts_done = Some(job.artifacts_done);
        r.artifacts_total = Some(job.spec.artifacts.len() as u64);
        r.points_done = Some(p.points_done());
        r.points_total = Some(p.points_total());
        r.cache_hits = Some(p.cached());
        r.simulated = Some(p.simulated());
        r.cycles_per_sec = Some(match job.phase {
            JobPhase::Queued => 0.0,
            _ => p.cycles_per_sec(),
        });
        r
    }

    fn fetch(&self, req: &Request) -> Response {
        let Some(id) = &req.job else {
            return Response::failure("fetch needs a job id");
        };
        let jobs = self.lock_jobs();
        let Some(job) = jobs.get(id) else {
            return Response::failure(format!("unknown job '{id}'"));
        };
        if job.phase != JobPhase::Done {
            return Response::failure(format!(
                "job '{id}' is {}, fetch needs it done",
                job.phase.as_str()
            ));
        }
        let mut r = Response::success();
        r.job = Some(id.clone());
        r.state = Some(job.phase.as_str().to_string());
        r.files = Some(job.files.clone());
        r
    }

    /// Counts jobs by phase under an already-held jobs lock:
    /// `(queued, running, done, failed)`.
    fn phase_counts(&self, jobs: &BTreeMap<String, JobState>) -> (u64, u64, u64, u64) {
        let mut counts = (0u64, 0u64, 0u64, 0u64);
        for job in jobs.values() {
            match job.phase {
                JobPhase::Queued => counts.0 += 1,
                JobPhase::Running => counts.1 += 1,
                JobPhase::Done => counts.2 += 1,
                JobPhase::Failed => counts.3 += 1,
            }
        }
        counts
    }

    /// Renders the full Prometheus scrape for `GET /metrics`: build
    /// info, uptime, job phases, queue depth, worker occupancy, store
    /// counters, cumulative point/cycle counters, the running job's
    /// cycles/s, per-job progress gauges, and the merged per-point
    /// simulated-cycle histogram.
    pub fn metrics_text(&self) -> String {
        let jobs = self.lock_jobs();
        let queue_depth = self.queue_depth(); // jobs -> queue lock order
        let (queued, running, done, failed) = self.phase_counts(&jobs);
        let mut exp = PrometheusExposer::new();
        exp.gauge(
            "vcoma_build_info",
            "Constant 1, labelled with the daemon's code fingerprint.",
            &[("fingerprint", code_fingerprint())],
            1.0,
        );
        exp.gauge(
            "vcoma_uptime_seconds",
            "Seconds since the daemon started.",
            &[],
            self.started.elapsed().as_secs_f64(),
        );
        for (phase, count) in
            [("queued", queued), ("running", running), ("done", done), ("failed", failed)]
        {
            exp.gauge("vcoma_jobs", "Jobs by phase.", &[("phase", phase)], count as f64);
        }
        exp.gauge("vcoma_queue_depth", "Jobs waiting in the queue.", &[], queue_depth as f64);
        exp.gauge(
            "vcoma_worker_busy",
            "1 while the worker is running a job.",
            &[],
            if running > 0 { 1.0 } else { 0.0 },
        );
        exp.counter("vcoma_store_hits_total", "Store loads served from disk.", &[], self.store.hits());
        exp.counter("vcoma_store_misses_total", "Store loads that missed.", &[], self.store.misses());
        exp.counter(
            "vcoma_store_writes_total",
            "Result envelopes written to the store.",
            &[],
            self.store.writes(),
        );

        // Cumulative across every job the daemon has run; a histogram
        // of per-point simulated cycle costs merges the same way.
        let (mut from_store, mut simulated, mut sim_cycles) = (0u64, 0u64, 0u64);
        let mut cycles_hist: Option<HistogramSnapshot> = None;
        let mut live_rate = 0.0f64;
        for job in jobs.values() {
            from_store += job.progress.cached();
            simulated += job.progress.simulated();
            sim_cycles += job.progress.sim_cycles();
            if job.phase == JobPhase::Running {
                live_rate += job.progress.cycles_per_sec();
            }
            let h = job.progress.cycles_histogram();
            if h.count > 0 {
                match &mut cycles_hist {
                    None => cycles_hist = Some(h),
                    Some(merged) => merged.merge(&h),
                }
            }
        }
        exp.counter(
            "vcoma_points_total",
            "Simulation points resolved, by source.",
            &[("source", "store")],
            from_store,
        );
        exp.counter(
            "vcoma_points_total",
            "Simulation points resolved, by source.",
            &[("source", "simulated")],
            simulated,
        );
        exp.counter(
            "vcoma_simulated_cycles_total",
            "Simulated cycles retired by fresh runs.",
            &[],
            sim_cycles,
        );
        exp.gauge(
            "vcoma_cycles_per_second",
            "Simulated cycles per wall-clock second of the running job (0 when idle).",
            &[],
            live_rate,
        );
        for (id, job) in jobs.iter() {
            exp.gauge(
                "vcoma_job_points_done",
                "Grid points finished, per job.",
                &[("job", id), ("phase", job.phase.as_str())],
                job.progress.points_done() as f64,
            );
            exp.gauge(
                "vcoma_job_points_total",
                "Grid points announced by started sweeps, per job.",
                &[("job", id), ("phase", job.phase.as_str())],
                job.progress.points_total() as f64,
            );
        }
        if let Some(h) = cycles_hist {
            exp.histogram(
                "vcoma_point_simulated_cycles",
                "Per-point simulated cycle cost of fresh runs, all jobs.",
                &[],
                &h,
            );
        }
        exp.render()
    }

    fn worker_loop(self: Arc<Daemon>) {
        loop {
            let next = {
                let mut queue = self.lock_queue();
                loop {
                    if let Some(id) = queue.pop_front() {
                        break Some(id);
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    // Block until a submit or shutdown notifies: both
                    // notify while holding the queue lock, so an idle
                    // daemon parks here at zero CPU instead of the old
                    // 100 ms `wait_timeout` poll.
                    queue = self.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let Some(id) = next else { return };
            self.run_job(&id);
        }
    }

    fn run_job(&self, id: &str) {
        let (spec, progress) = {
            let mut jobs = self.lock_jobs();
            let job = jobs.get_mut(id).expect("queued jobs exist");
            job.phase = JobPhase::Running;
            // A fresh sink per run: the clock starts now, and a
            // re-enqueued job (failed, then resubmitted) doesn't carry
            // stale counters.
            job.progress = Arc::new(JobProgress::new(id));
            (job.spec.clone(), Arc::clone(&job.progress))
        };
        vlog!(Level::Info, "job-start", "job={id} artifacts={}", spec.artifacts.len());
        let cfg = spec
            .experiment_config(&self.config, Arc::clone(&self.store))
            .with_progress(Arc::clone(&progress) as _);
        let mut files = Vec::new();
        let mut error = None;
        for name in &spec.artifacts {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                artifacts::run_standard(name, &cfg).expect("submit validated the names")
            }));
            match run {
                Ok(output) => {
                    for (stem, table) in &output.tables {
                        files.push(CsvFile { name: stem.clone(), contents: table.to_csv() });
                    }
                    let mut jobs = self.lock_jobs();
                    jobs.get_mut(id).expect("job exists").artifacts_done += 1;
                }
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "artifact panicked".to_string());
                    error = Some(format!("artifact '{name}' failed: {msg}"));
                    break;
                }
            }
        }
        // Keep the throughput ledger bounded across a long-lived process.
        let _ = sweep::take_stats();
        progress.freeze();
        let mut jobs = self.lock_jobs();
        let job = jobs.get_mut(id).expect("job exists");
        match error {
            None => {
                job.files = files;
                job.phase = JobPhase::Done;
                vlog!(
                    Level::Info,
                    "job-done",
                    "job={id} points={}/{} store_hits={} simulated={} cycles_per_sec={:.3e}",
                    progress.points_done(),
                    progress.points_total(),
                    progress.cached(),
                    progress.simulated(),
                    progress.cycles_per_sec()
                );
            }
            Some(msg) => {
                vlog!(Level::Error, "job-failed", "job={id} error={msg}");
                job.error = Some(msg);
                job.phase = JobPhase::Failed;
            }
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Stream::Unix(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                s.set_nodelay(true).ok();
                Ok(Stream::Tcp(s))
            }
        }
    }
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}
