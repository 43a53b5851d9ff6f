//! End-to-end test of the daemon's HTTP observation port.
//!
//! Drives a real in-process daemon (`--http 127.0.0.1:0`) over raw TCP,
//! exactly as a scraper or probe would:
//!
//! * `/metrics` parses under the strict Prometheus-text validator at
//!   every point in a job's life (idle, mid-run, done), and an idle
//!   daemon's scrape matches a golden fixture byte-for-byte once the
//!   two run-dependent values (uptime, fingerprint) are canonicalised;
//! * job progress and store counters move the right way: fresh runs
//!   grow `source="simulated"` and store writes, a restart-resume grows
//!   `vcoma_store_hits_total`;
//! * `/healthz` and `/readyz` return 200 while the store root exists
//!   and flip to 503 once it is removed;
//! * unknown paths are 404, non-GET methods are 405.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use vcoma::metrics::prometheus::validate_scrape;
use vcoma_experiments::client::{Connection, Endpoint};
use vcoma_experiments::protocol::{Request, Response};
use vcoma_server::daemon::{Daemon, DaemonConfig};

const SCALE: f64 = 0.005;
const SEED: u64 = 0xD0C5;

struct RunningDaemon {
    daemon: Arc<Daemon>,
    thread: std::thread::JoinHandle<()>,
    endpoint: Endpoint,
}

impl RunningDaemon {
    fn start(socket: &Path, store: &Path) -> RunningDaemon {
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let config = DaemonConfig {
            listen: endpoint.clone(),
            store_dir: store.to_path_buf(),
            jobs: 2,
            http: Some("127.0.0.1:0".to_string()),
        };
        let daemon = Daemon::new(config).expect("open store");
        let thread = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || daemon.serve().expect("serve"))
        };
        RunningDaemon { daemon, thread, endpoint }
    }

    fn connect(&self) -> Connection {
        for _ in 0..500 {
            if let Ok(conn) = Connection::connect(&self.endpoint) {
                return conn;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon never started listening on {}", self.endpoint);
    }

    /// The OS-assigned HTTP port (we bind port 0).
    fn http_addr(&self) -> SocketAddr {
        for _ in 0..500 {
            if let Some(addr) = self.daemon.http_addr() {
                return addr;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("daemon never bound its HTTP port");
    }

    fn stop(self) {
        self.daemon.request_shutdown();
        self.thread.join().expect("serve thread");
    }
}

/// One raw HTTP/1.1 request. Returns (status, headers, body).
fn http_request(addr: SocketAddr, method: &str, target: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect HTTP port");
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    write!(stream, "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a blank line");
    let status_line = head.lines().next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line: {status_line}"));
    (status, head.to_string(), body.to_string())
}

/// Scrapes `/metrics` and validates every line before returning it.
fn scrape(addr: SocketAddr) -> String {
    let (status, head, body) = http_request(addr, "GET", "/metrics");
    assert_eq!(status, 200, "scrape failed: {body}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "metrics content type missing exposition version: {head}"
    );
    validate_scrape(&body).unwrap_or_else(|e| panic!("invalid scrape line: {e}\n--- scrape ---\n{body}"));
    body
}

/// The value of the first sample whose line starts with `series` (a
/// full name-plus-labels prefix, e.g. `vcoma_jobs{phase="done"}`).
fn sample(scrape: &str, series: &str) -> f64 {
    for line in scrape.lines() {
        if let Some(rest) = line.strip_prefix(series) {
            if let Some(value) = rest.strip_prefix(' ') {
                return value.parse().unwrap_or_else(|_| panic!("bad value in: {line}"));
            }
        }
    }
    panic!("no series '{series}' in scrape:\n{scrape}");
}

fn ok(resp: Result<Response, String>) -> Response {
    let resp = resp.expect("transport");
    assert!(resp.ok, "daemon error: {:?}", resp.error);
    resp
}

fn submit_request() -> Request {
    let mut req = Request::new("submit");
    req.artifacts = Some(vec!["table2".to_string()]);
    req.scale = Some(SCALE);
    req.seed = Some(SEED);
    req
}

/// Polls the job to completion, scraping `/metrics` on every poll so
/// mid-run exposition gets validated too. Returns one mid-run scrape if
/// any poll caught the job in its running phase.
fn wait_done_scraping(conn: &mut Connection, addr: SocketAddr, job: &str) -> Option<String> {
    let mut mid_run = None;
    for _ in 0..12_000 {
        let text = scrape(addr);
        if mid_run.is_none() && text.contains("vcoma_jobs{phase=\"running\"} 1") {
            mid_run = Some(text);
        }
        let mut req = Request::new("status");
        req.job = Some(job.to_string());
        let resp = ok(conn.request(&req));
        match resp.state.as_deref() {
            Some("done") => return mid_run,
            Some("failed") => panic!("job failed: {:?}", resp.error),
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    panic!("job {job} never finished");
}

fn golden_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/metrics_idle_scrape.txt"))
}

/// Replaces the two run-dependent values in an idle scrape — the build
/// fingerprint label and the uptime gauge — with fixed tokens so the
/// rest can be compared byte-for-byte.
fn canonicalize_idle_scrape(scrape: &str) -> String {
    let mut out = String::new();
    for line in scrape.lines() {
        if line.starts_with("vcoma_build_info{fingerprint=\"") {
            out.push_str("vcoma_build_info{fingerprint=\"FINGERPRINT\"} 1\n");
        } else if line.starts_with("vcoma_uptime_seconds ") {
            out.push_str("vcoma_uptime_seconds UPTIME\n");
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn check_golden(actual: &str) {
    let path = golden_path();
    if std::env::var_os("VCOMA_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} ({e}); create it with VCOMA_BLESS=1", path.display())
    });
    assert!(
        expected == actual,
        "idle /metrics scrape drifted from the golden fixture; if intentional, regenerate with\n\
         VCOMA_BLESS=1 cargo test -p vcoma-server --test http_obs\n\
         --- expected ---\n{expected}--- actual ---\n{actual}"
    );
}

#[test]
fn http_port_serves_metrics_health_and_progress() {
    let base = std::env::temp_dir().join(format!("vcoma-http-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let socket = base.join("sweepd.sock");
    let store = base.join("store");

    // --- Fresh daemon: routing, probes, and the idle golden scrape. ---
    let server = RunningDaemon::start(&socket, &store);
    let addr = server.http_addr();

    let (status, _, body) = http_request(addr, "GET", "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _, body) = http_request(addr, "GET", "/readyz");
    assert_eq!(status, 200);
    assert!(body.contains("queue_depth 0"), "readyz body: {body}");
    assert!(body.contains("store ok"), "readyz body: {body}");
    // Query strings route like the bare path.
    let (status, _, _) = http_request(addr, "GET", "/healthz?verbose=1");
    assert_eq!(status, 200);
    let (status, _, _) = http_request(addr, "GET", "/no-such-endpoint");
    assert_eq!(status, 404);
    let (status, _, _) = http_request(addr, "POST", "/metrics");
    assert_eq!(status, 405);

    let idle = scrape(addr);
    assert_eq!(sample(&idle, "vcoma_jobs{phase=\"done\"}"), 0.0);
    assert_eq!(sample(&idle, "vcoma_worker_busy"), 0.0);
    check_golden(&canonicalize_idle_scrape(&idle));

    // --- A job moves the simulated/store-write counters. ---
    let mut conn = server.connect();
    let job = ok(conn.request(&submit_request())).job.expect("job id");
    let mid_run = wait_done_scraping(&mut conn, addr, &job);
    if let Some(text) = mid_run {
        // A mid-run scrape (when the poll caught one) shows the worker
        // busy; its validity was already checked inside `scrape`.
        assert_eq!(sample(&text, "vcoma_worker_busy"), 1.0);
    }

    let done = scrape(addr);
    assert_eq!(sample(&done, "vcoma_jobs{phase=\"done\"}"), 1.0);
    assert_eq!(sample(&done, "vcoma_worker_busy"), 0.0);
    assert_eq!(sample(&done, "vcoma_queue_depth"), 0.0);
    let simulated = sample(&done, "vcoma_points_total{source=\"simulated\"}");
    assert!(simulated > 0.0, "a fresh store must simulate");
    assert!(sample(&done, "vcoma_store_writes_total") >= simulated);
    assert!(sample(&done, "vcoma_simulated_cycles_total") > 0.0);
    let done_points = sample(&done, &format!("vcoma_job_points_done{{job=\"{job}\",phase=\"done\"}}"));
    let total_points =
        sample(&done, &format!("vcoma_job_points_total{{job=\"{job}\",phase=\"done\"}}"));
    assert_eq!(done_points, total_points, "a done job finished its whole grid");
    assert_eq!(done_points, simulated, "every point of this fresh job simulated");
    // The per-point cycle histogram appears once something simulated,
    // with the canonical cumulative tail.
    assert!(done.contains("vcoma_point_simulated_cycles_bucket{le=\"+Inf\"}"), "scrape:\n{done}");
    assert_eq!(sample(&done, "vcoma_point_simulated_cycles_count"), simulated);
    server.stop();

    // --- Restart on the same store: hits climb, simulated stays 0. ---
    let server = RunningDaemon::start(&socket, &store);
    let addr = server.http_addr();
    assert_eq!(sample(&scrape(addr), "vcoma_store_hits_total"), 0.0);
    let mut conn = server.connect();
    let job2 = ok(conn.request(&submit_request())).job.expect("job id");
    assert_eq!(job2, job, "job ids are content-addressed");
    wait_done_scraping(&mut conn, addr, &job2);
    let resumed = scrape(addr);
    assert!(
        sample(&resumed, "vcoma_store_hits_total") >= sample(&done, "vcoma_store_writes_total"),
        "a resubmit after restart must serve every written point from the store"
    );
    assert_eq!(sample(&resumed, "vcoma_points_total{source=\"simulated\"}"), 0.0);
    assert!(sample(&resumed, "vcoma_points_total{source=\"store\"}") > 0.0);

    // --- Health flips once the store root disappears. ---
    std::fs::remove_dir_all(&store).expect("remove store root");
    let (status, _, body) = http_request(addr, "GET", "/healthz");
    assert_eq!(status, 503, "healthz body: {body}");
    assert!(body.contains("store unreachable"), "healthz body: {body}");
    let (status, _, body) = http_request(addr, "GET", "/readyz");
    assert_eq!(status, 503, "readyz body: {body}");
    server.stop();

    let _ = std::fs::remove_dir_all(&base);
}
