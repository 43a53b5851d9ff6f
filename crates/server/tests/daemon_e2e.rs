//! End-to-end daemon test, fully in-process: a daemon on a unix socket
//! in a temp directory, driven through the real client [`Connection`]
//! and NDJSON protocol.
//!
//! Covers the tentpole acceptance criteria that don't need a separate
//! OS process (CI's `sweep_server` section covers the kill-and-restart
//! variant against the installed binaries):
//!
//! * submit → run → fetch round trip, with live status counters
//!   (points done/total, cache hits, simulated, cycles/s);
//! * daemon-wide `stats` (job phase counts, store counters, uptime);
//! * content-addressed job dedup (same submission → same job id);
//! * restart resume: a **fresh daemon on the same store** serves the
//!   identical job 100% from the store (`simulated == 0`);
//! * daemon CSVs are byte-identical to a direct in-process run of the
//!   same artifacts at `--jobs 1`;
//! * malformed submissions fail with a message, not a dead connection.

use std::sync::Arc;
use std::time::Duration;

use vcoma_experiments::cache::code_fingerprint;
use vcoma_experiments::client::{Connection, Endpoint};
use vcoma_experiments::protocol::{Request, Response, PROTOCOL_VERSION};
use vcoma_experiments::{artifacts, ExperimentConfig};
use vcoma_server::daemon::{Daemon, DaemonConfig};

const SCALE: f64 = 0.005;
const SEED: u64 = 0x5EED;
const ARTIFACTS: [&str; 2] = ["table2", "table5"];

struct RunningDaemon {
    daemon: Arc<Daemon>,
    thread: std::thread::JoinHandle<()>,
    endpoint: Endpoint,
}

impl RunningDaemon {
    fn start(socket: &std::path::Path, store: &std::path::Path) -> RunningDaemon {
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let config = DaemonConfig {
            listen: endpoint.clone(),
            store_dir: store.to_path_buf(),
            jobs: 2,
            http: None,
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

    fn stop(self) {
        self.daemon.request_shutdown();
        self.thread.join().expect("serve thread");
    }
}

fn submit_request() -> Request {
    let mut req = Request::new("submit");
    req.artifacts = Some(ARTIFACTS.iter().map(|s| s.to_string()).collect());
    req.scale = Some(SCALE);
    req.seed = Some(SEED);
    req
}

fn ok(resp: Result<Response, String>) -> Response {
    let resp = resp.expect("transport");
    assert!(resp.ok, "daemon error: {:?}", resp.error);
    resp
}

fn wait_done(conn: &mut Connection, job: &str) -> Response {
    for _ in 0..12_000 {
        let mut req = Request::new("status");
        req.job = Some(job.to_string());
        let resp = ok(conn.request(&req));
        match resp.state.as_deref() {
            Some("done") => return resp,
            Some("failed") => panic!("job failed: {:?}", resp.error),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("job {job} never finished");
}

fn fetch_files(conn: &mut Connection, job: &str) -> Vec<(String, String)> {
    let mut req = Request::new("fetch");
    req.job = Some(job.to_string());
    let resp = ok(conn.request(&req));
    resp.files
        .expect("done jobs have files")
        .into_iter()
        .map(|f| (f.name, f.contents))
        .collect()
}

#[test]
fn daemon_serves_caches_resumes_and_matches_direct_runs() {
    let base = std::env::temp_dir().join(format!("vcoma-daemon-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let socket = base.join("sweepd.sock");
    let store = base.join("store");

    // --- First daemon: simulate everything, fetch the CSVs. ---
    let server = RunningDaemon::start(&socket, &store);
    let mut conn = server.connect();

    let ping = ok(conn.request(&Request::new("ping")));
    assert_eq!(ping.protocol, Some(PROTOCOL_VERSION));
    assert_eq!(ping.fingerprint.as_deref(), Some(code_fingerprint()));

    // Bad submissions fail politely and leave the connection usable.
    let mut bad = Request::new("submit");
    bad.artifacts = Some(vec!["table99".to_string()]);
    let resp = conn.request(&bad).expect("transport");
    assert!(!resp.ok);
    assert!(resp.error.expect("message").contains("table99"));
    let mut bad_scale = submit_request();
    bad_scale.scale = Some(-1.0);
    assert!(!conn.request(&bad_scale).expect("transport").ok);
    let mut unknown = Request::new("status");
    unknown.job = Some("no-such-job".to_string());
    assert!(!conn.request(&unknown).expect("transport").ok);

    let job = ok(conn.request(&submit_request())).job.expect("job id");
    // Identical submission collapses onto the same content-addressed job.
    let dup = ok(conn.request(&submit_request()));
    assert_eq!(dup.job.as_deref(), Some(job.as_str()));

    let status = wait_done(&mut conn, &job);
    assert_eq!(status.artifacts_done, Some(ARTIFACTS.len() as u64));
    let simulated = status.simulated.expect("counter");
    assert!(simulated > 0, "a fresh store must simulate");
    // table2 and table5 run exactly one simulation per grid point, so
    // the sweep-level and resolution-level counters line up.
    assert_eq!(
        status.points_done,
        Some(status.cache_hits.expect("counter") + simulated),
        "points = hits + simulated"
    );
    assert_eq!(
        status.points_done, status.points_total,
        "a done job has finished every announced grid point"
    );
    assert!(status.points_total.expect("total") > 0);
    assert!(
        status.cycles_per_sec.expect("rate") > 0.0,
        "a job that simulated must report a nonzero frozen cycles/s"
    );

    let first_files = fetch_files(&mut conn, &job);
    assert!(first_files.iter().any(|(name, _)| name == "table2"));
    assert!(first_files.iter().any(|(name, _)| name == "table5"));

    // A done job dedups too — no re-run, state reported immediately.
    let resub = ok(conn.request(&submit_request()));
    assert_eq!(resub.job.as_deref(), Some(job.as_str()));
    assert_eq!(resub.state.as_deref(), Some("done"));
    server.stop();

    // --- Second daemon on the same store: resume = 100% cache hits. ---
    let server = RunningDaemon::start(&socket, &store);
    let mut conn = server.connect();
    let job2 = ok(conn.request(&submit_request())).job.expect("job id");
    assert_eq!(job2, job, "job ids are content-addressed, not per-daemon");
    let status = wait_done(&mut conn, &job2);
    assert_eq!(status.simulated, Some(0), "restart must serve entirely from the store");
    let hits = status.cache_hits.expect("counter");
    assert!(hits > 0);
    assert_eq!(status.points_done, Some(hits));
    assert_eq!(
        status.points_done, status.points_total,
        "a resumed job still reports full grid progress"
    );
    assert_eq!(
        status.cycles_per_sec,
        Some(0.0),
        "a pure store-served resume simulates nothing, so its rate is zero"
    );

    let second_files = fetch_files(&mut conn, &job2);
    assert_eq!(first_files, second_files, "store-served CSVs must be byte-identical");

    let stats = ok(conn.request(&Request::new("stats")));
    assert!(stats.store_hits.expect("counter") >= hits);
    assert_eq!(stats.jobs_done, Some(1), "this daemon instance ran exactly one job");
    assert_eq!(stats.jobs_queued, Some(0));
    assert_eq!(stats.jobs_running, Some(0));
    assert_eq!(stats.jobs_failed, Some(0));
    assert!(stats.uptime_seconds.is_some(), "stats must report daemon uptime");
    server.stop();

    // --- Byte-diff against a direct run of the same artifacts. ---
    let direct_cfg =
        { ExperimentConfig { seed: SEED, ..ExperimentConfig::new() } }.with_scale(SCALE).with_jobs(1);
    for name in ARTIFACTS {
        let output = artifacts::run_standard(name, &direct_cfg).expect("standard artifact");
        for (stem, table) in &output.tables {
            let daemon_csv = first_files
                .iter()
                .find(|(n, _)| n == stem)
                .unwrap_or_else(|| panic!("daemon produced no '{stem}'"));
            assert_eq!(
                &daemon_csv.1,
                &table.to_csv(),
                "daemon CSV for '{stem}' differs from the direct --jobs 1 run"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn oversized_request_line_is_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let base = std::env::temp_dir().join(format!("vcoma-daemon-long-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let server = RunningDaemon::start(&base.join("sweepd.sock"), &base.join("store"));
    drop(server.connect());

    // More than 1 MiB with no newline. The daemon may close the socket
    // before the client finishes writing, so a failed write is fine.
    let mut raw = UnixStream::connect(base.join("sweepd.sock")).expect("raw connect");
    let _ = raw.write_all(&vec![b'x'; (1 << 20) + 4096]);
    let _ = raw.shutdown(std::net::Shutdown::Write);
    let mut reply = String::new();
    let _ = BufReader::new(&raw).read_line(&mut reply);
    assert!(
        reply.is_empty() || reply.contains("request line too long"),
        "expected the length failure or EOF, got {reply:?}"
    );

    let mut conn = server.connect();
    let pong = ok(conn.request(&Request::new("ping")));
    assert_eq!(pong.protocol, Some(PROTOCOL_VERSION));
    server.stop();
    let _ = std::fs::remove_dir_all(&base);
}
