//! Regression: a panicking artifact mid-job must not take the daemon
//! down with it.
//!
//! Before the poison-recovery fix, an unwind out of an artifact could
//! leave the daemon's job/queue mutexes poisoned, after which every
//! `submit`/`status`/`fetch` panicked its connection handler and the
//! daemon was effectively dead. This test drives a job whose second
//! artifact panics (injected through
//! [`artifacts::PANIC_ARTIFACT_ENV`]) and asserts the job is reported
//! `failed` with the panic message, the partial artifact count is
//! right, and the same daemon then accepts, runs, and serves a healthy
//! job to completion.
//!
//! Lives in its own integration-test binary (= its own process) so the
//! fault-injection environment variable cannot leak into the other
//! daemon tests.

use std::sync::Arc;
use std::time::Duration;

use vcoma_experiments::artifacts;
use vcoma_experiments::client::{Connection, Endpoint};
use vcoma_experiments::protocol::{Request, Response};
use vcoma_server::daemon::{Daemon, DaemonConfig};

const SCALE: f64 = 0.005;
const SEED: u64 = 0x5EED;

fn ok(resp: Result<Response, String>) -> Response {
    let resp = resp.expect("transport");
    assert!(resp.ok, "daemon error: {:?}", resp.error);
    resp
}

fn submit(conn: &mut Connection, artifact_list: &[&str], seed: u64) -> String {
    let mut req = Request::new("submit");
    req.artifacts = Some(artifact_list.iter().map(|s| s.to_string()).collect());
    req.scale = Some(SCALE);
    req.seed = Some(seed);
    ok(conn.request(&req)).job.expect("job id")
}

fn wait_terminal(conn: &mut Connection, job: &str) -> Response {
    for _ in 0..12_000 {
        let mut req = Request::new("status");
        req.job = Some(job.to_string());
        let resp = ok(conn.request(&req));
        match resp.state.as_deref() {
            Some("done") | Some("failed") => return resp,
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("job {job} never reached a terminal state");
}

#[test]
fn panicking_artifact_fails_its_job_but_daemon_keeps_serving() {
    // Set before the daemon thread starts; this test binary holds the
    // one test in this process, so nothing races the environment.
    std::env::set_var(artifacts::PANIC_ARTIFACT_ENV, "table5");

    let base = std::env::temp_dir().join(format!("vcoma-daemon-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let endpoint = Endpoint::Unix(base.join("sweepd.sock"));
    let daemon = Daemon::new(DaemonConfig {
        listen: endpoint.clone(),
        store_dir: base.join("store"),
        jobs: 2,
        http: None,
    })
    .expect("open store");
    let thread = {
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || daemon.serve().expect("serve"))
    };
    let mut conn = loop {
        if let Ok(conn) = Connection::connect(&endpoint) {
            break conn;
        }
        std::thread::sleep(Duration::from_millis(10));
    };

    // Job 1: the first artifact completes, the second one panics.
    let doomed = submit(&mut conn, &["table2", "table5"], SEED);
    let status = wait_terminal(&mut conn, &doomed);
    assert_eq!(status.state.as_deref(), Some("failed"));
    let error = status.error.expect("failed jobs carry the panic message");
    assert!(error.contains("table5") && error.contains("injected fault"), "got: {error}");
    assert_eq!(status.artifacts_done, Some(1), "table2 finished before the panic");

    // The failed job cannot be fetched, but the refusal is a polite
    // protocol error — the handler must not have died with the worker.
    let mut fetch = Request::new("fetch");
    fetch.job = Some(doomed.clone());
    let resp = conn.request(&fetch).expect("transport survives");
    assert!(!resp.ok);

    // Job 2 on the same daemon: untouched artifacts still run to done
    // and fetch, on both the old connection and a fresh one.
    let healthy = submit(&mut conn, &["table2"], SEED + 1);
    assert_ne!(healthy, doomed);
    let status = wait_terminal(&mut conn, &healthy);
    assert_eq!(status.state.as_deref(), Some("done"), "error: {:?}", status.error);
    assert!(status.simulated.expect("counter") > 0);

    let mut fresh = Connection::connect(&endpoint).expect("daemon still accepts");
    let mut fetch = Request::new("fetch");
    fetch.job = Some(healthy.clone());
    let files = ok(fresh.request(&fetch)).files.expect("done jobs have files");
    assert!(files.iter().any(|f| f.name == "table2"));

    // Resubmitting the doomed spec re-enqueues it (failures may be
    // environmental); with the fault still armed it just fails again.
    let retry = submit(&mut conn, &["table2", "table5"], SEED);
    assert_eq!(retry, doomed, "content-addressed id is stable across retries");
    assert_eq!(wait_terminal(&mut conn, &retry).state.as_deref(), Some("failed"));

    daemon.request_shutdown();
    thread.join().expect("serve thread");
    let _ = std::fs::remove_dir_all(&base);
}
