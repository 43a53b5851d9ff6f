//! Client side of the sweep server: endpoint parsing, the NDJSON
//! connection, and the `submit` / `status` / `fetch` / `stats`
//! subcommands of the `vcoma-experiments` binary.
//!
//! `submit` posts a job and, by default, stays connected: it polls the
//! daemon and paints a `--progress`-style live line on stderr (artifacts
//! done, points resolved, store hits vs fresh simulations) until the job
//! finishes, then — when `--out` is given — fetches the rendered CSVs.
//! Fetched CSVs are byte-identical to the files a direct
//! `vcoma-experiments --out` run writes: both front ends render through
//! [`crate::artifacts::run_standard`], and the store's envelopes decode
//! byte-exactly (the codec round-trip the integration suite pins).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

use crate::protocol::{Request, Response};
use vcoma::metrics::json::{from_json_str, to_json_line};

/// Where the daemon listens. Parsed from `unix:PATH` or `tcp:ADDR`
/// (e.g. `tcp:127.0.0.1:9187`); a bare path means `unix:`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket path.
    Unix(PathBuf),
    /// A TCP address (`host:port`); the daemon only binds localhost.
    Tcp(String),
}

impl Endpoint {
    /// Parses an endpoint spec. `unix:` and `tcp:` prefixes select the
    /// transport; anything else is taken as a unix socket path.
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp: endpoint needs an address, e.g. tcp:127.0.0.1:9187".to_string());
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else {
            let path = spec.strip_prefix("unix:").unwrap_or(spec);
            if path.is_empty() {
                return Err("unix: endpoint needs a path, e.g. unix:/tmp/sweepd.sock".to_string());
            }
            Ok(Endpoint::Unix(PathBuf::from(path)))
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// A connected unix-domain or TCP stream: the daemon's accepted
/// connections and the client's outgoing ones.
pub enum Stream {
    /// A unix-domain socket connection.
    Unix(UnixStream),
    /// A TCP connection.
    Tcp(TcpStream),
}

impl Stream {
    /// A second handle on the same connection (one to read, one to write).
    pub fn try_clone(&self) -> std::io::Result<Stream> {
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

/// One open connection to the daemon: request lines out, response lines
/// back, in lockstep.
pub struct Connection {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Connection {
    /// Connects to the daemon at `endpoint`.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Connection> {
        let writer = match endpoint {
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true).ok();
                Stream::Tcp(s)
            }
        };
        let reader = writer.try_clone()?;
        Ok(Connection { reader: BufReader::new(reader), writer })
    }

    /// Sends one request and reads the daemon's one-line response.
    pub fn request(&mut self, req: &Request) -> Result<Response, String> {
        let line = to_json_line(req).map_err(|e| format!("encode request: {e}"))?;
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send request: {e}"))?;
        let mut resp_line = String::new();
        let n = self.reader.read_line(&mut resp_line).map_err(|e| format!("read response: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        from_json_str(resp_line.trim_end()).map_err(|e| format!("malformed response: {e}"))
    }
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn fail_io(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn connect_or_die(endpoint: &Endpoint) -> Connection {
    Connection::connect(endpoint)
        .unwrap_or_else(|e| fail_io(&format!("cannot connect to {endpoint}: {e}")))
}

fn check(resp: Response) -> Response {
    if !resp.ok {
        fail_io(&format!(
            "daemon refused: {}",
            resp.error.as_deref().unwrap_or("unspecified error")
        ));
    }
    resp
}

/// Writes the fetched CSVs into `dir`, creating it if needed; returns
/// the written paths.
fn write_files(dir: &Path, resp: &Response) -> Vec<PathBuf> {
    let files = resp.files.as_deref().unwrap_or(&[]);
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail_usage(&format!("cannot create directory {}: {e}", dir.display()));
    }
    let mut written = Vec::new();
    for f in files {
        let path = dir.join(format!("{}.csv", f.name));
        if let Err(e) = std::fs::write(&path, &f.contents) {
            fail_usage(&format!("cannot write {}: {e}", path.display()));
        }
        written.push(path);
    }
    written
}

/// Polls `status` until the job leaves the queue and finishes, painting
/// a live progress line on stderr (stdout stays clean for scripting).
fn wait_for(conn: &mut Connection, job: &str) -> Response {
    loop {
        let mut req = Request::new("status");
        req.job = Some(job.to_string());
        let resp = check(conn.request(&req).unwrap_or_else(|e| fail_io(&e)));
        let state = resp.state.clone().unwrap_or_default();
        eprint!(
            "\r[job {job}] {state}: {}/{} artifacts, {}/{} points ({} store hits, {} simulated, {:.3e} cycles/s) ",
            resp.artifacts_done.unwrap_or(0),
            resp.artifacts_total.unwrap_or(0),
            resp.points_done.unwrap_or(0),
            resp.points_total.unwrap_or(0),
            resp.cache_hits.unwrap_or(0),
            resp.simulated.unwrap_or(0),
            resp.cycles_per_sec.unwrap_or(0.0),
        );
        match state.as_str() {
            "done" | "failed" => {
                eprintln!();
                return resp;
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    }
}

const CLIENT_USAGE: &str = "\
usage: vcoma-experiments submit [ARTIFACT...] --server ENDPOINT [--scale F]
                         [--nodes N] [--seed S] [--schemes LIST] [--out DIR]
                         [--no-wait]
       vcoma-experiments status JOB --server ENDPOINT
       vcoma-experiments fetch  JOB --server ENDPOINT --out DIR
       vcoma-experiments stats --server ENDPOINT

ENDPOINT is unix:PATH or tcp:HOST:PORT (a bare path means unix:).

submit posts a sweep job (default: every standard artifact) and waits,
streaming a live progress line to stderr; --no-wait prints the job id and
returns immediately. With --out, the job's CSVs are fetched into DIR once
it finishes - byte-identical to a direct run's --out files. Identical
submissions share one job id (jobs are content-addressed), so resubmitting
after a daemon restart resumes from whatever the store already holds.

stats prints the daemon's uptime, job-phase counts and store counters
(the same numbers the HTTP /metrics endpoint exposes to scrapers).

exit status: 0 on success, 1 on connection/daemon errors, 2 on usage
errors, 3 when the job failed.
";

/// Entry point for the client subcommands (`submit`, `status`,
/// `fetch`). Consumes the remaining CLI arguments and exits.
pub fn cli_main(cmd: &str, args: impl Iterator<Item = String>) -> ! {
    let mut positional: Vec<String> = Vec::new();
    let mut server: Option<String> = None;
    let mut scale: Option<f64> = None;
    let mut nodes: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut schemes: Option<String> = None;
    let mut out: Option<PathBuf> = None;
    let mut wait = true;

    let mut args = args.peekable();
    while let Some(a) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next().unwrap_or_else(|| fail_usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--server" => server = Some(value("--server")),
            "--scale" => {
                let raw = value("--scale");
                scale = Some(raw.parse().unwrap_or_else(|_| {
                    fail_usage(&format!("--scale got '{raw}', expected a number"))
                }));
            }
            "--nodes" => {
                let raw = value("--nodes");
                nodes = Some(raw.parse().unwrap_or_else(|_| {
                    fail_usage(&format!("--nodes got '{raw}', expected a number"))
                }));
            }
            "--seed" => {
                let raw = value("--seed");
                seed = Some(raw.parse().unwrap_or_else(|_| {
                    fail_usage(&format!("--seed got '{raw}', expected a number"))
                }));
            }
            "--schemes" => schemes = Some(value("--schemes")),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--no-wait" => wait = false,
            "--help" | "-h" => {
                print!("{CLIENT_USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                fail_usage(&format!("unknown option '{other}' (run with --help for usage)"))
            }
            other => positional.push(other.to_string()),
        }
    }
    let endpoint = match &server {
        Some(spec) => Endpoint::parse(spec).unwrap_or_else(|e| fail_usage(&e)),
        None => fail_usage("--server is required (unix:PATH or tcp:HOST:PORT)"),
    };

    match cmd {
        "submit" => {
            for a in &positional {
                if !crate::artifacts::STANDARD.contains(&a.as_str()) {
                    fail_usage(&format!(
                        "unknown artifact '{a}' (the daemon serves: {})",
                        crate::artifacts::STANDARD.join(" ")
                    ));
                }
            }
            let mut req = Request::new("submit");
            if !positional.is_empty() {
                req.artifacts = Some(positional);
            }
            req.scale = scale;
            req.nodes = nodes;
            req.seed = seed;
            req.schemes = schemes;
            let mut conn = connect_or_die(&endpoint);
            let resp = check(conn.request(&req).unwrap_or_else(|e| fail_io(&e)));
            let job = resp.job.clone().unwrap_or_else(|| fail_io("daemon returned no job id"));
            println!("{job}");
            if !wait {
                std::process::exit(0);
            }
            let last = wait_for(&mut conn, &job);
            if last.state.as_deref() == Some("failed") {
                eprintln!(
                    "error: job {job} failed: {}",
                    last.error.as_deref().unwrap_or("unspecified error")
                );
                std::process::exit(3);
            }
            if let Some(dir) = &out {
                let mut fetch = Request::new("fetch");
                fetch.job = Some(job.clone());
                let resp = check(conn.request(&fetch).unwrap_or_else(|e| fail_io(&e)));
                for path in write_files(dir, &resp) {
                    eprintln!("  -> wrote {}", path.display());
                }
            }
            std::process::exit(0);
        }
        "status" => {
            let [job] = positional.as_slice() else {
                fail_usage("status takes exactly one JOB argument");
            };
            let mut req = Request::new("status");
            req.job = Some(job.clone());
            let mut conn = connect_or_die(&endpoint);
            let resp = check(conn.request(&req).unwrap_or_else(|e| fail_io(&e)));
            println!(
                "job {job}: {} ({}/{} artifacts, {}/{} points, {} store hits, {} simulated)",
                resp.state.as_deref().unwrap_or("unknown"),
                resp.artifacts_done.unwrap_or(0),
                resp.artifacts_total.unwrap_or(0),
                resp.points_done.unwrap_or(0),
                resp.points_total.unwrap_or(0),
                resp.cache_hits.unwrap_or(0),
                resp.simulated.unwrap_or(0),
            );
            std::process::exit(if resp.state.as_deref() == Some("failed") { 3 } else { 0 });
        }
        "stats" => {
            if !positional.is_empty() {
                fail_usage("stats takes no positional arguments");
            }
            let mut conn = connect_or_die(&endpoint);
            let resp = check(conn.request(&Request::new("stats")).unwrap_or_else(|e| fail_io(&e)));
            println!(
                "daemon: fingerprint {}, up {}s",
                resp.fingerprint.as_deref().unwrap_or("unknown"),
                resp.uptime_seconds.unwrap_or(0),
            );
            println!(
                "jobs: {} queued, {} running, {} done, {} failed",
                resp.jobs_queued.unwrap_or(0),
                resp.jobs_running.unwrap_or(0),
                resp.jobs_done.unwrap_or(0),
                resp.jobs_failed.unwrap_or(0),
            );
            println!(
                "store: {} hits, {} misses, {} writes",
                resp.store_hits.unwrap_or(0),
                resp.store_misses.unwrap_or(0),
                resp.store_writes.unwrap_or(0),
            );
            std::process::exit(0);
        }
        "fetch" => {
            let [job] = positional.as_slice() else {
                fail_usage("fetch takes exactly one JOB argument");
            };
            let Some(dir) = &out else {
                fail_usage("fetch needs --out DIR");
            };
            let mut req = Request::new("fetch");
            req.job = Some(job.clone());
            let mut conn = connect_or_die(&endpoint);
            let resp = check(conn.request(&req).unwrap_or_else(|e| fail_io(&e)));
            for path in write_files(dir, &resp) {
                println!("  -> wrote {}", path.display());
            }
            std::process::exit(0);
        }
        other => fail_usage(&format!("unknown client command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_specs_parse() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/d.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/d.sock"))
        );
        assert_eq!(
            Endpoint::parse("/tmp/d.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/d.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:9187").unwrap(),
            Endpoint::Tcp("127.0.0.1:9187".to_string())
        );
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert_eq!(Endpoint::parse("tcp:localhost:1").unwrap().to_string(), "tcp:localhost:1");
    }
}
