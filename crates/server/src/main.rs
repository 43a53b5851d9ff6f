//! `vcoma-sweepd` — the long-lived sweep daemon.

use std::path::PathBuf;
use std::process::exit;

use vcoma_experiments::client::Endpoint;
use vcoma_server::daemon::{Daemon, DaemonConfig};

const USAGE: &str = "\
vcoma-sweepd -- long-lived sweep daemon with a content-addressed result store

USAGE:
    vcoma-sweepd --listen ENDPOINT --store DIR [OPTIONS]

REQUIRED:
    --listen ENDPOINT   where to accept clients: unix:PATH (or a bare
                        path) for a unix socket, tcp:HOST:PORT for
                        localhost TCP
    --store DIR         result-store directory (created if missing;
                        reusing a directory resumes from its contents)

OPTIONS:
    --jobs N            sweep worker threads per job (default: one per core)
    --http ADDR         also serve HTTP GET /metrics, /healthz and /readyz
                        on ADDR (e.g. 127.0.0.1:9188; port 0 picks a free
                        port). Observation only - control stays on --listen
    --help              print this help

Logging goes to stderr, one structured line per event; VCOMA_LOG
selects the level (error|warn|info|debug, default info).

Submit work with `vcoma-experiments submit --server ENDPOINT ...`.
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    exit(2);
}

fn flag_value(flag: &str, value: Option<String>) -> String {
    value.unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

fn parse_count(flag: &str, value: Option<String>) -> usize {
    let raw = flag_value(flag, value);
    raw.parse().unwrap_or_else(|_| fail(&format!("{flag} needs a number, got '{raw}'")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut listen: Option<Endpoint> = None;
    let mut store_dir: Option<PathBuf> = None;
    let mut jobs = 0usize;
    let mut http: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                let raw = flag_value("--listen", args.next());
                match Endpoint::parse(&raw) {
                    Ok(ep) => listen = Some(ep),
                    Err(e) => fail(&e),
                }
            }
            "--store" => store_dir = Some(PathBuf::from(flag_value("--store", args.next()))),
            "--jobs" => jobs = parse_count("--jobs", args.next()),
            "--http" => http = Some(flag_value("--http", args.next())),
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    let Some(listen) = listen else { fail("--listen is required") };
    let Some(store_dir) = store_dir else { fail("--store is required") };

    let config = DaemonConfig { listen, store_dir, jobs, http };
    let daemon = match Daemon::new(config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: cannot open store: {e}");
            exit(1);
        }
    };
    if let Err(e) = daemon.serve() {
        eprintln!("error: cannot listen: {e}");
        exit(1);
    }
}
