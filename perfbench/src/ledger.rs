//! The keyed result ledger. Every run appends one row; a row is compared
//! only with the previous row of the same key (host cores, code
//! fingerprint, commit, workload, scale, seed and trace mode).

use std::io::Write as _;
use std::path::Path;

use crate::Metric;

/// Prints each metric's change against the last row keyed `key` in the
/// ledger at `path`, then appends this run's row.
pub fn record(path: &Path, key: &str, metrics: &[Metric]) {
    let ledger = std::fs::read_to_string(path).unwrap_or_default();
    let prior = ledger.lines().rev().find_map(|line| {
        line.split_once('\t')
            .filter(|(k, _)| *k == key)
            .map(|(_, row)| row)
    });
    match prior {
        None => println!("ledger: first row for this key"),
        Some(row) => {
            for (name, old) in row.split(' ').filter_map(|pair| pair.split_once('=')) {
                let (Ok(old), Some(m)) =
                    (old.parse::<f64>(), metrics.iter().find(|m| m.name == name))
                else {
                    continue;
                };
                let change = if old == 0.0 {
                    "n/a".to_string()
                } else {
                    format!("{:+.1}%", (m.value / old - 1.0) * 100.0)
                };
                println!("ledger: {name} {old} -> {} {} ({change})", m.value, m.unit);
            }
        }
    }
    let row: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}={}", m.name, m.value))
        .collect();
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(format!("{key}\t{}\n", row.join(" ")).as_bytes()));
    if let Err(e) = appended {
        eprintln!("ledger: cannot append to {}: {e}", path.display());
    }
}
