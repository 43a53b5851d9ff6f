//! Output checks: report digests pinned at the default seed, and cycle
//! and reference conservation at any seed.

use std::fmt::Write as _;

use vcoma::SimReport;
use vcoma_experiments::cache::fnv128_hex;

/// The default master seed (the artifacts' seed); digests are pinned at
/// this seed only.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Points attempted and points whose output failed a check.
#[derive(Debug, Default)]
pub struct Score {
    pub attempted: u64,
    pub failed: u64,
}

impl Score {
    /// Records one point and its verdict.
    pub fn point(&mut self, what: &str, verdict: Result<(), String>) {
        self.points(what, 1, verdict);
    }

    /// Records `n` points that share one verdict.
    pub fn points(&mut self, what: &str, n: u64, verdict: Result<(), String>) {
        self.attempted += n;
        if let Err(why) = verdict {
            self.failed += n;
            eprintln!("FAILED {what}: {why}");
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A digest of what a report simulated: per-node time, references,
/// cache and translation counters, and protocol and network totals.
/// Neither the execution strategy nor the report's encoding reaches it.
pub fn digest(r: &SimReport) -> String {
    let mut s = String::new();
    for n in r.nodes() {
        let _ = write!(
            s,
            "{} {} {} {} {}/{} {}/{}",
            n.time,
            n.refs,
            n.reads,
            n.writes,
            n.flc.hits(),
            n.flc.accesses(),
            n.slc.hits(),
            n.slc.accesses()
        );
        for t in &n.translation {
            let _ = write!(s, " {}/{}", t.misses, t.accesses);
        }
        s.push('\n');
    }
    let _ = writeln!(s, "{:?}", r.protocol());
    let _ = writeln!(s, "{} {} {}", r.net_msgs(), r.net_bytes(), r.swap_outs());
    fnv128_hex(&s)
}

/// Conservation: every node's fine `LatencyBreakdown` accounts for each
/// cycle of its time and, where the caller counted them, the report's
/// references equal the memory ops pulled from the workload's sources.
pub fn conservation(r: &SimReport, mem_ops: Option<u64>) -> Result<(), String> {
    for (i, n) in r.nodes().iter().enumerate() {
        if n.fine.total() != n.time {
            return Err(format!(
                "node {i}: fine breakdown {} != time {}",
                n.fine.total(),
                n.time
            ));
        }
    }
    match mem_ops {
        Some(ops) if ops != r.total_refs() => Err(format!(
            "{} refs reported, {ops} memory ops pulled",
            r.total_refs()
        )),
        _ => Ok(()),
    }
}

/// Checks `digest` against the pin named `what`. A name without a pin
/// (the smoke sizes) passes, and its digest is printed so it can be
/// pinned.
pub fn pinned(what: &str, digest: &str) -> Result<(), String> {
    match PINS.iter().find(|(name, _)| *name == what) {
        Some((_, want)) if *want != digest => Err(format!("digest {digest} != pinned {want}")),
        Some(_) => Ok(()),
        None => {
            eprintln!("unpinned digest {what} {digest}");
            Ok(())
        }
    }
}

/// Digests at the default seed, named `workload/point@scale`.
const PINS: &[(&str, &str)] = &[
    ("locality_l0/BARNES@0.1", "c2548e43fb5544d0762d66814c8bcd3f"),
    ("locality_l0/FMM@0.1", "bfb8021cbbcf2e78656718b2e35133e7"),
    (
        "locality_l0/warmup/BARNES@0.01",
        "34a93f95d9fdea6b53a611d302666356",
    ),
    (
        "store_resume/L0-TLB/BARNES@0.01",
        "34a93f95d9fdea6b53a611d302666356",
    ),
    (
        "store_resume/L0-TLB/FFT@0.01",
        "f31ac844a51795d6ba0f50fd52ed9b53",
    ),
    (
        "store_resume/L0-TLB/FMM@0.01",
        "938cd9829536f7108b68d589d4381611",
    ),
    (
        "store_resume/L0-TLB/OCEAN@0.01",
        "fd7f40ea649af7fca39288a964a0a511",
    ),
    (
        "store_resume/L0-TLB/RADIX@0.01",
        "4431b3aec9c807abc26bf4a08de7936e",
    ),
    (
        "store_resume/L0-TLB/RAYTRACE@0.01",
        "4a109659accb01727e40b7ff5821d0f5",
    ),
    (
        "store_resume/L1-TLB/BARNES@0.01",
        "f797de19d1a24699650e5608190d7008",
    ),
    (
        "store_resume/L1-TLB/FFT@0.01",
        "c32d1be6bd1c9f7eb80048b0b39f6d37",
    ),
    (
        "store_resume/L1-TLB/FMM@0.01",
        "a514108284e3073cf58425b3d5cf6f2b",
    ),
    (
        "store_resume/L1-TLB/OCEAN@0.01",
        "a53b17ccdab5a8d0c82771c39d77ac9d",
    ),
    (
        "store_resume/L1-TLB/RADIX@0.01",
        "9be6c7c5ccd7423e4f1b096aeaa00137",
    ),
    (
        "store_resume/L1-TLB/RAYTRACE@0.01",
        "e64d6c55a5567cedb0f55077ce1f5336",
    ),
    (
        "store_resume/L2-TLB/BARNES@0.01",
        "714fc23e751aae31e228f33ef53a3c26",
    ),
    (
        "store_resume/L2-TLB/FFT@0.01",
        "73d96176105bdd796f90a0ef52f052d0",
    ),
    (
        "store_resume/L2-TLB/FMM@0.01",
        "b7b54a7e568c80746acf4cca24b55059",
    ),
    (
        "store_resume/L2-TLB/OCEAN@0.01",
        "2a1d27d1894f33db1d89df6bf2dfee06",
    ),
    (
        "store_resume/L2-TLB/RADIX@0.01",
        "705f5ac14efaa7b6551adc82206ae225",
    ),
    (
        "store_resume/L2-TLB/RAYTRACE@0.01",
        "b2e5235620435937d5cfbe49f872eaac",
    ),
    (
        "store_resume/L3-TLB/BARNES@0.01",
        "e484ac1dcf5db7114716080d408eaad0",
    ),
    (
        "store_resume/L3-TLB/FFT@0.01",
        "4d80df6aeb8f901f1a513ca82c7d7eda",
    ),
    (
        "store_resume/L3-TLB/FMM@0.01",
        "e61ae5409638b41bc847d71803b71732",
    ),
    (
        "store_resume/L3-TLB/OCEAN@0.01",
        "c83b22b501767ef75661f99b6d5632ae",
    ),
    (
        "store_resume/L3-TLB/RADIX@0.01",
        "bd692488316d2d9a6802691a14c7c8df",
    ),
    (
        "store_resume/L3-TLB/RAYTRACE@0.01",
        "8dc70ff73ec80d1cf9ca5bc3f38ccc1f",
    ),
    (
        "store_resume/V-COMA/BARNES@0.01",
        "6afdf19ac78b83e989eae9c7386ad0d8",
    ),
    (
        "store_resume/V-COMA/FFT@0.01",
        "a749fc5c8dc37fbed5b2f53eee18af33",
    ),
    (
        "store_resume/V-COMA/FMM@0.01",
        "cf572b53d21733699161e4b5742e8e2e",
    ),
    (
        "store_resume/V-COMA/OCEAN@0.01",
        "606f9a15c8971169429380c38d8fcff2",
    ),
    (
        "store_resume/V-COMA/RADIX@0.01",
        "68392d7a8a0de3ce7224814ff7570c59",
    ),
    (
        "store_resume/V-COMA/RAYTRACE@0.01",
        "bd9af1ccd5f99faedf84494527da7601",
    ),
    ("store_resume/csv@0.01", "244cd399d83b182ace02028a77674933"),
    (
        "store_resume/reports@0.01",
        "cff620a041c7861a8a9c2eb88a28505d",
    ),
    (
        "store_resume/warmup/RADIX@0.01",
        "4431b3aec9c807abc26bf4a08de7936e",
    ),
    ("stream_vcoma/FFT@0.1", "4149601224f0f75535d02eb1b5f3b0d0"),
    ("stream_vcoma/RADIX@0.1", "18f3c03748b0e74951a9991161437790"),
    (
        "stream_vcoma/warmup/FFT@0.01",
        "57da05e35f2b9e50302ce1c457a97e59",
    ),
];
