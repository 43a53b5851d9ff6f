//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! drifts with their load on the shared caches and memory: the same cold
//! pass took 0.28 s in one run and 0.43 s in a run minutes later. Every
//! timed section of an untraced run is therefore bracketed by samples of
//! this kernel, and its time is scaled by `NOMINAL_S` over the mean of the
//! two samples: the time it would have taken on a host that runs the
//! kernel in `NOMINAL_S`. The kernel is the benchmark's own code, so a
//! change to the simulator moves the scaled times exactly as it moves the
//! raw ones.

use std::collections::HashMap;
use std::time::Instant;

/// The kernel's median time on a quiet 2-core Xeon (Sapphire Rapids,
/// KVM guest), release build.
pub const NOMINAL_S: f64 = 0.0165;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Seconds to run the kernel once: sort 400k pseudo-random words, then
/// make 300k random gets and inserts on a hash map of up to 256k keys.
/// The two halves take about the same time; together they load the
/// branch predictor, the caches and the allocator as the simulator does.
pub fn sample() -> f64 {
    let start = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut words: Vec<u64> = (0..400_000).map(|_| xorshift(&mut x)).collect();
    words.sort_unstable();
    let mut map = HashMap::with_capacity(1 << 17);
    let mut acc = words[7];
    for _ in 0..300_000 {
        let r = xorshift(&mut x);
        let key = r & ((1 << 18) - 1);
        if r & 0x300 == 0 {
            map.insert(key, r);
        } else if let Some(v) = map.get(&key) {
            acc = acc.wrapping_add(*v);
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Timings as measured and as scaled to the nominal host.
#[derive(Default)]
pub struct Times {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

impl Times {
    /// Records `t`, measured between kernel samples `before` and `after`.
    pub fn push(&mut self, t: f64, before: f64, after: f64) {
        self.raw.push(t);
        self.scaled.push(t * NOMINAL_S / ((before + after) / 2.0));
    }
}
