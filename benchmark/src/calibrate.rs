//! The host-speed reference loop.
//!
//! The reference host — a 2-vCPU Xeon VM sharing its L3 with other VMs —
//! drifts: over minutes, every workload and any fixed loop run up to ~15%
//! slower or faster together, while bursts of a second or two slow single
//! reps by up to 2×. Raw host times therefore spread more between runs
//! than any useful bound. A fixed reference loop, timed beside every rep,
//! measures the host's momentary speed; dividing it out leaves the
//! simulator's own speed. The loop is this package's code, so a change to
//! the simulator cannot move it. It does not track minutes-long episodes
//! of heavy L3 contention, which slow the simulator more than any one loop
//! (see the README).
//!
//! The loop mixes what the simulator's hot path does: dependent loads
//! from an L2-sized table (cache probes, radix lookups) and integer
//! mixing (hashing, RNG).

use std::hint::black_box;
use std::time::Instant;

use hypersio_types::SplitMix64;

/// Table entries: 512 KiB of `u64`.
const TABLE_LEN: usize = 1 << 16;

/// Iterations per timing (about 20 ms on the reference host).
const OPS: u64 = 3_000_000;

/// The loop's time on the reference host when undisturbed. Host times are reported as if measured at this speed.
const NOMINAL_S: f64 = 0.020;

/// Times the reference loop between the pieces of a run.
pub struct Host {
    table: Vec<u64>,
    last: f64,
}

impl Host {
    /// Builds the loop's table from a fixed seed and takes a first timing.
    pub fn new() -> Host {
        let mut rng = SplitMix64::new(0x5eed);
        let mut host = Host {
            table: (0..TABLE_LEN).map(|_| rng.next_u64()).collect(),
            last: 0.0,
        };
        host.last = host.slowdown();
        host
    }

    /// The host's slowdown against the reference host over the interval
    /// since the previous call (or construction): the mean of the two
    /// timings that bracket it. Divide a host time measured in the
    /// interval by it, or multiply a rate, to state it at reference speed.
    pub fn interval(&mut self) -> f64 {
        let now = self.slowdown();
        let s = (self.last + now) / 2.0;
        self.last = now;
        s
    }

    /// Runs the loop once: its time over [`NOMINAL_S`].
    fn slowdown(&self) -> f64 {
        let start = Instant::now();
        let table = black_box(&self.table[..]);
        let (mut idx, mut x, mut acc) = (0usize, 0x9e37_79b9_7f4a_7c15u64, 0u64);
        for _ in 0..OPS {
            let v = table[idx];
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(v ^ x);
            idx = (v ^ x) as usize & (TABLE_LEN - 1);
        }
        black_box(acc);
        start.elapsed().as_secs_f64() / NOMINAL_S
    }
}
