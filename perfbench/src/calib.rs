//! The host's speed during a run, gauged by a fixed reference kernel: a
//! set-associative LRU cache model over a skewed address stream. It is
//! written here, so no change to the repository's code changes it.
//!
//! On a shared host the speed of cache-heavy code drifts by 20–40% over
//! minutes while the benchmark's own work stays the same. The simulator
//! and the network path follow it (their run times correlate with the
//! kernel's), so their figures are scaled to a nominal host speed; a
//! change in the program's own speed passes through one for one.

use std::time::Instant;

use crate::stats::median;

const SETS: usize = 4096;
const WAYS: usize = 8;
/// References per kernel run.
const REFS: usize = 300_000;
/// The kernel's typical time on the 2-vCPU host the benchmark was tuned
/// on (its run medians ranged about 6.7–9.6 ms there).
pub const NOMINAL_NS: f64 = 8_500_000.0;
/// The kernel runs once per this much repetition time, about 3.5% of a
/// run.
const EVERY_NS: u64 = 250_000_000;

/// Runs the kernel once; returns its hits so that it cannot be elided.
/// It allocates its tables afresh, as each simulation and each service
/// repetition allocates its own.
fn kernel() -> u64 {
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut stamps = vec![0u32; SETS * WAYS];
    let mut s = 99u64;
    let mut hits = 0;
    for t in 0..REFS {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = s >> 40;
        let addr = if r & 3 == 0 {
            r % (1 << 22)
        } else {
            r % (1 << 15)
        };
        let base = (addr as usize % SETS) * WAYS;
        let tag = addr / SETS as u64;
        let mut victim = base;
        let mut hit = false;
        for w in base..base + WAYS {
            if tags[w] == tag {
                stamps[w] = t as u32;
                hit = true;
                break;
            }
            if stamps[w] < stamps[victim] {
                victim = w;
            }
        }
        if hit {
            hits += 1;
        } else {
            tags[victim] = tag;
            stamps[victim] = t as u32;
        }
    }
    hits
}

/// Kernel timings taken between a run's repetitions.
#[derive(Debug, Default)]
pub struct HostSpeed {
    samples: Vec<u64>,
    /// Repetition time not yet covered by a sample.
    owed_ns: u64,
}

impl HostSpeed {
    /// Runs the kernel once for every `EVERY_NS` of the `rep_ns` just
    /// spent, so a run samples the host evenly over its time.
    pub fn after(&mut self, rep_ns: u64) {
        self.owed_ns += rep_ns;
        while self.owed_ns >= EVERY_NS || self.samples.is_empty() {
            let t = Instant::now();
            std::hint::black_box(kernel());
            self.samples.push(t.elapsed().as_nanos() as u64);
            self.owed_ns = self.owed_ns.saturating_sub(EVERY_NS);
        }
    }

    /// The kernel's median time over the run, in nanoseconds.
    pub fn kernel_ns(&self) -> f64 {
        let ns: Vec<f64> = self.samples.iter().map(|&n| n as f64).collect();
        median(&ns)
    }

    /// The factor that turns a time measured in this run into the
    /// nominal host's time: below 1 when the host ran slower than
    /// nominal (the kernel took longer), so a slow period's long times
    /// shrink back. Rates are divided by it.
    pub fn to_nominal(&self) -> f64 {
        NOMINAL_NS / self.kernel_ns()
    }
}
