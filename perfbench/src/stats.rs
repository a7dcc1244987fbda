//! Timing, percentile, digest and result-formatting helpers shared by
//! the three workloads.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::{Duration, Instant};

/// Microseconds in `d`, with sub-microsecond digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Run `f` and return its result with the elapsed wall time in µs.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, us(t0.elapsed()))
}

/// Nearest-rank `q`-quantile of `samples` (sorted internally).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples lying strictly beyond the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`) since start
/// or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the peak resident set from the current one.
pub fn reset_peak_rss() {
    // Best effort: without it the peak covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `seed`-ordered indices `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// Run `reps` passes, each calling `before_pass(rep)` and then `op`
/// once on every index `0..n` in its own seeded order, and return each
/// index's wall times in µs.
pub fn run_repeats(
    n: usize,
    reps: usize,
    seed: u64,
    mut before_pass: impl FnMut(usize),
    mut op: impl FnMut(usize),
) -> Vec<Vec<f64>> {
    let mut times = vec![Vec::with_capacity(reps); n];
    for rep in 0..reps {
        before_pass(rep);
        for i in shuffled(n, seed.wrapping_mul(0x9e37_79b9).wrapping_add(rep as u64)) {
            let ((), t) = timed(|| op(i));
            times[i].push(t);
        }
    }
    times
}

/// Each op's best time: the fastest of its repeats. The reference VM
/// runs a thread up to 1.5× slower in spells of seconds to minutes, and
/// in noisy stretches most of a run's passes meet one. Repeats spread
/// across the run make it likely that each op meets a quiet moment at
/// least once; its median would still read a spell that covers half
/// the run. Over six consecutive runs in such a stretch, configs/s
/// from the best times spread 0.10 (IQR ÷ median), from the medians 0.18.
pub fn best_us(times: &[Vec<f64>]) -> Vec<f64> {
    times.iter().map(|t| quantile(t, 0.0)).collect()
}

/// FNV-1a digest accumulator for the pinned output checks.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn word(&mut self, w: u64) -> &mut Self {
        self.bytes(&w.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The pinned digests in `pins.txt`: `<workload> <op index> <hex digest>`.
pub fn pins(workload: &str) -> Vec<u64> {
    include_str!("../pins.txt")
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            (it.next()? == workload).then_some(())?;
            let _index = it.next()?;
            u64::from_str_radix(it.next()?, 16).ok()
        })
        .collect()
}

/// A metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions (printed to stderr).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Host and run facts, as `(key, JSON value)`.
    pub facts: Vec<(String, String)>,
    /// Deterministic work counters: identical across runs of one build
    /// and seed.
    pub counters: Vec<(&'static str, u64)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// Record one op's check: `Err` counts it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Count a failure against an already-attempted op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Record the sample count behind the op percentiles, which are
    /// taken over `samples` timings.
    pub fn percentile_facts(&mut self, samples: usize) {
        self.fact("op_samples", samples);
        self.fact("op_samples_beyond_p90", beyond(samples, 0.9));
    }
}

/// Describe a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}
