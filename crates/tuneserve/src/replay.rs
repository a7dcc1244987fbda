//! Zipfian traffic replay: synthesize the key mix a production tuning
//! service would see and drive a [`TuneServer`] with it.
//!
//! The key universe is the cross product devices × stencil orders ×
//! grids × precisions ([`TrafficMix`]); request traffic ranks it by a
//! Zipf law (a few keys dominate, a long tail trickles — the shape of
//! real content-addressed caches) with a configurable
//! duplicate-burstiness knob: with probability `burstiness` a request
//! repeats the previous key *immediately*, modelling the bursts of
//! identical requests that single-flight and the batch dedup exist
//! for. The trace is a pure function of the seed, so two replays over
//! identical server state serve identical tier mixes — CI asserts
//! exactly that.

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{KernelSpec, Method, Variant};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use stencil_autotune::ParameterSpace;
use stencil_grid::Precision;
use stencil_tunestore::{TuneRequest, TunerSpec};

use crate::admission::ShedReason;
use crate::server::{ServeOutcome, ServeRequest, ServeTier, TuneServer};

/// The key-universe recipe: every combination becomes one tunable key.
#[derive(Clone, Debug)]
pub struct TrafficMix {
    /// Target devices.
    pub devices: Vec<DeviceSpec>,
    /// Stencil orders (radius = order / 2).
    pub orders: Vec<usize>,
    /// Problem grids.
    pub grids: Vec<GridDims>,
    /// Precisions.
    pub precisions: Vec<Precision>,
    /// Measurement-noise seed baked into every key.
    pub seed: u64,
}

impl TrafficMix {
    /// The CI smoke mix: a small, fast universe (two devices × two
    /// orders × one grid × SP) whose searches complete in
    /// milliseconds.
    pub fn smoke() -> Self {
        TrafficMix {
            devices: vec![DeviceSpec::gtx580(), DeviceSpec::gtx680()],
            orders: vec![2, 4],
            grids: vec![GridDims::new(96, 96, 32)],
            precisions: vec![Precision::Single],
            seed: 1,
        }
    }

    /// The standard bench mix: all three paper devices × four orders ×
    /// two grids × both precisions.
    pub fn standard() -> Self {
        TrafficMix {
            devices: vec![
                DeviceSpec::gtx580(),
                DeviceSpec::gtx680(),
                DeviceSpec::c2070(),
            ],
            orders: vec![2, 4, 6, 8],
            grids: vec![GridDims::new(256, 256, 64), GridDims::new(128, 128, 128)],
            precisions: vec![Precision::Single, Precision::Double],
            seed: 1,
        }
    }

    /// Materialize the universe: one exhaustive-search request per
    /// combination over its quick space (combinations whose space is
    /// empty are skipped).
    pub fn universe(&self) -> Vec<TuneRequest> {
        let mut out = Vec::new();
        for device in &self.devices {
            for &order in &self.orders {
                for precision in &self.precisions {
                    let kernel = KernelSpec::star_order(
                        Method::InPlane(Variant::FullSlice),
                        order,
                        *precision,
                    );
                    for &dims in &self.grids {
                        let space = ParameterSpace::quick_space(device, &kernel, &dims);
                        if space.is_empty() {
                            continue;
                        }
                        out.push(TuneRequest {
                            device: device.clone(),
                            kernel: kernel.clone(),
                            dims,
                            space,
                            tuner: TunerSpec::Exhaustive,
                            seed: self.seed,
                        });
                    }
                }
            }
        }
        out
    }
}

/// A Zipf(`s`) sampler over ranks `0..n` via inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s` (`s = 0` is uniform;
    /// larger `s` concentrates mass on low ranks).
    ///
    /// # Panics
    /// Panics when `n` is zero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "cannot sample an empty universe");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank from a uniform `u` in `[0, 1)`.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A uniform `[0, 1)` draw from the deterministic generator.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Generate a `requests`-long trace of universe indices: Zipf-ranked
/// key popularity with duplicate bursts. Pure function of the inputs.
pub fn zipf_trace(
    universe_len: usize,
    requests: usize,
    exponent: f64,
    burstiness: f64,
    seed: u64,
) -> Vec<usize> {
    let zipf = Zipf::new(universe_len, exponent);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = Vec::with_capacity(requests);
    let mut prev: Option<usize> = None;
    for _ in 0..requests {
        let idx = match prev {
            Some(p) if unit(&mut rng) < burstiness => p,
            _ => zipf.sample(unit(&mut rng)),
        };
        trace.push(idx);
        prev = Some(idx);
    }
    trace
}

/// Replay knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplayConfig {
    /// Requests to offer.
    pub requests: usize,
    /// Concurrent client workers (1 = closed-loop deterministic).
    pub workers: usize,
    /// Zipf exponent of the key popularity.
    pub zipf_exponent: f64,
    /// Probability a request repeats the previous key immediately.
    pub burstiness: f64,
    /// Per-request deadline budget, microseconds (`None` = unbounded).
    pub budget_micros: Option<u64>,
    /// Trace seed.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            requests: 2000,
            workers: 4,
            zipf_exponent: 1.1,
            burstiness: 0.2,
            budget_micros: None,
            seed: 42,
        }
    }
}

/// Responses served per tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Hot-key LRU hits.
    pub lru: u64,
    /// Store hits.
    pub store: u64,
    /// Shared an in-flight leader or an in-batch canonical.
    pub shared: u64,
    /// Warm-started searches.
    pub warm_started: u64,
    /// Full searches.
    pub computed: u64,
}

impl TierCounts {
    /// Total served responses.
    pub fn total(&self) -> u64 {
        self.lru + self.store + self.shared + self.warm_started + self.computed
    }

    /// Responses that did *no* search work (LRU + store + shared).
    pub fn cache_served(&self) -> u64 {
        self.lru + self.store + self.shared
    }

    fn count(&mut self, tier: ServeTier) {
        match tier {
            ServeTier::Lru => self.lru += 1,
            ServeTier::Store => self.store += 1,
            ServeTier::Shared => self.shared += 1,
            ServeTier::WarmStarted => self.warm_started += 1,
            ServeTier::Computed => self.computed += 1,
        }
    }
}

/// Shed responses per coded reason.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShedCounts {
    /// `SRV-001` pool-saturated sheds.
    pub saturated: u64,
    /// `SRV-002` oracle-triage sheds.
    pub over_budget: u64,
    /// `SRV-003` expired-deadline sheds.
    pub deadline: u64,
    /// `SRV-004` invalid-request refusals.
    pub invalid: u64,
}

impl ShedCounts {
    /// Total shed responses.
    pub fn total(&self) -> u64 {
        self.saturated + self.over_budget + self.deadline + self.invalid
    }

    fn count(&mut self, reason: ShedReason) {
        match reason {
            ShedReason::PoolSaturated { .. } => self.saturated += 1,
            ShedReason::OverBudget { .. } => self.over_budget += 1,
            ShedReason::DeadlineExpired { .. } => self.deadline += 1,
            ShedReason::InvalidRequest(_) => self.invalid += 1,
        }
    }
}

/// Latency quantiles of one replay, microseconds (nearest-rank).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Median.
    pub p50_micros: u64,
    /// 99th percentile.
    pub p99_micros: u64,
    /// 99.9th percentile.
    pub p999_micros: u64,
    /// Worst observed.
    pub max_micros: u64,
    /// Arithmetic mean.
    pub mean_micros: u64,
}

fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl LatencyStats {
    /// Summarize a set of per-request latencies.
    pub fn from_latencies(mut micros: Vec<u64>) -> Self {
        micros.sort_unstable();
        let n = micros.len() as u64;
        LatencyStats {
            p50_micros: nearest_rank(&micros, 0.50),
            p99_micros: nearest_rank(&micros, 0.99),
            p999_micros: nearest_rank(&micros, 0.999),
            max_micros: micros.last().copied().unwrap_or(0),
            mean_micros: micros.iter().sum::<u64>().checked_div(n).unwrap_or(0),
        }
    }
}

/// What one replay measured.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayOutcome {
    /// Requests offered.
    pub offered: u64,
    /// Served per tier.
    pub tiers: TierCounts,
    /// Shed per coded reason.
    pub sheds: ShedCounts,
    /// Latency quantiles (wall time per request).
    pub latency: LatencyStats,
    /// Replay wall time, seconds.
    pub wall_secs: f64,
    /// Offered load served + shed per second of wall time.
    pub throughput_rps: f64,
}

impl ReplayOutcome {
    /// Shed fraction of offered load.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.sheds.total() as f64 / self.offered as f64
        }
    }

    /// Fraction of *served* responses that did no search work.
    pub fn cache_served_ratio(&self) -> f64 {
        let served = self.tiers.total();
        if served == 0 {
            0.0
        } else {
            self.tiers.cache_served() as f64 / served as f64
        }
    }

    /// The deterministic shape of this outcome — everything except
    /// wall-clock figures. Two replays of one trace over identical
    /// server state must agree on this exactly.
    pub fn deterministic_shape(&self) -> (u64, TierCounts, ShedCounts) {
        (self.offered, self.tiers, self.sheds)
    }
}

/// Drive `server` with `trace` (indices into `universe`) from
/// `workers` concurrent clients and summarize what happened.
///
/// With `workers == 1` the replay is closed-loop: requests resolve one
/// at a time in trace order, so tier and shed counts are a pure
/// function of trace + server state (the determinism CI pins). More
/// workers race the tiers — counts may then legitimately vary between
/// runs (a burst duplicate may hit the LRU or share the in-flight
/// leader depending on timing), but `served + shed == offered` always
/// holds and nothing ever blocks on pool capacity.
pub fn replay(
    server: &TuneServer,
    universe: &[TuneRequest],
    trace: &[usize],
    workers: usize,
    budget_micros: Option<u64>,
) -> ReplayOutcome {
    use conc_check::sync::AtomicUsize;
    use std::sync::atomic::Ordering;
    use std::time::Instant;

    let workers = workers.max(1);
    let cursor = AtomicUsize::new_named(0, "replay.cursor");
    let started = Instant::now();
    let mut per_worker: Vec<(TierCounts, ShedCounts, Vec<u64>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut tiers = TierCounts::default();
                    let mut sheds = ShedCounts::default();
                    let mut lats = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= trace.len() {
                            break;
                        }
                        let sreq = ServeRequest {
                            req: universe[trace[i]].clone(),
                            budget_micros,
                        };
                        let t0 = Instant::now();
                        let outcome = server.resolve(&sreq);
                        lats.push(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
                        match outcome {
                            ServeOutcome::Served(s) => tiers.count(s.tier),
                            ServeOutcome::Shed(r) => sheds.count(r),
                        }
                    }
                    (tiers, sheds, lats)
                })
            })
            .collect();
        for h in handles {
            per_worker.push(h.join().expect("replay worker panicked"));
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut tiers = TierCounts::default();
    let mut sheds = ShedCounts::default();
    let mut lats = Vec::with_capacity(trace.len());
    for (t, s, l) in per_worker {
        tiers.lru += t.lru;
        tiers.store += t.store;
        tiers.shared += t.shared;
        tiers.warm_started += t.warm_started;
        tiers.computed += t.computed;
        sheds.saturated += s.saturated;
        sheds.over_budget += s.over_budget;
        sheds.deadline += s.deadline;
        lats.extend(l);
    }
    let offered = trace.len() as u64;
    ReplayOutcome {
        offered,
        tiers,
        sheds,
        latency: LatencyStats::from_latencies(lats),
        wall_secs,
        throughput_rps: if wall_secs > 0.0 {
            offered as f64 / wall_secs
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_monotone_and_head_heavy() {
        let z = Zipf::new(100, 1.2);
        assert_eq!(z.sample(0.0), 0);
        assert!(z.sample(0.9999) > 10);
        // Rank-0 mass dominates rank-50 under s > 1.
        let trace = zipf_trace(100, 20_000, 1.2, 0.0, 7);
        let head = trace.iter().filter(|&&i| i == 0).count();
        let mid = trace.iter().filter(|&&i| i == 50).count();
        assert!(head > 10 * mid.max(1), "head {head} vs mid {mid}");
    }

    #[test]
    fn traces_are_pure_functions_of_the_seed() {
        let a = zipf_trace(32, 5000, 1.1, 0.3, 9);
        let b = zipf_trace(32, 5000, 1.1, 0.3, 9);
        let c = zipf_trace(32, 5000, 1.1, 0.3, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|&i| i < 32));
    }

    #[test]
    fn burstiness_repeats_the_previous_key() {
        let calm = zipf_trace(64, 10_000, 1.0, 0.0, 3);
        let bursty = zipf_trace(64, 10_000, 1.0, 0.9, 3);
        let repeats = |t: &[usize]| t.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats(&bursty) > 2 * repeats(&calm));
    }

    #[test]
    fn smoke_universe_is_small_and_nonempty() {
        let u = TrafficMix::smoke().universe();
        assert!(!u.is_empty());
        assert!(u.len() <= 8, "smoke universe stays small: {}", u.len());
        // Keys are pairwise distinct.
        let mut hashes: Vec<u64> = u.iter().map(|r| r.key().stable_hash()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), u.len());
    }

    #[test]
    fn nearest_rank_quantiles() {
        let l = LatencyStats::from_latencies((1..=1000).collect());
        assert_eq!(l.p50_micros, 500);
        assert_eq!(l.p99_micros, 990);
        assert_eq!(l.p999_micros, 999);
        assert_eq!(l.max_micros, 1000);
    }
}
