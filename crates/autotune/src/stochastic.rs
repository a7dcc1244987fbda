//! Stochastic search tuning — the §II alternative to exhaustive search
//! for large parameter spaces ("for a larger search space, methods like
//! dynamic programming or stochastic search can be used \[17\]").
//!
//! A simulated-annealing walk over the constrained `(TX, TY, RX, RY)`
//! lattice: neighbours differ in one factor by one step (half-warp for
//! `TX`, ±1 for `TY`, ×/÷2 for the register factors). The walk accepts
//! uphill moves always and downhill moves with a temperature-scheduled
//! probability, restarting from the best-so-far when it stalls. Fully
//! deterministic for a given seed.

use crate::exhaustive::TuneSample;
use crate::space::ParameterSpace;
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options for the annealing schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AnnealOptions {
    /// Total configurations to execute (the budget — comparable to the
    /// model-based tuner's `N`).
    pub evaluations: usize,
    /// Initial acceptance temperature as a fraction of the current
    /// performance (0.05 = accept ~5% regressions early on).
    pub initial_temperature: f64,
    /// Restart from the incumbent after this many non-improving moves.
    pub stall_limit: usize,
}

impl Default for AnnealOptions {
    fn default() -> Self {
        AnnealOptions {
            evaluations: 60,
            initial_temperature: 0.08,
            stall_limit: 12,
        }
    }
}

/// Result of a stochastic tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct StochasticOutcome {
    /// Best configuration found.
    pub best: TuneSample,
    /// Configurations actually executed (≤ the budget; repeats are
    /// cached, not re-measured).
    pub executed: usize,
    /// The accepted-walk trace `(config, measured)` in order.
    pub trace: Vec<TuneSample>,
}

impl StochasticOutcome {
    /// Repackage as a [`crate::TuneOutcome`] over the walk trace.
    pub fn into_outcome(self) -> crate::TuneOutcome {
        crate::TuneOutcome {
            best: self.best,
            samples: self.trace,
            provenance: crate::Provenance::Computed,
        }
    }
}

/// One-factor neighbours of `c` within the feasible space.
fn neighbours(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    c: &LaunchConfig,
) -> Vec<LaunchConfig> {
    let half_warp = device.half_wavefront();
    let mut out = Vec::new();
    let mut push = |tx: usize, ty: usize, rx: usize, ry: usize| {
        if tx >= half_warp && ty >= 1 && rx >= 1 && ry >= 1 {
            let cand = LaunchConfig::new(tx, ty, rx, ry);
            if ParameterSpace::feasible(device, kernel, dims, &cand) {
                out.push(cand);
            }
        }
    };
    push(c.tx + half_warp, c.ty, c.rx, c.ry);
    push(c.tx.saturating_sub(half_warp), c.ty, c.rx, c.ry);
    push(c.tx, c.ty + 1, c.rx, c.ry);
    push(c.tx, c.ty.saturating_sub(1), c.rx, c.ry);
    push(c.tx, c.ty * 2, c.rx, c.ry);
    push(c.tx, c.ty / 2, c.rx, c.ry);
    push(c.tx, c.ty, c.rx * 2, c.ry);
    push(c.tx, c.ty, c.rx / 2, c.ry);
    push(c.tx, c.ty, c.rx, c.ry * 2);
    push(c.tx, c.ty, c.rx, c.ry / 2);
    out
}

/// Run simulated annealing over the feasible space.
///
/// # Panics
/// Panics if the space is empty.
pub fn stochastic_tune(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    space: &ParameterSpace,
    opts: &AnnealOptions,
    seed: u64,
) -> StochasticOutcome {
    stochastic_tune_with(
        EvalContext::global(),
        device,
        kernel,
        dims,
        space,
        opts,
        seed,
    )
}

/// [`stochastic_tune`] against an explicit evaluation context, for
/// callers that manage cache scope themselves.
///
/// # Panics
/// Panics if the space is empty.
#[allow(clippy::too_many_arguments)]
pub fn stochastic_tune_with(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    space: &ParameterSpace,
    opts: &AnnealOptions,
    seed: u64,
) -> StochasticOutcome {
    assert!(
        !space.is_empty(),
        "cannot tune over an empty parameter space"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5717_c0de);
    // The walk's own memo tracks which configurations *this run*
    // executed (the budget accounting) — the shared context may already
    // hold the clean price, but an `executed` unit of budget is charged
    // the first time the walk sees a configuration regardless.
    let mut cache: std::collections::HashMap<LaunchConfig, f64> = std::collections::HashMap::new();
    let mut executed = 0usize;
    let mut measure = |c: &LaunchConfig, executed: &mut usize| -> f64 {
        *cache.entry(*c).or_insert_with(|| {
            *executed += 1;
            ctx.measure(device, kernel, c, dims, seed).mpoints_per_s()
        })
    };

    // Start from the middle of the enumerated space (deterministic).
    let mut current = space.configs()[space.len() / 2];
    let mut current_perf = measure(&current, &mut executed);
    let mut best = TuneSample {
        config: current,
        mpoints: current_perf,
    };
    let mut trace = vec![best];
    let mut stall = 0usize;

    // The cache makes revisits free; bound total iterations so a walk
    // cycling among already-measured configurations still terminates.
    let mut iterations = 0usize;
    while executed < opts.evaluations && iterations < opts.evaluations * 20 {
        iterations += 1;
        let temp =
            opts.initial_temperature * (1.0 - executed as f64 / opts.evaluations as f64).max(0.0);
        let nbrs = neighbours(device, kernel, &dims, &current);
        if nbrs.is_empty() {
            break;
        }
        let cand = nbrs[rng.gen_range(0..nbrs.len())];
        let perf = measure(&cand, &mut executed);
        let accept = perf >= current_perf || {
            let drop = (current_perf - perf) / current_perf.max(1.0);
            rng.gen_bool((-drop / temp.max(1e-6)).exp().clamp(0.0, 1.0))
        };
        if accept {
            current = cand;
            current_perf = perf;
            trace.push(TuneSample {
                config: current,
                mpoints: current_perf,
            });
        }
        if perf > best.mpoints {
            best = TuneSample {
                config: cand,
                mpoints: perf,
            };
            stall = 0;
        } else {
            stall += 1;
            if stall >= opts.stall_limit {
                current = best.config;
                current_perf = best.mpoints;
                stall = 0;
            }
        }
    }
    StochasticOutcome {
        best,
        executed,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive_tune;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn setup() -> (DeviceSpec, KernelSpec, GridDims, ParameterSpace) {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::new(256, 256, 32);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        (dev, k, dims, space)
    }

    #[test]
    fn annealing_is_deterministic() {
        let (dev, k, dims, space) = setup();
        let a = stochastic_tune(&dev, &k, dims, &space, &AnnealOptions::default(), 3);
        let b = stochastic_tune(&dev, &k, dims, &space, &AnnealOptions::default(), 3);
        assert_eq!(a.best, b.best);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn annealing_respects_the_budget() {
        let (dev, k, dims, space) = setup();
        let opts = AnnealOptions {
            evaluations: 25,
            ..AnnealOptions::default()
        };
        let out = stochastic_tune(&dev, &k, dims, &space, &opts, 1);
        assert!(out.executed <= 25);
        assert!(out.best.mpoints > 0.0);
    }

    #[test]
    fn annealing_gets_close_to_exhaustive_with_a_fraction_of_the_work() {
        let (dev, k, dims, space) = setup();
        let ex = exhaustive_tune(&dev, &k, dims, &space, 1);
        let mut best_ratio = 0.0f64;
        for seed in 0..4 {
            let out = stochastic_tune(&dev, &k, dims, &space, &AnnealOptions::default(), seed);
            best_ratio = best_ratio.max(out.best.mpoints / ex.best.mpoints);
        }
        assert!(
            best_ratio > 0.9,
            "annealing reached only {best_ratio:.2} of the exhaustive optimum"
        );
    }

    #[test]
    fn walk_stays_feasible() {
        let (dev, k, dims, space) = setup();
        let out = stochastic_tune(&dev, &k, dims, &space, &AnnealOptions::default(), 7);
        for s in &out.trace {
            assert!(
                ParameterSpace::feasible(&dev, &k, &dims, &s.config),
                "{} infeasible",
                s.config
            );
        }
    }

    #[test]
    fn neighbours_are_one_step_away() {
        let (dev, k, dims, _) = setup();
        let c = LaunchConfig::new(64, 4, 1, 2);
        for n in neighbours(&dev, &k, &dims, &c) {
            let diffs = [n.tx != c.tx, n.ty != c.ty, n.rx != c.rx, n.ry != c.ry]
                .iter()
                .filter(|&&d| d)
                .count();
            assert_eq!(diffs, 1, "{n} differs from {c} in {diffs} factors");
        }
    }
}
