//! Model-based auto-tuning (§VI): rank the whole parameter space with
//! the analytic model, *execute* only the top β% of configurations, and
//! return the best actually-measured one.

use crate::exhaustive::{Provenance, TuneSample};
use crate::model::predict_mpoints;
use crate::space::ParameterSpace;
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, LaunchConfig};
use rayon::prelude::*;

/// Result of a model-based tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelBasedOutcome {
    /// Best measured configuration among the executed candidates.
    pub best: TuneSample,
    /// Number of configurations actually executed (`N = β/100 · M`,
    /// plus any injected warm-start seeds).
    pub executed: usize,
    /// Total size of the parameter space (`M`).
    pub space_size: usize,
    /// The executed candidates in model-rank order (warm-start seeds
    /// first, when present) with their (prediction, measurement) pairs.
    pub candidates: Vec<(LaunchConfig, f64, f64)>,
    /// [`Provenance::WarmStarted`] when a stored sibling configuration
    /// was injected into the shortlist, [`Provenance::Computed`]
    /// otherwise.
    pub provenance: Provenance,
}

impl ModelBasedOutcome {
    /// Fraction of the space executed.
    pub fn executed_fraction(&self) -> f64 {
        self.executed as f64 / self.space_size as f64
    }

    /// Repackage as a [`crate::TuneOutcome`] over the executed candidates.
    pub fn into_outcome(self) -> crate::TuneOutcome {
        crate::TuneOutcome {
            best: self.best,
            samples: self
                .candidates
                .into_iter()
                .map(|(config, _, mpoints)| TuneSample { config, mpoints })
                .collect(),
            provenance: self.provenance,
        }
    }
}

/// Run model-based tuning with cutoff `beta_percent` (the paper uses 5).
///
/// # Panics
/// Panics on an empty space or a non-positive β.
pub fn model_based_tune(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    space: &ParameterSpace,
    beta_percent: f64,
    seed: u64,
) -> ModelBasedOutcome {
    model_based_tune_with(
        EvalContext::global(),
        device,
        kernel,
        dims,
        space,
        beta_percent,
        seed,
    )
}

/// [`model_based_tune`] against an explicit evaluation context, for
/// callers that manage cache scope themselves.
///
/// # Panics
/// Panics on an empty space or a non-positive β.
#[allow(clippy::too_many_arguments)]
pub fn model_based_tune_with(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    space: &ParameterSpace,
    beta_percent: f64,
    seed: u64,
) -> ModelBasedOutcome {
    model_based_tune_seeded_with(ctx, device, kernel, dims, space, beta_percent, seed, &[])
}

/// [`model_based_tune_with`] with a warm-start: `warm_seeds` are
/// configurations (typically stored optima of the same kernel on a
/// different device or grid, supplied by the tune-store service) that
/// are injected at the front of the measured shortlist when they are
/// feasible in `space` and not already shortlisted by the model.
///
/// The outcome's provenance is [`Provenance::WarmStarted`] iff at least
/// one seed was injected; seeds the model already ranked into the top
/// β% change nothing and leave the provenance [`Provenance::Computed`].
///
/// # Panics
/// Panics on an empty space or a non-positive β.
#[allow(clippy::too_many_arguments)]
pub fn model_based_tune_seeded_with(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    space: &ParameterSpace,
    beta_percent: f64,
    seed: u64,
    warm_seeds: &[LaunchConfig],
) -> ModelBasedOutcome {
    assert!(
        !space.is_empty(),
        "cannot tune over an empty parameter space"
    );
    assert!(beta_percent > 0.0, "beta must be positive");

    // Rank every configuration by predicted performance (descending).
    let mut ranked: Vec<(LaunchConfig, f64)> = space
        .configs()
        .par_iter()
        .map(|c| (*c, predict_mpoints(device, kernel, c, &dims)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));

    // Select the top N = β/100 · M candidates (at least one).
    let n = ((beta_percent / 100.0) * space.len() as f64).ceil() as usize;
    let n = n.clamp(1, space.len());

    // Seed the shortlist: stored sibling optima ride along in front of
    // the model's own picks (dedup'd, and only if feasible here).
    let mut shortlist: Vec<(LaunchConfig, f64)> = Vec::with_capacity(n + warm_seeds.len());
    let mut injected = false;
    for &c in warm_seeds {
        let in_top = ranked[..n].iter().any(|&(rc, _)| rc == c);
        let in_space = space.configs().contains(&c);
        if !in_top && in_space && !shortlist.iter().any(|&(sc, _)| sc == c) {
            shortlist.push((c, predict_mpoints(device, kernel, &c, &dims)));
            injected = true;
        }
    }
    shortlist.extend_from_slice(&ranked[..n]);

    // Execute them and record actual run-time performance.
    let configs: Vec<LaunchConfig> = shortlist.iter().map(|&(c, _)| c).collect();
    let measured = ctx.measure_batch(device, kernel, &configs, dims, seed);
    let candidates: Vec<(LaunchConfig, f64, f64)> = shortlist
        .iter()
        .zip(&measured)
        .map(|(&(c, pred), report)| (c, pred, report.mpoints_per_s()))
        .collect();

    let best = candidates
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .map(|&(config, _, mpoints)| TuneSample { config, mpoints })
        .expect("at least one candidate");

    ModelBasedOutcome {
        best,
        executed: candidates.len(),
        space_size: space.len(),
        candidates,
        provenance: if injected {
            Provenance::WarmStarted
        } else {
            Provenance::Computed
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive_tune;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn kernel(order: usize) -> KernelSpec {
        KernelSpec::star_order(
            Method::InPlane(Variant::FullSlice),
            order,
            Precision::Single,
        )
    }

    #[test]
    fn executes_only_beta_fraction() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 32);
        let k = kernel(4);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let out = model_based_tune(&dev, &k, dims, &space, 5.0, 1);
        assert_eq!(out.space_size, space.len());
        assert!(out.executed <= (space.len() as f64 * 0.05).ceil() as usize);
        assert!(out.executed_fraction() <= 0.06);
        assert!(out.best.mpoints > 0.0);
    }

    #[test]
    fn model_based_close_to_exhaustive() {
        // The Fig 12 claim: β = 5% typically lands within a few percent
        // of the exhaustive optimum. Allow 10% here (the paper's worst
        // case is ~6%).
        let dims = GridDims::paper();
        for order in [2usize, 8] {
            let dev = DeviceSpec::gtx580();
            let k = kernel(order);
            let space = ParameterSpace::quick_space(&dev, &k, &dims);
            let ex = exhaustive_tune(&dev, &k, dims, &space, 1);
            let mb = model_based_tune(&dev, &k, dims, &space, 5.0, 1);
            let ratio = mb.best.mpoints / ex.best.mpoints;
            assert!(
                ratio > 0.90,
                "order {order}: model-based at {:.3} of exhaustive",
                ratio
            );
            assert!(
                ratio <= 1.0 + 1e-9,
                "model-based cannot beat exhaustive: {ratio}"
            );
        }
    }

    #[test]
    fn beta_100_equals_exhaustive() {
        let dev = DeviceSpec::gtx680();
        let dims = GridDims::new(256, 256, 32);
        let k = kernel(2);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let ex = exhaustive_tune(&dev, &k, dims, &space, 4);
        let mb = model_based_tune(&dev, &k, dims, &space, 100.0, 4);
        assert_eq!(mb.best.config, ex.best.config);
        assert_eq!(mb.executed, space.len());
    }

    #[test]
    fn candidates_are_in_model_rank_order() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 32);
        let k = kernel(4);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let out = model_based_tune(&dev, &k, dims, &space, 10.0, 1);
        for w in out.candidates.windows(2) {
            assert!(w[0].1 >= w[1].1, "predictions must be descending");
        }
    }

    #[test]
    #[should_panic]
    fn zero_beta_panics() {
        let dev = DeviceSpec::gtx580();
        let k = kernel(2);
        let dims = GridDims::new(128, 128, 16);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        model_based_tune(&dev, &k, dims, &space, 0.0, 1);
    }
}
