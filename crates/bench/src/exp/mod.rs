//! Experiment implementations, one module per table/figure.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod litcompare;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod temporal_cmp;

use std::sync::{Arc, OnceLock};

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{EvalContext, KernelSpec, RoutineDiag};
use stencil_autotune::{
    exhaustive_tune_with, model_based_tune_with, select_routine, stochastic_tune_with,
    ParameterSpace, RoutineChoice, TuneOutcome, TuneSample,
};
use stencil_tunestore::{JsonlDiskStore, TuneRequest, TuneService, TunerSpec};

use crate::opts::tune_store_path;

/// The stencil orders of the paper's evaluation.
pub const ORDERS: [usize; 6] = [2, 4, 6, 8, 10, 12];

/// Open a persistent tuning service at `path`, evaluating through the
/// process-wide [`EvalContext::global`]. A store that cannot be opened
/// degrades to `None` (tuning without persistence) with a warning —
/// never an abort.
pub fn service_at(path: &str) -> Option<TuneService> {
    match JsonlDiskStore::open(path) {
        Ok(store) => Some(TuneService::with_global_ctx(Arc::new(store))),
        Err(e) => {
            eprintln!("warning: cannot open tune store {path}: {e}; tuning without persistence");
            None
        }
    }
}

static SERVICE: OnceLock<Option<TuneService>> = OnceLock::new();

/// Mount the process-wide tuning service at `path` (`None`: tune
/// without persistence) and return it; `RunOpts::from_env` mounts the
/// `--store` path. Only the first mount, or the first
/// [`global_service`] call, takes effect.
pub fn mount_service(path: Option<&str>) -> Option<&'static TuneService> {
    SERVICE.get_or_init(|| path.and_then(service_at)).as_ref()
}

/// The process-wide tuning service: the one [`mount_service`] mounted,
/// else one at [`tune_store_path`]`(None)` (the `INPLANE_TUNE_STORE`
/// environment variable), if any. All default-entry-point tuning
/// ([`tune_best`], the fig/table binaries) routes through it, so a
/// second run of any sweep is served from disk.
pub fn global_service() -> Option<&'static TuneService> {
    SERVICE
        .get_or_init(|| tune_store_path(None).as_deref().and_then(service_at))
        .as_ref()
}

/// Build the tuning space for `kernel`, optionally restricted to thread
/// blocking only (`RX = RY = 1`, as in Fig 7) and/or the reduced quick
/// space.
pub fn space_for(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    register_blocking: bool,
    quick: bool,
) -> ParameterSpace {
    let base = if quick {
        ParameterSpace::quick_space(device, kernel, dims)
    } else {
        ParameterSpace::paper_space(device, kernel, dims)
    };
    if register_blocking {
        base
    } else {
        ParameterSpace::from_configs(
            base.configs()
                .iter()
                .copied()
                .filter(|c| !c.has_register_blocking())
                .collect(),
        )
    }
}

/// Tune `kernel` and return the best sample.
///
/// All figure/table experiments funnel through here, sharing the global
/// [`EvalContext`]: one binary that tunes the same kernel for several
/// figures prices each `(device, kernel, config, dims)` point once.
/// When a store is mounted ([`global_service`]) the search additionally
/// routes through the persistent [`TuneService`], so a repeated run is
/// served from disk bit-identically without re-searching.
pub fn tune_best(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    register_blocking: bool,
    quick: bool,
    seed: u64,
) -> TuneSample {
    let space = space_for(device, kernel, &dims, register_blocking, quick);
    tune(device, kernel, dims, &space, TunerSpec::Exhaustive, seed)
        .0
        .best
}

/// Run `tuner` over `space` through [`global_service`] when one is
/// mounted, else directly; also return the configurations the producing
/// search executed (also when the result was served from the store).
pub fn tune(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    space: &ParameterSpace,
    tuner: TunerSpec,
    seed: u64,
) -> (TuneOutcome, usize) {
    if let Some(svc) = global_service() {
        let resp = svc.resolve(&TuneRequest {
            device: device.clone(),
            kernel: kernel.clone(),
            dims,
            space: space.clone(),
            tuner,
            seed,
        });
        let executed = resp.evaluated as usize;
        return (resp.into_outcome(), executed);
    }
    let ctx = EvalContext::global();
    match tuner {
        TunerSpec::Exhaustive => {
            let out = exhaustive_tune_with(ctx, device, kernel, dims, space, seed);
            let executed = out.evaluated();
            (out, executed)
        }
        TunerSpec::ModelBased { beta_percent } => {
            let out = model_based_tune_with(ctx, device, kernel, dims, space, beta_percent, seed);
            let executed = out.executed;
            (out.into_outcome(), executed)
        }
        TunerSpec::Stochastic(opts) => {
            let out = stochastic_tune_with(ctx, device, kernel, dims, space, &opts, seed);
            let executed = out.executed;
            (out.into_outcome(), executed)
        }
    }
}

/// [`tune_best`] with oracle-first routine selection:
/// [`select_routine`] ranks every method that supports the problem by
/// predicted global traffic at the space's first configuration, the
/// winner's kernel respec is tuned, and both the choice (with its full
/// ranking) and the tuned best come back. The persisted key hashes the
/// *selected* method. Errors are the selector's coded rejection — no
/// method can run the problem at the probe configuration.
///
/// # Panics
/// Panics if the space is empty (nothing to probe or tune).
pub fn tune_best_auto(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    register_blocking: bool,
    quick: bool,
    seed: u64,
) -> Result<(RoutineChoice, TuneSample), RoutineDiag> {
    let space = space_for(device, kernel, &dims, register_blocking, quick);
    assert!(
        !space.is_empty(),
        "cannot tune over an empty parameter space"
    );
    let choice = select_routine(device, kernel, &dims, &space.configs()[0])?;
    let kernel = kernel.with_method(choice.blueprint.method);
    let best = tune(device, &kernel, dims, &space, TunerSpec::Exhaustive, seed)
        .0
        .best;
    Ok((choice, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    #[test]
    fn no_rb_space_has_only_unit_register_blocks() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::paper();
        let s = space_for(&dev, &k, &dims, false, true);
        assert!(!s.is_empty());
        assert!(s.configs().iter().all(|c| c.rx == 1 && c.ry == 1));
    }

    #[test]
    fn auto_selection_sweeps_gtx580_laplacian() {
        // The CI `routines` job's end-to-end check: oracle-first `Auto`
        // selection over the order-2 star (the 7-point Laplacian) on
        // the paper's GTX 580 setup, then a full quick-space tune of
        // the winner.
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let k = KernelSpec::star_order(Method::ForwardPlane, 2, Precision::Single);
        let (choice, best) = tune_best_auto(&dev, &k, dims, true, true, 7)
            .expect("every routine fits the paper grid");
        assert!(best.mpoints > 0.0);
        assert_eq!(
            choice.ranking.len(),
            Method::ALL.len(),
            "every method must be oracle-ranked: {:?}",
            choice.ranking
        );
        for w in choice.ranking.windows(2) {
            assert!(w[0].global_bytes <= w[1].global_bytes);
        }
        // Deterministic: same probe, same ranking, same winner.
        let (again, best2) = tune_best_auto(&dev, &k, dims, true, true, 7).unwrap();
        assert_eq!(choice, again);
        assert_eq!(best.config, best2.config);
    }

    #[test]
    fn rb_space_is_strictly_larger() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::paper();
        assert!(
            space_for(&dev, &k, &dims, true, true).len()
                > space_for(&dev, &k, &dims, false, true).len()
        );
    }
}
