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
    exhaustive_tune_with, select_routine, ParameterSpace, RoutineChoice, TuneSample,
};
use stencil_tunestore::{JsonlDiskStore, TuneRequest, TuneService, TunerSpec};

use crate::opts::TUNE_STORE_ENV;

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

/// The process-wide tuning service, present when the
/// `INPLANE_TUNE_STORE` environment variable names a store path. All
/// default-entry-point tuning ([`tune_best`], the fig/table binaries)
/// routes through it, so a second run of any sweep is served from disk.
pub fn global_service() -> Option<&'static TuneService> {
    static SERVICE: OnceLock<Option<TuneService>> = OnceLock::new();
    SERVICE
        .get_or_init(|| {
            let path = std::env::var(TUNE_STORE_ENV)
                .ok()
                .filter(|p| !p.is_empty())?;
            service_at(&path)
        })
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
/// When `INPLANE_TUNE_STORE` is set the search additionally routes
/// through the persistent [`TuneService`], so a repeated run is served
/// from disk bit-identically without re-searching.
pub fn tune_best(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    register_blocking: bool,
    quick: bool,
    seed: u64,
) -> TuneSample {
    if let Some(svc) = global_service() {
        let space = space_for(device, kernel, &dims, register_blocking, quick);
        return svc
            .resolve(&TuneRequest {
                device: device.clone(),
                kernel: kernel.clone(),
                dims,
                space,
                tuner: TunerSpec::Exhaustive,
                seed,
            })
            .best;
    }
    tune_best_with(
        EvalContext::global(),
        device,
        kernel,
        dims,
        register_blocking,
        quick,
        seed,
    )
}

/// [`tune_best`] against an explicit evaluation context.
pub fn tune_best_with(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    register_blocking: bool,
    quick: bool,
    seed: u64,
) -> TuneSample {
    let space = space_for(device, kernel, &dims, register_blocking, quick);
    exhaustive_tune_with(ctx, device, kernel, dims, &space, seed).best
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
    let best = match global_service() {
        Some(svc) => {
            svc.resolve(&TuneRequest {
                device: device.clone(),
                kernel,
                dims,
                space,
                tuner: TunerSpec::Exhaustive,
                seed,
            })
            .best
        }
        None => {
            exhaustive_tune_with(EvalContext::global(), device, &kernel, dims, &space, seed).best
        }
    };
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
