//! Routine selection in front of the `(TX, TY, RX, RY)` search.
//!
//! The tuners of this crate search launch configurations *within* one
//! method; [`select_routine`] decides *which* method that is. It asks
//! every [`Method`] whether it supports the problem, lowers one probe
//! blueprint per survivor, and ranks them by the static traffic
//! oracle's predicted global-memory bytes
//! ([`stencil_lint::predict_traffic_on`]) — oracle-first selection: no
//! candidate is ever executed to be rejected.
//!
//! A caller then tunes `kernel.with_method(choice.blueprint.method)`
//! over the usual space (the bench crate's `tune_best_auto` does so),
//! so a persisted tune key hashes the *selected* method.

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{
    lower_blueprint, Blueprint, KernelSpec, LaunchConfig, Method, ProblemSpec, RoutineDiag,
};
use stencil_grid::Precision;
use stencil_lint::predict_traffic_on;

/// One oracle-ranked candidate method.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineRank {
    /// The candidate.
    pub method: Method,
    /// Predicted global-memory traffic of the probe blueprint, bytes.
    pub global_bytes: u64,
}

/// The selector's verdict: the blueprint to tune and how the field
/// ranked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineChoice {
    /// The winning method's probe blueprint (its `config` is the probe
    /// the ranking used, not a tuned best).
    pub blueprint: Blueprint,
    /// All candidates that support the problem, cheapest first.
    pub ranking: Vec<RoutineRank>,
}

/// Global-memory bytes the oracle predicts for one lowered blueprint:
/// coalesced loads plus write-backs plus interconnect/gather traffic.
/// Byte figures only, so the device's segment size cannot move them.
fn oracle_global_bytes(bp: &Blueprint, precision: Precision, device: &DeviceSpec) -> u64 {
    let plan = lower_blueprint(bp);
    let t = predict_traffic_on(&plan, precision, device);
    t.global_load_cells * t.word_bytes + t.store_bytes + t.halo_bytes + t.gather_bytes
}

/// Decide the method for tuning `kernel` on `device` over `dims`,
/// probing legality and traffic at `probe`: every method that supports
/// the problem is oracle-ranked and the cheapest wins.
///
/// When *no* method supports the problem the error is the first
/// rejection in [`Method::ALL`] order, a coded [`RoutineDiag`].
pub fn select_routine(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    probe: &LaunchConfig,
) -> Result<RoutineChoice, RoutineDiag> {
    let precision = kernel.precision();
    let dims3 = (dims.lx, dims.ly, dims.lz);
    let mut first_rejection: Option<RoutineDiag> = None;
    let mut ranked: Vec<(RoutineRank, Blueprint)> = Vec::new();
    for method in Method::ALL {
        let problem = ProblemSpec {
            radius: kernel.radius,
            elem_bytes: kernel.elem_bytes,
            config: *probe,
            dims: dims3,
            smem_limit: Some(device.smem_per_sm),
        };
        match method.supports(&problem) {
            Err(diag) => {
                first_rejection.get_or_insert(diag);
            }
            Ok(()) => {
                let bp = method.blueprint(probe, kernel.radius, dims3);
                ranked.push((
                    RoutineRank {
                        method,
                        global_bytes: oracle_global_bytes(&bp, precision, device),
                    },
                    bp,
                ));
            }
        }
    }
    // Cheapest predicted traffic wins; ties break on the stable id so
    // the choice is deterministic.
    ranked.sort_by_key(|(r, _)| (r.global_bytes, r.method.id()));
    match ranked.first() {
        Some((_, bp)) => Ok(RoutineChoice {
            blueprint: *bp,
            ranking: ranked.iter().map(|(r, _)| r.clone()).collect(),
        }),
        None => Err(first_rejection.expect("Method::ALL is never empty")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::Variant;

    fn kernel(m: Method, order: usize, p: Precision) -> KernelSpec {
        KernelSpec::star_order(m, order, p)
    }

    #[test]
    fn auto_ranks_every_supporting_routine() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 64);
        let k = kernel(Method::ForwardPlane, 4, Precision::Single);
        let probe = LaunchConfig::new(64, 4, 1, 2);
        let choice = select_routine(&dev, &k, &dims, &probe)
            .expect("a comfortable problem supports every routine");
        assert_eq!(choice.ranking.len(), Method::ALL.len());
        for w in choice.ranking.windows(2) {
            assert!(
                (w[0].global_bytes, w[0].method.id()) <= (w[1].global_bytes, w[1].method.id()),
                "ranking must ascend: {:?}",
                choice.ranking
            );
        }
        assert_eq!(choice.blueprint.method, choice.ranking[0].method);
        assert_eq!(
            choice.blueprint,
            choice
                .blueprint
                .method
                .blueprint(&probe, k.radius, (256, 256, 64))
        );
    }

    #[test]
    fn auto_selection_is_deterministic() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 64);
        let k = kernel(Method::ForwardPlane, 6, Precision::Double);
        let probe = LaunchConfig::new(32, 4, 1, 1);
        let a = select_routine(&dev, &k, &dims, &probe).unwrap();
        let b = select_routine(&dev, &k, &dims, &probe).unwrap();
        assert_eq!(a, b);
        // The caller's method does not enter the ranking.
        let fs = kernel(Method::InPlane(Variant::FullSlice), 6, Precision::Double);
        assert_eq!(select_routine(&dev, &fs, &dims, &probe).unwrap(), a);
    }

    #[test]
    fn auto_with_impossible_grid_returns_the_first_rejection() {
        let dev = DeviceSpec::gtx580();
        // nz = 3 <= 2r = 4: no routine can sweep this grid.
        let dims = GridDims::new(64, 64, 3);
        let k = kernel(Method::ForwardPlane, 4, Precision::Single);
        let err = select_routine(&dev, &k, &dims, &LaunchConfig::new(32, 4, 1, 1)).unwrap_err();
        assert_eq!(err.code, "LNT-R007");
        assert!(err.message.starts_with("nvstencil"), "{}", err.message);
    }

    #[test]
    fn over_capacity_double_buffer_drops_out_of_the_ranking() {
        // r = 6 over a 512×16 tile: only the double-buffered staging
        // pair overflows the GTX 580's shared memory, so it is the one
        // method missing from the field.
        let dev = DeviceSpec::gtx580();
        for precision in [Precision::Single, Precision::Double] {
            let k = kernel(Method::ForwardPlane, 12, precision);
            let choice = select_routine(
                &dev,
                &k,
                &GridDims::new(512, 512, 64),
                &LaunchConfig::new(512, 2, 1, 8),
            )
            .unwrap();
            let ranked: Vec<Method> = choice.ranking.iter().map(|r| r.method).collect();
            assert_eq!(ranked.len(), Method::ALL.len() - 1, "{precision:?}");
            assert!(!ranked.contains(&Method::InPlane(Variant::DoubleBuffered)));
        }
    }
}
