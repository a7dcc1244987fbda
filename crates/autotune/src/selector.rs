//! Routine selection in front of the `(TX, TY, RX, RY)` search.
//!
//! The tuners of this crate search launch configurations *within* one
//! routine; [`RoutineSelector`] decides *which* routine that is:
//!
//! * [`RoutineStrategy::Forced`] pins an exact [`Blueprint`] — the test
//!   escape hatch. The routine's own [`inplane_core::Routine::supports`]
//!   verdict is still consulted, so forcing an illegal problem returns
//!   the coded [`RoutineDiag`] instead of panicking deep in lowering.
//! * [`RoutineStrategy::Auto`] asks every registered routine whether it
//!   supports the problem, lowers one probe blueprint per survivor, and
//!   ranks them by the static traffic oracle's predicted global-memory
//!   bytes ([`stencil_lint::predict_traffic_on`]) — oracle-first selection:
//!   no candidate is ever executed to be rejected.
//!
//! The per-tuner entry points (`exhaustive_tune_selected`,
//! `model_based_tune_selected`, `stochastic_tune_selected`, and the
//! bench crate's `tune_best_auto`) run the selector first and then tune
//! the chosen routine's kernel respec over the usual space.

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{
    registry, routine_by_id, Blueprint, KernelSpec, LaunchConfig, ProblemSpec, RoutineDiag,
};
use stencil_grid::Precision;
use stencil_lint::predict_traffic_on;

/// Which routine a tuning run searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutineStrategy {
    /// Tune exactly this blueprint's routine (test escape hatch).
    Forced(Blueprint),
    /// Oracle-rank every supporting routine; tune the cheapest.
    Auto,
}

/// One oracle-ranked candidate routine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineRank {
    /// Stable [`inplane_core::Routine::id`].
    pub routine_id: u64,
    /// Display label (`"nvstencil"`, `"in-plane/full-slice"`, ...).
    pub label: String,
    /// Predicted global-memory traffic of the probe blueprint, bytes.
    pub global_bytes: u64,
}

/// The selector's verdict: the blueprint to tune and how the field
/// ranked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutineChoice {
    /// The winning routine's probe blueprint (its `config` is the probe
    /// the ranking used, not a tuned best).
    pub blueprint: Blueprint,
    /// All candidates that support the problem, cheapest first. Forced
    /// mode ranks the forced routine alone.
    pub ranking: Vec<RoutineRank>,
}

/// Chooses the routine a tuner searches; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutineSelector {
    strategy: RoutineStrategy,
}

/// Global-memory bytes the oracle predicts for one lowered blueprint:
/// coalesced loads plus write-backs plus interconnect/gather traffic.
/// Byte figures only, so the device's segment size cannot move them.
fn oracle_global_bytes(bp: &Blueprint, precision: Precision, device: &DeviceSpec) -> u64 {
    let routine = routine_by_id(bp.routine_id).expect("blueprint names a registered routine");
    let plan = routine.lower(bp);
    let t = predict_traffic_on(&plan, precision, device);
    t.global_load_cells * t.word_bytes + t.store_bytes + t.halo_bytes + t.gather_bytes
}

impl RoutineSelector {
    /// Oracle-first automatic selection.
    pub fn auto() -> Self {
        RoutineSelector {
            strategy: RoutineStrategy::Auto,
        }
    }

    /// Pin the search to `blueprint`'s routine.
    pub fn forced(blueprint: Blueprint) -> Self {
        RoutineSelector {
            strategy: RoutineStrategy::Forced(blueprint),
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> RoutineStrategy {
        self.strategy
    }

    /// Decide the routine for tuning `kernel` on `device` over `dims`,
    /// probing legality and traffic at `probe`.
    ///
    /// Errors carry the routine's coded [`RoutineDiag`]: the forced
    /// routine's rejection in `Forced` mode, or (when *no* routine
    /// supports the problem) the first registry rejection in `Auto`
    /// mode.
    pub fn select(
        &self,
        device: &DeviceSpec,
        kernel: &KernelSpec,
        dims: &GridDims,
        probe: &LaunchConfig,
    ) -> Result<RoutineChoice, RoutineDiag> {
        let precision = kernel.precision();
        match self.strategy {
            RoutineStrategy::Forced(bp) => {
                let routine = routine_by_id(bp.routine_id)
                    .expect("forced blueprint names a registered routine");
                let problem = ProblemSpec {
                    radius: bp.radius,
                    elem_bytes: kernel.elem_bytes,
                    config: bp.config,
                    dims: bp.dims,
                    smem_limit: Some(device.smem_per_sm),
                };
                routine.supports(&problem)?;
                let ranking = vec![RoutineRank {
                    routine_id: routine.id(),
                    label: routine.label(),
                    global_bytes: oracle_global_bytes(&bp, precision, device),
                }];
                Ok(RoutineChoice {
                    blueprint: bp,
                    ranking,
                })
            }
            RoutineStrategy::Auto => {
                let dims3 = (dims.lx, dims.ly, dims.lz);
                let mut first_rejection: Option<RoutineDiag> = None;
                let mut ranked: Vec<(RoutineRank, Blueprint)> = Vec::new();
                for routine in registry() {
                    let problem = ProblemSpec {
                        radius: kernel.radius,
                        elem_bytes: kernel.elem_bytes,
                        config: *probe,
                        dims: dims3,
                        smem_limit: Some(device.smem_per_sm),
                    };
                    match routine.supports(&problem) {
                        Err(diag) => {
                            first_rejection.get_or_insert(diag);
                        }
                        Ok(()) => {
                            let bp = routine.blueprint(probe, kernel.radius, dims3);
                            ranked.push((
                                RoutineRank {
                                    routine_id: routine.id(),
                                    label: routine.label(),
                                    global_bytes: oracle_global_bytes(&bp, precision, device),
                                },
                                bp,
                            ));
                        }
                    }
                }
                // Cheapest predicted traffic wins; ties break on the
                // stable id so the choice is deterministic.
                ranked.sort_by_key(|(r, _)| (r.global_bytes, r.routine_id));
                match ranked.first() {
                    Some((_, bp)) => Ok(RoutineChoice {
                        blueprint: *bp,
                        ranking: ranked.iter().map(|(r, _)| r.clone()).collect(),
                    }),
                    None => Err(first_rejection.expect("registry is never empty")),
                }
            }
        }
    }

    /// [`Self::select`], additionally re-specifying `kernel` onto the
    /// chosen routine's method (flops overhead re-derived) — what the
    /// `*_tune_selected` entry points feed their inner search.
    pub fn select_kernel(
        &self,
        device: &DeviceSpec,
        kernel: &KernelSpec,
        dims: &GridDims,
        probe: &LaunchConfig,
    ) -> Result<(RoutineChoice, KernelSpec), RoutineDiag> {
        let choice = self.select(device, kernel, dims, probe)?;
        let kernel = kernel.with_method(choice.blueprint.method);
        Ok((choice, kernel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};

    fn kernel(m: Method, order: usize, p: Precision) -> KernelSpec {
        KernelSpec::star_order(m, order, p)
    }

    #[test]
    fn auto_ranks_every_supporting_routine() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 64);
        let k = kernel(Method::ForwardPlane, 4, Precision::Single);
        let probe = LaunchConfig::new(64, 4, 1, 2);
        let choice = RoutineSelector::auto()
            .select(&dev, &k, &dims, &probe)
            .expect("a comfortable problem supports every routine");
        assert_eq!(choice.ranking.len(), registry().len());
        for w in choice.ranking.windows(2) {
            assert!(
                (w[0].global_bytes, w[0].routine_id) <= (w[1].global_bytes, w[1].routine_id),
                "ranking must ascend: {:?}",
                choice.ranking
            );
        }
        assert_eq!(choice.blueprint.routine_id, choice.ranking[0].routine_id);
    }

    #[test]
    fn auto_selection_is_deterministic() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 64);
        let k = kernel(Method::ForwardPlane, 6, Precision::Double);
        let probe = LaunchConfig::new(32, 4, 1, 1);
        let sel = RoutineSelector::auto();
        let a = sel.select(&dev, &k, &dims, &probe).unwrap();
        let b = sel.select(&dev, &k, &dims, &probe).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn auto_with_impossible_grid_returns_the_first_rejection() {
        let dev = DeviceSpec::gtx580();
        // nz = 3 <= 2r = 4: no routine can sweep this grid.
        let dims = GridDims::new(64, 64, 3);
        let k = kernel(Method::ForwardPlane, 4, Precision::Single);
        let err = RoutineSelector::auto()
            .select(&dev, &k, &dims, &LaunchConfig::new(32, 4, 1, 1))
            .unwrap_err();
        assert_eq!(err.code, "LNT-R007");
    }

    #[test]
    fn forced_rejection_is_the_coded_diagnostic_for_every_routine_and_precision() {
        // Satellite: forcing a blueprint the routine's `supports`
        // rejects must surface the coded diagnostic — never panic.
        let dev = DeviceSpec::gtx580();
        for precision in [Precision::Single, Precision::Double] {
            for routine in registry() {
                let k = kernel(routine.method(), 4, precision);
                // r = 2, so a 3-plane grid is too shallow for any sweep.
                let bp = routine.blueprint(&LaunchConfig::new(32, 4, 1, 1), 2, (64, 64, 3));
                let err = RoutineSelector::forced(bp)
                    .select(&dev, &k, &GridDims::new(64, 64, 3), &bp.config)
                    .expect_err("supports must reject the shallow grid");
                assert_eq!(err.code, "LNT-R007", "{}", routine.label());
                assert!(!err.message.is_empty());
            }
        }
    }

    #[test]
    fn forced_double_buffer_over_capacity_is_r008_both_precisions() {
        let dev = DeviceSpec::gtx580();
        let routine = inplane_core::routine_by_label("in-plane/double-buffered")
            .expect("db routine is registered");
        for precision in [Precision::Single, Precision::Double] {
            let k = kernel(routine.method(), 12, precision);
            let config = LaunchConfig::new(512, 2, 1, 8);
            let bp = routine.blueprint(&config, k.radius, (512, 512, 64));
            let err = RoutineSelector::forced(bp)
                .select(&dev, &k, &GridDims::new(512, 512, 64), &config)
                .expect_err("the staging pair cannot fit");
            assert_eq!(err.code, "LNT-R008", "{precision:?}");
        }
    }

    #[test]
    fn forced_legal_blueprint_is_honoured_verbatim() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 64);
        for routine in registry() {
            let k = kernel(routine.method(), 4, Precision::Single);
            let config = LaunchConfig::new(64, 4, 1, 2);
            let bp = routine.blueprint(&config, k.radius, (dims.lx, dims.ly, dims.lz));
            let choice = RoutineSelector::forced(bp)
                .select(&dev, &k, &dims, &config)
                .expect("legal blueprint");
            assert_eq!(choice.blueprint, bp);
            assert_eq!(choice.ranking.len(), 1);
            assert_eq!(choice.ranking[0].routine_id, routine.id());
        }
    }

    #[test]
    fn select_kernel_respecs_the_method() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::new(256, 256, 64);
        let k = kernel(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let (choice, tuned) = RoutineSelector::auto()
            .select_kernel(&dev, &k, &dims, &LaunchConfig::new(64, 4, 1, 2))
            .unwrap();
        assert_eq!(tuned.method, choice.blueprint.method);
        // Round-trip respec restores the original flops accounting.
        assert_eq!(
            tuned.with_method(k.method),
            k.with_method(choice.blueprint.method).with_method(k.method)
        );
    }
}
