//! Barrier/happens-before proof over the lowered per-plane schedule.
//!
//! Since the StagePlan refactor the analyzer no longer builds its own
//! abstract schedule: it lowers the kernel with
//! [`inplane_core::lower_step`] — the *same* pure lowering every
//! execution path interprets — and extracts one representative interior
//! block's per-plane op run ([`plan_plane_ops`]). Each plane is an
//! ordered list of [`Op`]s: shared-memory *stages* (region stores into
//! the tile, from global memory or from the register pipeline),
//! *barriers* (`__syncthreads()`), and *reads* (the compute phase's
//! neighbour gathers, the Eqn-(5) centre folds, the z-history advance).
//! The proof obligations (§III):
//!
//! * every read rectangle is covered by staged rectangles (`LNT-S001`
//!   otherwise — a read of memory nothing staged);
//! * the covering stages are separated from the read by a barrier
//!   (`LNT-S002` otherwise — a cross-warp race: another warp's stage is
//!   not visible without a barrier);
//! * the schedule issues exactly the routine skeleton's
//!   `barriers_per_plane` — stage barrier + reuse barrier for the
//!   single-buffer routines, stage barrier only for the double-buffered
//!   routine (`LNT-S003`);
//! * the register-pipeline depth matches the method: `2r + 1` z-values
//!   forward-plane, `r` queued partials + `r` trailing z-values in-plane
//!   (`LNT-S004`) — checked both against the resource model's register
//!   estimate and against the depths the lowered `BeginBlock` declares.
//!
//! The same proof is cross-checked dynamically in the integration tests:
//! replaying a deliberately tampered `StagePlan` through the instrumented
//! plan interpreter must fail `try_read` on exactly the cells the static
//! `LNT-S001` finding counts — static and runtime operate on one IR, so
//! they can never drift.

use crate::diag::Diagnostic;
use crate::rect::{subtract_all, total_area, Rect};
use gpu_sim::plan::PlanePlan;
use inplane_core::layout::TileGeometry;
use inplane_core::plan::{ComputeKind, PipelineFeed};
use inplane_core::resources::{regs_per_thread, vector_width, BASE_REGS};
use inplane_core::{lower_step, KernelSpec, LaunchConfig, PlanOp, StagePlan};

/// One step of the abstract per-plane schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A region of the plane is written into the shared tile.
    Stage(Rect),
    /// `__syncthreads()`: all prior stages become visible to all threads.
    Barrier,
    /// The compute phase reads this region of the shared tile.
    Read(Rect),
}

/// The read footprint of the compute phase: the interior plus the four
/// radius-wide halo arms (corners are never read by a star stencil).
pub fn read_footprint(geom: &TileGeometry) -> Vec<Rect> {
    let (ix_s, ix_e) = geom.interior_x();
    let (iy_s, iy_e) = geom.interior_y();
    footprint_rects(ix_s, ix_e, iy_s, iy_e, geom.r as isize)
}

/// Interior + four corner-free arms of `[ix0, ix1) × [iy0, iy1)`.
fn footprint_rects(ix0: isize, ix1: isize, iy0: isize, iy1: isize, r: isize) -> Vec<Rect> {
    vec![
        Rect {
            x0: ix0,
            x1: ix1,
            y0: iy0,
            y1: iy1,
        },
        Rect {
            x0: ix0 - r,
            x1: ix0,
            y0: iy0,
            y1: iy1,
        },
        Rect {
            x0: ix1,
            x1: ix1 + r,
            y0: iy0,
            y1: iy1,
        },
        Rect {
            x0: ix0,
            x1: ix1,
            y0: iy0 - r,
            y1: iy0,
        },
        Rect {
            x0: ix0,
            x1: ix1,
            y0: iy1,
            y1: iy1 + r,
        },
    ]
}

/// Extract the abstract per-plane schedule of the block whose tile
/// origin is `block` while it stages `plane`, straight from a lowered
/// [`StagePlan`]. Coordinates stay in the plan's own grid frame.
///
/// The mapping from plan ops to proof obligations:
///
/// * [`PlanOp::StageRegion`] → [`Op::Stage`] (register publish or
///   global load — either way the cells become readable);
/// * [`PlanOp::Barrier`] → [`Op::Barrier`];
/// * [`PlanOp::ComputePoint`] with `ForwardFull` / `InplanePartial` →
///   reads of the star footprint (interior + four arms);
/// * [`PlanOp::ComputePoint`] with `FoldCentre` → a read of the staged
///   interior (Eqn-(5) folds touch only the centre values);
/// * [`PlanOp::RotatePipeline`] fed by `StagedCentre` → a read of the
///   staged interior (the in-plane z-history advance).
pub fn plan_plane_ops(plan: &StagePlan, block: (usize, usize), plane: usize) -> Vec<Op> {
    let ri = plan.radius as isize;
    let mut ops = Vec::new();
    let mut in_block = false;
    let mut cur_plane: Option<usize> = None;
    let mut interior = Rect {
        x0: 0,
        x1: 0,
        y0: 0,
        y1: 0,
    };
    let mut footprint: Vec<Rect> = Vec::new();
    for op in &plan.ops {
        match *op {
            PlanOp::BeginBlock { x0, y0, w, h, .. } => {
                in_block = (x0, y0) == block;
                cur_plane = None;
                if in_block {
                    let (ix0, ix1) = (x0 as isize, (x0 + w) as isize);
                    let (iy0, iy1) = (y0 as isize, (y0 + h) as isize);
                    interior = Rect {
                        x0: ix0,
                        x1: ix1,
                        y0: iy0,
                        y1: iy1,
                    };
                    footprint = footprint_rects(ix0, ix1, iy0, iy1, ri);
                }
            }
            _ if !in_block => {}
            PlanOp::StageRegion { rect, plane: p, .. } => {
                cur_plane = Some(p);
                if p == plane {
                    ops.push(Op::Stage(Rect {
                        x0: rect.x0,
                        x1: rect.x1,
                        y0: rect.y0,
                        y1: rect.y1,
                    }));
                }
            }
            _ if cur_plane != Some(plane) => {}
            PlanOp::Barrier => ops.push(Op::Barrier),
            PlanOp::ComputePoint { kind, .. } => match kind {
                ComputeKind::ForwardFull | ComputeKind::InplanePartial => {
                    ops.extend(footprint.iter().copied().map(Op::Read));
                }
                ComputeKind::FoldCentre { .. } => ops.push(Op::Read(interior)),
            },
            PlanOp::RotatePipeline {
                feed: PipelineFeed::StagedCentre,
                ..
            } => ops.push(Op::Read(interior)),
            _ => {}
        }
    }
    ops
}

/// One representative interior block's schedule, extracted from the real
/// lowered IR (see [`lower_plane_schedule`]).
pub struct LoweredSchedule {
    /// The block's per-plane op run at the representative plane.
    pub ops: Vec<Op>,
    /// z-pipeline depth the lowered `BeginBlock` declares.
    pub z_depth: usize,
    /// Out-queue depth the lowered `BeginBlock` declares.
    pub out_depth: usize,
}

/// Lower `kernel` with [`inplane_core::lower_step`] on a synthetic
/// 3×3-tile grid and extract the middle (fully interior) block's
/// schedule at plane `2r` — a plane deep enough that every in-plane
/// obligation is live (the Eqn-(3) partial, all `r` folds, and the
/// write-back of plane `r`).
pub fn lower_plane_schedule(kernel: &KernelSpec, config: &LaunchConfig) -> LoweredSchedule {
    let r = kernel.radius;
    let (tw, th) = (config.tile_x(), config.tile_y());
    let dims = (2 * r + 3 * tw, 2 * r + 3 * th, 4 * r + 2);
    let plan = lower_step(kernel.method, config, r, dims);
    let ops = plan_plane_ops(&plan, (r + tw, r + th), 2 * r);
    let (z_depth, out_depth) = plan
        .ops
        .iter()
        .find_map(|op| match op {
            PlanOp::BeginBlock {
                z_depth, out_depth, ..
            } => Some((*z_depth, *out_depth)),
            _ => None,
        })
        .expect("a lowered plan always opens at least one block");
    LoweredSchedule {
        ops,
        z_depth,
        out_depth,
    }
}

/// Verify the happens-before obligations on an explicit op list.
/// Exposed separately so tests can probe broken schedules.
pub fn verify_ops(ops: &[Op]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // Stages made visible by a barrier vs stages still pending one.
    let mut visible: Vec<Rect> = Vec::new();
    let mut pending: Vec<Rect> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Stage(r) => pending.push(*r),
            Op::Barrier => {
                visible.append(&mut pending);
            }
            Op::Read(r) => {
                let after_visible = subtract_all(vec![*r], &visible);
                if after_visible.is_empty() {
                    continue;
                }
                // Part of the read is not barrier-protected; is it staged
                // at all?
                let unstaged = subtract_all(after_visible.clone(), &pending);
                if !unstaged.is_empty() {
                    let g = unstaged[0];
                    diags.push(
                        Diagnostic::error(
                            "LNT-S001",
                            format!(
                                "read op {i} touches {} cells no stage covers (first gap [{}, {})x[{}, {}))",
                                total_area(&unstaged),
                                g.x0,
                                g.x1,
                                g.y0,
                                g.y1
                            ),
                        )
                        .with("op", i)
                        .with("cells", total_area(&unstaged)),
                    );
                }
                let racy_area = total_area(&after_visible) - total_area(&unstaged);
                if racy_area > 0 {
                    diags.push(
                        Diagnostic::error(
                            "LNT-S002",
                            format!(
                                "read op {i} reaches {racy_area} cells staged after the last barrier (cross-warp race)"
                            ),
                        )
                        .with("op", i)
                        .with("cells", racy_area),
                    );
                }
            }
        }
    }
    diags
}

/// The method's specified register-pipeline depth in words per point:
/// `2r + 1` forward-plane, `2r` (queue + z-history) in-plane.
/// Delegates to [`inplane_core::Method::pipeline_words`] — the one table
/// the lowering, the resource model and this proof all share.
pub fn expected_pipeline_words(kernel: &KernelSpec) -> usize {
    kernel.method.pipeline_words(kernel.radius)
}

/// Full schedule check for `(kernel, config)` against the priced
/// `plan`: happens-before over the *lowered* schedule, barrier count,
/// and pipeline depth.
pub fn check_schedule(
    kernel: &KernelSpec,
    config: &LaunchConfig,
    plan: &PlanePlan,
) -> Vec<Diagnostic> {
    let lowered = lower_plane_schedule(kernel, config);
    let mut diags = verify_ops(&lowered.ops);

    // S003: the lowered schedule must issue exactly the routine's
    // proven barrier count per plane, and the priced plan must declare
    // the same.
    let proven = kernel.method.skeleton(kernel.radius).barriers_per_plane;
    let barriers = lowered
        .ops
        .iter()
        .filter(|o| matches!(o, Op::Barrier))
        .count();
    if barriers != proven || plan.syncthreads != proven as u64 {
        diags.push(
            Diagnostic::error(
                "LNT-S003",
                format!(
                    "lowered schedule has {barriers} barriers, plan declares {} (proven count: {proven})",
                    plan.syncthreads
                ),
            )
            .with("schedule_barriers", barriers)
            .with("plan_syncthreads", plan.syncthreads),
        );
    }

    // S004a: the depths the lowered BeginBlock declares must sum to the
    // method's specified pipeline words (the staged slot doubles as the
    // accumulator, hence the −1).
    let lowered_words = lowered.z_depth + lowered.out_depth - 1;
    if lowered_words != expected_pipeline_words(kernel) {
        diags.push(
            Diagnostic::error(
                "LNT-S004",
                format!(
                    "lowered block declares {lowered_words} pipeline words, the {} method specifies {}",
                    kernel.method.label(),
                    expected_pipeline_words(kernel)
                ),
            )
            .with("derived", lowered_words)
            .with("expected", expected_pipeline_words(kernel)),
        );
    }

    // S004b: re-derive the pipeline register count from the method's
    // specified depth and compare with the resource model's estimate.
    diags.extend(check_pipeline_depth(
        kernel,
        config,
        regs_per_thread(kernel, config),
    ));

    diags
}

/// Prove `claimed_regs` (a per-thread register estimate for `(kernel,
/// config)`) carries exactly the method's specified pipeline depth:
/// `2r + 1` words per point forward-plane, `2r` in-plane, on top of the
/// base/coefficient/vector-staging overheads. `LNT-S004` on mismatch.
pub fn check_pipeline_depth(
    kernel: &KernelSpec,
    config: &LaunchConfig,
    claimed_regs: usize,
) -> Option<Diagnostic> {
    let r = kernel.radius;
    let regs_per_word = kernel.elem_bytes / 4;
    let expected_pipeline =
        expected_pipeline_words(kernel) * config.points_per_thread() * regs_per_word;
    let coeffs = if kernel.coeff_inputs == 0 {
        (r + 1).min(6) * regs_per_word
    } else {
        0
    };
    let vector_tmp = if vector_width(kernel) > 1 {
        2 * regs_per_word
    } else {
        regs_per_word
    };
    let derived_pipeline = claimed_regs.saturating_sub(BASE_REGS + coeffs + vector_tmp);
    if derived_pipeline != expected_pipeline {
        return Some(
            Diagnostic::error(
                "LNT-S004",
                format!(
                    "register estimate carries {derived_pipeline} pipeline registers, the {} method specifies {expected_pipeline} ({} words/point)",
                    kernel.method.label(),
                    expected_pipeline_words(kernel)
                ),
            )
            .with("derived", derived_pipeline)
            .with("expected", expected_pipeline)
            .with("words_per_point", expected_pipeline_words(kernel)),
        );
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use gpu_sim::DeviceSpec;
    use inplane_core::loadplan::build_plane_plan_on;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn geom(c: &LaunchConfig, r: usize) -> TileGeometry {
        TileGeometry::interior(c, r, 4, 512, 128)
    }

    fn spec(method: Method, order: usize) -> KernelSpec {
        KernelSpec::star_order(method, order, Precision::Single)
    }

    const METHODS: [Method; 6] = [
        Method::ForwardPlane,
        Method::InPlane(Variant::Classical),
        Method::InPlane(Variant::Vertical),
        Method::InPlane(Variant::Horizontal),
        Method::InPlane(Variant::FullSlice),
        Method::InPlane(Variant::DoubleBuffered),
    ];

    #[test]
    fn all_methods_prove_clean() {
        for method in METHODS {
            for order in [2usize, 4, 8, 12] {
                let c = LaunchConfig::new(32, 8, 1, 1);
                let g = geom(&c, order / 2);
                let k = spec(method, order);
                let plan = build_plane_plan_on(&k, &c, &g, &DeviceSpec::gtx580());
                let d = check_schedule(&k, &c, &plan);
                assert!(
                    !has_errors(&d),
                    "{method:?} order {order}: {:?}",
                    d.iter().map(|x| x.render()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn missing_barrier_is_s002() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let k = spec(Method::InPlane(Variant::FullSlice), 2);
        let mut ops = lower_plane_schedule(&k, &c).ops;
        // Remove the stage barrier: reads now race with the stores.
        let first_barrier = ops.iter().position(|o| matches!(o, Op::Barrier)).unwrap();
        ops.remove(first_barrier);
        let d = verify_ops(&ops);
        assert!(d.iter().any(|x| x.code == "LNT-S002"), "{d:?}");
        assert!(
            !d.iter().any(|x| x.code == "LNT-S001"),
            "fully staged: {d:?}"
        );
    }

    #[test]
    fn missing_stage_is_s001() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let k = spec(Method::InPlane(Variant::Horizontal), 2);
        let mut ops = lower_plane_schedule(&k, &c).ops;
        // Drop the top-halo stage (the second lowered region).
        let stages: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, Op::Stage(_)))
            .map(|(i, _)| i)
            .collect();
        ops.remove(stages[1]);
        let d = verify_ops(&ops);
        assert!(d.iter().any(|x| x.code == "LNT-S001"), "{d:?}");
    }

    #[test]
    fn wrong_barrier_count_is_s003() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let g = geom(&c, 1);
        let k = spec(Method::InPlane(Variant::FullSlice), 2);
        let mut plan = build_plane_plan_on(&k, &c, &g, &DeviceSpec::gtx580());
        plan.syncthreads = 3;
        let d = check_schedule(&k, &c, &plan);
        assert!(d.iter().any(|x| x.code == "LNT-S003"), "{d:?}");
    }

    #[test]
    fn lowered_schedule_has_the_proven_barrier_count() {
        for method in METHODS {
            let c = LaunchConfig::new(16, 4, 1, 2);
            let k = spec(method, 4);
            let proven = method.skeleton(k.radius).barriers_per_plane;
            let ops = lower_plane_schedule(&k, &c).ops;
            let barriers = ops.iter().filter(|o| matches!(o, Op::Barrier)).count();
            assert_eq!(barriers, proven, "{method:?}");
        }
        // The legacy five prove two; the double-buffered routine one.
        assert_eq!(
            Method::ForwardPlane.skeleton(2).barriers_per_plane,
            StagePlan::BARRIERS_PER_PLANE
        );
        assert_eq!(
            Method::InPlane(Variant::DoubleBuffered)
                .skeleton(2)
                .barriers_per_plane,
            1
        );
    }

    #[test]
    fn lowered_depths_match_the_methods_table() {
        for method in METHODS {
            for order in [2usize, 4, 8] {
                let c = LaunchConfig::new(32, 8, 1, 1);
                let k = spec(method, order);
                let l = lower_plane_schedule(&k, &c);
                assert_eq!(
                    l.z_depth + l.out_depth - 1,
                    expected_pipeline_words(&k),
                    "{method:?} order {order}"
                );
            }
        }
    }

    #[test]
    fn tampered_pipeline_depth_is_s004() {
        let c = LaunchConfig::new(32, 8, 1, 1);
        let k = spec(Method::ForwardPlane, 4);
        let honest = regs_per_thread(&k, &c);
        assert!(check_pipeline_depth(&k, &c, honest).is_none());
        // A register estimate that dropped one pipeline word per point.
        let d = check_pipeline_depth(&k, &c, honest - c.points_per_thread()).unwrap();
        assert_eq!(d.code, "LNT-S004");
        // A forward-plane estimate claimed for an in-plane spec: one word
        // per point too many.
        let mut lying = k.clone();
        lying.method = Method::InPlane(Variant::Classical);
        let d2 = check_pipeline_depth(&lying, &c, honest).unwrap();
        assert_eq!(d2.code, "LNT-S004");
    }

    #[test]
    fn pipeline_depths_match_table() {
        for order in [2usize, 4, 8] {
            let r = order / 2;
            assert_eq!(
                expected_pipeline_words(&spec(Method::ForwardPlane, order)),
                2 * r + 1
            );
            assert_eq!(
                expected_pipeline_words(&spec(Method::InPlane(Variant::FullSlice), order)),
                2 * r
            );
        }
    }

    #[test]
    fn read_footprint_is_slab_minus_corners() {
        let c = LaunchConfig::new(32, 4, 1, 2);
        let g = geom(&c, 2);
        let fp = read_footprint(&g);
        let slab = Rect::from_spans(g.slab_x(), g.slab_y());
        let left = subtract_all(vec![slab], &fp);
        // Exactly the four r×r corners remain.
        assert_eq!(total_area(&left), 4 * 4);
    }
}
