//! Functional overlapped temporal tiling, as a **plan transform**.
//!
//! The grid is covered by xy-tiles. For a temporal depth `T`, each tile
//! is widened by a halo of `r·T` on every side, copied into a private
//! working grid, advanced `T` Jacobi steps locally (the halo shell
//! shrinks by `r` per step, so after `T` steps the tile interior is
//! exact), and the interior is written back. Tiles are independent —
//! the GPU formulation runs them as thread blocks, and the redundant
//! shell recomputation is the price paid for touching global memory
//! once per `T` steps.
//!
//! [`temporal_stage_plan`] expresses that schedule in the
//! [`StagePlan`] IR: per tile it allocates two working buffers, scatters
//! the halo-expanded window in with a [`PlanOp::CopyBox`], splices in
//! `T` retargeted copies of the forward-plane step lowering (each
//! followed by a boundary ring copy and a buffer swap), and gathers the
//! exact interior back out. [`execute_temporal`] just interprets that
//! plan — the same instrumented interpreter every other path runs on.

use inplane_core::plan::{PlanOp, StagePlan, INPUT_BUF, OUTPUT_BUF};
use inplane_core::{interpret_plan, lower_step, ExecStats, LaunchConfig, Method};
use stencil_grid::{Boundary, Grid3, Real, StarStencil};

/// Statistics from a temporal-tiling pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TemporalStats {
    /// Tiles processed.
    pub tiles: usize,
    /// Points computed including redundant shell work.
    pub points_computed: u64,
    /// Useful (written-back) points.
    pub points_written: u64,
    /// Full interpreter counters for the transformed plan (staging
    /// traffic, barriers, pipeline rotations, gather volume, ...).
    pub exec: ExecStats,
}

impl TemporalStats {
    /// Redundant-work factor: computed / written (≥ 1). Defined (1.0)
    /// for degenerate runs that wrote nothing, so a 1-tile/1-step
    /// configuration can never divide by zero.
    pub fn redundancy(&self) -> f64 {
        if self.points_written == 0 {
            1.0
        } else {
            self.points_computed as f64 / self.points_written as f64
        }
    }
}

/// Lower a whole temporal-tiling pass over `dims` to a [`StagePlan`]:
/// the per-tile scatter / `T`-step local iteration / gather schedule
/// described in the module docs. Pure function of the arguments.
///
/// # Panics
/// Panics if `t_steps == 0` or the grid is too small for `r`.
pub fn temporal_stage_plan(
    r: usize,
    dims: (usize, usize, usize),
    tile_x: usize,
    tile_y: usize,
    t_steps: usize,
) -> StagePlan {
    assert!(t_steps >= 1, "temporal depth must be at least 1");
    let (nx, ny, nz) = dims;
    assert!(
        nx > 2 * r && ny > 2 * r && nz > 2 * r,
        "grid too small for radius {r}"
    );
    let halo = r * t_steps;

    // The boundary ring is invariant under the global iteration; copy it
    // up front so tiles only need to produce the interior.
    let mut ops = vec![PlanOp::ApplyBoundary {
        input: INPUT_BUF,
        output: OUTPUT_BUF,
        boundary: Boundary::CopyInput,
    }];
    let mut next_buf = 2;

    let mut y0 = r;
    while y0 < ny - r {
        let th = tile_y.min(ny - r - y0);
        let mut x0 = r;
        while x0 < nx - r {
            let tw = tile_x.min(nx - r - x0);

            // Halo-expanded window, clipped to the allocation.
            let wx0 = x0.saturating_sub(halo);
            let wy0 = y0.saturating_sub(halo);
            let wx1 = (x0 + tw + halo).min(nx);
            let wy1 = (y0 + th + halo).min(ny);
            let (ww, wh) = (wx1 - wx0, wy1 - wy0);

            // Two private working buffers covering the window over all z.
            let (a, b) = (next_buf, next_buf + 1);
            next_buf += 2;
            ops.push(PlanOp::Alloc {
                buf: a,
                dims: (ww, wh, nz),
            });
            ops.push(PlanOp::Alloc {
                buf: b,
                dims: (ww, wh, nz),
            });
            ops.push(PlanOp::CopyBox {
                src: INPUT_BUF,
                dst: a,
                src_org: (wx0, wy0, 0),
                dst_org: (0, 0, 0),
                extent: (ww, wh, nz),
            });

            // Advance T steps locally: each step is the ordinary
            // forward-plane lowering of the window, retargeted at the
            // working buffers. The window's outer shell becomes stale by
            // r per step, but points within distance (T - s)·r of the
            // tile stay exact at step s — in particular the tile
            // interior after T steps. Where the window edge coincides
            // with the true grid boundary the ring is genuinely
            // Dirichlet, matching the global semantics. The window
            // holds the tile plus at least r on each side (halo ≥ r and
            // the tile sits ≥ r inside the grid), so ww, wh > 2r.
            let cfg = LaunchConfig::new(ww - 2 * r, wh - 2 * r, 1, 1);
            for _ in 0..t_steps {
                let mut step = lower_step(Method::ForwardPlane, &cfg, r, (ww, wh, nz));
                step.retarget_buffers(|id| match id {
                    INPUT_BUF => a,
                    OUTPUT_BUF => b,
                    other => other,
                });
                ops.extend(step.ops);
                ops.push(PlanOp::ApplyBoundary {
                    input: a,
                    output: b,
                    boundary: Boundary::CopyInput,
                });
                ops.push(PlanOp::SwapBufs { a, b });
            }

            // Gather the exact interior tile.
            ops.push(PlanOp::CopyBox {
                src: a,
                dst: OUTPUT_BUF,
                src_org: (x0 - wx0, y0 - wy0, r),
                dst_org: (x0, y0, r),
                extent: (tw, th, nz - 2 * r),
            });

            x0 += tile_x;
        }
        y0 += tile_y;
    }

    StagePlan {
        method: inplane_core::Method::ForwardPlane,
        radius: r,
        dims,
        ops,
    }
}

/// Advance `input` by `t_steps` Jacobi steps of `stencil` using
/// overlapped temporal tiles of interior size `tile_x × tile_y`, writing
/// the result to `out`. Boundary ring (width `r`) follows the global
/// Jacobi semantics: held at the input values throughout.
///
/// ```
/// use stencil_grid::{FillPattern, Grid3, StarStencil};
/// use stencil_temporal::execute_temporal;
///
/// let s: StarStencil<f64> = StarStencil::diffusion(1);
/// let input: Grid3<f64> = FillPattern::HashNoise.build(16, 16, 8);
/// let mut out = Grid3::new(16, 16, 8);
/// let stats = execute_temporal(&s, &input, &mut out, 4, 4, 3);
/// // Three steps per pass; redundant shell work is the price.
/// assert!(stats.redundancy() > 1.0);
/// ```
///
/// # Panics
/// Panics if the grid is too small for the stencil radius or
/// `t_steps == 0`.
pub fn execute_temporal<T: Real>(
    stencil: &StarStencil<T>,
    input: &Grid3<T>,
    out: &mut Grid3<T>,
    tile_x: usize,
    tile_y: usize,
    t_steps: usize,
) -> TemporalStats {
    assert_eq!(input.dims(), out.dims());
    let plan = temporal_stage_plan(stencil.radius(), input.dims(), tile_x, tile_y, t_steps);
    let tiles = plan
        .ops
        .iter()
        .filter(|op| matches!(op, PlanOp::Alloc { .. }))
        .count()
        / 2;
    let exec = interpret_plan(&plan, stencil, input, out);
    TemporalStats {
        tiles,
        points_computed: exec.points_computed,
        points_written: exec.cells_copied_out,
        exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_grid::{apply_reference, iterate_stencil_loop, max_abs_diff, FillPattern};

    fn golden<T: Real>(stencil: &StarStencil<T>, input: &Grid3<T>, steps: usize) -> Grid3<T> {
        let (g, _) = iterate_stencil_loop(input.clone(), stencil.radius(), steps, |i, o| {
            apply_reference(stencil, i, o, Boundary::CopyInput)
        });
        g
    }

    #[test]
    fn one_step_equals_plain_reference() {
        let s: StarStencil<f64> = StarStencil::diffusion(1);
        let input: Grid3<f64> = FillPattern::Random {
            lo: -1.0,
            hi: 1.0,
            seed: 1,
        }
        .build(14, 14, 10);
        let mut out = Grid3::new(14, 14, 10);
        execute_temporal(&s, &input, &mut out, 4, 4, 1);
        let expect = golden(&s, &input, 1);
        assert_eq!(max_abs_diff(&out, &expect), 0.0);
    }

    #[test]
    fn deep_temporal_blocks_match_global_iteration() {
        for (radius, t_steps) in [(1usize, 2usize), (1, 4), (2, 3)] {
            let s: StarStencil<f64> = StarStencil::diffusion(radius);
            let n = 4 * radius * t_steps + 7;
            let input: Grid3<f64> = FillPattern::Random {
                lo: -1.0,
                hi: 1.0,
                seed: 7,
            }
            .build(n, n, 2 * radius + 4);
            let mut out = Grid3::new(n, n, 2 * radius + 4);
            execute_temporal(&s, &input, &mut out, 5, 3, t_steps);
            let expect = golden(&s, &input, t_steps);
            assert!(
                max_abs_diff(&out, &expect) < 1e-12,
                "r={radius} T={t_steps}: mismatch"
            );
        }
    }

    #[test]
    fn tile_size_does_not_change_the_answer() {
        let s: StarStencil<f64> = StarStencil::diffusion(1);
        let input: Grid3<f64> = FillPattern::Random {
            lo: 0.0,
            hi: 1.0,
            seed: 3,
        }
        .build(18, 18, 8);
        let mut a = Grid3::new(18, 18, 8);
        let mut b = Grid3::new(18, 18, 8);
        execute_temporal(&s, &input, &mut a, 3, 7, 3);
        execute_temporal(&s, &input, &mut b, 16, 2, 3);
        assert_eq!(max_abs_diff(&a, &b), 0.0);
    }

    #[test]
    fn redundancy_grows_with_temporal_depth_and_shrinks_with_tile() {
        let s: StarStencil<f64> = StarStencil::diffusion(1);
        let input: Grid3<f64> = FillPattern::HashNoise.build(34, 34, 8);
        let run = |tile: usize, t: usize| {
            let mut out = Grid3::new(34, 34, 8);
            execute_temporal(&s, &input, &mut out, tile, tile, t).redundancy()
        };
        assert!(
            run(8, 4) > run(8, 2),
            "deeper T must cost more redundant work"
        );
        assert!(run(16, 4) < run(8, 4), "bigger tiles amortise the shell");
        assert!(run(8, 1) >= 1.0);
    }

    #[test]
    fn boundary_ring_is_held_fixed() {
        let s: StarStencil<f64> = StarStencil::diffusion(2);
        let input: Grid3<f64> = FillPattern::Random {
            lo: -1.0,
            hi: 1.0,
            seed: 5,
        }
        .build(13, 13, 9);
        let mut out = Grid3::new(13, 13, 9);
        execute_temporal(&s, &input, &mut out, 4, 4, 3);
        for ((i, j, k), v) in out.iter_logical() {
            let dims = (13, 13, 9);
            if stencil_grid::boundary::in_boundary_ring(dims, 2, i, j, k) {
                assert_eq!(v, input.get(i, j, k), "ring moved at ({i},{j},{k})");
            }
        }
    }

    #[test]
    fn exec_stats_agree_with_the_legacy_counters() {
        let s: StarStencil<f64> = StarStencil::diffusion(1);
        let input: Grid3<f64> = FillPattern::HashNoise.build(16, 16, 8);
        let mut out = Grid3::new(16, 16, 8);
        let stats = execute_temporal(&s, &input, &mut out, 4, 4, 2);
        // One working window per tile: 14×14 interior over 4×4 tiles.
        assert_eq!(stats.tiles, 4 * 4);
        assert_eq!(stats.points_computed, stats.exec.points_computed);
        assert_eq!(stats.points_written, stats.exec.cells_copied_out);
        // Every tile gathers its exact interior: the useful points are
        // the global interior, written exactly once.
        assert_eq!(stats.points_written, 14 * 14 * 6);
        assert!(stats.exec.barriers > 0);
        assert!(stats.exec.cells_staged > 0);
        assert!(stats.exec.redundancy() > 1.0);
    }

    #[test]
    fn degenerate_single_tile_single_step_redundancy_is_defined() {
        // Regression: a tile covering the whole interior at T = 1 does
        // no redundant work — the ratio must be exactly 1, not NaN/inf.
        let s: StarStencil<f64> = StarStencil::diffusion(1);
        let input: Grid3<f64> = FillPattern::HashNoise.build(10, 10, 6);
        let mut out = Grid3::new(10, 10, 6);
        let stats = execute_temporal(&s, &input, &mut out, 64, 64, 1);
        assert_eq!(stats.tiles, 1);
        assert!(stats.redundancy().is_finite());
        assert_eq!(stats.redundancy(), 1.0);
        // And the all-zero default (nothing ran at all) is defined too.
        assert_eq!(TemporalStats::default().redundancy(), 1.0);
        assert_eq!(ExecStats::default().redundancy(), 1.0);
    }

    #[test]
    #[should_panic(expected = "temporal depth")]
    fn zero_steps_rejected() {
        let s: StarStencil<f32> = StarStencil::diffusion(1);
        let input: Grid3<f32> = Grid3::new(8, 8, 8);
        let mut out = Grid3::new(8, 8, 8);
        execute_temporal(&s, &input, &mut out, 4, 4, 0);
    }
}
