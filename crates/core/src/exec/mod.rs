//! Functional (numerical) emulation of the GPU kernels.
//!
//! The paper verifies every CUDA kernel "to be consistent with the result
//! from the CPU-computed stencil output"; this module is the other side
//! of that check. Each method is emulated at block level with the same
//! structure the CUDA kernels have:
//!
//! * an explicit [`SharedBuffer`] standing in for the shared-memory
//!   staging tile — every xy-neighbour read *must* come from it (reading
//!   an un-staged cell panics, catching any kernel that silently reads
//!   global memory where the real kernel could not);
//! * per-thread register pipelines: the forward-plane method's `2r + 1`
//!   z-values, and the in-plane method's `r` queued partial outputs plus
//!   `r` trailing z-values (the 6-step procedure of §III-C);
//! * the identical floating-point summation order as the matching CPU
//!   reference, so verification is bit-exact per precision.

mod buffer;
mod interp;

pub use buffer::{SharedBuffer, StageError};
pub use interp::{interpret_plan, interpret_plan_checked};

use crate::config::LaunchConfig;
use crate::method::Method;
use stencil_grid::{Boundary, Grid3, Real, StarStencil};

/// Counters from a functional execution, filled in by the plan
/// interpreter as it runs the lowered [`crate::plan::StagePlan`]. The
/// structural counters double as sanity checks; the traffic counters
/// feed the temporal/multi-GPU cost accounting and surface in the
/// auto-tuner's `TuneReport`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Thread blocks emulated.
    pub blocks: usize,
    /// Planes staged into the shared buffer across all blocks.
    pub planes_staged: usize,
    /// Cells staged into shared buffers (global→shared loads).
    pub cells_staged: u64,
    /// Values written back to the output grid.
    pub global_writes: u64,
    /// `__syncthreads()` barriers executed across all blocks.
    pub barriers: u64,
    /// Register-pipeline rotations (z-pipeline shifts and out-queue
    /// rotations) across all blocks.
    pub pipeline_rotations: u64,
    /// Staged cells split by staging zone, indexed by
    /// [`crate::plan::Zone::index`]: interior, top, bottom, left,
    /// right, corner.
    pub staged_cells_by_zone: [u64; 6],
    /// Full stencil-point evaluations (forward evaluations plus
    /// in-plane Eqn-(3) partials; Eqn-(5) folds are not separate
    /// points).
    pub points_computed: u64,
    /// Whole xy-planes moved between device shards.
    pub halo_planes_exchanged: u64,
    /// Cells moved between device shards.
    pub halo_cells_exchanged: u64,
    /// Cells gathered from working buffers into the caller's output
    /// (non-zero only for transformed plans: temporal tiles, shards).
    pub cells_copied_out: u64,
}

impl ExecStats {
    /// Accumulate another run's counters into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.blocks += other.blocks;
        self.planes_staged += other.planes_staged;
        self.cells_staged += other.cells_staged;
        self.global_writes += other.global_writes;
        self.barriers += other.barriers;
        self.pipeline_rotations += other.pipeline_rotations;
        for (z, o) in self
            .staged_cells_by_zone
            .iter_mut()
            .zip(other.staged_cells_by_zone)
        {
            *z += o;
        }
        self.points_computed += other.points_computed;
        self.halo_planes_exchanged += other.halo_planes_exchanged;
        self.halo_cells_exchanged += other.halo_cells_exchanged;
        self.cells_copied_out += other.cells_copied_out;
    }

    /// Output cells that actually reached the caller's grid: the
    /// gathered cells for transformed plans, otherwise the direct
    /// global writes.
    pub fn useful_writes(&self) -> u64 {
        if self.cells_copied_out > 0 {
            self.cells_copied_out
        } else {
            self.global_writes
        }
    }

    /// Stencil evaluations per useful output cell — 1.0 for a plain
    /// step, above 1.0 when a transform recomputes halo points.
    /// Defined (1.0) for runs that produced no output at all, so
    /// degenerate configurations never divide by zero.
    pub fn redundancy(&self) -> f64 {
        let useful = self.useful_writes();
        if useful == 0 || self.points_computed == 0 {
            return 1.0;
        }
        self.points_computed as f64 / useful as f64
    }
}

/// Execute one Jacobi step of `stencil` over `input` with the given
/// method and launch configuration, emulating the GPU block
/// decomposition. Boundary ring (width `r`) follows `boundary`.
///
/// ```
/// use inplane_core::{execute_step, LaunchConfig, Method, Variant};
/// use stencil_grid::{apply_reference_inplane_order, max_abs_diff, Boundary, FillPattern, Grid3, StarStencil};
///
/// let stencil = StarStencil::<f32>::from_order(2);
/// let input: Grid3<f32> = FillPattern::HashNoise.build(12, 12, 12);
/// let mut emulated = Grid3::new(12, 12, 12);
/// execute_step(
///     Method::InPlane(Variant::FullSlice),
///     &stencil,
///     &LaunchConfig::new(4, 4, 1, 1),
///     &input,
///     &mut emulated,
///     Boundary::CopyInput,
/// );
/// // Bit-exact against the CPU golden model — the paper's verification.
/// let mut golden = Grid3::new(12, 12, 12);
/// apply_reference_inplane_order(&stencil, &input, &mut golden, Boundary::CopyInput);
/// assert_eq!(max_abs_diff(&emulated, &golden), 0.0);
/// ```
pub fn execute_step<T: Real>(
    method: Method,
    stencil: &StarStencil<T>,
    config: &LaunchConfig,
    input: &Grid3<T>,
    out: &mut Grid3<T>,
    boundary: Boundary,
) -> ExecStats {
    assert_eq!(input.dims(), out.dims(), "grids must have matching dims");
    let r = stencil.radius();
    let (nx, ny, nz) = input.dims();
    assert!(
        nx > 2 * r && ny > 2 * r && nz > 2 * r,
        "grid {nx}x{ny}x{nz} too small for radius {r}"
    );
    // Method-agnostic: lower the method's blueprint, run the single
    // interpreter.
    let plan = crate::plan::lower_step(method, config, r, input.dims());
    let stats = interpret_plan(&plan, stencil, input, out);
    boundary.apply(input, out, r);
    stats
}

/// Iterate over the tile rectangles covering the interior
/// `[r, nx-r) × [r, ny-r)`, clipped at the far edges.
pub(crate) fn tiles(
    nx: usize,
    ny: usize,
    r: usize,
    config: &LaunchConfig,
) -> Vec<(usize, usize, usize, usize)> {
    let (wx, wy) = (config.tile_x(), config.tile_y());
    let (ix_end, iy_end) = (nx - r, ny - r);
    let mut out = Vec::new();
    let mut y0 = r;
    while y0 < iy_end {
        let h = wy.min(iy_end - y0);
        let mut x0 = r;
        while x0 < ix_end {
            let w = wx.min(ix_end - x0);
            out.push((x0, y0, w, h));
            x0 += wx;
        }
        y0 += wy;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Variant;
    use crate::plan::Zone;
    use stencil_grid::{apply_reference, apply_reference_inplane_order, max_abs_diff, FillPattern};

    fn random_grid<T: Real>(n: usize, seed: u64) -> Grid3<T> {
        FillPattern::Random {
            lo: -1.0,
            hi: 1.0,
            seed,
        }
        .build(n, n, n)
    }

    #[test]
    fn tiles_cover_interior_exactly_once() {
        for (nx, ny, r, cfg) in [
            (20usize, 20usize, 2usize, LaunchConfig::new(4, 4, 1, 1)),
            (19, 23, 1, LaunchConfig::new(8, 2, 1, 3)),
            (9, 9, 3, LaunchConfig::new(16, 16, 1, 1)),
        ] {
            let mut seen = vec![false; nx * ny];
            for (x0, y0, w, h) in tiles(nx, ny, r, &cfg) {
                for y in y0..y0 + h {
                    for x in x0..x0 + w {
                        assert!(!seen[y * nx + x], "({x},{y}) covered twice");
                        seen[y * nx + x] = true;
                    }
                }
            }
            for y in 0..ny {
                for x in 0..nx {
                    let interior = x >= r && x < nx - r && y >= r && y < ny - r;
                    assert_eq!(seen[y * nx + x], interior, "({x},{y})");
                }
            }
        }
    }

    #[test]
    fn forward_plane_is_bit_exact_vs_reference_f32() {
        for order in [2usize, 4, 6] {
            let s: StarStencil<f32> = StarStencil::from_order(order);
            let n = 3 * order + 5;
            let input = random_grid::<f32>(n, order as u64);
            let mut golden = Grid3::new(n, n, n);
            apply_reference(&s, &input, &mut golden, Boundary::CopyInput);
            let mut got = Grid3::new(n, n, n);
            execute_step(
                Method::ForwardPlane,
                &s,
                &LaunchConfig::new(8, 4, 1, 1),
                &input,
                &mut got,
                Boundary::CopyInput,
            );
            assert_eq!(
                max_abs_diff(&got, &golden),
                0.0,
                "order {order}: forward-plane must be bit-exact"
            );
        }
    }

    #[test]
    fn all_inplane_variants_are_bit_exact_vs_inplane_reference_f32() {
        for variant in Variant::all() {
            for order in [2usize, 4] {
                let s: StarStencil<f32> = StarStencil::from_order(order);
                let n = 3 * order + 7;
                let input = random_grid::<f32>(n, 7 + order as u64);
                let mut golden = Grid3::new(n, n, n);
                apply_reference_inplane_order(&s, &input, &mut golden, Boundary::CopyInput);
                let mut got = Grid3::new(n, n, n);
                execute_step(
                    Method::InPlane(variant),
                    &s,
                    &LaunchConfig::new(4, 4, 2, 1),
                    &input,
                    &mut got,
                    Boundary::CopyInput,
                );
                assert_eq!(
                    max_abs_diff(&got, &golden),
                    0.0,
                    "{variant}: order {order} must be bit-exact vs in-plane reference"
                );
            }
        }
    }

    #[test]
    fn inplane_matches_forward_within_tolerance_f64() {
        let s: StarStencil<f64> = StarStencil::from_order(8);
        let n = 17;
        let input = random_grid::<f64>(n, 99);
        let mut fwd = Grid3::new(n, n, n);
        let mut inp = Grid3::new(n, n, n);
        execute_step(
            Method::ForwardPlane,
            &s,
            &LaunchConfig::new(8, 8, 1, 1),
            &input,
            &mut fwd,
            Boundary::CopyInput,
        );
        execute_step(
            Method::InPlane(Variant::FullSlice),
            &s,
            &LaunchConfig::new(8, 8, 1, 1),
            &input,
            &mut inp,
            Boundary::CopyInput,
        );
        assert!(max_abs_diff(&fwd, &inp) < 1e-13);
    }

    #[test]
    fn odd_sizes_and_clipped_tiles_still_verify() {
        let s: StarStencil<f64> = StarStencil::from_order(4);
        let input = random_grid::<f64>(13, 5);
        let mut golden = Grid3::new(13, 13, 13);
        apply_reference(&s, &input, &mut golden, Boundary::CopyInput);
        // Tile 8×6 does not divide the 9-wide interior: clipping exercised.
        let mut got = Grid3::new(13, 13, 13);
        execute_step(
            Method::ForwardPlane,
            &s,
            &LaunchConfig::new(8, 2, 1, 3),
            &input,
            &mut got,
            Boundary::CopyInput,
        );
        assert!(max_abs_diff(&got, &golden) < 1e-13);
    }

    #[test]
    fn stats_count_blocks_and_writes() {
        let s: StarStencil<f32> = StarStencil::from_order(2);
        let input = random_grid::<f32>(10, 3);
        let mut out = Grid3::new(10, 10, 10);
        let stats = execute_step(
            Method::InPlane(Variant::FullSlice),
            &s,
            &LaunchConfig::new(4, 4, 1, 1),
            &input,
            &mut out,
            Boundary::CopyInput,
        );
        assert_eq!(stats.blocks, 4); // 8×8 interior, 4×4 tiles
        assert_eq!(stats.global_writes, 8 * 8 * 8); // interior points
        assert!(stats.cells_staged > 0);
    }

    #[test]
    fn forward_plane_counts_barriers_and_rotations() {
        let s: StarStencil<f64> = StarStencil::laplacian7();
        let input: Grid3<f64> = FillPattern::HashNoise.build(6, 6, 6);
        let mut got = Grid3::new(6, 6, 6);
        let stats = execute_step(
            Method::ForwardPlane,
            &s,
            &LaunchConfig::new(4, 4, 1, 1),
            &input,
            &mut got,
            Boundary::LeaveOutput,
        );
        // One block, four output planes: two barriers each, a rotation
        // after every plane but the last.
        assert_eq!(stats.blocks, 1);
        assert_eq!(stats.barriers, 4 * 2);
        assert_eq!(stats.pipeline_rotations, 3);
        assert_eq!(stats.points_computed, 4 * 4 * 4);
        assert_eq!(stats.redundancy(), 1.0);
    }

    #[test]
    fn full_slice_stages_exactly_the_corner_zone_more() {
        let s: StarStencil<f64> = StarStencil::from_order(4);
        let input: Grid3<f64> = FillPattern::HashNoise.build(16, 16, 8);
        let config = LaunchConfig::new(12, 12, 1, 1);
        let run = |variant| {
            let mut out = Grid3::new(16, 16, 8);
            let stats = execute_step(
                Method::InPlane(variant),
                &s,
                &config,
                &input,
                &mut out,
                Boundary::LeaveOutput,
            );
            (stats, out)
        };
        let (fs, fs_out) = run(Variant::FullSlice);
        let (hz, _) = run(Variant::Horizontal);
        let (vt, vt_out) = run(Variant::Vertical);
        assert!(fs.cells_staged > hz.cells_staged);
        assert_eq!(hz.cells_staged, vt.cells_staged);
        // The difference is exactly the corner-zone traffic.
        assert_eq!(
            fs.cells_staged - hz.cells_staged,
            fs.staged_cells_by_zone[Zone::Corner.index()]
        );
        assert_eq!(hz.staged_cells_by_zone[Zone::Corner.index()], 0);
        // All variants compute the same values.
        assert_eq!(max_abs_diff(&fs_out, &vt_out), 0.0);
    }

    #[test]
    fn large_radius_on_tiles_narrower_than_the_halo() {
        let s: StarStencil<f64> = StarStencil::from_order(10);
        let input: Grid3<f64> = FillPattern::HashNoise.build(15, 15, 15);
        let mut golden = Grid3::new(15, 15, 15);
        apply_reference(&s, &input, &mut golden, Boundary::CopyInput);
        let mut got = Grid3::new(15, 15, 15);
        execute_step(
            Method::ForwardPlane,
            &s,
            &LaunchConfig::new(2, 2, 1, 1),
            &input,
            &mut got,
            Boundary::CopyInput,
        );
        assert_eq!(max_abs_diff(&got, &golden), 0.0);
    }

    #[test]
    fn minimal_depth_computes_one_output_plane() {
        // nz = 2r + 1: exactly one output plane, so the pipelines fill
        // and drain in the same sweep.
        let s: StarStencil<f64> = StarStencil::from_order(4);
        let input: Grid3<f64> = FillPattern::HashNoise.build(7, 7, 5);
        for method in [Method::ForwardPlane, Method::InPlane(Variant::FullSlice)] {
            let mut golden = Grid3::new(7, 7, 5);
            if method.is_inplane() {
                apply_reference_inplane_order(&s, &input, &mut golden, Boundary::CopyInput);
            } else {
                apply_reference(&s, &input, &mut golden, Boundary::CopyInput);
            }
            let mut got = Grid3::new(7, 7, 5);
            let stats = execute_step(
                method,
                &s,
                &LaunchConfig::new(8, 8, 1, 1),
                &input,
                &mut got,
                Boundary::CopyInput,
            );
            assert_eq!(max_abs_diff(&got, &golden), 0.0, "{method}");
            assert_eq!(stats.global_writes, 3 * 3, "{method}");
        }
    }
}
