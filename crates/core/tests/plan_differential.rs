//! Differential suite: the plan interpreter is *bit-exact* against the
//! CPU golden models for every method, precision, launch config and
//! grid shape. This is the contract that let the pre-IR executors be
//! replaced by `lower → interpret`: the lowered [`StagePlan`] reproduces
//! the §III-B / §III-C floating-point summation orders term for term, so
//! `max_abs_diff` is exactly `0.0` — not merely small.
//!
//! Sweep: all 6 methods of `Method::ALL` × {f32, f64} × 3 launch configs ×
//! 2 grid shapes (one cubic, one with awkward prime-ish extents that
//! force clipped edge tiles).

use inplane_core::{interpret_plan, lower_step, LaunchConfig, Method, Variant};
use stencil_grid::{
    apply_reference, apply_reference_inplane_order, max_abs_diff, Boundary, FillPattern, Grid3,
    Real, StarStencil,
};

const METHODS: [Method; 6] = [
    Method::ForwardPlane,
    Method::InPlane(Variant::Classical),
    Method::InPlane(Variant::Vertical),
    Method::InPlane(Variant::Horizontal),
    Method::InPlane(Variant::FullSlice),
    Method::InPlane(Variant::DoubleBuffered),
];

const CONFIGS: [(usize, usize, usize, usize); 3] = [(4, 4, 1, 1), (8, 2, 1, 3), (16, 2, 2, 1)];

const GRIDS: [(usize, usize, usize); 2] = [(12, 12, 12), (17, 13, 11)];

const ORDER: usize = 4; // radius 2

/// The golden model with the method's own summation order.
fn golden<T: Real>(method: Method, s: &StarStencil<T>, input: &Grid3<T>) -> Grid3<T> {
    let (nx, ny, nz) = input.dims();
    let mut g = Grid3::new(nx, ny, nz);
    if method.is_inplane() {
        apply_reference_inplane_order(s, input, &mut g, Boundary::LeaveOutput)
    } else {
        apply_reference(s, input, &mut g, Boundary::LeaveOutput)
    }
    g
}

fn check_one<T: Real>(
    method: Method,
    cfg: (usize, usize, usize, usize),
    dims: (usize, usize, usize),
) {
    let s: StarStencil<T> = StarStencil::from_order(ORDER);
    let input: Grid3<T> = FillPattern::Random {
        lo: -2.0,
        hi: 2.0,
        seed: 1234,
    }
    .build(dims.0, dims.1, dims.2);
    let config = LaunchConfig::new(cfg.0, cfg.1, cfg.2, cfg.3);

    let plan = lower_step(method, &config, s.radius(), dims);
    let mut got = Grid3::new(dims.0, dims.1, dims.2);
    let stats = interpret_plan(&plan, &s, &input, &mut got);

    let want = golden(method, &s, &input);
    assert_eq!(
        max_abs_diff(&got, &want),
        0.0,
        "{method:?} {cfg:?} {dims:?}: interpreter is not bit-exact"
    );

    // Structural invariants tying the run to its plan: the census and
    // the instrumented counters agree on the schedule shape.
    let census = plan.census();
    assert_eq!(stats.barriers, census.barriers, "{method:?} {cfg:?}");
    assert_eq!(stats.blocks as u64, census.blocks, "{method:?} {cfg:?}");
    assert_eq!(
        stats.pipeline_rotations, census.rotations,
        "{method:?} {cfg:?}"
    );
    assert_eq!(
        stats.cells_staged,
        stats.staged_cells_by_zone.iter().sum::<u64>(),
        "zone counters must partition the staged cells"
    );
    let r = s.radius() as u64;
    let (nx, ny, nz) = (dims.0 as u64, dims.1 as u64, dims.2 as u64);
    assert_eq!(
        stats.global_writes,
        (nx - 2 * r) * (ny - 2 * r) * (nz - 2 * r),
        "every interior point is written exactly once"
    );
    // Barrier accounting straight off the routine's skeleton: blocks ×
    // staged planes × barriers-per-plane (2 stage+reuse, 1 for the
    // double-buffered routine).
    let sk = method.skeleton(s.radius());
    let planes_staged = nz as usize - s.radius() - sk.sweep_tail;
    assert_eq!(
        census.barriers,
        census.blocks * planes_staged as u64 * sk.barriers_per_plane as u64,
        "skeleton barrier count per staged plane"
    );
}

#[test]
fn interpreter_is_bit_exact_for_every_method_config_and_grid_f32() {
    for method in METHODS {
        for cfg in CONFIGS {
            for dims in GRIDS {
                check_one::<f32>(method, cfg, dims);
            }
        }
    }
}

#[test]
fn interpreter_is_bit_exact_for_every_method_config_and_grid_f64() {
    for method in METHODS {
        for cfg in CONFIGS {
            for dims in GRIDS {
                check_one::<f64>(method, cfg, dims);
            }
        }
    }
}
