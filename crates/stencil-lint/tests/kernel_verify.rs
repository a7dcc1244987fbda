//! Differential suite for the kernel verifier: the traffic oracle is
//! proven **three ways** over the whole routine registry.
//!
//! 1. the plan-level oracle [`stencil_lint::predict_traffic_on`] predicts
//!    the interpreter's counters from the op stream (pinned elsewhere);
//! 2. the AST-level oracle [`stencil_lint::predict_kernel_traffic_on`]
//!    re-derives per-plane cell figures from the same plan under the
//!    emitters' layout rules, and must agree with (1) on cells and
//!    stores for vector-aligned configurations;
//! 3. the abstract interpreter executes the *emitted text* and the
//!    per-plane traffic it observes must equal (2) exactly — that is
//!    the `LNT-K005` check inside [`stencil_lint::verify_cuda_kernel_on`].
//!
//! Every leg runs on the GTX580's geometry: warp 32, 128-byte segments.
//!
//! Any drift between the emitters, the lowered plan and the oracles
//! breaks one of the equalities below.

use gpu_sim::DeviceSpec;
use inplane_core::{registry, KernelSpec, LaunchConfig, Method, Variant};
use stencil_grid::Precision;
use stencil_lint::{
    predict_kernel_traffic_on, predict_traffic_on, verify_cuda_kernel_on, verify_opencl_kernel_on,
};

/// Smallest grid that exercises prologue, steady state and the store
/// path for a `gx × gy` block grid.
fn dims_for(
    spec: &KernelSpec,
    config: &LaunchConfig,
    gx: usize,
    gy: usize,
) -> (usize, usize, usize) {
    let r = spec.radius;
    (
        2 * r + gx * config.tile_x(),
        2 * r + gy * config.tile_y(),
        2 * r + 2,
    )
}

/// Three launch shapes per routine: a flat block, a tall rectangular
/// tile, and a 2×2 block grid (cross-block run-merging is where the
/// derived transaction figures are easiest to get wrong).
type Shape = ((usize, usize, usize, usize), (usize, usize));
const SHAPES: [Shape; 3] = [
    ((8, 2, 1, 2), (1, 1)),
    ((16, 2, 1, 1), (1, 2)),
    ((8, 4, 2, 1), (2, 2)),
];

#[test]
fn every_routine_verifies_clean_on_both_precisions() {
    for routine in registry() {
        let method = routine.method();
        for precision in [Precision::Single, Precision::Double] {
            let spec = KernelSpec::star_order(method, 4, precision);
            for ((tx, ty, rx, ry), (gx, gy)) in SHAPES {
                let config = LaunchConfig::new(tx, ty, rx, ry);
                let dims = dims_for(&spec, &config, gx, gy);
                let d = verify_cuda_kernel_on(&spec, &config, dims, &DeviceSpec::gtx580());
                assert!(
                    d.is_empty(),
                    "{method:?} {precision:?} {config} CUDA: {:?}",
                    d.iter().map(|x| x.render()).collect::<Vec<_>>()
                );
                if routine.opencl_supported() {
                    let d = verify_opencl_kernel_on(&spec, &config, dims, &DeviceSpec::gtx580());
                    assert!(
                        d.is_empty(),
                        "{method:?} {precision:?} {config} OpenCL: {:?}",
                        d.iter().map(|x| x.render()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}

#[test]
fn high_order_kernels_verify_clean() {
    // Order 8 (radius 4) exercises the deep register pipelines and the
    // aligned-extension special case (R % VW == 0 for the vectorised
    // variants in both precisions).
    for method in [
        Method::ForwardPlane,
        Method::InPlane(Variant::Vertical),
        Method::InPlane(Variant::Horizontal),
        Method::InPlane(Variant::FullSlice),
        Method::InPlane(Variant::DoubleBuffered),
    ] {
        for precision in [Precision::Single, Precision::Double] {
            let spec = KernelSpec::star_order(method, 8, precision);
            let config = LaunchConfig::new(8, 2, 1, 2);
            let dims = dims_for(&spec, &config, 1, 1);
            let d = verify_cuda_kernel_on(&spec, &config, dims, &DeviceSpec::gtx580());
            assert!(
                d.is_empty(),
                "{method:?} {precision:?}: {:?}",
                d.iter().map(|x| x.render()).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn kernel_oracle_agrees_with_plan_oracle_on_cells_and_stores() {
    // Leg (2) of the three-way proof, for every routine, precision and
    // shape: store totals always agree; load-cell totals agree exactly
    // whenever `R % VW == 0` (the emitters then stage the exact slab).
    // When the radius is not vector-aligned the emitted kernel stages
    // the vector-extended slab, so the AST-level figure is a superset
    // of the plan-level one — never smaller.
    for routine in registry() {
        let method = routine.method();
        for precision in [Precision::Single, Precision::Double] {
            for order in [2usize, 4, 8] {
                let spec = KernelSpec::star_order(method, order, precision);
                let vw = inplane_core::resources::vector_width(&spec).max(1);
                for ((tx, ty, rx, ry), (gx, gy)) in SHAPES {
                    let config = LaunchConfig::new(tx, ty, rx, ry);
                    let dims = dims_for(&spec, &config, gx, gy);
                    let plan = inplane_core::lower_step(method, &config, spec.radius, dims);
                    let gtx580 = DeviceSpec::gtx580();
                    let kt = predict_kernel_traffic_on(&plan, &spec, &gtx580);
                    let po = predict_traffic_on(&plan, precision, &gtx580);
                    if spec.radius.is_multiple_of(vw) {
                        assert_eq!(
                            kt.total_load_cells(),
                            po.global_load_cells,
                            "{method:?} {precision:?} order {order} {config}: load cells"
                        );
                    } else {
                        assert!(
                            kt.total_load_cells() >= po.global_load_cells,
                            "{method:?} {precision:?} order {order} {config}: \
                             extended staging can never load fewer cells \
                             ({} < {})",
                            kt.total_load_cells(),
                            po.global_load_cells
                        );
                    }
                    assert_eq!(
                        kt.total_store_cells(),
                        po.stats.global_writes,
                        "{method:?} {precision:?} order {order} {config}: store cells"
                    );
                    assert_eq!(kt.word_bytes as usize, spec.elem_bytes);
                }
            }
        }
    }
}
