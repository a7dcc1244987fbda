//! Cross-validation: the analytic timing engine versus the event-driven
//! microsimulator, on the *actual* kernel plans of the evaluation. The
//! analytic engine drives the auto-tuner; this test is the evidence that
//! its closed-form plane costs track a mechanistic execution model.

use gpu_sim::{simulate_block_plane, DeviceSpec, GridDims};
use inplane_isl::core::simulate::build_block_plan;
use inplane_isl::core::Method;
use inplane_isl::prelude::*;
use stencil_grid::Precision;

fn plans() -> Vec<(String, gpu_sim::BlockPlan)> {
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    let mut out = Vec::new();
    for (method, label) in [
        (Method::ForwardPlane, "nvstencil"),
        (Method::InPlane(Variant::FullSlice), "full-slice"),
        (Method::InPlane(Variant::Vertical), "vertical"),
    ] {
        for order in [2usize, 8] {
            for config in [
                LaunchConfig::new(64, 8, 1, 1),
                LaunchConfig::new(128, 4, 1, 2),
            ] {
                let spec = KernelSpec::star_order(method, order, Precision::Single);
                out.push((
                    format!("{label} order {order} at {config}"),
                    build_block_plan(&dev, &spec, &config, dims),
                ));
            }
        }
    }
    out
}

#[test]
fn analytic_engine_tracks_the_microsim_on_real_plans() {
    let dev = DeviceSpec::gtx580();
    for (label, plan) in plans() {
        for resident in [1usize, 3] {
            let micro = simulate_block_plane(&dev, &plan, resident);
            let (analytic, _) = gpu_sim::timing::plane_cycles(&dev, &plan, resident);
            let ratio = micro.cycles / analytic;
            assert!(
                (0.4..3.0).contains(&ratio),
                "{label}, {resident} resident: microsim {:.0} vs analytic {analytic:.0} (ratio {ratio:.2})",
                micro.cycles
            );
        }
    }
}

#[test]
fn both_models_rank_full_slice_above_nvstencil() {
    // The ranking that drives every conclusion in the paper must not
    // depend on which of our two execution models is asked.
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    let config = LaunchConfig::new(128, 4, 1, 2);
    let plan_of = |method| {
        let spec = KernelSpec::star_order(method, 2, Precision::Single);
        build_block_plan(&dev, &spec, &config, dims)
    };
    let nv = plan_of(Method::ForwardPlane);
    let fs = plan_of(Method::InPlane(Variant::FullSlice));
    let micro_nv = simulate_block_plane(&dev, &nv, 3).cycles;
    let micro_fs = simulate_block_plane(&dev, &fs, 3).cycles;
    assert!(
        micro_fs < micro_nv,
        "microsim: full-slice {micro_fs:.0} must beat nvstencil {micro_nv:.0}"
    );
    let (ana_nv, _) = gpu_sim::timing::plane_cycles(&dev, &nv, 3);
    let (ana_fs, _) = gpu_sim::timing::plane_cycles(&dev, &fs, 3);
    assert!(ana_fs < ana_nv, "analytic: full-slice must beat nvstencil");
}

#[test]
fn microsim_byte_counts_match_the_plan() {
    let dev = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    let spec = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
    let plan = build_block_plan(&dev, &spec, &LaunchConfig::new(64, 8, 1, 1), dims);
    let micro = simulate_block_plane(&dev, &plan, 2);
    let mut ctr = gpu_sim::MemCounters::of(&plan.plane.loads, dev.segment_bytes);
    ctr.merge(&gpu_sim::MemCounters::of(
        &plan.plane.stores,
        dev.segment_bytes,
    ));
    assert!((micro.mem_bytes - 2.0 * ctr.transferred_bytes as f64).abs() < 1e-6);
}
