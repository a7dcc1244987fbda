//! Segment-geometry property suite: the traffic oracle must stay an
//! exact mirror of the instrumented interpreter on a wave64 device
//! fingerprint, and coarsening the coalescing segment can only merge
//! transactions, never split them.
//!
//! For every method in `Method::ALL` × SP/DP:
//!
//! * the 64-byte-segment transaction count is **≥** the 128-byte
//!   count, for the plan oracle and the kernel-side oracle alike (a
//!   finer granule can only split runs);
//! * both geometries predict the interpreter's `ExecStats` **exactly**
//!   (counters and byte volumes are segment-independent by
//!   construction — only transaction figures may differ);
//! * the oracles read only `coalesce_segment_bytes` off the device:
//!   hd7970 agrees with a GTX580 re-granuled to 64 bytes, and the
//!   RTX 3090 with the GTX580's 128 bytes.

use gpu_sim::DeviceSpec;
use inplane_core::{interpret_plan, lower_step, KernelSpec, LaunchConfig, Method};
use stencil_grid::{FillPattern, Grid3, Precision, StarStencil};
use stencil_lint::traffic::{predict_kernel_traffic_on, predict_traffic_on};

/// The paper's GTX580 with its coalescing granule replaced by `seg`
/// bytes: every other field stays NVIDIA Fermi.
fn gtx580_with_segment(seg: u64) -> DeviceSpec {
    DeviceSpec {
        coalesce_segment_bytes: seg,
        ..DeviceSpec::gtx580()
    }
}

/// Wavefront-aligned configs: TX multiples of the hd7970 half-wavefront
/// (32), so the same shapes are enumerable on both vendors.
fn configs() -> Vec<LaunchConfig> {
    vec![
        LaunchConfig::new(32, 2, 1, 2),
        LaunchConfig::new(64, 2, 1, 1),
        LaunchConfig::new(32, 4, 2, 1),
    ]
}

fn dims_for(r: usize, config: &LaunchConfig) -> (usize, usize, usize) {
    (
        2 * r + 2 * config.tile_x(),
        2 * r + 2 * config.tile_y(),
        4 * r + 2,
    )
}

#[test]
fn finer_segments_never_reduce_transactions_and_stats_stay_exact() {
    let hd7970 = DeviceSpec::hd7970();
    let gtx580 = DeviceSpec::gtx580();
    assert_eq!(hd7970.coalesce_segment_bytes, 64);
    assert_eq!(gtx580.coalesce_segment_bytes, 128);
    for method in Method::ALL {
        for precision in [Precision::Single, Precision::Double] {
            for config in configs() {
                let spec = KernelSpec::star_order(method, 4, precision);
                let r = spec.radius;
                let dims = dims_for(r, &config);
                let plan = lower_step(method, &config, r, dims);
                let label = format!("{method} {precision:?} {config:?}");

                // Plan oracle under both geometries.
                let seg128 = predict_traffic_on(&plan, precision, &gtx580);
                let seg64 = predict_traffic_on(&plan, precision, &hd7970);
                assert_eq!(seg128.segment_bytes, 128, "{label}");
                assert_eq!(seg64.segment_bytes, 64, "{label}");
                assert!(
                    seg64.load_transactions >= seg128.load_transactions,
                    "{label}: 64 B {} < 128 B {}",
                    seg64.load_transactions,
                    seg128.load_transactions
                );

                // Counters and byte volumes are segment-independent and
                // both exact against the instrumented interpreter.
                assert_eq!(seg64.stats, seg128.stats, "{label}");
                assert_eq!(seg64.staged_bytes, seg128.staged_bytes, "{label}");
                assert_eq!(seg64.store_bytes, seg128.store_bytes, "{label}");
                assert_eq!(seg64.global_load_cells, seg128.global_load_cells, "{label}");
                let stencil: StarStencil<f32> = StarStencil::diffusion(r);
                let input: Grid3<f32> = FillPattern::HashNoise.build(dims.0, dims.1, dims.2);
                let mut out: Grid3<f32> = Grid3::new(dims.0, dims.1, dims.2);
                let dynamic = interpret_plan(&plan, &stencil, &input, &mut out);
                assert_eq!(seg64.stats, dynamic, "{label}: oracle vs interpreter");

                // Kernel-side oracle: same monotonicity, same cells.
                let kt128 = predict_kernel_traffic_on(&plan, &spec, &gtx580);
                let kt64 = predict_kernel_traffic_on(&plan, &spec, &hd7970);
                assert_eq!(
                    kt64,
                    predict_kernel_traffic_on(&plan, &spec, &gtx580_with_segment(64)),
                    "{label}"
                );
                assert_eq!(kt64.total_load_cells(), kt128.total_load_cells(), "{label}");
                assert_eq!(
                    kt64.total_store_cells(),
                    kt128.total_store_cells(),
                    "{label}"
                );
                assert!(
                    kt64.total_load_transactions() >= kt128.total_load_transactions(),
                    "{label}: kernel oracle 64 B {} < 128 B {}",
                    kt64.total_load_transactions(),
                    kt128.total_load_transactions()
                );
            }
        }
    }
}

#[test]
fn wave64_entry_points_agree_with_explicit_segment_figures() {
    // The oracles must read nothing but the segment size off the
    // device: hd7970 == a 64-byte GTX580, rtx3090 == the 128-byte
    // GTX580, on a representative plan.
    let hd7970 = DeviceSpec::hd7970();
    let rtx3090 = DeviceSpec::rtx3090();
    let gtx580 = DeviceSpec::gtx580();
    let method = inplane_core::Method::InPlane(inplane_core::Variant::FullSlice);
    let config = LaunchConfig::new(32, 2, 1, 2);
    let spec = KernelSpec::star_order(method, 4, Precision::Single);
    let dims = dims_for(spec.radius, &config);
    let plan = lower_step(method, &config, spec.radius, dims);

    let amd = predict_traffic_on(&plan, Precision::Single, &hd7970);
    let nv = predict_traffic_on(&plan, Precision::Single, &rtx3090);
    assert_eq!(nv, predict_traffic_on(&plan, Precision::Single, &gtx580));
    assert_eq!(
        amd,
        predict_traffic_on(&plan, Precision::Single, &gtx580_with_segment(64))
    );
    assert_eq!(amd.segment_bytes, 64);
    assert_eq!(
        predict_kernel_traffic_on(&plan, &spec, &rtx3090),
        predict_kernel_traffic_on(&plan, &spec, &gtx580)
    );
    assert_eq!(
        predict_kernel_traffic_on(&plan, &spec, &hd7970),
        predict_kernel_traffic_on(&plan, &spec, &gtx580_with_segment(64))
    );
}
