//! Differential suite: the static traffic oracle must reproduce the
//! instrumented interpreter's `ExecStats` **exactly** — zero tolerance —
//! over every lowering the workspace produces: the five single-step
//! methods across precisions and launch shapes, the temporal-tiling
//! transform and the multi-device transform. The same plans must also
//! pass the whole-plan dataflow proof with zero error-severity
//! diagnostics; the only findings allowed on legitimate plans are the
//! documented warnings/notes (drain-phase dead arms, box-granular
//! transport, final-step exchanges, full-slice corner staging).

use gpu_sim::DeviceSpec;
use inplane_core::{interpret_plan, lower_step, LaunchConfig, Method, Variant};
use stencil_grid::{FillPattern, Grid3, Precision, Real, StarStencil};
use stencil_lint::{analyze_plan, predict_stats, predict_traffic_on};
use stencil_multigpu::multi_gpu_stage_plan;
use stencil_temporal::temporal_stage_plan;

const METHODS: [Method; 6] = [
    Method::ForwardPlane,
    Method::InPlane(Variant::Classical),
    Method::InPlane(Variant::Vertical),
    Method::InPlane(Variant::Horizontal),
    Method::InPlane(Variant::FullSlice),
    Method::InPlane(Variant::DoubleBuffered),
];

fn grid<T: Real>(dims: (usize, usize, usize)) -> Grid3<T> {
    FillPattern::HashNoise.build(dims.0, dims.1, dims.2)
}

/// Interpret `plan` over a noise grid and demand the static prediction
/// matches the dynamic counters field for field.
fn assert_static_matches_dynamic<T: Real>(plan: &inplane_core::StagePlan, r: usize, label: &str) {
    let stencil: StarStencil<T> = StarStencil::diffusion(r);
    let input: Grid3<T> = grid(plan.dims);
    let mut out: Grid3<T> = Grid3::new(plan.dims.0, plan.dims.1, plan.dims.2);
    let dynamic = interpret_plan(plan, &stencil, &input, &mut out);
    let predicted = predict_stats(plan);
    assert_eq!(predicted, dynamic, "oracle drifted on {label}");
}

#[test]
fn single_step_matrix_matches_exactly_both_precisions() {
    let configs = [
        LaunchConfig::new(4, 4, 1, 1),
        LaunchConfig::new(8, 2, 1, 3),
        LaunchConfig::new(16, 2, 2, 1),
    ];
    let grids = [(12, 12, 12), (17, 13, 11)];
    for method in METHODS {
        for config in &configs {
            for dims in grids {
                let r = 2;
                let plan = lower_step(method, config, r, dims);
                let label = format!("{method:?} {config:?} {dims:?}");
                assert_static_matches_dynamic::<f32>(&plan, r, &label);
                assert_static_matches_dynamic::<f64>(&plan, r, &label);

                let report = analyze_plan(&plan);
                assert_eq!(report.errors(), 0, "{label}:\n{:?}", report.diagnostics);
                if method == Method::ForwardPlane {
                    assert!(report.is_clean(), "{label}:\n{:?}", report.diagnostics);
                }
            }
        }
    }
}

#[test]
fn byte_figures_track_precision_on_every_method() {
    let config = LaunchConfig::new(8, 2, 1, 3);
    for method in METHODS {
        let plan = lower_step(method, &config, 2, (12, 12, 12));
        let sp = predict_traffic_on(&plan, Precision::Single, &DeviceSpec::gtx580());
        let dp = predict_traffic_on(&plan, Precision::Double, &DeviceSpec::gtx580());
        assert_eq!(sp.stats, dp.stats, "counters are word-width independent");
        assert_eq!(sp.word_bytes, 4);
        assert_eq!(dp.word_bytes, 8);
        assert_eq!(2 * sp.staged_bytes, dp.staged_bytes);
        assert_eq!(2 * sp.store_bytes, dp.store_bytes);
        assert_eq!(2 * sp.gather_bytes, dp.gather_bytes);
        assert!(dp.load_transactions >= sp.load_transactions);
    }
}

#[test]
fn full_slice_corner_staging_is_the_documented_note() {
    let plan = lower_step(
        Method::InPlane(Variant::FullSlice),
        &LaunchConfig::new(8, 2, 1, 3),
        2,
        (17, 13, 11),
    );
    let report = analyze_plan(&plan);
    assert_eq!(report.errors(), 0, "{:?}", report.diagnostics);
    assert!(report.dead_corner_cells > 0);
    assert!(
        report.diagnostics.iter().any(|d| d.code == "LNT-D901"),
        "{:?}",
        report.diagnostics
    );
}

#[test]
fn temporal_transform_matches_and_redundancy_agrees() {
    for (r, t_steps, dims) in [(1usize, 3usize, (14, 14, 10)), (2, 2, (16, 13, 11))] {
        let plan = temporal_stage_plan(r, dims, 4, 4, t_steps);
        let label = format!("temporal r={r} T={t_steps} {dims:?}");
        assert_static_matches_dynamic::<f64>(&plan, r, &label);

        let predicted = predict_stats(&plan);
        let stencil: StarStencil<f64> = StarStencil::diffusion(r);
        let input: Grid3<f64> = grid(dims);
        let mut out: Grid3<f64> = Grid3::new(dims.0, dims.1, dims.2);
        let dynamic = interpret_plan(&plan, &stencil, &input, &mut out);
        assert_eq!(predicted.redundancy(), dynamic.redundancy(), "{label}");
        assert!(predicted.redundancy() > 1.0, "{label} overlaps tiles");

        let report = analyze_plan(&plan);
        assert_eq!(report.errors(), 0, "{label}:\n{:?}", report.diagnostics);
    }
}

#[test]
fn multi_gpu_transform_matches_and_pins_final_step_exchanges() {
    for (devices, steps) in [(2usize, 2usize), (3, 3)] {
        let r = 2;
        let dims = (12, 12, 18);
        let plan = multi_gpu_stage_plan(
            Method::ForwardPlane,
            &LaunchConfig::new(4, 4, 1, 1),
            r,
            dims,
            devices,
            steps,
        );
        let label = format!("multigpu d={devices} s={steps}");
        assert_static_matches_dynamic::<f32>(&plan, r, &label);

        let report = analyze_plan(&plan);
        assert_eq!(report.errors(), 0, "{label}:\n{:?}", report.diagnostics);
        // The last step's halo exchanges feed no further sweep: exactly
        // 2·(devices−1)·r planes cross the interconnect for nothing.
        assert_eq!(
            report.dead_exchange_planes,
            (2 * (devices - 1) * r) as u64,
            "{label}:\n{:?}",
            report.diagnostics
        );
    }
}
