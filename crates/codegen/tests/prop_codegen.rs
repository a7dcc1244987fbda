//! Property-based tests for code generation: any feasible configuration
//! must produce structurally sound source for both backends.

use inplane_core::{KernelSpec, LaunchConfig, Method, Variant};
use proptest::prelude::*;
use stencil_codegen::cwriter::count_occurrences;
use stencil_codegen::{generate_host_harness_on, generate_kernel, generate_opencl_kernel};
use stencil_grid::Precision;

fn arb_method() -> impl Strategy<Value = Method> {
    prop::sample::select(vec![
        Method::ForwardPlane,
        Method::InPlane(Variant::Classical),
        Method::InPlane(Variant::Vertical),
        Method::InPlane(Variant::Horizontal),
        Method::InPlane(Variant::FullSlice),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CUDA generation never emits unbalanced or empty source and always
    /// carries the configuration's defines.
    #[test]
    fn cuda_generation_is_structurally_sound(
        method in arb_method(),
        order in prop::sample::select(vec![2usize, 4, 6, 8, 10, 12]),
        tx_halfwarps in 1usize..9,
        ty in 1usize..9,
        rx in prop::sample::select(vec![1usize, 2, 4]),
        ry in prop::sample::select(vec![1usize, 2, 4]),
        prec in prop::sample::select(vec![Precision::Single, Precision::Double]),
    ) {
        let config = LaunchConfig::new(tx_halfwarps * 16, ty, rx, ry);
        let spec = KernelSpec::star_order(method, order, prec);
        let k = generate_kernel(&spec, &config);
        prop_assert_eq!(count_occurrences(&k.source, "{"), count_occurrences(&k.source, "}"));
        prop_assert_eq!(count_occurrences(&k.source, "("), count_occurrences(&k.source, ")"));
        prop_assert!(k.source.len() > 500);
        let def_r = format!("#define R {}", order / 2);
        prop_assert!(k.source.contains(&def_r));
        let def_tx = format!("#define TX {}", config.tx);
        prop_assert!(k.source.contains(&def_tx));
        prop_assert!(k.smem_bytes > 0);
        // Every emitted kernel computes and writes output.
        prop_assert!(k.source.contains("out[(size_t)"));
        prop_assert!(k.source.contains("c_coeff[0]"));
    }

    /// OpenCL generation mirrors the CUDA structure for the supported
    /// methods.
    #[test]
    fn opencl_generation_is_structurally_sound(
        forward in any::<bool>(),
        order in prop::sample::select(vec![2usize, 6, 12]),
        tx_halfwarps in 1usize..5,
        ty in 1usize..5,
        prec in prop::sample::select(vec![Precision::Single, Precision::Double]),
    ) {
        let method = if forward { Method::ForwardPlane } else { Method::InPlane(Variant::FullSlice) };
        let config = LaunchConfig::new(tx_halfwarps * 16, ty, 1, 1);
        let spec = KernelSpec::star_order(method, order, prec);
        let src = generate_opencl_kernel(&spec, &config);
        prop_assert_eq!(count_occurrences(&src, "{"), count_occurrences(&src, "}"));
        prop_assert!(src.contains("__kernel"));
        prop_assert!(count_occurrences(&src, "barrier(CLK_LOCAL_MEM_FENCE);") >= 2);
    }

    /// The host harness always matches its kernel name and grid shape.
    #[test]
    fn host_harness_is_consistent(
        method in arb_method(),
        lx_tiles in 1usize..9,
        ly_tiles in 1usize..9,
        steps in 1usize..500,
    ) {
        let config = LaunchConfig::new(32, 4, 1, 2);
        let spec = KernelSpec::star_order(method, 4, Precision::Single);
        let (lx, ly) = (lx_tiles * config.tile_x(), ly_tiles * config.tile_y());
        let device = gpu_sim::DeviceSpec::gtx580();
        let src = generate_host_harness_on(&spec, &config, lx, ly, 64, steps, &device);
        prop_assert_eq!(count_occurrences(&src, "{"), count_occurrences(&src, "}"));
        let def_steps = format!("#define STEPS {steps}");
        prop_assert!(src.contains(&def_steps));
        let grid_line = format!("dim3 grid({lx_tiles}, {ly_tiles});");
        prop_assert!(src.contains(&grid_line));
        prop_assert!(src.contains(stencil_codegen::kernel_name(method)));
    }
}
