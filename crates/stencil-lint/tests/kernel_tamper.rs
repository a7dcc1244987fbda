//! Tamper property for the kernel verifier: the abstract interpreter
//! is a *semantic* prover over the emitted text, not a golden-file
//! diff. For a randomly mutated kernel source — one `#define` numeral
//! bumped, one numeral inside a memory subscript bumped, or one
//! barrier dropped or duplicated — the verifier must emit at least one
//! **error**-severity `LNT-K…` diagnostic, unless the mutation left
//! the source byte-identical.
//!
//! The mutation universe deliberately excludes two regions:
//!
//! * comment text — the lexer skips it, so a mutation there is
//!   invisible to the verifier *and* to a compiler;
//! * coefficient subscripts (`coeff` / `c_coeff`) and other pure
//!   compute operands — changing which coefficient multiplies which
//!   neighbour alters the arithmetic without touching bounds, races,
//!   barriers or traffic, which is the documented boundary of the
//!   verified subset (numerical equivalence is the emulator's job).

mod common;

use common::{apply, collect_sites, CUDA_BARRIER_STMT, METHODS, OPENCL_BARRIER_STMT};
use gpu_sim::DeviceSpec;
use inplane_core::{KernelSpec, LaunchConfig};
use proptest::prelude::*;
use stencil_codegen::{generate_kernel, generate_opencl_kernel_full};
use stencil_grid::Precision;
use stencil_lint::{verify_kernel_source_on, Severity};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mutated_kernels_are_flagged(
        method_idx in 0usize..6,
        order in prop::sample::select(vec![2usize, 4]),
        shape_idx in 0usize..2,
        use_opencl in any::<bool>(),
        site_seed in 0usize..10_000,
    ) {
        let method = METHODS[method_idx];
        let spec = KernelSpec::star_order(method, order, Precision::Single);
        let config = [LaunchConfig::new(8, 2, 1, 2), LaunchConfig::new(16, 2, 1, 1)][shape_idx];
        let r = spec.radius;
        let dims = (2 * r + config.tile_x(), 2 * r + config.tile_y(), 2 * r + 2);

        let opencl = use_opencl && method.opencl_supported();
        let (source, name, anchors, barrier_stmt) = if opencl {
            let k = generate_opencl_kernel_full(&spec, &config);
            (k.source, k.name, k.anchors, OPENCL_BARRIER_STMT)
        } else {
            let k = generate_kernel(&spec, &config);
            (k.source, k.name, k.anchors, CUDA_BARRIER_STMT)
        };

        // The pristine kernel proves clean — the property below is
        // about the mutation, not a pre-existing finding.
        let gtx580 = DeviceSpec::gtx580();
        let clean =
            verify_kernel_source_on(&source, &name, &anchors, &spec, &config, dims, &gtx580);
        prop_assert!(clean.is_empty(), "pristine kernel not clean: {clean:?}");

        let sites = collect_sites(&source, barrier_stmt);
        prop_assert!(!sites.is_empty(), "no mutation sites in {name}");
        let site = sites[site_seed % sites.len()];
        let Some(mutated) = apply(&source, site, barrier_stmt) else {
            return Ok(()); // byte-identical: nothing to detect
        };

        let diags =
            verify_kernel_source_on(&mutated, &name, &anchors, &spec, &config, dims, &gtx580);
        prop_assert!(
            diags.iter().any(|d| d.severity == Severity::Error && d.code.starts_with("LNT-K")),
            "{method:?} {config} {site:?} ({}): mutation survived the verifier: {diags:?}",
            if opencl { "OpenCL" } else { "CUDA" },
        );
    }
}
