//! Kernel resource estimation: registers per thread and shared memory
//! per block (`K_R` and `K_S` in the paper's model).
//!
//! The estimates mirror what the CUDA compiler allocates for these
//! kernels:
//!
//! * a fixed overhead for addressing, loop counters and predicates;
//! * the per-point register *pipelines*: the forward-plane method keeps
//!   `2r + 1` z-values per computed point in flight; the in-plane method
//!   keeps `r` queued partial outputs plus `r` trailing z-values
//!   (Eqns (3)–(5)) — `2r` words per point;
//! * register tiling multiplies the pipelines by `RX × RY` points per
//!   thread, and DP words take two 32-bit registers each — this is the
//!   "more registers, lower occupancy" trade-off of §IV-C;
//! * vector loads need a staging temporary of `v` words.
//!
//! Shared memory is the staging buffer for the current plane:
//! `(TX·RX + 2r) × (TY·RY + 2r)` elements for every method (corners are
//! allocated even by the variants that never fill them).

use crate::config::LaunchConfig;
use crate::kernel::KernelSpec;
use gpu_sim::occupancy::BlockResources;
use stencil_grid::Precision;

/// Fixed per-thread register overhead (addressing, indices, predicates).
pub const BASE_REGS: usize = 14;

/// Registers per thread for `kernel` at `config`.
pub fn regs_per_thread(kernel: &KernelSpec, config: &LaunchConfig) -> usize {
    let r = kernel.radius;
    // The routine's pipeline state: 2r+1 plane values resident per
    // point forward (§III-B); r queued partial outputs + r trailing
    // z-values in-plane (§III-C).
    let words_per_point = kernel.method.pipeline_words(r);
    let regs_per_word = kernel.elem_bytes / 4;
    let pipeline = words_per_point * config.points_per_thread() * regs_per_word;
    // Scalar stencil coefficients (c0..cr) are declared in constant
    // memory, as in the SDK sample, but the unrolled multiply-accumulate
    // sequence keeps the innermost few live in registers; beyond that the
    // compiler re-fetches from the constant bank. Cap at 6 live words so
    // very high orders (the paper runs up to 32nd order on the C2070)
    // stay compilable.
    let coeffs = if kernel.coeff_inputs == 0 {
        (r + 1).min(6) * regs_per_word
    } else {
        0
    };
    // Vector-load staging: two words — the remaining lanes of a 16-byte
    // load land directly in pipeline registers.
    let vector_tmp = if vector_width(kernel) > 1 {
        2 * regs_per_word
    } else {
        regs_per_word
    };
    BASE_REGS + pipeline + coeffs + vector_tmp
}

/// Shared-memory bytes per block: the staged plane with its halo frame,
/// one buffer per streamed input grid — times the routine's staging
/// buffer count (the double-buffered routine rotates a pair).
pub fn smem_bytes(kernel: &KernelSpec, config: &LaunchConfig) -> usize {
    let r = kernel.radius;
    let slab = (config.tile_x() + 2 * r) * (config.tile_y() + 2 * r);
    slab * kernel.elem_bytes * kernel.streamed_inputs.max(1) * kernel.method.staging_buffers()
}

/// Hardware vector-load width (elements per lane) this kernel uses:
/// 4-wide `float4` / 2-wide `double2` for the routines that vectorise
/// (§III-C2); the SDK baseline and the classical variant load scalar.
pub fn vector_width(kernel: &KernelSpec) -> usize {
    if kernel.method.vectorised() {
        match kernel.precision() {
            Precision::Single => 4,
            Precision::Double => 2,
        }
    } else {
        1
    }
}

/// Bundle the block resources for the occupancy calculator.
pub fn block_resources(kernel: &KernelSpec, config: &LaunchConfig) -> BlockResources {
    BlockResources {
        threads: config.threads(),
        regs_per_thread: regs_per_thread(kernel, config),
        smem_bytes: smem_bytes(kernel, config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{Method, Variant};
    use stencil_grid::StarStencil;

    fn star(method: Method, order: usize) -> KernelSpec {
        let s: StarStencil<f32> = StarStencil::from_order(order);
        KernelSpec::star(method, &s)
    }

    #[test]
    fn inplane_uses_fewer_pipeline_regs_than_forward() {
        let c = LaunchConfig::new(32, 4, 1, 4);
        for order in [2, 4, 8, 12] {
            let f = regs_per_thread(&star(Method::ForwardPlane, order), &c);
            let i = regs_per_thread(&star(Method::InPlane(Variant::FullSlice), order), &c);
            // 2r vs 2r+1 words per point, minus the vector temp difference.
            assert!(i <= f + 4, "order {order}: in-plane {i} vs forward {f}");
        }
    }

    #[test]
    fn register_blocking_multiplies_pipeline() {
        let k = star(Method::InPlane(Variant::FullSlice), 4);
        let r1 = regs_per_thread(&k, &LaunchConfig::new(32, 4, 1, 1));
        let r4 = regs_per_thread(&k, &LaunchConfig::new(32, 4, 1, 4));
        // Pipeline words: 2r=4 per point; 3 extra points → +12 registers.
        assert_eq!(r4 - r1, 12);
    }

    #[test]
    fn dp_doubles_data_registers() {
        let sp = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 8, Precision::Single);
        let dp = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 8, Precision::Double);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let rs = regs_per_thread(&sp, &c);
        let rd = regs_per_thread(&dp, &c);
        assert!(rd > rs, "DP must use more registers");
        // Every data register class (pipeline, coefficients, vector
        // staging) doubles; only the fixed base does not.
        assert_eq!(rd - BASE_REGS, 2 * (rs - BASE_REGS));
    }

    #[test]
    fn order12_dp_with_big_tiles_exceeds_register_file_practicality() {
        // The paper's optimal order-12 DP configs collapse to RX=RY=1
        // (Table IV); bigger register blocks must blow past the 63-reg
        // hardware cap and become infeasible.
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 12, Precision::Double);
        let big = regs_per_thread(&k, &LaunchConfig::new(16, 8, 2, 2));
        assert!(big > 63, "got {big}");
        let small = regs_per_thread(&k, &LaunchConfig::new(16, 8, 1, 1));
        assert!(small <= 63, "got {small}");
    }

    #[test]
    fn smem_is_the_halo_framed_slab() {
        let k = star(Method::InPlane(Variant::FullSlice), 4);
        let c = LaunchConfig::new(32, 4, 1, 4);
        // (32+4) × (16+4) × 4 B.
        assert_eq!(smem_bytes(&k, &c), 36 * 20 * 4);
    }

    #[test]
    fn smem_scales_with_streamed_inputs() {
        let mut k = star(Method::InPlane(Variant::FullSlice), 2);
        k.streamed_inputs = 3;
        let c = LaunchConfig::new(32, 4, 1, 1);
        assert_eq!(smem_bytes(&k, &c), 3 * 34 * 6 * 4);
    }

    #[test]
    fn vector_widths() {
        assert_eq!(vector_width(&star(Method::ForwardPlane, 4)), 1);
        assert_eq!(
            vector_width(&star(Method::InPlane(Variant::FullSlice), 4)),
            4
        );
        assert_eq!(
            vector_width(&star(Method::InPlane(Variant::Classical), 4)),
            1
        );
        let dp = KernelSpec::star_order(Method::InPlane(Variant::Horizontal), 4, Precision::Double);
        assert_eq!(vector_width(&dp), 2);
    }

    #[test]
    fn block_resources_bundle() {
        let k = star(Method::InPlane(Variant::FullSlice), 2);
        let c = LaunchConfig::new(64, 4, 1, 2);
        let res = block_resources(&k, &c);
        assert_eq!(res.threads, 256);
        assert_eq!(res.regs_per_thread, regs_per_thread(&k, &c));
        assert_eq!(res.smem_bytes, smem_bytes(&k, &c));
    }
}
