//! Host-side harness generation: padded allocation, coefficient upload,
//! the Fig-1 double-buffered Jacobi loop with pointer swap, and event
//! timing — everything needed to benchmark a generated kernel on a real
//! card the way the paper's harness does.

use crate::cwriter::CWriter;
use crate::kernel::kernel_name;
use inplane_core::{KernelSpec, LaunchConfig};
use stencil_grid::Precision;

/// Generate a standalone `main.cu` that allocates a `lx × ly × lz` grid,
/// runs `steps` Jacobi iterations of the kernel and reports MPoint/s,
/// with rows padded to `device`'s `coalesce_segment_bytes` — 128 bytes
/// on the paper's NVIDIA parts, 64 on GCN-class wave64 parts, where
/// padding to 128 would waste half the fringe segment.
pub fn generate_host_harness_on(
    spec: &KernelSpec,
    config: &LaunchConfig,
    lx: usize,
    ly: usize,
    lz: usize,
    steps: usize,
    device: &gpu_sim::DeviceSpec,
) -> String {
    let seg = device.coalesce_segment_bytes;
    let t = match spec.precision() {
        Precision::Single => "float",
        Precision::Double => "double",
    };
    let name = kernel_name(spec.method);
    let (gx, gy) = (lx.div_ceil(config.tile_x()), ly.div_ceil(config.tile_y()));

    let mut w = CWriter::new();
    w.raw("// Auto-generated host harness (stencil-codegen).");
    w.raw("#include <cstdio>");
    w.raw("#include <cstdlib>");
    w.raw("#include <cuda_runtime.h>");
    w.raw("#include \"kernel.cu\"");
    w.blank();
    w.raw(&format!("#define LX {lx}"));
    w.raw(&format!("#define LY {ly}"));
    w.raw(&format!("#define LZ {lz}"));
    w.raw(&format!("#define STEPS {steps}"));
    w.raw(&format!(
        "// Row stride padded to a {seg}-byte boundary so tile rows align"
    ));
    w.raw("// (the array-padding optimisation the in-plane kernels assume).");
    w.raw(&format!(
        "#define STRIDE ((((LX + 2 * R) * {sz} + {m}) / {seg}) * ({seg} / {sz}))",
        sz = spec.elem_bytes,
        m = seg - 1
    ));
    w.raw("#define PSTRIDE (STRIDE * (LY + 2 * R))");
    w.blank();
    w.open("static void check(cudaError_t e, const char* what)");
    w.open("if (e != cudaSuccess)");
    w.line("fprintf(stderr, \"%s: %s\\n\", what, cudaGetErrorString(e));");
    w.line("exit(1);");
    w.close("");
    w.close("");
    w.blank();
    w.open("int main(void)");
    w.line("const size_t elems = (size_t)PSTRIDE * (LZ + 2 * R);");
    w.line(&format!("{t} *d_in = nullptr, *d_out = nullptr;"));
    w.line(&format!(
        "check(cudaMalloc(&d_in, elems * sizeof({t})), \"malloc in\");"
    ));
    w.line(&format!(
        "check(cudaMalloc(&d_out, elems * sizeof({t})), \"malloc out\");"
    ));
    w.line(&format!(
        "check(cudaMemset(d_in, 0, elems * sizeof({t})), \"memset\");"
    ));
    w.line(&format!(
        "check(cudaMemset(d_out, 0, elems * sizeof({t})), \"memset\");"
    ));
    w.blank();
    w.line("// Diffusion coefficients: centre 1/2, the rest split over 6R points.");
    w.line(&format!("{t} h_coeff[R + 1];"));
    w.line(&format!("h_coeff[0] = ({t})0.5;"));
    w.open("for (int m = 1; m <= R; ++m)");
    w.line(&format!("h_coeff[m] = ({t})(0.5 / (6.0 * R));"));
    w.close("");
    w.line("check(cudaMemcpyToSymbol(c_coeff, h_coeff, sizeof(h_coeff)), \"coeff\");");
    w.blank();
    w.line("const dim3 block(TX, TY);");
    w.line(&format!("const dim3 grid({gx}, {gy});"));
    w.line("cudaEvent_t t0, t1;");
    w.line("check(cudaEventCreate(&t0), \"event\");");
    w.line("check(cudaEventCreate(&t1), \"event\");");
    w.line("check(cudaEventRecord(t0), \"record\");");
    w.open("for (int s = 0; s < STEPS; ++s)");
    w.line(&format!(
        "{name}<<<grid, block>>>(d_in, d_out, LX + 2 * R, LY + 2 * R, LZ + 2 * R, STRIDE, PSTRIDE);"
    ));
    w.line("// Fig-1 pointer swap: the output becomes the next input.");
    w.line(&format!("{t}* tmp = d_in; d_in = d_out; d_out = tmp;"));
    w.close("");
    w.line("check(cudaEventRecord(t1), \"record\");");
    w.line("check(cudaEventSynchronize(t1), \"sync\");");
    w.line("float ms = 0.f;");
    w.line("check(cudaEventElapsedTime(&ms, t0, t1), \"elapsed\");");
    w.line("const double points = (double)LX * LY * LZ * STEPS;");
    w.line("printf(\"%.1f MPoint/s (%.3f ms total)\\n\", points / ms / 1e3, ms);");
    w.line("cudaFree(d_in);");
    w.line("cudaFree(d_out);");
    w.line("return 0;");
    w.close("");
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cwriter::count_occurrences;
    use inplane_core::{Method, Variant};

    fn harness() -> String {
        let spec =
            KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        generate_host_harness_on(
            &spec,
            &LaunchConfig::new(32, 4, 1, 4),
            512,
            512,
            256,
            100,
            &gpu_sim::DeviceSpec::gtx580(),
        )
    }

    #[test]
    fn harness_is_balanced_and_complete() {
        let s = harness();
        assert_eq!(count_occurrences(&s, "{"), count_occurrences(&s, "}"));
        assert!(s.contains("int main(void)"));
        assert!(s.contains("cudaMalloc"));
        assert!(s.contains("cudaMemcpyToSymbol"));
        assert!(s.contains("stencil_inplane_fullslice<<<grid, block>>>"));
    }

    #[test]
    fn harness_swaps_buffers_and_times() {
        let s = harness();
        assert!(s.contains("d_in = d_out"));
        assert!(s.contains("cudaEventElapsedTime"));
        assert!(s.contains("#define STEPS 100"));
    }

    #[test]
    fn grid_dimensions_cover_the_plane() {
        let s = harness();
        // 512 / (32*1) = 16 blocks in x, 512 / (4*4) = 32 in y.
        assert!(s.contains("dim3 grid(16, 32);"));
    }

    #[test]
    fn gtx580_harness_pads_to_128_bytes() {
        let s = harness();
        assert!(
            s.contains("#define STRIDE ((((LX + 2 * R) * 4 + 127) / 128) * (128 / 4))"),
            "{s}"
        );
    }

    #[test]
    fn wave64_harness_pads_to_the_device_granule() {
        let spec =
            KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dev = gpu_sim::DeviceSpec::hd7970();
        let s = generate_host_harness_on(
            &spec,
            &LaunchConfig::new(32, 4, 1, 4),
            512,
            512,
            256,
            100,
            &dev,
        );
        assert!(
            s.contains("#define STRIDE ((((LX + 2 * R) * 4 + 63) / 64) * (64 / 4))"),
            "{s}"
        );
        assert!(s.contains("// Row stride padded to a 64-byte boundary"));
    }

    #[test]
    fn dp_harness_uses_double() {
        let spec = KernelSpec::star_order(Method::ForwardPlane, 2, Precision::Double);
        let s = generate_host_harness_on(
            &spec,
            &LaunchConfig::new(64, 4, 1, 1),
            256,
            256,
            64,
            10,
            &gpu_sim::DeviceSpec::gtx580(),
        );
        assert!(s.contains("double *d_in"));
        assert!(s.contains("stencil_forward_plane<<<"));
    }
}
