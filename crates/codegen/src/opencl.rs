//! OpenCL C kernel generation for the two headline methods.
//!
//! The paper's intro names CUDA *and* OpenCL as the programming models
//! that make SIMT stencils accessible; this backend emits OpenCL C for
//! the forward-plane baseline and the in-plane full-slice kernel so the
//! tuned configurations can run beyond Nvidia hardware. The remaining
//! loading variants are CUDA-only (see [`crate::kernel`]) — full-slice
//! is the variant the paper ships.

use crate::cwriter::{CWriter, SourceAnchor};
use crate::kernel::emit_scalar_region_load;
use inplane_core::resources::vector_width;
use inplane_core::{ComputeShape, KernelSpec, LaunchConfig};
use stencil_grid::Precision;

/// A generated OpenCL kernel: source text, function name and the
/// emitter-phase anchors the kernel verifier uses for diagnostics.
#[derive(Clone, Debug)]
pub struct OpenClKernel {
    /// The OpenCL C source.
    pub source: String,
    /// The `__kernel` function's name.
    pub name: String,
    /// Emitter-phase anchors into `source`.
    pub anchors: Vec<SourceAnchor>,
}

/// OpenCL scalar type.
fn ctype(p: Precision) -> &'static str {
    match p {
        Precision::Single => "float",
        Precision::Double => "double",
    }
}

/// Generate OpenCL C source for `(spec, config)`.
///
/// Coefficients arrive as a `__constant` buffer argument (OpenCL has no
/// `__constant__` globals settable from the host like CUDA's symbol
/// upload). The work-group geometry mirrors the CUDA block: local size
/// `(TX, TY)`, one work-group per tile.
///
/// # Panics
/// Panics for multi-grid specs, or for in-plane variants other than
/// full-slice (emit those with the CUDA backend).
pub fn generate_opencl_kernel(spec: &KernelSpec, config: &LaunchConfig) -> String {
    generate_opencl_kernel_full(spec, config).source
}

/// Generate an [`OpenClKernel`] — source plus name and anchors — for
/// `(spec, config)`. [`generate_opencl_kernel`] is the source-only
/// shorthand.
///
/// # Panics
/// Panics for multi-grid specs, or for in-plane variants other than
/// full-slice (emit those with the CUDA backend).
pub fn generate_opencl_kernel_full(spec: &KernelSpec, config: &LaunchConfig) -> OpenClKernel {
    assert_eq!(
        (spec.streamed_inputs, spec.coeff_inputs, spec.outputs),
        (1, 0, 1),
        "code generation covers single-grid star kernels"
    );
    let name = spec.method.opencl_kernel_name().unwrap_or_else(|| {
        panic!(
            "the OpenCL backend emits the forward-plane and full-slice routines only (got {})",
            spec.method.label()
        )
    });
    let t = ctype(spec.precision());
    let vw = vector_width(spec).max(1);

    let mut w = CWriter::new();
    w.anchor("defines");
    w.raw("// Auto-generated by stencil-codegen (OpenCL backend); do not edit.");
    if spec.precision() == Precision::Double {
        w.raw("#pragma OPENCL EXTENSION cl_khr_fp64 : enable");
    }
    w.raw(&format!("#define TX {}", config.tx));
    w.raw(&format!("#define TY {}", config.ty));
    w.raw(&format!("#define RX {}", config.rx));
    w.raw(&format!("#define RY {}", config.ry));
    w.raw(&format!("#define R {}", spec.radius));
    w.raw(&format!("#define VW {vw}"));
    w.raw("#define WX (TX * RX)");
    w.raw("#define WY (TY * RY)");
    w.raw("#define NT (TX * TY)");
    w.raw("#define SMEM_W (WX + 2 * R + 2 * VW)");
    w.raw("#define SMEM_H (WY + 2 * R)");
    w.blank();
    w.anchor("preamble");
    w.open(&format!(
        "__kernel __attribute__((reqd_work_group_size(TX, TY, 1))) void {name}(__global const {t}* restrict in, __global {t}* restrict out, __constant const {t}* restrict coeff, int lx, int ly, int lz, int stride, int pstride)"
    ));
    w.line(&format!("__local {t} tile[SMEM_H][SMEM_W];"));
    w.line("const int tx = get_local_id(0);");
    w.line("const int ty = get_local_id(1);");
    w.line("const int tid = ty * TX + tx;");
    w.line("const int x0 = R + (int)get_group_id(0) * WX;");
    w.line("const int y0 = R + (int)get_group_id(1) * WY;");
    w.line("const int xs = ((x0 - R) / VW) * VW;");
    match spec.method.skeleton(spec.radius).compute {
        ComputeShape::Direct => emit_forward(&mut w, t),
        ComputeShape::Pipelined => emit_inplane(&mut w, t),
    }
    w.close("");
    let (source, anchors) = w.finish_with_anchors();
    OpenClKernel {
        source,
        name: name.to_string(),
        anchors,
    }
}

/// Staging of plane `z`: one packed sweep (full-slice) — scalar elements
/// in OpenCL (portable; vectorised loads are a CUDA-backend refinement).
fn emit_stage(w: &mut CWriter) {
    w.anchor("stage full slice");
    w.line("const int span = ((x0 + WX + R) - xs + VW - 1) / VW * VW;");
    w.open("for (int g = tid; g < span * SMEM_H; g += NT)");
    w.line("const int row = g / span;");
    w.line("const int col = g % span;");
    w.line(
        "tile[row][col] = in[(size_t)z * pstride + (size_t)(y0 - R + row) * stride + (xs + col)];",
    );
    w.close("");
    w.anchor("stage barrier");
    w.line("barrier(CLK_LOCAL_MEM_FENCE);");
}

fn emit_forward(w: &mut CWriter, t: &str) {
    w.anchor("pipeline preload");
    w.line(&format!("{t} pipe[RY][RX][2 * R + 1];"));
    w.open("for (int p = 0; p < RY; ++p)");
    w.open("for (int q = 0; q < RX; ++q)");
    w.open("for (int d = 0; d <= 2 * R; ++d)");
    w.line("pipe[p][q][d] = in[(size_t)d * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)];");
    w.close("");
    w.close("");
    w.close("");
    w.anchor("plane loop");
    w.open("for (int z = R; z < lz - R; ++z)");
    // Publish the pipeline's centre plane to local memory and load the
    // four halo arms — the same Fig-4 pattern as the CUDA backend. (A
    // full-slab sweep here would re-load from global memory the
    // interior cells the register pipeline already holds.)
    w.anchor("publish centre");
    w.open("for (int p = 0; p < RY; ++p)");
    w.open("for (int q = 0; q < RX; ++q)");
    w.line("tile[(ty + p * TY) + R][(x0 + tx + q * TX) - xs] = pipe[p][q][R];");
    w.close("");
    w.close("");
    w.anchor("stage top halo");
    emit_scalar_region_load(w, "y0 - R", "R", "x0", "WX");
    w.anchor("stage bottom halo");
    emit_scalar_region_load(w, "y0 + WY", "R", "x0", "WX");
    w.anchor("stage left halo");
    emit_scalar_region_load(w, "y0", "WY", "x0 - R", "R");
    w.anchor("stage right halo");
    emit_scalar_region_load(w, "y0", "WY", "x0 + WX", "R");
    w.anchor("stage barrier");
    w.line("barrier(CLK_LOCAL_MEM_FENCE);");
    w.anchor("compute");
    w.open("for (int p = 0; p < RY; ++p)");
    w.open("for (int q = 0; q < RX; ++q)");
    w.line("const int cy = (ty + p * TY) + R;");
    w.line("const int cx = (x0 + tx + q * TX) - xs;");
    w.line(&format!("{t} acc = coeff[0] * pipe[p][q][R];"));
    w.open("for (int m = 1; m <= R; ++m)");
    w.line("acc += coeff[m] * (tile[cy][cx - m] + tile[cy][cx + m]");
    w.line("                 + tile[cy - m][cx] + tile[cy + m][cx]");
    w.line("                 + pipe[p][q][R - m] + pipe[p][q][R + m]);");
    w.close("");
    w.line("out[(size_t)z * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)] = acc;");
    w.open("for (int d = 0; d < 2 * R; ++d)");
    w.line("pipe[p][q][d] = pipe[p][q][d + 1];");
    w.close("");
    w.open("if (z + 1 < lz - R)");
    w.line("pipe[p][q][2 * R] = in[(size_t)(z + R + 1) * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)];");
    w.close("");
    w.close("");
    w.close("");
    w.anchor("reuse barrier");
    w.line("barrier(CLK_LOCAL_MEM_FENCE);");
    w.close("");
}

fn emit_inplane(w: &mut CWriter, t: &str) {
    w.anchor("pipeline preload");
    w.line(&format!("{t} zhist[RY][RX][R];"));
    w.line(&format!("{t} queue[RY][RX][R];"));
    w.open("for (int p = 0; p < RY; ++p)");
    w.open("for (int q = 0; q < RX; ++q)");
    w.open("for (int d = 0; d < R; ++d)");
    w.line("zhist[p][q][d] = in[(size_t)d * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)];");
    w.line(&format!("queue[p][q][d] = ({t})0;"));
    w.close("");
    w.close("");
    w.close("");
    w.anchor("plane loop");
    w.open("for (int z = R; z < lz; ++z)");
    emit_stage(w);
    w.anchor("compute");
    w.open("for (int p = 0; p < RY; ++p)");
    w.open("for (int q = 0; q < RX; ++q)");
    w.line("const int cy = (ty + p * TY) + R;");
    w.line("const int cx = (x0 + tx + q * TX) - xs;");
    w.line(&format!("const {t} centre = tile[cy][cx];"));
    w.line(&format!("{t} part = coeff[0] * centre;"));
    w.open("for (int m = 1; m <= R; ++m)");
    w.line("part += coeff[m] * (tile[cy][cx - m] + tile[cy][cx + m]");
    w.line("                  + tile[cy - m][cx] + tile[cy + m][cx]");
    w.line("                  + zhist[p][q][R - m]);");
    w.close("");
    w.open("for (int d = 1; d <= R; ++d)");
    w.line("queue[p][q][d - 1] += coeff[d] * centre;");
    w.close("");
    w.open("if (z >= 2 * R)");
    w.line("out[(size_t)(z - R) * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)] = queue[p][q][R - 1];");
    w.close("");
    w.open("for (int d = R - 1; d > 0; --d)");
    w.line("queue[p][q][d] = queue[p][q][d - 1];");
    w.close("");
    w.line("queue[p][q][0] = part;");
    w.open("for (int d = 0; d + 1 < R; ++d)");
    w.line("zhist[p][q][d] = zhist[p][q][d + 1];");
    w.close("");
    w.line("zhist[p][q][R - 1] = centre;");
    w.close("");
    w.close("");
    w.anchor("reuse barrier");
    w.line("barrier(CLK_LOCAL_MEM_FENCE);");
    w.close("");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cwriter::count_occurrences;
    use inplane_core::{Method, Variant};

    fn spec(method: Method, order: usize, p: Precision) -> KernelSpec {
        KernelSpec::star_order(method, order, p)
    }

    #[test]
    fn opencl_kernels_are_balanced() {
        for method in [Method::ForwardPlane, Method::InPlane(Variant::FullSlice)] {
            for p in [Precision::Single, Precision::Double] {
                let src =
                    generate_opencl_kernel(&spec(method, 4, p), &LaunchConfig::new(32, 4, 1, 2));
                assert_eq!(count_occurrences(&src, "{"), count_occurrences(&src, "}"));
                assert!(src.contains("__kernel"));
                assert!(src.contains("__local"));
                assert!(src.contains("barrier(CLK_LOCAL_MEM_FENCE);"));
            }
        }
    }

    #[test]
    fn dp_enables_the_fp64_extension() {
        let src = generate_opencl_kernel(
            &spec(Method::ForwardPlane, 2, Precision::Double),
            &LaunchConfig::new(32, 4, 1, 1),
        );
        assert!(src.contains("cl_khr_fp64"));
        let sp = generate_opencl_kernel(
            &spec(Method::ForwardPlane, 2, Precision::Single),
            &LaunchConfig::new(32, 4, 1, 1),
        );
        assert!(!sp.contains("cl_khr_fp64"));
    }

    #[test]
    fn work_group_size_is_pinned() {
        let src = generate_opencl_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 2, Precision::Single),
            &LaunchConfig::new(64, 2, 1, 4),
        );
        assert!(src.contains("reqd_work_group_size(TX, TY, 1)"));
        assert!(src.contains("#define TX 64"));
        assert!(src.contains("#define TY 2"));
    }

    #[test]
    fn coefficients_arrive_as_an_argument() {
        let src = generate_opencl_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 6, Precision::Single),
            &LaunchConfig::new(32, 4, 1, 1),
        );
        assert!(src.contains("__constant const float* restrict coeff"));
        assert!(!src.contains("__constant__"));
    }

    #[test]
    #[should_panic(expected = "full-slice routines only")]
    fn other_variants_rejected() {
        generate_opencl_kernel(
            &spec(Method::InPlane(Variant::Vertical), 2, Precision::Single),
            &LaunchConfig::new(32, 4, 1, 1),
        );
    }

    #[test]
    #[should_panic(expected = "full-slice routines only")]
    fn double_buffered_has_no_opencl_port() {
        generate_opencl_kernel(
            &spec(
                Method::InPlane(Variant::DoubleBuffered),
                2,
                Precision::Single,
            ),
            &LaunchConfig::new(32, 4, 1, 1),
        );
    }

    #[test]
    fn forward_publishes_centre_and_loads_arms() {
        // Forward-plane staging mirrors the CUDA Fig-4 pattern: the
        // pipeline centre is published from registers and only the four
        // halo arms come from global memory — no full-slab re-load.
        let k = generate_opencl_kernel_full(
            &spec(Method::ForwardPlane, 4, Precision::Single),
            &LaunchConfig::new(32, 4, 1, 2),
        );
        assert!(k.source.contains("= pipe[p][q][R];"));
        assert_eq!(count_occurrences(&k.source, "scalar region load"), 4);
        assert_eq!(
            count_occurrences(&k.source, "barrier(CLK_LOCAL_MEM_FENCE);"),
            2
        );
        assert!(k.anchors.iter().any(|a| a.label == "stage left halo"));
        assert_eq!(k.name, "stencil_forward_plane");
        // The full-slice kernel keeps its single packed sweep.
        let fs = generate_opencl_kernel_full(
            &spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single),
            &LaunchConfig::new(32, 4, 1, 2),
        );
        assert!(fs.source.contains("span * SMEM_H"));
        assert!(!fs.source.contains("scalar region load"));
    }

    #[test]
    fn both_backends_share_the_pipeline_structure() {
        // Same queue/zhist shapes as the CUDA backend.
        let src = generate_opencl_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 8, Precision::Single),
            &LaunchConfig::new(32, 4, 1, 1),
        );
        assert!(src.contains("zhist[RY][RX][R]"));
        assert!(src.contains("queue[RY][RX][R]"));
    }
}
