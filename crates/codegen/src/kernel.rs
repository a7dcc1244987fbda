//! CUDA kernel source generation.
//!
//! One kernel is generated per `(method, launch config, radius,
//! precision)` tuple — the blocking factors become `#define` constants
//! so `nvcc` fully unrolls the register pipelines, exactly how the
//! paper's auto-tuned kernels are built. The emitted code mirrors the
//! structure of the emulated executors in `inplane-core::exec`:
//!
//! * forward-plane: `2r+1`-deep z-pipeline in registers, centre plane
//!   published to shared memory, four halo arms loaded with
//!   thread-index predicates (the Fig 4 pattern);
//! * in-plane: a depth-`r` output queue plus `r` trailing z-values per
//!   point (Eqns (3)–(5)), the staged plane loaded per the variant —
//!   classical (like the baseline), vertical (vectorised slab + column
//!   loops), horizontal (vectorised full-width rows + top/bottom rows),
//!   full-slice (one warp-packed vectorised sweep over the whole slab).

use crate::cwriter::{CWriter, SourceAnchor};
use inplane_core::resources::vector_width;
use inplane_core::{ComputeShape, KernelSpec, LaunchConfig, LoadPattern, Method};
use stencil_grid::Precision;

/// A generated kernel: source text plus the metadata a build system
/// needs.
#[derive(Clone, Debug)]
pub struct GeneratedKernel {
    /// The CUDA C source.
    pub source: String,
    /// The `__global__` function's name.
    pub name: String,
    /// Static shared memory the kernel declares, bytes.
    pub smem_bytes: usize,
    /// Block dimensions to launch with.
    pub block: (usize, usize),
    /// Grid dimensions for an `lx × ly` interior plane.
    pub grid_for: fn(usize, usize, &LaunchConfig) -> (usize, usize),
    /// Emitter-phase anchors into `source` (verifier diagnostics use
    /// them to name the phase a finding lands in).
    pub anchors: Vec<SourceAnchor>,
}

/// C scalar type for a precision.
fn ctype(p: Precision) -> &'static str {
    match p {
        Precision::Single => "float",
        Precision::Double => "double",
    }
}

/// C vector type for a precision (16-byte loads).
fn vtype(p: Precision) -> &'static str {
    match p {
        Precision::Single => "float4",
        Precision::Double => "double2",
    }
}

fn grid_for(lx: usize, ly: usize, c: &LaunchConfig) -> (usize, usize) {
    (lx.div_ceil(c.tile_x()), ly.div_ceil(c.tile_y()))
}

/// Emit the `#define` header shared by all kernels.
fn emit_defines(w: &mut CWriter, spec: &KernelSpec, config: &LaunchConfig, vw: usize) {
    w.anchor("defines");
    w.raw("// Auto-generated by stencil-codegen; do not edit.");
    w.raw(&format!("// {} at {}", spec.name, config));
    w.raw(&format!("#define TX {}", config.tx));
    w.raw(&format!("#define TY {}", config.ty));
    w.raw(&format!("#define RX {}", config.rx));
    w.raw(&format!("#define RY {}", config.ry));
    w.raw(&format!("#define R {}", spec.radius));
    w.raw(&format!("#define VW {vw}"));
    w.raw("#define WX (TX * RX)");
    w.raw("#define WY (TY * RY)");
    w.raw("#define NT (TX * TY)");
    // Static shared tile: halo frame plus vector-alignment slack on both
    // sides of the x axis (the tile origin is not generally VW-aligned).
    w.raw("#define SMEM_W (WX + 2 * R + 2 * VW)");
    w.raw("#define SMEM_H (WY + 2 * R)");
    w.blank();
    w.raw(&format!(
        "__constant__ {} c_coeff[R + 1];",
        ctype(spec.precision())
    ));
    w.blank();
}

/// Emit the kernel signature and the index preamble common to all
/// methods. Leaves one block open.
fn emit_preamble(w: &mut CWriter, spec: &KernelSpec, name: &str) {
    let t = ctype(spec.precision());
    w.anchor("preamble");
    w.open(&format!(
        "extern \"C\" __global__ void {name}(const {t}* __restrict__ in, {t}* __restrict__ out, int lx, int ly, int lz, int stride, int pstride)"
    ));
    if spec.method.staging_buffers() == 2 {
        // Double-buffered staging pair; `tile` re-points per plane.
        w.line(&format!("__shared__ {t} tile_pair[2][SMEM_H][SMEM_W];"));
    } else {
        w.line(&format!("__shared__ {t} tile[SMEM_H][SMEM_W];"));
    }
    w.line("const int tx = threadIdx.x;");
    w.line("const int ty = threadIdx.y;");
    w.line("const int tid = ty * TX + tx;");
    w.line("// Tile origin in absolute grid coordinates (interior starts at R).");
    w.line("const int x0 = R + blockIdx.x * WX;");
    w.line("const int y0 = R + blockIdx.y * WY;");
    w.line("// Vector-aligned left edge of the staged slab and its lead-in.");
    w.line("const int xs = ((x0 - R) / VW) * VW;");
    w.line("const int lead = (x0 - R) - xs;");
    w.line("(void)lead; (void)tid; (void)xs;");
}

/// Emit a warp-packed, vectorised load of rows `[ys, ye)` × columns
/// `[cx_lo, cx_hi)` (absolute grid coords; the x-range is extended to
/// vector alignment) into the tile. `tile_row_of` maps an absolute row
/// to a tile row expression.
fn emit_packed_rows_load(
    w: &mut CWriter,
    spec: &KernelSpec,
    ys: &str,
    rows: &str,
    x_lo: &str,
    width_elems: &str,
) {
    let vt = vtype(spec.precision());
    let t = ctype(spec.precision());
    let lanes = vector_width(spec);
    w.line(&format!(
        "// packed vector load: {rows} rows of {width_elems} elements from x = {x_lo}"
    ));
    w.open(&format!(
        "for (int g = tid; g < (({width_elems}) / VW) * ({rows}); g += NT)"
    ));
    w.line(&format!("const int row = g / (({width_elems}) / VW);"));
    w.line(&format!("const int col = g % (({width_elems}) / VW);"));
    w.line(&format!("const int gx = ({x_lo}) + col * VW;"));
    w.line(&format!("const int gy = ({ys}) + row;"));
    w.line(&format!(
        "const {vt} v = *reinterpret_cast<const {vt}*>(&in[(size_t)z * pstride + (size_t)gy * stride + gx]);"
    ));
    w.line(&format!("{t}* dst = &tile[gy - (y0 - R)][gx - xs];"));
    match lanes {
        4 => {
            w.line("dst[0] = v.x; dst[1] = v.y; dst[2] = v.z; dst[3] = v.w;");
        }
        2 => {
            w.line("dst[0] = v.x; dst[1] = v.y;");
        }
        _ => {
            w.line("dst[0] = v.x;");
        }
    }
    w.close("");
}

/// Emit scalar per-row loads of rows `[ys, ys+rows)` × x `[x_lo,
/// x_lo+width)` with thread-index addressing (the classical pattern).
/// The body is backend-neutral; the OpenCL emitter reuses it for the
/// forward-plane halo arms.
pub(crate) fn emit_scalar_region_load(
    w: &mut CWriter,
    ys: &str,
    rows: &str,
    x_lo: &str,
    width: &str,
) {
    w.line(&format!(
        "// scalar region load: {rows} rows x {width} cols at ({x_lo}, {ys})"
    ));
    w.open(&format!(
        "for (int e = tid; e < ({rows}) * ({width}); e += NT)"
    ));
    w.line(&format!("const int row = e / ({width});"));
    w.line(&format!("const int col = e % ({width});"));
    w.line(&format!("const int gx = ({x_lo}) + col;"));
    w.line(&format!("const int gy = ({ys}) + row;"));
    w.line("tile[gy - (y0 - R)][gx - xs] = in[(size_t)z * pstride + (size_t)gy * stride + gx];");
    w.close("");
}

/// Emit the vertical variant's column loads: each thread walks the `R`
/// halo columns on both sides (the dependent chain that collapses at
/// high order — generated faithfully, not fixed).
fn emit_column_loads(w: &mut CWriter) {
    w.line("// side-halo columns, walked column-by-column (vertical variant)");
    w.raw("#pragma unroll");
    w.open("for (int dx = 0; dx < R; ++dx)");
    w.open("for (int e = tid; e < WY; e += NT)");
    w.line("const int gy = y0 + e;");
    w.line("const int gl = x0 - R + dx;");
    w.line("const int gr = x0 + WX + dx;");
    w.line("tile[gy - (y0 - R)][gl - xs] = in[(size_t)z * pstride + (size_t)gy * stride + gl];");
    w.line("tile[gy - (y0 - R)][gr - xs] = in[(size_t)z * pstride + (size_t)gy * stride + gr];");
    w.close("");
    w.close("");
}

/// Emit the routine-specific staging of plane `z` into the tile,
/// selected by the routine's declared [`LoadPattern`].
fn emit_stage_plane(w: &mut CWriter, spec: &KernelSpec, method: Method) {
    // When the halo is vector-aligned (R a multiple of VW) the tile
    // origin x0 is itself VW-aligned, so the interior-width slabs need
    // no alignment extension: the packed loads cover exactly WX
    // columns. Only misaligned halos fall back to the VW-extended
    // extent (one extra vector per row).
    let vw = vector_width(spec).max(1);
    let (ext_lo, ext_w): (&str, &str) = if spec.radius.is_multiple_of(vw) {
        ("x0", "WX")
    } else {
        ("(x0 / VW) * VW", "((WX / VW) + 1) * VW")
    };
    match method.load_pattern() {
        LoadPattern::ScalarRegions => {
            // Interior then the four arms, scalar (Fig 4 / Fig 6a).
            w.anchor("stage interior");
            emit_scalar_region_load(w, "y0", "WY", "x0", "WX");
            w.anchor("stage top halo");
            emit_scalar_region_load(w, "y0 - R", "R", "x0", "WX");
            w.anchor("stage bottom halo");
            emit_scalar_region_load(w, "y0 + WY", "R", "x0", "WX");
            w.anchor("stage left halo");
            emit_scalar_region_load(w, "y0", "WY", "x0 - R", "R");
            w.anchor("stage right halo");
            emit_scalar_region_load(w, "y0", "WY", "x0 + WX", "R");
        }
        LoadPattern::VerticalSlab => {
            // Merged slab (interior + top/bottom), then columns.
            w.anchor("stage vertical slab");
            emit_packed_rows_load(w, spec, "y0 - R", "SMEM_H", ext_lo, ext_w);
            w.anchor("stage halo columns");
            emit_column_loads(w);
        }
        LoadPattern::HorizontalRows => {
            // Full-width interior rows, then top/bottom rows (no corners).
            w.anchor("stage interior rows");
            emit_packed_rows_load(
                w,
                spec,
                "y0",
                "WY",
                "xs",
                "(((x0 + WX + R) - xs + VW - 1) / VW) * VW",
            );
            w.anchor("stage top halo");
            emit_packed_rows_load(w, spec, "y0 - R", "R", ext_lo, ext_w);
            w.anchor("stage bottom halo");
            emit_packed_rows_load(w, spec, "y0 + WY", "R", ext_lo, ext_w);
        }
        LoadPattern::FullSliceSweep => {
            // One uniform sweep over the whole halo-framed slab.
            w.anchor("stage full slice");
            emit_packed_rows_load(
                w,
                spec,
                "y0 - R",
                "SMEM_H",
                "xs",
                "(((x0 + WX + R) - xs + VW - 1) / VW) * VW",
            );
        }
    }
}

/// Generate the forward-plane kernel body (after the preamble).
fn emit_forward_body(w: &mut CWriter, spec: &KernelSpec) {
    let t = ctype(spec.precision());
    w.anchor("pipeline preload");
    w.line(&format!("{t} pipe[RY][RX][2 * R + 1];"));
    w.line("// Fill the z-pipeline with planes 0 .. 2R.");
    w.raw("#pragma unroll");
    w.open("for (int p = 0; p < RY; ++p)");
    w.raw("#pragma unroll");
    w.open("for (int q = 0; q < RX; ++q)");
    w.open("for (int d = 0; d <= 2 * R; ++d)");
    w.line("pipe[p][q][d] = in[(size_t)d * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)];");
    w.close("");
    w.close("");
    w.close("");
    w.blank();
    w.anchor("plane loop");
    w.open("for (int z = R; z < lz - R; ++z)");
    // Publish centre registers, then load halos from global memory.
    w.anchor("publish centre");
    w.raw("#pragma unroll");
    w.open("for (int p = 0; p < RY; ++p)");
    w.raw("#pragma unroll");
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
    w.line("__syncthreads();");
    w.blank();
    w.anchor("compute");
    w.raw("#pragma unroll");
    w.open("for (int p = 0; p < RY; ++p)");
    w.raw("#pragma unroll");
    w.open("for (int q = 0; q < RX; ++q)");
    w.line("const int cy = (ty + p * TY) + R;");
    w.line("const int cx = (x0 + tx + q * TX) - xs;");
    w.line(&format!("{t} acc = c_coeff[0] * tile[cy][cx];"));
    w.raw("#pragma unroll");
    w.open("for (int m = 1; m <= R; ++m)");
    w.line("acc += c_coeff[m] * (tile[cy][cx - m] + tile[cy][cx + m]");
    w.line("                   + tile[cy - m][cx] + tile[cy + m][cx]");
    w.line("                   + pipe[p][q][R - m] + pipe[p][q][R + m]);");
    w.close("");
    w.line("out[(size_t)z * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)] = acc;");
    w.close("");
    w.close("");
    w.blank();
    w.anchor("reuse barrier + pipeline shift");
    w.line("// Shift the pipeline and fetch the next forward plane.");
    w.line("__syncthreads();");
    w.open("if (z + 1 < lz - R)");
    w.raw("#pragma unroll");
    w.open("for (int p = 0; p < RY; ++p)");
    w.raw("#pragma unroll");
    w.open("for (int q = 0; q < RX; ++q)");
    w.raw("#pragma unroll");
    w.open("for (int d = 0; d < 2 * R; ++d)");
    w.line("pipe[p][q][d] = pipe[p][q][d + 1];");
    w.close("");
    w.line("pipe[p][q][2 * R] = in[(size_t)(z + R + 1) * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)];");
    w.close("");
    w.close("");
    w.close("");
    w.close(""); // z loop
}

/// Generate the in-plane kernel body (any variant) after the preamble.
fn emit_inplane_body(w: &mut CWriter, spec: &KernelSpec, method: Method) {
    let t = ctype(spec.precision());
    let sk = method.skeleton(spec.radius);
    w.anchor("pipeline preload");
    w.line(&format!("{t} zhist[RY][RX][R];"));
    w.line(&format!("{t} queue[RY][RX][R];"));
    w.line("// Trailing z-values: planes 0 .. R-1.");
    w.raw("#pragma unroll");
    w.open("for (int p = 0; p < RY; ++p)");
    w.raw("#pragma unroll");
    w.open("for (int q = 0; q < RX; ++q)");
    w.open("for (int d = 0; d < R; ++d)");
    w.line("zhist[p][q][d] = in[(size_t)d * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)];");
    w.line("queue[p][q][d] = ({0})0;".replace("{0}", t).as_str());
    w.close("");
    w.close("");
    w.close("");
    w.blank();
    w.anchor("plane loop");
    w.open("for (int z = R; z < lz; ++z)");
    if method.staging_buffers() == 2 {
        // Rotate the staging pair: stage into one buffer while the
        // previous plane's values stay live in the other (the
        // cuda-guide cp.async pipeline shape, without the async copy).
        w.line(&format!("{t} (*tile)[SMEM_W] = tile_pair[(z - R) & 1];"));
    }
    emit_stage_plane(w, spec, method);
    w.anchor("stage barrier");
    w.line("__syncthreads();");
    w.blank();
    w.anchor("compute");
    w.raw("#pragma unroll");
    w.open("for (int p = 0; p < RY; ++p)");
    w.raw("#pragma unroll");
    w.open("for (int q = 0; q < RX; ++q)");
    w.line("const int cy = (ty + p * TY) + R;");
    w.line("const int cx = (x0 + tx + q * TX) - xs;");
    w.line(&format!("const {t} centre = tile[cy][cx];"));
    w.line("// Step 2: the Eqn-(3) partial for plane z.");
    w.line(&format!("{t} part = c_coeff[0] * centre;"));
    w.raw("#pragma unroll");
    w.open("for (int m = 1; m <= R; ++m)");
    w.line("part += c_coeff[m] * (tile[cy][cx - m] + tile[cy][cx + m]");
    w.line("                    + tile[cy - m][cx] + tile[cy + m][cx]");
    w.line("                    + zhist[p][q][R - m]);");
    w.close("");
    w.line("// Step 3 (Eqn 5): fold c_d * centre into the queued partials.");
    w.raw("#pragma unroll");
    w.open("for (int d = 1; d <= R; ++d)");
    w.line("queue[p][q][d - 1] += c_coeff[d] * centre;");
    w.close("");
    w.line("// Step 4: plane z - R is complete.");
    w.open("if (z >= 2 * R && z - R < lz - R)");
    w.line("out[(size_t)(z - R) * pstride + (size_t)(y0 + ty + p * TY) * stride + (x0 + tx + q * TX)] = queue[p][q][R - 1];");
    w.close("");
    w.line("// Step 5: shift the queue and the z-history.");
    w.raw("#pragma unroll");
    w.open("for (int d = R - 1; d > 0; --d)");
    w.line("queue[p][q][d] = queue[p][q][d - 1];");
    w.close("");
    w.line("queue[p][q][0] = part;");
    w.raw("#pragma unroll");
    w.open("for (int d = 0; d + 1 < R; ++d)");
    w.line("zhist[p][q][d] = zhist[p][q][d + 1];");
    w.close("");
    w.line("zhist[p][q][R - 1] = centre;");
    w.close("");
    w.close("");
    if sk.barriers_per_plane == 2 {
        // Reuse barrier: the next plane overwrites the (single) tile.
        w.anchor("reuse barrier");
        w.line("__syncthreads();");
    }
    w.close(""); // z loop
}

/// Generate the CUDA source for `(spec, config)`.
///
/// ```
/// use inplane_core::{KernelSpec, LaunchConfig, Method, Variant};
/// use stencil_codegen::generate_kernel;
/// use stencil_grid::Precision;
///
/// let spec = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
/// let kernel = generate_kernel(&spec, &LaunchConfig::new(32, 4, 1, 4));
/// assert!(kernel.source.contains("__global__"));
/// assert!(kernel.source.contains("float4")); // vectorised loads
/// assert_eq!(kernel.block, (32, 4));
/// ```
///
/// # Panics
/// Panics if the spec is a multi-grid kernel (code generation covers the
/// star kernels the paper tunes) or if `TX` is not a multiple of the
/// vector width for a vectorised variant.
pub fn generate_kernel(spec: &KernelSpec, config: &LaunchConfig) -> GeneratedKernel {
    assert_eq!(
        (spec.streamed_inputs, spec.coeff_inputs, spec.outputs),
        (1, 0, 1),
        "code generation covers single-grid star kernels"
    );
    let vw = vector_width(spec);
    assert!(
        config.tile_x().is_multiple_of(vw),
        "tile width must be a multiple of the vector width"
    );
    let name = spec.method.kernel_fn_name().to_string();

    let mut w = CWriter::new();
    emit_defines(&mut w, spec, config, vw);
    emit_preamble(&mut w, spec, &name);
    match spec.method.skeleton(spec.radius).compute {
        ComputeShape::Direct => emit_forward_body(&mut w, spec),
        ComputeShape::Pipelined => emit_inplane_body(&mut w, spec, spec.method),
    }
    w.close(""); // function
    let (source, anchors) = w.finish_with_anchors();

    // Static shared tile size in bytes, mirroring the SMEM_W/SMEM_H
    // defines, times the routine's staging-buffer count.
    let smem_w = config.tile_x() + 2 * spec.radius + 2 * vw;
    let smem_h = config.tile_y() + 2 * spec.radius;
    GeneratedKernel {
        source,
        name,
        smem_bytes: smem_w * smem_h * spec.elem_bytes * spec.method.staging_buffers(),
        block: (config.tx, config.ty),
        grid_for,
        anchors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cwriter::count_occurrences;
    use inplane_core::Variant;

    fn spec(method: Method, order: usize, p: Precision) -> KernelSpec {
        KernelSpec::star_order(method, order, p)
    }

    fn cfg() -> LaunchConfig {
        LaunchConfig::new(32, 4, 1, 2)
    }

    #[test]
    fn all_registered_routines_generate_balanced_source() {
        for method in Method::ALL {
            for p in [Precision::Single, Precision::Double] {
                let k = generate_kernel(&spec(method, 4, p), &cfg());
                assert_eq!(
                    count_occurrences(&k.source, "{"),
                    count_occurrences(&k.source, "}"),
                    "{method:?} {p:?}: unbalanced braces"
                );
                assert!(k.source.contains("extern \"C\" __global__ void"));
                assert!(k.source.contains(&k.name));
                assert!(k.source.contains("__restrict__"));
            }
        }
    }

    #[test]
    fn barriers_per_plane_follow_the_skeleton() {
        // The emulator's invariant: stage barrier + reuse barrier for the
        // single-buffer routines; the double-buffered routine drops the
        // reuse barrier (the pair absorbs it).
        for method in [Method::ForwardPlane, Method::InPlane(Variant::FullSlice)] {
            let k = generate_kernel(&spec(method, 4, Precision::Single), &cfg());
            assert_eq!(
                count_occurrences(&k.source, "__syncthreads()"),
                2,
                "{method:?}"
            );
        }
        let db = generate_kernel(
            &spec(
                Method::InPlane(Variant::DoubleBuffered),
                4,
                Precision::Single,
            ),
            &cfg(),
        );
        assert_eq!(count_occurrences(&db.source, "__syncthreads()"), 1);
    }

    #[test]
    fn double_buffered_emits_the_rotating_pair() {
        let db = generate_kernel(
            &spec(
                Method::InPlane(Variant::DoubleBuffered),
                4,
                Precision::Single,
            ),
            &cfg(),
        );
        assert!(db
            .source
            .contains("__shared__ float tile_pair[2][SMEM_H][SMEM_W];"));
        assert!(db.source.contains("tile_pair[(z - R) & 1]"));
        assert_eq!(db.name, "stencil_inplane_dblbuf");
        // Doubled staging footprint vs the single-buffer full-slice
        // routine at the same spec.
        let fs = generate_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single),
            &cfg(),
        );
        assert_eq!(db.smem_bytes, 2 * fs.smem_bytes);
    }

    #[test]
    fn pipeline_depths_match_the_methods() {
        let fwd = generate_kernel(&spec(Method::ForwardPlane, 6, Precision::Single), &cfg());
        assert!(fwd.source.contains("pipe[RY][RX][2 * R + 1]"));
        let inp = generate_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 6, Precision::Single),
            &cfg(),
        );
        assert!(inp.source.contains("queue[RY][RX][R]"));
        assert!(inp.source.contains("zhist[RY][RX][R]"));
    }

    #[test]
    fn vectorised_variants_use_vector_loads() {
        let fs = generate_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 2, Precision::Single),
            &cfg(),
        );
        assert!(fs.source.contains("float4"));
        assert!(fs.source.contains("#define VW 4"));
        let dp = generate_kernel(
            &spec(Method::InPlane(Variant::Horizontal), 2, Precision::Double),
            &cfg(),
        );
        assert!(dp.source.contains("double2"));
        assert!(dp.source.contains("#define VW 2"));
        // The scalar baseline never casts to vector types.
        let nv = generate_kernel(&spec(Method::ForwardPlane, 2, Precision::Single), &cfg());
        assert!(!nv.source.contains("float4"));
        assert!(nv.source.contains("#define VW 1"));
    }

    #[test]
    fn vertical_walks_halo_columns() {
        let v = generate_kernel(
            &spec(Method::InPlane(Variant::Vertical), 8, Precision::Single),
            &cfg(),
        );
        assert!(v.source.contains("for (int dx = 0; dx < R; ++dx)"));
        // Full-slice has no per-column loop.
        let fs = generate_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 8, Precision::Single),
            &cfg(),
        );
        assert!(!fs.source.contains("for (int dx = 0"));
    }

    #[test]
    fn defines_carry_the_tuned_configuration() {
        let c = LaunchConfig::new(128, 2, 2, 4);
        let k = generate_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single),
            &c,
        );
        for d in [
            "#define TX 128",
            "#define TY 2",
            "#define RX 2",
            "#define RY 4",
            "#define R 2",
        ] {
            assert!(k.source.contains(d), "missing {d}");
        }
        assert_eq!(k.block, (128, 2));
        assert_eq!((k.grid_for)(512, 512, &c), (2, 64));
    }

    #[test]
    fn smem_bytes_accounts_alignment_slack() {
        let c = cfg(); // 32x4, rx 1, ry 2 -> tile 32x8
        let k = generate_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single),
            &c,
        );
        // (32 + 4 + 8) x (8 + 4) x 4 bytes.
        assert_eq!(k.smem_bytes, 44 * 12 * 4);
    }

    #[test]
    fn constant_coefficients_declared() {
        let k = generate_kernel(
            &spec(Method::InPlane(Variant::FullSlice), 12, Precision::Double),
            &cfg(),
        );
        assert!(k.source.contains("__constant__ double c_coeff[R + 1];"));
    }

    #[test]
    fn aligned_halo_slabs_stay_exact() {
        // r = 4 with VW = 4 (SP vectorised): x0 is VW-aligned, so the
        // slab loads exactly WX columns — no alignment extension.
        let v = generate_kernel(
            &spec(Method::InPlane(Variant::Vertical), 8, Precision::Single),
            &cfg(),
        );
        assert!(!v.source.contains("((WX / VW) + 1) * VW"));
        // r = 2 with VW = 4: misaligned halo, the extension is needed.
        let v2 = generate_kernel(
            &spec(Method::InPlane(Variant::Vertical), 4, Precision::Single),
            &cfg(),
        );
        assert!(v2.source.contains("((WX / VW) + 1) * VW"));
    }

    #[test]
    fn anchors_label_the_emission_phases() {
        let k = generate_kernel(&spec(Method::ForwardPlane, 4, Precision::Single), &cfg());
        let labels: Vec<_> = k.anchors.iter().map(|a| a.label).collect();
        for want in ["defines", "preamble", "stage barrier", "compute"] {
            assert!(labels.contains(&want), "missing anchor {want}");
        }
        assert!(k.anchors.windows(2).all(|p| p[0].line <= p[1].line));
        assert!(k.anchors.last().unwrap().line <= k.source.lines().count());
    }

    #[test]
    #[should_panic(expected = "single-grid star kernels")]
    fn multigrid_specs_rejected() {
        let mut s = spec(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
        s.coeff_inputs = 3;
        generate_kernel(&s, &cfg());
    }
}
