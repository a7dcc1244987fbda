//! The symbolic kernel verifier: prove the *emitted* CUDA/OpenCL
//! source correct by abstract interpretation of its AST (`LNT-K…`).
//!
//! The plan-level passes prove the abstract schedule; this pass closes
//! the gap to the text the paper actually compiles. The kernel source
//! is parsed by [`crate::kernelir`] into a typed AST and executed
//! thread-by-thread with concrete index arithmetic and
//! provenance-hashed data values, parameterized by the same
//! `(TX, TY, RX, RY, radius, VW, grid dims)` tuple the tuner
//! enumerates. Per configuration the verifier proves:
//!
//! * **K001** — every shared/local array access lands inside its
//!   declared extents;
//! * **K002** — every global access lands inside the padded buffer and
//!   vector loads are lane-aligned;
//! * **K003** — every thread executes the *same* barrier sequence (no
//!   barrier under divergent control flow), and the total count equals
//!   the routine's proven schedule (`barriers_per_plane × trips`) — a
//!   dropped *or* duplicated barrier both fail;
//! * **K004** — between consecutive barriers, no two writes to the
//!   same shared cell carry different values and no cross-thread
//!   read-write pair touches the same cell (write-write of the *same*
//!   staged value is benign — the vertical slab's overlap);
//! * **K005** — the per-plane global-load cell and coalesced-segment
//!   figures re-derived from the AST's load events equal
//!   [`crate::traffic::predict_kernel_traffic_on`] exactly (over the
//!   device's `coalesce_segment_bytes` — 64-byte segments on wave64/GCN
//!   parts), and the store total equals
//!   [`crate::traffic::predict_stats`]' `global_writes` — the
//!   traffic oracle proven three ways (interpreter = plan walk =
//!   emitted text);
//! * **K006** — the source stays inside the verified subset: it
//!   parses, declares the routine's exact array shapes, evaluates
//!   without error and terminates within the step budget.
//!
//! Diagnostics carry line/column positions and, when the generated
//! kernel's [`SourceAnchor`]s are supplied, the emitter phase the
//! finding lands in (`phase = stage left halo`).

use crate::diag::Diagnostic;
use crate::kernelir::lexer::Pos;
use crate::kernelir::{parse_kernel, run_block, BlockEvents, LaunchEnv, Violation, ViolationKind};
use crate::traffic::{
    padded_stride_on, predict_kernel_traffic_on, predict_stats, row_transactions, KernelTraffic,
};
use gpu_sim::DeviceSpec;
use inplane_core::plan::lower_step;
use inplane_core::resources::vector_width;
use inplane_core::{ComputeShape, KernelSpec, LaunchConfig};
use std::collections::{BTreeMap, HashSet};
use stencil_codegen::{generate_kernel, generate_opencl_kernel_full, SourceAnchor};

/// Generate the CUDA kernel for `(spec, config)` and verify it against
/// `dims` (full halo-framed extents; the interior must tile exactly)
/// and `device`'s coalescing geometry: the abstract interpreter runs
/// with the segment-padded host stride and K005 re-derives transactions
/// over `device.coalesce_segment_bytes` segments. The emitted text is
/// the same on every device — kernels take `stride`/`pstride` as
/// runtime arguments.
pub fn verify_cuda_kernel_on(
    spec: &KernelSpec,
    config: &LaunchConfig,
    dims: (usize, usize, usize),
    device: &DeviceSpec,
) -> Vec<Diagnostic> {
    let k = generate_kernel(spec, config);
    verify_kernel_source_on(&k.source, &k.name, &k.anchors, spec, config, dims, device)
}

/// Generate the OpenCL kernel for `(spec, config)` and verify it like
/// [`verify_cuda_kernel_on`].
///
/// # Panics
/// Panics for routines without an OpenCL port (`opencl_supported`
/// false), like the generator itself.
pub fn verify_opencl_kernel_on(
    spec: &KernelSpec,
    config: &LaunchConfig,
    dims: (usize, usize, usize),
    device: &DeviceSpec,
) -> Vec<Diagnostic> {
    let k = generate_opencl_kernel_full(spec, config);
    verify_kernel_source_on(&k.source, &k.name, &k.anchors, spec, config, dims, device)
}

/// Verify arbitrary kernel `source` claiming to implement
/// `(spec, config)` over `dims` against `device`'s coalescing geometry.
/// `expected_name` is the routine's kernel function name; `anchors`
/// (possibly empty) label emitter phases for diagnostics.
///
/// `dims` must tile exactly — interior extents positive multiples of
/// the tile, `nz >= 2r + 1` — or the result is a single `LNT-K006`
/// naming the failed condition.
pub fn verify_kernel_source_on(
    source: &str,
    expected_name: &str,
    anchors: &[SourceAnchor],
    spec: &KernelSpec,
    config: &LaunchConfig,
    dims: (usize, usize, usize),
    device: &DeviceSpec,
) -> Vec<Diagnostic> {
    let seg = device.coalesce_segment_bytes;
    let r = spec.radius as i64;
    let vw = vector_width(spec).max(1) as i64;
    let (wx, wy) = (config.tile_x() as i64, config.tile_y() as i64);
    let (nx, ny, nz) = (dims.0 as i64, dims.1 as i64, dims.2 as i64);
    let untiled = if !(nx > 2 * r && (nx - 2 * r) % wx == 0) {
        Some("interior x extent must be a positive multiple of the tile width")
    } else if !(ny > 2 * r && (ny - 2 * r) % wy == 0) {
        Some("interior y extent must be a positive multiple of the tile height")
    } else if nz <= 2 * r {
        Some("nz must cover the full stencil depth")
    } else {
        None
    };
    if let Some(condition) = untiled {
        return vec![Diagnostic::error("LNT-K006", condition)
            .with("dims", format!("{}x{}x{}", dims.0, dims.1, dims.2))];
    }

    let mut diags = Vec::new();
    let kernel = match parse_kernel(source) {
        Ok(k) => k,
        Err(e) => {
            diags.push(
                Diagnostic::error("LNT-K006", format!("kernel does not parse: {}", e.msg))
                    .with("line", e.pos.line)
                    .with("col", e.pos.col),
            );
            return diags;
        }
    };

    if kernel.name != expected_name {
        diags.push(
            Diagnostic::error(
                "LNT-K006",
                format!(
                    "kernel function is named {:?}, routine expects {:?}",
                    kernel.name, expected_name
                ),
            )
            .with("expected", expected_name),
        );
    }
    check_shapes(&kernel, spec, config, vw, &mut diags);
    if !diags.is_empty() {
        // Ill-shaped declarations make interpretation meaningless
        // (every index check would compare against the wrong extents).
        return diags;
    }

    let sk = spec.method.skeleton(spec.radius);
    let stride = padded_stride_on(dims.0, spec.elem_bytes, device) as i64;
    let (gx, gy) = ((nx - 2 * r) / wx, (ny - 2 * r) / wy);
    let env = LaunchEnv {
        block: (config.tx as i64, config.ty as i64),
        grid: (gx, gy),
        nx,
        ny,
        nz,
        stride,
        pstride: stride * ny,
        coeff_len: r + 1,
        step_budget: step_budget(spec, config, nz),
    };

    let mut derived = KernelTraffic {
        word_bytes: spec.elem_bytes as u64,
        ..KernelTraffic::default()
    };
    let mut seen: HashSet<(ViolationKind, Pos)> = HashSet::new();
    let mut barriers_executed: Option<usize> = None;
    for by in 0..gy {
        for bx in 0..gx {
            let events = run_block(&kernel, &env, bx, by);
            for v in &events.violations {
                if seen.insert((v.kind, v.pos)) {
                    diags.push(violation_diag(v, anchors));
                }
            }
            let n = events.barrier_trace.len();
            barriers_executed = Some(barriers_executed.map_or(n, |m| m.max(n)));
            accumulate_traffic(&events, &env, &mut derived, seg);
        }
    }

    // K003, count side: the schedule proves exactly
    // barriers_per_plane × trips barriers per thread.
    let trips = (nz - r - sk.sweep_tail as i64).max(0) as usize;
    let expected_barriers = sk.barriers_per_plane * trips;
    if barriers_executed != Some(expected_barriers) {
        diags.push(
            Diagnostic::error(
                "LNT-K003",
                "executed barrier count deviates from the proven schedule".to_string(),
            )
            .with("executed", barriers_executed.unwrap_or(0))
            .with("expected", expected_barriers)
            .with("barriers_per_plane", sk.barriers_per_plane)
            .with("trips", trips),
        );
    }

    // K005: only meaningful for kernels that executed cleanly.
    if diags.is_empty() {
        let plan = lower_step(spec.method, config, spec.radius, dims);
        let oracle = predict_kernel_traffic_on(&plan, spec, device);
        compare_traffic(&derived, &oracle, &mut diags);
        let stats = predict_stats(&plan);
        if derived.total_store_cells() != stats.global_writes {
            diags.push(
                Diagnostic::error(
                    "LNT-K005",
                    "total stores disagree with the plan oracle's global_writes".to_string(),
                )
                .with("kernel", derived.total_store_cells())
                .with("plan", stats.global_writes),
            );
        }
    }
    diags
}

/// K006 shape checks: the routine's exact shared/local array shapes,
/// derived from the spec and config — *not* from the kernel's own
/// `#define`s, so a tampered define cannot vouch for itself.
fn check_shapes(
    kernel: &crate::kernelir::ast::Kernel,
    spec: &KernelSpec,
    config: &LaunchConfig,
    vw: i64,
    diags: &mut Vec<Diagnostic>,
) {
    let r = spec.radius as i64;
    let smem_w = config.tile_x() as i64 + 2 * r + 2 * vw;
    let smem_h = config.tile_y() as i64 + 2 * r;
    let (rx, ry) = (config.rx as i64, config.ry as i64);

    let mut expect_shared = |name: &str, dims: Vec<i64>| {
        let found = kernel
            .syms
            .lookup(name)
            .and_then(|s| kernel.shared.iter().find(|d| d.name == s));
        match found {
            None => diags.push(Diagnostic::error(
                "LNT-K006",
                format!("missing shared array {name:?}"),
            )),
            Some(d) if d.dims != dims => diags.push(
                Diagnostic::error(
                    "LNT-K006",
                    format!(
                        "shared array {name:?} has shape {:?}, expected {dims:?}",
                        d.dims
                    ),
                )
                .with("line", d.pos.line),
            ),
            Some(_) => {}
        }
    };
    if spec.method.staging_buffers() == 2 {
        expect_shared("tile_pair", vec![2, smem_h, smem_w]);
    } else {
        expect_shared("tile", vec![smem_h, smem_w]);
    }

    let mut expect_local = |name: &str, dims: Vec<i64>| {
        let found = kernel
            .syms
            .lookup(name)
            .and_then(|s| kernel.local_arrays.iter().find(|(n, _)| *n == s));
        match found {
            None => diags.push(Diagnostic::error(
                "LNT-K006",
                format!("missing per-thread array {name:?}"),
            )),
            Some((_, d)) if *d != dims => diags.push(Diagnostic::error(
                "LNT-K006",
                format!("per-thread array {name:?} has shape {d:?}, expected {dims:?}"),
            )),
            Some(_) => {}
        }
    };
    match spec.method.skeleton(spec.radius).compute {
        ComputeShape::Direct => expect_local("pipe", vec![ry, rx, 2 * r + 1]),
        ComputeShape::Pipelined => {
            expect_local("zhist", vec![ry, rx, r]);
            expect_local("queue", vec![ry, rx, r]);
        }
    }

    // CUDA kernels declare the constant coefficient array; its extent
    // must be exactly r + 1. (OpenCL passes coefficients as an
    // argument — no declaration to check.)
    if let Some(n) = kernel.coeff_len {
        if n != r + 1 {
            diags.push(
                Diagnostic::error(
                    "LNT-K006",
                    format!("coefficient array has extent {n}, expected R + 1"),
                )
                .with("expected", r + 1),
            );
        }
    }
}

/// A per-thread statement budget generous enough for any correct
/// kernel at these parameters, but tight enough that a runaway loop is
/// caught quickly.
fn step_budget(spec: &KernelSpec, config: &LaunchConfig, nz: i64) -> u64 {
    let r = spec.radius as u64;
    let vw = vector_width(spec).max(1) as u64;
    let smem = (config.tile_x() as u64 + 2 * r + 2 * vw) * (config.tile_y() as u64 + 2 * r);
    let nt = (config.tx * config.ty) as u64;
    let per_plane = 12 * (2 * smem / nt + 2) + (config.rx * config.ry) as u64 * (8 * r + 48);
    (nz as u64 + 2) * per_plane * 8 + 4096
}

/// Map one interpreter violation to its catalogued diagnostic.
fn violation_diag(v: &Violation, anchors: &[SourceAnchor]) -> Diagnostic {
    let code = match v.kind {
        ViolationKind::SharedOob | ViolationKind::LocalOob => "LNT-K001",
        ViolationKind::GlobalOob => "LNT-K002",
        ViolationKind::BarrierDivergence => "LNT-K003",
        ViolationKind::SharedRace => "LNT-K004",
        ViolationKind::Eval | ViolationKind::Budget => "LNT-K006",
    };
    let mut d = Diagnostic::error(code, v.detail.clone())
        .with("line", v.pos.line)
        .with("col", v.pos.col);
    if let Some(label) = phase_of(anchors, v.pos.line as usize) {
        d = d.with("phase", label);
    }
    d
}

/// The innermost emitter phase at or above `line`.
fn phase_of(anchors: &[SourceAnchor], line: usize) -> Option<&'static str> {
    anchors
        .iter()
        .rev()
        .find(|a| a.line <= line)
        .map(|a| a.label)
}

/// Fold one block's load/store events into the derived per-plane
/// traffic map. Loads are grouped per (site, buffer row) — distinct
/// blocks issue distinct transactions, so grouping never crosses a
/// block — then maximal contiguous runs are counted with the same
/// segment arithmetic as the oracle.
fn accumulate_traffic(events: &BlockEvents, env: &LaunchEnv, out: &mut KernelTraffic, seg: u64) {
    let mut rows: BTreeMap<(Pos, i64), Vec<i64>> = BTreeMap::new();
    for a in &events.loads {
        for lane in 0..a.len as i64 {
            let addr = a.addr + lane;
            rows.entry((a.pos, addr / env.stride))
                .or_default()
                .push(addr);
        }
    }
    for ((_site, _row), mut addrs) in rows {
        addrs.sort_unstable();
        let plane = (addrs[0] / env.pstride) as u64;
        let entry = out.loads.entry(plane).or_default();
        entry.cells += addrs.len() as u64;
        let (mut start, mut prev) = (addrs[0], addrs[0]);
        for &a in &addrs[1..] {
            if a == prev + 1 {
                prev = a;
                continue;
            }
            // A duplicate or a gap both end the run; duplicates inflate
            // the transaction count and fail the K005 comparison.
            entry.transactions +=
                row_transactions(start as u64, (prev - start + 1) as u64, out.word_bytes, seg);
            start = a;
            prev = a;
        }
        entry.transactions +=
            row_transactions(start as u64, (prev - start + 1) as u64, out.word_bytes, seg);
    }
    for s in &events.stores {
        for lane in 0..s.len as i64 {
            *out.stores
                .entry(((s.addr + lane) / env.pstride) as u64)
                .or_insert(0) += 1;
        }
    }
}

/// K005: exact per-plane equality of the derived and predicted maps.
fn compare_traffic(derived: &KernelTraffic, oracle: &KernelTraffic, diags: &mut Vec<Diagnostic>) {
    if derived == oracle {
        return;
    }
    const MAX_PLANE_DIAGS: usize = 4;
    let mut reported = 0usize;
    let planes: std::collections::BTreeSet<u64> = derived
        .loads
        .keys()
        .chain(oracle.loads.keys())
        .chain(derived.stores.keys())
        .chain(oracle.stores.keys())
        .copied()
        .collect();
    for p in planes {
        let d_load = derived.loads.get(&p).copied().unwrap_or_default();
        let o_load = oracle.loads.get(&p).copied().unwrap_or_default();
        let d_store = derived.stores.get(&p).copied().unwrap_or(0);
        let o_store = oracle.stores.get(&p).copied().unwrap_or(0);
        if d_load == o_load && d_store == o_store {
            continue;
        }
        if reported == MAX_PLANE_DIAGS {
            diags.push(Diagnostic::error(
                "LNT-K005",
                "further planes disagree with the traffic oracle (truncated)".to_string(),
            ));
            return;
        }
        reported += 1;
        diags.push(
            Diagnostic::error(
                "LNT-K005",
                format!("plane {p} traffic disagrees with the static oracle"),
            )
            .with("plane", p)
            .with("kernel_cells", d_load.cells)
            .with("oracle_cells", o_load.cells)
            .with("kernel_transactions", d_load.transactions)
            .with("oracle_transactions", o_load.transactions)
            .with("kernel_stores", d_store)
            .with("oracle_stores", o_store),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

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

    #[test]
    fn generated_cuda_kernels_verify_clean() {
        for method in Method::ALL {
            let spec = KernelSpec::star_order(method, 4, Precision::Single);
            let config = LaunchConfig::new(8, 2, 1, 2);
            let dims = dims_for(&spec, &config, 1, 1);
            let diags = verify_cuda_kernel_on(&spec, &config, dims, &DeviceSpec::gtx580());
            assert!(diags.is_empty(), "{method}: {:?}", diags);
        }
    }

    #[test]
    fn generated_opencl_kernels_verify_clean() {
        for method in [Method::ForwardPlane, Method::InPlane(Variant::FullSlice)] {
            let spec = KernelSpec::star_order(method, 4, Precision::Double);
            let config = LaunchConfig::new(8, 2, 1, 2);
            let dims = dims_for(&spec, &config, 2, 1);
            let diags = verify_opencl_kernel_on(&spec, &config, dims, &DeviceSpec::gtx580());
            assert!(diags.is_empty(), "{method}: {:?}", diags);
        }
    }

    #[test]
    fn generated_kernels_verify_clean_on_wave64_geometry() {
        // The same emitted text must pass the three-way proof under
        // the 64-byte segment geometry: kernels take stride/pstride as
        // runtime arguments, so only the abstract launch env changes.
        let hd7970 = gpu_sim::DeviceSpec::hd7970();
        for method in Method::ALL {
            let spec = KernelSpec::star_order(method, 4, Precision::Single);
            let config = LaunchConfig::new(8, 2, 1, 2);
            let dims = dims_for(&spec, &config, 1, 1);
            let diags = verify_cuda_kernel_on(&spec, &config, dims, &hd7970);
            assert!(diags.is_empty(), "{method}: {:?}", diags);
        }
        let spec =
            KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Double);
        let config = LaunchConfig::new(8, 2, 1, 2);
        let dims = dims_for(&spec, &config, 2, 1);
        let diags = verify_opencl_kernel_on(&spec, &config, dims, &hd7970);
        assert!(diags.is_empty(), "{:?}", diags);
    }

    #[test]
    fn dropped_barrier_is_flagged() {
        let spec =
            KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let config = LaunchConfig::new(8, 2, 1, 2);
        let k = generate_kernel(&spec, &config);
        let tampered = k.source.replacen("__syncthreads();", "", 1);
        let dims = dims_for(&spec, &config, 1, 1);
        let diags = verify_kernel_source_on(
            &tampered,
            &k.name,
            &k.anchors,
            &spec,
            &config,
            dims,
            &DeviceSpec::gtx580(),
        );
        assert!(
            diags.iter().any(|d| d.code.starts_with("LNT-K")),
            "{diags:?}"
        );
    }

    #[test]
    fn unparseable_source_is_k006() {
        let spec = KernelSpec::star_order(Method::ForwardPlane, 2, Precision::Single);
        let config = LaunchConfig::new(8, 2, 1, 1);
        let dims = dims_for(&spec, &config, 1, 1);
        let diags = verify_kernel_source_on(
            "void broken(",
            "stencil_forward_plane",
            &[],
            &spec,
            &config,
            dims,
            &DeviceSpec::gtx580(),
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "LNT-K006");
    }

    #[test]
    fn wrong_kernel_name_is_k006() {
        let spec = KernelSpec::star_order(Method::ForwardPlane, 2, Precision::Single);
        let config = LaunchConfig::new(8, 2, 1, 1);
        let k = generate_kernel(&spec, &config);
        let dims = dims_for(&spec, &config, 1, 1);
        let diags = verify_kernel_source_on(
            &k.source,
            "some_other_name",
            &k.anchors,
            &spec,
            &config,
            dims,
            &DeviceSpec::gtx580(),
        );
        assert!(diags.iter().any(|d| d.code == "LNT-K006"), "{diags:?}");
    }

    #[test]
    fn untiled_dims_are_k006_not_a_panic() {
        let spec = KernelSpec::star_order(Method::ForwardPlane, 2, Precision::Single);
        // Interior 8 is not a multiple of the 32-wide tile.
        let config = LaunchConfig::new(32, 1, 1, 1);
        let diags = verify_cuda_kernel_on(&spec, &config, (10, 10, 10), &DeviceSpec::gtx580());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "LNT-K006");
        assert!(diags[0].message.contains("tile width"), "{diags:?}");
        // Each extent reports its own condition.
        let config = LaunchConfig::new(8, 2, 1, 1);
        let y = verify_cuda_kernel_on(&spec, &config, (10, 9, 10), &DeviceSpec::gtx580());
        assert!(y[0].message.contains("tile height"), "{y:?}");
        let z = verify_cuda_kernel_on(&spec, &config, (10, 10, 2), &DeviceSpec::gtx580());
        assert!(z[0].message.contains("stencil depth"), "{z:?}");
        let tiny = verify_cuda_kernel_on(&spec, &config, (0, 0, 0), &DeviceSpec::gtx580());
        assert_eq!(tiny[0].code, "LNT-K006");
    }

    #[test]
    fn shifted_refill_plane_breaks_the_oracle() {
        // Mutate the forward refill to fetch plane z + R + 2: every
        // address stays representable, but the per-plane map shifts —
        // only K005 (or a final-plane K002) can catch it.
        let spec = KernelSpec::star_order(Method::ForwardPlane, 2, Precision::Single);
        let config = LaunchConfig::new(8, 2, 1, 1);
        let k = generate_kernel(&spec, &config);
        let tampered = k.source.replace("(z + R + 1)", "(z + R + 2)");
        assert_ne!(tampered, k.source);
        let dims = dims_for(&spec, &config, 1, 1);
        let diags = verify_kernel_source_on(
            &tampered,
            &k.name,
            &k.anchors,
            &spec,
            &config,
            dims,
            &DeviceSpec::gtx580(),
        );
        assert!(
            diags
                .iter()
                .any(|d| d.code == "LNT-K005" || d.code == "LNT-K002"),
            "{diags:?}"
        );
    }

    #[test]
    fn phase_labels_attach_to_findings() {
        let anchors = [
            SourceAnchor {
                label: "defines",
                line: 1,
            },
            SourceAnchor {
                label: "compute",
                line: 40,
            },
        ];
        assert_eq!(phase_of(&anchors, 1), Some("defines"));
        assert_eq!(phase_of(&anchors, 39), Some("defines"));
        assert_eq!(phase_of(&anchors, 400), Some("compute"));
    }
}
