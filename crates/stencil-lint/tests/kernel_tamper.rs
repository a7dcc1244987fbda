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

use gpu_sim::DeviceSpec;
use inplane_core::{KernelSpec, LaunchConfig, Method, Variant};
use proptest::prelude::*;
use stencil_codegen::{generate_kernel, generate_opencl_kernel_full};
use stencil_grid::Precision;
use stencil_lint::{verify_kernel_source_on, Severity};

const METHODS: [Method; 6] = [
    Method::ForwardPlane,
    Method::InPlane(Variant::Classical),
    Method::InPlane(Variant::Vertical),
    Method::InPlane(Variant::Horizontal),
    Method::InPlane(Variant::FullSlice),
    Method::InPlane(Variant::DoubleBuffered),
];

const CUDA_BARRIER_STMT: &str = "__syncthreads();";
const OPENCL_BARRIER_STMT: &str = "barrier(CLK_LOCAL_MEM_FENCE);";

/// One candidate mutation.
#[derive(Clone, Copy, Debug)]
enum Site {
    /// Bump the decimal numeral in `source[start..end]` by one.
    Digit { start: usize, end: usize },
    /// Delete the `idx`-th barrier statement.
    BarrierDrop { idx: usize },
    /// Duplicate the `idx`-th barrier statement.
    BarrierDup { idx: usize },
}

/// Byte mask of positions inside `//` or `/* */` comments.
fn comment_mask(src: &str) -> Vec<bool> {
    let b = src.as_bytes();
    let mut mask = vec![false; b.len()];
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                mask[i] = true;
                i += 1;
            }
        } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            mask[i] = true;
            mask[i + 1] = true;
            i += 2;
            while i < b.len() && !(b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/') {
                mask[i] = true;
                i += 1;
            }
            if i + 1 < b.len() {
                mask[i] = true;
                mask[i + 1] = true;
                i += 2;
            }
        } else {
            i += 1;
        }
    }
    mask
}

fn is_word(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Standalone decimal runs in `src[span]` (not part of an identifier or
/// float literal, not commented), pushed as absolute byte ranges.
fn digit_runs(src: &str, span: std::ops::Range<usize>, mask: &[bool], out: &mut Vec<Site>) {
    let b = src.as_bytes();
    let mut i = span.start;
    while i < span.end {
        if b[i].is_ascii_digit() && !mask[i] {
            let start = i;
            while i < span.end && b[i].is_ascii_digit() {
                i += 1;
            }
            let before_ok = start == 0 || (!is_word(b[start - 1]) && b[start - 1] != b'.');
            let after_ok = i >= b.len() || (!is_word(b[i]) && b[i] != b'.');
            if before_ok && after_ok {
                out.push(Site::Digit { start, end: i });
            }
        } else {
            i += 1;
        }
    }
}

/// Every mutation site in one kernel source.
fn collect_sites(src: &str, barrier_stmt: &str) -> Vec<Site> {
    let mask = comment_mask(src);
    let b = src.as_bytes();
    let mut sites = Vec::new();

    // `#define` lines: any standalone numeral.
    let mut line_start = 0;
    for (i, ch) in src.bytes().enumerate().chain([(src.len(), b'\n')]) {
        if ch == b'\n' {
            let line = &src[line_start..i];
            if line.trim_start().starts_with("#define") && !mask[line_start] {
                digit_runs(src, line_start..i, &mask, &mut sites);
            }
            line_start = i + 1;
        }
    }

    // Numerals inside subscript chains of the memory bases the verifier
    // reasons about.
    for base in ["in", "out", "tile", "tile_pair", "dst"] {
        for (at, _) in src.match_indices(base) {
            if mask[at]
                || (at > 0 && is_word(b[at - 1]))
                || at + base.len() >= b.len()
                || is_word(b[at + base.len()])
            {
                continue;
            }
            // Walk the whole [..][..]… chain that follows.
            let mut i = at + base.len();
            loop {
                while i < b.len() && (b[i] == b' ' || b[i] == b'\t') {
                    i += 1;
                }
                if i >= b.len() || b[i] != b'[' {
                    break;
                }
                let open = i;
                let mut depth = 0usize;
                while i < b.len() {
                    match b[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                digit_runs(src, open..i, &mask, &mut sites);
                i += 1;
            }
        }
    }

    // Barriers: each occurrence can be dropped or duplicated.
    let barriers = src.match_indices(barrier_stmt).count();
    for idx in 0..barriers {
        sites.push(Site::BarrierDrop { idx });
        sites.push(Site::BarrierDup { idx });
    }
    sites
}

/// Apply one mutation; `None` if it would leave the source unchanged.
fn apply(src: &str, site: Site, barrier_stmt: &str) -> Option<String> {
    match site {
        Site::Digit { start, end } => {
            let n: u64 = src[start..end].parse().ok()?;
            let mutated = format!("{}{}{}", &src[..start], n + 1, &src[end..]);
            (mutated != src).then_some(mutated)
        }
        Site::BarrierDrop { idx } | Site::BarrierDup { idx } => {
            let at = src.match_indices(barrier_stmt).nth(idx)?.0;
            let replacement = if matches!(site, Site::BarrierDrop { .. }) {
                String::new()
            } else {
                format!("{barrier_stmt} {barrier_stmt}")
            };
            Some(format!(
                "{}{}{}",
                &src[..at],
                replacement,
                &src[at + barrier_stmt.len()..]
            ))
        }
    }
}

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
