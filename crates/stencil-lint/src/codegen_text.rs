//! Text-level lint over generated CUDA/OpenCL kernel source.
//!
//! The plan-level passes prove properties of the *abstract* schedule;
//! this pass re-checks the ones that must survive into the emitted text:
//!
//! * `LNT-T001` — exactly the routine's proven barrier count per plane
//!   (`__syncthreads()` in CUDA, `barrier(CLK_LOCAL_MEM_FENCE)` in
//!   OpenCL): two for the single-buffer routines, one for the
//!   double-buffered routine whose staging pair absorbs the reuse
//!   barrier;
//! * `LNT-T002` — balanced braces (a malformed emitter never compiles);
//! * `LNT-T003` — the `#define` constants agree with the launch
//!   configuration, radius and vector width the kernel was generated
//!   for;
//! * `LNT-T004` — the staged halo index cannot exceed the shared tile
//!   width: for every vector-alignment lead `0 ≤ lead < VW`, the staged
//!   span `ceil((lead + WX + 2R) / VW) · VW` fits `SMEM_W`;
//! * `LNT-T005` — the build metadata's declared shared-memory bytes
//!   agree with the `SMEM_W × SMEM_H` formula in the source;
//! * `LNT-T101` (warning) — the static tile including alignment slack
//!   exceeds the device's per-SM capacity. A warning, not an error:
//!   configurations near the 48 KB edge are model-feasible (the §IV-C
//!   constraint uses the slack-free slab) yet their generated kernel
//!   would fail to launch — exactly the kind of gap a lint exists to
//!   surface without changing the tuning-space semantics.
//!
//! The `#define`s are actually *parsed and evaluated* (a tiny integer
//! expression evaluator over `+ - * /` and parentheses), so tampering
//! with derived macros like `SMEM_W` is caught, not just literal drift.

use crate::diag::Diagnostic;
use gpu_sim::DeviceSpec;
use inplane_core::resources::vector_width;
use inplane_core::{KernelSpec, LaunchConfig};
use std::collections::HashMap;
use stencil_codegen::GeneratedKernel;

/// CUDA's per-plane barrier token.
pub const CUDA_BARRIER: &str = "__syncthreads()";
/// OpenCL's per-plane barrier token.
pub const OPENCL_BARRIER: &str = "barrier(CLK_LOCAL_MEM_FENCE)";

/// Count `needle` as a token sequence, so occurrences inside comments
/// and string literals are ignored. Falls back to a raw substring count
/// only when the source does not lex (a malformed kernel still gets a
/// best-effort barrier figure alongside its other findings).
fn count_occurrences(haystack: &str, needle: &str) -> usize {
    crate::kernelir::count_token_occurrences(haystack, needle)
        .unwrap_or_else(|| haystack.match_indices(needle).count())
}

/// Extract `#define NAME <expr>` pairs from the source.
///
/// Goes through the [`crate::kernelir`] lexer, so a `#define` sitting
/// inside a comment can never shadow a real one; the raw line scan only
/// backstops source that does not lex.
fn parse_defines(source: &str) -> HashMap<String, String> {
    if let Ok(lexed) = crate::kernelir::lexer::lex(source) {
        let mut out = HashMap::new();
        for (name, body) in lexed.defines {
            let expr = body
                .iter()
                .map(|t| match &t.kind {
                    crate::kernelir::lexer::TokKind::Ident(s) => s.clone(),
                    crate::kernelir::lexer::TokKind::Num(n) => n.to_string(),
                    crate::kernelir::lexer::TokKind::Str => "\"\"".to_string(),
                    crate::kernelir::lexer::TokKind::P(p) => (*p).to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ");
            out.insert(name, expr);
        }
        return out;
    }
    let mut out = HashMap::new();
    for line in source.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("#define ") {
            let mut parts = rest.splitn(2, char::is_whitespace);
            if let (Some(name), Some(expr)) = (parts.next(), parts.next()) {
                out.insert(name.to_string(), expr.trim().to_string());
            }
        }
    }
    out
}

/// Evaluate an integer macro expression (`+ - * /`, parentheses,
/// identifiers resolved through `defines`). `None` on malformed input,
/// unresolvable identifiers, division by zero or `i64` overflow.
fn eval_expr(expr: &str, defines: &HashMap<String, String>, depth: usize) -> Option<i64> {
    if depth > 16 {
        return None; // recursive macro
    }
    let tokens = tokenize(expr)?;
    let (v, rest) = parse_sum(&tokens, defines, depth)?;
    if rest.is_empty() {
        Some(v)
    } else {
        None
    }
}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Num(i64),
    Ident(String),
    Op(char),
}

fn tokenize(expr: &str) -> Option<Vec<Tok>> {
    let mut out = Vec::new();
    let mut chars = expr.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' => {
                chars.next();
            }
            '0'..='9' => {
                let mut n = 0i64;
                while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                    n = n.checked_mul(10)?.checked_add(d as i64)?;
                    chars.next();
                }
                out.push(Tok::Num(n));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let mut s = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Ident(s));
            }
            '+' | '-' | '*' | '/' | '(' | ')' => {
                out.push(Tok::Op(c));
                chars.next();
            }
            _ => return None,
        }
    }
    Some(out)
}

fn parse_sum<'t>(
    toks: &'t [Tok],
    defines: &HashMap<String, String>,
    depth: usize,
) -> Option<(i64, &'t [Tok])> {
    let (mut acc, mut rest) = parse_product(toks, defines, depth)?;
    while let Some(Tok::Op(op @ ('+' | '-'))) = rest.first() {
        let (rhs, next) = parse_product(&rest[1..], defines, depth)?;
        acc = if *op == '+' {
            acc.checked_add(rhs)?
        } else {
            acc.checked_sub(rhs)?
        };
        rest = next;
    }
    Some((acc, rest))
}

fn parse_product<'t>(
    toks: &'t [Tok],
    defines: &HashMap<String, String>,
    depth: usize,
) -> Option<(i64, &'t [Tok])> {
    let (mut acc, mut rest) = parse_atom(toks, defines, depth)?;
    while let Some(Tok::Op(op @ ('*' | '/'))) = rest.first() {
        let (rhs, next) = parse_atom(&rest[1..], defines, depth)?;
        acc = if *op == '*' {
            acc.checked_mul(rhs)?
        } else {
            acc.checked_div(rhs)?
        };
        rest = next;
    }
    Some((acc, rest))
}

fn parse_atom<'t>(
    toks: &'t [Tok],
    defines: &HashMap<String, String>,
    depth: usize,
) -> Option<(i64, &'t [Tok])> {
    match toks.first()? {
        Tok::Num(n) => Some((*n, &toks[1..])),
        Tok::Ident(name) => {
            let body = defines.get(name)?;
            Some((eval_expr(body, defines, depth + 1)?, &toks[1..]))
        }
        Tok::Op('(') => {
            let (v, rest) = parse_sum(&toks[1..], defines, depth)?;
            match rest.first() {
                Some(Tok::Op(')')) => Some((v, &rest[1..])),
                _ => None,
            }
        }
        Tok::Op('-') => {
            let (v, rest) = parse_atom(&toks[1..], defines, depth)?;
            Some((v.checked_neg()?, rest))
        }
        _ => None,
    }
}

/// Shared text checks for one kernel source.
fn lint_source(
    source: &str,
    barrier_token: &str,
    spec: &KernelSpec,
    config: &LaunchConfig,
    device: Option<&DeviceSpec>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // T001: exactly the routine's proven barrier count per plane.
    let want_barriers = spec.method.skeleton(spec.radius).barriers_per_plane;
    let barriers = count_occurrences(source, barrier_token);
    if barriers != want_barriers {
        diags.push(
            Diagnostic::error(
                "LNT-T001",
                format!(
                    "source issues {barriers} `{barrier_token}` barriers, the schedule proves {want_barriers}"
                ),
            )
            .with("barriers", barriers)
            .with("want", want_barriers),
        );
    }

    // T002: balanced braces.
    let open = source.chars().filter(|&c| c == '{').count();
    let close = source.chars().filter(|&c| c == '}').count();
    if open != close {
        diags.push(
            Diagnostic::error(
                "LNT-T002",
                format!("source has {open} opening vs {close} closing braces"),
            )
            .with("open", open)
            .with("close", close),
        );
    }

    // T003: #define constants agree with the generation parameters.
    let defines = parse_defines(source);
    let vw = vector_width(spec).max(1);
    let expected: [(&str, i64); 6] = [
        ("TX", config.tx as i64),
        ("TY", config.ty as i64),
        ("RX", config.rx as i64),
        ("RY", config.ry as i64),
        ("R", spec.radius as i64),
        ("VW", vw as i64),
    ];
    for (name, want) in expected {
        match defines.get(name).and_then(|e| eval_expr(e, &defines, 0)) {
            Some(got) if got == want => {}
            Some(got) => {
                diags.push(
                    Diagnostic::error(
                        "LNT-T003",
                        format!("#define {name} evaluates to {got}, configuration says {want}"),
                    )
                    .with("define", name)
                    .with("got", got)
                    .with("want", want),
                );
            }
            None => {
                diags.push(
                    Diagnostic::error(
                        "LNT-T003",
                        format!("#define {name} is missing or not evaluable"),
                    )
                    .with("define", name),
                );
            }
        }
    }

    // T004 / T101 need the evaluated tile macros.
    let smem_w = defines
        .get("SMEM_W")
        .and_then(|e| eval_expr(e, &defines, 0));
    let smem_h = defines
        .get("SMEM_H")
        .and_then(|e| eval_expr(e, &defines, 0));
    let wx = defines.get("WX").and_then(|e| eval_expr(e, &defines, 0));
    if let (Some(smem_w), Some(wx)) = (smem_w, wx) {
        // T004: the staged span must fit the tile row for every possible
        // vector lead of the tile origin.
        let r = spec.radius as i64;
        let v = vw as i64;
        for lead in 0..v {
            let span = (lead + wx + 2 * r + v - 1) / v * v;
            if span > smem_w {
                diags.push(
                    Diagnostic::error(
                        "LNT-T004",
                        format!(
                            "staged span {span} exceeds SMEM_W = {smem_w} at vector lead {lead}"
                        ),
                    )
                    .with("span", span)
                    .with("smem_w", smem_w)
                    .with("lead", lead),
                );
                break;
            }
        }
    }
    if let (Some(smem_w), Some(smem_h), Some(dev)) = (smem_w, smem_h, device) {
        let bytes = smem_w * smem_h * spec.elem_bytes as i64 * spec.method.staging_buffers() as i64;
        if bytes > dev.smem_per_sm as i64 {
            diags.push(
                Diagnostic::warning(
                    "LNT-T101",
                    format!(
                        "static tile of {bytes} B (with alignment slack) exceeds {}'s {} B shared memory",
                        dev.name, dev.smem_per_sm
                    ),
                )
                .with("smem_bytes", bytes)
                .with("limit", dev.smem_per_sm),
            );
        }
    }

    diags
}

/// Lint generated CUDA source text against its generation parameters.
pub fn lint_cuda_source(
    source: &str,
    spec: &KernelSpec,
    config: &LaunchConfig,
    device: Option<&DeviceSpec>,
) -> Vec<Diagnostic> {
    lint_source(source, CUDA_BARRIER, spec, config, device)
}

/// Lint generated OpenCL source text against its generation parameters.
pub fn lint_opencl_source(
    source: &str,
    spec: &KernelSpec,
    config: &LaunchConfig,
    device: Option<&DeviceSpec>,
) -> Vec<Diagnostic> {
    lint_source(source, OPENCL_BARRIER, spec, config, device)
}

/// Lint a [`GeneratedKernel`]: the source text checks plus `LNT-T005`
/// (build metadata vs in-source shared-memory formula).
pub fn lint_cuda(
    kernel: &GeneratedKernel,
    spec: &KernelSpec,
    config: &LaunchConfig,
    device: Option<&DeviceSpec>,
) -> Vec<Diagnostic> {
    let mut diags = lint_cuda_source(&kernel.source, spec, config, device);

    let defines = parse_defines(&kernel.source);
    let smem_w = defines
        .get("SMEM_W")
        .and_then(|e| eval_expr(e, &defines, 0));
    let smem_h = defines
        .get("SMEM_H")
        .and_then(|e| eval_expr(e, &defines, 0));
    if let (Some(w), Some(h)) = (smem_w, smem_h) {
        let formula = w * h * spec.elem_bytes as i64 * spec.method.staging_buffers() as i64;
        if formula != kernel.smem_bytes as i64 {
            diags.push(
                Diagnostic::error(
                    "LNT-T005",
                    format!(
                        "metadata declares {} B of shared memory, the SMEM_W x SMEM_H formula gives {formula} B",
                        kernel.smem_bytes
                    ),
                )
                .with("declared", kernel.smem_bytes)
                .with("formula", formula),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::has_errors;
    use inplane_core::{Method, Variant};
    use stencil_codegen::{generate_kernel, generate_opencl_kernel};
    use stencil_grid::Precision;

    fn spec(method: Method, order: usize, p: Precision) -> KernelSpec {
        KernelSpec::star_order(method, order, p)
    }

    #[test]
    fn expression_evaluator() {
        let mut defs = HashMap::new();
        defs.insert("TX".to_string(), "32".to_string());
        defs.insert("RX".to_string(), "2".to_string());
        defs.insert("WX".to_string(), "(TX * RX)".to_string());
        assert_eq!(eval_expr("WX + 2 * 3", &defs, 0), Some(70));
        assert_eq!(eval_expr("(WX + 2) * 3", &defs, 0), Some(198));
        assert_eq!(eval_expr("WX / 4 - 1", &defs, 0), Some(15));
        assert_eq!(eval_expr("-WX", &defs, 0), Some(-64));
        assert_eq!(eval_expr("UNKNOWN + 1", &defs, 0), None);
        assert_eq!(eval_expr("1 +", &defs, 0), None);
        defs.insert("LOOP".to_string(), "LOOP + 1".to_string());
        assert_eq!(eval_expr("LOOP", &defs, 0), None, "recursive macro");
    }

    #[test]
    fn overflowing_expressions_evaluate_to_none() {
        let defs = HashMap::new();
        for expr in [
            "(-9223372036854775807 - 1) / -1",
            "-(-9223372036854775807 - 1)",
            "9223372036854775807 * 2",
            "9223372036854775807 + 1",
            "(-9223372036854775807) - 2",
            "1 / 0",
        ] {
            assert_eq!(eval_expr(expr, &defs, 0), None, "{expr}");
        }
        assert_eq!(
            eval_expr("-9223372036854775807 - 1", &defs, 0),
            Some(i64::MIN)
        );
    }

    #[test]
    fn generated_cuda_kernels_lint_clean() {
        let dev = DeviceSpec::gtx580();
        for method in Method::ALL {
            for p in [Precision::Single, Precision::Double] {
                for order in [2usize, 8] {
                    let s = spec(method, order, p);
                    let c = LaunchConfig::new(32, 4, 1, 2);
                    let k = generate_kernel(&s, &c);
                    let d = lint_cuda(&k, &s, &c, Some(&dev));
                    assert!(
                        d.is_empty(),
                        "{method:?} {p:?} order {order}: {:?}",
                        d.iter().map(|x| x.render()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn generated_opencl_kernels_lint_clean() {
        let dev = DeviceSpec::gtx580();
        for method in [Method::ForwardPlane, Method::InPlane(Variant::FullSlice)] {
            for p in [Precision::Single, Precision::Double] {
                let s = spec(method, 4, p);
                let c = LaunchConfig::new(32, 4, 1, 2);
                let src = generate_opencl_kernel(&s, &c);
                let d = lint_opencl_source(&src, &s, &c, Some(&dev));
                assert!(
                    d.is_empty(),
                    "{method:?} {p:?}: {:?}",
                    d.iter().map(|x| x.render()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn missing_barrier_is_t001() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        let tampered = k.source.replacen("__syncthreads();", "", 1);
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T001"), "{d:?}");
    }

    #[test]
    fn commented_out_barrier_is_not_counted() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);

        // Commenting a barrier out removes it from the count: the raw
        // substring scan used to still see the token and stay silent.
        let tampered = k
            .source
            .replacen("__syncthreads();", "// __syncthreads();", 1);
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T001"), "{d:?}");

        // Conversely a barrier mentioned inside a comment adds nothing.
        let padded = format!("// reminder: __syncthreads();\n{}", k.source);
        let d = lint_cuda_source(&padded, &s, &c, None);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn commented_define_cannot_shadow_the_real_one() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        // A define inside a trailing block comment used to win the
        // line-scan's last-insert race and fake an LNT-T003.
        let padded = format!("{}\n/*\n#define TX 64\n*/\n", k.source);
        let d = lint_cuda_source(&padded, &s, &c, None);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn double_buffered_extra_barrier_is_t001() {
        // The db schedule proves ONE barrier per plane; a stray reuse
        // barrier (the single-buffer habit) must be flagged too.
        let s = spec(
            Method::InPlane(Variant::DoubleBuffered),
            4,
            Precision::Single,
        );
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        let tampered =
            k.source
                .replacen("__syncthreads();", "__syncthreads();\n__syncthreads();", 1);
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T001"), "{d:?}");
    }

    #[test]
    fn unbalanced_braces_is_t002() {
        let s = spec(Method::ForwardPlane, 2, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 1);
        let k = generate_kernel(&s, &c);
        let tampered = format!("{}}}", k.source);
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T002"), "{d:?}");
    }

    #[test]
    fn wrong_define_is_t003() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        let tampered = k.source.replace("#define TX 32", "#define TX 64");
        let d = lint_cuda_source(&tampered, &s, &c, None);
        let t003: Vec<_> = d.iter().filter(|x| x.code == "LNT-T003").collect();
        assert!(!t003.is_empty(), "{d:?}");
        assert!(t003[0].message.contains("TX"));
    }

    #[test]
    fn shrunken_tile_width_is_t004() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let k = generate_kernel(&s, &c);
        // Drop the alignment slack entirely: a lead-in of VW-1 now
        // overruns the staged row.
        let tampered = k.source.replace(
            "#define SMEM_W (WX + 2 * R + 2 * VW)",
            "#define SMEM_W (WX + 2 * R)",
        );
        let d = lint_cuda_source(&tampered, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T004"), "{d:?}");
    }

    #[test]
    fn metadata_smem_mismatch_is_t005() {
        let s = spec(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let c = LaunchConfig::new(32, 4, 1, 2);
        let mut k = generate_kernel(&s, &c);
        k.smem_bytes += 128;
        let d = lint_cuda(&k, &s, &c, None);
        assert!(d.iter().any(|x| x.code == "LNT-T005"), "{d:?}");
    }

    #[test]
    fn near_capacity_tile_is_t101_warning_only() {
        // (176, 4, 2, 8): model slab (354 x 34) x 4 B = 48144 <= 49152,
        // but the static tile with alignment slack is 362 x 34 x 4 =
        // 49232 B > 48 KB — the lint must warn without erroring.
        let s = spec(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
        let c = LaunchConfig::new(176, 4, 2, 8);
        let k = generate_kernel(&s, &c);
        let dev = DeviceSpec::gtx580();
        let d = lint_cuda(&k, &s, &c, Some(&dev));
        assert!(d.iter().any(|x| x.code == "LNT-T101"), "{d:?}");
        assert!(!has_errors(&d), "T101 must stay a warning: {d:?}");
    }
}
