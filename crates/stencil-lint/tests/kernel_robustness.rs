//! Never-panic, never-hang property for the kernel verifier: whatever
//! text arrives, `verify_kernel_source_on` returns — through the lexer,
//! the `#define` expander, the parser, name resolution and the
//! interpreter — with either a clean result or `LNT-K…` findings. The
//! per-thread step budget bounds the time of a kernel that does run.
//!
//! Two input kinds: arbitrary bytes (read as lossy UTF-8), which mostly
//! stop in the front end, and emitted kernels with a few random byte
//! edits, which mostly parse and reach the interpreter. Fixed cases pin
//! declared extents whose element counts overflow `i64` or exceed the
//! interpreter's bound, and a `#define` chain whose expansion doubles
//! at every level.

mod common;

use common::{apply_edits, METHODS};
use gpu_sim::DeviceSpec;
use inplane_core::{KernelSpec, LaunchConfig};
use proptest::prelude::*;
use stencil_codegen::{generate_kernel, generate_opencl_kernel_full};
use stencil_grid::Precision;
use stencil_lint::{verify_kernel_source_on, Diagnostic};

struct Case {
    spec: KernelSpec,
    config: LaunchConfig,
    source: String,
    name: String,
}

fn case(method_idx: usize, order: usize, opencl: bool) -> Case {
    let method = METHODS[method_idx % METHODS.len()];
    let spec = KernelSpec::star_order(method, order, Precision::Single);
    let config = LaunchConfig::new(8, 2, 1, 2);
    let (source, name) = if opencl && method.opencl_supported() {
        let k = generate_opencl_kernel_full(&spec, &config);
        (k.source, k.name)
    } else {
        let k = generate_kernel(&spec, &config);
        (k.source, k.name)
    };
    Case {
        spec,
        config,
        source,
        name,
    }
}

/// Verify `source` as an implementation of `c` over a one-block grid.
fn verify(c: &Case, source: &str) -> Vec<Diagnostic> {
    let r = c.spec.radius;
    let dims = (
        2 * r + c.config.tile_x(),
        2 * r + c.config.tile_y(),
        2 * r + 2,
    );
    verify_kernel_source_on(
        source,
        &c.name,
        &[],
        &c.spec,
        &c.config,
        dims,
        &DeviceSpec::gtx580(),
    )
}

fn only_k_codes(diags: &[Diagnostic]) -> bool {
    diags.iter().all(|d| d.code.starts_with("LNT-K"))
}

/// Insert `decl` as the first statement of the kernel body.
fn with_decl(source: &str, decl: &str) -> String {
    let sig = source.find("void ").expect("a kernel function");
    let open = sig + source[sig..].find('{').expect("a kernel body");
    format!("{}\n{decl}{}", &source[..=open], &source[open + 1..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_end_in_k_findings(
        bytes in prop::collection::vec(any::<u8>(), 0..400),
        method_idx in 0usize..6,
    ) {
        let c = case(method_idx, 2, false);
        let source = String::from_utf8_lossy(&bytes);
        let diags = verify(&c, &source);
        prop_assert!(only_k_codes(&diags), "{diags:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edited_kernels_end_clean_or_in_k_findings(
        method_idx in 0usize..6,
        order in prop::sample::select(vec![2usize, 4]),
        opencl in any::<bool>(),
        edits in prop::collection::vec((any::<u64>(), any::<u8>(), 0u8..4), 1..4),
    ) {
        let c = case(method_idx, order, opencl);
        let source = apply_edits(&c.source, &edits);
        let diags = verify(&c, &source);
        prop_assert!(only_k_codes(&diags), "{edits:?}: {diags:?}");
    }
}

/// Each declaration must end in a K006 naming the implausible extent,
/// with no panic on the way.
fn assert_implausible(decls: &str) {
    for opencl in [false, true] {
        let c = case(4, 2, opencl);
        let diags = verify(&c, &with_decl(&c.source, decls));
        assert!(
            diags
                .iter()
                .any(|d| d.code == "LNT-K006" && d.message.contains("implausible extent")),
            "{decls}: {diags:?}"
        );
        assert!(only_k_codes(&diags), "{diags:?}");
    }
}

#[test]
fn local_extent_overflowing_i64_is_k006() {
    assert_implausible("float a[4294967296][4294967296];");
}

#[test]
fn shared_extent_overflowing_i64_is_k006() {
    assert_implausible("__shared__ float a[4294967296][4294967296];");
}

#[test]
fn shared_space_overflowing_i64_is_k006() {
    assert_implausible(
        "__shared__ float a[3037000499][3037000499];\n__shared__ float b[3037000499][3037000499];",
    );
}

#[test]
fn self_doubling_define_chain_is_k006() {
    // 30 levels of `#define Mi M(i+1) M(i+1)` would expand `M0` to 2^30
    // tokens; expansion stops at its bound instead.
    let c = case(0, 2, false);
    let chain: String = (0..30)
        .map(|i| format!("#define M{i} M{} M{}\n", i + 1, i + 1))
        .collect();
    let source = c.source.replacen("R + 1", "M0", 1);
    assert_ne!(source, c.source);
    let diags = verify(&c, &format!("{chain}{source}"));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "LNT-K006");
    assert!(diags[0].message.contains("#define expansion"), "{diags:?}");
}
