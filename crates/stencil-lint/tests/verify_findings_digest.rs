//! Byte-identity gate for the kernel verifier: every finding it emits
//! over a fixed corpus of pristine and mutated kernels, folded in order
//! into one FNV-1a digest and pinned.
//!
//! The corpus crosses every routine of `Method::ALL` with the CUDA
//! backend and, where the routine has a port, the OpenCL backend;
//! stencil orders 2 (single precision) and 4 (double precision, so the
//! two-lane vector loads are covered too); launch configurations
//! `(8,2,1,2)` and `(16,2,1,1)`; and a one-block and a 2×1-block grid.
//! Each cell verifies the pristine source and then one mutant per site
//! of the tamper suite's mutation universe, so the digest covers clean
//! proofs as well as K001–K006 findings with their messages, positions,
//! thread ids and emitter phases.
//!
//! Any change to what the verifier reports — a finding added, dropped,
//! reordered or reworded — changes the digest. An interpreter rewrite
//! that keeps the pinned value reports exactly what the old one did.

mod common;

use common::{apply, collect_sites, CUDA_BARRIER_STMT, METHODS, OPENCL_BARRIER_STMT};
use gpu_sim::{fnv1a_bytes, fnv1a_word, DeviceSpec, FNV_OFFSET_BASIS};
use inplane_core::{KernelSpec, LaunchConfig};
use stencil_codegen::{generate_kernel, generate_opencl_kernel_full};
use stencil_grid::Precision;
use stencil_lint::verify_kernel_source_on;

/// The digest of the corpus below, computed with the tree-walking
/// interpreter the flat one replaced.
const PINNED_DIGEST: u64 = 0xa845_77c8_19ba_104d;

/// Number of `verify_kernel_source_on` calls the corpus makes.
const PINNED_CASES: u64 = 1056;

#[test]
fn verifier_findings_match_the_pinned_digest() {
    let gtx580 = DeviceSpec::gtx580();
    let mut digest = FNV_OFFSET_BASIS;
    let mut cases = 0u64;
    let mut findings = 0u64;
    for method in METHODS {
        for opencl in [false, true] {
            if opencl && !method.opencl_supported() {
                continue;
            }
            for (order, precision) in [(2, Precision::Single), (4, Precision::Double)] {
                let spec = KernelSpec::star_order(method, order, precision);
                for config in [
                    LaunchConfig::new(8, 2, 1, 2),
                    LaunchConfig::new(16, 2, 1, 1),
                ] {
                    let (source, name, anchors, barrier_stmt) = if opencl {
                        let k = generate_opencl_kernel_full(&spec, &config);
                        (k.source, k.name, k.anchors, OPENCL_BARRIER_STMT)
                    } else {
                        let k = generate_kernel(&spec, &config);
                        (k.source, k.name, k.anchors, CUDA_BARRIER_STMT)
                    };
                    let sites = collect_sites(&source, barrier_stmt);
                    let mutants = sites
                        .iter()
                        .filter_map(|&site| apply(&source, site, barrier_stmt));
                    let sources: Vec<String> =
                        std::iter::once(source.clone()).chain(mutants).collect();
                    let r = spec.radius;
                    for gx in [1, 2] {
                        let dims = (
                            2 * r + gx * config.tile_x(),
                            2 * r + config.tile_y(),
                            2 * r + 2,
                        );
                        for src in &sources {
                            let diags = verify_kernel_source_on(
                                src, &name, &anchors, &spec, &config, dims, &gtx580,
                            );
                            cases += 1;
                            findings += diags.len() as u64;
                            fnv1a_word(&mut digest, diags.len() as u64);
                            for d in &diags {
                                fnv1a_bytes(&mut digest, d.to_json().as_bytes());
                                fnv1a_bytes(&mut digest, b"\n");
                            }
                        }
                    }
                }
            }
        }
    }
    eprintln!("{cases} verifications, {findings} findings, digest {digest:#018x}");
    assert_eq!(cases, PINNED_CASES, "the corpus itself changed");
    assert_eq!(
        digest, PINNED_DIGEST,
        "verifier findings differ from the pinned corpus digest"
    );
}
