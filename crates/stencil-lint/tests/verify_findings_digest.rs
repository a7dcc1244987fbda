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
//! A second corpus verifies randomly edited kernels on multi-warp
//! blocks, where one block holds threads that fail at different
//! statements: races, divergent barriers, exhausted budgets and
//! evaluation errors whose order and thread ids the digest pins. Random
//! byte edits almost never make a loop run away, so each cell also
//! verifies one seeded runaway edit: a strided staging loop whose step
//! is zero for the threads of one residue class of `tid`.
//!
//! Any change to what the verifier reports — a finding added, dropped,
//! reordered or reworded — changes the digest. An interpreter rewrite
//! that keeps the pinned value reports exactly what the old one did.

mod common;

use common::{
    apply, apply_edits, collect_sites, Edit, CUDA_BARRIER_STMT, METHODS, OPENCL_BARRIER_STMT,
};
use gpu_sim::{fnv1a_bytes, fnv1a_word, DeviceSpec, FNV_OFFSET_BASIS};
use inplane_core::{KernelSpec, LaunchConfig};
use stencil_codegen::{generate_kernel, generate_opencl_kernel_full};
use stencil_grid::Precision;
use stencil_lint::verify_kernel_source_on;
use stencil_lint::Diagnostic;

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

/// The digest of the edited-kernel corpus below, computed with the
/// thread-by-thread interpreter.
const PINNED_EDITED_DIGEST: u64 = 0x1188_9c35_6278_1584;

/// Number of `verify_kernel_source_on` calls the edited corpus makes.
const PINNED_EDITED_CASES: u64 = 1312;

/// Edited sources per (routine, backend, order, configuration) cell.
const EDITS_PER_CELL: usize = 40;

/// The staging loops' step as the emitters write it.
const STRIDED_STEP: &str = "+= NT)";

/// The splitmix64 stream that draws the edited corpus.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `source` with one strided loop's step zeroed for the threads
    /// with `tid % k == j`, for a drawn loop, `k` and `j`.
    fn runaway(&mut self, source: &str) -> String {
        let loops = source.matches(STRIDED_STEP).count() as u64;
        let (at, _) = source
            .match_indices(STRIDED_STEP)
            .nth((self.next() % loops) as usize)
            .expect("emitted kernels stage with strided loops");
        let k = 2 + self.next() % 4;
        let j = self.next() % k;
        format!(
            "{}+= NT * (tid % {k} != {j})){}",
            &source[..at],
            &source[at + STRIDED_STEP.len()..]
        )
    }

    /// One to three edits, the same shape the robustness property draws.
    fn edits(&mut self) -> Vec<Edit> {
        let n = 1 + self.next() % 3;
        (0..n)
            .map(|_| (self.next(), self.next() as u8, (self.next() % 4) as u8))
            .collect()
    }
}

/// Thread ids a finding's message names (`thread 3 …`, `threads 1 and
/// 5 …`).
fn named_threads(d: &Diagnostic) -> Vec<u64> {
    let words: Vec<&str> = d.message.split(' ').collect();
    let mut ids = Vec::new();
    for (i, w) in words.iter().enumerate() {
        if *w == "thread" || *w == "threads" || *w == "and" {
            if let Some(id) = words
                .get(i + 1)
                .and_then(|n| n.trim_end_matches(':').parse().ok())
            {
                ids.push(id);
            }
        }
    }
    ids
}

#[test]
fn edited_multi_warp_kernels_match_the_pinned_digest() {
    let gtx580 = DeviceSpec::gtx580();
    let mut rng = SplitMix(0x5eed_2021);
    let mut digest = FNV_OFFSET_BASIS;
    let (mut cases, mut findings) = (0u64, 0u64);
    let (mut races, mut divergences, mut budgets, mut multi_thread) = (0u64, 0u64, 0u64, 0u64);
    for method in METHODS {
        for opencl in [false, true] {
            if opencl && !method.opencl_supported() {
                continue;
            }
            for (order, precision) in [(2, Precision::Single), (4, Precision::Double)] {
                let spec = KernelSpec::star_order(method, order, precision);
                for config in [
                    LaunchConfig::new(32, 4, 1, 2),
                    LaunchConfig::new(16, 2, 1, 1),
                ] {
                    let (source, name, anchors) = if opencl {
                        let k = generate_opencl_kernel_full(&spec, &config);
                        (k.source, k.name, k.anchors)
                    } else {
                        let k = generate_kernel(&spec, &config);
                        (k.source, k.name, k.anchors)
                    };
                    let r = spec.radius;
                    for i in 0..=EDITS_PER_CELL {
                        let src = if i == EDITS_PER_CELL {
                            rng.runaway(&source)
                        } else {
                            apply_edits(&source, &rng.edits())
                        };
                        let gx = 1 + (rng.next() % 2) as usize;
                        let dims = (
                            2 * r + gx * config.tile_x(),
                            2 * r + config.tile_y(),
                            2 * r + 2,
                        );
                        let diags = verify_kernel_source_on(
                            &src, &name, &anchors, &spec, &config, dims, &gtx580,
                        );
                        cases += 1;
                        findings += diags.len() as u64;
                        let mut threads: Vec<u64> = diags.iter().flat_map(named_threads).collect();
                        threads.sort_unstable();
                        threads.dedup();
                        multi_thread += (threads.len() > 1) as u64;
                        for d in &diags {
                            races += (d.code == "LNT-K004") as u64;
                            divergences += (d.code == "LNT-K003") as u64;
                            budgets += d.message.contains("budget exhausted") as u64;
                        }
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
    eprintln!(
        "{cases} verifications, {findings} findings ({races} K004, {divergences} K003, \
         {budgets} budget, {multi_thread} cases naming several threads), digest {digest:#018x}"
    );
    assert!(races > 0 && divergences > 0 && budgets > 0 && multi_thread > 0);
    assert_eq!(cases, PINNED_EDITED_CASES, "the corpus itself changed");
    assert_eq!(
        digest, PINNED_EDITED_DIGEST,
        "verifier findings differ from the pinned edited-corpus digest"
    );
}
