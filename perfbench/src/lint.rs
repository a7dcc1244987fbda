//! `lint-verify`: the static-analysis sweep with the kernel verifier on.
//!
//! Each op is one `lint_configs_opts(verify_kernels: true)` call over a
//! contiguous 4-config slice of the §IV-C enumeration (one `(TX, TY,
//! RX)`, every `RY`), on one worker. The slices cover the `TY ≤ 4` or
//! `TY ≤ 5` prefix of a few `TX` bands of three (device, kernel,
//! precision) triples, in enumeration order, so feasible configurations
//! cluster as they do in a full sweep and some slices hold none. A run
//! repeats the 100-slice list a fixed number of times in a seeded order.
//! The traced run also times the slices on [`PAR_WORKERS`] workers to
//! measure the parallel map.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::loadplan::plan_for_device_on;
use inplane_core::plan::lower_step;
use inplane_core::resources::vector_width;
use inplane_core::{KernelSpec, LaunchConfig, Method, Variant};
use rayon::prelude::*;
use stencil_codegen::{generate_kernel, generate_opencl_kernel};
use stencil_grid::Precision;
use stencil_lint::sweep::{enumerate_configs, lint_configs_opts, ConfigLint, LintOptions};
use stencil_lint::{
    analyze_plan, check_coalescing, check_coverage, check_schedule, explain_feasibility,
    has_errors, lint_cuda, lint_opencl_source, verify_cuda_kernel_on, verify_opencl_kernel_on,
    Diagnostic, Severity,
};

use crate::stats::{
    best_us, median, panic_message, peak_rss_mb, pins, quantile, reset_peak_rss, run_repeats,
    shuffled, timed, Digest, Report,
};

/// Parallel-map workers of the timed runs. One: on a 2-vCPU host, two
/// workers per op measured the host's scheduler more than the program.
/// Five runs alternating between the two spread work_per_s by 0.17
/// (IQR ÷ median) on two workers and by 0.05 on one.
pub const WORKERS: usize = 1;
/// Parallel-map workers of the traced run's efficiency probe (the
/// reference box's core count).
const PAR_WORKERS: usize = 2;
/// Configurations per op: one `(TX, TY, RX)`, every `RY`.
const SLICE_LEN: usize = 4;
const VERIFY: LintOptions = LintOptions {
    verify_kernels: true,
};

/// One op's input: a contiguous slice of one triple's enumeration.
pub struct Slice {
    device: DeviceSpec,
    kernel: KernelSpec,
    configs: Vec<LaunchConfig>,
}

/// The fixed slice list: `(device, kernel, TX bands, TY range)` per
/// triple — a 32-wide NVIDIA part, the wave64 HD 7970 and a DP triple.
pub fn slices() -> Vec<Slice> {
    let star4 = |p| KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, p);
    let triples = [
        (
            DeviceSpec::gtx580(),
            star4(Precision::Single),
            &[16, 32][..],
            4,
        ),
        (DeviceSpec::hd7970(), star4(Precision::Single), &[32][..], 5),
        (
            DeviceSpec::c2070(),
            star4(Precision::Double),
            &[16, 32, 48][..],
            4,
        ),
    ];
    let mut out = Vec::new();
    for (device, kernel, bands, max_ty) in triples {
        for group in enumerate_configs(&device).chunks(SLICE_LEN) {
            if bands.contains(&group[0].tx) && group[0].ty <= max_ty {
                out.push(Slice {
                    device: device.clone(),
                    kernel: kernel.clone(),
                    configs: group.to_vec(),
                });
            }
        }
    }
    out
}

fn dims() -> GridDims {
    GridDims::paper()
}

fn lint(s: &Slice) -> Vec<ConfigLint> {
    lint_configs_opts(&s.device, &s.kernel, &dims(), &s.configs, VERIFY)
}

/// True when the code generator, and so the text lint and the kernel
/// verifier, apply to `(kernel, config)` — the sweep's own rule.
fn applicable(kernel: &KernelSpec, config: &LaunchConfig) -> bool {
    let vw = vector_width(kernel).max(1);
    (kernel.streamed_inputs, kernel.coeff_inputs, kernel.outputs) == (1, 0, 1)
        && config.tile_x().is_multiple_of(vw)
}

/// Deterministic work counts of one slice's results.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Counts {
    configs: u64,
    feasible: u64,
    verified: u64,
    errors: u64,
}

impl Counts {
    fn of(s: &Slice, results: &[ConfigLint]) -> Counts {
        let mut c = Counts::default();
        for r in results {
            c.configs += 1;
            c.feasible += r.feasible as u64;
            c.verified += (r.feasible && applicable(&s.kernel, &r.config)) as u64;
            c.errors += r
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .count() as u64;
        }
        c
    }

    fn add(&mut self, o: Counts) {
        self.configs += o.configs;
        self.feasible += o.feasible;
        self.verified += o.verified;
        self.errors += o.errors;
    }
}

/// The sweep contract (feasible ⇒ no error diagnostic, infeasible ⇒ a
/// coded `LNT-R` reason), then the digest of the per-code histogram.
fn check(index: usize, results: &[ConfigLint], pinned: &[u64]) -> Result<(), String> {
    for r in results {
        if r.feasible && r.has_errors() {
            return Err(format!(
                "lint slice {index}: feasible {} has errors",
                r.config
            ));
        }
        if !r.feasible
            && !r
                .diagnostics
                .iter()
                .any(|d| d.severity == Severity::Error && d.code.starts_with("LNT-R"))
        {
            return Err(format!(
                "lint slice {index}: {} rejected without an LNT-R code",
                r.config
            ));
        }
    }
    let got = digest(results);
    match pinned.get(index) {
        Some(&want) if want == got => Ok(()),
        Some(&want) => Err(format!(
            "lint slice {index}: digest {got:016x} != pinned {want:016x}"
        )),
        None => Err(format!("lint slice {index}: no pinned digest")),
    }
}

fn digest(results: &[ConfigLint]) -> u64 {
    let mut histogram: BTreeMap<&str, u64> = BTreeMap::new();
    let mut d = Digest::new();
    for r in results {
        d.word(r.feasible as u64);
        for diag in &r.diagnostics {
            *histogram.entry(diag.code).or_insert(0) += 1;
        }
    }
    for (code, n) in histogram {
        d.bytes(code.as_bytes()).word(n);
    }
    d.finish()
}

/// Print the pinned digest of every slice (`pins.txt` lines).
pub fn pin() {
    for (i, s) in slices().iter().enumerate() {
        println!("lint-verify {i} {:016x}", digest(&lint(s)));
    }
}

/// One set-up: slice enumeration plus a warm-up verified lint of the
/// DP triple's `TY = 1` slices. Returns the slices and its seconds.
fn setup() -> (Vec<Slice>, f64) {
    let (list, t) = timed(|| {
        let list = slices();
        for warm in list
            .iter()
            .filter(|s| s.kernel.precision() == Precision::Double)
        {
            if warm.configs[0].ty == 1 {
                std::hint::black_box(lint(warm));
            }
        }
        list
    });
    (list, t / 1e6)
}

pub fn run(seed: u64, reps: usize, report: &mut Report) {
    // The set-up is repeated before every pass, so its median spans the
    // run as the slices' repeats do.
    let (slices, first_setup) = setup();
    let mut setup_secs = vec![first_setup];
    let pinned = pins("lint-verify");
    let mut counts = Counts::default();
    reset_peak_rss();
    let times = run_repeats(
        slices.len(),
        reps,
        seed,
        |rep| {
            if rep > 0 {
                setup_secs.push(setup().1);
            }
        },
        |i| {
            report.check(match catch_unwind(AssertUnwindSafe(|| lint(&slices[i]))) {
                Ok(results) => {
                    counts.add(Counts::of(&slices[i], &results));
                    check(i, &results, &pinned)
                }
                Err(payload) => Err(format!(
                    "lint slice {i} panicked: {}",
                    panic_message(payload)
                )),
            });
        },
    );
    let best = best_us(&times);
    let per_pass = slices.iter().map(|s| s.configs.len()).sum::<usize>() as f64;

    report.metric("setup_s", median(&setup_secs), "s");
    report.metric(
        "work_per_s",
        per_pass / (best.iter().sum::<f64>() / 1e6),
        "1/s",
    );
    report.fact("work_item", "\"config\"");
    // Latency percentiles over the slices' best times: 10 of the 100
    // lie beyond the p90.
    report.metric("op_p50_us", quantile(&best, 0.5), "us");
    report.metric("op_p90_us", quantile(&best, 0.9), "us");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.fact("repeats", reps);
    report.percentile_facts(best.len());
    report.fact("workers", WORKERS);
    report.fact("slices", slices.len());
    report.counters = counters(counts);
}

fn counters(c: Counts) -> Vec<(&'static str, u64)> {
    vec![
        ("stencil-lint.configs", c.configs),
        ("stencil-lint.feasible", c.feasible),
        ("stencil-lint.verified", c.verified),
        ("stencil-lint.errors", c.errors),
    ]
}

/// The passes `lint_config_opts` runs, in its order, as timed here.
const N_PASSES: usize = 10;
const R: usize = 0;
const PLAN: usize = 1;
const S: usize = 2;
const C: usize = 3;
const M: usize = 4;
const EMIT: usize = 5;
const T: usize = 6;
const K_CUDA: usize = 7;
const K_OPENCL: usize = 8;
const D: usize = 9;

/// Per-pass busy time (µs) and call counts of one configuration.
#[derive(Default, Clone, Copy)]
struct PassTimes {
    us: [f64; N_PASSES],
    calls: [u64; N_PASSES],
}

impl PassTimes {
    fn time<R>(&mut self, pass: usize, f: impl FnOnce() -> R) -> R {
        let (r, t) = timed(f);
        self.us[pass] += t;
        self.calls[pass] += 1;
        r
    }

    fn add(&mut self, o: &PassTimes) {
        for i in 0..N_PASSES {
            self.us[i] += o.us[i];
            self.calls[i] += o.calls[i];
        }
    }
}

/// `lint_config_opts` with verification on, rebuilt from the passes'
/// public entry points so each is timed; the diagnostics come out in
/// the sweep's order.
fn lint_traced(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    config: &LaunchConfig,
) -> (Vec<Diagnostic>, PassTimes) {
    let dims = dims();
    let mut t = PassTimes::default();
    let mut diags = t.time(R, || explain_feasibility(device, kernel, &dims, config));
    if has_errors(&diags) {
        return (diags, t);
    }
    let (plan, _res, geom) = t.time(PLAN, || plan_for_device_on(kernel, config, dims.lx, device));
    diags.extend(t.time(S, || check_schedule(kernel, config, &plan)));
    diags.extend(t.time(C, || check_coverage(kernel, &geom)));
    diags.extend(t.time(M, || check_coalescing(kernel, config, &geom, device)));
    let opencl = kernel.method.routine().opencl_supported();
    if applicable(kernel, config) {
        let generated = t.time(EMIT, || generate_kernel(kernel, config));
        diags.extend(t.time(T, || lint_cuda(&generated, kernel, config, Some(device))));
        if opencl {
            let src = t.time(EMIT, || generate_opencl_kernel(kernel, config));
            diags.extend(t.time(T, || lint_opencl_source(&src, kernel, config, Some(device))));
        }
        let r = kernel.radius;
        let vdims = (2 * r + config.tile_x(), 2 * r + config.tile_y(), 2 * r + 2);
        diags.extend(t.time(K_CUDA, || {
            verify_cuda_kernel_on(kernel, config, vdims, device)
        }));
        if opencl {
            diags.extend(t.time(K_OPENCL, || {
                verify_opencl_kernel_on(kernel, config, vdims, device)
            }));
        }
    }
    let r = kernel.radius;
    let synth = (
        2 * r + 3 * config.tile_x(),
        2 * r + 3 * config.tile_y(),
        4 * r + 2,
    );
    diags.extend(t.time(D, || {
        analyze_plan(&lower_step(kernel.method, config, r, synth)).diagnostics
    }));
    (diags, t)
}

/// The traced run: each slice once, untraced, then traced with every
/// pass of every configuration timed, both on [`WORKERS`]; then once
/// more untraced on [`PAR_WORKERS`] for the parallel map's efficiency.
pub fn trace(seed: u64, report: &mut Report) {
    let slices = slices();
    let pinned = pins("lint-verify");
    let order = shuffled(slices.len(), seed);

    let mut untraced_us = 0.0;
    let mut counts = Counts::default();
    let mut reference = Vec::with_capacity(order.len());
    for &i in &order {
        let (results, t) = timed(|| lint(&slices[i]));
        untraced_us += t;
        counts.add(Counts::of(&slices[i], &results));
        report.check(check(i, &results, &pinned));
        reference.push(results);
    }

    let mut traced_us = 0.0;
    let mut total = PassTimes::default();
    for (&i, want) in order.iter().zip(&reference) {
        let s = &slices[i];
        let (traced, t) = timed(|| {
            s.configs
                .par_iter()
                .map(|c| lint_traced(&s.device, &s.kernel, c))
                .collect::<Vec<_>>()
        });
        traced_us += t;
        let mut result = Ok(());
        for ((diags, times), want) in traced.iter().zip(want) {
            total.add(times);
            if *diags != want.diagnostics {
                result = Err(format!(
                    "lint slice {i}: traced passes differ from lint_config_opts at {}",
                    want.config
                ));
            }
        }
        report.check(result);
    }
    // Set between parallel calls, while no worker thread is alive.
    std::env::set_var("RAYON_NUM_THREADS", PAR_WORKERS.to_string());
    let mut par_us = 0.0;
    for (&i, want) in order.iter().zip(&reference) {
        let (results, t) = timed(|| lint(&slices[i]));
        par_us += t;
        let same = results.len() == want.len()
            && results.iter().zip(want).all(|(got, want)| {
                got.feasible == want.feasible && got.diagnostics == want.diagnostics
            });
        report.check(if same {
            Ok(())
        } else {
            Err(format!(
                "lint slice {i}: {PAR_WORKERS} workers differ from {WORKERS}"
            ))
        });
    }
    std::env::set_var("RAYON_NUM_THREADS", WORKERS.to_string());

    let per_call = |p: usize| total.us[p] / total.calls[p].max(1) as f64;
    report.metric("stencil-lint.R_us", per_call(R), "us");
    report.metric("stencil-lint.plan_us", per_call(PLAN), "us");
    report.metric("stencil-lint.S_us", per_call(S), "us");
    report.metric("stencil-lint.C_us", per_call(C), "us");
    report.metric("stencil-lint.M_us", per_call(M), "us");
    report.metric("codegen.emit_us", per_call(EMIT), "us");
    report.metric("stencil-lint.T_us", per_call(T), "us");
    report.metric("stencil-lint.K_cuda_us", per_call(K_CUDA), "us");
    report.metric("stencil-lint.K_opencl_us", per_call(K_OPENCL), "us");
    report.metric("stencil-lint.D_us", per_call(D), "us");
    for (name, n) in counters(counts) {
        report.metric(name, n as f64, "count");
    }
    report.metric(
        "rayon-shim.par_efficiency",
        untraced_us / (PAR_WORKERS as f64 * par_us),
        "ratio",
    );
    report.metric("trace.overhead", traced_us / untraced_us, "ratio");
    report.fact("workers", WORKERS);
    report.fact("par_workers", PAR_WORKERS);
    report.fact("slices", slices.len());
    report.counters = counters(counts);
}
