//! Full parameter-space sweeps: run every analysis over every
//! enumerable launch configuration in parallel and summarise the result.
//!
//! Two contracts make the sweep useful as a CI gate:
//!
//! * a **feasible** configuration must produce *zero* error-severity
//!   diagnostics across all passes (schedule, coverage, coalescing,
//!   generated-source text and the whole-plan dataflow proof) — an
//!   error there means the plan or the emitter is wrong, not the
//!   configuration;
//! * an **infeasible** configuration must carry at least one coded
//!   rejection reason (`LNT-R…`) — a silent rejection would mean the
//!   explained analyzer has drifted from the boolean predicate.
//!
//! [`SweepReport::clean`] is true iff both hold over the whole space.
//!
//! With [`LintOptions::verify_kernels`] the first contract is extended:
//! a feasible, codegen-applicable configuration must also survive the
//! [`crate::verify`] abstract interpreter with zero `LNT-K…` errors on
//! **both** backends — the emitted text itself is proven in-bounds,
//! race-free, barrier-uniform and traffic-exact, not just well-formed.

use crate::coalescing::check_coalescing;
use crate::codegen_text::{lint_cuda, lint_opencl_source};
use crate::coverage::check_coverage;
use crate::dataflow::analyze_plan;
use crate::diag::{has_errors, json_string, Diagnostic, Severity};
use crate::feasibility::explain_feasibility;
use crate::schedule::check_schedule;
use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::loadplan::plan_for_device_on;
use inplane_core::plan::lower_step;
use inplane_core::resources::vector_width;
use inplane_core::{KernelSpec, LaunchConfig};
use rayon::prelude::*;
use std::collections::BTreeMap;
use stencil_codegen::{generate_kernel, generate_opencl_kernel};

/// Optional passes layered on top of the always-on analyses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LintOptions {
    /// Run the [`crate::verify`] kernel verifier (parse + abstract
    /// interpretation of the emitted CUDA and, where supported, OpenCL
    /// source) on every feasible, codegen-applicable configuration.
    /// Off by default: the verifier executes every thread of a block
    /// and costs orders of magnitude more than the text lints.
    pub verify_kernels: bool,
}

/// The lint verdict for one launch configuration.
#[derive(Clone, Debug)]
pub struct ConfigLint {
    /// The configuration examined.
    pub config: LaunchConfig,
    /// Verdict of the explained feasibility pass (no `LNT-R…` error).
    pub feasible: bool,
    /// Every diagnostic from every pass that ran on this configuration.
    pub diagnostics: Vec<Diagnostic>,
}

impl ConfigLint {
    /// True when any diagnostic is error-severity.
    pub fn has_errors(&self) -> bool {
        has_errors(&self.diagnostics)
    }
}

/// Enumerate the §IV-C tuning grid for `device`: `TX` over
/// half-wavefront multiples up to 512 (half-warp on NVIDIA, 32 on
/// wave64 parts), `TY` up to 32, `RX`/`RY` over `{1, 2, 4, 8}` —
/// with **no** feasibility filtering, so infeasible points are examined
/// and explained rather than silently skipped.
pub fn enumerate_configs(device: &DeviceSpec) -> Vec<LaunchConfig> {
    let half_warp = device.half_wavefront();
    let mut out = Vec::new();
    for tx in (half_warp..=512).step_by(half_warp) {
        for ty in 1..=32 {
            for rx in [1, 2, 4, 8] {
                for ry in [1, 2, 4, 8] {
                    out.push(LaunchConfig::new(tx, ty, rx, ry));
                }
            }
        }
    }
    out
}

/// A reduced grid for quick smoke runs (`TY ≤ 8`, `RX`/`RY ≤ 4`).
pub fn enumerate_configs_quick(device: &DeviceSpec) -> Vec<LaunchConfig> {
    enumerate_configs(device)
        .into_iter()
        .filter(|c| c.ty <= 8 && c.rx <= 4 && c.ry <= 4)
        .collect()
}

/// True when the code generator accepts `(kernel, config)` — the
/// emitter handles the single-streamed-grid shape and requires the tile
/// width to be vector-aligned.
fn codegen_applicable(kernel: &KernelSpec, config: &LaunchConfig) -> bool {
    let vw = vector_width(kernel).max(1);
    (kernel.streamed_inputs, kernel.coeff_inputs, kernel.outputs) == (1, 0, 1)
        && config.tile_x().is_multiple_of(vw)
}

/// Run every applicable analysis pass on one configuration.
///
/// Feasibility always runs. The plan-level passes (schedule, coverage,
/// coalescing), the generated-source text lints and the whole-plan
/// dataflow proof run only on feasible configurations — an infeasible
/// point has no valid plan to analyse.
pub fn lint_config(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    config: &LaunchConfig,
) -> ConfigLint {
    lint_config_opts(device, kernel, dims, config, LintOptions::default())
}

/// [`lint_config`] with optional passes: when
/// [`LintOptions::verify_kernels`] is set, the emitted CUDA (and, where
/// supported, OpenCL) source is additionally proven by the
/// [`crate::verify`] abstract interpreter on a minimal one-block grid
/// (`2R + WX × 2R + WY × 2R + 2`) — the smallest domain that exercises
/// prologue, one full interior trip and the store path.
pub fn lint_config_opts(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    config: &LaunchConfig,
    opts: LintOptions,
) -> ConfigLint {
    let mut diagnostics = explain_feasibility(device, kernel, dims, config);
    let feasible = !has_errors(&diagnostics);

    if feasible {
        let (plan, _res, geom) = plan_for_device_on(kernel, config, dims.lx, device);
        diagnostics.extend(check_schedule(kernel, config, &plan));
        diagnostics.extend(check_coverage(kernel, &geom));
        diagnostics.extend(check_coalescing(kernel, config, &geom, device));

        if codegen_applicable(kernel, config) {
            let generated = generate_kernel(kernel, config);
            diagnostics.extend(lint_cuda(&generated, kernel, config, Some(device)));
            if kernel.method.opencl_supported() {
                let src = generate_opencl_kernel(kernel, config);
                diagnostics.extend(lint_opencl_source(&src, kernel, config, Some(device)));
            }

            if opts.verify_kernels {
                let r = kernel.radius;
                let vdims = (2 * r + config.tile_x(), 2 * r + config.tile_y(), 2 * r + 2);
                diagnostics.extend(crate::verify::verify_cuda_kernel_on(
                    kernel, config, vdims, device,
                ));
                if kernel.method.opencl_supported() {
                    diagnostics.extend(crate::verify::verify_opencl_kernel_on(
                        kernel, config, vdims, device,
                    ));
                }
            }
        }

        // Whole-plan dataflow proof on a synthetic lowered plan: a few
        // tiles in each direction and enough planes to exercise prologue,
        // steady state and drain. The pass is rect-algebra over ~9 blocks,
        // so its cost is independent of the real grid size.
        let r = kernel.radius;
        let synth = (
            2 * r + 3 * config.tile_x(),
            2 * r + 3 * config.tile_y(),
            4 * r + 2,
        );
        let plan = lower_step(kernel.method, config, r, synth);
        diagnostics.extend(analyze_plan(&plan).diagnostics);
    }

    ConfigLint {
        config: *config,
        feasible,
        diagnostics,
    }
}

/// Lint a list of configurations in parallel (ordered, deterministic).
pub fn lint_configs(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    configs: &[LaunchConfig],
) -> Vec<ConfigLint> {
    lint_configs_opts(device, kernel, dims, configs, LintOptions::default())
}

/// [`lint_configs`] with optional passes.
pub fn lint_configs_opts(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    configs: &[LaunchConfig],
    opts: LintOptions,
) -> Vec<ConfigLint> {
    configs
        .par_iter()
        .map(|c| lint_config_opts(device, kernel, dims, c, opts))
        .collect()
}

/// Aggregated verdict of a parameter-space sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Device name.
    pub device: String,
    /// Kernel name.
    pub kernel: String,
    /// Configurations examined.
    pub examined: usize,
    /// Configurations the feasibility pass accepted.
    pub feasible: usize,
    /// Error-code histogram over *infeasible* configurations (the coded
    /// rejection reasons).
    pub rejections: Vec<(&'static str, u64)>,
    /// Warning/info-code histogram over the whole space.
    pub warnings: Vec<(&'static str, u64)>,
    /// Feasible configurations that produced an error-severity
    /// diagnostic — always zero on a healthy tree.
    pub feasible_errors: usize,
    /// Infeasible configurations with no coded rejection reason —
    /// always zero unless the analyzer drifts from the predicate.
    pub unexplained: usize,
    /// Rendered examples of feasible-config errors (capped).
    pub error_examples: Vec<String>,
}

impl SweepReport {
    /// Summarise per-configuration results.
    pub fn from_results(
        device: &DeviceSpec,
        kernel: &KernelSpec,
        results: &[ConfigLint],
    ) -> SweepReport {
        let mut rejections: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut warnings: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut feasible = 0usize;
        let mut feasible_errors = 0usize;
        let mut unexplained = 0usize;
        let mut error_examples = Vec::new();

        for r in results {
            if r.feasible {
                feasible += 1;
                if r.has_errors() {
                    feasible_errors += 1;
                    if error_examples.len() < 8 {
                        for d in r
                            .diagnostics
                            .iter()
                            .filter(|d| d.severity == Severity::Error)
                        {
                            error_examples.push(format!("{}: {}", r.config, d.render()));
                        }
                    }
                }
            } else {
                let mut coded = false;
                for d in &r.diagnostics {
                    if d.severity == Severity::Error {
                        coded = true;
                        *rejections.entry(d.code).or_insert(0) += 1;
                    }
                }
                if !coded {
                    unexplained += 1;
                }
            }
            for d in &r.diagnostics {
                if d.severity != Severity::Error {
                    *warnings.entry(d.code).or_insert(0) += 1;
                }
            }
        }

        SweepReport {
            device: device.name.to_string(),
            kernel: kernel.name.clone(),
            examined: results.len(),
            feasible,
            rejections: rejections.into_iter().collect(),
            warnings: warnings.into_iter().collect(),
            feasible_errors,
            unexplained,
            error_examples,
        }
    }

    /// True when the sweep upholds both contracts: no feasible-config
    /// error and no unexplained rejection.
    pub fn clean(&self) -> bool {
        self.feasible_errors == 0 && self.unexplained == 0
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "lint sweep: {} / {} ({} configs, {} feasible, {} rejected)\n",
            self.device,
            self.kernel,
            self.examined,
            self.feasible,
            self.examined - self.feasible
        ));
        if !self.rejections.is_empty() {
            out.push_str("  rejections by code:\n");
            for (code, n) in &self.rejections {
                out.push_str(&format!(
                    "    {code}  x{n}  {}\n",
                    crate::diag::describe(code).unwrap_or("")
                ));
            }
        }
        if !self.warnings.is_empty() {
            out.push_str("  warnings/info by code:\n");
            for (code, n) in &self.warnings {
                out.push_str(&format!(
                    "    {code}  x{n}  {}\n",
                    crate::diag::describe(code).unwrap_or("")
                ));
            }
        }
        if self.clean() {
            out.push_str("  verdict: clean\n");
        } else {
            out.push_str(&format!(
                "  verdict: FAILED ({} feasible-config errors, {} unexplained rejections)\n",
                self.feasible_errors, self.unexplained
            ));
            for e in &self.error_examples {
                out.push_str(&format!("    {e}\n"));
            }
        }
        out
    }

    /// JSON object rendering (hand-rolled; the workspace is std-only).
    pub fn to_json(&self) -> String {
        let hist = |entries: &[(&'static str, u64)]| {
            let items: Vec<String> = entries
                .iter()
                .map(|(c, n)| format!("{}:{}", json_string(c), n))
                .collect();
            format!("{{{}}}", items.join(","))
        };
        let examples: Vec<String> = self.error_examples.iter().map(|e| json_string(e)).collect();
        format!(
            "{{\"device\":{},\"kernel\":{},\"examined\":{},\"feasible\":{},\"rejections\":{},\"warnings\":{},\"feasible_errors\":{},\"unexplained\":{},\"clean\":{},\"error_examples\":[{}]}}",
            json_string(&self.device),
            json_string(&self.kernel),
            self.examined,
            self.feasible,
            hist(&self.rejections),
            hist(&self.warnings),
            self.feasible_errors,
            self.unexplained,
            self.clean(),
            examples.join(",")
        )
    }
}

/// Sweep the full enumeration grid of `device` for `kernel` on `dims`.
pub fn lint_space(device: &DeviceSpec, kernel: &KernelSpec, dims: &GridDims) -> SweepReport {
    lint_space_opts(device, kernel, dims, LintOptions::default())
}

/// [`lint_space`] with optional passes.
pub fn lint_space_opts(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: &GridDims,
    opts: LintOptions,
) -> SweepReport {
    let configs = enumerate_configs(device);
    let results = lint_configs_opts(device, kernel, dims, &configs, opts);
    SweepReport::from_results(device, kernel, &results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn kernel(method: Method, order: usize) -> KernelSpec {
        KernelSpec::star_order(method, order, Precision::Single)
    }

    #[test]
    fn enumeration_covers_the_paper_grid() {
        let dev = DeviceSpec::gtx580();
        let configs = enumerate_configs(&dev);
        // 32 TX values x 32 TY values x 4 RX x 4 RY.
        assert_eq!(configs.len(), 32 * 32 * 16);
        assert!(configs.contains(&LaunchConfig::new(512, 32, 8, 8)));
        let quick = enumerate_configs_quick(&dev);
        assert!(quick.len() < configs.len());
    }

    #[test]
    fn feasible_config_lints_clean_infeasible_is_explained() {
        let dev = DeviceSpec::gtx580();
        let k = kernel(Method::InPlane(Variant::FullSlice), 4);
        let dims = GridDims::paper();

        let good = lint_config(&dev, &k, &dims, &LaunchConfig::new(64, 4, 1, 2));
        assert!(good.feasible);
        assert!(!good.has_errors(), "{:?}", good.diagnostics);

        let bad = lint_config(&dev, &k, &dims, &LaunchConfig::new(512, 32, 8, 8));
        assert!(!bad.feasible);
        assert!(bad.has_errors(), "infeasible must carry a coded reason");
    }

    #[test]
    fn quick_sweep_is_clean_for_every_method() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        for method in Method::ALL {
            let k = kernel(method, 4);
            let configs = enumerate_configs_quick(&dev);
            let results = lint_configs(&dev, &k, &dims, &configs);
            let report = SweepReport::from_results(&dev, &k, &results);
            assert!(report.clean(), "{method:?}:\n{}", report.render());
            assert_eq!(report.examined, configs.len());
            assert!(report.feasible > 0, "{method:?} found nothing feasible");
            assert!(
                !report.rejections.is_empty(),
                "the grid has infeasible points"
            );
        }
    }

    #[test]
    fn kernel_verifier_reaches_the_sweep_and_stays_clean() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let cfg = LaunchConfig::new(16, 2, 1, 2);
        let opts = LintOptions {
            verify_kernels: true,
        };
        for method in [
            inplane_core::Method::ForwardPlane,
            inplane_core::Method::InPlane(inplane_core::Variant::FullSlice),
        ] {
            let k = kernel(method, 4);
            let with = lint_config_opts(&dev, &k, &dims, &cfg, opts);
            assert!(with.feasible);
            assert!(!with.has_errors(), "{method:?}: {:?}", with.diagnostics);
            // The option is additive: without it the result is the
            // default pass set, bit for bit.
            let without = lint_config(&dev, &k, &dims, &cfg);
            assert_eq!(with.diagnostics, without.diagnostics);
        }
    }

    #[test]
    fn dataflow_warnings_reach_the_sweep() {
        let dev = DeviceSpec::gtx580();
        let dims = GridDims::paper();
        let cfg = LaunchConfig::new(64, 4, 1, 2);

        // In-plane plans carry the documented drain-phase dead-arm
        // warning; it must surface through lint_config as LNT-D103.
        let inp = lint_config(
            &dev,
            &kernel(Method::InPlane(Variant::Classical), 4),
            &dims,
            &cfg,
        );
        assert!(inp.feasible && !inp.has_errors(), "{:?}", inp.diagnostics);
        assert!(
            inp.diagnostics.iter().any(|d| d.code == "LNT-D103"),
            "{:?}",
            inp.diagnostics
        );

        // Forward plans analyse completely clean — no D-family findings.
        let fwd = lint_config(&dev, &kernel(Method::ForwardPlane, 4), &dims, &cfg);
        assert!(fwd.feasible && !fwd.has_errors(), "{:?}", fwd.diagnostics);
        assert!(
            !fwd.diagnostics.iter().any(|d| d.code.starts_with("LNT-D")),
            "{:?}",
            fwd.diagnostics
        );
    }

    #[test]
    fn report_json_shape() {
        let dev = DeviceSpec::gtx580();
        let k = kernel(Method::InPlane(Variant::Vertical), 2);
        let dims = GridDims::paper();
        let configs = [
            LaunchConfig::new(64, 4, 1, 2),
            LaunchConfig::new(512, 32, 8, 8),
        ];
        let results = lint_configs(&dev, &k, &dims, &configs);
        let report = SweepReport::from_results(&dev, &k, &results);
        let j = report.to_json();
        assert!(j.contains("\"examined\":2"));
        assert!(j.contains("\"feasible\":1"));
        assert!(j.contains("\"clean\":true"));
        assert!(j.contains("LNT-R002"), "{j}");
    }

    #[test]
    fn parallel_results_match_sequential() {
        let dev = DeviceSpec::gtx580();
        let k = kernel(Method::InPlane(Variant::Horizontal), 4);
        let dims = GridDims::paper();
        let configs: Vec<LaunchConfig> =
            enumerate_configs_quick(&dev).into_iter().take(64).collect();
        let par = lint_configs(&dev, &k, &dims, &configs);
        let seq: Vec<ConfigLint> = configs
            .iter()
            .map(|c| lint_config(&dev, &k, &dims, c))
            .collect();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.feasible, b.feasible);
            assert_eq!(a.diagnostics, b.diagnostics);
        }
    }
}
