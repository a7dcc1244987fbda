//! Compare the three tuning strategies — exhaustive, model-based (§VI)
//! and stochastic (the §II alternative for large spaces) — on quality
//! versus configurations executed.
//!
//! ```sh
//! cargo run --release -p stencil-bench --bin tuners [-- --quick]
//! ```
//!
//! With `--store <path>` (or `INPLANE_TUNE_STORE`) every strategy's
//! result persists; a second run is served from disk and the closing
//! report shows the store and evaluation-cache counters.

use gpu_sim::DeviceSpec;
use inplane_core::{execute_step, EvalContext, ExecStats, KernelSpec, Method, Variant};
use stencil_autotune::{summarize_with, AnnealOptions, ParameterSpace};
use stencil_bench::exp::{global_service, tune};
use stencil_bench::{fmt, RunOpts};
use stencil_grid::{Boundary, FillPattern, Grid3, Precision, StarStencil};
use stencil_tunestore::TunerSpec;

/// Replay the winning configuration functionally through the plan
/// interpreter on a small grid: the instrumented [`ExecStats`] tie the
/// tuned pick back to the schedule it actually executes (staged cells
/// per zone, barriers, rotations, redundancy).
fn replay_winner(kernel: &KernelSpec, config: &inplane_core::LaunchConfig) -> ExecStats {
    let n = 4 * kernel.radius + 8;
    let s: StarStencil<f32> = StarStencil::from_order(2 * kernel.radius);
    let input: Grid3<f32> = FillPattern::HashNoise.build(n, n, n);
    let mut out = Grid3::new(n, n, n);
    execute_step(
        kernel.method,
        &s,
        config,
        &input,
        &mut out,
        Boundary::CopyInput,
    )
}

fn main() {
    let opts = RunOpts::from_env();
    let dims = opts.dims();
    let mut table = fmt::Table::new(&[
        "Device",
        "Order",
        "Strategy",
        "Executed",
        "MP/s",
        "of exhaustive",
        "From",
    ]);
    let mut last_report = None;
    for dev in DeviceSpec::paper_devices() {
        for order in [2usize, 8] {
            let kernel = KernelSpec::star_order(
                Method::InPlane(Variant::FullSlice),
                order,
                Precision::Single,
            );
            let (space, audit) = if opts.quick {
                (ParameterSpace::quick_space(&dev, &kernel, &dims), None)
            } else {
                let (space, audit) = ParameterSpace::paper_space_audited(&dev, &kernel, &dims);
                (space, Some(audit))
            };
            let (ex, ex_executed) = tune(
                &dev,
                &kernel,
                dims,
                &space,
                TunerSpec::Exhaustive,
                opts.seed,
            );
            let (mb, mb_executed) = tune(
                &dev,
                &kernel,
                dims,
                &space,
                TunerSpec::ModelBased { beta_percent: 5.0 },
                opts.seed,
            );
            // Budget the annealer by the model-based tuner's *search*
            // execution count (stable across store-served reruns, so the
            // stochastic key — and thus its store hit — is too).
            let anneal_opts = AnnealOptions {
                evaluations: mb_executed.max(1),
                ..AnnealOptions::default()
            };
            let (sa, sa_executed) = tune(
                &dev,
                &kernel,
                dims,
                &space,
                TunerSpec::Stochastic(anneal_opts),
                opts.seed,
            );
            for (name, out, executed) in [
                ("exhaustive", &ex, ex_executed),
                ("model-based 5%", &mb, mb_executed),
                ("simulated annealing", &sa, sa_executed),
            ] {
                table.row(vec![
                    dev.name.to_string(),
                    order.to_string(),
                    name.to_string(),
                    executed.to_string(),
                    fmt::f(out.best.mpoints, 0),
                    fmt::f(out.best.mpoints / ex.best.mpoints, 3),
                    out.provenance.label().to_string(),
                ]);
            }
            last_report = Some((dev.clone(), kernel, ex, audit));
        }
    }
    table.print("Tuning strategies: quality vs configurations executed");
    if let Some((dev, kernel, ex, audit)) = &last_report {
        let mut report = match global_service() {
            Some(svc) => summarize_with(svc.ctx(), dev, kernel, dims, ex)
                .with_store(svc.store().stats().counters()),
            None => summarize_with(EvalContext::global(), dev, kernel, dims, ex),
        };
        if let Some(audit) = audit {
            report = report.with_rejections(audit.rejections.clone());
        }
        report = report.with_exec(replay_winner(kernel, &ex.best.config));
        println!("\nlast exhaustive run ({} on {}):", kernel.name, dev.name);
        println!("{}", report.render());
    }
    println!("\nThe model-based tuner (the paper's section VI) and the stochastic tuner");
    println!("(the section II alternative) both run on a small fraction of the space;");
    println!("the model-based ranking is the stronger prior on this landscape.");
}
