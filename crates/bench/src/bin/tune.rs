//! User-facing auto-tuning CLI: pick a device, stencil order, precision
//! and method, and get the tuned configuration — the workflow the
//! paper's auto-tuning engine supports, as a tool.
//!
//! ```sh
//! cargo run --release -p stencil-bench --bin tune -- \
//!     --device gtx680 --order 8 --precision sp --method full-slice \
//!     --beta 5 --lx 512 --ly 512 --lz 256
//! ```

use std::ops::Bound::{Excluded, Included};

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{KernelSpec, Method, Variant};
use stencil_autotune::{exhaustive_tune, model_based_tune, ParameterSpace};
use stencil_bench::exp::service_at;
use stencil_bench::opts::{parse_argv, precision_arg, tune_store_path, CliError, Flags};
use stencil_grid::Precision;
use stencil_tunestore::{TuneRequest, TunerSpec};

/// Largest accepted grid extent and stencil order. Far beyond any
/// simulated device's memory, and small enough that the cost model's
/// cell and flop counts cannot overflow.
const MAX_EXTENT: usize = 1 << 16;

struct Args {
    device: DeviceSpec,
    order: usize,
    precision: Precision,
    method: Method,
    beta: Option<f64>,
    dims: GridDims,
    seed: u64,
    store: Option<String>,
}

/// The `--method` spelling of a method: its label without the
/// `in-plane/` prefix (`nvstencil`, `full-slice`, ...).
fn method_arg(method: Method) -> String {
    let label = method.label();
    match label.strip_prefix("in-plane/") {
        Some(variant) => variant.to_string(),
        None => label,
    }
}

/// Parse `--method`: a full label, the bare variant label, or `forward`.
fn parse_method(s: &str) -> Option<Method> {
    if s == "forward" {
        return Some(Method::ForwardPlane);
    }
    Method::ALL
        .into_iter()
        .find(|&m| m.label() == s || method_arg(m) == s)
}

fn usage() -> String {
    let devices: Vec<&str> = DeviceSpec::preset_keys().collect();
    let methods: Vec<String> = Method::ALL.into_iter().map(method_arg).collect();
    format!(
        "usage: tune [--device {}] [--order N] [--precision sp|dp]\n\
         \x20           [--method {}]\n\
         \x20           [--beta PCT] [--lx N --ly N --lz N] [--seed N] [--store PATH]\n\
         --order is an even stencil order in 2..=65536; the grid extents are in\n\
         1..=65536.\n\
         --beta selects model-based tuning (execute only the top PCT% of the space,\n\
         PCT > 0); without it the search is exhaustive.\n\
         --store (or INPLANE_TUNE_STORE) persists results; a repeated run is\n\
         served from disk bit-identically without re-searching.",
        devices.join("|"),
        methods.join("|")
    )
}

fn parse_args(argv: Vec<String>) -> Result<Args, CliError> {
    let mut a = Args {
        device: DeviceSpec::gtx580(),
        order: 4,
        precision: Precision::Single,
        method: Method::InPlane(Variant::FullSlice),
        beta: None,
        dims: GridDims::paper(),
        seed: 1,
        store: None,
    };
    let even_order = |s: &str| {
        s.parse()
            .ok()
            .filter(|o: &usize| (2..=MAX_EXTENT).contains(o) && o.is_multiple_of(2))
    };
    Flags::default()
        .parsed("--device", DeviceSpec::by_key, |v| a.device = v)
        .parsed("--order", even_order, |v| a.order = v)
        .parsed("--precision", precision_arg, |v| a.precision = v)
        .parsed("--method", parse_method, |v| a.method = v)
        .range("--beta", (Excluded(0.0), Included(f64::MAX)), |v| {
            a.beta = Some(v)
        })
        .range("--lx", 1..=MAX_EXTENT, |v| a.dims.lx = v)
        .range("--ly", 1..=MAX_EXTENT, |v| a.dims.ly = v)
        .range("--lz", 1..=MAX_EXTENT, |v| a.dims.lz = v)
        .value("--seed", |v| a.seed = v)
        .value("--store", |v| a.store = Some(v))
        .parse(argv)?;
    Ok(a)
}

fn main() {
    let a = parse_argv(&usage(), parse_args);
    let kernel = KernelSpec::star_order(a.method, a.order, a.precision);
    println!(
        "tuning {} on {} over {}x{}x{}",
        kernel.name, a.device.name, a.dims.lx, a.dims.ly, a.dims.lz
    );
    let (space, audit) = ParameterSpace::paper_space_audited(&a.device, &kernel, &a.dims);
    println!(
        "{} feasible configurations ({} grid points examined)",
        space.len(),
        audit.examined
    );
    for (code, n) in &audit.rejections {
        println!("  rejected {code} x{n}");
    }
    if space.is_empty() {
        eprintln!(
            "tune: no feasible configuration for {} on {}",
            kernel.name, a.device.name
        );
        std::process::exit(2);
    }
    if let Some(svc) = tune_store_path(a.store).as_deref().and_then(service_at) {
        let tuner = match a.beta {
            Some(beta_percent) => TunerSpec::ModelBased { beta_percent },
            None => TunerSpec::Exhaustive,
        };
        let resp = svc.resolve(&TuneRequest {
            device: a.device,
            kernel,
            dims: a.dims,
            space,
            tuner,
            seed: a.seed,
        });
        println!(
            "optimal: {} -> {:.0} MPoint/s ({}, {} configurations executed)",
            resp.best.config,
            resp.best.mpoints,
            resp.provenance.label(),
            resp.evaluated
        );
        let s = svc.store().stats();
        println!(
            "tune store: {} hits / {} misses / {} corrupt-or-stale skipped",
            s.hits,
            s.misses,
            s.skipped()
        );
        return;
    }
    match a.beta {
        Some(beta) => {
            let out = model_based_tune(&a.device, &kernel, a.dims, &space, beta, a.seed);
            println!(
                "model-based (beta = {beta}%): executed {} configurations",
                out.executed
            );
            println!(
                "optimal: {} -> {:.0} MPoint/s",
                out.best.config, out.best.mpoints
            );
        }
        None => {
            let out = exhaustive_tune(&a.device, &kernel, a.dims, &space, a.seed);
            println!(
                "optimal: {} -> {:.0} MPoint/s",
                out.best.config, out.best.mpoints
            );
            println!("runners-up:");
            for s in out.top(6).iter().skip(1) {
                println!("  {} -> {:.0} MPoint/s", s.config, s.mpoints);
            }
        }
    }
}

#[cfg(test)]
#[path = "../../tests/common/argv.rs"]
mod argv_property;

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, CliError> {
        parse_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn declared_ranges_admit_their_edges_only() {
        for ok in [
            ["--order", "2"],
            ["--order", "65536"],
            ["--lx", "1"],
            ["--lz", "65536"],
            ["--beta", "5e-324"],
            ["--beta", "1.7976931348623157e308"],
        ] {
            assert!(parse(&ok).is_ok(), "{ok:?}");
        }
        for bad in [
            ["--order", "1"],
            ["--order", "65538"],
            ["--order", "5"],
            ["--lx", "65537"],
            ["--ly", "0"],
            ["--beta", "0"],
            ["--beta", "-0"],
            ["--beta", "inf"],
        ] {
            let why = format!("invalid value `{}` for `{}`", bad[1], bad[0]);
            assert!(parse(&bad).err() == Some(CliError::Usage(why)), "{bad:?}");
        }
    }

    #[test]
    fn never_panics_on_generated_argv() {
        let (ok, refused) = argv_property::run(
            0x7e7e,
            &[
                "--device",
                "--order",
                "--precision",
                "--method",
                "--beta",
                "--lx",
                "--ly",
                "--lz",
                "--seed",
                "--store",
                "--ordr",
                "-h",
            ],
            &[
                "0",
                "1",
                "2",
                "64",
                "65536",
                "65537",
                "-1",
                "5",
                "NaN",
                "inf",
                "1e-320",
                "hd7970",
                "sp",
                "full-slice",
                "x",
            ],
            parse_args,
        );
        assert!(ok > 0 && refused > 0, "{ok} accepted, {refused} refused");
    }
}
