//! User-facing auto-tuning CLI: pick a device, stencil order, precision
//! and method, and get the tuned configuration — the workflow the
//! paper's auto-tuning engine supports, as a tool.
//!
//! ```sh
//! cargo run --release -p stencil-bench --bin tune -- \
//!     --device gtx680 --order 8 --precision sp --method full-slice \
//!     --beta 5 --lx 512 --ly 512 --lz 256
//! ```

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{KernelSpec, Method, Variant};
use stencil_autotune::{exhaustive_tune, model_based_tune, ParameterSpace};
use stencil_bench::exp::service_at;
use stencil_bench::opts::TUNE_STORE_ENV;
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

fn usage() -> ! {
    let methods: Vec<String> = Method::ALL.into_iter().map(method_arg).collect();
    eprintln!(
        "usage: tune [--device gtx580|gtx680|c2070] [--order N] [--precision sp|dp]\n\
         \x20           [--method {}]\n\
         \x20           [--beta PCT] [--lx N --ly N --lz N] [--seed N] [--store PATH]\n\
         --order is an even stencil order in 2..=65536; the grid extents are in\n\
         1..=65536.\n\
         --beta selects model-based tuning (execute only the top PCT% of the space,\n\
         PCT > 0); without it the search is exhaustive.\n\
         --store (or INPLANE_TUNE_STORE) persists results; a repeated run is\n\
         served from disk bit-identically without re-searching.",
        methods.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        device: DeviceSpec::gtx580(),
        order: 4,
        precision: Precision::Single,
        method: Method::InPlane(Variant::FullSlice),
        beta: None,
        dims: GridDims::paper(),
        seed: 1,
        store: std::env::var(TUNE_STORE_ENV).ok().filter(|p| !p.is_empty()),
    };
    let mut it = std::env::args().skip(1);
    let (mut lx, mut ly, mut lz) = (512usize, 512usize, 256usize);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--device" => {
                args.device = match val().as_str() {
                    "gtx580" => DeviceSpec::gtx580(),
                    "gtx680" => DeviceSpec::gtx680(),
                    "c2070" => DeviceSpec::c2070(),
                    _ => usage(),
                }
            }
            "--order" => args.order = val().parse().unwrap_or_else(|_| usage()),
            "--precision" => {
                args.precision = match val().as_str() {
                    "sp" => Precision::Single,
                    "dp" => Precision::Double,
                    _ => usage(),
                }
            }
            "--method" => args.method = parse_method(&val()).unwrap_or_else(|| usage()),
            "--beta" => args.beta = Some(val().parse().unwrap_or_else(|_| usage())),
            "--lx" => lx = val().parse().unwrap_or_else(|_| usage()),
            "--ly" => ly = val().parse().unwrap_or_else(|_| usage()),
            "--lz" => lz = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--store" => args.store = Some(val()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let beta_ok = args.beta.is_none_or(|b| b.is_finite() && b > 0.0);
    let order_ok = (2..=MAX_EXTENT).contains(&args.order) && args.order.is_multiple_of(2);
    let dims_ok = [lx, ly, lz].iter().all(|d| (1..=MAX_EXTENT).contains(d));
    if !order_ok || !dims_ok || !beta_ok {
        usage();
    }
    args.dims = GridDims::new(lx, ly, lz);
    args
}

fn main() {
    let a = parse_args();
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
    if let Some(svc) = a.store.as_deref().and_then(service_at) {
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
