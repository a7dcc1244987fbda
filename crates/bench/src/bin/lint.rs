//! Static-analysis sweep over the full tuning grid: every launch
//! configuration of every method is checked by `stencil-lint`'s
//! analyzers (feasibility, schedule, coverage, coalescing, generated
//! source and the whole-plan dataflow proof), and the process exits
//! non-zero if any *feasible* configuration produces an error-severity
//! diagnostic or any infeasible configuration lacks a coded rejection
//! reason.
//!
//! With `--verify-kernels` each feasible, codegen-applicable
//! configuration additionally has its emitted CUDA (and, where
//! supported, OpenCL) source parsed and abstractly interpreted by the
//! kernel verifier — any `LNT-K…` error fails the sweep like every
//! other error-severity finding.
//!
//! With `--json` the output is a single machine-readable document:
//! `schema_version`, `verify_kernels`, one sweep report per (device,
//! kernel, method), and a per-method `oracle` section pairing the
//! whole-plan dataflow histogram with the static traffic oracle's
//! predictions for a representative plan.
//!
//! ```sh
//! cargo run --release --bin lint -- --device gtx580 --kernel laplacian --json
//! ```

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{lower_step, KernelSpec, LaunchConfig, Method, Variant};
use stencil_apps::{Hyperthermia, Laplacian3d, Poisson, Upstream};
use stencil_grid::{MultiGridKernel, Precision};
use stencil_lint::sweep::{
    enumerate_configs, enumerate_configs_quick, lint_configs_opts, LintOptions, SweepReport,
};
use stencil_lint::{analyze_plan, predict_traffic_on};

/// Version of the `--json` document layout; the golden-schema test in
/// `tests/lint_json.rs` pins it. v2 added the `verify_kernels` flag
/// echo alongside the kernel-verifier sweep option; v3 added the
/// `segment_bytes` field to the traffic-oracle entries and the
/// wave64/Ampere device names.
const SCHEMA_VERSION: u32 = 3;

struct Args {
    devices: Vec<DeviceSpec>,
    kernels: Vec<&'static str>,
    precision: Precision,
    json: bool,
    quick: bool,
    verify_kernels: bool,
}

fn usage() -> ! {
    let devices: Vec<&str> = DeviceSpec::preset_keys().collect();
    eprintln!(
        "usage: lint [--device {}|all]\n\
         \x20           [--kernel laplacian|poisson|hyperthermia|upstream|all]\n\
         \x20           [--precision sp|dp] [--json] [--quick] [--verify-kernels]\n\
         Sweeps the full (TX, TY, RX, RY) tuning grid for every method variant and\n\
         reports coded diagnostics. Exits non-zero when a feasible configuration\n\
         carries an error-severity diagnostic or a rejection is unexplained.\n\
         --verify-kernels additionally proves the emitted CUDA/OpenCL source by\n\
         abstract interpretation (LNT-K diagnostics).",
        devices.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        devices: vec![DeviceSpec::gtx580()],
        kernels: vec!["laplacian"],
        precision: Precision::Single,
        json: false,
        quick: false,
        verify_kernels: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--device" => {
                args.devices = match val().as_str() {
                    "all" => DeviceSpec::all_devices(),
                    key => vec![DeviceSpec::by_key(key).unwrap_or_else(|| usage())],
                }
            }
            "--kernel" => {
                args.kernels = match val().as_str() {
                    "laplacian" => vec!["laplacian"],
                    "poisson" => vec!["poisson"],
                    "hyperthermia" => vec!["hyperthermia"],
                    "upstream" => vec!["upstream"],
                    "all" => vec!["laplacian", "poisson", "hyperthermia", "upstream"],
                    _ => usage(),
                }
            }
            "--precision" => {
                args.precision = match val().as_str() {
                    "sp" => Precision::Single,
                    "dp" => Precision::Double,
                    _ => usage(),
                }
            }
            "--json" => args.json = true,
            "--quick" => args.quick = true,
            "--verify-kernels" => args.verify_kernels = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// Kernel specs for one named application at one precision: the
/// forward-plane baseline plus every in-plane variant.
fn specs_for(kernel: &str, precision: Precision) -> Vec<KernelSpec> {
    let methods = [
        Method::ForwardPlane,
        Method::InPlane(Variant::Classical),
        Method::InPlane(Variant::Vertical),
        Method::InPlane(Variant::Horizontal),
        Method::InPlane(Variant::FullSlice),
    ];
    methods
        .iter()
        .map(|&m| match precision {
            Precision::Single => app_spec::<f32>(kernel, m),
            Precision::Double => app_spec::<f64>(kernel, m),
        })
        .collect()
}

fn app_spec<T: stencil_grid::Real>(kernel: &str, method: Method) -> KernelSpec {
    match kernel {
        "laplacian" => {
            KernelSpec::from_app(method, &Laplacian3d::default() as &dyn MultiGridKernel<T>)
        }
        "poisson" => KernelSpec::from_app(method, &Poisson::default() as &dyn MultiGridKernel<T>),
        "hyperthermia" => KernelSpec::from_app(method, &Hyperthermia as &dyn MultiGridKernel<T>),
        "upstream" => KernelSpec::from_app(method, &Upstream::default() as &dyn MultiGridKernel<T>),
        _ => unreachable!("parse_args validated the kernel name"),
    }
}

/// One JSON entry pairing the whole-plan dataflow histogram with the
/// static traffic oracle's predictions on a representative plan: a few
/// tiles of a wavefront-aligned configuration, enough planes for
/// prologue, steady state and drain. The oracle runs against the
/// device's own coalescing geometry (64-byte segments on wave64).
fn oracle_json(device: &DeviceSpec, spec: &KernelSpec, precision: Precision) -> String {
    let r = spec.radius;
    let config = LaunchConfig::new(device.half_wavefront(), 2, 1, 1);
    let dims = (
        2 * r + 2 * config.tile_x(),
        2 * r + 2 * config.tile_y(),
        4 * r + 2,
    );
    let plan = lower_step(spec.method, &config, r, dims);
    let report = analyze_plan(&plan);
    let traffic = predict_traffic_on(&plan, precision, device);
    format!(
        "{{\"device\":\"{}\",\"kernel\":\"{}\",\"method\":\"{}\",\
         \"dataflow\":{},\"traffic\":{}}}",
        device.name,
        spec.name,
        spec.method.label(),
        report.to_json(),
        traffic.to_json(),
    )
}

fn main() {
    let args = parse_args();
    let dims = GridDims::paper();
    let opts = LintOptions {
        verify_kernels: args.verify_kernels,
    };
    let mut reports: Vec<SweepReport> = Vec::new();
    let mut oracles: Vec<String> = Vec::new();

    for device in &args.devices {
        let configs = if args.quick {
            enumerate_configs_quick(device)
        } else {
            enumerate_configs(device)
        };
        for kernel_name in &args.kernels {
            for spec in specs_for(kernel_name, args.precision) {
                let results = lint_configs_opts(device, &spec, &dims, &configs, opts);
                reports.push(SweepReport::from_results(device, &spec, &results));
                if args.json {
                    oracles.push(oracle_json(device, &spec, args.precision));
                }
            }
        }
    }

    let failed = reports.iter().filter(|r| !r.clean()).count();
    if args.json {
        let items: Vec<String> = reports.iter().map(SweepReport::to_json).collect();
        println!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"precision\":\"{}\",\
             \"verify_kernels\":{},\
             \"reports\":[{}],\"oracle\":[{}],\"failed\":{failed},\"clean\":{}}}",
            args.precision.label(),
            args.verify_kernels,
            items.join(","),
            oracles.join(","),
            failed == 0
        );
    } else {
        for r in &reports {
            print!("{}", r.render());
        }
        let examined: usize = reports.iter().map(|r| r.examined).sum();
        let feasible: usize = reports.iter().map(|r| r.feasible).sum();
        println!(
            "total: {} sweeps, {examined} configurations examined, {feasible} feasible, {failed} failed",
            reports.len()
        );
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
