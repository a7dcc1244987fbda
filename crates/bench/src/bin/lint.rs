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
use stencil_bench::opts::{parse_argv, precision_arg, CliError, Flags};
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
    kernels: &'static [(&'static str, App)],
    precision: Precision,
    json: bool,
    quick: bool,
    verify_kernels: bool,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum App {
    Laplacian,
    Poisson,
    Hyperthermia,
    Upstream,
}

/// The application kernels `--kernel` names (`all` selects every one).
const APPS: [(&str, App); 4] = [
    ("laplacian", App::Laplacian),
    ("poisson", App::Poisson),
    ("hyperthermia", App::Hyperthermia),
    ("upstream", App::Upstream),
];

fn usage() -> String {
    let devices: Vec<&str> = DeviceSpec::preset_keys().collect();
    format!(
        "usage: lint [--device {}|all]\n\
         \x20           [--kernel laplacian|poisson|hyperthermia|upstream|all]\n\
         \x20           [--precision sp|dp] [--json] [--quick] [--verify-kernels]\n\
         Sweeps the full (TX, TY, RX, RY) tuning grid for every method variant and\n\
         reports coded diagnostics. Exits non-zero when a feasible configuration\n\
         carries an error-severity diagnostic or a rejection is unexplained.\n\
         --verify-kernels additionally proves the emitted CUDA/OpenCL source by\n\
         abstract interpretation (LNT-K diagnostics).",
        devices.join("|")
    )
}

fn parse_args(argv: Vec<String>) -> Result<Args, CliError> {
    let mut a = Args {
        devices: vec![DeviceSpec::gtx580()],
        kernels: &APPS[..1],
        precision: Precision::Single,
        json: false,
        quick: false,
        verify_kernels: false,
    };
    Flags::default()
        .parsed(
            "--device",
            |s| match s {
                "all" => Some(DeviceSpec::all_devices()),
                key => DeviceSpec::by_key(key).map(|d| vec![d]),
            },
            |v| a.devices = v,
        )
        .parsed(
            "--kernel",
            |s| match s {
                "all" => Some(&APPS[..]),
                _ => APPS.iter().find(|k| k.0 == s).map(std::slice::from_ref),
            },
            |v| a.kernels = v,
        )
        .parsed("--precision", precision_arg, |v| a.precision = v)
        .switch("--json", || a.json = true)
        .switch("--quick", || a.quick = true)
        .switch("--verify-kernels", || a.verify_kernels = true)
        .parse(argv)?;
    Ok(a)
}

/// Kernel specs for one application at one precision: the
/// forward-plane baseline plus every in-plane variant.
fn specs_for(app: App, precision: Precision) -> Vec<KernelSpec> {
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
            Precision::Single => app_spec::<f32>(app, m),
            Precision::Double => app_spec::<f64>(app, m),
        })
        .collect()
}

fn app_spec<T: stencil_grid::Real>(app: App, method: Method) -> KernelSpec {
    match app {
        App::Laplacian => {
            KernelSpec::from_app(method, &Laplacian3d::default() as &dyn MultiGridKernel<T>)
        }
        App::Poisson => {
            KernelSpec::from_app(method, &Poisson::default() as &dyn MultiGridKernel<T>)
        }
        App::Hyperthermia => KernelSpec::from_app(method, &Hyperthermia as &dyn MultiGridKernel<T>),
        App::Upstream => {
            KernelSpec::from_app(method, &Upstream::default() as &dyn MultiGridKernel<T>)
        }
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
    let args = parse_argv(&usage(), parse_args);
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
        for &(_, app) in args.kernels {
            for spec in specs_for(app, args.precision) {
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

#[cfg(test)]
#[path = "../../tests/common/argv.rs"]
mod argv_property;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_a_typed_choice() {
        let argv = |args: &[&str]| args.iter().map(|s| s.to_string()).collect();
        let all = parse_args(argv(&["--kernel", "all"])).unwrap();
        assert_eq!(all.kernels, APPS);
        let one = parse_args(argv(&["--kernel", "upstream", "--precision", "dp"])).unwrap();
        assert_eq!(
            (one.kernels, one.precision),
            (&[("upstream", App::Upstream)][..], Precision::Double)
        );
        assert!(parse_args(argv(&["--kernel", "Laplacian"])).is_err());
    }

    #[test]
    fn never_panics_on_generated_argv() {
        let (ok, refused) = argv_property::run(
            0x1147,
            &[
                "--device",
                "--kernel",
                "--precision",
                "--json",
                "--quick",
                "--verify-kernels",
                "--kernels",
                "-h",
            ],
            &[
                "gtx580",
                "hd7970",
                "all",
                "laplacian",
                "upstream",
                "sp",
                "dp",
                "fp16",
                "",
                "x",
            ],
            parse_args,
        );
        assert!(ok > 0 && refused > 0, "{ok} accepted, {refused} refused");
    }
}
