//! Per-vendor device figure: every registered device fingerprint is
//! auto-tuned on the laplacian (SP, oracle-first Auto selection) and
//! the result persisted as `BENCH_devices.json` — the vendor-crossover
//! companion to the per-figure benches, and the CI proof that the
//! tuner, selector and traffic oracle operate on wave64 parts exactly
//! as they do on the paper's NVIDIA cards.
//!
//! ```sh
//! cargo run --release -p stencil-bench --bin devices -- --out BENCH_devices.json
//! ```
//!
//! One JSON row per device: identity (name, vendor, architecture,
//! fingerprint), the geometry the analysis stack consumed (wavefront
//! width, segment sizes, LDS bank shape), the Auto-selected routine
//! with its predicted-traffic ranking, and the tuned best
//! configuration with its throughput. The process exits non-zero if
//! any device fails to tune or the wave64 device is missing.

use std::process::ExitCode;

use gpu_sim::{DeviceSpec, GridDims};
use inplane_core::{KernelSpec, Method, Variant};
use stencil_bench::exp::tune_best_auto;
use stencil_grid::Precision;
use stencil_lint::json_string;

struct Args {
    quick: bool,
    out: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: devices [--full] [--out PATH]\n\
         Auto-tunes laplacian SP on every registered device (NVIDIA + wave64)\n\
         and writes a per-vendor JSON figure. --full searches the unreduced\n\
         space; the default quick grid is the CI configuration."
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: true,
        out: "BENCH_devices.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => args.quick = false,
            "--out" => args.out = it.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let dims = GridDims::paper();
    let devices = DeviceSpec::all_devices();
    assert!(
        devices.iter().any(|d| d.warp_size == 64),
        "registry must include a wave64 device"
    );

    let mut rows: Vec<String> = Vec::new();
    let mut failed = 0usize;
    for device in &devices {
        let kernel =
            KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 2, Precision::Single);
        match tune_best_auto(device, &kernel, dims, true, args.quick, 42) {
            Ok((choice, best)) => {
                let ranking: Vec<String> = choice
                    .ranking
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"label\":{},\"global_bytes\":{}}}",
                            json_string(&r.method.label()),
                            r.global_bytes
                        )
                    })
                    .collect();
                println!(
                    "{:>18} [{}] {} wave{:<2} -> {} at {} = {:.0} MPoint/s",
                    device.name,
                    device.vendor(),
                    format_args!("{:016x}", device.fingerprint()),
                    device.warp_size,
                    choice.blueprint.method.label(),
                    best.config,
                    best.mpoints
                );
                rows.push(format!(
                    "{{\"device\":{},\"vendor\":{},\"arch\":\"{:?}\",\
                     \"fingerprint\":\"{:016x}\",\"warp_size\":{},\
                     \"segment_bytes\":{},\"coalesce_segment_bytes\":{},\
                     \"smem_banks\":{},\"smem_bank_bytes\":{},\
                     \"selected\":{},\"ranking\":[{}],\
                     \"best\":{{\"tx\":{},\"ty\":{},\"rx\":{},\"ry\":{}}},\
                     \"mpoints\":{:.1}}}",
                    json_string(device.name),
                    json_string(device.vendor()),
                    format_args!("{:?}", device.arch),
                    device.fingerprint(),
                    device.warp_size,
                    device.segment_bytes,
                    device.coalesce_segment_bytes,
                    device.smem_banks,
                    device.smem_bank_bytes,
                    json_string(&choice.blueprint.method.label()),
                    ranking.join(","),
                    best.config.tx,
                    best.config.ty,
                    best.config.rx,
                    best.config.ry,
                    best.mpoints
                ));
            }
            Err(diag) => {
                eprintln!("{}: auto-tune failed: {diag:?}", device.name);
                failed += 1;
            }
        }
    }

    let doc = format!(
        "{{\"schema_version\":1,\"kernel\":\"laplacian\",\"precision\":\"SP\",\
         \"quick\":{},\"devices\":[{}],\"failed\":{}}}",
        args.quick,
        rows.join(","),
        failed
    );
    if let Err(e) = std::fs::write(&args.out, &doc) {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} devices, {} failed)",
        args.out,
        rows.len(),
        failed
    );
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
