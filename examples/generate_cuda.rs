//! Generate real CUDA sources for a tuned kernel — the bridge from this
//! reproduction back to actual hardware.
//!
//! Tunes the order-4 SP full-slice kernel on the simulated GTX580, then
//! emits `generated/kernel.cu` (the `__global__` kernel specialised to
//! the tuned blocking factors) and `generated/main.cu` (a host harness
//! with padded allocation, constant-coefficient upload and the Fig-1
//! double-buffered timing loop). On a machine with `nvcc`:
//!
//! ```sh
//! cargo run --release --example generate_cuda
//! nvcc -O3 -arch=sm_20 generated/main.cu -o stencil && ./stencil
//! ```

use inplane_isl::codegen::{generate_host_harness_on, generate_kernel};
use inplane_isl::prelude::*;
use inplane_isl::sim::DeviceSpec;
use stencil_grid::Precision;

fn main() -> std::io::Result<()> {
    let device = DeviceSpec::gtx580();
    let dims = GridDims::paper();
    let kernel = KernelSpec::star_order(
        inplane_isl::core::Method::InPlane(Variant::FullSlice),
        4,
        Precision::Single,
    );

    // Tune first — the generated source bakes in the blocking factors.
    let space = ParameterSpace::quick_space(&device, &kernel, &dims);
    let best = exhaustive_tune(&device, &kernel, dims, &space, 1).best;
    println!(
        "tuned {} on {}: {} -> {:.0} MPoint/s (simulated)",
        kernel.name, device.name, best.config, best.mpoints
    );

    let gen = generate_kernel(&kernel, &best.config);
    let host = generate_host_harness_on(
        &kernel,
        &best.config,
        dims.lx,
        dims.ly,
        dims.lz,
        100,
        &device,
    );

    std::fs::create_dir_all("generated")?;
    std::fs::write("generated/kernel.cu", &gen.source)?;
    std::fs::write("generated/main.cu", &host)?;
    println!(
        "wrote generated/kernel.cu ({} lines, {} B static shared memory, block {}x{})",
        gen.source.lines().count(),
        gen.smem_bytes,
        gen.block.0,
        gen.block.1
    );
    println!("wrote generated/main.cu ({} lines)", host.lines().count());
    println!("\nbuild on a CUDA machine with:");
    println!("  nvcc -O3 generated/main.cu -o stencil && ./stencil");
    Ok(())
}
