//! Regenerates the paper's Table III (GPU specs + measured bandwidth).
fn main() {
    stencil_bench::RunOpts::from_env();
    stencil_bench::exp::table3::render()
        .print("Table III: simulated GPU specifications and measured bandwidth");
}
