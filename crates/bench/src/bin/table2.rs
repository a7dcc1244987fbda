//! Regenerates the paper's Table II (in-plane vs nvstencil op counts).
fn main() {
    stencil_bench::RunOpts::from_env();
    stencil_bench::exp::table2::render()
        .print("Table II: operations per grid point, in-plane vs nvstencil");
}
