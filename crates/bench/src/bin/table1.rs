//! Regenerates the paper's Table I (stencil specifications).
fn main() {
    stencil_bench::RunOpts::from_env();
    stencil_bench::exp::table1::render().print("Table I: stencil kernel specifications");
}
