//! Regenerates Figure 09 of the paper. See `bgpsim::figures::fig09`.
fn main() {
    bgpsim_bench::run_and_print("fig09");
}
