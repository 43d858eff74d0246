//! Regenerates Figure 10 of the paper. See `bgpsim::figures::fig10`.
fn main() {
    bgpsim_bench::run_and_print("fig10");
}
