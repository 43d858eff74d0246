//! Regenerates Figure 07 of the paper. See `bgpsim::figures::fig07`.
fn main() {
    bgpsim_bench::run_and_print("fig07");
}
