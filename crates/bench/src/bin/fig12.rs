//! Regenerates Figure 12 of the paper. See `bgpsim::figures::fig12`.
fn main() {
    bgpsim_bench::run_and_print("fig12");
}
