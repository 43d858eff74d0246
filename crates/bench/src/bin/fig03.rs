//! Regenerates Figure 03 of the paper. See `bgpsim::figures::fig03`.
fn main() {
    bgpsim_bench::run_and_print("fig03");
}
