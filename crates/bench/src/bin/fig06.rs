//! Regenerates Figure 06 of the paper. See `bgpsim::figures::fig06`.
fn main() {
    bgpsim_bench::run_and_print("fig06");
}
