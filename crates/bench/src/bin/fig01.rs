//! Regenerates Figure 01 of the paper. See `bgpsim::figures::fig01`.
fn main() {
    bgpsim_bench::run_and_print("fig01");
}
