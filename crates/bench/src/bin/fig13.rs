//! Regenerates Figure 13 of the paper. See `bgpsim::figures::fig13`.
fn main() {
    bgpsim_bench::run_and_print("fig13");
}
