//! Regenerates Figure 05 of the paper. See `bgpsim::figures::fig05`.
fn main() {
    bgpsim_bench::run_and_print("fig05");
}
