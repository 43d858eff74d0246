//! Regenerates Figure 11 of the paper. See `bgpsim::figures::fig11`.
fn main() {
    bgpsim_bench::run_and_print("fig11");
}
