//! Regenerates Figure 04 of the paper. See `bgpsim::figures::fig04`.
fn main() {
    bgpsim_bench::run_and_print("fig04");
}
