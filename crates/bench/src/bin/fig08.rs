//! Regenerates Figure 08 of the paper. See `bgpsim::figures::fig08`.
fn main() {
    bgpsim_bench::run_and_print("fig08");
}
