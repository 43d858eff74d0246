//! Regenerates Figure 02 of the paper. See `bgpsim::figures::fig02`.
fn main() {
    bgpsim_bench::run_and_print("fig02");
}
