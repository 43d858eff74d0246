//! Regenerates every figure of the paper in sequence, printing each table
//! and writing .txt/.csv/.json artifacts when `BGPSIM_OUT` is set.
use std::time::Instant;

fn main() {
    let opts = bgpsim_bench::opts_from_env();
    let only = bgpsim_bench::only_filter();
    let total = Instant::now();
    for (id, figure, _) in bgpsim::figures::all_figures() {
        if !bgpsim_bench::selected(&only, id) {
            continue;
        }
        let started = Instant::now();
        let data = figure(opts);
        println!("{}", bgpsim::report::render_table(&data));
        println!("[{id} in {:.1}s]\n", started.elapsed().as_secs_f64());
        if let Ok(dir) = std::env::var("BGPSIM_OUT") {
            bgpsim_bench::write_outputs(&data, std::path::Path::new(&dir));
        }
    }
    println!(
        "all 13 figures regenerated in {:.1}s (nodes={}, trials={}, seed={})",
        total.elapsed().as_secs_f64(),
        opts.nodes,
        opts.trials,
        opts.base_seed
    );
}
