//! Regenerates the full-table axis: convergence delay and transient
//! invalid episodes versus routing-table size under a centre burst
//! withdrawal. See `bgpsim::figures::fig_fulltable`.
//!
//! `BGPSIM_TABLE_SIZES` (comma-separated prefix counts) overrides the
//! default `1000,3000,10000,30000` sweep; the usual `BGPSIM_NODES` /
//! `BGPSIM_TRIALS` / `BGPSIM_SEED` / `BGPSIM_OUT` knobs apply. The
//! default 120-node topology makes the 30k point the expensive one
//! (~3.6M routes per trial) — drop `BGPSIM_NODES` for a quick pass.
fn main() {
    let sizes: Vec<u32> = match std::env::var("BGPSIM_TABLE_SIZES") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse())
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| {
                eprintln!("error: BGPSIM_TABLE_SIZES={v}: {e}");
                std::process::exit(1)
            }),
        Err(_) => vec![1_000, 3_000, 10_000, 30_000],
    };
    let opts = bgpsim_bench::opts_from_env_for(&[("70-30", bgpsim::TopologySpec::seventy_thirty)]);
    let started = std::time::Instant::now();
    let data = bgpsim::figures::fig_fulltable(opts, &sizes);
    println!("{}", bgpsim::report::render_table(&data));
    println!(
        "(nodes={}, trials={}, seed={}, sizes={sizes:?}; regenerated in {:.1}s)",
        opts.nodes,
        opts.trials,
        opts.base_seed,
        started.elapsed().as_secs_f64()
    );
    if let Ok(dir) = std::env::var("BGPSIM_OUT") {
        bgpsim_bench::write_outputs(&data, std::path::Path::new(&dir));
    }
}
