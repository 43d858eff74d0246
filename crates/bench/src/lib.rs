//! Shared driver for the figure-regeneration binaries.
//!
//! Each `src/bin/figNN.rs` regenerates one figure of the paper and prints
//! the same series the figure plots. Sizing is controlled by environment
//! variables so the full-fidelity run and the quick smoke run share one
//! binary:
//!
//! | variable          | default | meaning                         |
//! |-------------------|---------|---------------------------------|
//! | `BGPSIM_NODES`    | 120     | nodes (ASes) per topology       |
//! | `BGPSIM_TRIALS`   | 3       | seeded trials per point         |
//! | `BGPSIM_SEED`     | 2006    | base seed                       |
//! | `BGPSIM_THREADS`  | auto    | worker threads                  |
//! | `BGPSIM_OUT`      | (none)  | directory for .txt/.csv/.json   |

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;

use bgpsim::experiment::{Experiment, TopologySpec};
use bgpsim::figures::{all_figures, Family, FigOpts, FigureData};
use bgpsim::report::{render_csv, render_table};
use bgpsim::scheme::Scheme;
use bgpsim_topology::region::FailureSpec;

/// Every topology family the figure and extension experiments draw.
const FIGURE_FAMILIES: [Family; 6] = [
    ("70-30", TopologySpec::seventy_thirty),
    ("50-50", TopologySpec::fifty_fifty),
    ("85-15", TopologySpec::eighty_five_fifteen),
    ("50-50-dense", TopologySpec::fifty_fifty_dense),
    ("realistic", TopologySpec::realistic),
    ("hierarchical", TopologySpec::hierarchical),
];

/// Reads the sizing environment variables for a binary that may draw any
/// family the figures and extensions use (70-30, 50-50, 85-15,
/// 50-50-dense, realistic, hierarchical); see [`opts_from_env_for`].
pub fn opts_from_env() -> FigOpts {
    opts_from_env_for(&FIGURE_FAMILIES)
}

/// Reads the sizing environment variables. An unparsable value, zero
/// trials, or a node count that some trial cannot draw a topology of in
/// one of `families` prints `error: BGPSIM_<NAME>=<value>: …` to stderr
/// and exits with status 1.
pub fn opts_from_env_for(families: &[Family]) -> FigOpts {
    try_opts_from_env(families).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(1)
    })
}

fn try_opts_from_env(families: &[Family]) -> Result<FigOpts, String> {
    let mut opts = FigOpts::default();
    if let Some(v) = env_parse("BGPSIM_NODES")? {
        opts.nodes = v;
    }
    if let Some(v) = env_parse("BGPSIM_TRIALS")? {
        if v == 0 {
            return Err("BGPSIM_TRIALS=0: must be at least 1".into());
        }
        opts.trials = v;
    }
    if let Some(v) = env_parse("BGPSIM_SEED")? {
        opts.base_seed = v;
    }
    if let Some(v) = env_parse("BGPSIM_THREADS")? {
        opts.threads = Some(v);
    }
    // Whether a node count is too small depends on the family and the
    // seed, so draw every trial's topology of each family up front.
    let n = opts.nodes;
    for &(family, spec) in families {
        let exp = Experiment {
            topology: spec(n),
            scheme: Scheme::constant_mrai(0.5),
            failure: FailureSpec::CenterFraction(0.0),
            trials: opts.trials,
            base_seed: opts.base_seed,
        };
        for trial in 0..opts.trials {
            exp.trial_topology(trial).map_err(|e| {
                format!("BGPSIM_NODES={n}: trial {trial} cannot draw a {family} topology: {e}")
            })?;
        }
    }
    Ok(opts)
}

/// Parses environment variable `name` if it is set.
fn env_parse<T: FromStr>(name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    match std::env::var(name) {
        Ok(v) => v.parse().map(Some).map_err(|e| format!("{name}={v}: {e}")),
        Err(_) => Ok(None),
    }
}

/// Parses the `BGPSIM_ONLY` filter (comma-separated experiment ids); an
/// empty result means "run everything".
pub fn only_filter() -> Vec<String> {
    std::env::var("BGPSIM_ONLY")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .collect()
        })
        .unwrap_or_default()
}

/// Whether `id` passes the `BGPSIM_ONLY` filter.
pub fn selected(only: &[String], id: &str) -> bool {
    only.is_empty() || only.iter().any(|o| o == id)
}

/// Regenerates figure `id` of [`all_figures`], with the sizing checked
/// against the topology families that figure draws; prints its table, and
/// (if `BGPSIM_OUT` is set) writes `figNN.txt`, `figNN.csv` and
/// `figNN.json` into that directory.
///
/// # Panics
///
/// Panics if `id` names no figure.
pub fn run_and_print(id: &str) {
    let (_, figure, families) = all_figures()
        .into_iter()
        .find(|&(fig, _, _)| fig == id)
        .unwrap_or_else(|| panic!("no figure {id}"));
    let opts = opts_from_env_for(families);
    let started = Instant::now();
    let data = figure(opts);
    let table = render_table(&data);
    println!("{table}");
    println!(
        "(nodes={}, trials={}, seed={}; regenerated in {:.1}s)",
        opts.nodes,
        opts.trials,
        opts.base_seed,
        started.elapsed().as_secs_f64()
    );
    if let Ok(dir) = std::env::var("BGPSIM_OUT") {
        write_outputs(&data, Path::new(&dir));
    }
}

/// Writes the three output files for a regenerated figure.
pub fn write_outputs(data: &FigureData, dir: &Path) {
    std::fs::create_dir_all(dir).expect("create output directory");
    let base = dir.join(&data.id);
    std::fs::write(base.with_extension("txt"), render_table(data)).expect("write table");
    std::fs::write(base.with_extension("csv"), render_csv(data)).expect("write csv");
    std::fs::write(
        base.with_extension("json"),
        serde_json::to_string_pretty(data).expect("figure serializes"),
    )
    .expect("write json");
}
