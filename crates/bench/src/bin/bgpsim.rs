//! `bgpsim` — command-line front end for one-off experiments.
//!
//! ```text
//! bgpsim [--nodes N] [--topology 70-30|50-50|85-15|50-50-dense|realistic]
//!        [--scheme S] [--mrai SECS] [--failure FRAC] [--region center|corner|random]
//!        [--trials T] [--seed SEED] [--json] [--policy] [--damping]
//!        [--hold-timer SECS] [--prefixes K]
//!
//! schemes: constant (default), degree-dependent, dynamic, batching,
//!          batching+dynamic, tcp-batch, oracle, expedite
//! ```
//!
//! Examples:
//!
//! ```sh
//! cargo run --release -p bgpsim-bench --bin bgpsim -- \
//!     --scheme batching --mrai 0.5 --failure 0.2 --trials 5
//! cargo run --release -p bgpsim-bench --bin bgpsim -- \
//!     --topology realistic --scheme dynamic --failure 0.05 --json
//! ```

use std::process::ExitCode;

use bgpsim::experiment::{Experiment, TopologySpec};
use bgpsim::scheme::Scheme;
use bgpsim_topology::region::FailureSpec;

#[derive(Debug)]
struct Args {
    nodes: usize,
    topology: String,
    scheme: String,
    mrai: f64,
    failure: f64,
    region: String,
    trials: u32,
    seed: u64,
    json: bool,
    policy: bool,
    damping: bool,
    hold_timer: Option<f64>,
    prefixes: usize,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            nodes: 120,
            topology: "70-30".into(),
            scheme: "constant".into(),
            mrai: 0.5,
            failure: 0.05,
            region: "center".into(),
            trials: 3,
            seed: 2006,
            json: false,
            policy: false,
            damping: false,
            hold_timer: None,
            prefixes: 1,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?;
            }
            "--topology" => args.topology = value("--topology")?,
            "--scheme" => args.scheme = value("--scheme")?,
            "--mrai" => {
                args.mrai = value("--mrai")?
                    .parse()
                    .map_err(|e| format!("--mrai: {e}"))?;
            }
            "--failure" => {
                args.failure = value("--failure")?
                    .parse()
                    .map_err(|e| format!("--failure: {e}"))?;
            }
            "--region" => args.region = value("--region")?,
            "--trials" => {
                args.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--json" => args.json = true,
            "--policy" => args.policy = true,
            "--damping" => args.damping = true,
            "--hold-timer" => {
                args.hold_timer = Some(
                    value("--hold-timer")?
                        .parse()
                        .map_err(|e| format!("--hold-timer: {e}"))?,
                );
            }
            "--prefixes" => {
                args.prefixes = value("--prefixes")?
                    .parse()
                    .map_err(|e| format!("--prefixes: {e}"))?;
            }
            "--help" | "-h" => {
                return Err("help".into());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: bgpsim [--nodes N] [--topology 70-30|50-50|85-15|50-50-dense|realistic]\n\
         \x20             [--scheme constant|degree-dependent|dynamic|batching|\n\
         \x20                       batching+dynamic|tcp-batch|oracle|expedite]\n\
         \x20             [--mrai SECS] [--failure FRAC] [--region center|corner|random]\n\
         \x20             [--trials T] [--seed SEED] [--json] [--policy] [--damping]\n\
         \x20             [--hold-timer SECS] [--prefixes K]"
    );
}

/// Rejects a seconds value that no `SimDuration` can hold: negative,
/// NaN, or past the nanosecond counter's ~1.8e10 s.
fn check_secs(flag: &str, secs: f64) -> Result<(), String> {
    const MAX_SECS: f64 = u64::MAX as f64 / 1e9;
    if (0.0..=MAX_SECS).contains(&secs) {
        Ok(())
    } else {
        Err(format!(
            "{flag} {secs} is outside [0, {MAX_SECS:.1e}] seconds"
        ))
    }
}

fn build(args: &Args) -> Result<Experiment, String> {
    if !(0.0..=1.0).contains(&args.failure) {
        return Err(format!("--failure {} is outside [0, 1]", args.failure));
    }
    if args.trials == 0 {
        return Err("--trials must be at least 1".into());
    }
    check_secs("--mrai", args.mrai)?;
    if let Some(h) = args.hold_timer {
        check_secs("--hold-timer", h)?;
    }
    let topology = match args.topology.as_str() {
        "70-30" => TopologySpec::seventy_thirty(args.nodes),
        "50-50" => TopologySpec::fifty_fifty(args.nodes),
        "85-15" => TopologySpec::eighty_five_fifteen(args.nodes),
        "50-50-dense" => TopologySpec::fifty_fifty_dense(args.nodes),
        "realistic" => TopologySpec::realistic(args.nodes),
        other => return Err(format!("unknown topology {other}")),
    };
    let mut scheme = match args.scheme.as_str() {
        "constant" => Scheme::constant_mrai(args.mrai),
        "degree-dependent" => Scheme::degree_dependent(args.mrai, 2.25, 8),
        "dynamic" => Scheme::dynamic_default(),
        "batching" => Scheme::batching(args.mrai),
        "batching+dynamic" => Scheme::batching_plus_dynamic(),
        "tcp-batch" => Scheme::tcp_batch(args.mrai, 32),
        "oracle" => Scheme::oracle(&[(0.025, 0.5), (0.075, 1.25), (1.0, 2.25)]),
        "expedite" => Scheme::constant_mrai(args.mrai).with_expedited_improvements(),
        other => return Err(format!("unknown scheme {other}")),
    };
    if args.policy {
        scheme = scheme.with_policy();
    }
    if args.damping {
        scheme = scheme.with_damping(bgpsim_bgp::damping::DampingConfig::paper_scale());
    }
    if let Some(h) = args.hold_timer {
        scheme = scheme.with_hold_timer(bgpsim_des::SimDuration::from_secs_f64(h));
    }
    if args.prefixes > 1 {
        scheme = scheme.with_prefixes_per_as(args.prefixes);
    }
    let failure = match args.region.as_str() {
        "center" => FailureSpec::CenterFraction(args.failure),
        "corner" => FailureSpec::CornerFraction(args.failure),
        "random" => FailureSpec::RandomFraction(args.failure),
        other => return Err(format!("unknown region {other}")),
    };
    let exp = Experiment {
        topology,
        scheme,
        failure,
        trials: args.trials,
        base_seed: args.seed,
    };
    // Whether a node count is too small depends on the topology family and
    // the seed, so check each trial's draw before running any of them.
    for trial in 0..exp.trials {
        exp.trial_topology(trial).map_err(|e| {
            format!(
                "--nodes {}: trial {trial} cannot draw a {} topology: {e}",
                args.nodes, args.topology
            )
        })?;
    }
    Ok(exp)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}");
            }
            usage();
            return if msg == "help" {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
    };
    let exp = match build(&args) {
        Ok(e) => e,
        Err(msg) => {
            eprintln!("error: {msg}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let agg = exp.run();
    if args.json {
        let payload = serde_json::json!({
            "experiment": exp,
            "mean_delay_secs": agg.mean_delay_secs(),
            "std_delay_secs": agg.std_delay_secs(),
            "mean_messages": agg.mean_messages(),
            "mean_stale_deleted": agg.mean_stale_deleted(),
            "max_peak_queue": agg.max_peak_queue(),
            "runs": agg.runs,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&payload).expect("serializable")
        );
    } else {
        println!("scheme:            {}", exp.scheme.name);
        println!(
            "topology:          {} ({} nodes)",
            args.topology, args.nodes
        );
        println!(
            "failure:           {:.1}% ({})",
            args.failure * 100.0,
            args.region
        );
        println!("trials:            {}", args.trials);
        println!(
            "mean delay:        {:.2} s (σ {:.2})",
            agg.mean_delay_secs(),
            agg.std_delay_secs()
        );
        println!("mean messages:     {:.0}", agg.mean_messages());
        println!("stale deleted:     {:.0}", agg.mean_stale_deleted());
        println!("max queue peak:    {}", agg.max_peak_queue());
    }
    ExitCode::SUCCESS
}
