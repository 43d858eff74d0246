//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the bgpsim benchmark and prints, as the last line
//! of standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics of
//! an extra traced trial. Every trial runs in a fresh child process (the
//! same binary with `--child`). The host, the engine configuration and
//! every trial's raw figures go to `.bench_out/` in the working directory.
//! See `README.md` beside this crate.

use std::process::{Command, ExitCode};

use bgpsim_perfbench::check::pinned;
use bgpsim_perfbench::run::{run_bench, Plan, Summary, TrialKind};
use bgpsim_perfbench::spans::{by_name, check_nesting};
use bgpsim_perfbench::workload::{run_trial, thread_count, Size, TrialOut, Workload};
use serde_json::json;

/// Environment knobs that would silently reconfigure the engine.
const FORBIDDEN_ENV: [&str; 3] = ["BGPSIM_SHARDS", "BGPSIM_COMMIT_STREAMS", "BGPSIM_FEL"];

/// Least and most measured trials per run, whatever `--seconds` says.
const MIN_TRIALS: usize = 3;
const MAX_TRIALS: usize = 60;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<TrialKind>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?}; expected one of {:?}",
                    Workload::ALL.map(Workload::name)
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--child" => {
                child = Some(match value()?.as_str() {
                    "measured" => TrialKind::Measured,
                    "traced" => TrialKind::Traced,
                    "serial" => TrialKind::SerialReference,
                    other => return Err(format!("unknown child kind {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        child,
    })
}

/// Runs one trial in a fresh copy of this process and parses its output.
fn spawn_trial(args: &Args, kind: TrialKind) -> Result<TrialOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let kind_arg = match kind {
        TrialKind::Measured => "measured",
        TrialKind::Traced => "traced",
        TrialKind::SerialReference => "serial",
    };
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .args(["--child", kind_arg])
        .output()
        .map_err(|e| format!("spawning trial: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "trial process exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("trial printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("parsing trial output: {e:?}"))
}

/// The first line of `cmd`'s output, or "unknown". Git may not look for a
/// repository above the working directory.
fn command_line(cmd: &str, args: &[&str]) -> String {
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Online processors, as `nproc --all` counts them.
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The host and engine configuration the run used.
fn host_record(args: &Args, s: &Summary) -> serde_json::Value {
    let config = s
        .measured
        .first()
        .map(|t| t.config.clone())
        .unwrap_or_default();
    json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": online_cpus(),
        "available_parallelism": std::thread::available_parallelism().map(usize::from).unwrap_or(0),
        "threads": config.threads,
        "threads_allowed": thread_count(),
        "shards": config.shards,
        "commit_streams": config.commit_streams,
        "fel": config.fel,
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "rustc": command_line("rustc", &["-V"]),
        "reference": s.reference_source,
        "samples": s.measured.len(),
        "attempted": s.attempted,
        "failed": s.failed
    })
}

/// Writes the run's record, and a traced run's spans with their per-name
/// total and self times, under `.bench_out/`.
fn write_outputs(args: &Args, host: &serde_json::Value, s: &Summary) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let metrics: Vec<serde_json::Value> = s
        .metrics
        .iter()
        .map(|(n, u, v)| json!({"name": n, "unit": u, "value": v}))
        .collect();
    let record = json!({
        "host": host,
        "problems": s.problems,
        "metrics": metrics,
        "trials": s.measured
    });
    let write = |name: String, v: &serde_json::Value| {
        let path = dir.join(name);
        let text = serde_json::to_string_pretty(v).expect("records serialize");
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{stem}.json"), &record)?;
    if let Some(t) = &s.traced {
        let layers: Vec<serde_json::Value> = by_name(&t.spans)
            .into_iter()
            .map(|(name, (count, total, own))| {
                json!({"name": name, "count": count, "total_s": total, "self_s": own})
            })
            .collect();
        write(
            format!("{stem}-spans.json"),
            &json!({"layers": layers, "spans": t.spans}),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set: it would silently change the \
             engine configuration the workloads pin. Unset it and retry."
        );
        return ExitCode::from(2);
    }

    if let Some(kind) = args.child {
        let out = run_trial(
            args.workload,
            &Size::FULL,
            args.seed,
            kind == TrialKind::SerialReference,
            kind == TrialKind::Traced,
        );
        println!(
            "{}",
            serde_json::to_string(&out).expect("trial output serializes")
        );
        return ExitCode::SUCCESS;
    }

    let plan = Plan {
        seconds: args.seconds,
        min_trials: MIN_TRIALS,
        max_trials: MAX_TRIALS,
        trace: args.trace,
    };
    let summary = run_bench(
        args.workload,
        &plan,
        pinned(args.workload.name(), args.seed),
        |kind| spawn_trial(&args, kind),
    );
    let mut problems = summary.problems.clone();
    if let Some(t) = &summary.traced {
        if let Err(e) = check_nesting(&t.spans) {
            problems.push(format!("traced trial spans: {e}"));
        }
    }
    let host = host_record(&args, &summary);
    if let Err(e) = write_outputs(&args, &host, &summary) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    for p in &problems {
        eprintln!("perfbench: FAILED {p}");
    }
    if args.trace {
        eprintln!("perfbench: per-layer metrics of the traced trial");
    } else {
        eprintln!(
            "perfbench: medians of {} measured trials",
            summary.measured.len()
        );
    }
    for (name, unit, value) in &summary.metrics {
        eprintln!("  {name:<32} {value:>18.6} {unit}");
    }
    println!(
        "{}",
        serde_json::to_string(&host).expect("host record serializes")
    );
    let metrics: Vec<(&str, &str, f64)> = summary
        .metrics
        .iter()
        .map(|(n, u, v)| (n.as_str(), u.as_str(), *v))
        .collect();
    println!(
        "{}",
        bgpsim_perfbench::report::result_line(
            summary.correct() && problems.is_empty(),
            summary.attempted,
            summary.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
