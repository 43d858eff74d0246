//! End-to-end tests of the `bgpsim` command-line binary.

use std::process::Command;

fn bgpsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bgpsim"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = bgpsim().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage: bgpsim"), "no usage text: {text}");
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = bgpsim().arg("--frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown flag"), "missing diagnostic: {text}");
}

#[test]
fn small_run_reports_results() {
    let out = bgpsim()
        .args([
            "--nodes",
            "25",
            "--failure",
            "0.1",
            "--trials",
            "1",
            "--seed",
            "9",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mean delay:"), "missing results: {text}");
    assert!(text.contains("mean messages:"));
}

#[test]
fn json_output_is_parseable_and_complete() {
    let out = bgpsim()
        .args([
            "--nodes",
            "25",
            "--scheme",
            "batching",
            "--failure",
            "0.1",
            "--trials",
            "2",
            "--seed",
            "9",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let value: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(value["mean_delay_secs"].as_f64().expect("delay present") > 0.0);
    assert_eq!(value["runs"].as_array().expect("runs present").len(), 2);
    assert!(value["experiment"]["scheme"]["name"]
        .as_str()
        .expect("scheme name")
        .contains("batching"));
}

#[test]
fn same_seed_gives_identical_json() {
    let run = || {
        bgpsim()
            .args([
                "--nodes",
                "20",
                "--failure",
                "0.1",
                "--trials",
                "1",
                "--seed",
                "44",
                "--json",
            ])
            .output()
            .expect("binary runs")
            .stdout
    };
    assert_eq!(run(), run(), "CLI runs must be reproducible per seed");
}

#[test]
fn ablation_flags_are_accepted() {
    let out = bgpsim()
        .args([
            "--nodes",
            "20",
            "--failure",
            "0.05",
            "--trials",
            "1",
            "--seed",
            "3",
            "--policy",
            "--prefixes",
            "2",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Runs `cmd` with `args` and asserts a clean rejection: non-zero exit, an
/// `error: <flag>` diagnostic and no panic.
fn assert_rejected(mut cmd: Command, args: &[&str]) {
    let out = cmd.args(args).output().expect("binary runs");
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} was accepted");
    assert_eq!(out.status.code(), Some(1), "{args:?}: {text}");
    assert!(
        text.contains(&format!("error: {}", args[0])),
        "{args:?}: no diagnostic naming the flag: {text}"
    );
    assert!(text.contains("usage:"), "{args:?}: no usage: {text}");
    assert!(!text.contains("panicked"), "{args:?} panicked: {text}");
}

#[test]
fn out_of_range_numbers_are_rejected() {
    for args in [
        ["--failure", "1.5"],
        ["--failure", "-0.1"],
        ["--failure", "NaN"],
        ["--mrai", "-1"],
        ["--mrai", "NaN"],
        ["--hold-timer", "-2"],
        ["--trials", "0"],
    ] {
        assert_rejected(bgpsim(), &args);
    }
    // Too few nodes for the topology family: the generator cannot realise
    // the degree distribution, which must not surface as a panic.
    assert_rejected(bgpsim(), &["--nodes", "8"]);
    assert_rejected(bgpsim(), &["--nodes", "12", "--topology", "85-15"]);
}

#[test]
fn largescale_rejects_too_few_nodes_and_bad_failure() {
    let largescale = || Command::new(env!("CARGO_BIN_EXE_largescale"));
    // The smallest valid size keeps a regression from starting the
    // default 10,000-AS run.
    for args in [
        &["--nodes", "30"][..],
        &["--failure", "1.5", "--nodes", "64"],
        &["--failure", "NaN", "--nodes", "64"],
    ] {
        assert_rejected(largescale(), args);
    }
}

#[test]
fn figure_bins_reject_bad_sizing_without_panicking() {
    let fig01 = env!("CARGO_BIN_EXE_fig01");
    for (bin, name, value) in [
        (fig01, "BGPSIM_NODES", "8"),
        (fig01, "BGPSIM_TRIALS", "x"),
        (fig01, "BGPSIM_TRIALS", "0"),
        // Fig 5 draws the dense 50-50 family, which 20 nodes cannot
        // realise at the default seed.
        (env!("CARGO_BIN_EXE_fig05"), "BGPSIM_NODES", "20"),
        (
            env!("CARGO_BIN_EXE_fig_fulltable"),
            "BGPSIM_TABLE_SIZES",
            "500,x",
        ),
    ] {
        let out = Command::new(bin)
            .env_remove("BGPSIM_OUT")
            .env("BGPSIM_TRIALS", "1")
            .env(name, value)
            .output()
            .expect("binary runs");
        let text = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}={value}: {text}");
        assert!(
            text.contains(&format!("error: {name}={value}")),
            "{name}={value}: no diagnostic naming the variable: {text}"
        );
        assert!(
            !text.contains("panicked"),
            "{name}={value} panicked: {text}"
        );
    }
}

#[test]
fn figure_bins_check_only_the_families_they_draw() {
    // Fig 1 draws only 70-30, which 20 nodes realise at the default seed,
    // so the dense 50-50 family that Fig 5 needs must not veto it.
    let out = Command::new(env!("CARGO_BIN_EXE_fig01"))
        .env_remove("BGPSIM_OUT")
        .env_remove("BGPSIM_SEED")
        .env("BGPSIM_NODES", "20")
        .env("BGPSIM_TRIALS", "1")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "fig01 at 20 nodes: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
