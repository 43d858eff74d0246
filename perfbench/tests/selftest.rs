//! Self-tests of the benchmark at smoke sizes: the printed metrics match
//! `BENCHMARK.json`, ratios come with their parts, spans nest, and a
//! perturbed reference is caught.

use std::collections::BTreeMap;

use bgpsim_perfbench::check::Outcome;
use bgpsim_perfbench::report::{result_line, Ratio, END_TO_END, PER_LAYER, RATIOS};
use bgpsim_perfbench::run::{run_bench, Plan, Summary, TrialKind};
use bgpsim_perfbench::spans::{check_nesting, self_seconds, Span};
use bgpsim_perfbench::workload::{run_trial, Size, Workload};

fn smoke(workload: Workload, trace: bool, pinned: Option<Vec<Outcome>>) -> Summary {
    let plan = Plan {
        seconds: 0.0,
        min_trials: 2,
        max_trials: 2,
        trace,
    };
    run_bench(workload, &plan, pinned, |kind| {
        Ok(run_trial(
            workload,
            &Size::SMOKE,
            7,
            kind == TrialKind::SerialReference,
            kind == TrialKind::Traced,
        ))
    })
}

fn printed(s: &Summary) -> serde_json::Value {
    let metrics: Vec<(&str, &str, f64)> = s
        .metrics
        .iter()
        .map(|(n, u, v)| (n.as_str(), u.as_str(), *v))
        .collect();
    let line = result_line(s.correct(), s.attempted, s.failed, &metrics);
    serde_json::from_str(&line).expect("the result line is JSON")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let bench: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    bench[list]
        .as_array()
        .expect("metric lists are arrays")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m[k].as_str()
                    .expect("name and unit are strings")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u, _)| (n.into(), u.into()))
        .collect();
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layers);

    for workload in Workload::ALL {
        for (trace, expected) in [(false, &e2e), (true, &layers)] {
            let s = smoke(workload, trace, None);
            assert!(s.correct(), "{workload:?}: {:?}", s.problems);
            let v = printed(&s);
            let serde_json::Value::Object(fields) = &v else {
                panic!("result line is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let serde_json::Value::Object(metrics) = &v["metrics"] else {
                panic!("metrics is an object")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, m)| {
                    assert!(m["value"].as_f64().is_some_and(f64::is_finite), "{k}");
                    (k.clone(), m["unit"].as_str().expect("unit").to_string())
                })
                .collect();
            assert_eq!(&got, expected, "{workload:?} trace={trace}");
            if !trace {
                for (k, m) in metrics {
                    assert!(m["value"].as_f64().unwrap() > 0.0, "{workload:?} {k} is 0");
                }
            }
        }
    }
}

#[test]
fn every_ratio_is_emitted_with_its_numerator_and_denominator() {
    let names: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
    for (ratio, num, den, _) in RATIOS {
        for n in [ratio, num, den] {
            assert!(names.contains(&n), "{n} is not a per-layer metric");
        }
    }
    for workload in Workload::ALL {
        let s = smoke(workload, true, None);
        let m: BTreeMap<&str, f64> = s.metrics.iter().map(|(n, _, v)| (n.as_str(), *v)).collect();
        for (ratio, num, den, kind) in RATIOS {
            let (n, d) = (m[num], m[den]);
            let expected = match kind {
                _ if d == 0.0 => 0.0,
                Ratio::Plain => n / d,
                Ratio::Complement => 1.0 - n / d,
                Ratio::Excess => n / d - 1.0,
            };
            assert_eq!(m[ratio], expected, "{workload:?} {ratio}");
        }
        assert_eq!(m["trace.dropped"], 0.0);
        assert!(m["trace.events"] > 0.0);
        assert!(m["decision.useful_ratio"] > 0.0 && m["decision.useful_ratio"] <= 1.0);
    }
}

#[test]
fn child_spans_lie_within_their_parent() {
    for workload in Workload::ALL {
        let t = run_trial(workload, &Size::SMOKE, 3, false, true);
        assert!(
            t.spans.len() > 5,
            "{workload:?} recorded {} spans",
            t.spans.len()
        );
        check_nesting(&t.spans).expect("spans nest");
        assert!(t.spans.iter().all(|s| s.trial == 3));
    }

    let span = |id, parent, start_ns, end_ns| Span {
        id,
        parent,
        trial: 1,
        name: format!("s{id}"),
        start_ns,
        end_ns,
    };
    // Two overlapping children (parallel threads) cover [2, 7] of [0, 10].
    let spans = [
        span(0, None, 0, 10),
        span(1, Some(0), 2, 6),
        span(2, Some(0), 4, 7),
    ];
    check_nesting(&spans).expect("well nested");
    let own = self_seconds(&spans);
    assert!((own[&0] - 5e-9).abs() < 1e-15);
    assert!((own[&1] - 4e-9).abs() < 1e-15);
    let escaped = [span(0, None, 0, 10), span(1, Some(0), 5, 11)];
    assert!(check_nesting(&escaped).is_err());
    let orphan = [span(1, Some(9), 0, 1)];
    assert!(check_nesting(&orphan).is_err());
}

#[test]
fn a_perturbed_reference_is_detected() {
    for workload in Workload::ALL {
        let good = run_trial(workload, &Size::SMOKE, 7, false, false).outcomes;
        assert!(smoke(workload, false, Some(good.clone())).correct());

        let mut bad = good;
        bad[0].stats.messages += 1;
        let s = smoke(workload, true, Some(bad));
        assert!(!s.correct());
        assert_eq!(s.failed, s.attempted, "{workload:?}: every trial must fail");
        let m: BTreeMap<&str, f64> = s.metrics.iter().map(|(n, _, v)| (n.as_str(), *v)).collect();
        assert_eq!(m["bench.failed_frac"], 1.0);
    }
}

#[test]
fn the_sharded_workload_matches_its_serial_run() {
    let w = Workload::Caida512TwoShard;
    let sharded = run_trial(w, &Size::SMOKE, 11, false, false);
    let serial = run_trial(w, &Size::SMOKE, 11, true, false);
    assert_eq!(sharded.config.shards, 2);
    assert_eq!(serial.config.shards, 1);
    assert_eq!(sharded.outcomes, serial.outcomes);
    assert!(sharded.layers["shard.epochs"] > 0.0);
}

#[test]
fn the_engine_knobs_in_the_environment_are_refused() {
    for var in ["BGPSIM_SHARDS", "BGPSIM_COMMIT_STREAMS", "BGPSIM_FEL"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "fulltable5k", "--seed", "1", "--seconds", "1"])
            .args(["--trace", "0"])
            .env(var, "2")
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var));
    }
}
