//! Keeps `BENCHMARK.json`, `plan.json` and the benchmark binary in step:
//! every workload, run briefly on a seed other than the default, must
//! pass its output checks and emit every metric it names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build also works, with auditing on and far slower diffs).

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn read_json(path: PathBuf) -> Value {
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

fn benchmark() -> Value {
    read_json(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

fn plan() -> Value {
    read_json(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("plan.json"))
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name").to_string())
        .collect()
}

fn keys(object: &Value) -> Vec<String> {
    object
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// Runs one workload and returns its stdout lines.
fn run(workload: &str, seed: &str, trace: &str) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_hierdiff-perfbench"))
        .args(["--workload", workload, "--seed", seed])
        .args(["--seconds", "0.5", "--trace", trace])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

#[test]
fn plan_describes_every_workload_and_metric() {
    let bench = benchmark();
    let plan = plan();
    assert_eq!(names(&bench["workloads"]), keys(&plan["workloads"]));
    assert_eq!(names(&bench["per_layer"]), keys(&plan["per_layer"]));
    let e2e = keys(&plan["end_to_end"]);
    for name in names(&bench["end_to_end"]) {
        assert!(
            e2e.contains(&name),
            "plan.json lacks end-to-end metric {name}"
        );
    }
    for (name, m) in plan["per_layer"].as_object().expect("per_layer") {
        for moved in m["moves"].as_array().expect("moves") {
            let moved = moved.as_str().expect("a metric name").to_string();
            assert!(e2e.contains(&moved), "{name} moves unknown metric {moved}");
        }
    }
    let setup = bench["end_to_end"]
        .as_array()
        .expect("end_to_end")
        .iter()
        .find(|m| m["name"].as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    let largest = bench["end_to_end"]
        .as_array()
        .expect("end_to_end")
        .iter()
        .map(|m| m["bound"].as_f64().expect("a bound"))
        .fold(0.0, f64::max);
    assert!(largest <= 0.25);
    assert_eq!(
        setup["bound"].as_f64(),
        Some(largest),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_workload_emits_every_metric_on_a_second_seed() {
    let bench = benchmark();
    let default_seed = plan()["default_seed"].as_u64().expect("default seed");
    let seed = (default_seed + 1).to_string();
    let e2e_printed = keys(&plan()["end_to_end"]);
    for workload in names(&bench["workloads"]) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let lines = run(&workload, &seed, trace);
            assert!(
                lines.iter().any(|l| l.contains(&format!("seed {seed}"))),
                "{workload}: the seed argument was not used"
            );
            let result: Value =
                serde_json::from_str(lines.last().expect("output")).expect("a JSON last line");
            assert_eq!(result["correct"].as_bool(), Some(true), "{workload}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{workload}");
            assert!(result["attempted"].as_u64().expect("attempted") >= 1);
            let metrics = &result["metrics"];
            assert_eq!(
                keys(metrics),
                names(&bench[list]),
                "{workload} --trace {trace}"
            );
            for m in bench[list].as_array().expect("metrics") {
                let name = m["name"].as_str().expect("name");
                assert_eq!(metrics[name]["unit"], m["unit"], "{workload}: {name}");
                assert!(
                    metrics[name]["value"].as_f64().is_some(),
                    "{workload}: {name}"
                );
            }
            if trace == "0" {
                // Every end-to-end metric that applies to the workload is
                // printed with its unit and sample count.
                for name in &e2e_printed {
                    let on = plan()["end_to_end"][name.as_str()]["on"].clone();
                    if on.as_str() == Some("all") || on.as_str() == Some(workload.as_str()) {
                        assert!(
                            lines
                                .iter()
                                .any(|l| l.starts_with(&format!("metric {name} "))
                                    && l.contains(" n=")),
                            "{workload}: {name} not printed"
                        );
                    }
                }
                let failed = lines
                    .iter()
                    .find(|l| l.starts_with("metric failed_frac "))
                    .expect("failed_frac printed");
                assert!(failed.contains(" 0.000000 "), "{workload}: {failed}");
            }
        }
    }
}

#[test]
fn content_metrics_repeat_exactly() {
    let pick = |lines: Vec<String>| -> Vec<String> {
        lines
            .into_iter()
            .filter(|l| l.starts_with("metric script_len ") || l.starts_with("metric script_cost "))
            .collect()
    };
    for workload in ["dense-gumtree", "serve-chain"] {
        let first = pick(run(workload, "3", "0"));
        assert_eq!(first.len(), 2, "{workload}: script metrics printed");
        assert_eq!(first, pick(run(workload, "3", "0")), "{workload}");
    }
}
