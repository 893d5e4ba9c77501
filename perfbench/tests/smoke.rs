//! Smoke self-test: every workload of `BENCHMARK.json`, briefly, untraced
//! and traced. Each run must pass its output checks and print every metric
//! the file names, once, with its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_obj()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing `{key}`"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn list(v: &Value) -> &[Value] {
    match v {
        Value::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .unwrap_or_else(|e| panic!("cannot run perfbench: {e}"))
}

#[test]
fn every_workload_prints_every_metric_once_with_its_unit() {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .unwrap_or_else(|e| panic!("cannot read BENCHMARK.json: {e}"));
    let spec = serde_json::parse_value(&spec).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"));
    let names = |key: &str| -> Vec<(String, String)> {
        list(field(&spec, key))
            .iter()
            .map(|m| (text(field(m, "name")).to_string(), text(field(m, "unit")).to_string()))
            .collect()
    };
    for workload in list(field(&spec, "workloads")) {
        let workload = text(field(workload, "name"));
        for (trace, expected) in [("0", names("end_to_end")), ("1", names("per_layer"))] {
            let args = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace];
            let out = run(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{workload} trace={trace} failed:\n{stdout}");
            let last = stdout.lines().last().unwrap_or_default();
            let result = serde_json::parse_value(last)
                .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e}): {last}"));
            let keys: Vec<&str> =
                result.as_obj().map_or(vec![], |o| o.iter().map(|(k, _)| k.as_str()).collect());
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{workload}");
            assert_eq!(field(&result, "correct"), &Value::Bool(true), "{workload}: {last}");
            assert_eq!(field(&result, "failed"), &Value::Int(0), "{workload}");
            assert!(matches!(field(&result, "attempted"), Value::Int(n) if *n >= 1));
            let metrics = field(&result, "metrics").as_obj().unwrap_or_default();
            assert_eq!(metrics.len(), expected.len(), "{workload} trace={trace}: metric count");
            for (name, unit) in &expected {
                let found: Vec<_> = metrics.iter().filter(|(k, _)| k == name).collect();
                assert_eq!(found.len(), 1, "{workload} trace={trace}: `{name}` printed once");
                let metric = &found[0].1;
                assert_eq!(text(field(metric, "unit")), unit, "{workload}: unit of {name}");
                assert!(matches!(field(metric, "value"), Value::Float(_) | Value::Int(_)));
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "serve-wire", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "serve-wire", "--seed", "x", "--seconds", "1", "--trace", "0"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
