//! Self-tests of the benchmark: the metrics it prints match
//! `BENCHMARK.json` by name and unit, a tiny run of every workload fails
//! no operation, and the traced run's per-layer self times add up to its
//! root spans.
//!
//! Runs the benchmark binary from the repository root:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use eavs_daemon::json::{self, Value};
use eavs_perfbench::span::{self, Span};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository")
        .to_path_buf()
}

fn benchmark() -> Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(key: &str) -> BTreeMap<String, String> {
    let b = benchmark();
    b.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs a tiny benchmark and returns its result line.
fn tiny(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_eavs-perfbench"))
        .current_dir(root())
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("run benchmark");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

fn printed(result: &Value) -> BTreeMap<String, String> {
    result
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).unwrap().to_owned();
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has a value"
            );
            (name.clone(), unit)
        })
        .collect()
}

fn assert_clean(workload: &str, result: &Value) {
    let attempted = result.get("attempted").and_then(Value::as_u64).unwrap();
    let failed = result.get("failed").and_then(Value::as_u64).unwrap();
    assert!(attempted >= 1, "{workload} attempted nothing");
    assert_eq!(failed, 0, "{workload}: ops_failed_ratio must be 0");
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
}

#[test]
fn workloads_match_the_declaration() {
    let b = benchmark();
    let names: Vec<&str> = b
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, eavs_perfbench::WORKLOADS);
}

#[test]
fn every_workload_prints_the_declared_end_to_end_metrics_and_fails_nothing() {
    let want = declared("end_to_end");
    for workload in eavs_perfbench::ALL_WORKLOADS {
        let result = tiny(workload, false);
        assert_eq!(printed(&result), want, "{workload}");
        assert_clean(workload, &result);
    }
}

fn read_spans(path: &Path) -> Vec<Span> {
    let text = std::fs::read_to_string(path).expect("span file");
    text.lines()
        .map(|l| {
            let v = json::parse(l).expect("span line is JSON");
            let n = |k: &str| v.get(k).and_then(Value::as_u64).unwrap();
            let name = v.get("name").and_then(Value::as_str).unwrap().to_owned();
            Span {
                id: n("id"),
                parent: n("parent"),
                name: Box::leak(name.into_boxed_str()),
                group: n("group"),
                start: n("start_ns"),
                end: n("end_ns"),
            }
        })
        .collect()
}

#[test]
fn traced_run_prints_the_declared_layers_and_self_times_add_up() {
    let result = tiny("session-sweep", true);
    assert_eq!(printed(&result), declared("per_layer"));
    assert_clean("session-sweep", &result);

    let spans = read_spans(&root().join(".perfbench/spans-session-sweep-3.jsonl"));
    assert!(!spans.is_empty(), "the traced run recorded spans");
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let p = by_id[&s.parent];
        assert!(
            p.start <= s.start && s.end <= p.end,
            "{} nests in {}",
            s.name,
            p.name
        );
        assert_eq!(p.group, s.group, "one id per session");
    }
    let self_ns = span::self_ns_by_layer(&spans);
    assert_eq!(self_ns.values().sum::<u64>(), span::root_ns(&spans));
    assert!(self_ns["core"] > 0 && self_ns["bench"] > 0);
}

#[test]
fn design_maps_every_declared_metric() {
    let text = std::fs::read_to_string(root().join("perfbench/design.json")).unwrap();
    let design = json::parse(&text).unwrap();
    let mapped: Vec<&str> = design
        .get("per_layer")
        .and_then(Value::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let declared = declared("per_layer");
    assert_eq!(mapped.len(), declared.len());
    assert!(mapped.iter().all(|m| declared.contains_key(*m)));
    for key in ["default_seed", "held_out_seed"] {
        assert!(design.get(key).and_then(Value::as_u64).is_some(), "{key}");
    }
}
