//! Minimal-size runs of every workload, untraced and traced: each must pass
//! its checks and print every metric that `BENCHMARK.json` names, with that
//! metric's unit, and no other.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`
//! (a debug build works too, only slower).

use mpds_service::json::JsonValue;
use std::path::Path;
use std::process::Command;

/// The entries of one list in `BENCHMARK.json`, each as the string values
/// of `keys`.
fn declared(list: &str, keys: &[&str]) -> Vec<Vec<String>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let entries = spec.get(list).unwrap().expect("list present");
    let entries = entries.as_array(list).unwrap();
    entries
        .iter()
        .map(|e| {
            keys.iter()
                .map(|k| e.get(k).unwrap().unwrap().as_str(k).unwrap().to_string())
                .collect()
        })
        .collect()
}

/// Runs one workload for one second and returns its result line, parsed.
fn run(workload: &str, trace: u8) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_mpds-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    JsonValue::parse(last).expect("the result line is JSON")
}

/// Every workload, at `--trace trace`, prints exactly the metrics of
/// `list`, with their units; end-to-end values are never 0.
fn check_all(trace: u8, list: &str) {
    let want = declared(list, &["name", "unit"]);
    for workload in declared("workloads", &["name"]) {
        let workload = &workload[0];
        let result = run(workload, trace);
        let field = |k: &str| result.get(k).unwrap().unwrap_or_else(|| panic!("no {k}"));
        assert!(field("correct").as_bool("correct").unwrap());
        assert!(field("attempted").as_u64("attempted").unwrap() >= 1);
        assert_eq!(field("failed").as_u64("failed").unwrap(), 0);
        let metrics = field("metrics");
        let JsonValue::Object(emitted) = metrics else {
            panic!("metrics is not an object");
        };
        assert_eq!(emitted.len(), want.len(), "{workload}: exactly the {list}");
        for entry in &want {
            let (name, unit) = (&entry[0], &entry[1]);
            let m = metrics
                .get(name)
                .unwrap()
                .unwrap_or_else(|| panic!("{workload}: {name} missing"));
            assert_eq!(
                &m.get("unit").unwrap().unwrap().as_str("unit").unwrap(),
                unit
            );
            let Some(JsonValue::Number(raw)) = m.get("value").unwrap() else {
                panic!("{workload}: {name} has no numeric value");
            };
            let v: f64 = raw.parse().unwrap();
            assert!(v.is_finite(), "{workload}: {name} = {v}");
            assert!(list != "end_to_end" || v > 0.0, "{workload}: {name} = {v}");
        }
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    check_all(0, "end_to_end");
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    check_all(1, "per_layer");
}
