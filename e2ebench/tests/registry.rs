//! `BENCHMARK.json` and the benchmark agree: the registered workloads
//! and metrics are the ones the code defines, and a real run prints
//! exactly the registered names for its mode.

use std::path::PathBuf;
use std::process::Command;

use e2ebench::json::{parse, Value};
use e2ebench::spec::{Kind, METRICS, WORKLOADS};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, section: &str) -> Vec<String> {
    v.get(section)
        .unwrap_or_else(|| panic!("{section} missing"))
        .as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn registered(kind: Kind) -> Vec<String> {
    METRICS
        .iter()
        .filter(|m| m.kind == kind)
        .map(|m| m.name.to_string())
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(names(&b, "end_to_end"), registered(Kind::EndToEnd));
    assert_eq!(names(&b, "per_layer"), registered(Kind::Layer));
    assert_eq!(
        names(&b, "workloads"),
        WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect::<Vec<_>>()
    );
    for w in &WORKLOADS {
        let entry = b
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(w.name));
        assert_eq!(
            entry.and_then(|e| e.get("why")).and_then(Value::as_str),
            Some(w.why)
        );
    }
    for section in ["end_to_end", "per_layer"] {
        for entry in b.get(section).unwrap().as_arr() {
            let name = entry.get("name").and_then(Value::as_str).unwrap();
            let m = METRICS.iter().find(|m| m.name == name).unwrap();
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "{name}"
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(m.better.as_str()),
                "{name}"
            );
        }
    }
    // Set-up time carries the largest bound.
    let bound = |e: &Value| match e.get("bound") {
        Some(Value::Num(x)) => *x,
        _ => panic!("bound missing"),
    };
    let e2e = b.get("end_to_end").unwrap().as_arr();
    let setup = e2e
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("setup_s"))
        .map(bound)
        .unwrap();
    assert!(e2e.iter().all(|e| bound(e) <= setup && bound(e) <= 0.25));
}

/// Runs the benchmark for one second in both modes and checks the
/// metric names on the result line.
#[test]
fn printed_names_match_benchmark_json() {
    let b = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args([
                "--workload",
                "paced_get",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
            ])
            .current_dir(repo_root())
            .output()
            .expect("bench runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result = parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
        let Some(Value::Obj(metrics)) = result.get("metrics") else {
            panic!("no metrics")
        };
        let mut printed: Vec<String> = metrics.keys().cloned().collect();
        let mut want = names(&b, section);
        printed.sort();
        want.sort();
        assert_eq!(printed, want, "trace {trace}");
    }
}
