//! Keeps the benchmark from rotting: `BENCHMARK.json` must say what the
//! harness's own tables say, and `decaf-e2e all --smoke` — every workload,
//! end to end and traced, at the shortest length — must run, pass its
//! output checks, and report every metric the contract lists, once.

use std::path::{Path, PathBuf};
use std::process::Command;

use decaf_e2e::json::{self, Value};
use decaf_e2e::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key:?} in {v}"))
}

#[test]
fn benchmark_json_matches_the_harness_tables() {
    let b = benchmark_json();
    let keys: Vec<&str> = b.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let workloads = b.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!((str_of(w, "name"), str_of(w, "why")), (name, why));
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why too long"
        );
    }

    let same = |listed: &[Value], specs: &[MetricSpec], bounded: bool| {
        assert_eq!(listed.len(), specs.len());
        for (m, spec) in listed.iter().zip(specs) {
            assert_eq!(str_of(m, "name"), spec.name);
            assert_eq!(str_of(m, "unit"), spec.unit, "{}", spec.name);
            assert_eq!(str_of(m, "better"), spec.better.word(), "{}", spec.name);
            let bound = m.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, bounded.then_some(spec.bound), "{}", spec.name);
        }
    };
    same(
        b.get("end_to_end").and_then(Value::as_arr).unwrap(),
        &END_TO_END,
        true,
    );
    same(
        b.get("per_layer").and_then(Value::as_arr).unwrap(),
        &PER_LAYER,
        false,
    );
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

/// Runs `decaf-e2e all --smoke` into a fresh directory; returns the
/// result document.
fn run_all(out: &Path, traced: bool) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_decaf-e2e"));
    cmd.args(["all", "--smoke", "--seed", "7", "--out"])
        .arg(out);
    if traced {
        cmd.arg("--traced");
    }
    let output = cmd.output().expect("decaf-e2e runs");
    assert!(
        output.status.success(),
        "decaf-e2e all --smoke{} failed:\n{}\n{}",
        if traced { " --traced" } else { "" },
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let file = out.join(if traced {
        "e2e.traced.json"
    } else {
        "e2e.json"
    });
    // The reader rejects a key that occurs twice, so a metric that parses
    // is a metric reported exactly once.
    json::parse(&std::fs::read_to_string(file).expect("result file")).expect("result file parses")
}

fn assert_reports(doc: &Value, specs: &[MetricSpec]) {
    for (workload, _) in WORKLOADS {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(workload))
            .unwrap_or_else(|| panic!("{workload} missing"));
        assert_eq!(w.get("correct"), Some(&Value::Bool(true)), "{workload}");
        assert_eq!(
            w.get("failed").and_then(Value::as_f64),
            Some(0.0),
            "{workload}"
        );
        let metrics = w.get("metrics").and_then(Value::as_obj).unwrap();
        let mut names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = specs.iter().map(|m| m.name).collect();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want, "{workload}");
        for spec in specs {
            let m = &metrics[spec.name];
            assert_eq!(str_of(m, "unit"), spec.unit, "{workload} {}", spec.name);
            let v = m.get("value").and_then(Value::as_f64);
            assert!(
                v.is_some_and(f64::is_finite),
                "{workload} {}: {m}",
                spec.name
            );
        }
    }
}

#[test]
fn smoke_run_reports_every_metric_once() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("decaf-e2e-smoke");
    let _ = std::fs::remove_dir_all(&out);

    let plain = run_all(&out, false);
    assert_reports(&plain, &END_TO_END);
    for (workload, _) in WORKLOADS {
        // End-to-end metrics are never 0: the driver compares ratios.
        let metrics = plain.get("workloads").unwrap().get(workload).unwrap();
        for spec in &END_TO_END {
            let v = metrics.get("metrics").unwrap().get(spec.name).unwrap();
            assert!(
                v.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                "{workload} {}",
                spec.name
            );
        }
    }

    let traced = run_all(&out, true);
    assert_reports(&traced, &PER_LAYER);
    for (workload, _) in WORKLOADS {
        let spans = out.join(format!("{workload}.spans.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("span file under --out");
        let first = json::parse(text.lines().next().expect("spans recorded")).unwrap();
        assert!(first.get("name").is_some() && first.get("start_ns").is_some());
    }

    // A run set compares clean against itself.
    let file = out.join("e2e.json");
    let status = Command::new(env!("CARGO_BIN_EXE_decaf-e2e"))
        .arg("compare")
        .args([&file, &file])
        .status()
        .expect("compare runs");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&out);
}
