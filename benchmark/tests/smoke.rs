//! Runs every workload at toy size, untraced and traced, and checks the
//! printed result against `BENCHMARK.json`: every declared metric, with
//! its declared unit, and nothing else.

use std::path::{Path, PathBuf};
use std::process::Command;

use tg_benchmark::json::Json;
use tg_benchmark::report::{END_TO_END, PER_LAYER};
use tg_benchmark::workload::Workload;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better, bound)` of every entry of one metric list.
fn declared(manifest: &Json, list: &str) -> Vec<(String, String, String, Option<f64>)> {
    manifest
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str).unwrap().to_string();
            (
                text("name"),
                text("unit"),
                text("better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

fn run(args: &[&str], dir: &Path) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh working directory for one test under Cargo's test scratch
/// space: runs leave their sockets and records there.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn the_code_declares_what_benchmark_json_declares() {
    let manifest = manifest();
    let code = |defs: &[tg_benchmark::report::MetricDef]| {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                    d.bound,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(declared(&manifest, "end_to_end"), code(END_TO_END));
    assert_eq!(declared(&manifest, "per_layer"), code(PER_LAYER));
    let names: Vec<String> = manifest
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let manifest = manifest();
    let dir = scratch("smoke");
    let records = dir.join("records.jsonl");
    let records_arg = records.to_str().unwrap();
    for workload in Workload::ALL {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                workload.name(),
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--toy",
                "--out",
                records_arg,
            ];
            let (ok, stdout, stderr) = run(&args, &dir);
            assert!(ok, "{} trace {trace} failed: {stderr}", workload.name());
            let result = Json::parse(stdout.lines().last().unwrap()).unwrap();
            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = result.get("metrics").and_then(Json::as_object).unwrap();
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
                    (
                        name.clone(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let wanted: Vec<(String, String)> = declared(&manifest, list)
                .into_iter()
                .map(|(n, u, _, _)| (n, u))
                .collect();
            assert_eq!(printed, wanted, "{} trace {trace}", workload.name());
            // The table names every metric with its unit too.
            for (name, unit) in &wanted {
                assert!(
                    stdout.lines().any(|l| l
                        .split_whitespace()
                        .take(2)
                        .eq([name.as_str(), unit.as_str()])),
                    "{name} missing from the table:\n{stdout}"
                );
            }
        }
    }
    // The labelled records feed `compare`; a file never regresses against
    // itself.
    let (ok, table, stderr) = run(&["compare", records_arg, records_arg], &dir);
    assert!(ok, "{stderr}");
    for workload in Workload::ALL {
        assert!(table.contains(workload.name()), "{table}");
    }
    assert!(!table.contains("worse"), "{table}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let dir = scratch("args");
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds"],
        &["--frobnicate", "1"],
        &["compare", "only-one"],
    ] {
        let (ok, stdout, _) = run(args, &dir);
        assert!(!ok && stdout.is_empty(), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
