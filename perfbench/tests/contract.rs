//! The benchmark's own contract, checked at tiny size: every workload
//! runs, runs its output checks, and reports every metric by name with
//! its unit; `BENCHMARK.json` declares exactly the metrics the code
//! reports.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeSet;
use taxrec_cli::json::{self, Json};
use taxrec_perfbench::{run, Opts, Report, Size, END_TO_END, PER_LAYER, WORKLOADS};

fn run_tiny(workload: &str, trace: bool) -> (Opts, Report) {
    let work_dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{workload}-{trace}"));
    std::fs::create_dir_all(&work_dir).unwrap();
    let opts = Opts {
        workload: workload.to_string(),
        seed: 5,
        seconds: 0.3,
        trace,
        size: Size::Tiny,
        work_dir,
    };
    let report = run(&opts).unwrap_or_else(|e| panic!("{workload}: {e}"));
    (opts, report)
}

/// The result line parses, has exactly the contract's keys, and lists
/// `table` in order with units.
fn assert_result_line(report: &Report, trace: bool, table: &[(&str, &str)]) {
    let line = report.result_json(trace);
    let parsed = json::parse(&line).unwrap_or_else(|e| panic!("bad JSON ({e}): {line}"));
    let Json::Obj(top) = &parsed else {
        panic!("result is not an object: {line}");
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(parsed.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
        panic!("no metrics object: {line}");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    for (name, unit) in table {
        let m = parsed.get("metrics").and_then(|m| m.get(name)).unwrap();
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_runs_its_checks() {
    for &w in WORKLOADS {
        let (_, report) = run_tiny(w, false);
        assert!(report.correct, "{w}: an output check failed");
        assert!(!report.checks.is_empty(), "{w}: no output check ran");
        assert_eq!(report.failed, 0, "{w}: failed ops");
        for (name, _) in END_TO_END {
            let v = report.metrics.get(name).copied();
            assert!(
                v.is_some_and(|v| v > 0.0 && v.is_finite()),
                "{w}: end-to-end {name} not measured or not positive: {v:?}"
            );
        }
        assert_result_line(&report, false, END_TO_END);
        assert!(report.header_json().contains("\"commit\""));
        assert!(report.header_json().contains("\"kernel\""));
        assert!(report.header_json().contains("\"fixture\""));
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let mut measured = BTreeSet::new();
    let mut checks = BTreeSet::new();
    for &w in WORKLOADS {
        let (_, report) = run_tiny(w, true);
        assert!(report.correct, "{w}: an output check failed");
        assert_eq!(report.failed, 0, "{w}: failed ops");
        assert_result_line(&report, true, PER_LAYER);
        for name in [
            "setup.dataset_s",
            "setup.fit_s",
            "trace.overhead_frac",
            "error_rate",
        ] {
            assert!(report.metrics.contains_key(name), "{w}: {name} missing");
        }
        measured.extend(report.metrics.keys().copied());
        checks.extend(report.checks.iter().cloned());
    }
    for (name, _) in PER_LAYER {
        assert!(
            measured.contains(name),
            "per-layer {name} is measured by no workload"
        );
    }
    // Every output check the workloads define ran at least once.
    for prefix in [
        "batch-scan: rankings equal the forced-scalar engine",
        "http: every response is 200",
        "live-mixed: every submit returns the expected Applied kind",
        "live-mixed: sampled reader loads pass verify_consistent",
        "live-mixed: persist::encode(live) equals live::replay",
        "train: every factor is finite",
        "train: held-out AUC",
    ] {
        assert!(
            checks.iter().any(|c| c.starts_with(prefix)),
            "check {prefix:?} never ran; ran {checks:?}"
        );
    }
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(rows)) = spec.get(key) else {
            panic!("{key} missing");
        };
        rows.iter()
            .map(|r| {
                (
                    r.get("name").and_then(Json::as_str).unwrap().to_string(),
                    r.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let Some(Json::Arr(workloads)) = spec.get("workloads") else {
        panic!("workloads missing");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}
