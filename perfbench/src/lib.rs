//! # taxrec-perfbench
//!
//! One benchmark command over taxrec's public entry points. Each
//! workload builds its fixture from `--seed`, measures for
//! `--seconds`, checks every output it samples, and reports its
//! metrics by name with their units:
//!
//! * untraced (`--trace 0`): the end-to-end metrics of [`END_TO_END`];
//! * traced (`--trace 1`): the per-layer metrics of [`PER_LAYER`],
//!   timed from outside each layer's public functions plus the
//!   counters the program already exposes.
//!
//! See `README.md` beside this crate for the workloads, the
//! metric → layer → workload prediction table, and the noise findings.

pub mod batch_scan;
pub mod fixture;
pub mod http_probe;
pub mod live_mixed;
pub mod stats;
pub mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics: `(name, unit)`, reported by the traced run. A
/// layer a workload does not exercise reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    // latency percentiles that do not repeat within a tenth run to run
    // (see README.md), from the traced run's untraced half
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    // setup: dataset, core::train, engine build
    ("setup.dataset_s", "s"),
    ("setup.fit_s", "s"),
    ("setup.engine_s", "s"),
    // core::recommend (engine / kernel / topk / shards)
    ("recommend.batch_ms", "ms"),
    ("recommend.query_us", "us"),
    ("recommend.scan_us", "us"),
    ("recommend.merge_us", "us"),
    ("recommend.items_scored_per_op", "count"),
    ("recommend.scan_bytes_per_op", "bytes"),
    // cli::http (conn / pool / router) + cli::json
    ("http.connect_us", "us"),
    ("http.ttfb_us", "us"),
    ("http.request_us", "us"),
    ("http.route_us", "us"),
    ("http.transport_frac", "ratio"),
    ("http.queue_full", "count"),
    ("http.dropped", "count"),
    // core::live (state / engine / queue) + core::dynamic
    ("write_ops_per_s", "1/s"),
    ("write_latency_p50_ms", "ms"),
    ("write_latency_p99_ms", "ms"),
    ("live.submit_us.add_item.p50", "us"),
    ("live.submit_us.add_item.p99", "us"),
    ("live.submit_us.fold_in.p50", "us"),
    ("live.submit_us.fold_in.p99", "us"),
    ("live.apply_us.add_item.p50", "us"),
    ("live.apply_us.add_item.p99", "us"),
    ("live.apply_us.fold_in.p50", "us"),
    ("live.apply_us.fold_in.p99", "us"),
    ("live.publish_us.p50", "us"),
    ("live.publish_us.p99", "us"),
    ("live.wal_append_us.p50", "us"),
    ("live.wal_append_us.p99", "us"),
    ("live.wal_fsync_us.p50", "us"),
    ("live.wal_fsync_us.p99", "us"),
    ("live.stats_publish_us.p50", "us"),
    ("live.stats_publish_us.p99", "us"),
    ("live.applied_per_publish", "ratio"),
    ("live.copied_chunks_per_publish", "ratio"),
    ("live.reader_load_us", "us"),
    // core::train + factors (locked / cache)
    ("train.epoch_s.p50", "s"),
    ("train.epoch_s.p90", "s"),
    ("train.steps_per_s", "1/s"),
    ("train.skipped_frac", "ratio"),
    ("train.sibling_frac", "ratio"),
    ("train.cache_flushes_per_epoch", "count"),
    ("train.speedup_2t", "ratio"),
    // obs, and failures
    ("trace.overhead_frac", "ratio"),
    ("error_rate", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["batch-scan", "live-mixed", "train"];

/// Fixture size: `Full` is what the command measures; `Tiny` runs
/// every code path in seconds, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// Seconds-scale shapes for tests.
    Tiny,
}

/// One invocation.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: report [`PER_LAYER`] instead of [`END_TO_END`].
    pub trace: bool,
    /// Fixture size.
    pub size: Size,
    /// Scratch directory for files a workload writes (the live WAL).
    pub work_dir: PathBuf,
}

impl Opts {
    /// Busy threads a workload may use: `nproc`, at most 2.
    pub fn threads(&self) -> usize {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// False once any output check failed.
    pub correct: bool,
    /// Names of the output checks that ran.
    pub checks: Vec<String>,
    /// Operations attempted in the measured sections.
    pub attempted: u64,
    /// Operations that failed (error, non-200, wrong result kind).
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run-header fields: `(key, JSON value)`.
    pub header: Vec<(String, String)>,
}

impl Report {
    /// An empty, so-far-correct report.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Record an output check; a failed one fails the run.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("perfbench: output check failed: {name}");
            self.correct = false;
        }
        if !self.checks.iter().any(|c| c == name) {
            self.checks.push(name.to_string());
        }
    }

    /// Set a metric; the name must be one of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let declared = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
        debug_assert!(declared.is_some(), "metric {name} is not declared");
        if let Some((name, _)) = declared {
            self.metrics.insert(name, value);
        }
    }

    /// Add a run-header field (`value` is already JSON).
    pub fn header(&mut self, key: &str, value: String) {
        self.header.push((key.to_string(), value));
    }

    /// The metrics a run of this mode prints: every declared name, in
    /// declaration order. Per-layer names a workload did not measure
    /// read 0; an end-to-end name is always measured.
    pub fn printed(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (name, unit, value)
            })
            .collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .printed(trace)
            .into_iter()
            .map(|(name, unit, value)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// The run-header line printed before the result.
    pub fn header_json(&self) -> String {
        let fields: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{\"header\":{{{}}}}}", fields.join(","))
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

/// A JSON string literal (the header's values are plain ASCII).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Run one workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = match opts.workload.as_str() {
        "batch-scan" => batch_scan::run(opts),
        "live-mixed" => live_mixed::run(opts),
        "train" => train::run(opts),
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }?;
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("error_rate", error_rate);
    let mut header = vec![
        ("workload".to_string(), json_str(&opts.workload)),
        ("seed".to_string(), opts.seed.to_string()),
        ("seconds".to_string(), num(opts.seconds)),
        ("trace".to_string(), opts.trace.to_string()),
        ("commit".to_string(), json_str(&fixture::commit())),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "kernel".to_string(),
            json_str(taxrec_core::F32Kernel::detect().name()),
        ),
        (
            "checks".to_string(),
            format!(
                "[{}]",
                report
                    .checks
                    .iter()
                    .map(|c| json_str(c))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    header.append(&mut report.header);
    report.header = header;
    Ok(report)
}
