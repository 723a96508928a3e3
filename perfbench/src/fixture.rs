//! Fixtures shared by the workloads, the repeated set-up harness, and
//! the training-layer metrics every fit reports.

use crate::stats::{median, percentile};
use crate::{json_str, Report, Size};
use std::path::Path;
use std::time::Duration;
use taxrec_core::{ModelConfig, TfModel, TfTrainer, TrainStats};
use taxrec_dataset::{DatasetConfig, SyntheticDataset};
use taxrec_taxonomy::{NodeId, TaxonomyShape};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// Threads the scan fixture is fitted on. One: a 0.1 s fit on two
/// threads stalls whenever a neighbour takes either CPU, which spread
/// `setup_s` twice as wide, and one thread fits the same model on every
/// build. The `train` workload measures the two-thread fit.
pub const SCAN_FIT_THREADS: usize = 1;

/// The scan fixture of `fig8_batch`'s kernel sweep: 32k items under
/// levels 20/200/1200, whose 64-factor f32 item matrix (8 MiB)
/// overflows L2.
pub fn scan_config(size: Size) -> (DatasetConfig, ModelConfig) {
    let (levels, items, users, k) = match size {
        Size::Full => (vec![20, 200, 1200], 32_000, 2000, 64),
        Size::Tiny => (vec![4, 16, 64], 1_500, 120, 8),
    };
    let data = DatasetConfig {
        shape: TaxonomyShape {
            level_sizes: levels,
            num_items: items,
            item_skew: 0.8,
        },
        num_users: users,
        ..DatasetConfig::default()
    };
    (data, ModelConfig::tf(4, 1).with_factors(k).with_epochs(3))
}

/// The `Small` fixture of the figure binaries (4k items), trained as
/// TF(4,1) with 20 factors.
pub fn small_config(size: Size, epochs: usize) -> (DatasetConfig, ModelConfig) {
    let data = match size {
        Size::Full => taxrec_bench::fixtures::dataset_config(taxrec_bench::args::Scale::Small),
        Size::Tiny => DatasetConfig::tiny().with_users(150),
    };
    let k = if size == Size::Full { 20 } else { 8 };
    (
        data,
        ModelConfig::tf(4, 1).with_factors(k).with_epochs(epochs),
    )
}

/// The header fields describing a fixture.
pub fn describe(report: &mut Report, data: &DatasetConfig, model: &ModelConfig) {
    report.header(
        "fixture",
        format!(
            "{{\"levels\":{:?},\"items\":{},\"users\":{},\"factors\":{},\"model\":{}}}",
            data.shape.level_sizes,
            data.shape.num_items,
            data.num_users,
            model.factors,
            json_str("TF(4,1)"),
        ),
    );
}

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset generation.
    pub dataset: Duration,
    /// Model fit.
    pub fit: Duration,
    /// Engine / server / live-handle construction.
    pub engine: Duration,
}

/// The set-up of one workload, built [`SETUP_REPS`] times from the
/// same seed: once for the measurement, then again after it for timing
/// only, so the throwaway builds add nothing to the measured run's
/// memory. `setup_s` and `setup.*` are medians over the builds.
pub struct Setup<F> {
    build: F,
    times: Vec<SetupTimes>,
}

impl<T, F: FnMut() -> Result<(T, SetupTimes), String>> Setup<F> {
    /// A set-up that builds with `build`.
    pub fn new(build: F) -> Setup<F> {
        Setup {
            build,
            times: Vec::new(),
        }
    }

    /// Build the fixture once, timing it.
    pub fn build(&mut self) -> Result<T, String> {
        let (fixture, t) = (self.build)()?;
        self.times.push(t);
        Ok(fixture)
    }

    /// Build and drop until [`SETUP_REPS`] builds are timed, then report
    /// their medians.
    pub fn finish(mut self, report: &mut Report) -> Result<(), String> {
        while self.times.len() < SETUP_REPS {
            drop(self.build()?);
        }
        let secs = |f: fn(&SetupTimes) -> Duration| -> Vec<f64> {
            self.times.iter().map(|t| f(t).as_secs_f64()).collect()
        };
        report.set("setup_s", median(&secs(|t| t.dataset + t.fit + t.engine)));
        report.set("setup.dataset_s", median(&secs(|t| t.dataset)));
        report.set("setup.fit_s", median(&secs(|t| t.fit)));
        report.set("setup.engine_s", median(&secs(|t| t.engine)));
        Ok(())
    }
}

/// Generate a dataset and fit it on `threads` workers, timing both.
pub fn generate_and_fit(
    data: &DatasetConfig,
    model: &ModelConfig,
    seed: u64,
    threads: usize,
) -> (SyntheticDataset, TfModel, TrainStats, SetupTimes) {
    let (d, dataset) = crate::stats::timed(|| SyntheticDataset::generate(data, seed));
    let ((m, stats), fit) = crate::stats::timed(|| {
        TfTrainer::new(model.clone(), &d.taxonomy).fit_parallel(&d.train, seed, threads)
    });
    let times = SetupTimes {
        dataset,
        fit,
        engine: Duration::ZERO,
    };
    (d, m, stats, times)
}

/// `train.*` metrics from a set of fits.
pub fn train_metrics(report: &mut Report, fits: &[TrainStats]) {
    let epochs: Vec<f64> = fits
        .iter()
        .flat_map(|s| s.epoch_times.iter().map(Duration::as_secs_f64))
        .collect();
    let steps: u64 = fits.iter().map(|s| s.steps).sum();
    let busy: f64 = epochs.iter().sum();
    let frac = |n: u64| n as f64 / steps.max(1) as f64;
    report.set("train.epoch_s.p50", median(&epochs));
    report.set("train.epoch_s.p90", percentile(&epochs, 0.9));
    report.set("train.steps_per_s", steps as f64 / busy.max(1e-9));
    report.set(
        "train.skipped_frac",
        frac(fits.iter().map(|s| s.skipped_steps).sum()),
    );
    report.set(
        "train.sibling_frac",
        frac(fits.iter().map(|s| s.sibling_steps).sum()),
    );
    report.set(
        "train.cache_flushes_per_epoch",
        fits.iter().map(|s| s.cache_flushes).sum::<u64>() as f64 / epochs.len().max(1) as f64,
    );
}

/// Every factor of `model` is finite.
pub fn factors_finite(model: &TfModel) -> bool {
    let users = (0..model.num_users()).all(|u| model.user_factor(u).iter().all(|v| v.is_finite()));
    let nodes = (0..model.taxonomy().num_nodes()).all(|n| {
        let n = NodeId(n as u32);
        model.node_offset(n).iter().all(|v| v.is_finite())
            && model.next_offset(n).iter().all(|v| v.is_finite())
    });
    users && nodes
}

/// The commit under test, read from `.git` in the working directory
/// when there is one, else `unknown`; followed by an FNV-1a digest of
/// `crates/`, which tells source trees apart where git is absent.
pub fn commit() -> String {
    let git = git_head().unwrap_or_else(|| "unknown".to_string());
    let mut files = Vec::new();
    collect_files(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{git}+src.{h:016x}")
}

/// The first 12 hex digits of `HEAD`, from loose or packed refs.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let hash = match head.trim().strip_prefix("ref: ") {
        None => head.trim().to_string(),
        Some(name) => std::fs::read_to_string(Path::new(".git").join(name))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
            })?,
    };
    Some(hash.trim().chars().take(12).collect())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}
