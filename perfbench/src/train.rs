//! `train`: `TfTrainer::fit_parallel`, TF(4,1), k = 20, on the `Small`
//! fixture with 2 threads — the paper's Fig. 8a/b.
//!
//! Fits of a fixed [`EPOCHS`] epochs repeat until `--seconds` is spent.
//! Op = one SGD step; latency = one fit of [`EPOCHS`] epochs. The traced run also fits on
//! one thread (for `train.speedup_2t`) and serves the trained model
//! over HTTP for the `http.*` metrics (see [`crate::http_probe`]).

use crate::fixture::{self, SetupTimes};
use crate::http_probe;
use crate::stats;
use crate::{Opts, Report, Size};
use std::time::{Duration, Instant};
use taxrec_core::eval::EvalConfig;
use taxrec_core::{evaluate, TfTrainer, TrainStats};
use taxrec_dataset::SyntheticDataset;

/// Epochs per timed fit.
pub const EPOCHS: usize = 20;
/// Epochs of the set-up fit that warms the trainer's caches.
const WARM_EPOCHS: usize = 5;
/// Longest the traced run serves the trained model over HTTP.
const HTTP_PROBE_SECONDS: f64 = 5.0;
/// Held-out AUC a fit must clear.
pub const AUC_FLOOR: f64 = 0.6;

fn epochs_for(size: Size) -> usize {
    match size {
        Size::Full => EPOCHS,
        Size::Tiny => 2,
    }
}

/// SGD steps per second of the median epoch of `fits`.
fn epoch_rate(fits: &[TrainStats]) -> f64 {
    stats::median(&stats::unit_rates(fits.iter().flat_map(|s| {
        let per_epoch = s.steps as f64 / s.epoch_times.len().max(1) as f64;
        s.epoch_times
            .iter()
            .map(move |t| (per_epoch, t.as_secs_f64()))
    })))
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::new();
    let epochs = epochs_for(opts.size);
    let (data_cfg, model_cfg) = fixture::small_config(opts.size, epochs);
    fixture::describe(&mut report, &data_cfg, &model_cfg);
    let threads = opts.threads();
    let warm_cfg = model_cfg.clone().with_epochs(WARM_EPOCHS.min(epochs));
    let mut setup = fixture::Setup::new(|| {
        let (data, _, _, mut times): (SyntheticDataset, _, _, SetupTimes) =
            fixture::generate_and_fit(&data_cfg, &warm_cfg, opts.seed, threads);
        let (trainer, t) = stats::timed(|| TfTrainer::new(model_cfg.clone(), &data.taxonomy));
        times.engine = t;
        Ok(((data, trainer), times))
    });
    let (data, trainer) = setup.build()?;

    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut fit_round = 0u64;
    let mut phase = |report: &mut Report| {
        let mut fits = Vec::new();
        let t_end = Instant::now() + Duration::from_secs_f64(budget);
        loop {
            let seed = opts.seed.wrapping_add(fit_round);
            fit_round += 1;
            let (model, stats) = trainer.fit_parallel(&data.train, seed, threads);
            report.attempted += stats.steps;
            fits.push(stats);
            if Instant::now() >= t_end {
                break (fits, model);
            }
        }
    };
    let (fits, model) = phase(&mut report);
    report.set("rss_mb", stats::peak_rss_mb());
    let rate = epoch_rate(&fits);
    // Latency is per fit: a lone 50 ms epoch stalls whenever a
    // neighbour takes one of the two CPUs, so per-epoch tails spread by
    // a third from run to run, while a fit's 20 epochs average it out.
    let fit_ms: Vec<f64> = fits
        .iter()
        .map(|s| s.epoch_times.iter().sum::<Duration>().as_secs_f64() * 1e3)
        .collect();
    report.set("ops_per_s", rate);
    report.set("latency_p50_ms", stats::median(&fit_ms));
    report.set("latency_p90_ms", stats::percentile(&fit_ms, 0.9));
    report.set("latency_p99_ms", stats::percentile(&fit_ms, 0.99));
    report.header("latency_samples", fit_ms.len().to_string());
    fixture::train_metrics(&mut report, &fits);

    if opts.trace {
        // Training has no spans of its own: the traced half runs the
        // same fits, so its overhead reads as run-to-run noise.
        let (traced, _) = phase(&mut report);
        report.set("trace.overhead_frac", 1.0 - epoch_rate(&traced) / rate);
        let (_, one) = trainer.fit_parallel(&data.train, opts.seed, 1);
        report.set("train.speedup_2t", rate / epoch_rate(&[one]));
        let probe_secs = (opts.seconds / 4.0).min(HTTP_PROBE_SECONDS);
        http_probe::probe(opts, &mut report, model.clone(), &data.train, probe_secs)?;
    }

    // Output checks, untimed.
    report.check(
        "train: every factor is finite",
        fixture::factors_finite(&model),
    );
    let eval = evaluate(
        &model,
        &data.train,
        &data.test,
        &EvalConfig {
            threads,
            max_users: Some(1000),
            ..EvalConfig::default()
        },
    );
    let auc = eval.auc.unwrap_or(0.0);
    report.header("auc", format!("{auc}"));
    report.check(
        &format!("train: held-out AUC is above {AUC_FLOOR}"),
        auc > AUC_FLOOR,
    );
    drop((trainer, data, model));
    setup.finish(&mut report)?;
    Ok(report)
}
