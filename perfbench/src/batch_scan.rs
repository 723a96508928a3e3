//! `batch-scan`: `RecommendEngine::recommend_batch` on one thread,
//! top-10 over Zipf-drawn users, on the 32k × 64 scan fixture.
//!
//! Op = one user's top-10; latency = one batch call of [`BATCH`]
//! users. The f32 item matrix overflows L2, so almost all of the time
//! is the catalog scan; HTTP and live apply are absent.

use crate::fixture;
use crate::stats::{self, CpuMask, ZipfIds};
use crate::{Opts, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use taxrec_core::obs::{Tracer, TRACE_RING_SLOTS};
use taxrec_core::recommend::{F32Kernel, RecommendEngine, RecommendRequest};
use taxrec_core::{MetricsRegistry, ScanMetrics, TfModel};
use taxrec_dataset::SyntheticDataset;
use taxrec_taxonomy::ItemId;

/// Users per batch call.
pub const BATCH: usize = 16;
/// Items per recommendation.
pub const TOP: usize = 10;
/// Users drawn per run for the sampled scalar-oracle check.
const CHECK_USERS: usize = 64;

struct Fixture {
    data: SyntheticDataset,
    model: TfModel,
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::new();
    let (data_cfg, model_cfg) = fixture::scan_config(opts.size);
    fixture::describe(&mut report, &data_cfg, &model_cfg);
    let mut fits = Vec::new();
    let mut setup = fixture::Setup::new(|| {
        let (data, model, stats, mut times) =
            fixture::generate_and_fit(&data_cfg, &model_cfg, opts.seed, fixture::SCAN_FIT_THREADS);
        fits.push(stats);
        let (engine, t) = stats::timed(|| RecommendEngine::new(&model));
        drop(engine);
        times.engine = t;
        Ok((Fixture { data, model }, times))
    });
    let fx = setup.build()?;
    let Fixture { data, model } = &fx;
    let mut engine = RecommendEngine::new(model);
    let users = model.num_users();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let zipf = ZipfIds::new(users, 1.0, &mut rng);
    let excludes: Vec<Vec<ItemId>> = (0..users).map(|u| data.train.distinct_items(u)).collect();
    let request = |u: usize| RecommendRequest {
        user: u,
        history: data.train.user(u),
        k: TOP,
        exclude: &excludes[u],
    };
    let draws: Vec<usize> = (0..BATCH * 4096).map(|_| zipf.draw(&mut rng)).collect();
    let mut next = 0usize;
    let mut next_batch = || {
        let batch: Vec<RecommendRequest<'_>> = (0..BATCH)
            .map(|i| request(draws[(next + i) % draws.len()]))
            .collect();
        next = (next + BATCH) % draws.len();
        batch
    };

    // One CPU for the measured sections: no migration moves the scan
    // between caches mid-run.
    let all_cpus = CpuMask::current().ok_or("reading the CPU affinity mask")?;
    all_cpus
        .nth_cpu(0)
        .ok_or("empty CPU affinity mask")?
        .apply();
    // Warm the caches and page in the matrix before timing.
    let _ = engine.recommend_batch(&next_batch(), 1);

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let t_end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut calls: Vec<(f64, f64)> = Vec::new();
    while Instant::now() < t_end {
        let batch = next_batch();
        let t0 = Instant::now();
        let out = engine.recommend_batch(&batch, 1);
        let took = t0.elapsed().as_secs_f64();
        report.attempted += BATCH as u64;
        let ok = out.iter().filter(|r| r.len() == TOP).count();
        report.failed += (BATCH - ok) as u64;
        calls.push((ok as f64, took));
        std::hint::black_box(out);
    }
    report.set("rss_mb", stats::peak_rss_mb());
    let rate = set_call_metrics(&mut report, &calls);

    if opts.trace {
        traced(
            opts,
            &mut report,
            &mut engine,
            &mut next_batch,
            rate,
            model.k(),
        );
    }

    // Output check, untimed: sampled rankings equal a forced-scalar
    // engine's, the exhaustive oracle every kernel must match.
    let mut oracle = RecommendEngine::new(model);
    oracle.set_scan_kernel(F32Kernel::Scalar);
    let sample: Vec<RecommendRequest<'_>> = (0..CHECK_USERS)
        .map(|_| request(zipf.draw(&mut rng)))
        .collect();
    report.check(
        "batch-scan: rankings equal the forced-scalar engine",
        engine.recommend_batch(&sample, 1) == oracle.recommend_batch(&sample, 1),
    );
    all_cpus.apply();
    drop(oracle);
    drop(engine);
    drop(fx);
    setup.finish(&mut report)?;
    fixture::train_metrics(&mut report, &fits);
    Ok(report)
}

/// The traced half: every user served through `recommend_traced` with
/// the tracer sampling all requests and per-shard scan counters on.
fn traced<'a>(
    opts: &Opts,
    report: &mut Report,
    engine: &mut RecommendEngine<&TfModel>,
    next_batch: &mut impl FnMut() -> Vec<RecommendRequest<'a>>,
    untraced_rate: f64,
    k: usize,
) {
    let scan = ScanMetrics::register(&MetricsRegistry::new(), engine.scan_shards());
    engine.set_scan_metrics(std::sync::Arc::clone(&scan));
    let tracer = Tracer::new();
    tracer.configure(1.0, 0);
    let backend = engine.backend().clone();
    let (mut query, mut scan_us, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    let t_end = Instant::now() + Duration::from_secs_f64(opts.seconds / 2.0);
    let mut calls: Vec<(f64, f64)> = Vec::new();
    let mut served = 0u64;
    let mut traced_since_drain = 0usize;
    let mut same = true;
    while Instant::now() < t_end {
        let batch = next_batch();
        let t0 = Instant::now();
        let mut outs = Vec::with_capacity(batch.len());
        for req in &batch {
            let Some(mut t) = tracer.start("recommend") else {
                continue;
            };
            outs.push(engine.recommend_traced(req, &backend, &mut t));
            tracer.finish(t);
        }
        let ok = outs.iter().filter(|r| r.len() == TOP).count();
        calls.push((ok as f64, t0.elapsed().as_secs_f64()));
        served += BATCH as u64;
        report.attempted += BATCH as u64;
        report.failed += (BATCH - ok) as u64;
        traced_since_drain += BATCH;
        if traced_since_drain + BATCH > TRACE_RING_SLOTS {
            drain(
                &tracer,
                traced_since_drain,
                &mut query,
                &mut scan_us,
                &mut merge,
            );
            traced_since_drain = 0;
        }
        if (served as usize).is_multiple_of(BATCH * 64) {
            same &= outs == engine.recommend_batch(&batch, 1);
        }
    }
    drain(
        &tracer,
        traced_since_drain,
        &mut query,
        &mut scan_us,
        &mut merge,
    );
    report.check("batch-scan: traced rankings equal untraced", same);
    let scored = scan.rows_total() as f64 / served.max(1) as f64;
    let batch_ms: Vec<f64> = calls.iter().map(|c| c.1 * 1e3).collect();
    report.set("recommend.batch_ms", stats::median(&batch_ms));
    report.set("recommend.query_us", mean(&query));
    report.set("recommend.scan_us", mean(&scan_us));
    report.set("recommend.merge_us", mean(&merge));
    report.set("recommend.items_scored_per_op", scored);
    report.set("recommend.scan_bytes_per_op", scored * k as f64 * 4.0);
    report.set(
        "trace.overhead_frac",
        1.0 - call_rate(&calls) / untraced_rate,
    );
}

/// Users served per second over the whole measured section: every
/// call's users over every call's time. Batch times are bimodal (calls
/// that find the matrix in the shared L3 and calls that contend with
/// neighbours for it), so the throughput tracks the typical call while
/// `latency_p90_ms` tracks the slow end.
fn call_rate(calls: &[(f64, f64)]) -> f64 {
    let (ok, secs) = calls
        .iter()
        .fold((0.0, 0.0), |(ok, secs), &(o, s)| (ok + o, secs + s));
    ok / secs.max(1e-9)
}

/// Set `ops_per_s` and the latency percentiles of the calls; returns
/// the rate.
fn set_call_metrics(report: &mut Report, calls: &[(f64, f64)]) -> f64 {
    let rate = call_rate(calls);
    let ms: Vec<f64> = calls.iter().map(|c| c.1 * 1e3).collect();
    report.set("ops_per_s", rate);
    report.set("latency_p50_ms", stats::median(&ms));
    report.set("latency_p90_ms", stats::percentile(&ms, 0.9));
    report.set("latency_p99_ms", stats::percentile(&ms, 0.99));
    report.header("latency_samples", ms.len().to_string());
    rate
}

/// Fold the last `n` captured traces into per-stage self times (µs).
/// Stage spans are leaves under the root, so a stage's self time is its
/// duration; the per-shard `scan[i]` spans are summed per request.
fn drain(
    tracer: &Tracer,
    n: usize,
    query: &mut Vec<f64>,
    scan: &mut Vec<f64>,
    merge: &mut Vec<f64>,
) {
    for rec in tracer.recent(n) {
        let mut s = 0.0;
        for span in &rec.spans {
            let d = span.dur_us as f64;
            match span.name.as_str() {
                "query" => query.push(d),
                "merge" => merge.push(d),
                n if n.starts_with("scan[") => s += d,
                _ => {}
            }
        }
        scan.push(s);
    }
}

/// Arithmetic mean; 0 when empty.
fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
