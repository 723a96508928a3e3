//! `live-mixed`: `LiveHandle` over the 32k scan fixture with a WAL,
//! one writer beside one reader.
//!
//! * Writer: `submit`s a fixed, seeded stream of [`EVENTS`] events,
//!   9 `AddItem` to 1 `FoldInUser`, one at a time.
//! * Reader: loops `ModelCell::load()` plus `recommend` until the
//!   writer finishes.
//!
//! A round replays the whole stream onto a fresh copy of the trained
//! base, so every round does the same work (each `AddItem` grows the
//! catalog; a fixed duration would hand faster code more, and costlier,
//! work). Rounds repeat until `--seconds` is spent; rates are those of
//! the median round. Op = one reader recommend; latency = load + recommend.
//! The writer's figures are the `write_*` metrics.

use crate::fixture::{self, SetupTimes};
use crate::stats::{self, median, percentile, CpuMask, ZipfIds};
use crate::{Opts, Report, Size};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use taxrec_cli::http::router::DEFAULT_FOLD_STEPS;
use taxrec_core::live::{
    decode_log, replay, Applied, LiveConfig, LiveEngine, LiveHandle, LiveState, LiveStatsSnapshot,
    UpdateEvent,
};
use taxrec_core::recommend::{Backend, RecommendRequest};
use taxrec_core::{persist, Obs, TfModel};
use taxrec_dataset::{PurchaseLog, SyntheticDataset, Transaction};
use taxrec_taxonomy::{ItemId, NodeId};

/// Events per round (full size).
pub const EVENTS: usize = 1000;
/// Every this many reader loads, one is checked with `verify_consistent`.
const VERIFY_EVERY: u64 = 256;

fn events_for(size: Size) -> usize {
    match size {
        Size::Full => EVENTS,
        Size::Tiny => 40,
    }
}

/// The seeded event stream: 9 `AddItem` under the parent of a random
/// trained item, then 1 `FoldInUser` whose history is the held-out
/// baskets (`test`) of a random fixture user, folded with the step count
/// `POST /users/fold-in` uses when a request names none.
pub fn event_stream(
    model: &TfModel,
    test: &PurchaseLog,
    n: usize,
    seed: u64,
) -> Result<Vec<UpdateEvent>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE);
    let tax = model.taxonomy();
    let items = model.num_items();
    let held_out: Vec<&[Transaction]> = (0..test.num_users())
        .map(|u| test.user(u))
        .filter(|h| h.iter().any(|b| !b.is_empty()))
        .collect();
    if held_out.is_empty() {
        return Err("live-mixed: no fixture user has held-out baskets".into());
    }
    Ok((0..n)
        .map(|i| {
            if i % 10 == 9 {
                UpdateEvent::FoldInUser {
                    history: held_out[rng.gen_range(0..held_out.len())].to_vec(),
                    steps: DEFAULT_FOLD_STEPS,
                    seed: rng.next_u64(),
                }
            } else {
                let leaf = tax.item_node(ItemId(rng.gen_range(0..items) as u32));
                UpdateEvent::AddItem {
                    parent: tax.parent(leaf).unwrap_or(NodeId(0)),
                }
            }
        })
        .collect())
}

/// What one round measured.
struct Round {
    write_secs: f64,
    reads: u64,
    read_secs: f64,
    reader_ms: Vec<f64>,
    load_us: Vec<f64>,
    add_item: Vec<Duration>,
    fold_in: Vec<Duration>,
    stats: LiveStatsSnapshot,
    live_model: Vec<u8>,
    wal: Vec<u8>,
}

fn round(
    opts: &Opts,
    report: &mut Report,
    model: &TfModel,
    events: &[UpdateEvent],
    index: usize,
    traced: bool,
) -> Result<Round, String> {
    let wal_path = opts.work_dir.join(format!("live-{index}.wal"));
    let _ = std::fs::remove_file(&wal_path);
    let config = LiveConfig {
        log_path: Some(wal_path.clone()),
        obs: if traced {
            Obs::shared_with_tracing(1.0, 0)
        } else {
            Arc::new(Obs::new())
        },
        ..LiveConfig::default()
    };
    // The write side (this thread and the applier it spawns) and the
    // reader each get a CPU of their own, so neither the scheduler's
    // placement nor a migration moves the figures between rounds.
    let all_cpus = CpuMask::current().ok_or("reading the CPU affinity mask")?;
    let (write_cpu, read_cpu) = match (all_cpus.nth_cpu(0), all_cpus.nth_cpu(1)) {
        (Some(w), Some(r)) => (w, r),
        _ => return Err("empty CPU affinity mask".into()),
    };
    write_cpu.apply();
    let handle = LiveHandle::spawn(LiveState::new(model.clone()), config);
    let handle = handle.map_err(|e| {
        all_cpus.apply();
        format!("spawning live handle: {e}")
    })?;
    let cell = Arc::clone(handle.cell());
    let users = model.num_users();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ index as u64);
    let zipf = ZipfIds::new(users, 1.0, &mut rng);
    let done = AtomicBool::new(false);
    let mut add_item = Vec::new();
    let mut fold_in = Vec::new();
    let mut wrong_kind = 0u64;

    let (write_secs, (reads, read_secs, reader_ms, load_us, consistent)) =
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                read_cpu.apply();
                let t0 = Instant::now();
                let (mut ms, mut load_us) = (Vec::new(), Vec::new());
                let mut consistent = true;
                let mut reads = 0u64;
                while !done.load(Ordering::Acquire) {
                    let t = Instant::now();
                    let snap = cell.load();
                    let loaded = t.elapsed();
                    let recs = snap
                        .engine()
                        .recommend(&RecommendRequest::simple(zipf.draw(&mut rng), 10));
                    ms.push(t.elapsed().as_secs_f64() * 1e3);
                    load_us.push(loaded.as_secs_f64() * 1e6);
                    std::hint::black_box(recs);
                    reads += 1;
                    if reads.is_multiple_of(VERIFY_EVERY) {
                        consistent &= snap.verify_consistent();
                    }
                }
                (reads, t0.elapsed().as_secs_f64(), ms, load_us, consistent)
            });
            let t0 = Instant::now();
            for ev in events {
                let t = Instant::now();
                let got = handle.submit(ev.clone());
                let took = t.elapsed();
                report.attempted += 1;
                match &got {
                    Err(e) => {
                        eprintln!("perfbench: live-mixed: submit failed: {e}");
                        report.failed += 1;
                    }
                    Ok(u) => {
                        let (expected, samples) = match ev {
                            UpdateEvent::FoldInUser { .. } => (
                                matches!(u.applied, Applied::UserFolded { .. }),
                                &mut fold_in,
                            ),
                            _ => (
                                matches!(u.applied, Applied::ItemAdded { .. }),
                                &mut add_item,
                            ),
                        };
                        samples.push(took);
                        if !expected {
                            wrong_kind += 1;
                            report.failed += 1;
                        }
                    }
                }
            }
            let write_secs = t0.elapsed().as_secs_f64();
            done.store(true, Ordering::Release);
            let r = reader.join().unwrap_or_default();
            (write_secs, r)
        });
    all_cpus.apply();
    report.attempted += reads;
    report.check(
        "live-mixed: every submit returns the expected Applied kind",
        wrong_kind == 0,
    );
    report.check(
        "live-mixed: sampled reader loads pass verify_consistent",
        consistent,
    );
    let stats = handle.stats().snapshot();
    // Only the first round is checked against replay; later rounds
    // keep no copies, so they add nothing to peak RSS.
    let live_model = if index == 0 {
        persist::encode(handle.cell().load().model())
    } else {
        Vec::new()
    };
    drop(handle);
    let wal = if index == 0 {
        std::fs::read(&wal_path).unwrap_or_default()
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_file(&wal_path);
    Ok(Round {
        write_secs,
        reads,
        read_secs,
        reader_ms,
        load_us,
        add_item,
        fold_in,
        stats,
        live_model,
        wal,
    })
}

/// `snapshot + replay ≡ live`: the round's WAL decodes to the submitted
/// stream, and replaying it onto the base encodes to the live model.
fn check_replay(report: &mut Report, model: &TfModel, events: &[UpdateEvent], r: &Round) {
    let logged = decode_log(&r.wal).map(|(_, evs)| evs);
    report.check(
        "live-mixed: the WAL holds exactly the submitted events",
        logged.as_deref().ok() == Some(events),
    );
    let mut state = LiveState::new(model.clone());
    let replayed =
        replay(&mut state, events).is_ok() && persist::encode(state.model()) == r.live_model;
    report.check(
        "live-mixed: persist::encode(live) equals live::replay onto the base",
        replayed,
    );
}

/// Time `LiveState::apply` per event kind and `LiveEngine::next_from`
/// per event on a replica fed the same stream.
fn replica_metrics(report: &mut Report, model: &TfModel, events: &[UpdateEvent]) {
    let mut state = LiveState::new(model.clone());
    let mut engine = LiveEngine::initial(&state, Backend::Exhaustive, 1);
    let (mut add, mut fold, mut publish) = (Vec::new(), Vec::new(), Vec::new());
    for ev in events {
        let (res, took) = stats::timed(|| state.apply(ev));
        if res.is_err() {
            report.failed += 1;
            continue;
        }
        match ev {
            UpdateEvent::FoldInUser { .. } => fold.push(took),
            _ => add.push(took),
        }
        let (next, took) = stats::timed(|| LiveEngine::next_from(&engine, &state));
        publish.push(took);
        engine = next;
    }
    for (name, v) in [
        ("live.apply_us.add_item", &add),
        ("live.apply_us.fold_in", &fold),
        ("live.publish_us", &publish),
    ] {
        set_p50_p99(report, name, &stats::us(v));
    }
}

/// Set `<name>.p50` and `<name>.p99`.
fn set_p50_p99(report: &mut Report, name: &str, v: &[f64]) {
    report.set(&format!("{name}.p50"), median(v));
    report.set(&format!("{name}.p99"), percentile(v, 0.99));
}

/// Reads per second of the median round.
fn reader_rate(rounds: &[Round]) -> f64 {
    median(&stats::unit_rates(
        rounds.iter().map(|r| (r.reads as f64, r.read_secs)),
    ))
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::new();
    let (data_cfg, model_cfg) = fixture::scan_config(opts.size);
    fixture::describe(&mut report, &data_cfg, &model_cfg);
    let mut fits = Vec::new();
    let mut setup = fixture::Setup::new(|| {
        let (data, model, stats, mut times): (SyntheticDataset, _, _, SetupTimes) =
            fixture::generate_and_fit(&data_cfg, &model_cfg, opts.seed, fixture::SCAN_FIT_THREADS);
        fits.push(stats);
        let (handle, t) = stats::timed(|| {
            LiveHandle::spawn(LiveState::new(model.clone()), LiveConfig::default())
        });
        times.engine = t;
        drop(handle.map_err(|e| format!("spawning live handle: {e}"))?);
        Ok(((data.test, model), times))
    });
    let (test, model) = setup.build()?;
    let events = event_stream(&model, &test, events_for(opts.size), opts.seed)?;
    drop(test);
    report.header("events_per_round", events.len().to_string());

    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut phases: [Vec<Round>; 2] = [Vec::new(), Vec::new()];
    for traced in [false, true] {
        if traced && !opts.trace {
            break;
        }
        let t0 = Instant::now();
        loop {
            let index = phases[0].len() + phases[1].len();
            let r = round(opts, &mut report, &model, &events, index, traced)?;
            if index == 0 {
                check_replay(&mut report, &model, &events, &r);
            }
            phases[usize::from(traced)].push(r);
            if t0.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
    }
    report.set("rss_mb", stats::peak_rss_mb());
    let [rounds, traced_rounds] = phases;

    let reader_rate = reader_rate(&rounds);
    let reader_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.reader_ms.iter().copied())
        .collect();
    report.set("ops_per_s", reader_rate);
    report.set("latency_p50_ms", median(&reader_ms));
    report.set("latency_p90_ms", percentile(&reader_ms, 0.9));
    report.set("latency_p99_ms", percentile(&reader_ms, 0.99));
    report.header("rounds", rounds.len().to_string());
    report.header("latency_samples", reader_ms.len().to_string());

    if opts.trace {
        let all: Vec<&Round> = rounds.iter().chain(&traced_rounds).collect();
        let n = events.len() as f64;
        report.set(
            "write_ops_per_s",
            median(&stats::unit_rates(all.iter().map(|r| (n, r.write_secs)))),
        );
        let writes: Vec<Duration> = all
            .iter()
            .flat_map(|r| r.add_item.iter().chain(&r.fold_in).copied())
            .collect();
        let write_ms = stats::ms(&writes);
        report.set("write_latency_p50_ms", median(&write_ms));
        report.set("write_latency_p99_ms", percentile(&write_ms, 0.99));
        let add: Vec<Duration> = all
            .iter()
            .flat_map(|r| r.add_item.iter().copied())
            .collect();
        let fold: Vec<Duration> = all.iter().flat_map(|r| r.fold_in.iter().copied()).collect();
        set_p50_p99(&mut report, "live.submit_us.add_item", &stats::us(&add));
        set_p50_p99(&mut report, "live.submit_us.fold_in", &stats::us(&fold));
        let over = |f: fn(&LiveStatsSnapshot) -> f64| -> f64 {
            median(&all.iter().map(|r| f(&r.stats)).collect::<Vec<_>>())
        };
        report.set(
            "live.wal_append_us.p50",
            over(|s| s.wal_append_p50_us as f64),
        );
        report.set(
            "live.wal_append_us.p99",
            over(|s| s.wal_append_p99_us as f64),
        );
        report.set("live.wal_fsync_us.p50", over(|s| s.wal_fsync_p50_us as f64));
        report.set("live.wal_fsync_us.p99", over(|s| s.wal_fsync_p99_us as f64));
        report.set(
            "live.stats_publish_us.p50",
            over(|s| s.publish_p50_us as f64),
        );
        report.set(
            "live.stats_publish_us.p99",
            over(|s| s.publish_p99_us as f64),
        );
        report.set(
            "live.applied_per_publish",
            over(|s| s.applied as f64 / s.publishes.max(1) as f64),
        );
        report.set(
            "live.copied_chunks_per_publish",
            over(|s| s.model_copied_chunks as f64 / s.publishes.max(1) as f64),
        );
        let load_us: Vec<f64> = all.iter().flat_map(|r| r.load_us.iter().copied()).collect();
        report.set("live.reader_load_us", median(&load_us));
        report.set(
            "trace.overhead_frac",
            1.0 - self::reader_rate(&traced_rounds) / reader_rate,
        );
        replica_metrics(&mut report, &model, &events);
    }
    drop(model);
    setup.finish(&mut report)?;
    fixture::train_metrics(&mut report, &fits);
    Ok(report)
}
