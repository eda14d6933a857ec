//! `fleet-campaign`: a `global`-style campaign through
//! `eavs_bench::fleet::run_campaign` on the pooled, cached runner, with a
//! checkpoint after every shard.
//!
//! Each campaign runs in a fresh child process so it starts with an empty
//! session cache (traces are warmed first, outside the timed region); the
//! window repeats the identical campaign until it is over. Throughput is
//! the median over campaigns; shard latencies are pooled across them.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use eavs_core::session::SessionBuilder;
use eavs_core::SessionReport;
use eavs_fleet::campaign::{draw_session, serial_runner, SessionDraw};
use eavs_fleet::{checkpoint, run_shard, CampaignSpec, RunOptions};

use crate::calib::Calib;
use crate::probe;
use crate::run::{self, Cfg, Run};
use crate::span;

const SESSIONS: u64 = 4_000;
const SHARD: u64 = 20;
const TINY_SESSIONS: u64 = 60;
const TINY_SHARD: u64 = 10;
/// Every n-th shard is re-run through the serial reference runner.
const CHECK_EVERY: u64 = 25;
/// Reference-kernel iterations per pool thread before every shard
/// (about a tenth of a shard's time).
const BURST_ITERS: u64 = 30_000;

/// The campaign of one seed.
pub fn spec(seed: u64, tiny: bool) -> CampaignSpec {
    let mut spec = CampaignSpec::global();
    spec.name = "perfbench-fleet-campaign".to_owned();
    spec.seed = seed;
    (spec.sessions, spec.shard_size) = if tiny {
        (TINY_SESSIONS, TINY_SHARD)
    } else {
        (SESSIONS, SHARD)
    };
    spec
}

/// What a campaign process prepares: the spec and its warmed traces.
pub struct Setup {
    spec: CampaignSpec,
}

/// Validates the spec and warms every trace its draws touch.
pub fn setup(cfg: &Cfg) -> Result<Setup, String> {
    let spec = spec(cfg.seed, cfg.tiny);
    spec.validate()?;
    let draws: Vec<SessionDraw> = (0..spec.sessions).map(|i| draw_session(&spec, i)).collect();
    crate::warm::warm(&draws);
    Ok(Setup { spec })
}

/// Repeats fresh-process campaigns until the window is over.
pub fn run(_setup: &Setup, cfg: &Cfg) -> Result<Run, String> {
    run::repeat_in_children("campaign", "fleet-campaign", cfg)
}

/// One campaign in this (fresh) process: warm traces, run the campaign
/// timed, then check sampled shards and the checkpoint.
pub fn child(cfg: &Cfg) -> Result<Run, String> {
    let Setup { spec } = setup(cfg)?;
    if cfg.traced {
        span::set_enabled(true);
    }
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ckpt = dir.join(format!("campaign-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let opts = RunOptions {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 1,
        ..RunOptions::default()
    };

    // Shard cycle: from one runner call to the next (the last ends when
    // the campaign returns), so it covers draw, run, fold, merge and the
    // checkpoint write of each shard. Each call first runs a calibration
    // burst, which the cycle leaves out.
    let calls: RefCell<Vec<Instant>> = RefCell::new(Vec::new());
    let entries: RefCell<Vec<Instant>> = RefCell::new(Vec::new());
    let runner_ns: RefCell<Vec<u64>> = RefCell::new(Vec::new());
    let calib = RefCell::new(Calib::new(1, BURST_ITERS, Instant::now()));
    let runner = |jobs: Vec<(String, SessionBuilder)>| -> Vec<Arc<SessionReport>> {
        let shard = entries.borrow().len() as u64;
        calls.borrow_mut().push(Instant::now());
        calib.borrow_mut().burst();
        entries.borrow_mut().push(Instant::now());
        let t = Instant::now();
        let _span = span::enter("fleet.runner", shard);
        let reports = span::timed("cache.run_sessions", shard, || {
            eavs_bench::fleet::pooled_runner(jobs)
        });
        runner_ns.borrow_mut().push(probe::ns_since(t));
        reports
    };
    let cache0 = eavs_bench::cache::stats();
    let seg0 = eavs_trace::memo::segment_cache_stats();
    let trace0 = eavs_trace::memo::trace_cache_stats();
    let cpu0 = probe::pool_cpu_ns();
    let started = Instant::now();
    let outcome = span::timed("fleet.run_campaign", 0, || {
        eavs_fleet::run_campaign(&spec, &opts, &runner)
    });
    let ended = Instant::now();
    let calib = calib.into_inner();
    let wall = (ended - started).as_secs_f64() - calib.total_ns() / 1e9;
    let busy_ns = probe::pool_cpu_ns() - cpu0;
    span::set_enabled(false);
    let spans = span::take();
    let outcome = outcome?;

    let mut run = Run {
        attempted: spec.num_shards(),
        work_per_s: outcome.session_runs as f64 / (wall * calib.speed()),
        wall_work_per_s: outcome.session_runs as f64 / wall,
        host_speed: calib.speed(),
        ..Run::default()
    };
    let (calls, entries) = (calls.into_inner(), entries.into_inner());
    let cycles: Vec<(f64, f64)> = entries
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let next = calls.get(i + 1).copied().unwrap_or(ended);
            let ms = (next - *t).as_secs_f64() * 1e3;
            (calib.at(*t) + ms / 2e3, ms)
        })
        .collect();
    run.latency_ms = calib.normalize(&cycles);

    // Checked outputs.
    let saved = std::fs::read_to_string(&ckpt).map(|text| checkpoint::decode(&text));
    match saved {
        Ok(Ok(saved)) if saved == outcome.aggregate => {}
        _ => {
            eprintln!("fleet-campaign: final checkpoint does not hold the final aggregate");
            run.failed += 1;
        }
    }
    let clock = probe::clock_ns();
    let (mut fold_ms, mut merge_us) = (Vec::new(), Vec::new());
    for shard in (0..spec.num_shards()).step_by(CHECK_EVERY as usize) {
        let inner = RefCell::new(0u64);
        let timed_runner = |jobs: Vec<(String, SessionBuilder)>| {
            let t = Instant::now();
            let reports = eavs_bench::fleet::pooled_runner(jobs);
            *inner.borrow_mut() += probe::ns_since(t);
            reports
        };
        let t = Instant::now();
        let pooled = run_shard(&spec, shard, &timed_runner);
        fold_ms.push((probe::ns_since(t) - *inner.borrow()) as f64 / 1e6);
        let serial = run_shard(&spec, shard, &serial_runner);
        match (pooled, serial) {
            (Ok(p), Ok(s)) if p.partial == s.partial => {
                let mut agg = outcome.aggregate.clone();
                let t = Instant::now();
                agg.merge(&p.partial);
                merge_us.push((probe::ns_since(t) as f64 - clock) / 1e3);
            }
            _ => {
                eprintln!("fleet-campaign: shard {shard} differs from the serial reference");
                run.failed += 1;
            }
        }
    }
    let mut saves: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let ok = checkpoint::save(&ckpt, &outcome.aggregate).is_ok();
            if ok {
                probe::ns_since(t) as f64 / 1e6
            } else {
                f64::NAN
            }
        })
        .collect();
    let _ = std::fs::remove_file(&ckpt);
    if saves.iter().any(|s| s.is_nan()) {
        run.failed += 1;
    }

    let cache = eavs_bench::cache::stats();
    let seg = eavs_trace::memo::segment_cache_stats();
    let tr = eavs_trace::memo::trace_cache_stats();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let runner_ns = runner_ns.into_inner();
    let shards = runner_ns.len().max(1) as f64;
    let workers = eavs_bench::executor::pool().workers() as f64;
    run.layer(
        "fleet.runner_ms_per_shard",
        runner_ns.iter().sum::<u64>() as f64 / shards / 1e6,
        "ms",
    );
    run.layer("fleet.fold_ms_per_shard", probe::mean(&fold_ms), "ms");
    run.layer("fleet.merge_us", probe::mean(&merge_us), "us");
    run.layer("fleet.checkpoint_save_ms", probe::median(&mut saves), "ms");
    run.layer(
        "fleet.checkpoint_bytes",
        checkpoint::encode(&outcome.aggregate).len() as f64,
        "bytes",
    );
    run.layer(
        "fleet.peak_shard_bytes",
        outcome.peak_shard_bytes as f64,
        "bytes",
    );
    run.layer(
        "cache.hit_ratio",
        ratio(cache.hits - cache0.hits, cache.misses - cache0.misses),
        "ratio",
    );
    run.layer("cache.bytes", cache.bytes as f64, "bytes");
    run.layer(
        "cache.evictions",
        (cache.evictions - cache0.evictions) as f64,
        "count",
    );
    run.layer(
        "executor.busy_ratio",
        busy_ns as f64 / (wall * 1e9 * workers),
        "ratio",
    );
    run.layer(
        "trace.segment_hit_ratio",
        ratio(seg.hits - seg0.hits, seg.misses - seg0.misses),
        "ratio",
    );
    run.layer(
        "trace.trace_hit_ratio",
        ratio(tr.hits - trace0.hits, tr.misses - trace0.misses),
        "ratio",
    );
    if cfg.traced {
        crate::layers::self_shares(&spans, &mut run);
        span::write_jsonl(
            &PathBuf::from(".perfbench")
                .join(format!("spans-campaign-{}.jsonl", std::process::id())),
            &spans,
        );
    }
    Ok(run)
}
