//! `suite-cold`: all 32 experiments of `eavs_bench::all_experiments()`,
//! each pass in a fresh process so every process-wide cache starts
//! cold, on the sweep pool at two workers. The seed is ignored: the
//! suite's inputs are fixed.
//!
//! Every experiment's CSV must equal the committed `results/<id>.csv`
//! byte for byte. The traced pass runs the experiments one at a time to
//! time each.

use std::path::Path;
use std::time::Instant;

use crate::calib::Calib;
use crate::probe;
use crate::run::{self, spawn_self, Cfg, Run};
use crate::span;

/// Calibration bursts before and after every pass.
const BURSTS: usize = 4;
/// Reference-kernel iterations per pool thread in each burst (all the
/// bursts together take about a tenth of a pass).
const BURST_ITERS: u64 = 40_000;

/// Marker that the committed CSVs exist and the warm-up pass ran.
pub struct Setup;

fn committed(id: &str) -> Result<String, String> {
    let path = Path::new("results").join(format!("{id}.csv"));
    std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Loads the committed CSVs and runs one untimed warm-up pass, so the
/// binary and the inputs are in the page cache before timing.
pub fn setup(cfg: &Cfg) -> Result<Setup, String> {
    for (id, _) in eavs_bench::all_experiments() {
        committed(id)?;
    }
    let warm = Cfg {
        traced: false,
        ..*cfg
    };
    spawn_self(&crate::child_args("suite-pass", "suite-cold", &warm))?;
    Ok(Setup)
}

/// Repeats fresh-process passes until the window is over.
pub fn run(_setup: &Setup, cfg: &Cfg) -> Result<Run, String> {
    run::repeat_in_children("suite-pass", "suite-cold", cfg)
}

/// One pass in this (fresh) process.
pub fn child(cfg: &Cfg) -> Result<Run, String> {
    let experiments = eavs_bench::all_experiments();
    let mut run = Run {
        attempted: experiments.len() as u64,
        ..Run::default()
    };
    let cache0 = eavs_bench::cache::stats();
    let seg0 = eavs_trace::memo::segment_cache_stats();
    let trace0 = eavs_trace::memo::trace_cache_stats();
    let mut calib = Calib::new(1, BURST_ITERS, Instant::now());
    for _ in 0..BURSTS {
        calib.burst();
    }
    let started = Instant::now();
    let tables: Vec<(&str, String, f64)> = if cfg.traced {
        span::set_enabled(true);
        let _pass = span::enter("bench.suite_pass", 0);
        experiments
            .into_iter()
            .enumerate()
            .map(|(i, (id, f))| {
                let t = Instant::now();
                let csv = span::timed("experiments.run", i as u64, || f().to_csv());
                (id, csv, probe::ns_since(t) as f64 / 1e6)
            })
            .collect()
    } else {
        let jobs = experiments
            .into_iter()
            .map(|(id, f)| (id.to_owned(), move || (id, f().to_csv(), 0.0)))
            .collect();
        eavs_bench::executor::run_parallel_labeled(jobs)
    };
    let pass_s = started.elapsed().as_secs_f64();
    span::set_enabled(false);
    for _ in 0..BURSTS {
        calib.burst();
    }
    let speed = calib.speed();
    run.latency_ms.push(pass_s * 1e3 * speed);
    run.work_per_s = tables.len() as f64 / (pass_s * speed);
    run.wall_work_per_s = tables.len() as f64 / pass_s;
    run.host_speed = speed;
    for (id, csv, ms) in &tables {
        if committed(id).ok().as_deref() != Some(csv.as_str()) {
            eprintln!("suite-cold: {id} differs from results/{id}.csv");
            run.failed += 1;
        }
        if cfg.traced {
            run.layer(format!("suite.{id}_ms"), *ms, "ms");
        }
    }
    if cfg.traced {
        let cache = eavs_bench::cache::stats();
        let seg = eavs_trace::memo::segment_cache_stats();
        let tr = eavs_trace::memo::trace_cache_stats();
        let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
        run.layer(
            "cache.hit_ratio",
            ratio(cache.hits - cache0.hits, cache.misses - cache0.misses),
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
        let spans = span::take();
        crate::layers::self_shares(&spans, &mut run);
    }
    Ok(run)
}
