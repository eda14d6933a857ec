//! `session-sweep`: thousands of fleet-drawn sessions, each run serially
//! and uncached through the step kernel with one recycled scratch.
//!
//! Sessions are drawn from a `global`-style mix widened to every governor
//! name; session `i` runs governor `GOVERNORS[i % 9]`, and odd sessions
//! carry the `phone` whole-device power model. The measurement window
//! repeats the session list until it is over.

use std::time::Instant;

use eavs_core::session::{SessionScratch, SessionState};
use eavs_core::SessionReport;
use eavs_fleet::campaign::{builder_for, draw_session, SessionDraw};
use eavs_fleet::CampaignSpec;
use eavs_power::DevicePowerModel;

use crate::calib::Calib;
use crate::probe::{self, NsHistogram};
use crate::run::{Cfg, Run};
use crate::span;

/// Every governor name the fleet layer accepts.
pub const GOVERNORS: [&str; 9] = [
    "performance",
    "powersave",
    "userspace",
    "ondemand",
    "conservative",
    "interactive",
    "schedutil",
    "eavs",
    "eavs-panic",
];

const SESSIONS: u64 = 6_000;
/// Seed of the reference population the simulated metrics come from.
const CENSUS_SEED: u64 = 42;
/// EAVS sessions in the reference population.
const CENSUS_SESSIONS: u64 = 600;
const TINY_SESSIONS: u64 = 45;
/// Every n-th session of the first pass is re-run on a fresh scratch.
const CHECK_EVERY: u64 = 25;
/// Sessions profiled per phase in the traced run.
const PROFILED: usize = 63;
/// A calibration burst runs after every `BURST_EVERY` sessions (about
/// 30 ms of them); bursts much shorter than a millisecond track the
/// host's speed poorly.
const BURST_EVERY: usize = 40;
/// Reference-kernel iterations per burst.
const BURST_ITERS: u64 = 32_000;

/// The session list of one seed.
pub struct Setup {
    sessions: Vec<(SessionDraw, &'static str)>,
}

/// The sweep's population: the `global` preset re-seeded, all governors.
pub fn spec(seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::global();
    spec.name = "perfbench-session-sweep".to_owned();
    spec.seed = seed;
    spec.governors = GOVERNORS.iter().map(|g| (*g).to_owned()).collect();
    spec
}

/// Draws the sessions, warms their traces and touches every governor's
/// code once.
pub fn setup(cfg: &Cfg) -> Setup {
    let spec = spec(cfg.seed);
    let n = if cfg.tiny { TINY_SESSIONS } else { SESSIONS };
    let sessions: Vec<(SessionDraw, &'static str)> = (0..n)
        .map(|i| {
            let mut draw = draw_session(&spec, i);
            if i % 2 == 1 {
                draw.power = DevicePowerModel::phone();
            }
            (draw, GOVERNORS[(i % GOVERNORS.len() as u64) as usize])
        })
        .collect();
    crate::warm::warm(sessions.iter().map(|(d, _)| d));
    let mut scratch = SessionScratch::default();
    for (draw, gov) in sessions.iter().take(GOVERNORS.len()) {
        if let Ok(b) = builder_for(draw, gov) {
            std::hint::black_box(run_one(b, &mut scratch, None, 0));
        }
    }
    Setup { sessions }
}

/// Timings of one kernel run.
#[derive(Default)]
struct Kernel {
    build_ns: u64,
    step_ns: u64,
    finish_ns: u64,
    decisions: u64,
}

/// `with_scratch → step* → finish_into`, timing each stage; with a
/// histogram, also times every `step()` call.
fn run_one(
    builder: eavs_core::session::SessionBuilder,
    scratch: &mut SessionScratch,
    steps: Option<&mut NsHistogram>,
    group: u64,
) -> (SessionReport, Kernel) {
    let mut k = Kernel::default();
    let t = Instant::now();
    let mut state = span::timed("core.build", group, || {
        SessionState::with_scratch(builder, scratch)
    });
    k.build_ns = probe::ns_since(t);
    let t = Instant::now();
    {
        let _span = span::enter("core.step", group);
        match steps {
            Some(hist) => loop {
                let s = Instant::now();
                let more = state.step();
                hist.record(probe::ns_since(s));
                if !more {
                    break;
                }
            },
            None => while state.step() {},
        }
    }
    k.step_ns = probe::ns_since(t);
    k.decisions = state.hot().decisions;
    let t = Instant::now();
    let report = span::timed("core.finish", group, || state.finish_into(scratch));
    k.finish_ns = probe::ns_since(t);
    (report, k)
}

fn is_eavs(gov: &str) -> bool {
    gov == "eavs"
}

/// Runs the measurement window.
pub fn run(setup: &Setup, cfg: &Cfg) -> Run {
    let mut run = Run::default();
    let mut scratch = SessionScratch::default();
    let mut steps = cfg.traced.then(NsHistogram::default);
    let (mut build, mut step, mut finish) = (0u64, 0u64, 0u64);
    let (mut events, mut allocs, mut decisions, mut eavs_sessions) = (0u64, 0u64, 0u64, 0u64);
    let mut checked: Vec<(usize, SessionReport)> = Vec::new();
    let seg_before = eavs_trace::memo::segment_cache_stats();
    let trace_before = eavs_trace::memo::trace_cache_stats();

    let started = Instant::now();
    let mut calib = Calib::new(1, BURST_ITERS, started);
    let mut ops: Vec<(f64, f64)> = Vec::new();
    let mut pass = 0u64;
    'window: loop {
        for (i, (draw, gov)) in setup.sessions.iter().enumerate() {
            if pass > 0 && started.elapsed().as_secs_f64() >= cfg.seconds {
                break 'window;
            }
            run.attempted += 1;
            let t = Instant::now();
            let session = span::enter("bench.session", i as u64);
            let builder =
                match span::timed("fleet.builder_for", i as u64, || builder_for(draw, gov)) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("session-sweep: session {i}: {e}");
                        run.failed += 1;
                        continue;
                    }
                };
            let a = probe::allocs();
            let (report, k) = run_one(builder, &mut scratch, steps.as_mut(), i as u64);
            allocs += probe::allocs() - a;
            drop(session);
            let ms = probe::ns_since(t) as f64 / 1e6;
            ops.push((calib.at(t) + ms / 2e3, ms));
            if ops.len().is_multiple_of(BURST_EVERY) {
                calib.burst();
            }
            build += k.build_ns;
            step += k.step_ns;
            finish += k.finish_ns;
            events += report.events_processed;
            if is_eavs(gov) {
                decisions += k.decisions;
                eavs_sessions += 1;
            }
            if pass == 0 && (i as u64).is_multiple_of(CHECK_EVERY) {
                checked.push((i, report));
            }
        }
        pass += 1;
    }
    // Checks and probes below are not part of the traced window.
    let traced = span::enabled();
    span::set_enabled(false);
    let done = ops.len() as f64;
    run.latency_ms = calib.normalize(&ops);
    run.work_per_s = done * 1e3 / run.latency_ms.iter().sum::<f64>();
    run.wall_work_per_s = done * 1e3 / ops.iter().map(|o| o.1).sum::<f64>();
    run.host_speed = calib.speed();

    // Checked outputs: a recycled-scratch report must equal the same
    // session run on a fresh scratch.
    for (i, report) in &checked {
        let (draw, gov) = &setup.sessions[*i];
        let fresh = builder_for(draw, gov).map(|b| b.run());
        if fresh.map(|f| format!("{f:?}")).ok() != Some(format!("{report:?}")) {
            eprintln!("session-sweep: session {i} differs on a fresh scratch");
            run.failed += 1;
        }
    }

    let clock = probe::clock_ns();
    let per = |total: u64| total as f64 / done.max(1.0);
    let seg = eavs_trace::memo::segment_cache_stats();
    let tr = eavs_trace::memo::trace_cache_stats();
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    run.layer("sim.events_per_session", per(events), "count");
    run.layer(
        "trace.segment_hit_ratio",
        ratio(seg.hits - seg_before.hits, seg.misses - seg_before.misses),
        "ratio",
    );
    run.layer(
        "trace.trace_hit_ratio",
        ratio(tr.hits - trace_before.hits, tr.misses - trace_before.misses),
        "ratio",
    );
    if let Some(hist) = &steps {
        run.layer("core.step_ns_p99", hist.quantile_ns(0.99) - clock, "ns");
        profile_phases(setup, &mut run, clock);
        power_extra(setup, &mut run, clock);
    } else {
        run.layer("core.build_us", (per(build) - clock) / 1e3, "us");
        run.layer(
            "core.step_ns_per_event",
            (step as f64 - clock * done) / events.max(1) as f64,
            "ns",
        );
        run.layer("core.finish_us", (per(finish) - clock) / 1e3, "us");
        run.layer("core.allocs_per_session", per(allocs), "count");
        run.layer(
            "core.decisions_per_session",
            decisions as f64 / eavs_sessions.max(1) as f64,
            "count",
        );
    }
    span::set_enabled(traced);
    run
}

/// The simulated quantities of the paper, on a fixed reference
/// population (the sweep's draws at seed 42, all under `eavs`), so they
/// repeat exactly on every run and move only when simulated behaviour
/// changes: mean CPU joules per session and the share of frames late or
/// dropped.
pub fn census() -> (f64, f64) {
    let spec = spec(CENSUS_SEED);
    let mut scratch = SessionScratch::default();
    let (mut joules, mut late, mut frames) = (0.0, 0u64, 0u64);
    for i in 0..CENSUS_SESSIONS {
        let draw = draw_session(&spec, i);
        crate::warm::warm([&draw]);
        let Ok(b) = builder_for(&draw, "eavs") else {
            continue;
        };
        let (report, _) = run_one(b, &mut scratch, None, 0);
        joules += report.cpu_joules();
        late += report.qoe.late_vsyncs + report.qoe.frames_dropped;
        frames += report.qoe.total_frames;
    }
    (
        joules / CENSUS_SESSIONS as f64,
        late as f64 / frames.max(1) as f64,
    )
}

/// Warmed per-phase handler cost from the session's own profiler, over
/// the first sessions of the list (every governor), clock cost removed.
fn profile_phases(setup: &Setup, run: &mut Run, clock: f64) {
    let mut totals = [(0u64, 0u64); 4];
    let mut scratch = SessionScratch::default();
    for (draw, gov) in setup.sessions.iter().take(PROFILED) {
        let Ok(b) = builder_for(draw, gov) else {
            continue;
        };
        let (report, _) = run_one(b.profile(true), &mut scratch, None, 0);
        let Some(p) = report.profile else { continue };
        for (slot, s) in totals
            .iter_mut()
            .zip([p.download, p.decode, p.display, p.governor])
        {
            slot.0 += s.wall_ns;
            slot.1 += s.events;
        }
    }
    for ((wall, n), phase) in totals
        .iter()
        .zip(["download", "decode", "display", "governor"])
    {
        let ns = (*wall as f64 - clock * *n as f64) / (*n).max(1) as f64;
        run.layer(format!("core.phase.{phase}_ns_per_event"), ns, "ns");
    }
}

/// Extra `finish_into` time the whole-device power model costs: the
/// powered sessions of the profiled prefix, finished with and without it.
fn power_extra(setup: &Setup, run: &mut Run, clock: f64) {
    let mut scratch = SessionScratch::default();
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (draw, gov) in setup.sessions.iter().take(PROFILED) {
            if draw.power.is_none() {
                continue;
            }
            let mut bare = *draw;
            bare.power = DevicePowerModel::none();
            for (d, out) in [(draw, &mut with), (&bare, &mut without)] {
                if let Ok(b) = builder_for(d, gov) {
                    let (_, k) = run_one(b, &mut scratch, None, 0);
                    out.push(k.finish_ns as f64 - clock);
                }
            }
        }
    }
    let extra = probe::median(&mut with) - probe::median(&mut without);
    run.layer("power.finish_extra_us", extra / 1e3, "us");
}
