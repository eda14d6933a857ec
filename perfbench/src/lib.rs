//! `perfbench`: the EAVS simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Workloads: `session-sweep`, `fleet-campaign`, `suite-cold` and
//! `daemon-serve` (see `design.json` for why each exists; the first three
//! are the ones `BENCHMARK.json` gates). Every workload is closed-loop,
//! takes its inputs from `--seed`, and checks its outputs; a wrong output
//! counts as a failed operation.
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off. Their times are scaled to a reference host speed measured by
//! calibration bursts interleaved with the work (see [`calib`]), so the
//! drift of a shared host cancels; wall-clock throughput and the host
//! speed are printed next to them. With `--trace 1` it runs the workload untraced and then traced
//! (their difference is the tracing overhead), derives per-layer metrics
//! from the spans, fills the metrics of layers the workload bypasses from
//! tiny traced runs of the workloads that exercise them, and writes the
//! spans to `.perfbench/`. Human-readable lines come first on standard
//! output; the last line is the JSON result.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload session-sweep --seed 1 --seconds 10 --trace 0`

pub mod calib;
pub mod fleet;
pub mod layers;
pub mod probe;
pub mod run;
pub mod serve;
pub mod span;
pub mod suite;
pub mod sweep;
pub mod warm;

use std::time::Instant;

use run::{Cfg, Layers, Run};

/// The gated workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["session-sweep", "fleet-campaign", "suite-cold"];

/// Every runnable workload. `daemon-serve` is not gated: on a shared
/// two-core host its end-to-end tail varied by 38–49% between identical
/// runs, wider than any usable bound. Its layers are still measured in
/// every traced run.
pub const ALL_WORKLOADS: [&str; 4] = [
    "session-sweep",
    "fleet-campaign",
    "suite-cold",
    "daemon-serve",
];

/// Sweep-pool width every workload runs at.
pub const JOBS: usize = 2;
/// Fresh-process set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Interns a unit string read back from a child process.
pub fn unit(s: &str) -> &'static str {
    const UNITS: [&str; 7] = ["ns", "us", "ms", "s", "count", "ratio", "bytes"];
    UNITS.into_iter().find(|u| *u == s).unwrap_or("count")
}

/// A workload's prepared inputs.
enum Prepared {
    Sweep(sweep::Setup),
    Fleet(Box<fleet::Setup>),
    Serve(serve::Setup),
    Suite(suite::Setup),
}

fn setup(workload: &str, cfg: &Cfg) -> Result<Prepared, String> {
    Ok(match workload {
        "session-sweep" => Prepared::Sweep(sweep::setup(cfg)),
        "fleet-campaign" => Prepared::Fleet(Box::new(fleet::setup(cfg)?)),
        "daemon-serve" => Prepared::Serve(serve::setup(cfg)?),
        "suite-cold" => Prepared::Suite(suite::setup(cfg)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn measure(prepared: &Prepared, cfg: &Cfg) -> Result<Run, String> {
    match prepared {
        Prepared::Sweep(s) => Ok(sweep::run(s, cfg)),
        Prepared::Fleet(s) => fleet::run(s, cfg),
        Prepared::Serve(s) => serve::run(s, cfg),
        Prepared::Suite(s) => suite::run(s, cfg),
    }
}

fn teardown(prepared: Prepared) {
    if let Prepared::Serve(s) = prepared {
        serve::teardown(s);
    }
}

/// Names the human-readable report gives the three workload-specific
/// end-to-end metrics: throughput, median latency, tail latency.
fn report_names(workload: &str) -> (&'static str, &'static str, &'static str, f64) {
    match workload {
        "session-sweep" => ("sessions_per_s", "session_ms_p50", "session_ms_p99", 0.99),
        "fleet-campaign" => ("campaign_runs_per_s", "shard_ms_p50", "shard_ms_p90", 0.90),
        "daemon-serve" => (
            "served_runs_per_s",
            "campaign_ms_p50",
            "campaign_ms_p90",
            0.90,
        ),
        _ => ("experiments_per_s", "suite_ms_p50", "suite_ms_p90", 0.90),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    /// Internal: `setup` (time one set-up) or a child role.
    role: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        role: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--role" => args.role = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !ALL_WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {ALL_WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Command-line arguments that re-create `cfg` in a child process.
pub fn child_args(role: &str, workload: &str, cfg: &Cfg) -> Vec<String> {
    let mut args = vec![
        "--role".to_owned(),
        role.to_owned(),
        "--workload".to_owned(),
        workload.to_owned(),
        "--seed".to_owned(),
        cfg.seed.to_string(),
        "--seconds".to_owned(),
        cfg.seconds.to_string(),
        "--trace".to_owned(),
        if cfg.traced { "1" } else { "0" }.to_owned(),
    ];
    if cfg.tiny {
        args.push("--tiny".to_owned());
    }
    args
}

/// The command-line entry point.
pub fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--tiny]",
                ALL_WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Every workload runs the sweep pool at a fixed width; children
    // inherit it.
    std::env::set_var("EAVS_JOBS", JOBS.to_string());
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        traced: args.trace,
    };
    let result = match args.role.as_deref() {
        None => bench(&args.workload, &cfg),
        Some("setup") => time_setup(&args.workload, &cfg).map(|s| println!("setup_s {s:?}")),
        Some(role) => child(role, &cfg),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Runs one set-up and tears it down; returns its duration at
/// reference host speed.
fn time_setup(workload: &str, cfg: &Cfg) -> Result<f64, String> {
    let (prepared, s) = timed_setup(workload, cfg)?;
    teardown(prepared);
    Ok(s)
}

/// Calibration bursts before and after each timed set-up.
const SETUP_BURSTS: usize = 2;
/// Reference-kernel iterations per set-up calibration burst.
const SETUP_BURST_ITERS: u64 = 32_000;

/// One set-up, bracketed by calibration bursts; its duration is scaled
/// to reference host speed (see `calib`).
fn timed_setup(workload: &str, cfg: &Cfg) -> Result<(Prepared, f64), String> {
    let mut calib = calib::Calib::new(1, SETUP_BURST_ITERS, Instant::now());
    for _ in 0..SETUP_BURSTS {
        calib.burst();
    }
    let t = Instant::now();
    let prepared = setup(workload, cfg)?;
    let s = t.elapsed().as_secs_f64();
    for _ in 0..SETUP_BURSTS {
        calib.burst();
    }
    Ok((prepared, s * calib.speed()))
}

/// Child roles: one fleet campaign or one suite pass in a fresh process.
fn child(role: &str, cfg: &Cfg) -> Result<(), String> {
    let run = match role {
        "campaign" => fleet::child(cfg)?,
        "suite-pass" => suite::child(cfg)?,
        other => return Err(format!("unknown role {other:?}")),
    };
    print!("{}", run.to_lines());
    Ok(())
}

/// Median of `SETUPS` set-ups, each in a fresh process but the last,
/// which this process keeps.
fn setup_median(workload: &str, cfg: &Cfg) -> Result<(Prepared, f64), String> {
    let mut samples = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        let out = run::spawn_self(&child_args("setup", workload, cfg))?;
        let s = out
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or("set-up child printed no time")?;
        samples.push(s);
    }
    let (prepared, s) = timed_setup(workload, cfg)?;
    samples.push(s);
    Ok((prepared, probe::median(&mut samples)))
}

fn bench(workload: &str, cfg: &Cfg) -> Result<(), String> {
    let (prepared, setup_s) = setup_median(workload, cfg)?;
    let untraced = Cfg {
        traced: false,
        ..*cfg
    };
    let (attempted, failed, metrics) = if cfg.traced {
        traced(workload, prepared, cfg)?
    } else {
        let run = measure(&prepared, &untraced);
        teardown(prepared);
        end_to_end(workload, &run?, setup_s)
    };
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    println!("host: {cpus} cpus, EAVS_JOBS={JOBS}");
    println!(
        "ops_failed_ratio = {} ratio",
        failed as f64 / attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

type Outcome = (u64, u64, Layers);

/// The end-to-end metrics of an untraced run, printed by name for
/// people and returned for the JSON result.
fn end_to_end(workload: &str, run: &Run, setup_s: f64) -> Outcome {
    let (tput, p50, tail, q) = report_names(workload);
    let mut lat = run.latency_ms.clone();
    let n = lat.len();
    let lat_p50 = probe::quantile(&mut lat, 0.5);
    let lat_tail = probe::quantile(&mut lat, q);
    let rss = probe::peak_rss_mb().max(run.child_rss_mb);
    let (sim_cpu_j, sim_late) = sweep::census();
    println!(
        "workload {workload}: {} ops, {} failed",
        run.attempted, run.failed
    );
    // Times are at reference host speed where the workload calibrates
    // (see `calib`); the wall-clock throughput is printed next to them.
    let at = if run.host_speed > 0.0 {
        println!(
            "host_speed = {} (reference kernel; times below are scaled to speed 1)",
            run.host_speed
        );
        " at reference speed"
    } else {
        ""
    };
    println!(
        "{tput} = {} 1/s{at} ({} 1/s wall clock)",
        run.work_per_s, run.wall_work_per_s
    );
    println!("{p50} = {lat_p50} ms{at} (n={n})");
    println!("{tail} = {lat_tail} ms{at} (n={n})");
    for name in ["daemon.request_ms_p50", "daemon.request_ms_p99"] {
        if let Some((v, unit)) = run.layers.get(name) {
            println!(
                "{} = {v} {unit} (n={})",
                &name["daemon.".len()..],
                run.attempted
            );
        }
    }
    if workload == "suite-cold" {
        println!("suite_s = {} s{at} (median pass, n={n})", lat_p50 / 1e3);
    }
    println!("setup_s = {setup_s} s at reference speed (median of {SETUPS})");
    println!("peak_rss_mb = {rss} MB");
    println!("sim_cpu_j_per_session = {sim_cpu_j} J (EAVS reference population)");
    println!("sim_late_frame_ratio = {sim_late} ratio (EAVS reference population)");
    let mut m = Layers::new();
    m.insert("work_per_s".into(), (run.work_per_s, "1/s"));
    m.insert("latency_ms_p50".into(), (lat_p50, "ms"));
    m.insert("latency_ms_tail".into(), (lat_tail, "ms"));
    m.insert("setup_s".into(), (setup_s, "s"));
    m.insert("peak_rss_mb".into(), (rss, "MB"));
    m.insert("sim_cpu_j_per_session".into(), (sim_cpu_j, "J"));
    m.insert("sim_late_frame_ratio".into(), (sim_late, "ratio"));
    (run.attempted, run.failed, m)
}

/// The traced run: untraced then traced windows of this workload (each
/// from a fresh set-up), tiny traced runs of the others, and the
/// stand-alone layer probes.
fn traced(workload: &str, prepared: Prepared, cfg: &Cfg) -> Result<Outcome, String> {
    let window = Cfg {
        seconds: cfg.seconds * 0.4,
        traced: false,
        ..*cfg
    };
    let plain = measure(&prepared, &window);
    teardown(prepared);
    let plain = plain?;
    let prepared = setup(workload, &window)?;
    let _ = span::take();
    span::set_enabled(true);
    let traced_run = measure(
        &prepared,
        &Cfg {
            traced: true,
            ..window
        },
    );
    span::set_enabled(false);
    teardown(prepared);
    let traced_run = traced_run?;
    let spans = span::take();

    let (mut attempted, mut failed) = (
        plain.attempted + traced_run.attempted,
        plain.failed + traced_run.failed,
    );
    let mut layers = traced_run.layers.clone();
    for (k, v) in &plain.layers {
        layers.entry(k.clone()).or_insert(*v);
    }
    layers.insert("bench.host_speed".into(), (plain.host_speed, "ratio"));
    layers.insert(
        "bench.trace_overhead_ratio".into(),
        (
            plain.work_per_s / traced_run.work_per_s.max(1e-12) - 1.0,
            "ratio",
        ),
    );
    // Self-time shares of this workload's own spans; workloads that run
    // in child processes report theirs from there.
    if !spans.is_empty() {
        let mut shares = Run::default();
        layers::self_shares(&spans, &mut shares);
        layers.extend(shares.layers);
    }
    let dir = std::path::Path::new(".perfbench");
    span::write_jsonl(
        &dir.join(format!("spans-{workload}-{}.jsonl", cfg.seed)),
        &spans,
    );

    // Layers this workload bypasses: tiny traced runs of the others.
    for other in ALL_WORKLOADS.iter().filter(|w| **w != workload) {
        let tiny = Cfg {
            tiny: true,
            seconds: 0.2,
            traced: false,
            ..*cfg
        };
        let prepared = setup(other, &tiny)?;
        let mut runs = vec![measure(&prepared, &tiny)?];
        span::set_enabled(true);
        runs.push(measure(
            &prepared,
            &Cfg {
                traced: true,
                ..tiny
            },
        )?);
        span::set_enabled(false);
        let _ = span::take();
        teardown(prepared);
        for r in runs {
            attempted += r.attempted;
            failed += r.failed;
            for (k, v) in r.layers {
                if !k.ends_with(".self_share") {
                    layers.entry(k).or_insert(v);
                }
            }
        }
    }
    for (k, v) in layers::probe_all() {
        layers.entry(k).or_insert(v);
    }
    for (name, (value, unit)) in &layers {
        println!("{name} = {value} {unit}");
    }
    Ok((attempted, failed, layers))
}
