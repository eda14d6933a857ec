//! `daemon-serve`: an in-process `eavsd` (no local workers, two HTTP
//! threads) driven over loopback by two closed-loop clients.
//!
//! * The tenant submits small cache-friendly campaigns one at a time,
//!   polls each until complete and fetches its result; after every round
//!   of `ROUND` campaigns it scrapes `/metrics`.
//! * The external worker loops `POST /claim` → `run_shard` on the pooled
//!   runner → `POST /campaigns/{id}/shards/{n}`.
//!
//! Campaign pools are narrow, every round repeats the same sessions under
//! new campaign names, and the session cache is filled during set-up, so
//! session simulation is a minority of the served time. Latency is the
//! tenant's campaign turnaround; per-request latencies are layer metrics.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eavs_daemon::http::client;
use eavs_daemon::{codec, json, Daemon, DaemonOptions};
use eavs_fleet::campaign::{draw_session, SessionDraw};
use eavs_fleet::{checkpoint, run_shard, CampaignSpec, RunOptions};

use crate::probe;
use crate::run::{Cfg, Run};
use crate::span;

const ROUTES: [&str; 6] = [
    "submit", "progress", "result", "claim", "partial", "metrics",
];
/// Campaigns per round.
const ROUND: u64 = 4;
const SESSIONS: u64 = 2_048;
const SHARD: u64 = 64;
const TINY_SESSIONS: u64 = 32;
/// Pause between progress polls.
const POLL: Duration = Duration::from_millis(2);
/// Pause after an idle claim.
const IDLE: Duration = Duration::from_millis(1);

/// Campaign `k` of round `round`: the `smoke` mix over narrow trace and
/// seed pools (so set-up can fill the session cache). The seed depends on
/// `k` only, so every round repeats the same sessions.
fn spec(seed: u64, round: u64, k: u64, tiny: bool) -> CampaignSpec {
    let mut spec = CampaignSpec::smoke();
    spec.name = format!("perfbench-daemon-r{round}-k{k}");
    spec.seed = seed.wrapping_mul(1_000_003).wrapping_add(k);
    spec.sessions = if tiny { TINY_SESSIONS } else { SESSIONS };
    spec.shard_size = SHARD;
    spec.trace_pool = 2;
    spec.seed_pool = 2;
    spec
}

/// The running daemon and its state directory.
pub struct Setup {
    daemon: Daemon,
    addr: String,
    state: PathBuf,
    /// Next round: every window submits new campaign names.
    next_round: AtomicU64,
}

/// Starts the daemon, warms traces for the campaign pools and fills the
/// session cache with an in-process campaign over the same pools.
pub fn setup(cfg: &Cfg) -> Result<Setup, String> {
    let state = PathBuf::from(".perfbench").join(format!("eavsd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let mut opts = DaemonOptions::new(state.clone());
    opts.http_threads = 2;
    opts.workers = 0;
    let daemon = Daemon::start(opts, Arc::new(eavs_bench::fleet::pooled_runner))?;
    let addr = daemon.addr();
    let mut warm = spec(cfg.seed, u64::MAX, 0, false);
    warm.sessions = if cfg.tiny { 64 } else { 1_500 };
    let draws: Vec<SessionDraw> = (0..warm.sessions).map(|i| draw_session(&warm, i)).collect();
    crate::warm::warm(&draws);
    eavs_bench::fleet::run_campaign(&warm, &RunOptions::default())?;
    Ok(Setup {
        daemon,
        addr,
        state,
        next_round: AtomicU64::new(0),
    })
}

/// Stops the daemon and removes its state.
pub fn teardown(setup: Setup) {
    setup.daemon.shutdown();
    let _ = std::fs::remove_dir_all(&setup.state);
}

/// Per-thread request log: latencies by route, in milliseconds.
#[derive(Default)]
struct Log {
    lat: HashMap<&'static str, Vec<f64>>,
    requests: u64,
    failed: u64,
}

impl Log {
    /// Issues one request under a span and logs its latency; a
    /// transport error or a status other than `want` counts as a failed
    /// operation.
    #[allow(clippy::too_many_arguments)]
    fn call(
        &mut self,
        addr: &str,
        route: &'static str,
        method: &str,
        path: &str,
        body: &[u8],
        want: &[u16],
        group: u64,
    ) -> Option<(u16, Vec<u8>)> {
        self.requests += 1;
        let t = Instant::now();
        let out = span::timed(span_name(route), group, || {
            client::request(addr, method, path, body)
        });
        self.lat
            .entry(route)
            .or_default()
            .push(probe::ns_since(t) as f64 / 1e6);
        match out {
            Ok((status, body)) if want.contains(&status) => Some((status, body)),
            Ok((status, body)) => {
                eprintln!(
                    "daemon-serve: {method} {path} -> {status}: {}",
                    String::from_utf8_lossy(&body)
                );
                self.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("daemon-serve: {method} {path}: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

fn span_name(route: &str) -> &'static str {
    match route {
        "submit" => "daemon.submit",
        "progress" => "daemon.progress",
        "result" => "daemon.result",
        "claim" => "daemon.claim",
        "partial" => "daemon.partial",
        _ => "daemon.metrics",
    }
}

/// A completed campaign as the tenant saw it.
struct Served {
    spec: CampaignSpec,
    result: String,
    wall_s: f64,
    polls: u64,
}

/// Submits a campaign, polls it to completion and fetches its result.
fn campaign(log: &mut Log, addr: &str, spec: CampaignSpec, group: u64) -> Option<Served> {
    let _span = span::enter("bench.campaign", group);
    let id = eavs_daemon::registry::campaign_id(&spec);
    let t = Instant::now();
    let body = codec::encode_spec(&spec);
    log.call(
        addr,
        "submit",
        "POST",
        "/campaigns",
        body.as_bytes(),
        &[200],
        group,
    )?;
    let progress = format!("/campaigns/{id}");
    let mut polls = 0;
    loop {
        let (_, body) = log.call(addr, "progress", "GET", &progress, b"", &[200], group)?;
        polls += 1;
        let phase = json::parse(&String::from_utf8_lossy(&body))
            .ok()
            .and_then(|v| {
                v.get("phase")
                    .and_then(json::Value::as_str)
                    .map(str::to_owned)
            });
        match phase.as_deref() {
            Some("complete") => break,
            Some("running") => std::thread::sleep(POLL),
            other => {
                eprintln!("daemon-serve: campaign {id} in phase {other:?}");
                log.failed += 1;
                return None;
            }
        }
    }
    let path = format!("/campaigns/{id}/result");
    let (_, result) = log.call(addr, "result", "GET", &path, b"", &[200], group)?;
    Some(Served {
        spec,
        result: String::from_utf8_lossy(&result).into_owned(),
        wall_s: t.elapsed().as_secs_f64(),
        polls,
    })
}

/// Runs rounds until the window is over; returns the log, the served
/// campaigns and the window's length in seconds.
fn tenant(setup: &Setup, cfg: &Cfg, stop: &AtomicBool) -> (Log, Vec<Served>, f64) {
    let addr = setup.addr.as_str();
    let mut log = Log::default();
    let mut served = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || started.elapsed().as_secs_f64() < cfg.seconds {
        let round = setup.next_round.fetch_add(1, Ordering::Relaxed);
        rounds += 1;
        for k in 0..ROUND {
            let spec = spec(cfg.seed, round, k, cfg.tiny);
            served.extend(campaign(&mut log, addr, spec, round * ROUND + k));
        }
        log.call(addr, "metrics", "GET", "/metrics", b"", &[200], round);
    }
    let wall = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::SeqCst);
    (log, served, wall)
}

fn worker(addr: &str, stop: &AtomicBool) -> (Log, Option<String>) {
    let mut log = Log::default();
    let mut specs: HashMap<String, CampaignSpec> = HashMap::new();
    let mut partial = None;
    let mut n = 0u64;
    while !stop.load(Ordering::SeqCst) {
        n += 1;
        let _span = span::enter("bench.claim_cycle", n);
        let body = match log.call(addr, "claim", "POST", "/claim", b"", &[200, 204], n) {
            Some((200, body)) => body,
            _ => {
                // Idle (204) or failed claims: the worker waiting for work.
                std::thread::sleep(IDLE);
                continue;
            }
        };
        let claim = json::parse(&String::from_utf8_lossy(&body)).ok();
        let id = claim
            .as_ref()
            .and_then(|v| v.get("id")?.as_str().map(str::to_owned));
        let shard = claim.as_ref().and_then(|v| v.get("shard")?.as_u64());
        let (Some(id), Some(shard), Some(claim)) = (id, shard, claim) else {
            eprintln!("daemon-serve: malformed claim");
            log.failed += 1;
            continue;
        };
        if !specs.contains_key(&id) {
            match claim.get("spec").map(codec::decode_spec_value) {
                Some(Ok(spec)) => {
                    specs.insert(id.clone(), spec);
                }
                _ => {
                    eprintln!("daemon-serve: claim for {id} carries no valid spec");
                    log.failed += 1;
                    continue;
                }
            }
        }
        let spec = &specs[&id];
        let runner = |jobs| {
            span::timed("cache.run_sessions", n, || {
                eavs_bench::fleet::pooled_runner(jobs)
            })
        };
        let out = match span::timed("fleet.run_shard", n, || run_shard(spec, shard, &runner)) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("daemon-serve: shard {shard} of {id}: {e}");
                log.failed += 1;
                continue;
            }
        };
        let body = checkpoint::encode(&out.partial);
        let path = format!("/campaigns/{id}/shards/{shard}");
        log.call(addr, "partial", "POST", &path, body.as_bytes(), &[200], n);
        partial.get_or_insert(body);
    }
    (log, partial)
}

/// Serves rounds of campaigns for the window, then checks served results
/// against in-process runs of the same specs.
pub fn run(setup: &Setup, cfg: &Cfg) -> Result<Run, String> {
    let stop = AtomicBool::new(false);
    let addr = setup.addr.as_str();
    let cache0 = eavs_bench::cache::stats();
    let cpu0 = probe::pool_cpu_ns();
    let ((tlog, served, wall), (wlog, partial)) = std::thread::scope(|s| {
        let w = s.spawn(|| worker(addr, &stop));
        let t = tenant(setup, cfg, &stop);
        (t, w.join().expect("worker thread"))
    });
    let traced = span::enabled();
    span::set_enabled(false);
    let cache = eavs_bench::cache::stats();
    let busy_ns = probe::pool_cpu_ns() - cpu0;

    let mut run = Run {
        attempted: tlog.requests + wlog.requests,
        failed: tlog.failed + wlog.failed,
        ..Run::default()
    };
    let runs: u64 = served
        .iter()
        .map(|s| s.spec.sessions * s.spec.governors.len() as u64)
        .sum();
    run.work_per_s = runs as f64 / wall;
    run.wall_work_per_s = run.work_per_s;

    // Checked outputs: served bytes equal an in-process campaign's. Every
    // campaign of the first round and one of each later round.
    let (mut http_s, mut direct_s) = (0.0, 0.0);
    for (i, s) in served.iter().enumerate() {
        if i as u64 >= ROUND && !(i as u64).is_multiple_of(ROUND + 1) {
            continue;
        }
        let t = Instant::now();
        let direct = eavs_bench::fleet::run_campaign(&s.spec, &RunOptions::default());
        direct_s += t.elapsed().as_secs_f64();
        http_s += s.wall_s;
        match direct {
            Ok(out) if checkpoint::encode(&out.aggregate) == s.result => {}
            _ => {
                eprintln!("daemon-serve: served result of {} differs", s.spec.name);
                run.failed += 1;
            }
        }
    }

    let mut lat = tlog.lat;
    for (route, v) in wlog.lat {
        lat.entry(route).or_default().extend(v);
    }
    let mut requests = Vec::new();
    for route in ROUTES {
        let mut v = lat.remove(route).unwrap_or_default();
        run.layer(
            format!("daemon.{route}_ms_p50"),
            probe::quantile(&mut v, 0.5),
            "ms",
        );
        run.layer(
            format!("daemon.{route}_ms_p99"),
            probe::quantile(&mut v, 0.99),
            "ms",
        );
        requests.extend(v);
    }
    run.layer(
        "daemon.request_ms_p50",
        probe::quantile(&mut requests, 0.5),
        "ms",
    );
    run.layer(
        "daemon.request_ms_p99",
        probe::quantile(&mut requests, 0.99),
        "ms",
    );
    // The end-to-end latency is a campaign's turnaround, submit to
    // result: request-level tails are scheduler jitter on a two-core host
    // and vary run to run far beyond any usable bound.
    run.latency_ms = served.iter().map(|s| s.wall_s * 1e3).collect();
    if let Some(text) = partial {
        let ok = checkpoint::decode(&text).is_ok();
        let mut us: Vec<f64> = (0..20)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(checkpoint::decode(&text).ok());
                probe::ns_since(t) as f64 / 1e3
            })
            .collect();
        run.layer("daemon.partial_decode_us", probe::median(&mut us), "us");
        if !ok {
            run.failed += 1;
        }
    }
    let lookups = (cache.hits - cache0.hits + cache.misses - cache0.misses).max(1);
    run.layer(
        "cache.hit_ratio",
        (cache.hits - cache0.hits) as f64 / lookups as f64,
        "ratio",
    );
    run.layer("cache.bytes", cache.bytes as f64, "bytes");
    run.layer(
        "cache.evictions",
        (cache.evictions - cache0.evictions) as f64,
        "count",
    );
    let workers = eavs_bench::executor::pool().workers() as f64;
    run.layer(
        "executor.busy_ratio",
        busy_ns as f64 / (wall * 1e9 * workers),
        "ratio",
    );
    run.layer(
        "daemon.http_overhead_ratio",
        http_s / direct_s.max(1e-12),
        "ratio",
    );
    run.layer(
        "daemon.polls_per_campaign",
        served.iter().map(|s| s.polls).sum::<u64>() as f64 / served.len().max(1) as f64,
        "count",
    );
    span::set_enabled(traced);
    Ok(run)
}
