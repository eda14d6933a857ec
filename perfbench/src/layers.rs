//! Stand-alone layer probes and span-derived self-time shares.
//!
//! The probes time the engine, the baseline governors, the predictor and
//! cold trace generation through their public interfaces, independent of
//! any workload; every traced run reports them.

use std::time::Instant;

use eavs_core::predictor::{FrameMeta, Hybrid, WorkloadPredictor};
use eavs_cpu::cluster::PolicyLimits;
use eavs_cpu::load::LoadSample;
use eavs_cpu::soc::SocModel;
use eavs_sim::prelude::*;
use eavs_trace::content::ContentProfile;
use eavs_trace::net_gen::NetworkProfile;
use eavs_trace::video_gen::VideoGenerator;
use eavs_video::manifest::Manifest;

use crate::probe;
use crate::run::{Layers, Run};
use crate::span::{self, Span};

/// Layers the benchmark's own spans are attributed to.
pub const SPAN_LAYERS: [&str; 6] = ["bench", "core", "fleet", "cache", "daemon", "experiments"];

/// Adds `<layer>.self_share` for every span layer: its self time over
/// the root spans' total.
pub fn self_shares(spans: &[Span], run: &mut Run) {
    let by_layer = span::self_ns_by_layer(spans);
    let roots = span::root_ns(spans).max(1) as f64;
    for layer in SPAN_LAYERS {
        let share = by_layer.get(layer).copied().unwrap_or(0) as f64 / roots;
        run.layer(format!("{layer}.self_share"), share, "ratio");
    }
}

/// Median of `reps` timings of `f`, in nanoseconds.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            probe::ns_since(t) as f64
        })
        .collect();
    probe::median(&mut samples)
}

struct PingPong {
    remaining: u64,
}

impl World for PingPong {
    type Event = ();
    fn handle(&mut self, sched: &mut Scheduler<()>, _: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(SimDuration::from_micros(10), ());
        }
    }
}

/// Engine-only cost per event: a self-rescheduling chain through
/// `Simulation::run`.
fn event_ns() -> f64 {
    const CHAIN: u64 = 200_000;
    median_ns(7, || {
        let mut sim = Simulation::new(PingPong { remaining: CHAIN });
        sim.scheduler().schedule_at(SimTime::ZERO, ());
        sim.run();
        std::hint::black_box(sim.now());
    }) / (CHAIN + 1) as f64
}

/// Baseline governors through the `dyn CpufreqGovernor` trait: median
/// over governors of ns per `on_sample` decision.
fn governor_ns() -> f64 {
    const DECISIONS: u32 = 100_000;
    let table = SocModel::Flagship2016.opp_table();
    let limits = PolicyLimits::full(&table);
    let window = SimDuration::from_millis(10);
    let mut per: Vec<f64> = eavs_governors::BASELINE_NAMES
        .iter()
        .filter_map(|name| eavs_governors::by_name(name))
        .map(|mut gov| {
            let mut idx = gov.initial_index(&table, limits);
            median_ns(5, || {
                for i in 0..DECISIONS {
                    let sample = LoadSample {
                        now: SimTime::ZERO + window * u64::from(i + 1),
                        window,
                        busy_fraction: f64::from(i % 97) / 96.0,
                        cur_freq: table.freq(idx),
                        cur_index: idx,
                    };
                    idx = gov.on_sample(&sample, &table, limits);
                }
            }) / f64::from(DECISIONS)
        })
        .collect();
    probe::median(&mut per)
}

fn title() -> Manifest {
    Manifest::single(6_000, 1920, 1080, SimDuration::from_secs(30), 30)
}

/// The hybrid predictor over generated streams of every content
/// profile: (ns per predict+observe, mean absolute percentage error).
fn predictor() -> (f64, f64) {
    let manifest = std::sync::Arc::new(title());
    let frames: Vec<Vec<(FrameMeta, f64)>> = ContentProfile::ALL
        .iter()
        .map(|&content| {
            let generator = VideoGenerator::new(manifest.clone(), content, 7);
            (0..manifest.num_segments)
                .flat_map(|i| generator.shared_segment(i, 0).frames().to_vec())
                .map(|f| (FrameMeta::from(&f), f.decode_cycles.mega()))
                .collect()
        })
        .collect();
    let n: usize = frames.iter().map(Vec::len).sum();
    let mut ape = 0.0;
    let ns = median_ns(5, || {
        ape = 0.0;
        for stream in &frames {
            let mut p = Hybrid::default();
            for (meta, actual) in stream {
                let predicted = p.predict(*meta).mega();
                ape += ((predicted - actual) / actual).abs();
                p.observe(*meta, eavs_cpu::freq::Cycles::from_mega(*actual));
            }
        }
    });
    (ns / n as f64, ape / n as f64)
}

/// Cold generation, uncached: ms for every segment of a 30 s 1080p
/// title, and ms per 90 s bandwidth trace.
fn trace_generation() -> (f64, f64) {
    let manifest = std::sync::Arc::new(title());
    let mut seed = 0;
    let segments = median_ns(5, || {
        seed += 1;
        let generator = VideoGenerator::new(manifest.clone(), ContentProfile::Film, seed);
        for i in 0..manifest.num_segments {
            std::hint::black_box(generator.segment(i, 0));
        }
    });
    let bandwidth = median_ns(5, || {
        seed += 1;
        for profile in NetworkProfile::ALL {
            std::hint::black_box(profile.generate(SimDuration::from_secs(90), seed));
        }
    }) / NetworkProfile::ALL.len() as f64;
    (segments / 1e6, bandwidth / 1e6)
}

/// Every stand-alone probe.
pub fn probe_all() -> Layers {
    let mut out = Layers::new();
    out.insert("bench.clock_ns".into(), (probe::clock_ns(), "ns"));
    out.insert("sim.event_ns".into(), (event_ns(), "ns"));
    out.insert("governors.ns_per_decision".into(), (governor_ns(), "ns"));
    let (ns, mape) = predictor();
    out.insert("predictor.ns_per_frame".into(), (ns, "ns"));
    out.insert("predictor.mape".into(), (mape, "ratio"));
    let (segments, bandwidth) = trace_generation();
    out.insert("trace.segments_ms".into(), (segments, "ms"));
    out.insert("trace.bandwidth_ms".into(), (bandwidth, "ms"));
    out
}
