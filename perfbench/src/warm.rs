//! Trace warm-up: generates, through the program's memoized generators,
//! every segment (at every ladder rung) and bandwidth trace a set of
//! fleet draws will touch, so timed work never pays first-time trace
//! generation. The work counts towards `setup_s`.

use std::collections::HashSet;

use eavs_fleet::campaign::SessionDraw;
use eavs_fleet::spec::{AbrChoice, NetworkChoice};
use eavs_sim::time::SimDuration;
use eavs_trace::video_gen::VideoGenerator;
use eavs_video::manifest::Manifest;

/// The manifest a draw streams: one rung for fixed-rate titles, the
/// standard ladder under ABR (the choice `eavs_fleet::builder_for` makes).
fn manifest_for(draw: &SessionDraw) -> Manifest {
    let t = draw.title;
    let duration = SimDuration::from_secs(t.duration_s);
    match draw.abr {
        AbrChoice::Fixed => Manifest::single(t.bitrate_kbps, t.width, t.height, duration, t.fps),
        AbrChoice::Rate | AbrChoice::Buffer => Manifest::standard_ladder(duration, t.fps),
    }
}

/// Warms segments and traces for `draws`; returns how many distinct
/// streams and traces were generated.
pub fn warm<'a>(draws: impl IntoIterator<Item = &'a SessionDraw>) -> (usize, usize) {
    let mut streams = HashSet::new();
    let mut traces = HashSet::new();
    for d in draws {
        let t = d.title;
        let stream = (
            t.bitrate_kbps,
            t.width,
            t.height,
            t.duration_s,
            t.fps,
            d.abr.name(),
            d.content.name(),
            d.workload_seed,
        );
        if streams.insert(stream) {
            let manifest = manifest_for(d);
            let (rungs, segments) = (manifest.num_representations(), manifest.num_segments);
            let generator = VideoGenerator::new(manifest, d.content, d.workload_seed);
            for rung in 0..rungs {
                for index in 0..segments {
                    std::hint::black_box(generator.shared_segment(index, rung));
                }
            }
        }
        if let NetworkChoice::Profile(profile) = d.network {
            let duration = SimDuration::from_secs(t.duration_s) * 3;
            if traces.insert((profile.name(), duration.as_nanos(), d.trace_seed)) {
                std::hint::black_box(profile.generate_shared(duration, d.trace_seed));
            }
        }
    }
    (streams.len(), traces.len())
}
