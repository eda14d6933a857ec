//! Governor dispatch cost: dyn trait object vs devirtualized enum, at
//! lane widths 1, 8 and 64.
//!
//! Both paths step the same [`DispatchLanes`] workload (every
//! baseline governor, deterministic load stream), so the comparison
//! isolates dispatch and frequency-selection strategy.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use eavs_bench::dispatch::{DispatchLanes, WIDTHS};

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("governor_dispatch");
    for width in WIDTHS {
        group.throughput(Throughput::Elements(width as u64));
        let mut lanes = DispatchLanes::new(width);
        group.bench_function(&format!("dyn/w{width}"), |b| {
            b.iter(|| black_box(lanes.step_dyn()))
        });
        let mut lanes = DispatchLanes::new(width);
        group.bench_function(&format!("enum/w{width}"), |b| {
            b.iter(|| black_box(lanes.step_enum()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
