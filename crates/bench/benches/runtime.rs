//! Criterion benches for the runtime primitives: allocation fast path,
//! the `tcfree` small-object revert, the large-object two-step free, and
//! a mark-sweep cycle.

use criterion::{criterion_group, criterion_main, Criterion};
use minigo_runtime::{Category, FreeSource, Runtime, RuntimeConfig};

fn quiet() -> RuntimeConfig {
    RuntimeConfig {
        migrate_prob: 0.0,
        jitter: 0.0,
        gc_enabled: false,
        ..RuntimeConfig::default()
    }
}

fn bench_alloc(c: &mut Criterion) {
    c.bench_function("alloc_small_fast_path", |b| {
        let mut rt = Runtime::new(quiet());
        b.iter(|| std::hint::black_box(rt.alloc(64, Category::Slice)));
    });
    c.bench_function("alloc_large", |b| {
        let mut rt = Runtime::new(quiet());
        b.iter(|| {
            let a = rt.alloc(100_000, Category::Slice);
            rt.tcfree(a, FreeSource::SliceLifetime)
        });
    });
}

fn bench_tcfree(c: &mut Criterion) {
    c.bench_function("tcfree_small_revert", |b| {
        let mut rt = Runtime::new(quiet());
        b.iter(|| {
            let a = rt.alloc(64, Category::Slice);
            rt.tcfree(a, FreeSource::SliceLifetime)
        });
    });
    c.bench_function("tcfree_bail_already_free", |b| {
        let mut rt = Runtime::new(quiet());
        let a = rt.alloc(64, Category::Slice);
        rt.tcfree(a, FreeSource::SliceLifetime);
        let b2 = rt.alloc(64, Category::Slice); // occupy the slot again
        rt.tcfree(b2, FreeSource::SliceLifetime);
        b.iter(|| rt.tcfree(a, FreeSource::SliceLifetime));
    });
}

fn bench_gc_cycle(c: &mut Criterion) {
    c.bench_function("gc_mark_sweep_1000_objects", |b| {
        b.iter_with_setup(
            || {
                let mut rt = Runtime::new(quiet());
                let addrs: Vec<_> = (0..1000)
                    .map(|i| rt.alloc(64 + (i % 7) * 100, Category::Other))
                    .collect();
                let marked: Vec<_> = addrs.into_iter().step_by(2).collect();
                (rt, marked)
            },
            |(mut rt, marked)| {
                for addr in marked {
                    rt.mark(addr);
                }
                std::hint::black_box(rt.collect());
            },
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_alloc, bench_tcfree, bench_gc_cycle
}
criterion_main!(benches);
