//! Schedule-caching ablation: iterative bounding with and without the
//! decision-prefix schedule cache, serial and stolen, on benchmarks whose
//! searches climb several bound levels (where re-executing the covered
//! interior dominates the uncached cost). Each measurement lands as a JSON
//! point in `target/criterion-shim/schedule_cache.jsonl`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sct_bench::{bench_config, spec};
use sct_core::{explore, BoundKind, ExploreLimits, Technique};
use std::hint::black_box;

const BENCHMARKS: &[&str] = &["CS.reorder_3_bad", "CS.twostage_bad"];
const SCHEDULES: u64 = 1_000;

fn bench_cached_vs_uncached(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_cache");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);

    for name in BENCHMARKS {
        let program = spec(name).program();
        let uncached = ExploreLimits::with_schedule_limit(SCHEDULES);
        let cached = uncached.clone().with_cache(true);
        for kind in [BoundKind::Preemption, BoundKind::Delay] {
            let label = kind.short_name();
            group.bench_with_input(
                BenchmarkId::new(format!("I{label}_uncached"), name),
                &kind,
                |b, kind| {
                    b.iter(|| {
                        let stats = explore::iterative_bounding(
                            &program,
                            &bench_config(),
                            *kind,
                            &uncached,
                        );
                        black_box(stats.executions)
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("I{label}_cached"), name),
                &kind,
                |b, kind| {
                    b.iter(|| {
                        let stats =
                            explore::iterative_bounding(&program, &bench_config(), *kind, &cached);
                        black_box(stats.executions)
                    })
                },
            );
        }
    }
    group.finish();
}

/// Cached IDB with its bound levels split across one stealing worker per
/// available core.
fn bench_cached_stolen(c: &mut Criterion) {
    let program = spec("CS.reorder_3_bad").program();
    let workers = sct_core::default_workers();
    let cached = ExploreLimits::with_schedule_limit(SCHEDULES)
        .with_cache(true)
        .with_steal_workers(workers);
    let mut group = c.benchmark_group("schedule_cache");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);
    group.bench_function(
        BenchmarkId::new(format!("IDB_cached_steal_x{workers}"), "CS.reorder_3_bad"),
        |b| {
            b.iter(|| {
                let stats = explore::run_technique(
                    &program,
                    &bench_config(),
                    Technique::IterativeDelayBounding,
                    &cached,
                );
                black_box(stats.cache_hits)
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_cached_vs_uncached, bench_cached_stolen);
criterion_main!(benches);
