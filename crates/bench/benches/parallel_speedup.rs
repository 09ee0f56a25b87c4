//! Exploration-throughput ablation: allocation-reusing (`Execution::reset`)
//! vs per-schedule `Execution::new` hot loops, on a mid-size CS benchmark. Each measurement
//! lands as a JSON point in `target/criterion-shim/parallel_speedup.jsonl`,
//! giving the perf trajectory a machine-readable series across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sct_bench::{bench_config, spec};
use sct_core::{explore, ExploreLimits, Technique};
use sct_core::{RandomScheduler, Scheduler};
use sct_runtime::{Execution, NoopObserver};
use std::hint::black_box;

const BENCHMARK: &str = "CS.reorder_3_bad";
const SCHEDULES: u64 = 400;

/// The pre-refactor hot loop: a fresh `Execution` (and config clone) per
/// schedule. Kept here as the baseline the reset-reuse loop is measured
/// against.
fn explore_fresh_alloc(program: &sct_ir::Program, runs: u64, seed: u64) -> u64 {
    let config = bench_config();
    let mut scheduler = RandomScheduler::new(runs, seed);
    let mut schedules = 0;
    while scheduler.begin_execution() {
        let mut exec = Execution::new(program, config.clone());
        let outcome = exec.run(&mut |p| scheduler.choose(p), &mut NoopObserver);
        scheduler.end_execution(&outcome);
        schedules += 1;
    }
    schedules
}

fn bench_reset_reuse(c: &mut Criterion) {
    let program = spec(BENCHMARK).program();
    let mut group = c.benchmark_group("parallel_speedup");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("alloc_per_schedule", BENCHMARK), |b| {
        b.iter(|| black_box(explore_fresh_alloc(&program, SCHEDULES, 1)))
    });
    group.bench_function(BenchmarkId::new("reset_reuse", BENCHMARK), |b| {
        b.iter(|| {
            let stats = explore::run_technique(
                &program,
                &bench_config(),
                Technique::Random { seed: 1 },
                &ExploreLimits::with_schedule_limit(SCHEDULES),
            );
            black_box(stats.schedules)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_reset_reuse);
criterion_main!(benches);
