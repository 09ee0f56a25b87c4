//! Work-stealing frontier throughput: unbounded DFS over larger SCTBench
//! programs, serial vs the stolen frontier at 2/4/8 workers, skipping the
//! counts above the available cores (oversubscribed points would measure
//! the OS scheduler, not the frontier). The statistics
//! are bit-identical at every worker count (the differential suite proves
//! that), so the *only* thing this target measures is wall-clock — i.e.
//! schedules per second. Each measurement lands as a JSON point in
//! `target/criterion-shim/dfs_steal.jsonl`, giving the speedup trajectory a
//! machine-readable series across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sct_bench::{bench_config, spec};
use sct_core::{explore_bounded_stealing, BoundKind, ExploreLimits};
use std::hint::black_box;

/// Programs with enough frontier for stealing to pay: thousands of schedules
/// and non-trivial replay depth per schedule.
const BENCHMARKS: &[&str] = &["CS.din_phil4_sat", "CS.twostage_bad", "misc.ctrace-test"];
const SCHEDULES: u64 = 2_000;

fn explore(program: &sct_ir::Program, workers: usize) -> u64 {
    let limits = ExploreLimits::with_schedule_limit(SCHEDULES).with_steal_workers(workers);
    let stats =
        explore_bounded_stealing(program, &bench_config(), BoundKind::None, u32::MAX, &limits);
    stats.schedules
}

fn bench_dfs_steal(c: &mut Criterion) {
    let cores = sct_core::default_workers();
    let (sweep, skipped): (Vec<usize>, Vec<usize>) =
        [2usize, 4, 8].into_iter().partition(|&w| w <= cores);
    if !skipped.is_empty() {
        eprintln!("dfs_steal: {cores} cores available, skipping steal_x{skipped:?}");
    }
    let mut group = c.benchmark_group("dfs_steal");
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(10);

    for name in BENCHMARKS {
        let program = spec(name).program();
        group.bench_with_input(BenchmarkId::new("serial", name), &program, |b, program| {
            b.iter(|| black_box(explore(program, 1)))
        });
        for &workers in &sweep {
            group.bench_with_input(
                BenchmarkId::new(format!("steal_x{workers}"), name),
                &program,
                |b, program| b.iter(|| black_box(explore(program, workers))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dfs_steal);
criterion_main!(benches);
