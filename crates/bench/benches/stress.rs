//! Large-loop stress benchmarks: the pre-ordering on 200–2000-operation
//! loop bodies, and batch-scheduling throughput of the parallel engine.
//! CI runs this bench with `-- --test` as a single-sample smoke check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_core::{pre_order, HrmsScheduler};
use hrms_ddg::Ddg;
use hrms_engine::BatchEngine;
use hrms_machine::{presets, Machine};
use hrms_modsched::{ModuloScheduler, ScheduleOutcome};
use hrms_workloads::synthetic;

/// Schedules every loop with HRMS across the engine's worker pool, in
/// input order; panics if a loop fails, so a regression surfaces in the
/// single-sample CI smoke run.
fn schedule_all(engine: &BatchEngine, loops: &[Ddg], machine: &Machine) -> Vec<ScheduleOutcome> {
    let scheduler = HrmsScheduler::new();
    engine.map(loops, |_, ddg| {
        scheduler
            .schedule_loop(ddg, machine)
            .expect("stress loops schedule")
    })
}

fn bench_preorder(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_preorder");
    group.sample_size(30);
    for ddg in synthetic::stress_suite() {
        let ops = ddg.num_nodes();
        group.bench_with_input(BenchmarkId::new("dense", ops), &ddg, |b, ddg| {
            b.iter(|| pre_order(&hrms_ddg::LoopAnalysis::analyze(std::hint::black_box(ddg))))
        });
    }
    group.finish();
}

fn bench_batch_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_batch_engine");
    group.sample_size(10);
    // A mixed batch of mid-size loops: enough work per item that the scoped
    // worker pool's speedup is visible over the spawn overhead.
    let loops = synthetic::perfect_club_like_sized(192);
    let machine = presets::perfect_club();
    for workers in [1usize, 2, 4, 8] {
        let engine = BatchEngine::with_workers(workers);
        group.bench_with_input(
            BenchmarkId::new("schedule_batch", workers),
            &loops,
            |b, loops| b.iter(|| schedule_all(&engine, std::hint::black_box(loops), &machine)),
        );
    }
    group.finish();
}

fn bench_stress_suite_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("stress_schedule");
    group.sample_size(10);
    // End-to-end scheduling of the large-loop stress suite through the
    // engine (pre-ordering + placement, all loops in parallel).
    let loops = synthetic::stress_suite();
    let machine = presets::perfect_club();
    let engine = BatchEngine::new();
    group.bench_function("stress_suite_parallel", |b| {
        b.iter(|| schedule_all(&engine, std::hint::black_box(&loops), &machine))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_preorder,
    bench_batch_engine,
    bench_stress_suite_scheduling
);
criterion_main!(benches);
