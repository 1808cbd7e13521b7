//! Multi-machine scheduling benchmark: one loop scheduled on every
//! machine preset, with the machine-independent analysis either rebuilt
//! from scratch per machine (`schedule_loop`, a private core per call) or
//! built once and shared across all machines through an
//! [`hrms_ddg::LoopCore`] (`schedule_loop_with_core`, the sharing the
//! engine's `schedule_matrix` does per loop).
//!
//! This is the benchmark backing the shared-core acceptance criterion:
//! on a ≥ 500-operation loop, the shared-core sweep over the four presets
//! must beat the from-scratch sweep — the Tarjan/λ-search/recurrence
//! analysis is paid once instead of once per machine. CI runs this bench
//! with `-- --test` as a single-sample smoke check.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_core::HrmsScheduler;
use hrms_ddg::LoopCore;
use hrms_machine::presets;
use hrms_modsched::ModuloScheduler;
use hrms_workloads::{synthetic, LoopGenerator};

fn bench_one_loop_across_presets(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_machine");
    group.sample_size(10);
    let scheduler = HrmsScheduler::new();
    let machines = presets::all();
    // A ≥ 500-operation loop: large enough that the machine-independent
    // analysis dominates the per-machine work.
    for size in [500usize, 1000] {
        let ddg =
            LoopGenerator::new(0xB5 ^ size as u64, synthetic::stress_config(size)).next_loop();
        group.bench_with_input(BenchmarkId::new("from_scratch", size), &ddg, |b, ddg| {
            b.iter(|| {
                for machine in &machines {
                    scheduler
                        .schedule_loop(std::hint::black_box(ddg), machine)
                        .expect("stress loop schedules");
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("shared_core", size), &ddg, |b, ddg| {
            b.iter(|| {
                let core = Arc::new(LoopCore::new());
                for machine in &machines {
                    scheduler
                        .schedule_loop_with_core(std::hint::black_box(ddg), machine, &core)
                        .expect("stress loop schedules");
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_one_loop_across_presets);
criterion_main!(benches);
