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
//! analysis is paid once instead of once per machine.
//!
//! Three more groups time the paper's §4.2 regime on 200
//! Perfect-Club-like loops (15 operations on average): the four presets
//! scheduled with one shared core per loop (`perfect_club_suite`), the
//! machine-independent `LoopCore` facts HRMS reads, forced on a fresh core
//! per loop (`perfect_club_core_facts`), and the default pre-ordering
//! alone over cores that already hold those facts
//! (`perfect_club_pre_order`). CI runs this bench with `-- --test` as a
//! single-sample smoke check.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hrms_core::{pre_order, HrmsScheduler};
use hrms_ddg::{Ddg, LoopAnalysis, LoopCore};
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

/// Forces the `LoopCore` facts an HRMS cell reads: the SCCs, both CSRs,
/// the placement arcs, the dependence edges, the recurrence groups with
/// their cycle ratios, and the RecMII.
fn force_core_facts(la: &LoopAnalysis<'_>) {
    la.sccs();
    la.csr_work();
    la.csr_full();
    la.placement();
    la.dep_edges();
    la.recurrence_groups();
    std::hint::black_box(la.rec_mii());
}

fn bench_perfect_club_suite(c: &mut Criterion) {
    let loops: Vec<Ddg> = synthetic::perfect_club_like_sized(200);
    let scheduler = HrmsScheduler::new();
    let machines = presets::all();

    let mut group = c.benchmark_group("perfect_club_suite");
    group.sample_size(10);
    group.bench_function("hrms_4_presets", |b| {
        b.iter(|| {
            for ddg in &loops {
                let core = Arc::new(LoopCore::new());
                for machine in &machines {
                    let outcome = scheduler.schedule_loop_with_core(ddg, machine, &core);
                    std::hint::black_box(outcome.is_ok());
                }
            }
        })
    });
    group.finish();

    let mut group = c.benchmark_group("perfect_club_core_facts");
    group.sample_size(10);
    group.bench_function("fresh_core_per_loop", |b| {
        b.iter(|| {
            for ddg in &loops {
                force_core_facts(&LoopAnalysis::analyze(std::hint::black_box(ddg)));
            }
        })
    });
    group.finish();

    let cores: Vec<Arc<LoopCore>> = loops
        .iter()
        .map(|ddg| {
            let core = Arc::new(LoopCore::new());
            force_core_facts(&LoopAnalysis::with_core(ddg, Arc::clone(&core)));
            core
        })
        .collect();
    let mut group = c.benchmark_group("perfect_club_pre_order");
    group.sample_size(10);
    group.bench_function("default_order", |b| {
        b.iter(|| {
            for (ddg, core) in loops.iter().zip(&cores) {
                let la = LoopAnalysis::with_core(std::hint::black_box(ddg), Arc::clone(core));
                std::hint::black_box(pre_order(&la));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_one_loop_across_presets,
    bench_perfect_club_suite
);
criterion_main!(benches);
